"""Regression trees shared by the boosting and forest learners.

Exact split search (the pre-sorted exact greedy search of Chen & Guestrin
2016): candidate thresholds are midpoints between consecutive sorted unique
values, scored by squared-error reduction.

- Each tree sorts its columns once, ``argsort(X, axis=0, kind="stable")``,
  held as an (m, n) array of row indices, one row per column.
- A child keeps its per-column sorted rows by a stable partition of its
  parent's: a row mask picks the child's entries of every column in the
  parent's order, so the sort is never repeated. Node row sets stay in
  ascending row order, and tied values keep ascending row order, exactly as
  a stable sort of the node's own rows would put them.
- A node gathers its candidate columns (all of them, or the forest's sorted
  ``mtry`` draw) as (c, n_node) arrays of sorted values and responses, and
  scores every split of every candidate in one gain array.
- One ``argmax`` over the feature-major flattened gains picks the split, so
  ties break toward the lower column index, then the lower threshold, and
  refits are bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GAIN_EPS = 1e-12


def _best_split(xs, ys, y_node, total, min_leaf):
    """Best (candidate, threshold) at one node; candidate -1 when none.

    ``xs`` and ``ys`` are (c, n) arrays: row r holds candidate r's values in
    ascending order and the responses in that order. ``y_node`` holds the
    responses in ascending row order and ``total`` is their sum. Only splits
    leaving at least ``min_leaf`` rows on each side are scored. A split must
    beat a reduction of ``GAIN_EPS * max(1, |node SS|)``, which keeps fp noise
    on constant nodes from producing phantom splits.
    """
    n = y_node.size
    ks = np.arange(min_leaf, n - min_leaf + 1)    # left-child sizes
    below = xs[:, min_leaf - 1:n - min_leaf]
    above = xs[:, min_leaf:n - min_leaf + 1]
    valid = above > below
    if not valid.any():
        return -1, 0.0
    left_sum = ys[:, :n - min_leaf].cumsum(axis=1)[:, min_leaf - 1:]
    base = total * total / n
    gains = np.where(
        valid,
        left_sum**2 / ks + (total - left_sum) ** 2 / (n - ks) - base,
        -np.inf,
    )
    r, k = divmod(int(gains.argmax()), ks.size)
    node_ss = float(y_node @ y_node) - base
    if not gains[r, k] > GAIN_EPS * max(1.0, abs(node_ss)):
        return -1, 0.0
    return r, 0.5 * (below[r, k] + above[r, k])


@dataclass
class RegressionTree:
    """Flat-array tree; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0])
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            j = self.feature[node]
            if j < 0:
                out[rows] = self.value[node]
                continue
            go_left = X[rows, j] <= self.threshold[node]
            stack.append((self.left[node], rows[go_left]))
            stack.append((self.right[node], rows[~go_left]))
        return out

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RegressionTree":
        return cls(
            feature=np.asarray(d["feature"], dtype=int),
            threshold=np.asarray(d["threshold"], dtype=float),
            left=np.asarray(d["left"], dtype=int),
            right=np.asarray(d["right"], dtype=int),
            value=np.asarray(d["value"], dtype=float),
        )


def grow_tree(X, y, *, max_depth, min_samples_leaf, mtry=None, rng=None) -> RegressionTree:
    """Grow one tree to depth/leaf limits.

    mtry, when set, samples that many features per node from rng (the forest
    case); otherwise every feature is a candidate. Children are built left
    first, so rng draws are reproducible.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = X.shape
    depth_cap = np.inf if max_depth is None else max_depth
    Xt = np.ascontiguousarray(X.T)
    all_columns = np.arange(m)
    feature, threshold, left, right, value = [], [], [], [], []

    def sorted_rows(order, keep, size, depth):
        """A child's per-column sorted rows; None when it cannot split."""
        if depth >= depth_cap or size < 2 * min_samples_leaf:
            return None
        return order[keep].reshape(m, size)

    def build(idx, order, depth):
        # idx: the node's rows, ascending; order: (m, idx.size), each
        # column's node rows in that column's sorted order, or None when
        # the node cannot split
        y_node = y[idx]
        total = float(y_node.sum())
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(total / idx.size)
        node = len(feature) - 1
        if order is None:
            return node
        if mtry is None or mtry >= m:
            columns = all_columns
        else:
            columns = np.sort(rng.choice(m, size=mtry, replace=False))
        rows = order[columns]
        r, thr = _best_split(Xt[columns[:, None], rows], y[rows], y_node, total,
                             min_samples_leaf)
        if r < 0:
            return node
        j = int(columns[r])
        goes_left = Xt[j] <= thr
        feature[node] = j
        threshold[node] = thr
        in_left = goes_left[order]
        for side, child, keep in ((left, idx[goes_left[idx]], in_left),
                                  (right, idx[~goes_left[idx]], ~in_left)):
            side[node] = build(child, sorted_rows(order, keep, child.size, depth + 1), depth + 1)
        return node

    presorted = np.argsort(X, axis=0, kind="stable").T    # (m, n), once per tree
    build(np.arange(n), sorted_rows(presorted, ..., n, 0), 0)
    return RegressionTree(
        feature=np.asarray(feature, dtype=int),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=int),
        right=np.asarray(right, dtype=int),
        value=np.asarray(value, dtype=float),
    )
