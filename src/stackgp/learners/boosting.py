"""Gradient-boosted trees for squared error.

The model is mean(y) + learning_rate * sum of trees fitted to residuals.
Zero rounds therefore reduce to the training-mean model. Row and column
subsampling happen once per round (rows first, then columns) so a fixed
seed replays the same ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from .trees import RegressionTree, _index_array, grow_tree


@dataclass
class GbtModel:
    base: float
    learning_rate: float
    trees: list
    col_subsets: list   # per-tree column indices into the full design

    def __post_init__(self):
        """Refuse a tree that splits on a column past its subset, or a negative column."""
        if len(self.trees) != len(self.col_subsets):
            raise DataError(f"gbt has {len(self.trees)} trees but "
                            f"{len(self.col_subsets)} column subsets")
        for i, (tree, cols) in enumerate(zip(self.trees, self.col_subsets)):
            if cols.size and cols.min() < 0:
                raise DataError(f"gbt column subset {i} holds a negative column: {cols.tolist()}")
            if tree.n_features > cols.size:
                raise DataError(f"gbt tree {i} splits on column {tree.n_features - 1} of "
                                f"its column subset {cols.tolist()}")

    @property
    def n_features(self) -> int:
        """Columns a design needs for this model: its largest subset column plus one."""
        return max((int(cols.max()) + 1 for cols in self.col_subsets if cols.size), default=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.full(X.shape[0], self.base)
        for tree, cols in zip(self.trees, self.col_subsets):
            out += self.learning_rate * tree.predict(X[:, cols])
        return out

    def state_dict(self) -> dict:
        return {
            "base": self.base,
            "learning_rate": self.learning_rate,
            "trees": [t.to_dict() for t in self.trees],
            "col_subsets": [c.tolist() for c in self.col_subsets],
        }

    @classmethod
    def from_state(cls, state: dict) -> "GbtModel":
        return cls(
            base=float(state["base"]),
            learning_rate=float(state["learning_rate"]),
            trees=[RegressionTree.from_dict(t) for t in state["trees"]],
            col_subsets=[_index_array("col_subsets", c) for c in state["col_subsets"]],
        )


def fit_gbt(X, y, params: dict, rng: np.random.Generator) -> GbtModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = X.shape
    if n < 2:
        raise DataError("gbt requires at least 2 rows")
    eta = params["learning_rate"]
    n_rows = max(1, int(round(params["subsample_rows"] * n)))
    n_cols = max(1, int(round(params["subsample_cols"] * m)))
    model = GbtModel(base=float(y.mean()), learning_rate=eta, trees=[], col_subsets=[])
    current = np.full(n, model.base)
    for _ in range(params["n_rounds"]):
        rows = rng.choice(n, size=n_rows, replace=False) if n_rows < n else np.arange(n)
        cols = np.sort(rng.choice(m, size=n_cols, replace=False)) if n_cols < m else np.arange(m)
        resid = y - current
        tree = grow_tree(
            X[np.ix_(rows, cols)], resid[rows],
            max_depth=params["max_depth"],
            min_samples_leaf=params["min_samples_leaf"],
        )
        model.trees.append(tree)
        model.col_subsets.append(cols)
        current += eta * tree.predict(X[:, cols])
    return model
