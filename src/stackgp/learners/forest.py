"""Random forest: bagged trees with per-split feature subsampling.

Each tree sees an n-out-of-n bootstrap and draws max_features candidate
columns at every node (default ceil(m / 3)). The forest prediction is the
plain mean over trees, so it is always inside the envelope of per-tree
predictions, which are themselves means of training responses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trees import RegressionTree, grow_tree


@dataclass
class ForestModel:
    trees: list

    @property
    def n_features(self) -> int:
        """Columns a design needs for this forest: its largest split feature plus one."""
        return max((tree.n_features for tree in self.trees), default=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros(X.shape[0])
        for tree in self.trees:
            out += tree.predict(X)
        return out / len(self.trees)

    def state_dict(self) -> dict:
        return {"trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def from_state(cls, state: dict) -> "ForestModel":
        return cls(trees=[RegressionTree.from_dict(t) for t in state["trees"]])


def fit_rf(X, y, params: dict, rng: np.random.Generator) -> ForestModel:
    n, m = X.shape
    mtry = params["max_features"]
    if mtry is None:
        mtry = max(1, math.ceil(m / 3))
    mtry = min(mtry, m)
    trees = []
    for _ in range(params["n_trees"]):
        boot = rng.integers(0, n, size=n) if params["bootstrap"] else np.arange(n)
        trees.append(grow_tree(
            X[boot], y[boot],
            max_depth=params["max_depth"],
            min_samples_leaf=params["min_samples_leaf"],
            mtry=mtry, rng=rng,
        ))
    return ForestModel(trees=trees)
