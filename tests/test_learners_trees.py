import itertools

import numpy as np
import pytest

from stackgp.errors import DataError
from stackgp.learners import LearnerSpec, fit_learner
from stackgp.learners.boosting import GbtModel, fit_gbt
from stackgp.learners.forest import ForestModel, fit_rf
from stackgp.learners.trees import GAIN_EPS, RegressionTree, grow_tree


def reference_best_split(X, y, idx, features, min_leaf):
    """Oracle: the per-feature split search, one stable argsort per feature per node."""
    n = idx.size
    y_node = y[idx]
    total = float(y_node.sum())
    node_ss = float(y_node @ y_node) - total * total / n
    best_gain = GAIN_EPS * max(1.0, abs(node_ss))
    best_feature, best_threshold = -1, 0.0
    base = total * total / n
    ks = np.arange(1, n)
    for j in features:
        order = np.argsort(X[idx, j], kind="stable")
        xs = X[idx[order], j]
        ys = y_node[order]
        valid = xs[1:] > xs[:-1]
        if min_leaf > 1:
            valid &= (ks >= min_leaf) & (n - ks >= min_leaf)
        if not valid.any():
            continue
        left_sum = np.cumsum(ys)[:-1]
        gains = np.where(
            valid,
            left_sum**2 / ks + (total - left_sum) ** 2 / (n - ks) - base,
            -np.inf,
        )
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            best_gain = float(gains[k])
            best_feature = int(j)
            best_threshold = 0.5 * (xs[k] + xs[k + 1])
    return best_gain, best_feature, best_threshold


def reference_grow_tree(X, y, *, max_depth, min_samples_leaf, mtry=None, rng=None):
    """Oracle: depth-first, left-first growth over reference_best_split."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = X.shape
    depth_cap = np.inf if max_depth is None else max_depth
    nodes = []    # [feature, threshold, left, right, value]

    def build(idx, depth):
        nodes.append([-1, 0.0, -1, -1, float(y[idx].mean())])
        node = len(nodes) - 1
        if depth >= depth_cap or idx.size < 2 * min_samples_leaf:
            return node
        if mtry is None or mtry >= m:
            candidates = range(m)
        else:
            candidates = np.sort(rng.choice(m, size=mtry, replace=False))
        _, j, thr = reference_best_split(X, y, idx, candidates, min_samples_leaf)
        if j < 0:
            return node
        go_left = X[idx, j] <= thr
        nodes[node][:2] = j, thr
        nodes[node][2] = build(idx[go_left], depth + 1)
        nodes[node][3] = build(idx[~go_left], depth + 1)
        return node

    build(np.arange(n), 0)
    feature, threshold, left, right, value = zip(*nodes)
    return RegressionTree(
        feature=np.asarray(feature, dtype=int),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=int),
        right=np.asarray(right, dtype=int),
        value=np.asarray(value, dtype=float),
    )


def oracle_case(layout, seed):
    """(X, y) for one bit-identity case; all but "unrounded" hold tied x values."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 80))
    X = np.round(rng.normal(size=(n, 4)), 1)
    y = X[:, 0] - X[:, 1] ** 2 + rng.normal(size=n)
    if layout == "duplicated+constant":
        X = np.column_stack([X[:, :2], X[:, 1], np.full(n, 0.3), X[:, 2:]])
    elif layout == "bootstrap":
        boot = rng.integers(0, n, size=n)
        X, y = X[boot], y[boot]
    elif layout == "unrounded":
        X = X + rng.uniform(-0.05, 0.05, size=X.shape)
    return X, y


def brute_force_stump(X, y):
    """Exhaustive search over every (feature, midpoint) split minimising SSE."""
    n, m = X.shape
    best = (np.inf, -1, 0.0)
    for j in range(m):
        for thr in np.unique(X[:, j]):
            left = X[:, j] <= thr
            if left.all() or not left.any():
                continue
            sse = ((y[left] - y[left].mean()) ** 2).sum() + \
                  ((y[~left] - y[~left].mean()) ** 2).sum()
            if sse < best[0] - 1e-12:
                best = (sse, j, thr)
    return best


def tree_depth(tree, node=0):
    if tree.feature[node] < 0:
        return 0
    return 1 + max(tree_depth(tree, tree.left[node]),
                   tree_depth(tree, tree.right[node]))


def leaf_row_counts(tree, X):
    """Rows routed to each leaf node id."""
    counts = {}
    for i in range(X.shape[0]):
        node = 0
        while tree.feature[node] >= 0:
            node = tree.left[node] if X[i, tree.feature[node]] <= tree.threshold[node] \
                else tree.right[node]
        counts[node] = counts.get(node, 0) + 1
    return counts


class TestRegressionTree:
    def test_stump_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n, m = int(rng.integers(6, 25)), int(rng.integers(1, 4))
            X = rng.normal(size=(n, m))
            y = rng.normal(size=n)
            tree = grow_tree(X, y, max_depth=1, min_samples_leaf=1)
            sse_star, j_star, _ = brute_force_stump(X, y)
            pred = tree.predict(X)
            sse_tree = ((y - pred) ** 2).sum()
            assert sse_tree == pytest.approx(sse_star, abs=1e-9)
            if tree.feature[0] >= 0:
                assert tree.feature[0] == j_star

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 3))
        y = rng.normal(size=200)
        for cap in (1, 2, 4):
            tree = grow_tree(X, y, max_depth=cap, min_samples_leaf=1)
            assert tree_depth(tree) <= cap

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 2))
        y = rng.normal(size=60)
        tree = grow_tree(X, y, max_depth=None, min_samples_leaf=7)
        counts = leaf_row_counts(tree, X)
        assert min(counts.values()) >= 7

    def test_unbounded_depth_interpolates_unique_rows(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        tree = grow_tree(X, y, max_depth=None, min_samples_leaf=1)
        np.testing.assert_allclose(tree.predict(X), y, atol=1e-12)

    def test_constant_response_single_leaf(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 2))
        tree = grow_tree(X, np.full(30, 2.5), max_depth=None, min_samples_leaf=1)
        assert len(tree.feature) == 1
        assert tree.predict(X[:5]).tolist() == [2.5] * 5

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        tree = grow_tree(X, y, max_depth=4, min_samples_leaf=2)
        clone = RegressionTree.from_dict(tree.to_dict())
        Xnew = rng.normal(size=(20, 3))
        np.testing.assert_array_equal(tree.predict(Xnew), clone.predict(Xnew))

    def test_tie_break_is_stable(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(25, 2))
        X[:, 1] = X[:, 0]    # duplicated feature: gains tie, lower index wins
        y = (X[:, 0] > 0).astype(float) + 0.1 * rng.normal(size=25)
        tree = grow_tree(X, y, max_depth=1, min_samples_leaf=1)
        assert tree.feature[0] == 0

    def test_tied_thresholds_lower_wins(self):
        # splits after x=0 and after x=2 reduce the SS by the same 4/3 - 1
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        tree = grow_tree(X, y, max_depth=1, min_samples_leaf=1)
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 0.5

    @pytest.mark.parametrize("seed,layout,min_leaf,max_depth,mtry", [
        (seed, *case) for seed, case in enumerate(itertools.product(
            ["rounded", "duplicated+constant", "bootstrap", "unrounded"],
            [1, 2, 7], [None, 3], [None, 2]))])
    def test_bit_identical_to_per_feature_search(self, seed, layout, min_leaf, max_depth, mtry):
        X, y = oracle_case(layout, seed)
        kwargs = dict(max_depth=max_depth, min_samples_leaf=min_leaf, mtry=mtry)
        tree = grow_tree(X, y, rng=np.random.default_rng(seed), **kwargs)
        ref = reference_grow_tree(X, y, rng=np.random.default_rng(seed), **kwargs)
        assert tree.to_dict() == ref.to_dict()
        assert tree.threshold.tobytes() == ref.threshold.tobytes()
        assert tree.value.tobytes() == ref.value.tobytes()
        assert len(ref.feature) > 1


class TestGbt:
    def test_zero_rounds_predicts_mean(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        spec = LearnerSpec(kind="gbt", params={"n_rounds": 0})
        model = fit_learner(spec, X, y)
        np.testing.assert_allclose(model.predict(X), np.full(30, y.mean()), atol=1e-12)
        np.testing.assert_allclose(model.predict(rng.normal(size=(5, 3))),
                                   np.full(5, y.mean()), atol=1e-12)

    def test_interpolation_limit(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        spec = LearnerSpec(kind="gbt", params={
            "n_rounds": 1, "learning_rate": 1.0, "max_depth": 30,
            "min_samples_leaf": 1, "subsample_rows": 1.0, "subsample_cols": 1.0})
        model = fit_learner(spec, X, y)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-10)

    def test_sign_indicator_single_stump(self):
        X = np.array([[-2.0], [-1.0], [-0.5], [0.5], [1.0], [2.0]])
        y = (X[:, 0] > 0).astype(float)
        spec = LearnerSpec(kind="gbt", params={
            "n_rounds": 1, "learning_rate": 1.0, "max_depth": 1,
            "min_samples_leaf": 1, "subsample_rows": 1.0, "subsample_cols": 1.0})
        model = fit_learner(spec, X, y)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-12)
        tree = model.model.trees[0]
        assert tree.feature[0] == 0
        assert -0.5 < tree.threshold[0] < 0.5

    def test_training_loss_non_increasing_without_subsampling(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(80, 3))
        y = X[:, 0] + np.sin(X[:, 1]) + rng.normal(size=80) * 0.2
        params = dict(LearnerSpec(kind="gbt", params={
            "n_rounds": 40, "subsample_rows": 1.0, "subsample_cols": 1.0,
            "min_samples_leaf": 2}).params)
        model = fit_gbt(X, y, params, np.random.default_rng(0))
        current = np.full(80, model.base)
        losses = [((y - current) ** 2).mean()]
        for tree, cols in zip(model.trees, model.col_subsets):
            current = current + model.learning_rate * tree.predict(X[:, cols])
            losses.append(((y - current) ** 2).mean())
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_constant_response_constant_model(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(20, 2))
        model = fit_learner(LearnerSpec(kind="gbt"), X, np.full(20, 3.0))
        np.testing.assert_allclose(model.predict(X), 3.0, atol=1e-12)

    def test_single_row_rejected(self):
        with pytest.raises(DataError):
            fit_learner(LearnerSpec(kind="gbt"), np.ones((1, 2)), np.ones(1))

    def test_seeded_refit_identical(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        spec = LearnerSpec(kind="gbt", params={"n_rounds": 20}, seed=42)
        p1 = fit_learner(spec, X, y).predict(X)
        p2 = fit_learner(spec, X, y).predict(X)
        np.testing.assert_array_equal(p1, p2)

    def test_round_trip(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        model = fit_gbt(X, y, LearnerSpec(kind="gbt", params={"n_rounds": 10}).params,
                        np.random.default_rng(1))
        clone = GbtModel.from_state(model.state_dict())
        Xnew = rng.normal(size=(10, 3))
        np.testing.assert_array_equal(model.predict(Xnew), clone.predict(Xnew))


class TestRandomForest:
    def test_single_tree_no_bootstrap_equals_plain_tree(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        params = LearnerSpec(kind="rf", params={
            "n_trees": 1, "bootstrap": False, "max_features": 3,
            "max_depth": 6, "min_samples_leaf": 2}).params
        forest = fit_rf(X, y, dict(params), np.random.default_rng(0))
        single = grow_tree(X, y, max_depth=6, min_samples_leaf=2)
        Xnew = rng.normal(size=(15, 3))
        np.testing.assert_array_equal(forest.predict(Xnew), single.predict(Xnew))

    def test_prediction_within_tree_envelope(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        forest = fit_rf(X, y, LearnerSpec(kind="rf", params={"n_trees": 12}).params,
                        np.random.default_rng(3))
        Xnew = rng.normal(size=(40, 4))
        per_tree = np.column_stack([t.predict(Xnew) for t in forest.trees])
        pred = forest.predict(Xnew)
        assert np.all(pred >= per_tree.min(axis=1) - 1e-10)
        assert np.all(pred <= per_tree.max(axis=1) + 1e-10)

    def test_seeded_refit_identical(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        spec = LearnerSpec(kind="rf", params={"n_trees": 8}, seed=7)
        p1 = fit_learner(spec, X, y).predict(X)
        p2 = fit_learner(spec, X, y).predict(X)
        np.testing.assert_array_equal(p1, p2)

    def test_round_trip(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        forest = fit_rf(X, y, LearnerSpec(kind="rf", params={"n_trees": 5}).params,
                        np.random.default_rng(2))
        clone = ForestModel.from_state(forest.state_dict())
        np.testing.assert_array_equal(forest.predict(X), clone.predict(X))

    def test_default_mtry_uses_subset(self):
        # with ceil(m/3) features per split, two trees on the same data differ
        rng = np.random.default_rng(17)
        X = rng.normal(size=(80, 6))
        y = X @ rng.normal(size=6) + rng.normal(size=80)
        forest = fit_rf(X, y, LearnerSpec(kind="rf", params={
            "n_trees": 2, "bootstrap": False}).params, np.random.default_rng(5))
        p0 = forest.trees[0].predict(X)
        p1 = forest.trees[1].predict(X)
        assert not np.array_equal(p0, p1)
