import re

import numpy as np
import pytest

from stackgp.cwm import SimplexWeights, cwm_predict
from stackgp.errors import ConfigError, DataError
from stackgp.gp import (GpHyperParams, StackedGpModel, cov_block, gp_condition_dense,
                        gp_stacked_predict)
from stackgp.learners import LearnerSpec
from stackgp.stacking import (
    CvResult,
    FoldPlan,
    Level2Stack,
    StackState,
    check_stack,
    fit_stack,
    fold_oof_gp,
    level2_mean_sd,
    make_folds,
    repeat_cv_evaluate,
    run_level0,
)
from stackgp.synth import ScenarioConfig, generate

FAST_GP = {"restarts": 1, "max_iter": 40}


def mean_spec(seed=1, name=None):
    """Predicts the training mean everywhere: exposes fold membership exactly."""
    return LearnerSpec(kind="gbt", params={"n_rounds": 0}, seed=seed,
                       **({"name": name} if name else {}))


def interp_spec(seed=2):
    """Single unbootstrapped deep tree: interpolates distinct training rows."""
    return LearnerSpec(kind="rf", params={"n_trees": 1, "bootstrap": False,
                                          "max_depth": None, "min_samples_leaf": 1,
                                          "max_features": None}, seed=seed)


def linear_spec(seed=3, name=None):
    return LearnerSpec(kind="enet", params={"lambda1": 0.0, "lambda2": 0.0},
                       seed=seed, **({"name": name} if name else {}))


def refuse_fit(*args, **kwargs):
    raise AssertionError("a fit ran before the inputs were refused")


def make_problem(seed=0, n=24):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = X @ [1.0, -0.5, 0.2] + rng.normal(size=n) * 0.15
    locations = np.column_stack([
        rng.uniform(30.0, 31.0, size=n),
        rng.uniform(-2.0, -1.0, size=n),
        rng.integers(0, 5, size=n).astype(float),
    ])
    return X, y, locations


class TestMakeFolds:
    def test_even_split(self):
        plan = make_folds(10, 5, seed=1)
        sizes = np.bincount(plan.assignment, minlength=5)
        assert sizes.tolist() == [2, 2, 2, 2, 2]

    def test_remainder_spread(self):
        plan = make_folds(7, 3, seed=1)
        sizes = sorted(np.bincount(plan.assignment, minlength=3).tolist())
        assert sizes == [2, 2, 3]

    def test_deterministic_in_seed_and_repeat(self):
        a = make_folds(20, 4, seed=9, repeat_index=2)
        b = make_folds(20, 4, seed=9, repeat_index=2)
        c = make_folds(20, 4, seed=9, repeat_index=3)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert not np.array_equal(a.assignment, c.assignment)

    def test_bounds_config_errors(self):
        with pytest.raises(ConfigError):
            make_folds(10, 1, seed=0)
        with pytest.raises(ConfigError):
            make_folds(3, 4, seed=0)

    def test_round_trip(self):
        plan = make_folds(11, 3, seed=5, repeat_index=1)
        clone = FoldPlan.from_dict(plan.to_dict())
        np.testing.assert_array_equal(plan.assignment, clone.assignment)
        assert (clone.v, clone.seed, clone.repeat_index) == (3, 5, 1)

    def test_rejects_imbalanced_assignment(self):
        with pytest.raises(DataError):
            FoldPlan(v=2, assignment=np.array([0, 0, 0, 1]), seed=0, repeat_index=0)
        with pytest.raises(DataError):
            FoldPlan(v=3, assignment=np.array([0, 0, 1, 1]), seed=0, repeat_index=0)

    def test_fold_rows_partition(self):
        plan = make_folds(13, 4, seed=2)
        seen = np.concatenate([plan.fold_rows(j) for j in range(4)])
        assert sorted(seen.tolist()) == list(range(13))


class TestRunLevel0:
    def test_oof_column_is_exact_complement_mean(self):
        X, y, loc = make_problem(seed=1, n=20)
        plan = make_folds(20, 4, seed=3)
        state = fit_stack(1, X, y, loc, [mean_spec()], plan, level1="cwm")
        for j in range(4):
            held = plan.fold_rows(j)
            complement_mean = y[plan.assignment != j].mean()
            np.testing.assert_allclose(state.H[held, 0], complement_mean, atol=1e-12)
        np.testing.assert_allclose(state.P[:, 0], y.mean(), atol=1e-12)

    def test_interpolator_separates_p_from_h(self):
        X, y, loc = make_problem(seed=2, n=18)
        plan = make_folds(18, 3, seed=4)
        state = fit_stack(1, X, y, loc, [interp_spec()], plan, level1="cwm")
        np.testing.assert_allclose(state.P[:, 0], y, atol=1e-12)
        assert not np.allclose(state.H[:, 0], y, atol=1e-6)

    def test_columns_follow_spec_order(self):
        X, y, loc = make_problem(seed=3, n=20)
        plan = make_folds(20, 4, seed=5)
        state = fit_stack(1, X, y, loc, [mean_spec(), linear_spec()], plan, level1="cwm")
        np.testing.assert_allclose(state.P[:, 0], y.mean(), atol=1e-12)
        assert not np.allclose(state.P[:, 1], y.mean(), atol=1e-3)

    def test_failure_carries_learner_and_phase_context(self):
        X, y, loc = make_problem(seed=4, n=12)
        X[0, 0] = np.nan
        plan = make_folds(12, 3, seed=6)
        with pytest.raises(DataError, match="full fit"):
            fit_stack(1, X, y, loc, [mean_spec(name="meanie")], plan, level1="cwm")
        try:
            fit_stack(1, X, y, loc, [mean_spec(name="meanie")], plan, level1="cwm")
        except DataError as exc:
            assert "meanie" in str(exc)

    def test_full_fit_then_folds_each_on_its_own_rng_stream(self, monkeypatch):
        import stackgp.stacking as stacking
        fit, calls = stacking.fit_learner, []

        def recording_fit(spec, X, y, rng):
            calls.append((len(y), rng.bit_generator.state))
            if len(calls) == 3:
                raise DataError("refused")
            return fit(spec, X, y, rng=rng)
        monkeypatch.setattr(stacking, "fit_learner", recording_fit)
        X, y, loc = make_problem(seed=4, n=12)
        plan = make_folds(12, 3, seed=6, repeat_index=2)
        with pytest.raises(DataError, match=r"^learner 'meanie', fold 1: refused$"):
            fit_stack(1, X, y, loc, [mean_spec(seed=9, name="meanie")], plan, level1="cwm")
        assert calls == [
            (n, np.random.default_rng([9, 6, 2, key]).bit_generator.state)
            for n, key in ((12, 3), (8, 0), (8, 1))]

    def test_fold_pass_is_the_h_of_the_fitted_stack(self):
        X, y, loc = make_problem(seed=8, n=20)
        plan = make_folds(20, 4, seed=5)
        specs = [mean_spec(), linear_spec(), interp_spec()]
        H = run_level0(X, y, specs, plan)
        assert H.tobytes() == fit_stack(1, X, y, loc, specs, plan, level1="cwm").H.tobytes()

    def test_plan_length_mismatch(self):
        X, y, _ = make_problem(seed=5, n=12)
        with pytest.raises(DataError, match="fold plan"):
            run_level0(X, y, [mean_spec()], make_folds(10, 2, seed=0))

    def test_no_specs_rejected(self):
        X, y, _ = make_problem(seed=6, n=10)
        with pytest.raises(ConfigError):
            run_level0(X, y, [], make_folds(10, 2, seed=0))

    def test_covariate_matrix_stamps_layout(self, monkeypatch, tmp_path):
        # only the full fits, which the state saves, see the layout; fold fits take
        # plain float rows, and the layout changes no number of the stack
        import stackgp.stacking as stacking
        from stackgp.dataset import CovariateMatrix
        from stackgp.model_io import save_model
        fit, received = stacking.fit_learner, []

        def recording_fit(spec, X, y, rng):
            received.append(X)
            return fit(spec, X, y, rng=rng)
        monkeypatch.setattr(stacking, "fit_learner", recording_fit)
        X, y, loc = make_problem(seed=7, n=14)
        cm = CovariateMatrix(X, ["a", "b", "c"])
        plan, specs = make_folds(14, 2, seed=1), [linear_spec(), mean_spec()]
        for level1 in ("cwm", "gp"):
            received.clear()
            state = fit_stack(1, cm, y, loc, specs, plan, level1=level1, gp_options=FAST_GP)
            assert [m.columns for m in state.level0] == [("a", "b", "c")] * 2
            full, folds = received[:len(specs)], received[len(specs):]
            assert all(x is cm for x in full)
            assert len(folds) == len(specs) * plan.v
            assert all(type(x) is np.ndarray and x.dtype == float for x in folds)
            plain = fit_stack(1, cm.values, y, loc, specs, plan, level1=level1,
                              gp_options=FAST_GP)
            assert [m.columns for m in plain.level0] == [None] * 2
            for model in state.level0:
                model.columns = None
            for name, stack in (("matrix", state), ("values", plain)):
                save_model(stack, tmp_path / f"{name}.json")
            assert (tmp_path / "matrix.json").read_bytes() == (tmp_path / "values.json").read_bytes()


class TestDesign1:
    def test_single_learner_cwm_weight_one(self):
        X, y, loc = make_problem(seed=8, n=20)
        plan = make_folds(20, 4, seed=7)
        state = fit_stack(1, X, y, loc, [linear_spec()], plan, level1="cwm")
        assert isinstance(state.level1, SimplexWeights)
        np.testing.assert_array_equal(state.level1.beta, [1.0])
        out = cwm_predict(state.level1, state.P)
        np.testing.assert_allclose(out, state.P[:, 0], atol=1e-12)

    def test_cwm_prediction_permutation_invariant(self):
        X, y, loc = make_problem(seed=9, n=24)
        plan = make_folds(24, 4, seed=8)
        specs_ab = [mean_spec(seed=1), linear_spec(seed=2)]
        specs_ba = [linear_spec(seed=2), mean_spec(seed=1)]
        sa = fit_stack(1, X, y, loc, specs_ab, plan, level1="cwm")
        sb = fit_stack(1, X, y, loc, specs_ba, plan, level1="cwm")
        np.testing.assert_allclose(cwm_predict(sa.level1, sa.P),
                                   cwm_predict(sb.level1, sb.P), atol=1e-6)

    def test_gp_prediction_permutation_invariant(self):
        X, y, loc = make_problem(seed=10, n=22)
        plan = make_folds(22, 2, seed=9)
        specs_ab = [mean_spec(seed=1), linear_spec(seed=2)]
        specs_ba = [linear_spec(seed=2), mean_spec(seed=1)]
        sa = fit_stack(1, X, y, loc, specs_ab, plan, level1="gp", gp_options=FAST_GP)
        sb = fit_stack(1, X, y, loc, specs_ba, plan, level1="gp", gp_options=FAST_GP)
        # optimiser follows a different path through a permuted space, so
        # agreement is statistical rather than bitwise
        a = gp_stacked_predict(sa.level1, sa.P, loc).mu_star
        b = gp_stacked_predict(sb.level1, sb.P, loc).mu_star
        assert np.corrcoef(a, b)[0, 1] > 0.99

    def test_gp_level1_binds_full_fit_matrix(self):
        X, y, loc = make_problem(seed=11, n=20)
        plan = make_folds(20, 4, seed=10)
        state = fit_stack(1, X, y, loc, [linear_spec()], plan, level1="gp", gp_options=FAST_GP)
        np.testing.assert_array_equal(state.level1.P_train, state.P)
        np.testing.assert_array_equal(state.level1.params.beta, [1.0])

    def test_unknown_level1_rejected(self):
        X, y, loc = make_problem(seed=12, n=10)
        with pytest.raises(ConfigError, match="level1"):
            fit_stack(1, X, y, loc, [mean_spec()], make_folds(10, 2, seed=0), level1="ols")


class TestDesign2:
    def test_single_learner_collapses_to_design1_gp(self):
        X, y, loc = make_problem(seed=13, n=20)
        plan = make_folds(20, 4, seed=11)
        d1 = fit_stack(1, X, y, loc, [linear_spec()], plan, level1="gp", gp_options=FAST_GP)
        d2 = fit_stack(2, X, y, loc, [linear_spec()], plan, gp_options=FAST_GP)
        assert isinstance(d2.level1, Level2Stack)
        np.testing.assert_array_equal(d2.level1.weights.beta, [1.0])
        rng = np.random.default_rng(0)
        P_new = rng.normal(size=(6, 1))
        pts_new = np.column_stack([rng.uniform(30, 31, 6), rng.uniform(-2, -1, 6),
                                   rng.integers(0, 5, 6).astype(float)])
        np.testing.assert_allclose(gp_stacked_predict(d1.level1, P_new, pts_new).mu_star,
                                   level2_mean_sd(d2.level1, P_new, pts_new)[0], atol=1e-12)

    def test_identical_learners_match_single_member(self):
        X, y, loc = make_problem(seed=14, n=20)
        plan = make_folds(20, 4, seed=12)
        one = fit_stack(2, X, y, loc, [linear_spec(seed=5)], plan, gp_options=FAST_GP)
        two = fit_stack(2, X, y, loc, [linear_spec(seed=5), linear_spec(seed=5)], plan,
                        gp_options=FAST_GP)
        rng = np.random.default_rng(1)
        pts_new = np.column_stack([rng.uniform(30, 31, 5), rng.uniform(-2, -1, 5),
                                   rng.integers(0, 5, 5).astype(float)])
        p1 = rng.normal(size=(5, 1))
        out_one = level2_mean_sd(one.level1, p1, pts_new)[0]
        out_two = level2_mean_sd(two.level1, np.column_stack([p1, p1]), pts_new)[0]
        np.testing.assert_allclose(out_one, out_two, atol=1e-8)

    def test_members_are_single_column(self):
        X, y, loc = make_problem(seed=15, n=20)
        plan = make_folds(20, 4, seed=13)
        state = fit_stack(2, X, y, loc, [mean_spec(), linear_spec()], plan, gp_options=FAST_GP)
        assert len(state.level1.members) == 2
        for member in state.level1.members:
            assert member.P_train.shape[1] == 1
            np.testing.assert_array_equal(member.params.beta, [1.0])
        assert state.level1.member_columns == [0, 1]


class TestDesign3:
    def test_single_empty_variant_matches_design1_gp(self):
        X, y, loc = make_problem(seed=16, n=20)
        plan = make_folds(20, 4, seed=14)
        d1 = fit_stack(1, X, y, loc, [linear_spec()], plan, level1="gp", gp_options=FAST_GP)
        d3 = fit_stack(3, X, y, loc, [linear_spec()], plan, gp_variants=[{}], gp_options=FAST_GP)
        rng = np.random.default_rng(2)
        P_new = rng.normal(size=(6, 1))
        pts_new = np.column_stack([rng.uniform(30, 31, 6), rng.uniform(-2, -1, 6),
                                   rng.integers(0, 5, 6).astype(float)])
        np.testing.assert_allclose(gp_stacked_predict(d1.level1, P_new, pts_new).mu_star,
                                   level2_mean_sd(d3.level1, P_new, pts_new)[0], atol=1e-12)

    def test_variant_overrides_pinned(self):
        X, y, loc = make_problem(seed=17, n=20)
        plan = make_folds(20, 4, seed=15)
        state = fit_stack(3, X, y, loc, [linear_spec()], plan,
                          gp_variants=[{"phi": 0.0}, {"log_kappa": 1.0}],
                          gp_options=FAST_GP)
        assert state.level1.members[0].params.phi == 0.0
        assert state.level1.members[1].params.log_kappa == 1.0

    def test_identical_variants_match_single(self):
        X, y, loc = make_problem(seed=18, n=20)
        plan = make_folds(20, 4, seed=16)
        one = fit_stack(3, X, y, loc, [linear_spec()], plan, gp_variants=[{"phi": 0.3}],
                        gp_options=FAST_GP)
        two = fit_stack(3, X, y, loc, [linear_spec()], plan,
                        gp_variants=[{"phi": 0.3}, {"phi": 0.3}], gp_options=FAST_GP)
        rng = np.random.default_rng(3)
        P_new = rng.normal(size=(5, 1))
        pts_new = np.column_stack([rng.uniform(30, 31, 5), rng.uniform(-2, -1, 5),
                                   rng.integers(0, 5, 5).astype(float)])
        np.testing.assert_allclose(level2_mean_sd(one.level1, P_new, pts_new)[0],
                                   level2_mean_sd(two.level1, P_new, pts_new)[0], atol=1e-8)

    def test_no_variants_rejected(self):
        X, y, loc = make_problem(seed=19, n=12)
        with pytest.raises(ConfigError, match="variant"):
            fit_stack(3, X, y, loc, [mean_spec()], make_folds(12, 3, seed=0), gp_variants=[])


class TestPredictStack:
    def test_wrong_width_rejected(self):
        X, y, loc = make_problem(seed=20, n=16)
        plan = make_folds(16, 4, seed=17)
        state = fit_stack(1, X, y, loc, [mean_spec(), linear_spec()], plan, level1="cwm")
        with pytest.raises(DataError, match="columns"):
            cwm_predict(state.level1, np.ones((4, 3)))


class TestLevel2Prediction:
    @pytest.mark.parametrize("design", [2, 3])
    def test_weighted_sum_of_member_predictions(self, design):
        X, y, loc = make_problem(seed=25, n=20)
        plan = make_folds(20, 4, seed=21)
        if design == 2:
            state = fit_stack(2, X, y, loc, [mean_spec(), linear_spec()], plan, gp_options=FAST_GP)
        else:
            state = fit_stack(3, X, y, loc, [linear_spec()], plan,
                              gp_variants=[{"log_kappa": 2.0}, {"log_kappa": -1.0}],
                              gp_options=FAST_GP)
        stack = state.level1
        assert len(stack.members) == 2 and np.all(stack.weights.beta > 0)
        rng = np.random.default_rng(4)
        P_new = rng.normal(size=(6, state.P.shape[1]))
        pts_new = np.column_stack([rng.uniform(30, 31, 6), rng.uniform(-2, -1, 6),
                                   rng.integers(0, 5, 6).astype(float)])
        posts = [gp_stacked_predict(member, P_new[:, [col]], pts_new)
                 for member, col in zip(stack.members, stack.member_columns)]
        mean = sum(w * post.mu_star for w, post in zip(stack.weights.beta, posts))
        sd = sum(w * post.sd for w, post in zip(stack.weights.beta, posts))
        got_mean, got_sd = level2_mean_sd(stack, P_new, pts_new)
        np.testing.assert_array_equal(got_mean, mean)
        np.testing.assert_array_equal(got_sd, sd)
        assert np.all(sd > 0)


class TestFoldOofGp:
    def test_matches_manual_per_fold_conditioning(self):
        _, y, loc = make_problem(seed=22, n=15)
        plan = make_folds(15, 3, seed=19)
        params = GpHyperParams(log_kappa=0.5, log_tau=0.0, sigma_e2=0.3,
                               phi=0.4, beta=np.array([1.0]))
        mean_all = np.full(15, y.mean())
        model = StackedGpModel(params=params, train_points=loc, P_train=mean_all[:, None], y=y)
        oof = fold_oof_gp(model, mean_all, plan)
        ref_lat = float(loc[:, 1].mean())
        K = cov_block(loc, loc, params, ref_lat)
        for j in range(3):
            held = plan.fold_rows(j)
            train = np.flatnonzero(plan.assignment != j)
            post = gp_condition_dense(y[train], mean_all[train], mean_all[held],
                                      K[np.ix_(train, train)],
                                      K[np.ix_(train, held)],
                                      np.diag(K)[held], params.sigma_e2)
            np.testing.assert_array_equal(oof[held], post.mu_star)

    def test_every_row_filled(self):
        _, y, loc = make_problem(seed=23, n=14)
        plan = make_folds(14, 4, seed=20)
        params = GpHyperParams(log_kappa=0.0, log_tau=0.0, sigma_e2=0.5,
                               phi=0.0, beta=np.array([1.0]))
        model = StackedGpModel(params=params, train_points=loc, P_train=np.zeros((14, 1)), y=y)
        oof = fold_oof_gp(model, np.zeros(14), plan)
        assert np.all(np.isfinite(oof))


class TestRepeatCvEvaluate:
    def test_level0_row_counts_and_summary_means(self):
        X, y, loc = make_problem(seed=24, n=20)
        res = repeat_cv_evaluate(X, y, loc, [mean_spec(name="m"), linear_spec(name="lin")],
                                 v=4, repeats=3, seed=2, region="west",
                                 methods=("level0",))
        assert len(res.rows) == 2 * 3
        assert {r.method for r in res.rows} == {"m", "lin"}
        assert all(r.region == "west" for r in res.rows)
        for entry in res.summary:
            picked = [r.mse for r in res.rows if r.method == entry["method"]]
            assert entry["mse"] == pytest.approx(np.mean(picked), abs=1e-15)

    def test_full_method_set_row_count(self):
        X, y, loc = make_problem(seed=25, n=20)
        res = repeat_cv_evaluate(X, y, loc, [linear_spec(name="lin")],
                                 v=4, repeats=2, seed=3, gp_options=FAST_GP)
        # 1 learner + cwm + gp + plain per repeat
        assert len(res.rows) == 4 * 2
        assert all(np.isfinite(r.mse) and np.isfinite(r.mae) for r in res.rows)
        methods = [e["method"] for e in res.summary]
        assert methods == ["lin", "cwm-stack", "gp-stack", "plain-gp"]

    def test_constant_truth_flags_degenerate_correlation(self):
        X, _, loc = make_problem(seed=26, n=16)
        y = np.full(16, 2.5)
        res = repeat_cv_evaluate(X, y, loc, [mean_spec(name="m")],
                                 v=4, repeats=1, seed=4, methods=("level0",))
        assert res.rows[0].degenerate
        assert res.rows[0].correlation == 0.0
        assert res.summary[0]["n_degenerate_correlation"] == 1

    def test_repeats_validated(self):
        X, y, loc = make_problem(seed=27, n=10)
        with pytest.raises(ConfigError, match="repeats"):
            repeat_cv_evaluate(X, y, loc, [mean_spec()], repeats=0)

    def test_unknown_method_named_before_fitting(self):
        X, y, loc = make_problem(seed=27, n=10)
        with pytest.raises(ConfigError, match="gp_stack"):
            repeat_cv_evaluate(X, y, loc, [mean_spec()], methods=("gp_stack",))

    @pytest.mark.parametrize("names, clash", [
        (["a", "a"], "['a']"),
        (["cwm-stack"], "['cwm-stack']"),
        (["lin", "gp-stack"], "['gp-stack']"),
        (["plain-gp", "lin"], "['plain-gp']"),
    ])
    def test_clashing_learner_names_refused_before_fitting(self, monkeypatch, names, clash):
        # a clash would merge two learners, or a learner and a stack, into one summary row
        monkeypatch.setattr("stackgp.stacking.fit_learner", refuse_fit)
        X, y, loc = make_problem(seed=27, n=10)
        specs = [linear_spec(seed=i, name=name) for i, name in enumerate(names)]
        with pytest.raises(ConfigError, match="unique") as info:
            repeat_cv_evaluate(X, y, loc, specs, v=2, repeats=1, gp_options=FAST_GP)
        assert clash in str(info.value)

    @pytest.mark.parametrize("v, specs, message", [
        (11, [mean_spec()], "fold count"), (2, [], "at least one learner")],
        ids=["v-above-n", "no-learners"])
    def test_inputs_refused_before_the_plain_gp_fit(self, monkeypatch, v, specs, message):
        monkeypatch.setattr("stackgp.stacking.fit_gp_linear_mean", refuse_fit)
        X, y, loc = make_problem(seed=27, n=10)
        with pytest.raises(ConfigError, match=message):
            repeat_cv_evaluate(X, y, loc, specs, v=v, repeats=1, methods=("plain-gp",))

    def test_plain_gp_fitted_once_per_call(self, monkeypatch):
        import stackgp.stacking as stacking
        from stackgp.metrics import mae, mse
        fit, fits = stacking.fit_gp_linear_mean, []
        monkeypatch.setattr(stacking, "fit_gp_linear_mean",
                            lambda *a, **k: fits.append(fit(*a, **k)) or fits[-1])
        X, y, loc = make_problem(seed=29, n=20)
        res = repeat_cv_evaluate(X, y, loc, [linear_spec(name="lin")], v=4, repeats=3,
                                 seed=6, gp_options=FAST_GP,
                                 methods=("level0", "plain-gp"))
        assert len(fits) == 1
        plain = fits[0]
        rows = [r for r in res.rows if r.method == "plain-gp"]
        assert [r.repeat for r in rows] == [0, 1, 2]
        for r, row in enumerate(rows):
            oof = fold_oof_gp(plain, plain.mean_train, make_folds(20, 4, 6, r))
            assert (row.mse, row.mae) == (mse(oof, y), mae(oof, y))

    def test_fits_each_learner_once_per_fold_and_repeat(self, monkeypatch):
        # no score reads a fit on all rows, so cv makes none: repeats x v x learners fits,
        # each on its fold's complement and its [spec.seed, seed, repeat, fold] stream
        import stackgp.stacking as stacking
        fit, calls = stacking.fit_learner, []

        def recording_fit(spec, X, y, rng):
            calls.append((len(y), rng.bit_generator.state))
            return fit(spec, X, y, rng=rng)
        monkeypatch.setattr(stacking, "fit_learner", recording_fit)
        X, y, loc = make_problem(seed=33, n=20)
        specs = [mean_spec(seed=1, name="m"), linear_spec(seed=2, name="lin")]
        repeat_cv_evaluate(X, y, loc, specs, v=4, repeats=3, seed=7, gp_options=FAST_GP)
        assert calls == [(15, np.random.default_rng([spec.seed, 7, r, j]).bit_generator.state)
                         for r in range(3) for spec in specs for j in range(4)]

    def test_distinct_repeats_use_distinct_folds(self):
        X, y, loc = make_problem(seed=28, n=20)
        res = repeat_cv_evaluate(X, y, loc, [interp_spec()], v=4, repeats=2,
                                 seed=5, methods=("level0",))
        assert res.rows[0].mse != res.rows[1].mse

    def test_wild_mars_column_does_not_wreck_the_gp_stack(self, monkeypatch):
        # On this seed one held-out MARS prediction is about 4e5 when MARS
        # extrapolates its hinges without bound, as it did before it clamped
        # its inputs to the training range; the fit here switches the clamp
        # off to keep that wild column. Starting at uniform beta, that column
        # sets the initial residual variance, and a fit that stays in that
        # basin gave a gp-stack MSE of 5e7 against var(y) ~ 1.
        import dataclasses

        import stackgp.learners.base as base
        from stackgp.learners.mars import fit_mars
        monkeypatch.setitem(base.KINDS, "mars", (lambda *a: dataclasses.replace(
            fit_mars(*a), x_min=None, x_max=None), *base.KINDS["mars"][1:]))
        bundle = generate(ScenarioConfig(
            regime="covariance-heavy", seed=5102, n_surveys=200, m_covariates=6, n_hinge=10,
            n_smooth=10, n_interactions=10, n_tested_range=(100, 400)))
        y = np.array([r.y for r in bundle.records])
        points = np.array([[r.lon, r.lat, r.t] for r in bundle.records])
        specs = [
            LearnerSpec(kind="enet", name="enet", seed=3, params={"lambda1": 0.1, "lambda2": 1.0}),
            LearnerSpec(kind="gam", name="gam", seed=4, params={"n_splines": 10}),
            LearnerSpec(kind="mars", name="mars", seed=5,
                        params={"max_terms": 15, "max_knots": 15}),
        ]
        res = repeat_cv_evaluate(bundle.design.values, y, points, specs, v=5, repeats=1,
                                 seed=5102, gp_options={"restarts": 1, "max_iter": 150},
                                 methods=("level0", "cwm-stack", "gp-stack"))
        mse = {entry["method"]: entry["mse"] for entry in res.summary}
        assert mse["mars"] > 1e6 * np.var(y)        # the wild column is still there
        assert mse["gp-stack"] <= 1.5 * mse["cwm-stack"], mse


class TestGpFixedCheckedFirst:
    def test_bad_pinned_value_refused_before_any_level0_fit(self, monkeypatch):
        monkeypatch.setattr("stackgp.stacking.fit_learner", refuse_fit)
        X, y, loc = make_problem(seed=30, n=16)
        plan = make_folds(16, 4, seed=1)
        bad = {**FAST_GP, "fixed": {"phi": 1.5}}
        two = [linear_spec(1, "a"), linear_spec(2, "b")]
        for call in (lambda: fit_stack(1, X, y, loc, two, plan, level1="gp", gp_options=bad),
                     lambda: fit_stack(1, X, y, loc, two, plan, level1="gp",
                                       gp_options={"fixed": {"beta": [1]}}),
                     lambda: fit_stack(2, X, y, loc, two, plan, gp_options=bad),
                     lambda: fit_stack(3, X, y, loc, two[:1], plan, gp_variants=[{}],
                                       gp_options=bad),
                     lambda: repeat_cv_evaluate(X, y, loc, two, v=4, repeats=1, gp_options=bad)):
            with pytest.raises(ConfigError, match=r"gp\.fixed\.(phi|beta) must be"):
                call()
        with pytest.raises(ConfigError,
                           match=re.escape("stacking.gp_variants[1].sigma_e2 must be")):
            fit_stack(3, X, y, loc, two[:1], plan, gp_variants=[{}, {"sigma_e2": 0.0}],
                      gp_options=FAST_GP)

    def test_unknown_gp_option_refused_before_any_level0_fit(self, monkeypatch):
        monkeypatch.setattr("stackgp.stacking.fit_learner", refuse_fit)
        X, y, loc = make_problem(seed=30, n=16)
        plan = make_folds(16, 4, seed=1)
        bad = {**FAST_GP, "restart": 1}
        two = [linear_spec(1, "a"), linear_spec(2, "b")]
        for call in (lambda: fit_stack(1, X, y, loc, two, plan, level1="gp", gp_options=bad),
                     lambda: fit_stack(2, X, y, loc, two, plan, gp_options=bad),
                     lambda: fit_stack(3, X, y, loc, two[:1], plan, gp_variants=[{}],
                                       gp_options=bad),
                     lambda: repeat_cv_evaluate(X, y, loc, two, v=4, repeats=1, gp_options=bad)):
            with pytest.raises(ConfigError, match=re.escape("unknown key(s) ['restart']")):
                call()

    @pytest.mark.parametrize("variants", [None, [], {"phi": 0.0}, [{}, 5]])
    def test_design3_variants_must_be_a_list_of_mappings(self, monkeypatch, variants):
        monkeypatch.setattr("stackgp.stacking.fit_learner", refuse_fit)
        X, y, loc = make_problem(seed=31, n=16)
        with pytest.raises(ConfigError, match="gp_variants"):
            fit_stack(3, X, y, loc, [linear_spec()], make_folds(16, 4, seed=1),
                      gp_variants=variants)

    @pytest.mark.parametrize("design, keys, message", [
        (2, {"level1": "cwm"}, "stacking.level1 applies to design 1 only, not design 2"),
        (3, {"level1": "gp", "gp_variants": [{}]},
         "stacking.level1 applies to design 1 only, not design 3"),
        (1, {"gp_variants": [{}]}, "stacking.gp_variants applies to design 3 only, not design 1"),
        (2, {"gp_variants": [{"phi": 0.0}]},
         "stacking.gp_variants applies to design 3 only, not design 2"),
    ])
    def test_key_of_another_design_refused_before_any_level0_fit(self, monkeypatch, design,
                                                                 keys, message):
        monkeypatch.setattr("stackgp.stacking.fit_learner", refuse_fit)
        X, y, loc = make_problem(seed=31, n=16)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            fit_stack(design, X, y, loc, [linear_spec()], make_folds(16, 4, seed=1), **keys)

    def test_plain_gp_reads_neither_stack_key(self):
        for keys, name in (({"level1": "gp"}, "stacking.level1"),
                           ({"gp_variants": [{}]}, "stacking.gp_variants")):
            with pytest.raises(ConfigError, match=re.escape(f"{name} applies to design")):
                check_stack("plain-gp", None, **keys)
        check_stack("plain-gp", None, gp_options={"fixed": {"beta": [1.0]}})
        with pytest.raises(ConfigError, match=re.escape("gp.fixed.beta must be")):
            check_stack("plain-gp", None, gp_options={"fixed": {"beta": [0.5, 0.5]}})

    @pytest.mark.parametrize("design", ["plain-gp", 4])
    def test_fit_stack_fits_designs_1_to_3_only(self, monkeypatch, design):
        monkeypatch.setattr("stackgp.stacking.fit_learner", refuse_fit)
        X, y, loc = make_problem(seed=31, n=16)
        with pytest.raises(ConfigError, match="designs 1, 2 and 3"):
            fit_stack(design, X, y, loc, [linear_spec()], make_folds(16, 4, seed=1))

    def test_cv_plain_gp_ignores_a_pinned_stack_beta(self):
        X, y, loc = make_problem(seed=32, n=16)
        gp = {**FAST_GP, "fixed": {"beta": [0.25, 0.75], "phi": 0.0}}
        pinned = repeat_cv_evaluate(X, y, loc, [linear_spec(1, "a"), linear_spec(2, "b")],
                                    v=4, repeats=1, gp_options=gp, methods=("plain-gp",))
        free = repeat_cv_evaluate(X, y, loc, [linear_spec(1, "a"), linear_spec(2, "b")],
                                  v=4, repeats=1, gp_options={**FAST_GP, "fixed": {"phi": 0.0}},
                                  methods=("plain-gp",))
        assert pinned.rows == free.rows
