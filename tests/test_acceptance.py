"""Acceptance suite: one test per shipped acceptance criterion.

Each ``pytest -v`` line for this module is the pass/fail verdict for one
criterion. Criteria with wall-clock budgets assert their own runtime, so a
pass here certifies both correctness and speed on the host that ran it.
"""
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
import yaml
from scipy import stats

from stackgp.cli import main
from stackgp.cwm import SimplexWeights, cwm_predict, fit_cwm, project_simplex
from stackgp.dataset import GridGeometry
from stackgp.gmrf import (
    SparsePrecision,
    ar1_precision,
    gp_condition_precision,
    lattice_gmrf_precision,
)
from stackgp.gp import (
    GpHyperParams,
    StackedGpModel,
    cov_block,
    fit_hyperparams,
    gp_condition_dense,
    gp_stacked_predict,
    log_marginal_likelihood,
)
from stackgp.learners import LearnerSpec, fit_learner
from stackgp.learners.elastic_net import fit_enet
from stackgp.metrics import ambiguity_decomposition
from stackgp.model_io import load_model, save_model
from stackgp.stacking import fit_stack, make_folds, run_level0
from stackgp.synth import ScenarioConfig, generate

from conftest import build_joint_cov


def params_of(kappa=1.0, tau=1.0, sigma_e2=0.1, phi=0.5, beta=(1.0,)):
    return GpHyperParams(log_kappa=math.log(kappa), log_tau=math.log(tau),
                         sigma_e2=sigma_e2, phi=phi,
                         beta=np.asarray(beta, dtype=float))


def random_points(rng, n, n_months=6):
    return np.column_stack([
        rng.uniform(30.0, 31.0, size=n),
        rng.uniform(-2.0, -1.0, size=n),
        rng.integers(0, n_months, size=n).astype(float),
    ])


def test_c01_ambiguity_identity_pointwise():
    # >= 1000 random (predictions, weights, target) instances; the ensemble
    # squared error must equal weighted member error minus weighted spread
    # at every point to 1e-10, in under 5 seconds.
    rng = np.random.default_rng(20260801)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        L = int(rng.integers(1, 7))
        P = rng.normal(scale=rng.uniform(0.5, 3.0), size=(n, L))
        w = rng.random(L) + 1e-3
        beta = w / w.sum()
        f = rng.normal(scale=2.0, size=n)
        rep = ambiguity_decomposition(P, beta, f)
        gap = np.abs(rep.pointwise["weighted_error"]
                     - rep.pointwise["ambiguity"]
                     - rep.pointwise["ensemble_error"])
        worst = max(worst, float(gap.max()))
        assert rep.residual <= 1e-10
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0, f"ambiguity identity suite took {elapsed:.1f}s"


def conditioned_by_hand(y, mu_t, mu_p, K_t, K_c, K_p, sigma_e2):
    """Joint-Gaussian block conditioning with explicit inverses."""
    S_inv = np.linalg.inv(K_t + sigma_e2 * np.eye(len(y)))
    mu_star = mu_p + K_c.T @ S_inv @ (y - mu_t)
    sigma_star = K_p - K_c.T @ S_inv @ K_c
    return mu_star, sigma_star


def test_c02_dense_conditioning_matches_oracle():
    # >= 100 random small problems (train and predict sides both <= 8 points):
    # posterior mean and covariance to 1e-8, in under 10 seconds.
    rng = np.random.default_rng(20260802)
    t0 = time.perf_counter()
    for _ in range(120):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, 9))
        pts = random_points(rng, n + p)
        prm = params_of(kappa=rng.uniform(1, 4), tau=rng.uniform(0.5, 2),
                        sigma_e2=rng.uniform(0.05, 0.5),
                        phi=rng.uniform(-0.8, 0.8))
        ref = float(pts[:, 1].mean())
        K = cov_block(pts, pts, prm, ref)
        K_t, K_c, K_p = K[:n, :n], K[:n, n:], K[n:, n:]
        mu = rng.normal(size=n + p)
        y = rng.normal(size=n)
        post = gp_condition_dense(y, mu[:n], mu[n:], K_t, K_c, K_p,
                                  prm.sigma_e2, full_cov=True)
        mu_star, sigma_star = conditioned_by_hand(y, mu[:n], mu[n:],
                                                  K_t, K_c, K_p, prm.sigma_e2)
        np.testing.assert_allclose(post.mu_star, mu_star, atol=1e-8)
        np.testing.assert_allclose(post.sigma_star, sigma_star, atol=1e-8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"conditioning oracle suite took {elapsed:.1f}s"


def test_c03_precision_matches_dense_on_lattice():
    # 4x4 lattice x 3 months, selection observation rows: sparse-precision
    # conditioning must match dense covariance conditioning to 1e-6 in
    # under 10 seconds.
    t0 = time.perf_counter()
    geo = GridGeometry(lon0=30.0, lat0=-1.0, d_lon=0.1, d_lat=0.1,
                       n_lon=4, n_lat=4)
    prm = params_of(kappa=3.0, tau=1.0, phi=0.5)
    spre0 = lattice_gmrf_precision(geo, prm, n_months=3)
    n_latent = spre0.Q.shape[0]
    rng = np.random.default_rng(20260803)
    obs = rng.choice(n_latent, size=14, replace=False)
    A = sp.csr_matrix((np.ones(14), (np.arange(14), obs)),
                      shape=(14, n_latent))
    spre = SparsePrecision(Q=spre0.Q, A=A)
    mu = rng.normal(size=n_latent) * 0.4
    y = rng.normal(size=14)
    sigma_e2 = 0.2

    post = gp_condition_precision(spre, y, mu, sigma_e2)
    C = np.linalg.inv(spre.Q.toarray())
    mu_star, sigma_star = conditioned_by_hand(
        y, mu[obs], mu, C[np.ix_(obs, obs)], C[obs, :], C, sigma_e2)
    np.testing.assert_allclose(post.mu_star, mu_star, atol=1e-6)
    np.testing.assert_allclose(post.sigma_star, np.diag(sigma_star), atol=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"precision/dense equivalence took {elapsed:.1f}s"


def test_c04_ar1_precision_inverts_to_geometric_correlation():
    # inv(Q_time) must reproduce phi^|i-j| to 1e-10 for T <= 8.
    for T in range(1, 9):
        for phi in (-0.9, 0.0, 0.5, 0.9):
            Q = ar1_precision(T, phi).toarray()
            R = np.linalg.inv(Q)
            i = np.arange(T)
            target = np.power(phi, np.abs(i[:, None] - i[None, :]))
            if phi == 0.0:
                target = np.eye(T)
            np.testing.assert_allclose(R, target, atol=1e-10)


def test_c05_learner_oracles():
    rng = np.random.default_rng(20260805)
    X = rng.normal(size=(60, 4)) @ np.diag(rng.uniform(0.5, 2.0, size=4))
    y = 1.5 + X @ rng.normal(size=4) + rng.normal(size=60) * 0.3

    # elastic net with both penalties zero == ordinary least squares
    model = fit_enet(X, y, LearnerSpec(kind="enet", params={
        "lambda1": 0.0, "lambda2": 0.0}).params)
    A = np.column_stack([np.ones(len(y)), X])
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    np.testing.assert_allclose(model.coef, sol[1:], atol=1e-8)
    assert model.intercept == pytest.approx(sol[0], abs=1e-8)

    # pure ridge (no l1) == closed form on standardised columns
    lam2 = 2.0
    model = fit_enet(X, y, LearnerSpec(kind="enet", params={
        "lambda1": 0.0, "lambda2": lam2}).params)
    mu, sd = X.mean(axis=0), X.std(axis=0)
    Z = (X - mu) / sd
    theta = np.linalg.solve(Z.T @ Z + lam2 * np.eye(4), Z.T @ (y - y.mean()))
    coef = theta / sd
    np.testing.assert_allclose(model.coef, coef, atol=1e-8)
    assert model.intercept == pytest.approx(y.mean() - coef @ mu, abs=1e-8)

    # boosting with zero rounds predicts the training mean
    gbt = fit_learner(LearnerSpec(kind="gbt", params={"n_rounds": 0}, seed=1),
                      X, y)
    np.testing.assert_allclose(gbt.predict(X), np.full(len(y), y.mean()),
                               atol=1e-12)

    # planted hinge: knot recovered within one observed-value spacing
    x = np.sort(rng.uniform(-2.0, 2.0, size=200))
    knot_true = 0.5
    y_hinge = 2.0 * np.maximum(x - knot_true, 0.0)
    mars = fit_learner(LearnerSpec(kind="mars", params={
        "max_terms": 8, "max_degree": 1, "max_knots": 200}, seed=2),
        x[:, None], y_hinge)
    knots = [f.knot for func in mars.model.functions for f in func.factors]
    assert knots, "no hinge term was added"
    spacing = float(np.max(np.diff(np.unique(x))))
    assert min(abs(k - knot_true) for k in knots) <= spacing + 1e-12

    # forest predictions live inside the per-tree envelope everywhere
    rf = fit_learner(LearnerSpec(kind="rf", params={"n_trees": 20}, seed=3),
                     X, y)
    X_test = rng.normal(size=(80, 4)) * 1.5
    per_tree = np.stack([t.predict(X_test) for t in rf.model.trees])
    pred = rf.predict(X_test)
    assert np.all(pred >= per_tree.min(axis=0) - 1e-12)
    assert np.all(pred <= per_tree.max(axis=0) + 1e-12)


def test_c06_out_of_fold_entries_are_training_fold_means():
    # with a learner that always predicts the training mean, every held-out
    # entry must equal the mean of the folds it was NOT part of -- exactly.
    rng = np.random.default_rng(20260806)
    n = 83
    X = rng.normal(size=(n, 3))
    y = rng.normal(size=n)
    plan = make_folds(n, v=5, seed=4, repeat_index=2)
    spec = LearnerSpec(kind="gbt", name="fold-mean", seed=0,
                       params={"n_rounds": 0})
    H = run_level0(X, y, [spec], plan)
    for i in range(n):
        training = plan.assignment != plan.assignment[i]
        assert H[i, 0] == y[training].mean()


def test_c07_cwm_contract():
    rng = np.random.default_rng(20260807)

    # convex predictions stay inside the row-wise member envelope
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        L = int(rng.integers(1, 6))
        P = rng.normal(scale=2.0, size=(n, L))
        w = rng.random(L) + 1e-6
        weights = SimplexWeights(beta=w / w.sum(), degenerate=False, meta={})
        pred = cwm_predict(weights, P)
        assert np.all(pred >= P.min(axis=1) - 1e-12)
        assert np.all(pred <= P.max(axis=1) + 1e-12)

    # the fitted objective never loses to any single member
    for _ in range(200):
        n, L = int(rng.integers(5, 40)), int(rng.integers(2, 6))
        H = rng.normal(size=(n, L))
        y = rng.normal(size=n)
        weights = fit_cwm(H, y)
        obj = float(np.sum((y - H @ weights.beta) ** 2))
        for j in range(L):
            single = float(np.sum((y - H[:, j]) ** 2))
            assert obj <= single + 1e-8 * max(1.0, single)

    # simplex projection vs an exhaustive 3-member grid
    N = 2000
    i, j = np.meshgrid(np.arange(N + 1), np.arange(N + 1), indexing="ij")
    keep = (i + j) <= N
    grid = np.column_stack([i[keep], j[keep], N - i[keep] - j[keep]]) / N
    for _ in range(100):
        v = rng.normal(scale=1.5, size=3)
        proj = project_simplex(v).beta
        d2 = ((grid - v) ** 2).sum(axis=1)
        best = grid[int(np.argmin(d2))]
        np.testing.assert_allclose(proj, best, atol=1e-3)


def test_c08_gp_stack_equals_cwm_stack_without_covariance_contribution():
    # zero temporal correlation plus a pure time gap between training and
    # prediction silences the covariance term, so the stacked-GP posterior
    # mean must collapse to the weighted mean of the members.
    rng = np.random.default_rng(20260808)
    n, L = 60, 3
    pts_train = random_points(rng, n, n_months=5)
    H = rng.normal(size=(n, L))
    y = H @ np.array([0.5, 0.3, 0.2]) + rng.normal(size=n) * 0.2
    params = fit_hyperparams(y, H, pts_train, fixed={"phi": 0.0},
                             restarts=1, max_iter=120, seed=8)
    assert params.phi == 0.0
    model = StackedGpModel(params=params, train_points=pts_train, P_train=H,
                           y=y)

    p = 40
    pts_pred = random_points(rng, p)
    pts_pred[:, 2] = rng.integers(6, 10, size=p).astype(float)
    P_pred = rng.normal(size=(p, L))
    post = gp_stacked_predict(model, P_pred, pts_pred)
    weights = SimplexWeights(beta=params.beta, degenerate=False, meta={})
    np.testing.assert_allclose(post.mu_star, cwm_predict(weights, P_pred),
                               atol=1e-8)


# frozen line-up for the three-scenario ordering study
CV_SPECS = [
    LearnerSpec(kind="gbt", name="gbt", seed=1,
                params={"n_rounds": 200, "learning_rate": 0.05, "max_depth": 3}),
    LearnerSpec(kind="rf", name="rf", seed=2,
                params={"n_trees": 50, "max_depth": 12}),
    LearnerSpec(kind="enet", name="enet", seed=3,
                params={"lambda1": 0.1, "lambda2": 1.0}),
    LearnerSpec(kind="gam", name="gam", seed=4, params={"n_splines": 10}),
    LearnerSpec(kind="mars", name="mars", seed=5,
                params={"max_terms": 15, "max_knots": 15}),
]
CV_SCENARIO = dict(n_surveys=400, m_covariates=6, n_hinge=10, n_smooth=10,
                   n_interactions=10, n_tested_range=(100, 400))


def test_c09_method_ordering_across_synthetic_regimes():
    # three seeded regimes, 5-fold CV repeated 5 times; held-out MSE must
    # rank the GP stack at the top in at least 2 of 3 regimes against each
    # competitor class, and the regime-specific winners must flip as the
    # variance budget moves between covariates and residual field.
    from stackgp.stacking import repeat_cv_evaluate

    t0 = time.perf_counter()
    tables = {}
    for regime, seed in [("covariate-heavy", 101), ("covariance-heavy", 102),
                         ("balanced", 103)]:
        bundle = generate(ScenarioConfig(regime=regime, seed=seed,
                                         **CV_SCENARIO))
        y = np.array([r.y for r in bundle.records])
        points = np.array([[r.lon, r.lat, r.t] for r in bundle.records])
        result = repeat_cv_evaluate(bundle.design.values, y, points, CV_SPECS,
                                    v=5, repeats=5, seed=seed, region=regime,
                                    gp_options={"restarts": 1, "max_iter": 150})
        tables[regime] = {s["method"]: s["mse"] for s in result.summary}
    elapsed = time.perf_counter() - t0

    names = [s.name for s in CV_SPECS]
    beats_cwm = sum(t["gp-stack"] <= 1.02 * t["cwm-stack"]
                    for t in tables.values())
    beats_level0 = sum(all(t["gp-stack"] <= t[n] for n in names)
                       for t in tables.values())
    beats_plain = sum(t["gp-stack"] <= t["plain-gp"] for t in tables.values())
    assert beats_cwm >= 2, f"gp-stack within 2% of cwm-stack in {beats_cwm}/3"
    assert beats_level0 >= 2, f"gp-stack beat every level-0 in {beats_level0}/3"
    assert beats_plain >= 2, f"gp-stack beat plain-gp in {beats_plain}/3"
    heavy = tables["covariance-heavy"]
    assert heavy["plain-gp"] < heavy["cwm-stack"]
    covheavy = tables["covariate-heavy"]
    assert covheavy["cwm-stack"] < covheavy["plain-gp"]
    assert elapsed < 900.0, f"ordering study took {elapsed:.0f}s"


def test_c10_marginal_likelihood_and_recovery():
    # exact log marginal likelihood on tiny problems
    rng = np.random.default_rng(20260810)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        pts = random_points(rng, n)
        prm = params_of(kappa=rng.uniform(1, 4), tau=rng.uniform(0.5, 2),
                        sigma_e2=rng.uniform(0.05, 0.5),
                        phi=rng.uniform(-0.8, 0.8))
        K = cov_block(pts, pts, prm, float(pts[:, 1].mean()))
        mean = rng.normal(size=n)
        y = rng.normal(size=n)
        ours = log_marginal_likelihood(y, mean, K, prm.sigma_e2)
        direct = stats.multivariate_normal.logpdf(
            y, mean=mean, cov=K + prm.sigma_e2 * np.eye(n))
        assert ours == pytest.approx(direct, abs=1e-10)

    # recovery on self-generated draws: range within x2, noise within 50%
    rho_true, sigma_e2_true, phi_true = 0.35, 0.25, 0.4
    true = params_of(kappa=math.sqrt(2.0) / rho_true, tau=1.0,
                     sigma_e2=sigma_e2_true, phi=phi_true)
    n = 150
    successes = 0
    for trial in range(10):
        rng = np.random.default_rng([2026, trial])
        pts = random_points(rng, n)
        K = build_joint_cov(pts, true) + sigma_e2_true * np.eye(n)
        y = np.linalg.cholesky(K) @ rng.standard_normal(n)
        est = fit_hyperparams(y, np.zeros((n, 1)), pts,
                              restarts=2, max_iter=300, seed=trial)
        rho_hat = math.sqrt(2.0) / math.exp(est.log_kappa)
        ok_rho = rho_true / 2 <= rho_hat <= rho_true * 2
        ok_sig = 0.5 * sigma_e2_true <= est.sigma_e2 <= 1.5 * sigma_e2_true
        successes += ok_rho and ok_sig
    assert successes >= 8, f"recovered hyperparameters in {successes}/10 trials"


def _run_pipeline(root):
    root.mkdir(parents=True, exist_ok=True)
    data_dir = root / "data"
    synth_cfg = root / "synth.yaml"
    synth_cfg.write_text(yaml.safe_dump({
        "synth": {"n_surveys": 50, "n_lon": 8, "n_lat": 8, "n_months": 8,
                  "m_covariates": 2, "noise_sd": 0.2},
        "output_dir": str(data_dir),
    }), encoding="utf-8")
    assert main(["synth", "--config", str(synth_cfg), "--seed", "17"]) == 0

    fit_dir = root / "fit"
    fit_cfg = root / "fit.yaml"
    fit_cfg.write_text(yaml.safe_dump({
        "data": {"surveys": str(data_dir / "surveys.csv"),
                 "stack": str(data_dir / "stack.yaml")},
        "stacking": {"design": 1, "level1": "gp", "v": 3, "learners": [
            {"kind": "enet", "params": {"lambda1": 0.1, "lambda2": 0.5}},
            {"kind": "gbt", "params": {"n_rounds": 10}},
        ]},
        "gp": {"restarts": 1, "max_iter": 40},
        "output_dir": str(fit_dir),
    }), encoding="utf-8")
    assert main(["fit", "--config", str(fit_cfg)]) == 0

    pred_dir = root / "pred"
    pred_cfg = root / "predict.yaml"
    pred_cfg.write_text(yaml.safe_dump({
        "data": {"surveys": str(data_dir / "surveys.csv"),
                 "stack": str(data_dir / "stack.yaml")},
        "predict": {"model": str(fit_dir / "model.json"), "months": [6, 7]},
        "output_dir": str(pred_dir),
    }), encoding="utf-8")
    assert main(["predict", "--config", str(pred_cfg)]) == 0

    cv_dir = root / "cv"
    cv_cfg = root / "cv.yaml"
    cv_cfg.write_text(yaml.safe_dump({
        "data": {"surveys": str(data_dir / "surveys.csv"),
                 "stack": str(data_dir / "stack.yaml")},
        "stacking": {"design": 1, "level1": "gp", "v": 3, "learners": [
            {"kind": "enet", "params": {"lambda1": 0.1, "lambda2": 0.5}},
            {"kind": "gbt", "params": {"n_rounds": 10}},
        ]},
        "gp": {"restarts": 1, "max_iter": 40},
        "cv": {"repeats": 2},
        "output_dir": str(cv_dir),
    }), encoding="utf-8")
    assert main(["cv", "--config", str(cv_cfg), "--seed", "23"]) == 0

    return {
        "surveys": (data_dir / "surveys.csv").read_bytes(),
        "truth": (data_dir / "truth.csv").read_bytes(),
        "predictions": (pred_dir / "predictions.csv").read_bytes(),
        "metrics": (cv_dir / "metrics.csv").read_bytes(),
        "summary": (cv_dir / "summary.csv").read_bytes(),
        "model_path": fit_dir / "model.json",
        "pred_path": pred_dir / "predictions.csv",
    }


def test_c11_determinism_and_round_trip(tmp_path):
    # identical seeds must produce byte-identical CSV output end to end,
    # and a model reloaded from disk must reproduce its predictions exactly.
    first = _run_pipeline(tmp_path / "a")
    second = _run_pipeline(tmp_path / "b")
    for key in ("surveys", "truth", "predictions", "metrics", "summary"):
        assert first[key] == second[key], f"{key} differs between runs"

    rng = np.random.default_rng(20260811)
    n = 50
    X = rng.normal(size=(n, 3))
    y = X @ [0.8, -0.4, 0.3] + rng.normal(size=n) * 0.2
    pts = random_points(rng, n)
    specs = [LearnerSpec(kind="enet", name="a", seed=1,
                         params={"lambda1": 0.1, "lambda2": 0.5}),
             LearnerSpec(kind="gbt", name="b", seed=2,
                         params={"n_rounds": 10})]
    plan = make_folds(n, v=4, seed=3)
    state = fit_stack(1, X, y, pts, specs, plan, level1="gp",
                      gp_options={"restarts": 1, "max_iter": 40})
    path = tmp_path / "model.json"
    save_model(state, path)
    reloaded = load_model(path)

    p = 30
    X_new = rng.normal(size=(p, 3))
    pts_new = random_points(rng, p)
    P_pred = np.column_stack([m.predict(X_new) for m in state.level0])
    P_pred2 = np.column_stack([m.predict(X_new) for m in reloaded.level0])
    assert np.array_equal(P_pred, P_pred2)
    post = gp_stacked_predict(state.level1, P_pred, pts_new)
    post2 = gp_stacked_predict(reloaded.level1, P_pred2, pts_new)
    assert np.array_equal(post.mu_star, post2.mu_star)
    assert np.array_equal(post.sigma_star, post2.sigma_star)
