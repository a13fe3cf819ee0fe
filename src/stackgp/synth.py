"""Synthetic spatio-temporal prevalence scenarios with known ground truth.

The latent logit field is

    latent(s, t) = intercept + g(X(s, t)) + z(s, t) + eps

where g is a seeded menu of linear, hinge, smooth-sine and pairwise
interaction terms over the assembled (lagged) covariate columns, z is a draw
from the separable Matern x AR(1) process on the covariate lattice, and eps
is iid Gaussian observation noise. Both structured components are centred
and rescaled on the survey sample so their variances hit the regime's target
shares exactly: covariate-heavy 0.8/0.2, covariance-heavy 0.2/0.8, balanced
0.5/0.5 (g share / GP share of `signal_variance`).

Every survey sits on the lattice: locations are drawn uniformly over the
cell-centre extent and the latent value comes from the nearest cell, so the
assembled design matrix reproduces g's inputs exactly. Surveys are binomial:
N drawn from `n_tested_range`, N+ ~ Bin(N, logistic(latent)). Months are
drawn from [6, n_months) so every lagged column stays inside the time range.
Files are written in ``stackgp.dataset``'s formats, and the truth grid follows
the point order of its ``build_prediction_grid``.

The GP draw uses the Kronecker identity: with K = K_time (x) K_space and
lower Cholesky factors L_t, L_s, the matrix F = L_t Z L_s^T for iid normal Z
has cov(F[t1,s1], F[t2,s2]) = K_time[t1,t2] * K_space[s1,s2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import (check_keys, check_values, finite_real, int_at_least, integer,
                     non_negative_real, positive_real)
from .dataset import (GRID_FIELDS, KINDS, Covariate, CovariateMatrix, GridGeometry,
                      SurveyRecord, assemble_at, build_prediction_grid, save_stack_manifest,
                      save_surveys)
from .gp import _chol_with_jitter, matern1_matrix

REGIME_SHARES = {
    "covariate-heavy": (0.8, 0.2),
    "covariance-heavy": (0.2, 0.8),
    "balanced": (0.5, 0.5),
}
MAX_LAG = max(max(lags) for _, lags in KINDS.values())
_AT_LEAST_1 = (int_at_least(1), "an integer >= 1")
_AT_LEAST_0 = (int_at_least(0), "an integer >= 0")
_REAL = (finite_real, "a finite real")
_POSITIVE = (positive_real, "a finite real > 0")
# ScenarioConfig field -> (check, description)
_FIELDS = {
    "n_surveys": _AT_LEAST_1, "m_covariates": _AT_LEAST_1,
    **GRID_FIELDS,
    "n_months": (int_at_least(MAX_LAG + 1), f"an integer above the maximum lag {MAX_LAG}"),
    "regime": (lambda v: isinstance(v, str) and v in REGIME_SHARES,
               f"one of {sorted(REGIME_SHARES)}"),
    "kappa": _POSITIVE, "tau": _POSITIVE,
    "phi": (lambda v: finite_real(v) and abs(v) < 1, "a finite real in (-1, 1)"),
    "noise_sd": (non_negative_real, "a finite real >= 0"),
    "n_hinge": _AT_LEAST_0, "n_smooth": _AT_LEAST_0, "n_interactions": _AT_LEAST_0,
    # rng.integers(lo, hi + 1) draws int64s
    "n_tested_range": (lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(integer, v))
                       and 1 <= v[0] <= v[1] < 2 ** 63,
                       "a pair of integers 1 <= lo <= hi < 2**63"),
    "intercept": _REAL, "signal_variance": _POSITIVE, "seed": _AT_LEAST_0,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Full recipe for one synthetic region; everything is seed-determined."""

    n_surveys: int = 400
    m_covariates: int = 4
    n_lon: int = 24
    n_lat: int = 24
    lon0: float = 30.0
    lat0: float = -1.0
    d_lon: float = 0.05
    d_lat: float = 0.05
    n_months: int = 18
    regime: str = "balanced"
    kappa: float = 4.0
    tau: float = 1.0
    phi: float = 0.6
    noise_sd: float = 0.3
    n_hinge: int = 2
    n_smooth: int = 2
    n_interactions: int = 2
    n_tested_range: tuple = (30, 200)
    intercept: float = -2.0
    signal_variance: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_values("", vars(self), _FIELDS)

    @property
    def geometry(self) -> GridGeometry:
        return GridGeometry(**{key: getattr(self, key) for key in GRID_FIELDS})

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        d = dict(check_keys("synth", d, _FIELDS))
        if isinstance(d.get("n_tested_range"), list):
            d["n_tested_range"] = tuple(d["n_tested_range"])
        return cls(**d)


@dataclass
class SynthBundle:
    """Everything generate() produced, in memory."""

    config: ScenarioConfig
    covariates: list
    records: list
    design: CovariateMatrix
    truth: dict              # per-survey arrays g, gp, noise, latent, prevalence
    gp_field: np.ndarray     # (n_months, n_space) rescaled GP draw
    meta: dict = field(default_factory=dict)


def _smooth_surface(rng: np.random.Generator, n_lat: int, n_lon: int) -> np.ndarray:
    """Seeded smooth surface: linear gradient plus a few sine waves, O(1) scale."""
    v, u = np.meshgrid(np.linspace(0.0, 1.0, n_lat), np.linspace(0.0, 1.0, n_lon),
                       indexing="ij")
    out = rng.normal() * (u - 0.5) + rng.normal() * (v - 0.5)
    for _ in range(3):
        f1, f2 = rng.uniform(0.5, 2.5, size=2)
        out += rng.normal(scale=0.7) * np.sin(2.0 * math.pi * (f1 * u + f2 * v)
                                              + rng.uniform(0.0, 2.0 * math.pi))
    return out


def _make_covariates(config: ScenarioConfig, rng: np.random.Generator) -> list:
    """Half static surfaces, half seasonal dynamic-monthly stacks."""
    geometry = config.geometry
    m = config.m_covariates
    n_static = (m + 1) // 2 if m > 1 else 1
    covariates = []
    for j in range(m):
        name = f"cov{j:02d}"
        if j < n_static:
            covariates.append(Covariate(name, "static", geometry,
                                        _smooth_surface(rng, config.n_lat, config.n_lon)[None]))
            continue
        base = _smooth_surface(rng, config.n_lat, config.n_lon)
        amplitude = 0.5 + 0.5 * np.abs(_smooth_surface(rng, config.n_lat, config.n_lon))
        phase = math.pi * _smooth_surface(rng, config.n_lat, config.n_lon)
        slices = np.stack([base + amplitude * np.sin(2.0 * math.pi * t / 12.0 + phase)
                           for t in range(config.n_months)])
        covariates.append(Covariate(name, "dynamic-monthly", geometry, slices,
                                    t_start=0, t_end=config.n_months - 1))
    return covariates


def _covariate_menu(rng: np.random.Generator, m_cols: int, config: ScenarioConfig) -> dict:
    """Seeded recipe for g: term kinds, columns, thresholds, coefficients."""
    menu = {"linear": rng.normal(size=m_cols), "hinge": [], "smooth": [], "interaction": []}
    for _ in range(config.n_hinge):
        menu["hinge"].append((int(rng.integers(m_cols)), float(rng.uniform(-0.5, 0.5)),
                              float(rng.normal(scale=1.5))))
    for _ in range(config.n_smooth):
        menu["smooth"].append((int(rng.integers(m_cols)), float(rng.uniform(0.5, 1.5)),
                               float(rng.normal(scale=1.5))))
    for _ in range(config.n_interactions):
        j, k = rng.integers(m_cols), rng.integers(m_cols)
        menu["interaction"].append((int(j), int(k), float(rng.normal())))
    return menu


def _apply_menu(menu: dict, Z: np.ndarray) -> np.ndarray:
    g = Z @ menu["linear"]
    for j, thr, c in menu["hinge"]:
        g = g + c * np.maximum(Z[:, j] - thr, 0.0)
    for j, freq, c in menu["smooth"]:
        g = g + c * np.sin(math.pi * freq * Z[:, j])
    for j, k, c in menu["interaction"]:
        g = g + c * Z[:, j] * Z[:, k]
    return g


def _spatial_cov(geometry: GridGeometry, kappa: float, tau: float) -> np.ndarray:
    """Matern covariance between every pair of cell centres, in cell order.

    On the regular lattice a distance depends only on the pair's squared
    lon and lat offsets, so the kernel is evaluated once per distinct pair of
    them and gathered to cells x cells. Each offset goes through the float
    operations of pairwise_planar_dist, so every entry keeps its bytes.
    """
    lons, lats = geometry.cell_centers()
    scale = math.cos(math.radians(float(lats.mean())))
    lon, lat = lons[:geometry.n_lon], lats[::geometry.n_lon]
    dlon2, lon_pair = np.unique((((lon[:, None] - lon[None, :]) * scale) ** 2).ravel(),
                                return_inverse=True)
    dlat2, lat_pair = np.unique(((lat[:, None] - lat[None, :]) ** 2).ravel(),
                                return_inverse=True)
    table = matern1_matrix(np.sqrt(dlon2[:, None] + dlat2[None, :]), kappa, tau)
    lon_pair = lon_pair.reshape(geometry.n_lon, 1, geometry.n_lon)
    lat_pair = lat_pair.reshape(geometry.n_lat, 1, geometry.n_lat, 1)
    return table[lon_pair, lat_pair].reshape(len(lons), len(lons))


def _gp_draw(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Matrix-normal draw of the separable field, (n_months, n_space)."""
    K_s = _spatial_cov(config.geometry, config.kappa, config.tau)
    L_s, _ = _chol_with_jitter(K_s, "synth spatial covariance")
    t_idx = np.arange(config.n_months)
    K_t = np.power(config.phi, np.abs(t_idx[:, None] - t_idx[None, :]))
    L_t, _ = _chol_with_jitter(K_t, "synth temporal covariance")
    Z = rng.standard_normal((config.n_months, len(K_s)))
    return L_t @ Z @ L_s.T


def _rescale(values: np.ndarray, target_var: float) -> tuple[np.ndarray, float]:
    """Centre on the sample and scale so the sample variance hits the target."""
    centred = values - values.mean()
    var = float(centred.var())
    if target_var == 0.0 or var < 1e-300:
        return np.zeros_like(values), 0.0
    scale = math.sqrt(target_var / var)
    return centred * scale, scale


def generate(config: ScenarioConfig) -> SynthBundle:
    """Produce one fully deterministic scenario from its config."""
    geometry = config.geometry
    rng_grid = np.random.default_rng([config.seed, 1])
    rng_sample = np.random.default_rng([config.seed, 2])
    rng_menu = np.random.default_rng([config.seed, 3])
    rng_field = np.random.default_rng([config.seed, 4])
    rng_obs = np.random.default_rng([config.seed, 5])

    covariates = _make_covariates(config, rng_grid)

    n = config.n_surveys
    lon_hi = config.lon0 + (config.n_lon - 1) * config.d_lon
    lat_lo = config.lat0 - (config.n_lat - 1) * config.d_lat
    lons = rng_sample.uniform(config.lon0, lon_hi, size=n)
    lats = rng_sample.uniform(lat_lo, config.lat0, size=n)
    months = rng_sample.integers(MAX_LAG, config.n_months, size=n)

    # snap every survey to its nearest cell so truth and design agree exactly
    rows, cols = geometry.cell_index(lons, lats)
    cell_flat = rows * config.n_lon + cols

    design = assemble_at(np.column_stack([lons, lats, months]), covariates)

    col_mean = design.values.mean(axis=0)
    col_sd = design.values.std(axis=0)
    col_sd[col_sd == 0] = 1.0
    Z = (design.values - col_mean) / col_sd
    menu = _covariate_menu(rng_menu, Z.shape[1], config)
    g_raw = _apply_menu(menu, Z)

    field_raw = _gp_draw(config, rng_field)
    gp_raw = field_raw[months, cell_flat]

    share_g, share_gp = REGIME_SHARES[config.regime]
    g_vals, g_scale = _rescale(g_raw, share_g * config.signal_variance)
    gp_vals, gp_scale = _rescale(gp_raw, share_gp * config.signal_variance)
    gp_field = (field_raw - gp_raw.mean()) * gp_scale

    noise = rng_obs.normal(scale=config.noise_sd, size=n) if config.noise_sd > 0 else np.zeros(n)
    latent = config.intercept + g_vals + gp_vals + noise
    prevalence = 1.0 / (1.0 + np.exp(-latent))

    lo, hi = config.n_tested_range
    n_tested = rng_obs.integers(lo, hi + 1, size=n)
    n_positive = rng_obs.binomial(n_tested, prevalence)
    records = [SurveyRecord.from_counts(lo_, la_, int(t_), int(nt), int(npos))
               for lo_, la_, t_, nt, npos in zip(lons, lats, months, n_tested, n_positive)]

    truth = {"g": g_vals, "gp": gp_vals, "noise": noise,
             "latent": latent, "prevalence": prevalence}
    meta = {"menu": menu, "g_scale": g_scale, "gp_scale": gp_scale,
            "g_center": float(g_raw.mean()),
            "col_mean": col_mean, "col_sd": col_sd,
            "shares": (share_g, share_gp)}
    return SynthBundle(config=config, covariates=covariates, records=records,
                       design=design, truth=truth, gp_field=gp_field, meta=meta)


def truth_grid(bundle: SynthBundle) -> tuple[np.ndarray, dict]:
    """Noise-free truth at every cell centre for months >= MAX_LAG.

    Returns (points, columns): points as an (n, 3) array of (lon, lat, t),
    row-major cell order per month, columns g / gp / latent / prevalence. Months below
    MAX_LAG are excluded because lagged design columns are undefined there.
    Values reuse the survey-sample centring and regime scaling, so a survey's
    snapped cell reproduces that survey's latent value minus its noise draw.
    """
    config = bundle.config
    grid = build_prediction_grid(config.geometry, np.arange(MAX_LAG, config.n_months),
                                 bundle.covariates)
    Z = (grid.design.values - bundle.meta["col_mean"]) / bundle.meta["col_sd"]
    g = (_apply_menu(bundle.meta["menu"], Z)
         - bundle.meta["g_center"]) * bundle.meta["g_scale"]
    gp_vals = bundle.gp_field[MAX_LAG:].ravel()
    latent = config.intercept + g + gp_vals
    prevalence = 1.0 / (1.0 + np.exp(-latent))
    return grid.points, {"g": g, "gp": gp_vals, "latent": latent, "prevalence": prevalence}


def _write_truth_csv(path: Path, points, columns: dict) -> None:
    """One line per (lon, lat, t) point with its truth columns, floats exact."""
    points = np.asarray(points, dtype=float)
    rows = np.column_stack([points[:, :2], *columns.values()]).tolist()
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(["lon", "lat", "t", *columns]) + "\n")
        for (lon, lat, *values), t in zip(rows, points[:, 2].astype(int).tolist()):
            fh.write(",".join([repr(lon), repr(lat), str(t), *map(repr, values)]) + "\n")


def write_scenario(bundle: SynthBundle, outdir) -> dict:
    """Persist surveys, covariate stack, and truth; returns the file map."""
    outdir = Path(outdir)
    manifest_path = save_stack_manifest(bundle.covariates, outdir)   # makes outdir
    surveys_path = outdir / "surveys.csv"
    save_surveys(bundle.records, surveys_path)

    truth_path = outdir / "truth.csv"
    _write_truth_csv(truth_path, [(r.lon, r.lat, r.t) for r in bundle.records], bundle.truth)
    truth_grid_path = outdir / "truth-grid.csv"
    _write_truth_csv(truth_grid_path, *truth_grid(bundle))

    return {"surveys": surveys_path, "manifest": manifest_path,
            "truth": truth_path, "truth_grid": truth_grid_path}
