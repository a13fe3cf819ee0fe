import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from stackgp.dataset import GridGeometry
from stackgp.errors import DataError
from stackgp.gmrf import _lattice_laplacian, lattice_gmrf_precision, observation_matrix
from stackgp.gp import GpHyperParams


# Loop builds of the lattice Laplacian and the observation matrix: the reference
# that the array code in stackgp.gmrf must match byte for byte.
def loop_lattice_laplacian(n_lat, n_lon, h):
    n = n_lat * n_lon
    rows, cols, vals = [], [], []
    inv_h2 = 1.0 / (h * h)
    for i in range(n_lat):
        for j in range(n_lon):
            site = i * n_lon + j
            neighbours = []
            if i > 0:
                neighbours.append(site - n_lon)
            if i < n_lat - 1:
                neighbours.append(site + n_lon)
            if j > 0:
                neighbours.append(site - 1)
            if j < n_lon - 1:
                neighbours.append(site + 1)
            rows.append(site)
            cols.append(site)
            vals.append(-len(neighbours) * inv_h2)
            for nb in neighbours:
                rows.append(site)
                cols.append(nb)
                vals.append(inv_h2)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def loop_observation_matrix(geometry, lons, lats, months, n_months):
    lons = np.asarray(lons, dtype=float)
    lats = np.asarray(lats, dtype=float)
    months = np.asarray(months, dtype=int)
    n_space = geometry.n_lat * geometry.n_lon
    rows, cols, vals = [], [], []
    for i, (lon, lat, t) in enumerate(zip(lons, lats, months)):
        if not 0 <= t < n_months:
            raise DataError(f"point {i}: month {t} outside [0, {n_months})")
        x = (lon - geometry.lon0) / geometry.d_lon
        yy = (geometry.lat0 - lat) / geometry.d_lat
        if not (-1e-9 <= x <= geometry.n_lon - 1 + 1e-9 and
                -1e-9 <= yy <= geometry.n_lat - 1 + 1e-9):
            raise DataError(f"point {i}: ({lon}, {lat}) outside the latent lattice")
        x = min(max(x, 0.0), geometry.n_lon - 1.0)
        yy = min(max(yy, 0.0), geometry.n_lat - 1.0)
        if abs(x - round(x)) < 1e-9:
            x = float(round(x))
        if abs(yy - round(yy)) < 1e-9:
            yy = float(round(yy))
        ix = min(int(math.floor(x)), max(geometry.n_lon - 2, 0))
        iy = min(int(math.floor(yy)), max(geometry.n_lat - 2, 0))
        wx, wy = x - ix, yy - iy
        base = t * n_space
        for di, dj, w in ((0, 0, (1 - wy) * (1 - wx)), (0, 1, (1 - wy) * wx),
                          (1, 0, wy * (1 - wx)), (1, 1, wy * wx)):
            if w > 0.0:
                rows.append(i)
                cols.append(base + (iy + di) * geometry.n_lon + (ix + dj))
                vals.append(w)
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(lons), n_months * n_space))


def assert_csr_bytes_equal(a, b):
    assert a.shape == b.shape
    for part in ("indptr", "indices", "data"):
        x, y = getattr(a, part), getattr(b, part)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), part


class TestLoopOracles:
    @pytest.mark.parametrize("n_lat, n_lon", [(3, 3), (4, 5), (7, 3), (3, 9), (24, 24),
                                              (48, 48), (1, 5), (6, 1), (2, 2)])
    def test_laplacian_matches_the_loop(self, n_lat, n_lon):
        ours = _lattice_laplacian(n_lat, n_lon, 0.1)
        ref = loop_lattice_laplacian(n_lat, n_lon, 0.1)
        assert ours.nnz == ref.nnz
        assert not np.any(ours.data == 0.0)
        np.testing.assert_array_equal(ours.toarray(), ref.toarray())

    @pytest.mark.parametrize("n_lat, n_lon, n_months", [(5, 6, 3), (3, 3, 1), (4, 7, 2)])
    def test_precision_bytes_match_the_loop_laplacian(self, n_lat, n_lon, n_months,
                                                      monkeypatch):
        import stackgp.gmrf as gmrf
        geo = GridGeometry(lon0=30.0, lat0=-1.0, d_lon=0.1, d_lat=0.07,
                           n_lon=n_lon, n_lat=n_lat)
        prm = GpHyperParams(log_kappa=math.log(2.5), log_tau=math.log(1.3), sigma_e2=0.1,
                            phi=0.4, beta=np.ones(1))
        ours = lattice_gmrf_precision(geo, prm, n_months=n_months).Q
        monkeypatch.setattr(gmrf, "_lattice_laplacian", loop_lattice_laplacian)
        ref = lattice_gmrf_precision(geo, prm, n_months=n_months).Q
        assert_csr_bytes_equal(ours, ref)

    @staticmethod
    def random_case(rng):
        geo = GridGeometry(lon0=float(rng.uniform(-40, 40)), lat0=float(rng.uniform(-20, 20)),
                           d_lon=float(rng.choice([0.1, 0.25, rng.uniform(0.01, 1.0)])),
                           d_lat=float(rng.choice([0.1, 0.25, rng.uniform(0.01, 1.0)])),
                           n_lon=int(rng.integers(1, 7)), n_lat=int(rng.integers(1, 7)))
        n_months = int(rng.integers(1, 4))
        n = int(rng.integers(0, 12))
        col = rng.uniform(0, geo.n_lon - 1, size=n)
        row = rng.uniform(0, geo.n_lat - 1, size=n)
        kind = rng.integers(0, 4, size=n)
        col = np.where(kind == 1, np.round(col), col)            # cell centres
        row = np.where(kind == 1, np.round(row), row)
        col = np.where(kind == 2, np.floor(col) + 0.5, col)      # midpoints
        row = np.where(kind == 2, np.floor(row) + 0.5, row)
        col = np.where(kind == 3, rng.choice([0.0, geo.n_lon - 1.0], size=n), col)  # edges
        col = np.minimum(col, geo.n_lon - 1.0)
        row = np.minimum(row, geo.n_lat - 1.0)
        lons = geo.lon0 + col * geo.d_lon
        lats = geo.lat0 - row * geo.d_lat
        months = rng.integers(0, n_months, size=n)
        if n and rng.uniform() < 0.2:
            months[rng.integers(n)] = rng.choice([-1, n_months])
        if n and rng.uniform() < 0.2:
            i = rng.integers(n)
            lons[i] = geo.lon0 + rng.choice([-0.5, geo.n_lon]) * geo.d_lon
        if n and rng.uniform() < 0.1:
            lats[rng.integers(n)] = geo.lat0 + geo.d_lat
        return geo, lons, lats, months, n_months

    def test_observation_matrix_matches_the_loop(self):
        rng = np.random.default_rng(20261018)
        raised = 0
        for _ in range(200):
            geo, lons, lats, months, n_months = self.random_case(rng)
            try:
                ref = loop_observation_matrix(geo, lons, lats, months, n_months)
            except DataError as exc:
                raised += 1
                with pytest.raises(DataError) as ours:
                    observation_matrix(geo, lons, lats, months, n_months)
                assert str(ours.value) == str(exc)
                continue
            assert_csr_bytes_equal(observation_matrix(geo, lons, lats, months, n_months), ref)
        assert 20 <= raised <= 150


class TestImportBoundary:
    def test_cli_does_not_load_gmrf(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = "import sys, stackgp.cli; print('stackgp.gmrf' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert out.stdout.strip() == "False"

    def test_gp_holds_nothing_from_scipy_sparse(self):
        import stackgp.gp as gp
        for name, value in vars(gp).items():
            home = value.__name__ if isinstance(value, types.ModuleType) \
                else getattr(value, "__module__", None) or ""
            assert not home.startswith("scipy.sparse"), f"stackgp.gp.{name} is from {home}"
