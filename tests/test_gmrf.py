import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from stackgp.dataset import GridGeometry
from stackgp.gmrf import _lattice_laplacian, lattice_gmrf_precision
from stackgp.gp import GpHyperParams, cov_block


# A loop build of the lattice Laplacian: the reference that the array code in
# stackgp.gmrf must match byte for byte.
def loop_lattice_laplacian(n_lat, n_lon, h_lat, h_lon):
    n = n_lat * n_lon
    rows, cols, vals = [], [], []
    inv_lat2, inv_lon2 = 1.0 / (h_lat * h_lat), 1.0 / (h_lon * h_lon)
    for i in range(n_lat):
        for j in range(n_lon):
            site = i * n_lon + j
            lat_nbs = [nb for nb, ok in ((site - n_lon, i > 0), (site + n_lon, i < n_lat - 1))
                       if ok]
            lon_nbs = [nb for nb, ok in ((site - 1, j > 0), (site + 1, j < n_lon - 1)) if ok]
            rows.append(site)
            cols.append(site)
            vals.append(-len(lon_nbs) * inv_lon2 - len(lat_nbs) * inv_lat2)
            for nbs, inv_h2 in ((lat_nbs, inv_lat2), (lon_nbs, inv_lon2)):
                for nb in nbs:
                    rows.append(site)
                    cols.append(nb)
                    vals.append(inv_h2)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def assert_csr_bytes_equal(a, b):
    assert a.shape == b.shape
    for part in ("indptr", "indices", "data"):
        x, y = getattr(a, part), getattr(b, part)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), part


class TestLoopOracles:
    @pytest.mark.parametrize("n_lat, n_lon", [(3, 3), (4, 5), (7, 3), (3, 9), (24, 24),
                                              (48, 48), (1, 5), (6, 1), (2, 2)])
    def test_laplacian_matches_the_loop(self, n_lat, n_lon):
        ours = _lattice_laplacian(n_lat, n_lon, 0.07, 0.1)
        ref = loop_lattice_laplacian(n_lat, n_lon, 0.07, 0.1)
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


class TestMaternField:
    """Away from the lattice edges, Q^-1 is gp.py's Matern x AR(1) covariance.

    Tolerance: every entry within 8 cells of the centre cell, at every month,
    is within 0.04 / tau of cov_block. Spacing 0.05 deg against a range of 0.3
    deg puts the finite-difference error and the natural-boundary inflation at
    about 0.03 / tau there (the centre variance is 1.03 / tau).
    """

    @pytest.mark.parametrize("n_lon, lat0, tau, phi", [
        (41, -1.0, 1.0, 0.5),
        (41, -1.0, 4.0, -0.3),
        # at 61 deg a 0.05 deg longitude step is 0.024 deg of distance
        (61, 61.0, 1.0, 0.5),
    ])
    def test_interior_entries_match_the_dense_covariance(self, n_lon, lat0, tau, phi):
        n_lat, months, radius = 41, 3, 8
        geo = GridGeometry(lon0=30.0, lat0=lat0, d_lon=0.05, d_lat=0.05,
                           n_lon=n_lon, n_lat=n_lat)
        prm = GpHyperParams(log_kappa=math.log(math.sqrt(2.0) / 0.3), log_tau=math.log(tau),
                            sigma_e2=0.1, phi=phi, beta=np.ones(1))
        Q = lattice_gmrf_precision(geo, prm, n_months=months).Q
        lons, lats = geo.cell_centers()
        n_space = lons.size
        centre = 1 * n_space + (n_lat // 2) * n_lon + n_lon // 2      # month 1, centre cell
        unit = np.zeros(Q.shape[0])
        unit[centre] = 1.0
        column = splu(Q.tocsc()).solve(unit)
        pts = np.column_stack([np.tile(lons, months), np.tile(lats, months),
                               np.repeat(np.arange(months), n_space)])
        dense = cov_block(pts[[centre]], pts, prm, float(lats.mean()))[0]
        row, col = np.divmod(np.arange(n_space), n_lon)
        near = np.tile((np.abs(row - n_lat // 2) <= radius)
                       & (np.abs(col - n_lon // 2) <= radius), months)
        assert np.abs(column - dense)[near].max() <= 0.04 / tau
        assert column[centre] == pytest.approx(1.0 / tau, rel=0.04)


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
