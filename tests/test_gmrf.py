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
from stackgp.gmrf import _lattice_laplacian, lattice_gmrf_precision
from stackgp.gp import GpHyperParams


# A loop build of the lattice Laplacian: the reference that the array code in
# stackgp.gmrf must match byte for byte.
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
