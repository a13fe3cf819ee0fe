from dataclasses import fields

import numpy as np
import pytest

from stackgp.dataset import (GridGeometry, assemble_design, empirical_logit,
                             load_stack_manifest, load_surveys)
from stackgp.errors import ConfigError
from stackgp.synth import (_FIELDS, REGIME_SHARES, ScenarioConfig, _spatial_cov, generate,
                           write_scenario)

from conftest import lattice_cov

SMALL = dict(n_surveys=60, n_lon=8, n_lat=8, n_months=8, seed=11)


class TestDeterminism:
    def test_generate_is_bit_identical(self):
        cfg = ScenarioConfig(**SMALL)
        a, b = generate(cfg), generate(cfg)
        for key in ("g", "gp", "noise", "latent", "prevalence"):
            np.testing.assert_array_equal(a.truth[key], b.truth[key])
        np.testing.assert_array_equal(a.gp_field, b.gp_field)
        np.testing.assert_array_equal(a.design.values, b.design.values)
        assert [(r.lon, r.lat, r.t, r.n_tested, r.n_positive) for r in a.records] \
            == [(r.lon, r.lat, r.t, r.n_tested, r.n_positive) for r in b.records]

    def test_written_files_are_byte_identical(self, tmp_path):
        cfg = ScenarioConfig(**SMALL)
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        write_scenario(generate(cfg), d1)
        write_scenario(generate(cfg), d2)
        files1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel

    def test_different_seeds_differ(self):
        a = generate(ScenarioConfig(**{**SMALL, "seed": 1}))
        b = generate(ScenarioConfig(**{**SMALL, "seed": 2}))
        assert not np.array_equal(a.truth["latent"], b.truth["latent"])


class TestSpatialCovariance:
    @pytest.mark.parametrize("n_lon, n_lat, lon0, lat0, d_lon, d_lat", [
        (1, 7, 30.0, -1.0, 0.05, 0.05),
        (13, 5, -17.3, 12.9, 0.0417, 0.0833),
        (17, 29, 30.0, -1.0, 0.05, 0.05),
        (48, 48, 30.0, -1.0, 0.05, 0.05),
    ])
    def test_table_equals_the_per_entry_kernel_byte_for_byte(self, n_lon, n_lat, lon0, lat0,
                                                             d_lon, d_lat):
        geometry = GridGeometry(lon0=lon0, lat0=lat0, d_lon=d_lon, d_lat=d_lat,
                                n_lon=n_lon, n_lat=n_lat)
        got = _spatial_cov(geometry, 4.0, 1.3)
        want = lattice_cov(geometry, 4.0, 1.3)
        assert got.shape == want.shape == (n_lon * n_lat,) * 2
        assert got.tobytes() == want.tobytes()


class TestVarianceShares:
    @pytest.mark.parametrize("regime", sorted(REGIME_SHARES))
    def test_sample_variances_hit_targets_exactly(self, regime):
        cfg = ScenarioConfig(**{**SMALL, "regime": regime, "signal_variance": 1.3})
        bundle = generate(cfg)
        share_g, share_gp = REGIME_SHARES[regime]
        assert bundle.truth["g"].var() == pytest.approx(share_g * 1.3, rel=1e-12)
        assert bundle.truth["gp"].var() == pytest.approx(share_gp * 1.3, rel=1e-12)
        assert bundle.truth["g"].mean() == pytest.approx(0.0, abs=1e-12)
        assert bundle.truth["gp"].mean() == pytest.approx(0.0, abs=1e-12)

    def test_latent_identity(self):
        cfg = ScenarioConfig(**SMALL)
        bundle = generate(cfg)
        reconstructed = (cfg.intercept + bundle.truth["g"] + bundle.truth["gp"]
                         + bundle.truth["noise"])
        np.testing.assert_array_equal(bundle.truth["latent"], reconstructed)
        np.testing.assert_allclose(bundle.truth["prevalence"],
                                   1.0 / (1.0 + np.exp(-bundle.truth["latent"])),
                                   atol=1e-15)

    def test_field_lookup_matches_survey_truth(self):
        cfg = ScenarioConfig(**SMALL)
        bundle = generate(cfg)
        geo = cfg.geometry
        for k, rec in enumerate(bundle.records):
            i, j = geo.cell_index(rec.lon, rec.lat)
            assert bundle.gp_field[rec.t, i * cfg.n_lon + j] == bundle.truth["gp"][k]


class TestSurveyRealism:
    def test_record_ranges(self):
        cfg = ScenarioConfig(**SMALL)
        bundle = generate(cfg)
        geo = cfg.geometry
        lon_hi = cfg.lon0 + (cfg.n_lon - 1) * cfg.d_lon
        lat_lo = cfg.lat0 - (cfg.n_lat - 1) * cfg.d_lat
        assert len(bundle.records) == cfg.n_surveys
        for rec in bundle.records:
            assert cfg.lon0 <= rec.lon <= lon_hi
            assert lat_lo <= rec.lat <= cfg.lat0
            assert 6 <= rec.t < cfg.n_months
            assert 30 <= rec.n_tested <= 200
            assert 0 <= rec.n_positive <= rec.n_tested
        assert np.all(bundle.truth["prevalence"] > 0)
        assert np.all(bundle.truth["prevalence"] < 1)

    def test_design_columns_static_plus_lagged_dynamic(self):
        cfg = ScenarioConfig(**SMALL, m_covariates=4)
        bundle = generate(cfg)
        labels = [c.label for c in bundle.design.columns]
        assert labels == ["cov00", "cov01",
                          "cov02", "cov02_lag2", "cov02_lag4", "cov02_lag6",
                          "cov03", "cov03_lag2", "cov03_lag4", "cov03_lag6"]

    def test_empirical_logit_tracks_latent_with_huge_samples(self):
        cfg = ScenarioConfig(n_surveys=100, n_lon=8, n_lat=8, n_months=8,
                             seed=21, intercept=0.0, noise_sd=0.0,
                             regime="covariate-heavy",
                             n_tested_range=(10**6, 10**6))
        bundle = generate(cfg)
        obs = np.array([empirical_logit(r.n_positive, r.n_tested)
                        for r in bundle.records])
        gap = np.abs(obs - bundle.truth["latent"])
        assert gap.mean() < 1e-2


class TestTemporalStructure:
    def field_lag1_corr(self, phi, seed=31):
        # huge kappa shrinks spatial correlation so cells act independently
        cfg = ScenarioConfig(n_surveys=10, n_lon=20, n_lat=20, n_months=10,
                             kappa=100.0, phi=phi, seed=seed)
        field = generate(cfg).gp_field
        a = field[:-1].ravel()
        b = field[1:].ravel()
        return float(np.corrcoef(a, b)[0, 1]), a.size

    def test_independent_months_when_phi_zero(self):
        corr, n = self.field_lag1_corr(0.0)
        assert abs(corr) < 3.0 / np.sqrt(n)

    def test_positive_phi_shows_persistence(self):
        corr, _ = self.field_lag1_corr(0.6)
        assert corr > 0.4


class TestScenarioConfigValidation:
    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="mystery"):
            ScenarioConfig.from_dict({"mystery": 1})

    def test_round_trip(self):
        # a config file's synth section loads n_tested_range as a list
        loaded = {**SMALL, "regime": "covariance-heavy", "n_tested_range": [40, 90]}
        cfg = ScenarioConfig.from_dict(loaded)
        assert cfg == ScenarioConfig(**SMALL, regime="covariance-heavy", n_tested_range=(40, 90))
        assert cfg.n_tested_range == (40, 90)

    def test_bad_regime(self):
        with pytest.raises(ConfigError, match="regime"):
            ScenarioConfig(regime="mixed")

    def test_months_must_clear_max_lag(self):
        with pytest.raises(ConfigError, match="lag"):
            ScenarioConfig(n_months=6)

    def test_gp_parameter_bounds(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(phi=1.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(kappa=0.0)

    @pytest.mark.parametrize("key, value", [
        ("n_surveys", "abc"), ("n_surveys", 2.5), ("n_lon", True), ("kappa", "abc"),
        ("lon0", "abc"), ("intercept", "abc"), ("regime", [1]),
        ("n_tested_range", 5), ("n_tested_range", [1, 2, 3]),
        # out of range
        ("d_lon", 0.0), ("d_lat", -0.05), ("n_surveys", 0), ("n_hinge", -1), ("noise_sd", -0.1),
        ("signal_variance", 0.0), ("tau", float("inf")), ("phi", -1.0), ("seed", -1),
        ("n_tested_range", [0, 5]), ("n_tested_range", [1, 2 ** 63]),
    ])
    def test_wrong_typed_field_named(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be"):
            ScenarioConfig.from_dict({key: value})

    def test_every_field_has_a_rule(self):
        assert list(_FIELDS) == [f.name for f in fields(ScenarioConfig)]

    def test_largest_tested_range_accepted(self):
        assert ScenarioConfig(n_tested_range=(1, 2 ** 63 - 1)).n_tested_range[1] == 2 ** 63 - 1

    def test_tested_range_ordering(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(n_tested_range=(50, 10))


class TestPersistence:
    def test_round_trip_through_files(self, tmp_path):
        cfg = ScenarioConfig(**SMALL)
        bundle = generate(cfg)
        paths = write_scenario(bundle, tmp_path)
        records = load_surveys(paths["surveys"])
        stack = load_stack_manifest(paths["manifest"])
        design = assemble_design(records, stack)
        np.testing.assert_array_equal(design.values, bundle.design.values)
        assert [c.label for c in design.columns] == [c.label for c in bundle.design.columns]
        assert [(r.lon, r.lat, r.t) for r in records] \
            == [(r.lon, r.lat, r.t) for r in bundle.records]

    def test_truth_csv_schema_and_exact_floats(self, tmp_path):
        cfg = ScenarioConfig(**SMALL)
        bundle = generate(cfg)
        paths = write_scenario(bundle, tmp_path)
        lines = paths["truth"].read_text().splitlines()
        assert lines[0] == "lon,lat,t,g,gp,noise,latent,prevalence"
        assert len(lines) == 1 + cfg.n_surveys
        first = lines[1].split(",")
        assert float(first[0]) == bundle.records[0].lon
        assert int(first[2]) == bundle.records[0].t
        assert float(first[6]) == bundle.truth["latent"][0]
