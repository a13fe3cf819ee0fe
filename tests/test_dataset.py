import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stackgp.dataset import (
    Covariate,
    GridGeometry,
    PointError,
    SurveyRecord,
    assemble_at,
    assemble_design,
    build_prediction_grid,
    design_columns,
    empirical_logit,
    load_grid_csv,
    load_stack_manifest,
    load_surveys,
    save_grid_csv,
    save_stack_manifest,
    save_surveys,
)
from stackgp.errors import DataError, SchemaError

from conftest import make_geometry, make_stack, make_surveys


def cell_center(geo, row, col):
    lons, lats = geo.cell_centers()
    i = row * geo.n_lon + col
    return float(lons[i]), float(lats[i])


class TestEmpiricalLogit:
    def test_symmetric_case_is_zero(self):
        assert empirical_logit(10, 20) == 0.0

    def test_zero_positives(self):
        assert empirical_logit(0, 20) == pytest.approx(math.log(0.5 / 20.5), abs=1e-12)
        assert empirical_logit(0, 20) == pytest.approx(-3.7136, abs=5e-4)

    def test_all_positives_negates_zero_case(self):
        assert empirical_logit(20, 20) == -empirical_logit(0, 20)

    def test_rejects_bad_counts(self):
        with pytest.raises(DataError):
            empirical_logit(5, 0)
        with pytest.raises(DataError):
            empirical_logit(-1, 10)
        with pytest.raises(DataError):
            empirical_logit(11, 10)

    @given(st.integers(min_value=1, max_value=500), st.data())
    def test_antisymmetry(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        assert empirical_logit(k, n) == pytest.approx(-empirical_logit(n - k, n), abs=1e-12)

    @given(st.integers(min_value=2, max_value=200))
    def test_strictly_increasing_in_positives(self, n):
        vals = [empirical_logit(k, n) for k in range(n + 1)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestSurveyIo:
    def test_round_trip_identity(self, tmp_path):
        records = make_surveys(n=15, seed=3)
        path = tmp_path / "surveys.csv"
        save_surveys(records, path)
        assert load_surveys(path) == records

    def test_three_row_file_in_order(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("lon,lat,t,n_tested,n_positive\n"
                        "30.0,-1.0,6,20,10\n"
                        "30.1,-1.1,7,30,0\n"
                        "30.2,-1.2,8,40,40\n")
        recs = load_surveys(path)
        assert len(recs) == 3
        assert [r.t for r in recs] == [6, 7, 8]
        assert recs[0].y == 0.0

    def test_bad_counts_cite_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("lon,lat,t,n_tested,n_positive\n30.0,-1.0,6,4,5\n")
        with pytest.raises(DataError, match=":2:"):
            load_surveys(path)

    def test_header_only_gives_empty_list(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("lon,lat,t,n_tested,n_positive\n")
        assert load_surveys(path) == []

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("lon,lat,month,n,k\n30.0,-1.0,6,20,10\n")
        with pytest.raises(SchemaError):
            load_surveys(path)

    def test_malformed_field_cites_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("lon,lat,t,n_tested,n_positive\n30.0,-1.0,6,20,10\nx,-1.0,6,20,10\n")
        with pytest.raises(DataError, match=":3:"):
            load_surveys(path)

    def test_record_rejects_negative_month(self):
        with pytest.raises(DataError):
            SurveyRecord.from_counts(30.0, -1.0, -1, 20, 10)


class TestGridGeometry:
    def test_cell_index_round_trip(self):
        geo = make_geometry()
        for row in range(geo.n_lat):
            for col in range(geo.n_lon):
                lon, lat = cell_center(geo, row, col)
                assert geo.cell_index(lon, lat) == (row, col)

    def test_cell_index_of_arrays_matches_scalars(self):
        geo = make_geometry()
        lons, lats = geo.cell_centers()
        rows, cols = geo.cell_index(lons + 0.3 * geo.d_lon, lats - 0.4 * geo.d_lat)
        expected = [geo.cell_index(lo + 0.3 * geo.d_lon, la - 0.4 * geo.d_lat)
                    for lo, la in zip(lons, lats)]
        assert list(zip(rows.tolist(), cols.tolist())) == expected
        assert rows.tolist() == np.repeat(np.arange(geo.n_lat), geo.n_lon).tolist()

    def test_outside_extent_raises(self):
        geo = make_geometry()
        with pytest.raises(DataError):
            geo.cell_index(geo.lon0 - 1.0, geo.lat0)

    def test_outside_extent_names_first_point(self):
        geo = make_geometry()
        lons = np.array([geo.lon0, geo.lon0 - 1.0, geo.lon0 - 2.0])
        with pytest.raises(PointError, match=r"point \(29\.0, -1\.0\)") as info:
            geo.cell_index(lons, np.full(3, geo.lat0))
        assert info.value.index == 1

    def test_invalid_geometry_rejected(self):
        with pytest.raises(DataError):
            GridGeometry(lon0=0.0, lat0=0.0, d_lon=0.1, d_lat=-0.1, n_lon=3, n_lat=3)

    def test_cell_centers_row_major_north_to_south(self):
        geo = make_geometry(n_lon=3, n_lat=2, lon0=10.0, lat0=5.0, d=0.5)
        lons, lats = geo.cell_centers()
        assert lons.tolist() == [10.0, 10.5, 11.0, 10.0, 10.5, 11.0]
        assert lats.tolist() == [5.0, 5.0, 5.0, 4.5, 4.5, 4.5]


class TestGridIo:
    def test_round_trip(self, tmp_path, rng):
        geo = make_geometry()
        values = rng.normal(size=(geo.n_lat, geo.n_lon))
        path = tmp_path / "g.csv"
        save_grid_csv(values, path)
        assert np.array_equal(load_grid_csv(path, geo), values)

    def test_shape_mismatch_rejected(self, tmp_path, rng):
        geo = make_geometry()
        path = tmp_path / "g.csv"
        save_grid_csv(rng.normal(size=(2, 2)), path)
        with pytest.raises(SchemaError):
            load_grid_csv(path, geo)

    def test_non_finite_rejected(self, tmp_path):
        geo = make_geometry(n_lon=2, n_lat=2)
        path = tmp_path / "g.csv"
        path.write_text("1.0,2.0\nnan,4.0\n")
        with pytest.raises(DataError):
            load_grid_csv(path, geo)

    @pytest.mark.parametrize("text, clause", [
        ("1.0,abc\n3.0,4.0\n", "could not convert string 'abc' to float64 at row 0, column 2."),
        ("1.0,2.0,\n3.0,4.0,\n", "could not convert string '' to float64 at row 0, column 3."),
        ("1.0,2.0\n3.0\n", "the number of columns changed from 2 to 1 at row 2"),
    ], ids=["text", "trailing-comma", "ragged"])
    def test_cell_that_is_not_a_number_is_a_data_error_naming_the_file(self, tmp_path, text,
                                                                      clause):
        # np.loadtxt's ValueError escaped, and a command exited 1; a ragged row's message
        # then ended with numpy's advice to pass `usecols`
        geo = make_geometry(n_lon=2, n_lat=2)
        path = tmp_path / "g.csv"
        path.write_text(text)
        with pytest.raises(DataError) as info:
            load_grid_csv(path, geo)
        assert str(info.value) == f"{path}: {clause}"

    @pytest.mark.parametrize("text", ["", "\n\n", "# a comment\n"])
    def test_empty_file_is_a_data_error_and_warns_nothing(self, tmp_path, text):
        # numpy warned "input contained no data" before a SchemaError about shape (0, 1)
        geo = make_geometry(n_lon=2, n_lat=2)
        path = tmp_path / "g.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as info:
                load_grid_csv(path, geo)
        assert str(info.value) == f"{path}: no grid rows"


class TestAssembly:
    def test_column_count_two_static_one_dynamic(self):
        covs = make_stack()
        cols = design_columns(covs)
        assert len(cols) == 2 + 4
        labels = [info.label for info, _ in cols]
        assert labels == ["elev", "soil", "rain", "rain_lag2", "rain_lag4", "rain_lag6"]

    def test_cell_centre_value_identity(self):
        covs = make_stack()
        geo = covs[0].geometry
        lon, lat = cell_center(geo, 2, 3)
        X = assemble_at([(lon, lat, 8)], covs)
        assert X.values[0, 0] == covs[0].slices[0][2, 3]
        assert X.values[0, 2] == covs[2].slices[8][2, 3]
        assert X.values[0, 3] == covs[2].slices[6][2, 3]

    def test_lag_before_time_zero_raises(self):
        covs = make_stack()
        geo = covs[0].geometry
        lon, lat = cell_center(geo, 0, 0)
        with pytest.raises(DataError, match="rain_lag2"):
            assemble_at([(lon, lat, 1)], covs)

    def test_row_alignment_and_determinism(self):
        covs = make_stack()
        surveys = make_surveys(n=12)
        X1 = assemble_design(surveys, covs)
        X2 = assemble_design(surveys, covs)
        assert X1.values.shape[0] == 12
        assert np.array_equal(X1.values, X2.values)
        one = assemble_design(surveys[3:4], covs)
        assert np.array_equal(one.values[0], X1.values[3])

    def test_out_of_extent_names_row_and_covariate(self):
        covs = make_stack()
        with pytest.raises(DataError, match=r"row 0.*elev"):
            assemble_at([(0.0, 0.0, 8)], covs)

    @pytest.mark.parametrize("outside, t_bad, message", [
        (True, 8, r"^row 2: covariate 'elev': point \(0\.0, 0\.0\) outside grid extent$"),
        (False, 12, r"^row 2: covariate 'rain': month 12 outside \[0, 9\]$"),
        (False, 1, r"^row 2: covariate 'rain_lag2' needs month -1 < 0$"),
    ])
    def test_several_bad_rows_name_the_first(self, outside, t_bad, message):
        covs = make_stack()
        lon, lat = cell_center(covs[0].geometry, 1, 1)
        bad = (0.0, 0.0, t_bad) if outside else (lon, lat, t_bad)
        points = [(lon, lat, 9), (lon, lat, 8), bad, (lon, lat, 9), bad, bad]
        with pytest.raises(DataError, match=message):
            assemble_at(np.array(points), covs)

    def test_list_of_triples_and_array_give_the_same_matrix(self):
        covs = make_stack()
        triples = [(r.lon, r.lat, r.t) for r in make_surveys(n=12)]
        from_list = assemble_at(triples, covs)
        from_array = assemble_at(np.array(triples), covs)
        assert from_list.columns == from_array.columns
        np.testing.assert_array_equal(from_list.values, from_array.values)
        assert assemble_at(np.empty((0, 3)), covs).values.shape == (0, 6)
        with pytest.raises(ValueError):
            assemble_at(np.zeros((3, 2)), covs)

    def test_layout_check_reports_missing_and_extra(self):
        covs = make_stack()
        surveys = make_surveys(n=4)
        X = assemble_design(surveys, covs)
        Xsub = assemble_design(surveys, covs[:2])
        with pytest.raises(SchemaError, match="missing"):
            X.check_layout(Xsub)
        X.check_layout(X)

    def test_matrix_is_immutable(self):
        covs = make_stack()
        X = assemble_design(make_surveys(n=4), covs)
        with pytest.raises(ValueError):
            X.values[0, 0] = 99.0


class TestManifest:
    def _write_scenario(self, tmp_path, rng):
        geo = make_geometry(n_lon=4, n_lat=3)
        grids = tmp_path / "grids"
        grids.mkdir()
        static = rng.normal(size=(geo.n_lat, geo.n_lon))
        save_grid_csv(static, grids / "elev.csv")
        for t in range(10):
            save_grid_csv(rng.normal(size=(geo.n_lat, geo.n_lon)), grids / f"rain_{t}.csv")
        manifest = tmp_path / "stack.yaml"
        manifest.write_text(
            "covariates:\n"
            "- name: elev\n"
            "  kind: static\n"
            f"  grid: {{lon0: {geo.lon0}, lat0: {geo.lat0}, d_lon: {geo.d_lon}, "
            f"d_lat: {geo.d_lat}, n_lon: {geo.n_lon}, n_lat: {geo.n_lat}}}\n"
            "  path: grids/elev.csv\n"
            "- name: rain\n"
            "  kind: dynamic-monthly\n"
            f"  grid: {{lon0: {geo.lon0}, lat0: {geo.lat0}, d_lon: {geo.d_lon}, "
            f"d_lat: {geo.d_lat}, n_lon: {geo.n_lon}, n_lat: {geo.n_lat}}}\n"
            "  t_start: 0\n"
            "  t_end: 9\n"
            "  path_template: grids/rain_{t}.csv\n")
        return manifest, static, geo

    def test_load_manifest(self, tmp_path, rng):
        manifest, static, geo = self._write_scenario(tmp_path, rng)
        covs = load_stack_manifest(manifest)
        assert [c.name for c in covs] == ["elev", "rain"]
        assert covs[0].kind == "static"
        assert np.array_equal(covs[0].slices[0], static)
        assert covs[1].t_end == 9
        assert len(covs[1].slices) == 10

    def test_missing_grid_file_fails_loudly(self, tmp_path, rng):
        manifest, _, _ = self._write_scenario(tmp_path, rng)
        (tmp_path / "grids" / "rain_2.csv").unlink()
        with pytest.raises(OSError):
            load_stack_manifest(manifest)

    def test_duplicate_name_rejected(self, tmp_path, rng):
        manifest, _, _ = self._write_scenario(tmp_path, rng)
        text = manifest.read_text().replace("name: rain", "name: elev")
        manifest.write_text(text)
        with pytest.raises(SchemaError, match="duplicate"):
            load_stack_manifest(manifest)

    def test_unknown_kind_rejected(self, tmp_path, rng):
        manifest, _, _ = self._write_scenario(tmp_path, rng)
        text = manifest.read_text()
        for kind in ("raster", "[static]"):     # a list cannot be looked up in the kinds table
            manifest.write_text(text.replace("kind: static", f"kind: {kind}"))
            with pytest.raises(SchemaError) as info:
                load_stack_manifest(manifest)
            assert "kind in ('static', 'synoptic', 'dynamic-monthly', 'dynamic-annual')" in str(
                info.value)

    def test_save_then_load_is_the_identity_for_every_kind(self, tmp_path, rng):
        geo = make_geometry(n_lon=4, n_lat=3)
        other = make_geometry(n_lon=2, n_lat=5, lon0=31.5, lat0=0.25, d=0.2)
        shape = (geo.n_lat, geo.n_lon)
        covs = [
            Covariate("elev", "static", geo, rng.normal(size=(1, *shape))),
            Covariate("clim", "synoptic", other, rng.normal(size=(1, other.n_lat, other.n_lon))),
            Covariate("rain", "dynamic-monthly", geo, rng.normal(size=(6, *shape)),
                      t_start=2, t_end=7),
            Covariate("pop", "dynamic-annual", geo, rng.normal(size=(3, *shape)),
                      t_start=1, t_end=30),
        ]
        loaded = load_stack_manifest(save_stack_manifest(covs, tmp_path / "out"))
        assert [(c.name, c.kind, c.geometry, c.t_start, c.t_end) for c in loaded] == \
            [(c.name, c.kind, c.geometry, c.t_start, c.t_end) for c in covs]
        for mine, theirs in zip(covs, loaded):
            assert theirs.slices.shape == mine.slices.shape
            assert theirs.slices.tobytes() == mine.slices.tobytes()

    def test_saved_manifest_text_is_pinned(self, tmp_path):
        geo = make_geometry(n_lon=2, n_lat=1, d=0.5)
        covs = [Covariate("elev", "static", geo, np.array([[[1.0, 2.5]]])),
                Covariate("rain", "dynamic-monthly", geo, np.zeros((2, 1, 2)),
                          t_start=3, t_end=4)]
        path = save_stack_manifest(covs, tmp_path)
        assert path == tmp_path / "stack.yaml"
        assert path.read_text(encoding="utf-8") == (
            "covariates:\n"
            "- name: elev\n"
            "  kind: static\n"
            "  grid:\n"
            "    lon0: 30.0\n"
            "    lat0: -1.0\n"
            "    d_lon: 0.5\n"
            "    d_lat: 0.5\n"
            "    n_lon: 2\n"
            "    n_lat: 1\n"
            "  path: grids/elev.csv\n"
            "- name: rain\n"
            "  kind: dynamic-monthly\n"
            "  grid:\n"
            "    lon0: 30.0\n"
            "    lat0: -1.0\n"
            "    d_lon: 0.5\n"
            "    d_lat: 0.5\n"
            "    n_lon: 2\n"
            "    n_lat: 1\n"
            "  t_start: 3\n"
            "  t_end: 4\n"
            "  path_template: grids/rain_{t}.csv\n")
        assert sorted(p.name for p in (tmp_path / "grids").iterdir()) == \
            ["elev.csv", "rain_0.csv", "rain_1.csv"]
        assert (tmp_path / "grids" / "elev.csv").read_text(encoding="utf-8") == "1.0,2.5\n"

    @pytest.mark.parametrize("old, new, names", [
        ("covariates:\n", "covariates: 5\nrest:\n", ["'covariates'"]),
        ("- name: rain\n", "- 5\n- name: rain\n", ["entry 1", "mapping"]),
        ("  path: grids/elev.csv\n", "", ["elev", "path must be"]),
        ("  t_start: 0\n", "", ["rain", "t_start must be"]),
        ("  t_end: 9\n", "", ["rain", "t_end must be"]),
        ("  path_template: grids/rain_{t}.csv\n", "", ["rain", "path_template must be"]),
        ("t_start: 0", "t_start: -3", ["rain", "t_start must be"]),
        ("t_start: 0", "t_start: 0.5", ["rain", "t_start must be"]),
        ("t_end: 9", "t_end: abc", ["rain", "t_end must be"]),
        ("rain_{t}", "rain_{x}", ["rain", "path_template must be"]),
        ("rain_{t}", "rain_{0}", ["rain", "path_template must be"]),
        ("rain_{t}", "rain_{t", ["rain", "path_template must be"]),
        ("rain_{t}", "rain_{t.foo}", ["rain", "path_template must be"]),
        ("rain_{t}", "rain_{t[0]}", ["rain", "path_template must be"]),
        ("n_lon: 4", "n_lon: 4.0", ["elev", "n_lon must be an integer >= 1"]),
        ("n_lat: 3", "n_lat: true", ["elev", "n_lat must be an integer >= 1"]),
        ("lon0: 30.0", "lon0: .inf", ["elev", "lon0 must be a finite real"]),
        ("lat0: -1.0", "lat0: abc", ["elev", "lat0 must be a finite real"]),
        ("d_lon: 0.1", "d_lon: .nan", ["elev", "d_lon must be a finite real > 0"]),
        ("d_lat: 0.1", "d_lat: 0", ["elev", "d_lat must be a finite real > 0"]),
    ], ids=["covariates-not-list", "entry-not-mapping", "no-path", "no-t_start", "no-t_end",
            "no-path_template", "negative-t_start", "float-t_start", "string-t_end",
            "template-other-field", "template-positional", "template-unclosed",
            "template-attribute", "template-index", "grid-float-n_lon", "grid-bool-n_lat",
            "grid-infinite-lon0", "grid-text-lat0", "grid-nan-d_lon", "grid-zero-d_lat"])
    def test_malformed_entry_named(self, tmp_path, rng, old, new, names):
        manifest, _, _ = self._write_scenario(tmp_path, rng)
        assert old in manifest.read_text()
        manifest.write_text(manifest.read_text().replace(old, new))
        with pytest.raises(SchemaError) as info:
            load_stack_manifest(manifest)
        for name in [str(manifest), *names]:
            assert name in str(info.value)

    def test_assemble_from_manifest_path(self, tmp_path, rng):
        manifest, _, geo = self._write_scenario(tmp_path, rng)
        lon, lat = cell_center(geo, 1, 1)
        surveys = [SurveyRecord.from_counts(lon, lat, 6, 20, 5)]
        X = assemble_design(surveys, load_stack_manifest(manifest))
        assert [c.label for c in X.columns] == ["elev", "rain", "rain_lag2", "rain_lag4",
                                                "rain_lag6"]

    def test_dynamic_annual_slices(self, tmp_path, rng):
        geo = make_geometry(n_lon=3, n_lat=3)
        grids = tmp_path / "grids"
        grids.mkdir()
        blocks = [rng.normal(size=(3, 3)) for _ in range(2)]
        for i, b in enumerate(blocks):
            save_grid_csv(b, grids / f"pop_{i}.csv")
        manifest = tmp_path / "stack.yaml"
        manifest.write_text(
            "covariates:\n"
            "- name: pop\n"
            "  kind: dynamic-annual\n"
            f"  grid: {{lon0: {geo.lon0}, lat0: {geo.lat0}, d_lon: {geo.d_lon}, "
            f"d_lat: {geo.d_lat}, n_lon: {geo.n_lon}, n_lat: {geo.n_lat}}}\n"
            "  t_start: 0\n"
            "  t_end: 23\n"
            "  path_template: grids/pop_{t}.csv\n")
        covs = load_stack_manifest(manifest)
        for t, block in [(5, 0), (11, 0), (12, 1), (23, 1)]:
            grid = build_prediction_grid(geo, t, covs)
            assert np.array_equal(grid.design.values[:, 0].reshape(3, 3), blocks[block])
        with pytest.raises(DataError, match=r"row 0: covariate 'pop'.*month 24 outside \[0, 23\]"):
            build_prediction_grid(geo, 24, covs)
        # month 13 reads block 1 alone
        (grids / "pop_0.csv").unlink()
        grid = build_prediction_grid(geo, 13, load_stack_manifest(manifest, months=[13]))
        assert np.array_equal(grid.design.values[:, 0].reshape(3, 3), blocks[1])

    def test_months_read_only_the_slices_their_lags_reach(self, tmp_path, rng):
        manifest, _, geo = self._write_scenario(tmp_path, rng)
        whole = build_prediction_grid(geo, [9, 7], load_stack_manifest(manifest))
        # months 9 and 7 at lags 0, 2, 4, 6 read rain 1, 3, 5, 7 and 9 only
        for t in (0, 2, 4, 6, 8):
            (tmp_path / "grids" / f"rain_{t}.csv").unlink()
        covs = load_stack_manifest(manifest, months=[9, 7])
        assert np.isnan(covs[1].slices[[0, 2, 4, 6, 8]]).all()
        window = build_prediction_grid(geo, [9, 7], covs)
        assert window.design.values.tobytes() == whole.design.values.tobytes()
        with pytest.raises(OSError, match="rain_2.csv"):     # month 8 reads 2, 4, 6 and 8
            load_stack_manifest(manifest, months=[8])
        with pytest.raises(OSError, match="rain_0.csv"):
            load_stack_manifest(manifest)

    def test_a_read_outside_the_window_is_refused(self, tmp_path, rng):
        manifest, _, geo = self._write_scenario(tmp_path, rng)
        covs = load_stack_manifest(manifest, months=[9])
        with pytest.raises(DataError, match="non-finite"):
            build_prediction_grid(geo, 8, covs)

    def test_month_past_the_range_keeps_its_message(self, tmp_path, rng):
        manifest, _, geo = self._write_scenario(tmp_path, rng)
        covs = load_stack_manifest(manifest, months=[12])
        with pytest.raises(DataError, match=r"row 0: covariate 'rain'.*month 12 outside \[0, 9\]"):
            build_prediction_grid(geo, 12, covs)

    def test_exponent_floats_in_grid(self, tmp_path, rng):
        manifest, _, geo = self._write_scenario(tmp_path, rng)
        manifest.write_text(manifest.read_text().replace(f"d_lon: {geo.d_lon}", "d_lon: 1e-1"))
        covs = load_stack_manifest(manifest)
        assert covs[0].geometry.d_lon == 0.1
        assert covs[1].geometry.d_lon == 0.1


class TestAssembleFromManifestTime:
    def test_month_out_of_manifest_range(self, tmp_path, rng):
        covs = make_stack(n_months=10)
        geo = covs[0].geometry
        lon, lat = cell_center(geo, 0, 0)
        with pytest.raises(DataError, match="rain"):
            assemble_at([(lon, lat, 12)], covs)


class TestPredictionGrid:
    def test_cell_count_and_point_order(self):
        covs = make_stack()
        geo = covs[0].geometry
        grid = build_prediction_grid(geo, 8, covs)
        lons, lats = geo.cell_centers()
        np.testing.assert_array_equal(grid.points, np.column_stack([lons, lats, np.full(lons.size, 8)]))
        assert grid.design.values.shape[0] == geo.n_lon * geo.n_lat

    def test_grid_design_matches_direct_lookup(self):
        covs = make_stack()
        geo = covs[0].geometry
        grid = build_prediction_grid(geo, 9, covs)
        flat = geo.cell_index(*cell_center(geo, 2, 4))
        k = flat[0] * geo.n_lon + flat[1]
        assert grid.design.values[k, 0] == covs[0].slices[0][2, 4]

    @pytest.mark.parametrize("t", [6, 9, 12, 17])
    def test_every_column_is_its_raw_slice(self, t):
        """Oracle over the whole lattice: column (cov, lag) is cov's slice for month t - lag."""
        geo = make_geometry()
        shape = (geo.n_lat, geo.n_lon)
        rng = np.random.default_rng(7)
        covs = make_stack(geo, n_months=18) + [
            Covariate("pop", "dynamic-annual", geo, rng.normal(size=(2, *shape)),
                      t_start=2, t_end=25)]
        grid = build_prediction_grid(geo, t, covs)
        assert [c.label for c in grid.design.columns] == ["elev", "soil", "rain", "rain_lag2",
                                                      "rain_lag4", "rain_lag6", "pop"]
        expected = [covs[0].slices[0], covs[1].slices[0]]
        expected += [covs[2].slices[t - lag] for lag in (0, 2, 4, 6)]
        expected += [covs[3].slices[(t - 2) // 12]]
        for j, raw in enumerate(expected):
            np.testing.assert_array_equal(grid.design.values[:, j].reshape(shape), raw)
