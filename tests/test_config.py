import ast
from pathlib import Path

import pytest
import yaml

import stackgp
from stackgp.config import (apply_overrides, check_keys, check_values, load_config, require,
                            validate_config, write_resolved)
from stackgp.errors import ConfigError, SchemaError

SRC = Path(stackgp.__file__).resolve().parent


def _unknown_key_strings(tree: ast.Module) -> list:
    """Line of every string constant, f-string parts included, that says "unknown key"."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "unknown key" in node.value)


def _must_be_formatted(tree: ast.Module) -> list:
    """Line of every f-string whose text "must be " comes just before a formatted value."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                  for part, after in zip(node.values, node.values[1:])
                  if isinstance(part, ast.Constant) and part.value.endswith("must be ")
                  and isinstance(after, ast.FormattedValue))


class TestCheckKeys:
    def test_returns_a_mapping_of_known_keys(self):
        given = {"a": 1}
        assert check_keys("where", given, ("a", "b")) is given

    def test_non_mapping_named(self):
        with pytest.raises(ConfigError, match=r"^where must be a mapping, got \[1\]$"):
            check_keys("where", [1], ("a",))

    def test_every_unknown_key_named_as_text(self):
        with pytest.raises(ConfigError, match=r"^where: unknown key\(s\) \['1', 'c'\]; "
                                              r"valid keys are \['a', 'b'\]$"):
            check_keys("where", {1: 0, "c": 0, "a": 0}, ("b", "a"))

    def test_config_is_the_only_home_of_the_refusal(self):
        # a copy elsewhere drifts: five copies sorted raw keys and crashed on an int key
        offenders = {}
        for path in sorted(SRC.rglob("*.py")):
            rel = str(path.relative_to(SRC))
            hits = _unknown_key_strings(ast.parse(path.read_text(encoding="utf-8")))
            if hits and rel != "config.py":
                offenders[rel] = hits
        assert not offenders, f"'unknown key' messages outside config.py {offenders}; " \
                              "call config.check_keys"

    def test_the_scan_sees_f_strings_and_docstrings(self):
        tree = ast.parse('"""No unknown keys."""\n'
                         'def f(w):\n    raise ValueError(f"{w}: unknown key(s)")\n'
                         'x = "unknown kind"\n')
        assert _unknown_key_strings(tree) == [1, 3]
        assert _unknown_key_strings(ast.parse((SRC / "config.py").read_text(encoding="utf-8")))


class TestCheckValues:
    RULES = {"a": (lambda v: v < 3, "below 3"), "b": (None, lambda v: v == "x", "'x'")}

    def test_returns_given_once_every_value_passes(self):
        given = {"a": 2, "b": "x", "c": object()}   # c: no rule, not checked
        assert check_values("where.", given, self.RULES) is given

    def test_names_the_key_the_description_and_the_value(self):
        with pytest.raises(ConfigError, match=r"^where\.a must be below 3, got 5$"):
            check_values("where.", {"a": 5}, self.RULES)

    def test_a_rule_ends_in_check_and_description(self):
        with pytest.raises(ConfigError, match=r"^b must be 'x', got 'y'$"):
            check_values("", {"b": "y"}, self.RULES)

    def test_absent_keys_are_skipped(self):
        assert check_values("", {}, {"a": (lambda v: False, "never")}) == {}

    def test_raises_the_given_error_class(self):
        with pytest.raises(SchemaError, match="a must be below 3"):
            check_values("", {"a": 3}, self.RULES, SchemaError)

    def test_config_is_the_only_home_of_the_refusal(self):
        # six hand-written copies had drifted in wording, order and error class
        offenders = {}
        for path in sorted(SRC.rglob("*.py")):
            rel = str(path.relative_to(SRC))
            hits = _must_be_formatted(ast.parse(path.read_text(encoding="utf-8")))
            if hits and rel != "config.py":
                offenders[rel] = hits
        assert not offenders, f"'must be {{...}}' messages outside config.py {offenders}; " \
                              "call config.check_values"

    def test_the_scan_sees_a_formatted_description(self):
        tree = ast.parse('def f(k, d, v):\n    raise ValueError(f"{k} must be {d}, got {v!r}")\n'
                         'x = f"{k} must be a list, got {v}"\n'
                         'y = "must be {d}"\n')
        assert _must_be_formatted(tree) == [2]
        assert _must_be_formatted(ast.parse((SRC / "config.py").read_text(encoding="utf-8")))


class TestValidateConfig:
    def test_accepts_known_sections(self):
        cfg = {"output_dir": "out", "seed": 3,
               "stacking": {"design": 1, "v": 5, "learners": []},
               "cv": {"repeats": 5}}
        assert validate_config(cfg) is cfg

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="stackign"):
            validate_config({"stackign": {}})

    def test_unknown_section_key_named(self):
        with pytest.raises(ConfigError, match="lvl1"):
            validate_config({"stacking": {"lvl1": "cwm"}})

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            validate_config({"gp": [1, 2]})

    def test_synth_seed_rejected(self):
        with pytest.raises(ConfigError, match="--seed"):
            validate_config({"synth": {"seed": 4}})

    def test_seed_type_checked(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"seed": -1})
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"seed": True})
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"seed": "five"})

    def test_non_mapping_config(self):
        with pytest.raises(ConfigError, match="mapping"):
            validate_config([1, 2, 3])

    def test_repeated_predict_month_rejected(self):
        assert validate_config({"predict": {"months": [6, 7]}})
        with pytest.raises(ConfigError, match=r"predict\.months must be .*distinct.*\[6, 7, 6\]"):
            validate_config({"predict": {"months": [6, 7, 6]}})


class TestOverrides:
    def test_values_parse_as_yaml_types(self):
        cfg = apply_overrides({}, ["stacking.v=10", "cv.region=north",
                                   "predict.months=[6, 7]", "gp.fixed.phi=0.5"])
        assert cfg["stacking"]["v"] == 10
        assert cfg["cv"]["region"] == "north"
        assert cfg["predict"]["months"] == [6, 7]
        assert cfg["gp"]["fixed"]["phi"] == 0.5

    @pytest.mark.parametrize("raw, value", [
        ("1e-3", 1e-3), ("2E5", 2e5), ("1.5e3", 1.5e3), ("-.5", -0.5), ("+.5e-1", 0.05)])
    def test_floats_parse_as_yaml_1_2(self, raw, value):
        cfg = apply_overrides({}, [f"gp.fixed.sigma_e2={raw}", "stacking.v=10", "cv.region=1e"])
        assert cfg["gp"]["fixed"]["sigma_e2"] == value
        assert isinstance(cfg["gp"]["fixed"]["sigma_e2"], float)
        assert cfg["stacking"]["v"] == 10 and cfg["cv"]["region"] == "1e"

    def test_nested_paths_created_on_demand(self):
        cfg = apply_overrides({}, ["a.b.c=1"])
        assert cfg == {"a": {"b": {"c": 1}}}

    def test_existing_values_replaced_in_order(self):
        cfg = apply_overrides({"cv": {"repeats": 5}},
                              ["cv.repeats=7", "cv.repeats=9"])
        assert cfg["cv"]["repeats"] == 9

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="key.path=value"):
            apply_overrides({}, ["just-a-key"])

    def test_empty_key_path(self):
        with pytest.raises(ConfigError, match="empty"):
            apply_overrides({}, ["=3"])

    def test_scalar_in_the_middle_of_the_path(self):
        with pytest.raises(ConfigError, match="not a mapping"):
            apply_overrides({"cv": {"repeats": 5}}, ["cv.repeats.deep=1"])


class TestLoadConfig:
    def test_load_override_validate(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"cv": {"repeats": 3}}))
        cfg = load_config(path, ["cv.repeats=8"])
        assert cfg["cv"]["repeats"] == 8

    def test_exponent_floats_in_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("gp:\n  fixed: {sigma_e2: 1e-3}\nstacking:\n  learners:\n"
                        "  - {kind: gbt, params: {learning_rate: 1e-2, n_rounds: 10}}\n")
        cfg = load_config(path)
        assert cfg["gp"]["fixed"]["sigma_e2"] == 1e-3
        assert cfg["stacking"]["learners"][0]["params"] == {"learning_rate": 1e-2, "n_rounds": 10}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.yaml")

    def test_unparsable_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("a: [unclosed")
        with pytest.raises(ConfigError, match="parse"):
            load_config(path)

    def test_empty_file_is_empty_config(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(path) == {}

    def test_override_can_invalidate(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"cv": {"repeats": 3}}))
        with pytest.raises(ConfigError, match="typo_key"):
            load_config(path, ["cv.typo_key=1"])


class TestRequire:
    def test_returns_single_and_multiple(self):
        cfg = {"data": {"surveys": "s.csv", "stack": "m.yaml"}}
        assert require(cfg, "data", "surveys") == "s.csv"
        assert require(cfg, "data", "surveys", "stack") == ["s.csv", "m.yaml"]

    def test_missing_section_named(self):
        with pytest.raises(ConfigError, match="'data'"):
            require({}, "data", "surveys")

    def test_missing_key_named(self):
        with pytest.raises(ConfigError, match="'stack'"):
            require({"data": {"surveys": "s.csv"}}, "data", "stack")


class TestWriteResolved:
    def test_writes_round_trippable_yaml(self, tmp_path):
        cfg = {"seed": 5, "stacking": {"design": 2, "learners": [
            {"kind": "enet", "params": {"lambda1": 0.1}}]}}
        path = write_resolved(cfg, tmp_path / "outputs")
        assert path.name == "resolved-config.yaml"
        assert yaml.safe_load(path.read_text()) == cfg

    def test_creates_directories(self, tmp_path):
        path = write_resolved({}, tmp_path / "a" / "b")
        assert path.exists()
