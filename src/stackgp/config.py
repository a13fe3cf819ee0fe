"""Run configuration: strict YAML schema plus dotted-path overrides.

A config is a plain mapping with per-command sections. Validation is strict
at every level it owns: unknown top-level keys, unknown keys inside any known
section and every plain value that fails its check in KEYS are configuration
errors, raised when the config loads, before any input file is read. Keys
whose values are domain objects (learner specs, GP overrides, scenario
fields) or dispatch names are checked by the code that uses them. The value
predicates here are shared with the learner and scenario schemas.

``--set a.b.c=value`` overrides parse the value as YAML, so ``v=10`` is an
int, ``months=[6,7]`` a list, and ``region=north`` a string. Every command
writes the fully resolved config next to its outputs as provenance.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import yaml

from .errors import ConfigError


def integer(v) -> bool:
    """An int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def int_at_least(lo):
    """Predicate: an integer >= lo."""
    return lambda v: integer(v) and v >= lo


def real(v) -> bool:
    """An int or float that is not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def finite_real(v) -> bool:
    """A real that is neither infinite nor NaN."""
    if not real(v):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:   # an int too large for a float
        return False


def positive_real(v) -> bool:
    return real(v) and v > 0


def non_negative_real(v) -> bool:
    return real(v) and v >= 0


def fraction(v) -> bool:
    return real(v) and 0 < v <= 1


def optional(check):
    return lambda v: v is None or check(v)


def text(v) -> bool:
    """A non-empty string."""
    return isinstance(v, str) and v != ""


# Every config key -> (check, description), or None for a key whose value
# the code that uses it checks (named in the comment): a domain object or a
# dispatch name.
KEYS = {
    "output_dir": (text, "a path string"),
    "seed": (int_at_least(0), "a non-negative integer"),
    "synth": (lambda v: isinstance(v, dict), "a mapping of scenario fields"),
    "data.surveys": (text, "a path string"),
    "data.stack": (text, "a path string"),
    "stacking.design": None,        # cli.cmd_fit
    "stacking.level1": None,        # stacking.fit_design1
    "stacking.v": (int_at_least(2), "an integer >= 2"),
    "stacking.learners": None,      # cli._learner_specs, LearnerSpec, stacking.run_level0
    "stacking.gp_variants": None,   # stacking.fit_design3, gp.check_fixed
    "gp.restarts": (int_at_least(1), "a positive integer"),
    "gp.max_iter": (int_at_least(1), "a positive integer"),
    "gp.seed": (int_at_least(0), "a non-negative integer"),
    "gp.fixed": None,               # gp.check_fixed
    "cv.repeats": (int_at_least(1), "an integer >= 1"),
    "cv.region": (text, "a non-empty string"),
    "cv.methods": (lambda v: isinstance(v, list) and v != [] and all(map(text, v)),
                   "a non-empty list of method names"),   # names: stacking.repeat_cv_evaluate
    "predict.model": (text, "a path string"),
    "predict.months": (lambda v: isinstance(v, list) and v != [] and all(map(int_at_least(0), v)),
                       "a non-empty list of month indices"),
    "decompose.model": (text, "a path string"),
    "eval.predictions": (text, "a path string"),
    "eval.truth": (text, "a path string"),
    "eval.prediction_field": (text, "a column name"),
    "eval.truth_field": (text, "a column name"),
}
TOP_KEYS = {key.partition(".")[0] for key in KEYS}
_SECTIONED = [key.split(".") for key in KEYS if "." in key]
SECTION_KEYS = {section: {k for s, k in _SECTIONED if s == section} for section, _ in _SECTIONED}


class YamlLoader(yaml.SafeLoader):
    """SafeLoader with YAML 1.2 floats: ``1e-3`` is a float, where YAML 1.1 reads a string."""


YamlLoader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(r"""^[-+]?(?:
    (?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?
    |[0-9]+[eE][-+]?[0-9]+)$""", re.X), list("-+0123456789."))


def validate_config(config: dict) -> dict:
    """Reject unknown keys, malformed sections and values failing KEYS; returns the config."""
    if not isinstance(config, dict):
        raise ConfigError(f"config must be a mapping, got {type(config).__name__}")
    unknown = sorted(set(config) - TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown}; valid keys are {sorted(TOP_KEYS)}")
    for section, allowed in SECTION_KEYS.items():
        if section not in config:
            continue
        body = config[section]
        if not isinstance(body, dict):
            raise ConfigError(f"section '{section}' must be a mapping")
        bad = sorted(set(body) - allowed)
        if bad:
            raise ConfigError(f"section '{section}': unknown key(s) {bad}; "
                              f"valid keys are {sorted(allowed)}")
    for key, entry in KEYS.items():
        section, _, name = key.rpartition(".")
        body = config.get(section, {}) if section else config
        if entry is not None and name in body and not entry[0](body[name]):
            raise ConfigError(f"{key} must be {entry[1]}, got {body[name]!r}")
    if "seed" in config.get("synth", {}):
        raise ConfigError("section 'synth' must not set 'seed'; pass --seed instead")
    return config


def apply_overrides(config: dict, overrides) -> dict:
    """Apply ``path.to.key=value`` overrides in order; values parse as YAML."""
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override '{item}' must look like key.path=value")
        path, _, raw = item.partition("=")
        keys = [k for k in path.strip().split(".") if k]
        if not keys:
            raise ConfigError(f"override '{item}' has an empty key path")
        try:
            value = yaml.load(raw, Loader=YamlLoader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override '{item}': cannot parse value: {exc}") from exc
        node = config
        for k in keys[:-1]:
            nxt = node.get(k)
            if nxt is None:
                nxt = node[k] = {}
            if not isinstance(nxt, dict):
                raise ConfigError(f"override '{item}': '{k}' is not a mapping")
            node = nxt
        node[keys[-1]] = value
    return config


def load_config(path, overrides=None) -> dict:
    """Read, override, and validate a run config."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        config = yaml.load(path.read_text(encoding="utf-8"), Loader=YamlLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: cannot parse config: {exc}") from exc
    if config is None:
        config = {}
    config = apply_overrides(config, overrides)
    return validate_config(config)


def require(config: dict, section: str, *keys):
    """Fetch required nested values, naming exactly what is missing."""
    if section not in config:
        raise ConfigError(f"command needs a '{section}' section in the config")
    body = config[section]
    out = []
    for key in keys:
        if key not in body:
            raise ConfigError(f"section '{section}' is missing required key '{key}'")
        out.append(body[key])
    return out[0] if len(out) == 1 else out


def write_resolved(config: dict, output_dir) -> Path:
    """Persist the post-override config next to the run outputs."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / "resolved-config.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    return path
