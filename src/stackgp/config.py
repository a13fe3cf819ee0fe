"""Run configuration: strict YAML schema plus dotted-path overrides.

A config is a plain mapping with per-command sections. Validation is strict
at every level it owns: unknown top-level keys, unknown keys inside any known
section and every plain value that fails its check in KEYS are configuration
errors, raised when the config loads, before any input file is read. Keys
whose values are domain objects (learner specs, GP overrides, scenario
fields, manifest entries) are checked by the code that uses them. They share
the value predicates here, check_keys, the one check of a mapping's keys (it
names every unknown key as text), and check_values, the one check of values
against a table of rules ending in (check, description): it raises
``<where><key> must be <description>, got <value>`` as the caller's error class.

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
    return finite_real(v) and v > 0


def non_negative_real(v) -> bool:
    return finite_real(v) and v >= 0


def fraction(v) -> bool:
    return real(v) and 0 < v <= 1


def optional(check):
    return lambda v: v is None or check(v)


def text(v) -> bool:
    """A non-empty string."""
    return isinstance(v, str) and v != ""


def _cv_methods(v) -> bool:
    from .stacking import CV_METHODS   # deferred: stacking's imports load this module
    return isinstance(v, list) and v != [] and all(name in CV_METHODS for name in v)


# Every config key -> (check, description), or None for a key whose value
# the code that uses it checks (named in the comment): a domain object.
KEYS = {
    "output_dir": (text, "a path string"),
    "seed": (int_at_least(0), "a non-negative integer"),
    "synth": (lambda v: isinstance(v, dict), "a mapping of scenario fields"),
    "data.surveys": (text, "a path string"),
    "data.stack": (text, "a path string"),
    "stacking.design": (lambda v: v == "plain-gp" or (integer(v) and v in (1, 2, 3)),
                        "1, 2, 3 or 'plain-gp'"),
    "stacking.level1": (lambda v: v in ("cwm", "gp"), "'cwm' or 'gp'"),
    "stacking.v": (int_at_least(2), "an integer >= 2"),
    "stacking.learners": None,      # cli._learner_specs, LearnerSpec, stacking.check_stack
    "stacking.gp_variants": None,   # stacking.check_stack, gp.check_fixed
    "gp.restarts": (int_at_least(1), "a positive integer"),
    "gp.max_iter": (int_at_least(1), "a positive integer"),
    "gp.seed": (int_at_least(0), "a non-negative integer"),
    "gp.fixed": None,               # gp.check_fixed
    "cv.repeats": (int_at_least(1), "an integer >= 1"),
    "cv.region": (text, "a non-empty string"),
    "cv.methods": (_cv_methods, "a non-empty list of CV method names"),
    "predict.model": (text, "a path string"),
    "predict.months": (lambda v: isinstance(v, list) and v != [] and all(map(int_at_least(0), v))
                       and len(set(v)) == len(v),
                       "a non-empty list of distinct month indices"),
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


def check_keys(where: str, given, allowed) -> dict:
    """given, once it is a mapping with no key outside allowed; where names it in errors."""
    if not isinstance(given, dict):
        raise ConfigError(f"{where} must be a mapping, got {given!r}")
    unknown = sorted(map(str, given.keys() - set(allowed)))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}; "
                          f"valid keys are {sorted(map(str, allowed))}")
    return given


def check_values(where: str, given: dict, rules, error=ConfigError) -> dict:
    """given, once each value that rules names passes its rule's check; see the module doc."""
    for key, (*_, check, description) in rules.items():
        if key in given and not check(given[key]):
            raise error(f"{where}{key} must be {description}, got {given[key]!r}")
    return given


def validate_config(config: dict) -> dict:
    """Reject unknown keys, malformed sections and values failing KEYS; returns the config."""
    check_keys("config", config, TOP_KEYS)
    for section, allowed in SECTION_KEYS.items():
        if section in config:
            check_keys(f"section '{section}'", config[section], allowed)
    check_values("", {**config, **{f"{section}.{k}": v for section in SECTION_KEYS
                                   for k, v in config.get(section, {}).items()}},
                 {key: rule for key, rule in KEYS.items() if rule is not None})
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
