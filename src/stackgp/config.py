"""Run configuration: strict YAML schema plus dotted-path overrides.

A config is a plain mapping with per-command sections. Validation is strict
at every level it owns: unknown top-level keys and unknown keys inside any
known section are configuration errors, raised before any compute starts.
Keys whose values are domain objects (learner specs, scenario fields) are
re-validated by their own constructors, so a typo anywhere fails fast.

``--set a.b.c=value`` overrides parse the value as YAML, so ``v=10`` is an
int, ``months=[6,7]`` a list, and ``region=north`` a string. Every command
writes the fully resolved config next to its outputs as provenance.
"""

from __future__ import annotations

import re
from pathlib import Path

import yaml

from .errors import ConfigError

SECTION_KEYS = {
    "data": {"surveys", "stack"},
    "stacking": {"design", "level1", "v", "learners", "gp_variants"},
    "gp": {"restarts", "max_iter", "seed", "fixed"},
    "cv": {"repeats", "region", "methods"},
    "predict": {"model", "months"},
    "decompose": {"model"},
    "eval": {"predictions", "truth", "prediction_field", "truth_field"},
}
TOP_KEYS = {"output_dir", "seed", "synth"} | set(SECTION_KEYS)


class YamlLoader(yaml.SafeLoader):
    """SafeLoader with YAML 1.2 floats: ``1e-3`` is a float, where YAML 1.1 reads a string."""


YamlLoader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(r"""^[-+]?(?:
    (?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?
    |[0-9]+[eE][-+]?[0-9]+)$""", re.X), list("-+0123456789."))


def validate_config(config: dict) -> dict:
    """Reject unknown keys and malformed section shapes; returns the config."""
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
    if "synth" in config:
        if not isinstance(config["synth"], dict):
            raise ConfigError("section 'synth' must be a mapping")
        if "seed" in config["synth"]:
            raise ConfigError("section 'synth' must not set 'seed'; pass --seed instead")
    if "seed" in config:
        seed = config["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError(f"seed must be an unsigned integer, got {seed!r}")
    if "output_dir" in config and not isinstance(config["output_dir"], str):
        raise ConfigError("output_dir must be a string path")
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
