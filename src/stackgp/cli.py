"""Command-line pipelines: synth, fit, predict, cv, decompose, eval.

Every command takes ``--config`` (YAML, strictly validated when it loads,
before any input file is read), optional ``--set key.path=value`` overrides,
and ``--seed`` (mandatory for synth and cv, which are sampling commands).
``main`` resolves the seed, creates the output directory, runs the command's
pipeline and then writes a ``resolved-config.yaml`` provenance copy next to
its outputs. The predict, cv, decompose and eval tables print floats with 17
significant digits; synth's surveys, grid files and truth tables print them
with Python's shortest round-trip ``repr``. Both reload to the same doubles,
and identical configs and inputs give byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure, 1 anything unexpected. Failures print a single machine-parsable
line ``stackgp: error category=<category>: <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from .config import load_config, require, write_resolved
from .cwm import cwm_predict
from .dataset import assemble_design, build_prediction_grid, load_stack_manifest, load_surveys
from .errors import ConfigError, DataError, NumericalError, SchemaError, StackGpError
from .gp import fit_gp_linear_mean, gp_stacked_predict, plain_gp_predict, PlainGpModel
from .learners import LearnerSpec
from .metrics import ambiguity_decomposition, mae, mse, pearson_flagged
from .model_io import load_model, save_model
from .stacking import (StackState, check_stack, fit_stack, level2_mean_sd, make_folds,
                       repeat_cv_evaluate)
from .synth import ScenarioConfig, generate, write_scenario


def _fmt(x) -> str:
    """17-significant-digit decimal, the float format of the predict, cv, decompose
    and eval tables (synth writes its files with ``repr``)."""
    return format(float(x), ".17g")


def _resolve_seed(config: dict, args, required: bool) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be a non-negative integer")
        return args.seed
    if required:
        raise ConfigError(f"--seed is required for '{args.command}'")
    return config.get("seed", 0)


def _output_dir(config: dict, args) -> Path:
    out = args.output_dir or config.get("output_dir")
    if not out:
        raise ConfigError("set output_dir in the config or pass --output-dir")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_training(config: dict):
    surveys_path, stack_path = require(config, "data", "surveys", "stack")
    records = load_surveys(surveys_path)
    if not records:
        raise DataError(f"{surveys_path}: no survey records")
    X = assemble_design(records, load_stack_manifest(stack_path))
    y = np.array([r.y for r in records])
    points = np.array([[r.lon, r.lat, r.t] for r in records])
    return X, y, points


def _learner_specs(config: dict) -> list:
    entries = require(config, "stacking", "learners")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("stacking.learners must be a non-empty list of learner specs")
    specs = [LearnerSpec.from_dict(entry) for entry in entries]
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"learner names must be unique, got {names}")
    return specs


def _write_csv(path: Path, header: list, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_synth(config: dict, seed: int, outdir: Path) -> None:
    if "synth" not in config:
        raise ConfigError("command needs a 'synth' section in the config")
    scenario = ScenarioConfig.from_dict({**config["synth"], "seed": seed})
    files = write_scenario(generate(scenario), outdir)
    for label, path in files.items():
        print(f"{label}: {path}")


def cmd_fit(config: dict, seed: int, outdir: Path) -> None:
    stacking = config.get("stacking", {})
    design = stacking.get("design", 1)
    options = {"level1": stacking.get("level1"), "gp_variants": stacking.get("gp_variants"),
               "gp_options": config.get("gp", {})}
    # the design's keys and learner roster are checked before any data file is read
    specs = None if design == "plain-gp" else _learner_specs(config)
    check_stack(design, specs, **options)
    X, y, points = _load_training(config)
    if design == "plain-gp":
        model = fit_gp_linear_mean(y, X.values, points, **options["gp_options"])
    else:
        model = fit_stack(design, X, y, points, specs,
                          make_folds(len(y), stacking.get("v", 5), seed), **options)

    model_path = outdir / "model.json"
    save_model(model, model_path)
    print(f"model: {model_path}")


def _mean_sd(model, design, points) -> tuple:
    """Predictive mean and sd of a fitted stack or plain GP at the design rows.

    The CWM has no predictive distribution, so its sd is 0.
    """
    if isinstance(model, PlainGpModel):
        post = plain_gp_predict(model, design.values, points)
        return post.mu_star, post.sd
    P_pred = np.column_stack([m.predict(design) for m in model.level0])
    if model.level1_kind == "cwm":
        mean = cwm_predict(model.level1, P_pred)
        return mean, np.zeros_like(mean)
    if model.level1_kind == "gp":
        post = gp_stacked_predict(model.level1, P_pred, points)
        return post.mu_star, post.sd
    return level2_mean_sd(model.level1, P_pred, points)


def cmd_predict(config: dict, seed: int, outdir: Path) -> None:
    model_path, months = require(config, "predict", "model", "months")
    # only the covariate slices that the months, less the lags, read
    covariates = load_stack_manifest(require(config, "data", "stack"), months)
    geometry = covariates[0].geometry
    model = load_model(model_path)

    # one grid over all months, so that each GP is conditioned once per command
    grid = build_prediction_grid(geometry, months, covariates)
    try:
        mean, sd = _mean_sd(model, grid.design, grid.points)
    except (SchemaError, NumericalError) as exc:    # a model that fails on the covariate stack
        raise type(exc)(f"{model_path}: {exc}") from exc
    if not (np.isfinite(mean).all() and np.isfinite(sd).all()):
        raise NumericalError(f"{model_path}: a predicted mean or sd is not finite")
    # rows are formatted as they are written, so no list of every row is held
    rows = ([_fmt(lon), _fmt(lat), int(t), _fmt(m), _fmt(s)]
            for (lon, lat, t), m, s in zip(grid.points, mean, sd))

    out_path = outdir / "predictions.csv"
    _write_csv(out_path, ["lon", "lat", "t", "mean", "sd"], rows)
    print(f"predictions: {out_path} ({len(mean)} rows)")


def cmd_cv(config: dict, seed: int, outdir: Path) -> None:
    section, specs = config.get("stacking", {}), _learner_specs(config)
    # the stacking section as fit checks it, before any data file is read
    check_stack(section.get("design", 1), specs, section.get("level1"), section.get("gp_variants"))
    X, y, points = _load_training(config)
    # the cv keys (repeats, region, methods) are repeat_cv_evaluate's arguments
    result = repeat_cv_evaluate(X, y, points, specs, v=section.get("v", 5),
                                seed=seed, gp_options=config.get("gp", {}),
                                **config.get("cv", {}))

    metrics_path = outdir / "metrics.csv"
    _write_csv(metrics_path, ["method", "region", "repeat", "mse", "mae", "correlation"],
               [[r.method, r.region, r.repeat, _fmt(r.mse), _fmt(r.mae), _fmt(r.correlation)]
                for r in result.rows])
    summary_path = outdir / "summary.csv"
    _write_csv(summary_path,
               ["method", "region", "mse", "mae", "correlation", "n_degenerate_correlation"],
               [[s["method"], s["region"], _fmt(s["mse"]), _fmt(s["mae"]),
                 _fmt(s["correlation"]), s["n_degenerate_correlation"]]
                for s in result.summary])
    print(f"metrics: {metrics_path}")
    print(f"summary: {summary_path}")


def cmd_decompose(config: dict, seed: int, outdir: Path) -> None:
    model_path = require(config, "decompose", "model")
    surveys_path = require(config, "data", "surveys")
    model = load_model(model_path)
    if not isinstance(model, StackState) or model.level1_kind != "cwm":
        raise ConfigError("decompose needs a design-1 stack with a CWM level-1")
    records = load_surveys(surveys_path)
    y = np.array([r.y for r in records])
    if len(y) != model.H.shape[0]:
        raise DataError(f"model was fitted on {model.H.shape[0]} rows, "
                        f"surveys file has {len(y)}")
    report = ambiguity_decomposition(model.H, model.level1.beta, y)

    point_path = outdir / "decompose.csv"
    pw = report.pointwise
    _write_csv(point_path, ["row", "weighted_error", "ambiguity", "ensemble_error"],
               [[i, _fmt(pw["weighted_error"][i]), _fmt(pw["ambiguity"][i]),
                 _fmt(pw["ensemble_error"][i])] for i in range(len(y))])
    summary_path = outdir / "decompose-summary.csv"
    _write_csv(summary_path, ["weighted_error", "ambiguity", "ensemble_error", "residual"],
               [[_fmt(report.weighted_error), _fmt(report.ambiguity),
                 _fmt(report.ensemble_error), _fmt(report.residual)]])
    print(f"decomposition: {point_path}")
    print(f"summary: {summary_path}")


def _read_table(path) -> dict:
    """Read a CSV keyed by finite (lon, lat, t), one line per key, as
    key -> (line number, row); other columns stay strings."""
    path = Path(path)
    out = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fieldnames = reader.fieldnames or []
        for need in ("lon", "lat", "t"):
            if need not in fieldnames:
                raise DataError(f"{path}: missing required column '{need}'")
        for lineno, row in enumerate(reader, start=2):
            try:
                key = (float(row["lon"]), float(row["lat"]), int(row["t"]))
                if not (math.isfinite(key[0]) and math.isfinite(key[1])):
                    raise ValueError(f"(lon, lat) = {key[:2]} is not finite")
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: bad key fields: {exc}") from exc
            if key in out:
                raise DataError(f"{path}:{lineno}: duplicate key (lon, lat, t) = {key}, "
                                f"first seen on line {out[key][0]}")
            out[key] = lineno, row
    if not out:
        raise DataError(f"{path}: no data rows")
    return out


def cmd_eval(config: dict, seed: int, outdir: Path) -> None:
    pred_path, truth_path = require(config, "eval", "predictions", "truth")
    body = config["eval"]
    pred_field = body.get("prediction_field", "mean")
    truth_field = body.get("truth_field", "latent")

    pred = _read_table(pred_path)
    truth = _read_table(truth_path)
    keys = sorted(set(pred) & set(truth))
    if not keys:
        raise DataError("eval: the two tables share no (lon, lat, t) keys")
    missing = len(pred) - len(keys), len(truth) - len(keys)

    def column(table, field_name, path):
        vals = []
        for k in keys:
            lineno, row = table[k]
            text = row.get(field_name)
            if text is None:
                raise DataError(f"{path}: missing column '{field_name}'")
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: column '{field_name}' must be a finite "
                                f"number, got {text!r}")
            vals.append(value)
        return np.array(vals)

    yhat = column(pred, pred_field, pred_path)
    ytrue = column(truth, truth_field, truth_path)
    corr, degenerate = pearson_flagged(yhat, ytrue)
    summary_path = outdir / "eval-summary.csv"
    _write_csv(summary_path,
               ["n", "mse", "mae", "correlation", "degenerate_correlation",
                "unmatched_predictions", "unmatched_truth"],
               [[len(keys), _fmt(mse(yhat, ytrue)), _fmt(mae(yhat, ytrue)),
                 _fmt(corr), int(degenerate), missing[0], missing[1]]])
    print(f"eval: {summary_path} (n={len(keys)}, mse={_fmt(mse(yhat, ytrue))})")


# command -> (pipeline, whether --seed is mandatory, help text)
COMMANDS = {
    "synth": (cmd_synth, True, "generate a synthetic scenario with known truth"),
    "fit": (cmd_fit, False, "fit a stacked model (or the plain-GP baseline) and save it"),
    "predict": (cmd_predict, False, "predict a lattice from a saved model (mean and sd per cell)"),
    "cv": (cmd_cv, True, "repeated v-fold cross-validated comparison of all methods"),
    "decompose": (cmd_decompose, False, "ambiguity decomposition of a fitted CWM stack"),
    "eval": (cmd_eval, False, "score a prediction table against a truth table"),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", "-c", required=True, help="run config YAML")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY.PATH=VALUE", help="override a config value")
    common.add_argument("--seed", type=int, default=None,
                        help="random seed (mandatory for synth and cv)")
    common.add_argument("--output-dir", default=None,
                        help="override the config output_dir")
    parser = argparse.ArgumentParser(
        prog="stackgp",
        description="Stacked geostatistical prevalence modelling pipelines.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        run, seed_required, _ = COMMANDS[args.command]
        seed = _resolve_seed(config, args, seed_required)
        outdir = _output_dir(config, args)
        run(config, seed, outdir)
        write_resolved({**config, "seed": seed}, outdir)
        return 0
    except StackGpError as exc:
        print(f"stackgp: error category={exc.category}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # unreadable or missing input files are data problems, not crashes
        print(f"stackgp: error category=data: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - safety net
        print(f"stackgp: error category=internal: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
