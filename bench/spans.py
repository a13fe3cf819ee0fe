"""Per-layer spans for the stackgp benchmark, recorded from outside the package.

The package binds names with ``from .gp import fit_hyperparams`` and the like,
which copies each function into every importing module. A wrapper therefore
has to replace the function at every place it is looked up, not only where it
is defined: ``install`` scans every loaded ``stackgp`` module and rebinds each
name that refers to a traced function. Nothing under ``src/`` changes.

A span records its layer, start, end, the span that was open when it started,
and a few counts read from the call's arguments or result. ``layer_metrics``
folds a list of spans into the per-layer metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

PENALTY = 1e30          # value stackgp.gp objectives return for a failed evaluation
LEARNER_KINDS = ("gbt", "rf", "enet", "gam", "mars")

ALL = ("level0-fit", "gp-cv", "lattice-predict")

# name -> (unit, better, end-to-end metric it should move, workloads where it
# should move it). On those workloads the traced run requires the metric to
# be non-zero, except for the HEALTH counters, whose healthy value is 0.
PER_LAYER = {
    "learners.fit_s.gbt": ("s", "lower", "wall_s", ("level0-fit",)),
    "learners.fit_s.rf": ("s", "lower", "wall_s", ("level0-fit",)),
    "learners.fit_s.enet": ("s", "lower", "wall_s", ("level0-fit", "gp-cv")),
    "learners.fit_s.gam": ("s", "lower", "wall_s", ("level0-fit", "gp-cv")),
    "learners.fit_s.mars": ("s", "lower", "wall_s", ("level0-fit", "gp-cv")),
    "learners.fit_calls": ("count", "lower", "wall_s", ("level0-fit", "gp-cv")),
    "learners.trees.grow_s": ("s", "lower", "wall_s", ("level0-fit",)),
    "learners.trees.grow_calls": ("count", "lower", "wall_s", ("level0-fit",)),
    "learners.predict_s": ("s", "lower", "wall_s", ("lattice-predict",)),
    "stacking.level0_s": ("s", "lower", "wall_s", ("level0-fit", "gp-cv")),
    "stacking.fold_oof_s": ("s", "lower", "wall_s", ("gp-cv",)),
    "stacking.fold_oof_calls": ("count", "lower", "wall_s", ("gp-cv",)),
    "cwm.fit_s": ("s", "lower", "wall_s", ("level0-fit", "gp-cv")),
    "cwm.iterations": ("count", "lower", "wall_s", ("level0-fit", "gp-cv")),
    "gp.hyperfit_s": ("s", "lower", "wall_s", ("gp-cv",)),
    "gp.objective_evals": ("count", "lower", "wall_s oof_mse", ("gp-cv",)),
    "gp.optimizer_iters": ("count", "lower", "wall_s oof_mse", ("gp-cv",)),
    "gp.optimizer_unconverged": ("count", "lower", "wall_s oof_mse", ("gp-cv",)),
    "gp.penalty_eval_ratio": ("ratio", "lower", "wall_s oof_mse", ("gp-cv",)),
    "gp.neg_lml": ("nats", "lower", "wall_s oof_mse", ("gp-cv",)),
    "gp.kernel_s": ("s", "lower", "wall_s", ("gp-cv", "lattice-predict")),
    "gp.kernel_calls": ("count", "lower", "wall_s", ("gp-cv", "lattice-predict")),
    "gp.kernel_entries": ("count", "lower", "wall_s", ("gp-cv", "lattice-predict")),
    "gp.lml_s": ("s", "lower", "wall_s", ("gp-cv",)),
    "gp.cov_block_s": ("s", "lower", "wall_s peak_rss_mb", ("lattice-predict",)),
    "gp.cov_block_entries": ("count", "lower", "wall_s peak_rss_mb", ("lattice-predict",)),
    "gp.condition_s": ("s", "lower", "wall_s", ("lattice-predict",)),
    "gp.condition_calls": ("count", "lower", "wall_s", ("lattice-predict",)),
    "gp.jitter_nonzero": ("count", "lower", "wall_s", ("lattice-predict",)),
    "gp.predict_s": ("s", "lower", "wall_s peak_rss_mb", ("lattice-predict",)),
    "gp.predict_calls": ("count", "lower", "wall_s peak_rss_mb", ("lattice-predict",)),
    "dataset.load_s": ("s", "lower", "wall_s", ALL),
    "dataset.grid_s": ("s", "lower", "wall_s", ("lattice-predict",)),
    "model_io.save_s": ("s", "lower", "wall_s", ("level0-fit",)),
    "model_io.load_s": ("s", "lower", "wall_s", ("lattice-predict",)),
    "model_io.model_bytes": ("B", "lower", "wall_s", ("level0-fit", "lattice-predict")),
    "cli.self_s": ("s", "lower", "wall_s", ("lattice-predict",)),
    # interpreter start, imports and exit: traced wall_s minus the command span
    "cli.startup_s": ("s", "lower", "wall_s", ALL),
    "synth.generate_s": ("s", "lower", "setup_s", ALL),
    "trace_overhead_s": ("s", "lower", "none: traced minus untraced wall_s", ()),
    # Accuracy guards, deterministic for a seed; 0 where the workload writes
    # no such output.
    "oof_mse": ("mse", "lower", "none: accuracy guard", ("level0-fit", "gp-cv")),
    "truth_mse": ("mse", "lower", "none: accuracy guard", ("lattice-predict",)),
}
HEALTH = {"gp.optimizer_unconverged", "gp.penalty_eval_ratio", "gp.jitter_nonzero"}

# Layers that must do no work in the timed command of a workload: the
# no-change controls.
MUST_BE_ZERO = {
    "level0-fit": ("gp.hyperfit_s", "gp.objective_evals", "gp.kernel_calls"),
    "gp-cv": ("learners.trees.grow_calls", "learners.trees.grow_s"),
    "lattice-predict": ("gp.hyperfit_s", "gp.objective_evals", "learners.fit_calls"),
}


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _minimize_attrs(res) -> dict:
    return {"nfev": int(res.nfev), "nit": int(res.nit), "success": bool(res.success),
            "fun": float(res.fun)}


# (module, attribute, layer, attrs(args, kwargs, result) -> dict or None)
TARGETS = (
    ("stackgp.learners.base", "fit_learner", "learners.fit",
     lambda a, k, r: {"kind": a[0].kind}),
    ("stackgp.learners.trees", "grow_tree", "learners.trees.grow", None),
    ("stackgp.stacking", "run_level0", "stacking.level0", None),
    ("stackgp.stacking", "fold_oof_gp", "stacking.fold_oof", None),
    ("stackgp.cwm", "fit_cwm", "cwm.fit",
     lambda a, k, r: {"iterations": int(r.meta.get("iterations", 0))}),
    ("stackgp.gp", "fit_hyperparams", "gp.hyperfit", None),
    ("stackgp.gp", "fit_gp_linear_mean", "gp.hyperfit", None),
    ("stackgp.gp", "minimize", "gp.optimizer", lambda a, k, r: _minimize_attrs(r)),
    ("stackgp.gp", "matern1_matrix", "gp.kernel", lambda a, k, r: {"entries": int(r.size)}),
    ("stackgp.gp", "log_marginal_likelihood", "gp.lml", None),
    ("stackgp.gp", "cov_block", "gp.cov_block", lambda a, k, r: {"entries": int(r.size)}),
    ("stackgp.gp", "gp_condition_dense", "gp.condition",
     lambda a, k, r: {"jitter": float(r.train.get("jitter", 0.0))}),
    ("stackgp.gp", "gp_stacked_predict", "gp.predict", None),
    ("stackgp.gp", "plain_gp_predict", "gp.predict", None),
    ("stackgp.dataset", "load_surveys", "dataset.load", None),
    ("stackgp.dataset", "load_stack_manifest", "dataset.load", None),
    ("stackgp.dataset", "assemble_design", "dataset.load", None),
    ("stackgp.dataset", "build_prediction_grid", "dataset.grid", None),
    ("stackgp.model_io", "save_model", "model_io.save",
     lambda a, k, r: {"bytes": _file_bytes(a[1])}),
    ("stackgp.model_io", "load_model", "model_io.load",
     lambda a, k, r: {"bytes": _file_bytes(a[0])}),
    ("stackgp.synth", "generate", "synth.generate", None),
    ("stackgp.cli", "main", "cli.command", None),
)


class Tracer:
    """Collects spans in memory as plain dicts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, fn, layer: str, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"layer": layer, "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            if layer == "gp.optimizer":
                args, counts = _count_evaluations(args)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            if layer == "gp.optimizer":
                span.update(counts)
            return result
        return traced


def _count_evaluations(args):
    """Wrap the objective passed to the optimizer to count its evaluations."""
    fun, rest = args[0], args[1:]
    counts = {"evals": 0, "penalty": 0}

    def counted(x, *more):
        value = fun(x, *more)
        counts["evals"] += 1
        counts["penalty"] += int(value >= PENALTY)
        return value
    return (counted, *rest), counts


def install(tracer: Tracer):
    """Rebind every traced function at each place stackgp looks it up.

    Returns a callable that restores the original bindings.
    """
    importlib.import_module("stackgp.cli")
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "stackgp" or name.startswith("stackgp.")]
    undo = []
    for module_name, attr, layer, attrs in TARGETS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = tracer.wrap(original, layer, attrs)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
                    undo.append((module, name, original))
    from stackgp.learners.base import LearnerModel
    predict = LearnerModel.predict
    LearnerModel.predict = tracer.wrap(predict, "learners.predict")
    undo.append((LearnerModel, "predict", predict))

    def restore():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
    return restore


def layer_metrics(spans: list[dict]) -> dict:
    """Fold spans of one command into the per-layer metrics.

    Start-up and trace overhead need the command's wall time and are left to
    the caller, which gets ``cli.command_s``, the command span, to do so.

    Busy seconds count a span only when no enclosing span has the same
    layer, so nested calls of one layer are not counted twice.
    """
    def duration(s):
        return s["end"] - s["start"]

    def outermost(i):
        layer, parent = spans[i]["layer"], spans[i]["parent"]
        while parent is not None:
            if spans[parent]["layer"] == layer:
                return False
            parent = spans[parent]["parent"]
        return True

    by_layer: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_layer.setdefault(s["layer"], []).append(i)

    def busy(layer):
        return sum(duration(spans[i]) for i in by_layer.get(layer, ()) if outermost(i))

    def picked(layer):
        return [spans[i] for i in by_layer.get(layer, ())]

    out = {}
    fits = picked("learners.fit")
    for kind in LEARNER_KINDS:
        out[f"learners.fit_s.{kind}"] = sum(duration(s) for s in fits if s.get("kind") == kind)
    out["learners.fit_calls"] = len(fits)
    out["learners.trees.grow_s"] = busy("learners.trees.grow")
    out["learners.trees.grow_calls"] = len(picked("learners.trees.grow"))
    out["learners.predict_s"] = busy("learners.predict")
    out["stacking.level0_s"] = busy("stacking.level0")
    out["stacking.fold_oof_s"] = busy("stacking.fold_oof")
    out["stacking.fold_oof_calls"] = len(picked("stacking.fold_oof"))
    out["cwm.fit_s"] = busy("cwm.fit")
    out["cwm.iterations"] = sum(s.get("iterations", 0) for s in picked("cwm.fit"))
    out["gp.hyperfit_s"] = busy("gp.hyperfit")
    runs = picked("gp.optimizer")
    evals = sum(s.get("evals", 0) for s in runs)
    out["gp.objective_evals"] = sum(s.get("nfev", 0) for s in runs)
    out["gp.optimizer_iters"] = sum(s.get("nit", 0) for s in runs)
    out["gp.optimizer_unconverged"] = sum(not s.get("success", True) for s in runs)
    out["gp.penalty_eval_ratio"] = sum(s.get("penalty", 0) for s in runs) / evals if evals else 0.0
    out["gp.neg_lml"] = sum(s.get("fun", 0.0) for s in runs)
    out["gp.kernel_s"] = busy("gp.kernel")
    out["gp.kernel_calls"] = len(picked("gp.kernel"))
    out["gp.kernel_entries"] = sum(s.get("entries", 0) for s in picked("gp.kernel"))
    out["gp.lml_s"] = busy("gp.lml")
    out["gp.cov_block_s"] = busy("gp.cov_block")
    out["gp.cov_block_entries"] = sum(s.get("entries", 0) for s in picked("gp.cov_block"))
    out["gp.condition_s"] = busy("gp.condition")
    out["gp.condition_calls"] = len(picked("gp.condition"))
    out["gp.jitter_nonzero"] = sum(s.get("jitter", 0.0) > 0 for s in picked("gp.condition"))
    out["gp.predict_s"] = busy("gp.predict")
    out["gp.predict_calls"] = len(picked("gp.predict"))
    out["dataset.load_s"] = busy("dataset.load")
    out["dataset.grid_s"] = busy("dataset.grid")
    out["model_io.save_s"] = busy("model_io.save")
    out["model_io.load_s"] = busy("model_io.load")
    out["model_io.model_bytes"] = sum(s.get("bytes", 0) for s in picked("model_io.save")
                                      + picked("model_io.load"))
    commands = set(by_layer.get("cli.command", ()))
    out["cli.command_s"] = sum(duration(spans[i]) for i in commands)
    out["cli.self_s"] = out["cli.command_s"] - sum(
        duration(s) for s in spans if s["parent"] in commands)
    out["synth.generate_s"] = busy("synth.generate")
    return out
