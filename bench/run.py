"""stackgp benchmark: three workloads through the public CLI.

    python3 bench/run.py --workload level0-fit --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is run from ``src/``. Each CLI
command runs in its own child process (closed loop: one command, then the
next), with BLAS/OpenMP threads pinned to 1. The workload's inputs are made
by ``stackgp synth`` from ``--seed``; the program gets only those files.

With ``--trace 0`` the timed command is repeated for ``--seconds`` and the
end-to-end metrics are reported. With ``--trace 1`` the timed command runs
once untraced and once traced (see ``spans.py``) and the per-layer metrics
are reported. Every run checks the outputs: a non-zero exit, or two runs of
one seed whose data outputs differ in any byte, counts as a failure.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record with the
run environment is written to ``.bench_runs/results/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import yaml

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
COMMAND_TIMEOUT_S = 150
PROVENANCE = "resolved-config.yaml"   # embeds output_dir, so never compared
# A stacked out-of-fold MSE above this many times the variance of the survey
# response is a gross failure of the stack, not a modelling difference.
GROSS_MSE_RATIO = 10.0

# The c09 acceptance scenario (6 covariates, 10 hinge/smooth/interaction
# terms) at n = 200 surveys, and the c09 learner roster with gbt and rf cut
# to half their rounds and trees, so that one command takes seconds and a run
# holds several samples. At these sizes trees are about half of level0-fit,
# GP hyperparameter fitting about 60 % of gp-cv and cov_block about 80 % of
# lattice-predict, each well above interpreter start-up (12-15 %).
SCENARIO = {"n_surveys": 200, "m_covariates": 6, "n_hinge": 10, "n_smooth": 10,
            "n_interactions": 10, "n_tested_range": [100, 400]}
TREES = [
    {"kind": "gbt", "name": "gbt", "seed": 1,
     "params": {"n_rounds": 100, "learning_rate": 0.05, "max_depth": 3}},
    {"kind": "rf", "name": "rf", "seed": 2, "params": {"n_trees": 25, "max_depth": 12}},
]
SMOOTH = [
    {"kind": "enet", "name": "enet", "seed": 3, "params": {"lambda1": 0.1, "lambda2": 1.0}},
    {"kind": "gam", "name": "gam", "seed": 4, "params": {"n_splines": 10}},
    {"kind": "mars", "name": "mars", "seed": 5, "params": {"max_terms": 15, "max_knots": 15}},
]
CV_METHODS = ["cwm-stack", "gp-stack", "plain-gp"]
PREDICT_MONTHS = [16, 17]
LATTICE = 48


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def write_yaml(path: Path, payload: dict) -> Path:
    path.write_text(yaml.safe_dump(payload, sort_keys=False), encoding="utf-8")
    return path


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def data_files(root: Path) -> dict:
    """Relative path -> bytes of every output file under root but provenance."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != PROVENANCE}


class Runner:
    """Runs CLI commands in child processes and keeps the failure count."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.warnings: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.update({var: "1" for var in THREAD_VARS})

    def warn(self, why: str) -> None:
        """Report a known defect of the program without failing the run."""
        self.warnings.append(why)

    def rel(self, path: Path) -> str:
        return path.relative_to(self.workdir).as_posix()

    def fail(self, why: str) -> None:
        self.failed += 1
        self.notes.append(why)

    def cli(self, args: list, spans_path: Path | None = None) -> dict:
        """Run one stackgp command; returns its exit code, wall time and peak RSS."""
        if spans_path is None:
            cmd = [sys.executable, "-m", "stackgp.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH / "child.py"), str(spans_path), *args]
        log = self.workdir / "commands.log"
        with log.open("ab") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        if proc.returncode != 0:
            self.fail(f"'stackgp {' '.join(args)}' exited {proc.returncode}")
        # ru_maxrss is in KiB on Linux
        return {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}

    def require(self, args: list, spans_path: Path | None = None) -> dict:
        result = self.cli(args, spans_path)
        if result["code"] != 0:
            raise BenchError(self.notes[-1])
        return result

    def same_outputs(self, a: Path, b: Path, what: str) -> None:
        """Count a failure unless the data outputs under a and b are byte-identical."""
        fa, fb = data_files(a), data_files(b)
        if fa != fb:
            diff = sorted(k for k in set(fa) | set(fb) if fa.get(k) != fb.get(k))
            self.fail(f"{what}: outputs differ between {a.name} and {b.name}: {diff}")


class Workload:
    """One named workload: its inputs, its timed command and its output check.

    Set-up writes the synthesised data to ``<setup>/data`` (and any fitted
    model to ``<setup>/model``); paths in configs are relative to the
    runner's working directory, which is every command's cwd.
    """

    name = ""
    regime = ""
    base_seed = 0
    synth_extra: dict = {}
    # A run sets up this many datasets (distinct data seeds) and cycles the
    # timed command over them, so that data-dependent cost averages out.
    datasets = 3

    def data_seed(self, seed: int, k: int) -> int:
        """Seed of dataset k of a run; seed 0, dataset 0 is the c09 study's seed."""
        return self.base_seed + 100 * k + 1000 * seed

    def synth(self, s: Runner, out: Path, seed: int, spans_path=None) -> float:
        cfg = write_yaml(s.workdir / "synth.yaml", {
            "synth": {"regime": self.regime, **SCENARIO, **self.synth_extra}})
        return s.require(["synth", "--config", cfg.name, "--seed", str(seed),
                          "--output-dir", s.rel(out)], spans_path)["wall_s"]

    def setup(self, s: Runner, setup: Path, seed: int) -> float:
        """Write the inputs of data seed `seed` under setup; returns the seconds."""
        return self.synth(s, setup / "data", seed)

    def timed(self, s: Runner, setup: Path, out: Path, seed: int) -> list:
        """Arguments of the timed command, writing its outputs to out."""
        raise NotImplementedError

    def check_outputs(self, s: Runner, setup: Path, first: Path, last: Path) -> dict:
        """Check the outputs of two timed runs; returns the accuracy figures."""
        raise NotImplementedError

    def design_config(self, s: Runner, setup: Path, **sections) -> dict:
        data = s.rel(setup / "data")
        return {"data": {"surveys": f"{data}/surveys.csv", "stack": f"{data}/stack.yaml"},
                **sections}


class Level0Fit(Workload):
    name = "level0-fit"
    regime = "covariate-heavy"
    base_seed = 101

    def timed(self, s, setup, out, seed):
        cfg = write_yaml(s.workdir / "fit.yaml", self.design_config(
            s, setup, stacking={"design": 1, "level1": "cwm", "v": 5, "learners": TREES + SMOOTH}))
        return ["fit", "--config", cfg.name, "--seed", str(seed), "--output-dir", s.rel(out)]

    def check_outputs(self, s, setup, first, last):
        """oof_mse is decompose's ensemble_error of the saved CWM stack."""
        for out in (first, last):
            cfg = write_yaml(s.workdir / "decompose.yaml", self.design_config(
                s, setup, decompose={"model": f"{s.rel(out)}/model.json"}))
            if s.cli(["decompose", "--config", cfg.name,
                      "--output-dir", f"{s.rel(out)}/decompose"])["code"]:
                return {}
        s.same_outputs(first / "decompose", last / "decompose", "decompose")
        row = read_rows(first / "decompose" / "decompose-summary.csv")[0]
        ensemble_error, residual = float(row["ensemble_error"]), float(row["residual"])
        # recompute the out-of-fold MSE of H @ beta from the saved model
        model = json.loads((first / "model.json").read_text(encoding="utf-8"))
        beta = np.asarray(model["level1"]["beta"])
        y = survey_response(setup)
        oof = float(np.mean((np.asarray(model["H"]) @ beta - y) ** 2))
        if not (beta.min() >= 0 and abs(beta.sum() - 1) < 1e-9):
            s.fail(f"CWM weights off the simplex: {beta.tolist()}")
        if not math.isclose(oof, ensemble_error, rel_tol=1e-9) or residual > 1e-9:
            s.fail(f"decompose ensemble_error {ensemble_error} != recomputed {oof} "
                   f"or residual {residual} > 1e-9")
        return {"oof_mse": ensemble_error}


class GpCv(Workload):
    name = "gp-cv"
    regime = "covariance-heavy"
    base_seed = 102
    # the kernel's cost grows with n^2 and level-0's about with n, so the GP
    # hyperparameter fit outweighs level-0 here
    synth_extra = {"n_surveys": 250}

    def timed(self, s, setup, out, seed):
        cfg = write_yaml(s.workdir / "cv.yaml", self.design_config(
            s, setup, stacking={"v": 5, "learners": SMOOTH},
            gp={"restarts": 1, "max_iter": 150},
            cv={"repeats": 1, "region": self.regime, "methods": CV_METHODS}))
        return ["cv", "--config", cfg.name, "--seed", str(seed), "--output-dir", s.rel(out)]

    def check_outputs(self, s, setup, first, last):
        """oof_mse is the gp-stack row of summary.csv."""
        summary = {r["method"]: r for r in read_rows(first / "summary.csv")}
        per_repeat = {r["method"]: r for r in read_rows(first / "metrics.csv")}
        if sorted(summary) != sorted(CV_METHODS) or sorted(per_repeat) != sorted(CV_METHODS):
            s.fail(f"cv methods {sorted(summary)} / {sorted(per_repeat)} != {sorted(CV_METHODS)}")
            return {}
        for method in CV_METHODS:
            mse = float(summary[method]["mse"])
            if not (math.isfinite(mse) and mse > 0) or summary[method]["mse"] != per_repeat[method]["mse"]:
                s.fail(f"cv {method}: summary mse {summary[method]['mse']} is not the "
                       f"one repeat's {per_repeat[method]['mse']}")
        oof_mse = float(summary["gp-stack"]["mse"])
        var_y = float(np.var(survey_response(setup)))
        if not oof_mse <= GROSS_MSE_RATIO * var_y:
            # the GP stack blows up on some data seeds (see CHANGES.md); the
            # run stays correct so that the timings remain comparable
            s.warn(f"gp-stack oof_mse {oof_mse:.6g} > {GROSS_MSE_RATIO:g} x var(y) "
                   f"{var_y:.6g} on the first data seed")
        return {"oof_mse": oof_mse}


class LatticePredict(Workload):
    name = "lattice-predict"
    regime = "balanced"
    base_seed = 103
    synth_extra = {"n_lon": LATTICE, "n_lat": LATTICE}
    # the timed predict's cost is set by the lattice, not the data, and each
    # set-up (synth + fit) takes seconds
    datasets = 2

    def setup(self, s, setup, seed):
        wall = self.synth(s, setup / "data", seed)
        cfg = write_yaml(s.workdir / "fit.yaml", self.design_config(
            s, setup, stacking={"design": 2, "v": 3, "learners": SMOOTH},
            gp={"restarts": 1, "max_iter": 50}))
        return wall + s.require(["fit", "--config", cfg.name, "--seed", str(seed),
                                 "--output-dir", s.rel(setup / "model")])["wall_s"]

    def timed(self, s, setup, out, seed):
        cfg = write_yaml(s.workdir / "predict.yaml", self.design_config(
            s, setup, predict={"model": f"{s.rel(setup)}/model/model.json",
                               "months": PREDICT_MONTHS}))
        return ["predict", "--config", cfg.name, "--output-dir", s.rel(out)]

    def check_outputs(self, s, setup, first, last):
        """truth_mse is stackgp eval of predictions.csv against truth-grid.csv."""
        for out in (first, last):
            cfg = write_yaml(s.workdir / "eval.yaml", {
                "eval": {"predictions": f"{s.rel(out)}/predictions.csv",
                         "truth": f"{s.rel(setup)}/data/truth-grid.csv"}})
            if s.cli(["eval", "--config", cfg.name, "--output-dir", f"{s.rel(out)}/eval"])["code"]:
                return {}
        s.same_outputs(first / "eval", last / "eval", "eval")
        row = read_rows(first / "eval" / "eval-summary.csv")[0]
        cells = LATTICE * LATTICE * len(PREDICT_MONTHS)
        pred = read_rows(first / "predictions.csv")
        if len(pred) != cells or int(row["n"]) != cells or int(row["unmatched_predictions"]):
            s.fail(f"predict wrote {len(pred)} rows, eval matched {row['n']}; expected {cells}")
            return {}
        truth = {(float(r["lon"]), float(r["lat"]), int(r["t"])): float(r["latent"])
                 for r in read_rows(setup / "data" / "truth-grid.csv")}
        mean = np.array([float(r["mean"]) for r in pred])
        sd = np.array([float(r["sd"]) for r in pred])
        latent = np.array([truth[(float(r["lon"]), float(r["lat"]), int(r["t"]))] for r in pred])
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(sd)) and sd.min() >= 0):
            s.fail("predictions hold a non-finite mean or a negative or non-finite sd")
        truth_mse = float(row["mse"])
        recomputed = float(np.mean((mean - latent) ** 2))
        if not math.isclose(truth_mse, recomputed, rel_tol=1e-9):
            s.fail(f"eval mse {truth_mse} != recomputed {recomputed}")
        return {"truth_mse": truth_mse}


def survey_response(setup: Path) -> np.ndarray:
    from stackgp.dataset import load_surveys
    return np.array([r.y for r in load_surveys(setup / "data" / "surveys.csv")])


WORKLOADS = {w.name: w for w in (Level0Fit(), GpCv(), LatticePredict())}


def environment(s: Runner) -> dict:
    import scipy
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, **{var: s.env[var] for var in THREAD_VARS}}


def run_untraced(s: Runner, wl: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    seeds = [wl.data_seed(seed, k) for k in range(wl.datasets)]
    setup_dirs = [s.workdir / f"setup{k}" for k in range(wl.datasets)]
    setups = [wl.setup(s, d, data_seed) for d, data_seed in zip(setup_dirs, seeds)]
    # set dataset 0 up once more: one more set-up time, and its inputs must
    # come out byte for byte the same
    again = s.workdir / "setup0-again"
    setups.append(wl.setup(s, again, seeds[0]))
    s.same_outputs(setup_dirs[0], again, "set-up")
    shutil.rmtree(again)

    # closed loop over the datasets until the time is up and dataset 0 has
    # run twice; every repeat must reproduce its dataset's first outputs
    samples, first, last = [], {}, {}
    per_dataset = [[] for _ in seeds]
    deadline = time.perf_counter() + seconds
    while len(samples) <= wl.datasets or time.perf_counter() < deadline:
        k = len(samples) % wl.datasets
        out = s.workdir / f"out{len(samples)}"
        samples.append(s.cli(wl.timed(s, setup_dirs[k], out, seeds[k])))
        per_dataset[k].append(samples[-1]["wall_s"])
        if k not in first:
            first[k] = out
            continue
        s.same_outputs(first[k], out, wl.name)
        if k in last:
            shutil.rmtree(last[k])
        last[k] = out
    accuracy = wl.check_outputs(s, setup_dirs[0], first[0], last[0])

    # every dataset weighs the same, however many samples fitted in the time
    metrics = {
        "wall_s": (statistics.fmean(statistics.median(w) for w in per_dataset), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(x["rss_mb"] for x in samples), "MB"),
    }
    detail = {"data_seeds": seeds, "samples": samples, "setup_s": setups, "accuracy": accuracy}
    return metrics, detail


def run_traced(s: Runner, wl: Workload, seed: int) -> tuple[dict, dict]:
    seed = wl.data_seed(seed, 0)
    setup = s.workdir / "setup0"
    wl.setup(s, setup, seed)
    wl.synth(s, s.workdir / "synth-traced", seed, spans_path=s.workdir / "synth-spans.json")
    s.same_outputs(setup / "data", s.workdir / "synth-traced", "traced synth")
    plain, traced = s.workdir / "out-plain", s.workdir / "out-traced"
    untraced_run = s.cli(wl.timed(s, setup, plain, seed))
    traced_run = s.cli(wl.timed(s, setup, traced, seed), s.workdir / "spans.json")
    s.same_outputs(plain, traced, "traced vs untraced")
    accuracy = wl.check_outputs(s, setup, plain, traced)

    values = spans.layer_metrics(json.loads((s.workdir / "spans.json").read_text()))
    setup_values = spans.layer_metrics(json.loads((s.workdir / "synth-spans.json").read_text()))
    values["synth.generate_s"] = setup_values["synth.generate_s"]
    values["cli.startup_s"] = traced_run["wall_s"] - values.pop("cli.command_s")
    values["trace_overhead_s"] = traced_run["wall_s"] - untraced_run["wall_s"]
    values["oof_mse"] = accuracy.get("oof_mse", 0.0)
    values["truth_mse"] = accuracy.get("truth_mse", 0.0)

    for name, (_, _, _, moved_on) in spans.PER_LAYER.items():
        if wl.name in moved_on and name not in spans.HEALTH and not values[name]:
            s.fail(f"span check: {name} is 0 on {wl.name}, which it should move")
    for name in spans.MUST_BE_ZERO[wl.name]:
        if values[name]:
            s.fail(f"span check: {name} is {values[name]} on {wl.name}, expected 0")
    metrics = {name: (values[name], unit) for name, (unit, *_rest) in spans.PER_LAYER.items()}
    return metrics, {"data_seeds": [seed], "untraced": untraced_run, "traced": traced_run,
                     "accuracy": accuracy}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stackgp" / "cli.py").is_file():
        print(f"bench: no stackgp source at {SRC / 'stackgp'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    s = Runner(workdir)
    try:
        if args.trace:
            metrics, detail = run_traced(s, wl, args.seed)
        else:
            metrics, detail = run_untraced(s, wl, args.seed, args.seconds)
    except BenchError as exc:
        print(f"bench: {wl.name}: {exc}", file=sys.stderr)
        return 1
    finally:
        log = workdir / "commands.log"
        kept = log.read_text(encoding="utf-8", errors="replace") if log.exists() else ""
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(s)
    correct = s.failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    print(f"stackgp bench: workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} data_seeds={detail['data_seeds']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        moves = ""
        if name in spans.PER_LAYER:
            _, _, target, moved_on = spans.PER_LAYER[name]
            moves = f"  [moves {target} on {', '.join(moved_on) or '-'}]"
        print(f"{name} = {value:.6g} {unit}{moves}")
    if not args.trace:
        print(f"samples: {len(detail['samples'])} timed commands over "
              f"{len(detail['data_seeds'])} datasets; wall_s is the mean of the datasets' "
              f"medians, setup_s and peak_rss_mb are medians")
        for name, value in detail["accuracy"].items():
            print(f"{name} = {value:.6g} mse (dataset 0; per-layer metric on traced runs)")
    print(f"fail_ratio = {s.failed / s.attempted:.6g} ({s.failed} of {s.attempted} operations)")
    for note in s.notes:
        print(f"FAIL: {note}")
    for warning in s.warnings:
        print(f"WARN: {warning}")
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "detail": detail, "notes": s.notes,
              "warnings": s.warnings,
              "correct": correct, "attempted": s.attempted, "failed": s.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if s.notes:
        (results / f"{tag}.log").write_text(kept, encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": s.attempted, "failed": s.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
