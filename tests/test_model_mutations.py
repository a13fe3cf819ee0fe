"""A damaged model file exits 0, 3 or 4 from `stackgp predict`, never 1, and never hangs.

Small models of every kind are fitted once. Each case changes one field of a
model.json (deletes it, or sets it to one of MUTATIONS) and runs predict in
process under a time cap. A seeded sample of every kind's (field, mutation)
cases keeps the run to seconds; the named cases below are the ones that once
crashed (exit 1) or predicted from a geometry that was never fitted (exit 0),
and must now exit 3 naming the file.

The command runs under Python's default warning filters, where a RuntimeWarning
(say, overflow from a coefficient of 1e308) is printed and the command goes
on. Predict runs here under the same filters, not the suite's
error::RuntimeWarning, so that each exit code is the one the command gives.
"""

import copy
import json
import random
import signal
import warnings
from contextlib import contextmanager

import pytest
import yaml

from stackgp.cli import main

DELETE = "<delete>"
MUTATIONS = (DELETE, None, "x", [], {}, -1, 1e308, True, 0.5)
CASES_PER_KIND = 45
CAP_S = 5

ENET = {"kind": "enet", "params": {"lambda1": 0.1, "lambda2": 0.1}}
KINDS = {
    "cwm": {"design": 1, "level1": "cwm", "v": 3, "learners": [
        {"kind": "gbt", "params": {"n_rounds": 4, "max_depth": 3, "min_samples_leaf": 3}},
        {"kind": "rf", "params": {"n_trees": 2, "max_depth": 3}}, ENET]},
    "gp": {"design": 1, "level1": "gp", "v": 3,
           "learners": [ENET, {"kind": "gam", "params": {"n_splines": 4}}]},
    "design2": {"design": 2, "v": 3,
                "learners": [ENET, {"kind": "mars", "params": {"max_terms": 5}}]},
    "design3": {"design": 3, "v": 3, "learners": [ENET], "gp_variants": [{}, {"phi": 0.0}]},
    "plain": {"design": "plain-gp"},
}


def write_yaml(path, payload):
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """kind -> (its model.json as a dict, a predict config reading <dir>/model.json)."""
    root = tmp_path_factory.mktemp("mutations")
    data = root / "data"
    assert main(["synth", "--seed", "7", "--config", str(write_yaml(root / "synth.yaml", {
        "synth": {"n_surveys": 40, "n_lon": 6, "n_lat": 6, "n_months": 8,
                  "m_covariates": 2, "noise_sd": 0.2},
        "output_dir": str(data)}))]) == 0
    inputs = {"surveys": str(data / "surveys.csv"), "stack": str(data / "stack.yaml")}
    out = {}
    for kind, stacking in KINDS.items():
        fit_dir = root / kind
        assert main(["fit", "--config", str(write_yaml(root / f"{kind}.yaml", {
            "data": inputs, "stacking": stacking, "gp": {"restarts": 1, "max_iter": 20},
            "output_dir": str(fit_dir)}))]) == 0
        doc = json.loads((fit_dir / "model.json").read_text(encoding="utf-8"))
        case_dir = root / f"{kind}-case"
        case_dir.mkdir()
        cfg = write_yaml(case_dir / "predict.yaml", {
            "data": {"stack": inputs["stack"]},
            "predict": {"model": str(case_dir / "model.json"), "months": [7]},
            "output_dir": str(case_dir)})
        out[kind] = doc, cfg
    return out


def field_paths(node, prefix=()):
    """Every dict key and the first and last element of every list, depth first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list) and node:
        items = [(i, node[i]) for i in sorted({0, len(node) - 1})]
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


class Hung(Exception):
    pass


@contextmanager
def time_cap(seconds):
    def hung(*_):
        raise Hung
    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def predict(cfg, doc, capsys):
    """(exit code or "hung", stderr, model path) of stackgp predict on doc (a dict, or the
    text of a file), written to the config's model path."""
    model = yaml.safe_load(cfg.read_text(encoding="utf-8"))["predict"]["model"]
    with open(model, "w", encoding="utf-8") as fh:
        fh.write(doc if isinstance(doc, str) else json.dumps(doc))
    capsys.readouterr()
    try:
        with time_cap(CAP_S), warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            code = main(["predict", "--config", str(cfg)])
    except Hung:
        code = "hung"
    return code, capsys.readouterr().err, model


@pytest.mark.parametrize("kind", KINDS)
def test_seeded_mutations_exit_0_3_or_4(fitted, capsys, kind):
    doc, cfg = fitted[kind]
    cases = [(path, value) for path in field_paths(doc) for value in MUTATIONS]
    bad = []
    for path, value in random.Random(f"{kind}-22").sample(cases, CASES_PER_KIND):
        code, err, _ = predict(cfg, mutated(doc, path, value), capsys)
        if code not in (0, 3, 4):
            bad.append((path, value, code, err.strip()))
    assert not bad, bad


def _split_off_the_zero_row(tree):
    """A split node that a row of zeros does not reach."""
    node, reached = 0, set()
    while tree["feature"][node] >= 0:
        reached.add(node)
        node = tree["left"][node] if 0.0 <= tree["threshold"][node] else tree["right"][node]
    return next(i for i, f in enumerate(tree["feature"]) if f >= 0 and i not in reached)


def _learner(doc, kind):
    return next(m for m in doc["level0"] if m["spec"]["kind"] == kind)


def _set_far_feature(doc, kind):
    tree = next(t for t in _learner(doc, kind)["state"]["trees"]
                if any(f >= 0 for f in t["feature"][1:]))
    tree["feature"][_split_off_the_zero_row(tree)] = 99


NAMED = {
    # were exit 1: NaN reached scipy's Cholesky, or a wrong type its attribute lookup
    "plain y null": ("plain", lambda d: d["y"].__setitem__(0, None), "y holds a non-finite"),
    "plain X_train null": ("plain", lambda d: d["X_train"][0].__setitem__(0, None),
                           "X_train holds a non-finite"),
    "plain coef null": ("plain", lambda d: d["mean_state"]["coef"].__setitem__(0, None),
                        "coef holds a non-finite"),
    "plain coef overflows the mean": (
        "plain", lambda d: d["mean_state"]["coef"].__setitem__(-1, 1e308),
        "mean_train holds a non-finite"),
    "plain mean_state list": ("plain", lambda d: d.__setitem__("mean_state", [1, 2]),
                              "mean_state must be a mapping"),
    "design-1 P_train null": ("gp", lambda d: d["level1"]["P_train"][0].__setitem__(0, None),
                              "P_train holds a non-finite"),
    "design-1 beta null": ("gp", lambda d: d["level1"]["params"]["beta"].__setitem__(0, None),
                           "beta must lie on the probability simplex"),
    "level-0 spec list": ("cwm", lambda d: d["level0"][0].__setitem__("spec", []),
                          "learner entry must be a mapping"),
    # split features past the column layout: exit 1 once predict reached them
    "gbt feature past its subset": ("cwm", lambda d: _set_far_feature(d, "gbt"),
                                    "gbt tree"),
    "rf feature past the layout": ("cwm", lambda d: _set_far_feature(d, "rf"),
                                   "learner 'rf': stored state does not predict"),
    # were exit 0: predicted under a reference latitude that was never fitted
    "plain ref_lat edited": ("plain", lambda d: d.__setitem__("ref_lat", d["ref_lat"] + 0.5),
                             "is not the training points' mean latitude"),
    "design-1 ref_lat edited": (
        "gp", lambda d: d["level1"].__setitem__("ref_lat", d["level1"]["ref_lat"] - 1.0),
        "is not the training points' mean latitude"),
    "design-2 member ref_lat edited": (
        "design2", lambda d: d["level1"]["members"][1].__setitem__("ref_lat", 0.0),
        "is not the training points' mean latitude"),
}


# damage that loads but does not fit the covariate stack: the error is raised while
# predicting and names the file ahead of its message
AT_PREDICT = {
    # exited 3 without naming the file
    "level-0 column renamed": ("cwm", lambda d: d["level0"][0]["columns"][0].__setitem__(0, "x"),
                               "column layout mismatch: missing ['x']"),
}


@pytest.mark.parametrize("case", [*NAMED, *AT_PREDICT])
def test_named_damage_exits_3_naming_the_file(fitted, capsys, case):
    kind, edit, message = NAMED[case] if case in NAMED else AT_PREDICT[case]
    doc, cfg = fitted[kind]
    doc = copy.deepcopy(doc)
    edit(doc)
    code, err, model = predict(cfg, doc, capsys)
    assert code == 3, err
    if case in NAMED:
        assert f"{model}: malformed model file" in err and message in err, err
    else:
        assert f"category=schema: {model}: {message}" in err, err


# numbers JSON can hold that no double can: json.loads reads them as nan or inf
NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e999")
SENTINEL = 0.123456789012345
NUMBER_AT = {
    # decompose summarised a nan or inf H, and predict exited 4 on a NaN beta
    "cwm H": ("cwm", lambda d: d["H"][0].__setitem__(0, SENTINEL)),
    "cwm beta": ("cwm", lambda d: d["level1"]["beta"].__setitem__(0, SENTINEL)),
    "design-1 y": ("gp", lambda d: d["level1"]["y"].__setitem__(0, SENTINEL)),
}


@pytest.mark.parametrize("token", NON_FINITE)
@pytest.mark.parametrize("case", NUMBER_AT)
def test_non_finite_number_exits_3_naming_the_file(fitted, capsys, case, token):
    kind, edit = NUMBER_AT[case]
    doc, cfg = fitted[kind]
    doc = copy.deepcopy(doc)
    edit(doc)
    text = json.dumps(doc)
    assert text.count(repr(SENTINEL)) == 1
    code, err, model = predict(cfg, text.replace(repr(SENTINEL), token), capsys)
    assert code == 3, err
    assert f"{model}: not valid JSON: model files hold only finite numbers, got {token}" in err
