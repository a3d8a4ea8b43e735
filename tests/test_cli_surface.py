"""The command-line surface, pinned.

Every deterministic subcommand's exit code, stdout, stderr and ``--csv``
table are compared byte for byte with ``cli_golden.json``. The
randomized subcommands are pinned by their result keys, their CSV
header and an identical rerun. Every tail, certificate, step and spec
kind goes through a parse -> to_doc -> parse round trip, and one
document per kind with a single bad entry pins the field and message
that refuse it.

To re-record the golden file after a deliberate output change:

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import csv
import json
import os

import pytest

from taylormeasure import analytic, cli, serialize
from taylormeasure.errors import InvalidDocument

from test_cli import run_cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")


def _seq(prefix, tail, cert):
    return {"coefficients": {"prefix": prefix, "tail": tail}, "certificate": cert}


def _measure(gamma, prefix, tail, cert, **extra):
    return json.dumps({"gamma": gamma, **_seq(prefix, tail, cert), **extra})


ZERO = {"kind": "zero"}
ONE = {"kind": "constant", "M": 1.0}
HALVES = {"kind": "geometric", "M": 1.0, "b": 0.5}
BOUNDED = {"kind": "bounded", "M": 1.0}
ENVELOPE = {"kind": "geometric_equiv", "M": 2.0, "b": 0.5, "start": 1}

ONES = _measure(1.0, [], ONE, BOUNDED)
SIGNED = _measure(1.0, [1.0, -2.0, 3.0], ZERO, {"kind": "finite_support"})
ALTERNATING = _measure(-2.0, [], ONE, BOUNDED)
GEOMETRIC = _measure(1.5, [0.25, -1.0], HALVES, ENVELOPE, label="halves")
SUPPORT = _measure(0.75, [2.0, 0.0, -1.0, 4.0], ZERO, {"kind": "finite_support", "last": 3})

ALL = '{"kind": "all"}'
FINITE = '{"kind": "finite", "elements": [0, 1, 2, 5, 200]}'
COFINITE = '{"kind": "cofinite", "elements": [0, 3]}'

POISSON = json.dumps({"zeta": 2.0, **_seq([], ONE, BOUNDED)})
GEOMETRIC_PMF = json.dumps({"zeta": 1.0, **_seq([1.0], HALVES, ENVELOPE)})

SEQ = _seq([1.0, 0.5], HALVES, {"kind": "geometric_equiv", "M": 1.0, "b": 0.5})
STEPS = {
    "normal": {"kind": "normal", "mu": 0.25, "sigma": 2.0},
    "uniform": {"kind": "uniform", "low": -1.0, "high": 2.0},
    "bernoulli": {"kind": "bernoulli", "p": 0.25, "up": 2.0, "down": -1.0},
}
SPECS = {
    "gaussian_iid": {"kind": "gaussian_iid", "mu": 1.0, "sigma": 0.5, "gamma": 1.0},
    "gaussian_indep": {"kind": "gaussian_indep", "mu": SEQ, "sigma": SEQ, "gamma": 0.5},
    "indicator_gamma": {"kind": "indicator_gamma", "p": 0.3, "mu": SEQ, "sigma": SEQ},
    "simple": {"kind": "simple", "values": [2.0, 5.0], "probs": [0.3, 0.7]},
    "random_walk": {"kind": "random_walk", "t": 10},
    "ar1": {"kind": "ar1", "phi": 0.5, "sigma2": 1.0, "t": 3},
    "brownian": {"kind": "brownian", "n": 16},
}
WALKS = {f"random_walk_{k}": {"kind": "random_walk", "t": 6, "step": step}
         for k, step in STEPS.items()}

EXP = '{"kind": "builtin", "name": "exp"}'
SIN = '{"kind": "builtin", "name": "sin", "center": 0.5}'
POLY = '{"kind": "polynomial", "coeffs": [1.0, 0.0, 3.0]}'
LINE = '{"kind": "polynomial", "coeffs": [1.0, 2.0], "center": 0.0}'


def _deterministic_cases():
    cases = {}
    for name, T in [("ones", ONES), ("signed", SIGNED), ("alternating", ALTERNATING),
                    ("geometric", GEOMETRIC), ("support", SUPPORT)]:
        for set_name, B in [("all", ALL), ("finite", FINITE), ("cofinite", COFINITE)]:
            for cmd in ("eval", "decompose", "tv", "norm"):
                cases[f"{cmd}/{name}/{set_name}"] = [cmd, T, "--set", B]
    for set_name, B in [("all", ALL), ("finite", FINITE), ("cofinite", COFINITE)]:
        for cmd in ("inner", "dist"):
            cases[f"{cmd}/ones_signed/{set_name}"] = [cmd, ONES, SIGNED, "--set", B]
            cases[f"{cmd}/geometric_alternating/{set_name}"] = [cmd, GEOMETRIC, ALTERNATING,
                                                               "--set", B]
    cases["eval/ones/eps"] = ["eval", ONES, "--eps", "1e-6"]
    cases["pmf/poisson"] = ["pmf", POISSON, "--upto", "3"]
    cases["pmf/geometric"] = ["pmf", GEOMETRIC_PMF]
    for name, spec in {**SPECS, **WALKS}.items():
        cases[f"stm-moments/{name}/all"] = ["stm-moments", json.dumps(spec)]
        cases[f"stm-moments/{name}/finite"] = ["stm-moments", json.dumps(spec), "--set", FINITE]
    cases["fn-eval/exp"] = ["fn-eval", EXP, "--x", "0.5"]
    cases["fn-eval/sin"] = ["fn-eval", SIN, "--x", "1.25", "--eps", "1e-9"]
    cases["fn-eval/poly"] = ["fn-eval", POLY, "--x", "-2"]
    cases["fn-mul/exp_line"] = ["fn-mul", EXP, LINE]
    cases["fn-mul/poly_line"] = ["fn-mul", POLY, LINE, "--x", "0.5", "--terms", "5"]
    cases["fn-recenter/poly"] = ["fn-recenter", POLY, "--center", "1.0"]
    cases["fn-recenter/exp"] = ["fn-recenter", EXP, "--center", "0.5", "--terms", "4"]
    cases["fn-supdist/exp"] = ["fn-supdist", EXP, "--oracle", "exp", "--grid", "11"]
    cases["fn-supdist/sin"] = ["fn-supdist", SIN, "--oracle", "sin", "--grid", "7",
                               "--K", "0.25", "0.75"]
    cases["fn-lpnorm/exp"] = ["fn-lpnorm", EXP, "--p", "2"]
    cases["fn-lpnorm/line"] = ["fn-lpnorm", LINE, "--p", "1", "--K", "-1", "1"]
    cases["axioms"] = ["axioms", "--seed", "3", "--count", "4"]
    cases["axioms/finite"] = ["axioms", "--seed", "5", "--count", "3", "--set", FINITE]
    return cases


DETERMINISTIC = _deterministic_cases()

RANDOMIZED = {
    "sample": (["sample", POISSON, "--L", "20", "--seed", "4"], ["index", "value"]),
    "mc-measure": (["mc-measure", POISSON, GEOMETRIC_PMF, "--set", FINITE, "--L1", "500",
                    "--L2", "500", "--seed", "4"], ["command", "value", "stderr"]),
    "mc-normalizer": (["mc-normalizer", POISSON, "--L", "500", "--seed", "4"],
                      ["command", "value", "stderr"]),
    "stm-sim": (["stm-sim", json.dumps(SPECS["gaussian_iid"]), "--L", "50", "--seed", "4"],
                ["command", "value", "stderr"]),
}
RANDOMIZED_KEYS = {
    "sample": ["command", "inputs", "samples", "seed", "value"],
    "mc-measure": ["command", "inputs", "n_samples", "seed", "stderr", "value"],
    "mc-normalizer": ["command", "inputs", "n_samples", "seed", "stderr", "value"],
    "stm-sim": ["command", "empirical_variance", "inputs", "seed", "stderr", "value"],
}


def _run(argv, tmp_dir):
    """Exit code, stdout, stderr and the --csv table's text (None when
    the run wrote none) of one CLI run."""
    path = os.path.join(tmp_dir, "out.csv")
    if os.path.exists(path):
        os.remove(path)
    code, out, err = run_cli(argv + ["--csv", path])
    table = None
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8", newline="") as fh:
            table = fh.read()
    return {"code": code, "stdout": out, "stderr": err, "csv": table}


def _golden():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(DETERMINISTIC))
def test_deterministic_output_is_pinned(case, tmp_path):
    assert _run(DETERMINISTIC[case], str(tmp_path)) == _golden()[case]


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(DETERMINISTIC)


def test_every_deterministic_subcommand_is_pinned():
    commands = {argv[0] for argv in DETERMINISTIC.values()}
    assert commands == {"eval", "decompose", "tv", "norm", "inner", "dist", "pmf",
                        "stm-moments", "fn-eval", "fn-mul", "fn-recenter",
                        "fn-supdist", "fn-lpnorm", "axioms"}


@pytest.mark.parametrize("command", sorted(RANDOMIZED))
def test_randomized_result_keys_csv_header_and_rerun(command, tmp_path):
    argv, header = RANDOMIZED[command]
    first = _run(argv, str(tmp_path))
    assert first["code"] == 0, first["stderr"]
    doc = json.loads(first["stdout"])
    assert sorted(doc) == RANDOMIZED_KEYS[command]
    assert doc["command"] == command
    assert doc["seed"] == 4
    assert next(csv.reader(first["csv"].splitlines())) == header
    assert _run(argv, str(tmp_path)) == first


# ---------------------------------------------------------------------------
# round trips


TAILS = [ZERO, ONE, HALVES]
CERTIFICATES = [
    {"kind": "finite_support", "last": 1},
    BOUNDED,
    ENVELOPE,
    {"kind": "unverified"},
]


@pytest.mark.parametrize("tail", TAILS, ids=lambda t: t["kind"])
def test_tail_round_trip(tail):
    cert = {"kind": "finite_support", "last": 1} if tail is ZERO else {"kind": "unverified"}
    seq = serialize.parse_sequence(_seq([1.0, 2.0], tail, cert), "seq")
    doc = serialize.tail_to_doc(seq.tail)
    assert doc == tail
    assert serialize.parse_sequence(_seq([1.0, 2.0], doc, cert), "seq") == seq


@pytest.mark.parametrize("cert", CERTIFICATES, ids=lambda c: c["kind"])
def test_certificate_round_trip(cert):
    tail = ZERO if cert["kind"] == "finite_support" else ONE
    seq = serialize.parse_sequence(_seq([1.0, 2.0], tail, cert), "seq")
    doc = serialize.certificate_to_doc(seq.certificate)
    assert doc == cert
    assert serialize.parse_sequence(_seq([1.0, 2.0], tail, doc), "seq") == seq


def test_defaults_are_written_out():
    seq = serialize.parse_sequence(
        _seq([1.0, 2.0], ZERO, {"kind": "finite_support"}), "seq")
    assert serialize.certificate_to_doc(seq.certificate) == {"kind": "finite_support",
                                                             "last": 1}
    seq = serialize.parse_sequence(
        _seq([], ONE, {"kind": "geometric_equiv", "M": 1.0, "b": 2.0}), "seq")
    assert serialize.certificate_to_doc(seq.certificate)["start"] == 0
    spec = serialize.parse_stm_spec({"kind": "random_walk", "t": 2})
    assert serialize.stm_spec_to_doc(spec)["step"] == {"kind": "normal", "mu": 0.0,
                                                       "sigma": 1.0}
    spec = serialize.parse_stm_spec({"kind": "brownian", "n": 4})
    assert serialize.stm_spec_to_doc(spec) == {"kind": "brownian", "n": 4, "mu": 0.0,
                                               "sigma": 1.0}


def test_oracle_choices_are_the_builtins():
    """--oracle offers exactly the builtins a function document can name."""
    assert cli._ORACLES.keys() == analytic._BUILTINS.keys()
    for name in analytic._BUILTINS:
        rep = serialize.parse_function({"kind": "builtin", "name": name, "center": 0.25})
        assert rep.center == 0.25


@pytest.mark.parametrize("kind", sorted(STEPS))
def test_step_round_trip(kind):
    step = serialize._parse_step(STEPS[kind], "step")
    doc = serialize.step_to_doc(step)
    assert doc == STEPS[kind]
    assert serialize._parse_step(doc, "step") == step


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_spec_round_trip(kind):
    spec = serialize.parse_stm_spec(SPECS[kind])
    doc = serialize.stm_spec_to_doc(spec)
    assert serialize.parse_stm_spec(doc) == spec
    assert serialize.stm_spec_to_doc(serialize.parse_stm_spec(doc)) == doc


@pytest.mark.parametrize("name", sorted({**SPECS, **WALKS}))
@pytest.mark.parametrize("command", ["stm-moments", "stm-sim"])
def test_spec_echo_round_trips_through_the_cli(command, name):
    spec = {**SPECS, **WALKS}[name]
    argv = [command, json.dumps(spec), "--set", FINITE]
    if command == "stm-sim":
        argv += ["--L", "5", "--seed", "2"]
    code, out, err = run_cli(argv)
    if name == "brownian" and command == "stm-moments":
        assert (code, err.split(":")[:2]) == (3, ["error", " UnsupportedSpec"])
        return
    assert code == 0, err
    echo = json.loads(out)["inputs"]["spec"]
    assert echo == serialize.stm_spec_to_doc(serialize.parse_stm_spec(spec))
    assert serialize.stm_spec_to_doc(serialize.parse_stm_spec(echo)) == echo


# ---------------------------------------------------------------------------
# one bad entry per kind


def _in_measure(tail=ONE, cert=BOUNDED):
    return lambda: serialize.parse_measure(json.loads(_measure(1.0, [], tail, cert)))


def _in_spec(doc):
    return lambda: serialize.parse_stm_spec(doc)


TAIL = "measure.coefficients.tail"
CERT = "measure.certificate"
INVALID = {
    "tail/zero": (_in_measure({"kind": "zero", "M": 1.0}, {"kind": "finite_support"}),
                  f"{TAIL}.M", "unknown entry"),
    "tail/constant": (_in_measure({"kind": "constant"}), f"{TAIL}.M",
                      "missing required entry"),
    "tail/geometric": (_in_measure({"kind": "geometric", "M": 1.0, "b": "x"}), f"{TAIL}.b",
                       "expected a number"),
    "tail/unknown": (_in_measure({"kind": "wat"}), f"{TAIL}.kind", "unknown tail kind 'wat'"),
    "tail/kind": (_in_measure({"kind": 3}), f"{TAIL}.kind", "expected a string"),
    "tail/object": (_in_measure([]), TAIL, "expected a JSON object"),
    "certificate/finite_support": (_in_measure(ZERO, {"kind": "finite_support", "last": -2}),
                                   f"{CERT}.last", "must be >= -1"),
    "certificate/finite_support_tail": (_in_measure(ONE, {"kind": "finite_support"}),
                                        f"{CERT}.kind", "finite_support requires a zero tail"),
    "certificate/finite_support_last": (
        _in_measure(ZERO, {"kind": "finite_support", "last": 1.0}),
        f"{CERT}.last", "expected an integer"),
    "certificate/bounded": (_in_measure(ONE, {"kind": "bounded", "M": -1.0}), f"{CERT}.M",
                            "must be >= 0"),
    "certificate/bounded_missing": (_in_measure(ONE, {"kind": "bounded"}), f"{CERT}.M",
                                    "missing required entry"),
    "certificate/geometric_equiv": (
        _in_measure(ONE, {"kind": "geometric_equiv", "M": 1.0, "b": -0.5}),
        f"{CERT}.b", "must be >= 0"),
    "certificate/geometric_equiv_start": (
        _in_measure(ONE, {"kind": "geometric_equiv", "M": 1.0, "b": 0.5, "start": -1}),
        f"{CERT}.start", "must be >= 0"),
    "certificate/geometric_equiv_int": (
        _in_measure(ONE, {"kind": "geometric_equiv", "M": 1.0, "b": 0.5, "start": 0.5}),
        f"{CERT}.start", "expected an integer"),
    "certificate/unverified": (_in_measure(ONE, {"kind": "unverified", "M": 1.0}),
                               f"{CERT}.M", "unknown entry"),
    "certificate/unknown": (_in_measure(ONE, {"kind": "sure"}), f"{CERT}.kind",
                            "unknown certificate kind 'sure'"),
    # a JSON integer beyond the float range, as json.loads reads it
    "number/beyond_float": (
        lambda: serialize.parse_measure(json.loads(_measure(1.0, [], ONE, BOUNDED).replace(
            '"gamma": 1.0', '"gamma": 1' + "0" * 400))),
        "measure.gamma", "must be finite"),
    "sequence/unknown": (
        _in_spec({**SPECS["indicator_gamma"], "mu": {**_seq([], ONE, BOUNDED), "x": 1}}),
        "spec.mu.x", "unknown entry"),
    "step/normal": (_in_spec({"kind": "random_walk", "t": 3,
                              "step": {"kind": "normal", "sigma": -1.0}}),
                    "spec.step", "step sigma must be >= 0"),
    "step/uniform": (_in_spec({"kind": "random_walk", "t": 3,
                               "step": {"kind": "uniform", "low": 1.0}}),
                     "spec.step", "need low < high"),
    "step/bernoulli": (_in_spec({"kind": "random_walk", "t": 3,
                                 "step": {"kind": "bernoulli", "up": "x"}}),
                       "spec.step.up", "expected a number"),
    "step/unknown": (_in_spec({"kind": "random_walk", "t": 3, "step": {"kind": "cauchy"}}),
                     "spec.step.kind", "unknown step kind 'cauchy'"),
    "spec/gaussian_iid": (_in_spec({"kind": "gaussian_iid", "mu": 1.0, "sigma": 1.0}),
                          "spec.gamma", "missing required entry"),
    "spec/gaussian_indep": (
        _in_spec({**SPECS["gaussian_indep"], "sigma": _seq(["x"], ZERO, BOUNDED)}),
        "spec.sigma.coefficients.prefix[0]", "expected a number"),
    "spec/indicator_gamma": (_in_spec({**SPECS["indicator_gamma"], "p": 1.5}), "spec",
                             "p_a must lie in [0, 1]"),
    "spec/simple": (_in_spec({"kind": "simple", "values": [1.0, 2.0], "probs": [0.5, 0.6]}),
                    "spec", "probs must sum to 1 within 1e-12"),
    "spec/simple_list": (_in_spec({"kind": "simple", "values": 1.0, "probs": [1.0]}),
                         "spec.values", "expected a list of numbers"),
    "spec/random_walk": (_in_spec({"kind": "random_walk", "t": 1.5}), "spec.t",
                         "expected an integer"),
    "spec/ar1": (_in_spec({"kind": "ar1", "phi": 0.5, "sigma2": 0.0, "t": 3}), "spec",
                 "sigma2 must be > 0"),
    "spec/brownian": (_in_spec({"kind": "brownian", "n": 16, "drift": 1.0}), "spec.drift",
                      "unknown entry"),
    "spec/unknown": (_in_spec({"kind": "levy"}), "spec.kind", "unknown spec kind 'levy'"),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_one_bad_entry_is_named(case):
    parse, field, message = INVALID[case]
    with pytest.raises(InvalidDocument) as info:
        parse()
    assert info.value.field == field
    assert str(info.value) == f"{field}: {message}"


def _record():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {case: _run(argv, tmp) for case, argv in sorted(DETERMINISTIC.items())}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _record()
