"""Command-line interface.

One subcommand per library operation: measure evaluation and Jordan
decomposition, total variation, inner-product geometry, power-series
pmfs with exact and Monte Carlo summaries, stochastic-measure moments
and simulation, and analytic-function arithmetic.

Inputs are JSON documents (see serialize for the schemas) given as a
file path, ``-`` for stdin, or an inline JSON string. Every run writes
a single JSON result document to stdout containing the value, its
abs_error or stderr, a normalized echo of the inputs, and the seed;
``--csv PATH`` additionally writes a small RFC-4180 table. A handler
returns only what its command computed: main adds the envelope
("command" and "seed") to every result, and writes the scalar table
(command, value, and abs_error or stderr when there is one) for every
handler that returns no table of its own. Exit codes:
0 on success, 2 on input errors (the diagnostic names the offending
field), 3 on numerical errors such as a divergence that no certificate
resolves or an evaluation outside a function's domain.

Randomized subcommands (sample, mc-measure, mc-normalizer, stm-sim,
axioms) require an explicit ``--seed``; there is no wall-clock seeding.
Re-running any command with the same inputs and seed reproduces the
output bit for bit. ``--threads`` is accepted for compatibility and has
no effect.

A handler loads the modules it runs when it runs: every subcommand loads
errors, kernel, measure and serialize; inner, norm, dist and axioms load
geometry too, pmf and sample probability, and fn-* analytic. Only sample,
mc-* and stm-* load the numpy-backed montecarlo and stochastic modules,
so the deterministic subcommands run without loading numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import import_module
from typing import Any

from . import serialize
from .errors import (
    CenterMismatch,
    InvalidDocument,
    InvalidPmf,
    TaylorMeasureError,
    UnsupportedSpec,
)
from .kernel import _Terms, finite_sequence
from .measure import MeasureValue, NatSet, TaylorMeasure, _set_sum

_ORACLES = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "geometric": lambda x: math.inf if x == 1.0 else 1.0 / (1.0 - x),
}


def _load_doc(arg: str, field: str) -> Any:
    """Read a JSON document from a file path, stdin (-), or inline text."""
    if arg == "-":
        text = sys.stdin.read()
    elif arg.lstrip().startswith("{"):
        text = arg
    else:
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InvalidDocument(field, f"cannot read {arg!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidDocument(field, f"invalid JSON: {exc}") from exc


def _load_set(args: argparse.Namespace) -> NatSet:
    return serialize.parse_set(_load_doc(args.set, "set"), "set")


def _measure_arg(p: argparse.ArgumentParser, name: str) -> None:
    p.add_argument(name, help="measure document (path, '-', or inline JSON)")


def _set_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--set",
        default='{"kind": "all"}',
        help="set document (path, '-', or inline JSON); default: all of N",
    )


def _eps_opt(p: argparse.ArgumentParser, default: float = 1e-12) -> None:
    p.add_argument("--eps", type=_finite, default=default,
                   help=f"error budget (default {default})")


def _seed_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, required=True,
                   help="RNG seed (required; no wall-clock seeding)")


def _threads_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")


def _csv_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument("--csv", metavar="PATH", default=None,
                   help="also write an RFC-4180 table to PATH")


def _terms_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument("--terms", type=_count, default=8,
                   help="coefficients to report (default 8)")


def _finite(text: str) -> float:
    """A finite float; nan and +-inf are refused as argparse refuses text
    that is not a float."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return x


def _count(text: str) -> int:
    """An int >= 0; anything else is refused as argparse refuses an int."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


# ---------------------------------------------------------------------------
# measure commands
#
# A handler returns its result without "command" and "seed", which main
# adds, or (result, header, rows) when its CSV table is not main's scalar
# table.


def _measure_cmd(module, fn, *names):
    """The handler of module.fn(*measures, set, eps), reading one measure
    document from each of the arguments names. The module loads when the
    handler runs."""

    def handler(args):
        measures = [serialize.parse_measure(_load_doc(getattr(args, name), name), name)
                    for name in names]
        B = _load_set(args)
        mv = getattr(import_module(f".{module}", __package__), fn)(*measures, B, args.eps)
        inputs = {name: serialize.measure_to_doc(T) for name, T in zip(names, measures)}
        return {"value": mv.value, "abs_error": mv.abs_error,
                "inputs": {**inputs, "set": serialize.set_to_doc(B), "eps": args.eps}}

    return handler


def _cmd_decompose(args):
    T = serialize.parse_measure(_load_doc(args.measure, "measure"))
    B = _load_set(args)
    # one pass gives both parts; value and abs_error are evaluate's
    s, tail = _set_sum(_Terms(T.coefficients, T.gamma), B, args.eps)
    mv = MeasureValue(*s.part("signed", tail))
    pos, neg, tv = (s.part(name, tail)[0] for name in ("pos", "neg", "variation"))
    result = {
        "value": mv.value,
        "abs_error": mv.abs_error,
        "pos_mass": pos,
        "neg_mass": neg,
        "total_variation": tv,
        "inputs": {"measure": serialize.measure_to_doc(T),
                   "set": serialize.set_to_doc(B), "eps": args.eps},
    }
    rows = [["positive", pos], ["negative", neg],
            ["signed_total", mv.value], ["total_variation", tv]]
    return result, ["part", "value"], rows


# ---------------------------------------------------------------------------
# pmf commands


def _cmd_pmf(args):
    from .probability import PowerSeriesPmf, normalizer, pmf_eval

    zeta, b = serialize.parse_pmf_inputs(_load_doc(args.pmf, "pmf"))
    p = PowerSeriesPmf(zeta, b, args.eps)
    series = normalizer(zeta, b, args.eps)
    masses = [pmf_eval(p, n) for n in range(args.upto + 1)]
    result = {
        "value": series.value,
        "abs_error": series.abs_error,
        "masses": masses,
        "inputs": {"pmf": serialize.pmf_to_doc(zeta, b), "upto": args.upto,
                   "eps": args.eps},
    }
    return result, ["n", "mass"], [[n, m] for n, m in enumerate(masses)]


def _cmd_sample(args):
    from .montecarlo import RngSpec, sample_pmf
    from .probability import PowerSeriesPmf

    zeta, b = serialize.parse_pmf_inputs(_load_doc(args.pmf, "pmf"))
    p = PowerSeriesPmf(zeta, b, args.eps)
    draws = sample_pmf(p, RngSpec(args.seed), args.L, args.method)
    mean = sum(draws) / len(draws)
    result = {
        "value": mean,
        "samples": draws,
        "inputs": {"pmf": serialize.pmf_to_doc(zeta, b), "L": args.L,
                   "method": args.method, "eps": args.eps},
    }
    return result, ["index", "value"], [[i, v] for i, v in enumerate(draws)]


def _cmd_mc_measure(args):
    from .montecarlo import RngSpec, estimate_measure

    z1, b1 = serialize.parse_pmf_inputs(_load_doc(args.positive, "positive"),
                                        "positive")
    z2, b2 = serialize.parse_pmf_inputs(_load_doc(args.negative, "negative"),
                                        "negative")
    B = _load_set(args)
    est = estimate_measure(
        z1, b1, z2, b2, B, args.L1, args.L2, RngSpec(args.seed),
        eps=args.eps, estimate_normalizers=args.estimate_normalizers,
    )
    return {
        "value": est.point,
        "stderr": est.stderr,
        "n_samples": est.n_samples,
        "inputs": {"positive": serialize.pmf_to_doc(z1, b1),
                   "negative": serialize.pmf_to_doc(z2, b2),
                   "set": serialize.set_to_doc(B),
                   "L1": args.L1, "L2": args.L2,
                   "estimate_normalizers": args.estimate_normalizers,
                   "eps": args.eps},
    }


def _cmd_mc_normalizer(args):
    from .montecarlo import RngSpec, estimate_normalizer_poisson

    zeta, b = serialize.parse_pmf_inputs(_load_doc(args.pmf, "pmf"))
    est = estimate_normalizer_poisson(zeta, b, args.L, RngSpec(args.seed))
    return {
        "value": est.point,
        "stderr": est.stderr,
        "n_samples": est.n_samples,
        "inputs": {"pmf": serialize.pmf_to_doc(zeta, b), "L": args.L},
    }


# ---------------------------------------------------------------------------
# stochastic commands


def _cmd_stm_moments(args):
    from .stochastic import stm_moments

    spec = serialize.parse_stm_spec(_load_doc(args.spec, "spec"))
    B = _load_set(args)
    mean, var = stm_moments(spec, B, args.eps)
    result = {
        "value": mean,
        "variance": var,
        "inputs": {"spec": serialize.stm_spec_to_doc(spec),
                   "set": serialize.set_to_doc(B), "eps": args.eps},
    }
    return result, ["moment", "value"], [["mean", mean], ["variance", var]]


def _cmd_stm_sim(args):
    from .montecarlo import RngSpec
    from .stochastic import gaussian_truncation_plan, sample_stm_batch

    spec = serialize.parse_stm_spec(_load_doc(args.spec, "spec"))
    B = _load_set(args)
    plan = None
    if not B.is_finite:
        try:
            plan = gaussian_truncation_plan(spec, args.eps)
        except UnsupportedSpec:
            plan = None
    batch = sample_stm_batch(spec, B, plan, RngSpec(args.seed), args.L)
    mean = float(batch.mean())
    if args.L > 1:
        var = float(batch.var(ddof=1))
        stderr = math.sqrt(var / args.L)
    else:
        var = 0.0
        stderr = 0.0
    return {
        "value": mean,
        "stderr": stderr,
        "empirical_variance": var,
        "inputs": {"spec": serialize.stm_spec_to_doc(spec),
                   "set": serialize.set_to_doc(B), "L": args.L,
                   "eps": args.eps},
    }


# ---------------------------------------------------------------------------
# analytic-function commands


def _parse_fn(arg: str, field: str):
    raw = _load_doc(arg, field)
    rep = serialize.parse_function(raw, field)
    return rep, serialize.function_to_doc(raw, field)


def _cmd_fn_eval(args):
    from .analytic import eval_rep

    rep, echo = _parse_fn(args.function, "function")
    mv = eval_rep(rep, args.x, args.eps)
    return {
        "value": mv.value,
        "abs_error": mv.abs_error,
        "inputs": {"function": echo, "x": args.x, "eps": args.eps},
    }


def _cmd_fn_mul(args):
    from .analytic import eval_rep, multiply

    rep1, echo1 = _parse_fn(args.function1, "function1")
    rep2, echo2 = _parse_fn(args.function2, "function2")
    product = multiply(rep1, rep2)
    x = product.center if args.x is None else args.x
    mv = eval_rep(product, x, args.eps)
    coeffs = [product.coefficients.a(n) for n in range(args.terms)]
    result = {
        "value": mv.value,
        "abs_error": mv.abs_error,
        "center": product.center,
        "coefficients": coeffs,
        "inputs": {"function1": echo1, "function2": echo2, "x": args.x,
                   "terms": args.terms, "eps": args.eps},
    }
    return result, ["n", "coefficient"], [[n, c] for n, c in enumerate(coeffs)]


def _cmd_fn_recenter(args):
    from .analytic import recenter

    rep, echo = _parse_fn(args.function, "function")
    moved = recenter(rep, args.center, args.eps)
    coeffs = [moved.coefficients.a(n) for n in range(args.terms)]
    result = {
        "value": moved.coefficients.a(0),
        "center": moved.center,
        "coefficients": coeffs,
        "inputs": {"function": echo, "center": args.center,
                   "terms": args.terms, "eps": args.eps},
    }
    return result, ["n", "coefficient"], [[n, c] for n, c in enumerate(coeffs)]


def _cmd_fn_supdist(args):
    from .analytic import sup_distance_on_grid

    rep, echo = _parse_fn(args.function, "function")
    lo, hi = args.K
    value = sup_distance_on_grid(rep, _ORACLES[args.oracle], (lo, hi),
                                 m=args.grid, eps=args.eps)
    return {
        "value": value,
        "inputs": {"function": echo, "oracle": args.oracle, "K": [lo, hi],
                   "grid": args.grid, "eps": args.eps},
    }


def _cmd_fn_lpnorm(args):
    from .analytic import lp_norm_on_interval

    rep, echo = _parse_fn(args.function, "function")
    lo, hi = args.K
    value = lp_norm_on_interval(rep, args.p, (lo, hi), args.eps)
    return {
        "value": value,
        "inputs": {"function": echo, "p": args.p, "K": [lo, hi],
                   "eps": args.eps},
    }


# ---------------------------------------------------------------------------
# property-check command


def _cmd_axioms(args):
    import random

    from .geometry import hilbert_axiom_report

    B = _load_set(args)
    rng = random.Random(args.seed)
    samples = []
    for _ in range(args.count):
        coeffs = [rng.uniform(-3.0, 3.0) for _ in range(rng.randrange(1, 10))]
        samples.append(TaylorMeasure(finite_sequence(coeffs),
                                     rng.uniform(-2.0, 2.0)))
    report = hilbert_axiom_report(samples, B, args.eps, seed=args.seed)
    checks = {
        "symmetry_max": report.symmetry_max,
        "bilinearity_max": report.bilinearity_max,
        "cauchy_schwarz_min_slack": report.cauchy_schwarz_min_slack,
        "parallelogram_rho_max": report.parallelogram_rho_max,
        "parallelogram_tv_max": report.parallelogram_tv_max,
    }
    result = {
        "value": max(report.symmetry_max, report.bilinearity_max,
                     report.parallelogram_rho_max),
        "pairs_checked": report.pairs_checked,
        **checks,
        "inputs": {"count": args.count, "set": serialize.set_to_doc(B),
                   "eps": args.eps},
    }
    return result, ["check", "value"], [[k, v] for k, v in checks.items()]


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taylormeasure",
        description="Signed Taylor measures: evaluation, geometry, "
                    "sampling, and analytic-function arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        _csv_opt(p)
        return p

    one, two = ("measure",), ("measure1", "measure2")
    for name, handler, names, help_text in (
        ("eval", _measure_cmd("measure", "evaluate", *one), one,
         "evaluate a measure on a set"),
        ("decompose", _cmd_decompose, one,
         "Jordan decomposition: positive and negative masses"),
        ("tv", _measure_cmd("measure", "total_variation", *one), one,
         "total variation on a set"),
        ("inner", _measure_cmd("geometry", "inner_product", *two), two,
         "inner product of two measures on a set"),
        ("norm", _measure_cmd("geometry", "norm", *one), one,
         "Hilbert norm of a measure on a set"),
        ("dist", _measure_cmd("geometry", "distance", *two), two,
         "Hilbert distance between two measures"),
    ):
        p = add(name, handler, help_text)
        for measure in names:
            _measure_arg(p, measure)
        _set_opt(p); _eps_opt(p)

    p = add("pmf", _cmd_pmf, "power-series pmf: series mass and point masses")
    p.add_argument("pmf", help="pmf document (path, '-', or inline JSON)")
    p.add_argument("--upto", type=int, default=20,
                   help="emit masses for n = 0..upto (default 20)")
    _eps_opt(p)

    p = add("sample", _cmd_sample, "draw from a power-series pmf")
    p.add_argument("pmf", help="pmf document (path, '-', or inline JSON)")
    p.add_argument("--L", type=int, required=True, help="number of draws")
    p.add_argument("--method", choices=("auto", "inverse_cdf", "rejection"),
                   default="auto")
    _eps_opt(p); _seed_opt(p)

    p = add("mc-measure", _cmd_mc_measure,
            "Monte Carlo estimate of a signed measure from its parts")
    p.add_argument("positive", help="pmf document for the positive part")
    p.add_argument("negative", help="pmf document for the negative part")
    _set_opt(p)
    p.add_argument("--L1", type=int, required=True,
                   help="samples for the positive part")
    p.add_argument("--L2", type=int, required=True,
                   help="samples for the negative part")
    p.add_argument("--estimate-normalizers", action="store_true",
                   help="estimate normalizing masses instead of exact sums")
    _eps_opt(p); _seed_opt(p); _threads_opt(p)

    p = add("mc-normalizer", _cmd_mc_normalizer,
            "importance estimate of a power-series normalizer")
    p.add_argument("pmf", help="pmf document (path, '-', or inline JSON)")
    p.add_argument("--L", type=int, required=True, help="number of draws")
    _seed_opt(p); _threads_opt(p)

    p = add("stm-moments", _cmd_stm_moments,
            "exact mean and variance of a stochastic measure on a set")
    p.add_argument("spec", help="spec document (path, '-', or inline JSON)")
    _set_opt(p); _eps_opt(p)

    p = add("stm-sim", _cmd_stm_sim,
            "simulate a stochastic measure and report empirical moments")
    p.add_argument("spec", help="spec document (path, '-', or inline JSON)")
    _set_opt(p)
    p.add_argument("--L", type=int, required=True,
                   help="number of replications")
    _eps_opt(p); _seed_opt(p)
    _threads_opt(p)

    p = add("fn-eval", _cmd_fn_eval, "evaluate an analytic representation")
    p.add_argument("function", help="function document")
    p.add_argument("--x", type=_finite, required=True)
    _eps_opt(p)

    p = add("fn-mul", _cmd_fn_mul, "multiply two representations")
    p.add_argument("function1", help="function document")
    p.add_argument("function2", help="function document")
    p.add_argument("--x", type=_finite, default=None,
                   help="evaluation point (default: the common center)")
    _terms_opt(p); _eps_opt(p)

    p = add("fn-recenter", _cmd_fn_recenter,
            "move a representation to a new expansion center")
    p.add_argument("function", help="function document")
    p.add_argument("--center", type=_finite, required=True)
    _terms_opt(p); _eps_opt(p)

    p = add("fn-supdist", _cmd_fn_supdist,
            "sup distance to a reference function on an interval grid")
    p.add_argument("function", help="function document")
    p.add_argument("--oracle", choices=sorted(_ORACLES), required=True)
    p.add_argument("--K", nargs=2, type=_finite, default=[0.0, 1.0],
                   metavar=("LO", "HI"))
    p.add_argument("--grid", type=int, default=1001,
                   help="number of grid points (default 1001)")
    _eps_opt(p)

    p = add("fn-lpnorm", _cmd_fn_lpnorm, "L^p norm on an interval")
    p.add_argument("function", help="function document")
    p.add_argument("--p", type=_finite, required=True)
    p.add_argument("--K", nargs=2, type=_finite, default=[0.0, 1.0],
                   metavar=("LO", "HI"))
    _eps_opt(p, default=1e-9)

    p = add("axioms", _cmd_axioms,
            "check inner-product axioms on random certified measures")
    p.add_argument("--count", type=int, default=20,
                   help="number of random measures (default 20)")
    _set_opt(p); _eps_opt(p); _seed_opt(p)

    return parser


def _write_csv(path: str, header: list[str], rows: list[list[Any]]) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args)
    except InvalidDocument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidPmf, CenterMismatch, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except TaylorMeasureError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    table = None
    if isinstance(result, tuple):
        result, *table = result
    result["command"] = args.command
    result["seed"] = getattr(args, "seed", None)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    if args.csv is not None:
        if table is None:
            err = [k for k in ("abs_error", "stderr") if k in result]
            table = (["command", "value", *err],
                     [[args.command, result["value"], *(result[k] for k in err)]])
        _write_csv(args.csv, *table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
