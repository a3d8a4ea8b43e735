"""JSON document schemas for the command-line interface.

Every CLI input is a small JSON object. The parsers here turn those
objects into library values and reject anything malformed with an
InvalidDocument whose field attribute names the offending entry by its
dotted path (for example "measure.coefficients.tail.M"). The matching
to_doc helpers emit a normalized copy of what was parsed, so a result
document always echoes inputs that re-parse to the same values.

The kinded documents come in four families: tails, certificates, steps
and specs. Each family is one table that maps a kind to its class and to
its entries: the key, the attribute it fills, how it is read and written,
and its default. One parser (_parse_kind) and one writer (_kind_to_doc)
serve every family, so a kind's parser and its echo cannot disagree.
Function documents are built by factories and keep their own parser.

Measure document:

    {"gamma": 1.0,
     "coefficients": {"prefix": [1.0, -2.0, 1.5],
                      "tail": {"kind": "zero"}},
     "certificate": {"kind": "finite_support", "last": 2},
     "label": "optional"}

Tail kinds: "zero"; "constant" with M (the constant value); "geometric"
with M and b, meaning a_n = M * b**n at the global index n.

Certificate kinds: "finite_support" with last (defaults to the end of
the prefix and requires a zero tail); "bounded" with M; "geometric_equiv"
with M, b and optional start, asserting |a_n| <= M * b**n for n >= start;
"unverified" with no parameters.

Set document: {"kind": "finite" | "cofinite" | "all", "elements": [...]}
where elements lists natural numbers and is required exactly for the
finite and cofinite kinds.

Pmf document: like a measure but keyed by "zeta" instead of "gamma"
(the series parameter of the power-series family), with no label.

Function document:

    {"kind": "builtin", "name": "exp" | "sin" | "cos" | "geometric",
     "center": 0.0}
    {"kind": "polynomial", "coeffs": [1.0, 0.0, 3.0], "center": 0.0}

Stochastic-measure document, one of:

    {"kind": "gaussian_iid", "mu": 1.0, "sigma": 1.0, "gamma": 1.0}
    {"kind": "gaussian_indep", "mu": SEQ, "sigma": SEQ, "gamma": 1.0}
    {"kind": "indicator_gamma", "p": 0.5, "mu": SEQ, "sigma": SEQ}
    {"kind": "simple", "values": [2.0, 5.0], "probs": [0.3, 0.7]}
    {"kind": "random_walk", "t": 10, "step": STEP}
    {"kind": "ar1", "phi": 0.5, "sigma2": 1.0, "t": 3}
    {"kind": "brownian", "n": 16, "mu": 0.0, "sigma": 1.0}

where SEQ is {"coefficients": {...}, "certificate": {...}} as in the
measure document and STEP is {"kind": "normal", "mu": 0.0, "sigma": 1.0},
{"kind": "uniform", "low": -1.0, "high": 1.0}, or
{"kind": "bernoulli", "p": 0.5, "up": 1.0, "down": -1.0}.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Any, Callable, Mapping

from .errors import InvalidDocument
from .kernel import (
    Bounded,
    CoefficientSequence,
    ConstantTail,
    FiniteSupport,
    GeometricEnvelope,
    GeometricTail,
    GrowthCertificate,
    TailModel,
    Unverified,
    ZeroTail,
)
from .measure import NatSet, TaylorMeasure

if TYPE_CHECKING:
    from .analytic import AnalyticRep
    from .stochastic import StepDistribution, StmSpec

def _require_object(doc: Any, field: str) -> Mapping[str, Any]:
    if not isinstance(doc, Mapping):
        raise InvalidDocument(field, "expected a JSON object")
    return doc


def _get(doc: Mapping[str, Any], field: str, key: str) -> Any:
    if key not in doc:
        raise InvalidDocument(f"{field}.{key}", "missing required entry")
    return doc[key]


def _number(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidDocument(field, "expected a number")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise InvalidDocument(field, "must be finite")
    return out


def _integer(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidDocument(field, "expected an integer")
    return value


def _number_list(value: Any, field: str) -> list[float]:
    if not isinstance(value, list):
        raise InvalidDocument(field, "expected a list of numbers")
    return [_number(v, f"{field}[{i}]") for i, v in enumerate(value)]


def _string(value: Any, field: str) -> str:
    if not isinstance(value, str):
        raise InvalidDocument(field, "expected a string")
    return value


def _reject_unknown(doc: Mapping[str, Any], field: str, allowed: set[str]) -> None:
    for key in doc:
        if key not in allowed:
            raise InvalidDocument(f"{field}.{key}", "unknown entry")


def _at_least_zero(read: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    """read, refusing a negative value."""

    def checked(value: Any, field: str) -> Any:
        out = read(value, field)
        if out < 0:
            raise InvalidDocument(field, "must be >= 0")
        return out

    return checked


def _same(value: Any) -> Any:
    return value


# A document family maps each kind to (class, entries). Each entry maps a
# document key to (attribute, (read, write), default): read(value, field)
# parses the entry into the class's attribute of that name, write echoes
# the attribute, and default is the raw entry read when the key is absent
# (_REQUIRED: the key must be present).
_REQUIRED = object()
_natural = _at_least_zero(_integer)
_NUMBER = (_number, _same)
_INTEGER = (_integer, _same)
_NONNEGATIVE = (_at_least_zero(_number), _same)
_NUMBERS = (lambda value, field: tuple(_number_list(value, field)), list)

_TAILS = {
    "zero": (ZeroTail, {}),
    "constant": (ConstantTail, {"M": ("value", _NUMBER, _REQUIRED)}),
    "geometric": (GeometricTail, {"M": ("scale", _NUMBER, _REQUIRED),
                                  "b": ("ratio", _NUMBER, _REQUIRED)}),
}
_CERTIFICATES = {
    # read by _parse_certificate, whose default last depends on the prefix
    "finite_support": (FiniteSupport, {"last": ("last", _INTEGER, _REQUIRED)}),
    "bounded": (Bounded, {"M": ("bound", _NONNEGATIVE, _REQUIRED)}),
    "geometric_equiv": (GeometricEnvelope, {
        "M": ("scale", _NONNEGATIVE, _REQUIRED),
        "b": ("ratio", _NONNEGATIVE, _REQUIRED),
        "start": ("start", (_natural, _same), 0)}),
    "unverified": (Unverified, {}),
}


def _parse_kind(table: Mapping[str, Any], family: str, doc: Any, field: str) -> Any:
    """Parse a document of one family by its kind's table entry. A value
    the class refuses with ValueError is refused as the whole document."""
    doc = _require_object(doc, field)
    kind = _string(_get(doc, field, "kind"), f"{field}.kind")
    if kind not in table:
        raise InvalidDocument(f"{field}.kind", f"unknown {family} kind {kind!r}")
    cls, entries = table[kind]
    _reject_unknown(doc, field, {"kind", *entries})
    try:
        values = {}
        for key, (attr, (read, _), default) in entries.items():
            raw = doc.get(key, default)
            if raw is _REQUIRED:
                raise InvalidDocument(f"{field}.{key}", "missing required entry")
            values[attr] = read(raw, f"{field}.{key}")
        return cls(**values)
    except ValueError as exc:
        raise InvalidDocument(field, str(exc)) from exc


def _kind_to_doc(table: Mapping[str, Any], family: str, obj: Any) -> dict[str, Any]:
    """The document of obj, written by the table entry of its class."""
    for kind, (cls, entries) in table.items():
        if isinstance(obj, cls):
            return {"kind": kind, **{key: codec[1](getattr(obj, attr))
                                     for key, (attr, codec, _) in entries.items()}}
    raise ValueError(f"{family} {obj!r} has no document form")


def _parse_tail(doc: Any, field: str) -> TailModel:
    return _parse_kind(_TAILS, "tail", doc, field)


def _parse_certificate(
    doc: Any, field: str, prefix_len: int, tail: TailModel
) -> GrowthCertificate:
    doc = _require_object(doc, field)
    if doc.get("kind") != "finite_support":
        return _parse_kind(_CERTIFICATES, "certificate", doc, field)
    _reject_unknown(doc, field, {"kind", "last"})
    if not isinstance(tail, ZeroTail):
        raise InvalidDocument(f"{field}.kind", "finite_support requires a zero tail")
    last = prefix_len - 1
    if "last" in doc:
        last = _integer(doc["last"], f"{field}.last")
        if last < -1:
            raise InvalidDocument(f"{field}.last", "must be >= -1")
    return FiniteSupport(last)


def parse_sequence(doc: Any, field: str) -> CoefficientSequence:
    """Parse a {"coefficients": ..., "certificate": ...} pair."""
    doc = _require_object(doc, field)
    _reject_unknown(doc, field, {"coefficients", "certificate"})
    coeffs = _require_object(
        _get(doc, field, "coefficients"), f"{field}.coefficients"
    )
    _reject_unknown(coeffs, f"{field}.coefficients", {"prefix", "tail"})
    prefix = _number_list(
        _get(coeffs, f"{field}.coefficients", "prefix"),
        f"{field}.coefficients.prefix",
    )
    tail = _parse_tail(
        _get(coeffs, f"{field}.coefficients", "tail"), f"{field}.coefficients.tail"
    )
    cert = _parse_certificate(
        _get(doc, field, "certificate"),
        f"{field}.certificate",
        len(prefix),
        tail,
    )
    return CoefficientSequence(tuple(prefix), tail, cert)


def parse_measure(doc: Any, field: str = "measure") -> TaylorMeasure:
    doc = _require_object(doc, field)
    _reject_unknown(doc, field, {"gamma", "coefficients", "certificate", "label"})
    gamma = _number(_get(doc, field, "gamma"), f"{field}.gamma")
    seq = parse_sequence(
        {"coefficients": _get(doc, field, "coefficients"),
         "certificate": _get(doc, field, "certificate")},
        field,
    )
    label = None
    if "label" in doc:
        label = _string(doc["label"], f"{field}.label")
    return TaylorMeasure(seq, gamma, label)


def parse_pmf_inputs(doc: Any, field: str = "pmf") -> tuple[float, CoefficientSequence]:
    """Parse a pmf document into (zeta, coefficient sequence)."""
    doc = _require_object(doc, field)
    _reject_unknown(doc, field, {"zeta", "coefficients", "certificate"})
    zeta = _number(_get(doc, field, "zeta"), f"{field}.zeta")
    seq = parse_sequence(
        {"coefficients": _get(doc, field, "coefficients"),
         "certificate": _get(doc, field, "certificate")},
        field,
    )
    return zeta, seq


def parse_set(doc: Any, field: str = "set") -> NatSet:
    doc = _require_object(doc, field)
    _reject_unknown(doc, field, {"kind", "elements"})
    kind = _string(_get(doc, field, "kind"), f"{field}.kind")
    if kind == "all":
        if doc.get("elements", []) != []:
            raise InvalidDocument(
                f"{field}.elements", "must be absent or empty for kind 'all'"
            )
        return NatSet.all()
    if kind not in ("finite", "cofinite"):
        raise InvalidDocument(f"{field}.kind", f"unknown set kind {kind!r}")
    raw = _get(doc, field, "elements")
    if not isinstance(raw, list):
        raise InvalidDocument(f"{field}.elements", "expected a list of naturals")
    elements = [_natural(v, f"{field}.elements[{i}]") for i, v in enumerate(raw)]
    if kind == "finite":
        return NatSet.finite(elements)
    return NatSet.cofinite(elements)


def parse_function(doc: Any, field: str = "function") -> AnalyticRep:
    from .analytic import _BUILTINS, builtin, polynomial_rep

    doc = _require_object(doc, field)
    kind = _string(_get(doc, field, "kind"), f"{field}.kind")
    if kind == "builtin":
        _reject_unknown(doc, field, {"kind", "name", "center"})
        name = _string(_get(doc, field, "name"), f"{field}.name")
        if name not in _BUILTINS:
            raise InvalidDocument(f"{field}.name", f"unknown builtin {name!r}")
        center = 0.0
        if "center" in doc:
            center = _number(doc["center"], f"{field}.center")
        try:
            return builtin(name, center)
        except ValueError as exc:
            raise InvalidDocument(f"{field}.center", str(exc)) from exc
    if kind == "polynomial":
        _reject_unknown(doc, field, {"kind", "coeffs", "center"})
        coeffs = _number_list(_get(doc, field, "coeffs"), f"{field}.coeffs")
        if not coeffs:
            raise InvalidDocument(f"{field}.coeffs", "must not be empty")
        center = 0.0
        if "center" in doc:
            center = _number(doc["center"], f"{field}.center")
        return polynomial_rep(coeffs, center)
    raise InvalidDocument(f"{field}.kind", f"unknown function kind {kind!r}")


@functools.cache
def _stochastic_tables() -> tuple[dict[str, Any], dict[str, Any]]:
    """The step and spec families. They are built on first use, so that
    parsing the other documents never loads numpy."""
    from . import stochastic as st

    seq = (parse_sequence, sequence_to_doc)
    steps = {
        "normal": (st.NormalStep, {"mu": ("mu", _NUMBER, 0.0),
                                   "sigma": ("sigma", _NUMBER, 1.0)}),
        "uniform": (st.UniformStep, {"low": ("low", _NUMBER, -1.0),
                                     "high": ("high", _NUMBER, 1.0)}),
        "bernoulli": (st.BernoulliStep, {"p": ("p", _NUMBER, 0.5),
                                         "up": ("up", _NUMBER, 1.0),
                                         "down": ("down", _NUMBER, -1.0)}),
    }
    specs = {
        "gaussian_iid": (st.GaussianIID, {"mu": ("mu_a", _NUMBER, _REQUIRED),
                                          "sigma": ("sigma_a", _NUMBER, _REQUIRED),
                                          "gamma": ("gamma", _NUMBER, _REQUIRED)}),
        "gaussian_indep": (st.GaussianIndep, {"mu": ("mu", seq, _REQUIRED),
                                              "sigma": ("sigma", seq, _REQUIRED),
                                              "gamma": ("gamma", _NUMBER, _REQUIRED)}),
        "indicator_gamma": (st.IndicatorGamma, {"p": ("p_a", _NUMBER, _REQUIRED),
                                                "mu": ("mu", seq, _REQUIRED),
                                                "sigma": ("sigma", seq, _REQUIRED)}),
        "simple": (st.SimpleFunction, {"values": ("c", _NUMBERS, _REQUIRED),
                                       "probs": ("probs", _NUMBERS, _REQUIRED)}),
        "random_walk": (st.RandomWalk, {"t": ("t", _INTEGER, _REQUIRED),
                                        "step": ("step", (_parse_step, step_to_doc),
                                                 {"kind": "normal"})}),
        "ar1": (st.Ar1, {"phi": ("phi", _NUMBER, _REQUIRED),
                         "sigma2": ("sigma2", _NUMBER, _REQUIRED),
                         "t": ("t", _INTEGER, _REQUIRED)}),
        "brownian": (st.BrownianApprox, {"n": ("n", _INTEGER, _REQUIRED),
                                         "mu": ("mu", _NUMBER, 0.0),
                                         "sigma": ("sigma", _NUMBER, 1.0)}),
    }
    return steps, specs


def _parse_step(doc: Any, field: str) -> StepDistribution:
    return _parse_kind(_stochastic_tables()[0], "step", doc, field)


def parse_stm_spec(doc: Any, field: str = "spec") -> StmSpec:
    return _parse_kind(_stochastic_tables()[1], "spec", doc, field)


def tail_to_doc(tail: TailModel) -> dict[str, Any]:
    return _kind_to_doc(_TAILS, "tail", tail)


def certificate_to_doc(cert: GrowthCertificate) -> dict[str, Any]:
    return _kind_to_doc(_CERTIFICATES, "certificate", cert)


def sequence_to_doc(seq: CoefficientSequence) -> dict[str, Any]:
    return {
        "coefficients": {
            "prefix": list(seq.prefix),
            "tail": tail_to_doc(seq.tail),
        },
        "certificate": certificate_to_doc(seq.certificate),
    }


def measure_to_doc(T: TaylorMeasure) -> dict[str, Any]:
    doc = {"gamma": T.gamma, **sequence_to_doc(T.coefficients)}
    if T.label is not None:
        doc["label"] = T.label
    return doc


def pmf_to_doc(zeta: float, b: CoefficientSequence) -> dict[str, Any]:
    return {"zeta": zeta, **sequence_to_doc(b)}


def set_to_doc(B: NatSet) -> dict[str, Any]:
    if B.kind == "all":
        return {"kind": "all"}
    return {"kind": B.kind, "elements": list(B.elements)}


def step_to_doc(step: StepDistribution) -> dict[str, Any]:
    return _kind_to_doc(_stochastic_tables()[0], "step", step)


def stm_spec_to_doc(spec: StmSpec) -> dict[str, Any]:
    return _kind_to_doc(_stochastic_tables()[1], "spec", spec)


def function_to_doc(doc: Any, field: str = "function") -> dict[str, Any]:
    """Normalize a function document (parse, then echo canonical form)."""
    parsed = _require_object(doc, field)
    kind = _string(_get(parsed, field, "kind"), f"{field}.kind")
    if kind == "builtin":
        return {
            "kind": "builtin",
            "name": parsed["name"],
            "center": float(parsed.get("center", 0.0)),
        }
    return {
        "kind": "polynomial",
        "coeffs": [float(c) for c in parsed["coeffs"]],
        "center": float(parsed.get("center", 0.0)),
    }
