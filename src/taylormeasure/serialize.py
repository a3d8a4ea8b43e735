"""JSON document schemas for the command-line interface.

Every CLI input is a small JSON object. The parsers here turn those
objects into library values and reject anything malformed with an
InvalidDocument whose field attribute names the offending entry by its
dotted path (for example "measure.coefficients.tail.M"). The matching
to_doc helpers emit a normalized copy of what was parsed, so a result
document always echoes inputs that re-parse to the same values.

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

import math
from typing import TYPE_CHECKING, Any, Mapping

from .analytic import AnalyticRep, builtin, polynomial_rep
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
    from .stochastic import StepDistribution, StmSpec

_BUILTIN_NAMES = ("exp", "sin", "cos", "geometric")


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
    out = float(value)
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


def _parse_tail(doc: Any, field: str) -> TailModel:
    doc = _require_object(doc, field)
    kind = _string(_get(doc, field, "kind"), f"{field}.kind")
    if kind == "zero":
        _reject_unknown(doc, field, {"kind"})
        return ZeroTail()
    if kind == "constant":
        _reject_unknown(doc, field, {"kind", "M"})
        return ConstantTail(_number(_get(doc, field, "M"), f"{field}.M"))
    if kind == "geometric":
        _reject_unknown(doc, field, {"kind", "M", "b"})
        return GeometricTail(
            _number(_get(doc, field, "M"), f"{field}.M"),
            _number(_get(doc, field, "b"), f"{field}.b"),
        )
    raise InvalidDocument(f"{field}.kind", f"unknown tail kind {kind!r}")


def _parse_certificate(
    doc: Any, field: str, prefix_len: int, tail: TailModel
) -> GrowthCertificate:
    doc = _require_object(doc, field)
    kind = _string(_get(doc, field, "kind"), f"{field}.kind")
    if kind == "finite_support":
        _reject_unknown(doc, field, {"kind", "last"})
        if not isinstance(tail, ZeroTail):
            raise InvalidDocument(
                f"{field}.kind", "finite_support requires a zero tail"
            )
        if "last" in doc:
            last = _integer(doc["last"], f"{field}.last")
            if last < -1:
                raise InvalidDocument(f"{field}.last", "must be >= -1")
        else:
            last = prefix_len - 1
        return FiniteSupport(last)
    if kind == "bounded":
        _reject_unknown(doc, field, {"kind", "M"})
        bound = _number(_get(doc, field, "M"), f"{field}.M")
        if bound < 0.0:
            raise InvalidDocument(f"{field}.M", "must be >= 0")
        return Bounded(bound)
    if kind == "geometric_equiv":
        _reject_unknown(doc, field, {"kind", "M", "b", "start"})
        scale = _number(_get(doc, field, "M"), f"{field}.M")
        ratio = _number(_get(doc, field, "b"), f"{field}.b")
        if scale < 0.0:
            raise InvalidDocument(f"{field}.M", "must be >= 0")
        if ratio < 0.0:
            raise InvalidDocument(f"{field}.b", "must be >= 0")
        start = 0
        if "start" in doc:
            start = _integer(doc["start"], f"{field}.start")
            if start < 0:
                raise InvalidDocument(f"{field}.start", "must be >= 0")
        return GeometricEnvelope(scale, ratio, start)
    if kind == "unverified":
        _reject_unknown(doc, field, {"kind"})
        return Unverified()
    raise InvalidDocument(f"{field}.kind", f"unknown certificate kind {kind!r}")


def parse_sequence(doc: Any, field: str) -> CoefficientSequence:
    """Parse a {"coefficients": ..., "certificate": ...} pair."""
    doc = _require_object(doc, field)
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
        if doc.get("elements"):
            raise InvalidDocument(
                f"{field}.elements", "must be absent or empty for kind 'all'"
            )
        return NatSet.all()
    if kind not in ("finite", "cofinite"):
        raise InvalidDocument(f"{field}.kind", f"unknown set kind {kind!r}")
    raw = _get(doc, field, "elements")
    if not isinstance(raw, list):
        raise InvalidDocument(f"{field}.elements", "expected a list of naturals")
    elements = []
    for i, v in enumerate(raw):
        n = _integer(v, f"{field}.elements[{i}]")
        if n < 0:
            raise InvalidDocument(f"{field}.elements[{i}]", "must be >= 0")
        elements.append(n)
    if kind == "finite":
        return NatSet.finite(elements)
    return NatSet.cofinite(elements)


def parse_function(doc: Any, field: str = "function") -> AnalyticRep:
    doc = _require_object(doc, field)
    kind = _string(_get(doc, field, "kind"), f"{field}.kind")
    if kind == "builtin":
        _reject_unknown(doc, field, {"kind", "name", "center"})
        name = _string(_get(doc, field, "name"), f"{field}.name")
        if name not in _BUILTIN_NAMES:
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


# The stochastic-spec functions import their classes when called, so that
# parsing the other documents never loads numpy.


def _parse_step(doc: Any, field: str) -> StepDistribution:
    from .stochastic import BernoulliStep, NormalStep, UniformStep

    doc = _require_object(doc, field)
    kind = _string(_get(doc, field, "kind"), f"{field}.kind")
    try:
        if kind == "normal":
            _reject_unknown(doc, field, {"kind", "mu", "sigma"})
            return NormalStep(
                _number(doc.get("mu", 0.0), f"{field}.mu"),
                _number(doc.get("sigma", 1.0), f"{field}.sigma"),
            )
        if kind == "uniform":
            _reject_unknown(doc, field, {"kind", "low", "high"})
            return UniformStep(
                _number(doc.get("low", -1.0), f"{field}.low"),
                _number(doc.get("high", 1.0), f"{field}.high"),
            )
        if kind == "bernoulli":
            _reject_unknown(doc, field, {"kind", "p", "up", "down"})
            return BernoulliStep(
                _number(doc.get("p", 0.5), f"{field}.p"),
                _number(doc.get("up", 1.0), f"{field}.up"),
                _number(doc.get("down", -1.0), f"{field}.down"),
            )
    except ValueError as exc:
        raise InvalidDocument(field, str(exc)) from exc
    raise InvalidDocument(f"{field}.kind", f"unknown step kind {kind!r}")


def parse_stm_spec(doc: Any, field: str = "spec") -> StmSpec:
    from .stochastic import (
        Ar1,
        BrownianApprox,
        GaussianIID,
        GaussianIndep,
        IndicatorGamma,
        RandomWalk,
        SimpleFunction,
    )

    doc = _require_object(doc, field)
    kind = _string(_get(doc, field, "kind"), f"{field}.kind")
    try:
        if kind == "gaussian_iid":
            _reject_unknown(doc, field, {"kind", "mu", "sigma", "gamma"})
            return GaussianIID(
                _number(_get(doc, field, "mu"), f"{field}.mu"),
                _number(_get(doc, field, "sigma"), f"{field}.sigma"),
                _number(_get(doc, field, "gamma"), f"{field}.gamma"),
            )
        if kind == "gaussian_indep":
            _reject_unknown(doc, field, {"kind", "mu", "sigma", "gamma"})
            return GaussianIndep(
                parse_sequence(_get(doc, field, "mu"), f"{field}.mu"),
                parse_sequence(_get(doc, field, "sigma"), f"{field}.sigma"),
                _number(_get(doc, field, "gamma"), f"{field}.gamma"),
            )
        if kind == "indicator_gamma":
            _reject_unknown(doc, field, {"kind", "p", "mu", "sigma"})
            return IndicatorGamma(
                _number(_get(doc, field, "p"), f"{field}.p"),
                parse_sequence(_get(doc, field, "mu"), f"{field}.mu"),
                parse_sequence(_get(doc, field, "sigma"), f"{field}.sigma"),
            )
        if kind == "simple":
            _reject_unknown(doc, field, {"kind", "values", "probs"})
            values = _number_list(_get(doc, field, "values"), f"{field}.values")
            probs = _number_list(_get(doc, field, "probs"), f"{field}.probs")
            return SimpleFunction(tuple(values), tuple(probs))
        if kind == "random_walk":
            _reject_unknown(doc, field, {"kind", "t", "step"})
            t = _integer(_get(doc, field, "t"), f"{field}.t")
            step = _parse_step(
                doc.get("step", {"kind": "normal"}), f"{field}.step"
            )
            return RandomWalk(step, t)
        if kind == "ar1":
            _reject_unknown(doc, field, {"kind", "phi", "sigma2", "t"})
            return Ar1(
                _number(_get(doc, field, "phi"), f"{field}.phi"),
                _number(_get(doc, field, "sigma2"), f"{field}.sigma2"),
                _integer(_get(doc, field, "t"), f"{field}.t"),
            )
        if kind == "brownian":
            _reject_unknown(doc, field, {"kind", "n", "mu", "sigma"})
            return BrownianApprox(
                _integer(_get(doc, field, "n"), f"{field}.n"),
                _number(doc.get("mu", 0.0), f"{field}.mu"),
                _number(doc.get("sigma", 1.0), f"{field}.sigma"),
            )
    except ValueError as exc:
        raise InvalidDocument(field, str(exc)) from exc
    raise InvalidDocument(f"{field}.kind", f"unknown spec kind {kind!r}")


def tail_to_doc(tail: TailModel) -> dict[str, Any]:
    if isinstance(tail, ZeroTail):
        return {"kind": "zero"}
    if isinstance(tail, ConstantTail):
        return {"kind": "constant", "M": tail.value}
    if isinstance(tail, GeometricTail):
        return {"kind": "geometric", "M": tail.scale, "b": tail.ratio}
    raise ValueError(f"tail {tail!r} has no document form")


def certificate_to_doc(cert: GrowthCertificate) -> dict[str, Any]:
    if isinstance(cert, FiniteSupport):
        return {"kind": "finite_support", "last": cert.last}
    if isinstance(cert, Bounded):
        return {"kind": "bounded", "M": cert.bound}
    if isinstance(cert, GeometricEnvelope):
        return {"kind": "geometric_equiv", "M": cert.scale, "b": cert.ratio,
                "start": cert.start}
    if isinstance(cert, Unverified):
        return {"kind": "unverified"}
    raise ValueError(f"certificate {cert!r} has no document form")


def sequence_to_doc(seq: CoefficientSequence) -> dict[str, Any]:
    return {
        "coefficients": {
            "prefix": list(seq.prefix),
            "tail": tail_to_doc(seq.tail),
        },
        "certificate": certificate_to_doc(seq.certificate),
    }


def measure_to_doc(T: TaylorMeasure) -> dict[str, Any]:
    doc = {"gamma": T.gamma}
    doc.update(sequence_to_doc(T.coefficients))
    if T.label is not None:
        doc["label"] = T.label
    return doc


def pmf_to_doc(zeta: float, b: CoefficientSequence) -> dict[str, Any]:
    doc = {"zeta": zeta}
    doc.update(sequence_to_doc(b))
    return doc


def set_to_doc(B: NatSet) -> dict[str, Any]:
    if B.kind == "all":
        return {"kind": "all"}
    return {"kind": B.kind, "elements": list(B.elements)}


def step_to_doc(step: StepDistribution) -> dict[str, Any]:
    from .stochastic import BernoulliStep, NormalStep, UniformStep

    if isinstance(step, NormalStep):
        return {"kind": "normal", "mu": step.mu, "sigma": step.sigma}
    if isinstance(step, UniformStep):
        return {"kind": "uniform", "low": step.low, "high": step.high}
    if isinstance(step, BernoulliStep):
        return {"kind": "bernoulli", "p": step.p, "up": step.up, "down": step.down}
    raise ValueError(f"step {step!r} has no document form")


def stm_spec_to_doc(spec: StmSpec) -> dict[str, Any]:
    from .stochastic import (
        Ar1,
        BrownianApprox,
        GaussianIID,
        GaussianIndep,
        IndicatorGamma,
        RandomWalk,
        SimpleFunction,
    )

    if isinstance(spec, GaussianIID):
        return {"kind": "gaussian_iid", "mu": spec.mu_a, "sigma": spec.sigma_a,
                "gamma": spec.gamma}
    if isinstance(spec, GaussianIndep):
        return {"kind": "gaussian_indep", "mu": sequence_to_doc(spec.mu),
                "sigma": sequence_to_doc(spec.sigma), "gamma": spec.gamma}
    if isinstance(spec, IndicatorGamma):
        return {"kind": "indicator_gamma", "p": spec.p_a,
                "mu": sequence_to_doc(spec.mu), "sigma": sequence_to_doc(spec.sigma)}
    if isinstance(spec, SimpleFunction):
        return {"kind": "simple", "values": list(spec.c), "probs": list(spec.probs)}
    if isinstance(spec, RandomWalk):
        return {"kind": "random_walk", "t": spec.t, "step": step_to_doc(spec.step)}
    if isinstance(spec, Ar1):
        return {"kind": "ar1", "phi": spec.phi, "sigma2": spec.sigma2, "t": spec.t}
    if isinstance(spec, BrownianApprox):
        return {"kind": "brownian", "n": spec.n, "mu": spec.mu, "sigma": spec.sigma}
    raise ValueError(f"spec {spec!r} has no document form")


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
