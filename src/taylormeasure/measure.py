"""Signed measures on subsets of the naturals with factorial-weighted terms.

A measure T assigns T(B) = sum_{n in B} a_n * gamma**n / n!. Infinite sets
(the whole of N, or complements of finite sets) go through a certified
truncation plan derived from the coefficient sequence's growth
certificate. Finite sets are summed index by index up to the
certificate's underflow horizon, past which the terms' certified tail is
below the normal float range (kernel.underflow_horizon); like an infinite
sum, this trusts the certificate past the horizon. Every returned value
carries an abs_error combining the tail bound with a roundoff estimate.

Measures are identified semantically with their term function
p(n) = a_n * gamma**n / n!; the (gamma, a) pair is just a presentation.
Algebraic results therefore come back in the canonical gamma = 1
presentation backed directly by the combined term function.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator

from . import kernel
from .errors import DivergenceUnknown, NonFiniteResult
from .kernel import (
    SequenceLike,
    SignedLogTerm,
    TermBackedSequence,
    TruncationPlan,
    Unverified,
    _TermEnvelope,
    finite_sequence,
)

_ULP = 2.0 ** -53


@dataclass(frozen=True)
class NatSet:
    """A subset of N that is finite, cofinite, or everything.

    ``elements`` is a sorted tuple of distinct naturals: the members for a
    finite set, the non-members for a cofinite one. A cofinite set with
    nothing excluded normalizes to kind 'all'.
    """

    kind: str
    elements: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("finite", "cofinite", "all"):
            raise ValueError(f"NatSet.kind must be finite|cofinite|all, got {self.kind!r}")
        elems = tuple(sorted(set(int(n) for n in self.elements)))
        if any(n < 0 for n in elems):
            raise ValueError("NatSet elements must be naturals")
        object.__setattr__(self, "elements", elems)
        if self.kind == "all" and elems:
            raise ValueError("an 'all' set carries no elements")
        if self.kind == "cofinite" and not elems:
            object.__setattr__(self, "kind", "all")

    @classmethod
    def finite(cls, elements: Iterable[int]) -> "NatSet":
        return cls("finite", tuple(elements))

    @classmethod
    def cofinite(cls, excluded: Iterable[int]) -> "NatSet":
        return cls("cofinite", tuple(excluded))

    @classmethod
    def all(cls) -> "NatSet":
        return cls("all")

    def __contains__(self, n: int) -> bool:
        if self.kind == "all":
            return n >= 0
        i = bisect_left(self.elements, n)
        hit = i < len(self.elements) and self.elements[i] == n
        return hit if self.kind == "finite" else (n >= 0 and not hit)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def iter_finite(self) -> Iterator[int]:
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite set")
        return iter(self.elements)


@dataclass(frozen=True)
class MeasureValue:
    """A computed set value together with a certified absolute error.

    Both must be finite: a value or bound beyond the float range raises
    NonFiniteResult.
    """

    value: float
    abs_error: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.abs_error)):
            raise NonFiniteResult(
                f"result {self.value} with error bound {self.abs_error} is not finite"
            )


@dataclass(frozen=True)
class TaylorMeasure:
    """T(B) = sum_{n in B} a_n * gamma**n / n! for a coefficient sequence a."""

    coefficients: SequenceLike
    gamma: float
    label: str | None = None

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise ValueError(f"TaylorMeasure.gamma must be finite, got {self.gamma}")

    def term(self, n: int) -> float:
        """The term function p(n) = a_n * gamma**n / n! in linear space."""
        return kernel.term_value(self.coefficients, self.gamma, n)

    def log_term(self, n: int) -> SignedLogTerm:
        return kernel.term(self.coefficients, self.gamma, n)

    def evaluate(self, sets: NatSet, eps: float = 1e-12) -> MeasureValue:
        return evaluate(self, sets, eps)

    def total_mass(self, eps: float = 1e-12) -> MeasureValue:
        return evaluate(self, NatSet.all(), eps)

    def total_variation(self, sets: NatSet, eps: float = 1e-12) -> MeasureValue:
        return total_variation(self, sets, eps)

    def jordan(self) -> "JordanPair":
        return jordan_decompose(self)


def zero_measure() -> TaylorMeasure:
    return TaylorMeasure(finite_sequence(()), 1.0)


def _require_certificate(seq: SequenceLike, what: str) -> None:
    if isinstance(seq.certificate, Unverified):
        raise DivergenceUnknown(
            f"{what} over an infinite set requires a growth certificate; "
            "this measure's coefficient sequence is Unverified"
        )


def _terms(T: TaylorMeasure, indices: Iterable[int]) -> Iterator[tuple[float, float]]:
    """(value, roundoff) of T's terms at the given indices, in order."""
    return map(partial(kernel._term_and_err, T.coefficients, T.gamma), indices)


def _sum_selected(
    terms: Iterable[tuple[float, float]], select: Callable[[float], float]
) -> tuple[float, float]:
    """Sum select(v) over (v, roundoff) term pairs with compensated accumulation.

    select maps a term to its contribution (identity, positive part,
    negative part, or absolute value). Returns (value, roundoff_estimate).
    A term that rounded to 0 keeps its roundoff: it may have underflowed,
    and then its sign is unknown.
    """
    acc_pos = kernel._NeumaierSum()
    acc_neg = kernel._NeumaierSum()
    err = 0.0
    for v, e in terms:
        w = select(v)
        if w == 0.0 and v != 0.0:
            continue
        err += e
        if w > 0.0:
            acc_pos.add(w)
        else:
            acc_neg.add(w)
    value = acc_pos.value + acc_neg.value
    err += 2.0 * _ULP * (acc_pos.value - acc_neg.value)
    return value, err


def _plan_for(T: TaylorMeasure, eps: float) -> TruncationPlan:
    return kernel.plan_truncation(T.coefficients.certificate, T.gamma, eps)


def _eval_selected(
    T: TaylorMeasure, sets: NatSet, eps: float, select: Callable[[float], float]
) -> MeasureValue:
    """Shared engine for evaluate / jordan parts / total variation.

    Finite sets stop at the underflow horizon (kernel.underflow_horizon):
    their indices past the first M whose certified tail is at most half
    the smallest normal float are not summed, and a bound on that tail,
    2**-1022, joins abs_error. Smaller finite sets, and terms the
    certificate does not bound, are summed in full. 'all' sums a
    certified plan. Cofinite sets are the 'all' value minus the excluded
    finite part. Either tail bound certifies every selected variant
    because it dominates sum |p(n)| over the tail.
    """
    if sets.is_finite:
        indices, tail = sets.elements, 0.0
        horizon = indices and kernel.underflow_horizon(T.coefficients, T.gamma, indices[-1])
        if horizon:
            indices = indices[:bisect_right(indices, horizon.last_index)]
            tail = horizon.tail_bound
        value, err = _sum_selected(_terms(T, indices), select)
        return MeasureValue(value, err + tail)
    _require_certificate(T.coefficients, "evaluation")
    plan = _plan_for(T, eps)
    if sets.kind == "all":
        indices: Iterable[int] = range(plan.last_index + 1)
    else:
        excluded = set(sets.elements)
        indices = (n for n in range(plan.last_index + 1) if n not in excluded)
    value, err = _sum_selected(_terms(T, indices), select)
    return MeasureValue(value, err + plan.tail_bound)


def _identity(v: float) -> float:
    return v


def evaluate(T: TaylorMeasure, sets: NatSet, eps: float = 1e-12) -> MeasureValue:
    """T(B) with |returned - exact| <= abs_error (tail bound + roundoff).

    A finite B stops at the underflow horizon; a bound on its tail,
    2**-1022, joins abs_error."""
    return _eval_selected(T, sets, eps, _identity)


def taylor_derivative(T: TaylorMeasure, n: int) -> float:
    """The n-th term a_n * gamma**n / n!, i.e. T({n})."""
    return T.term(n)


def total_variation(T: TaylorMeasure, sets: NatSet, eps: float = 1e-12) -> MeasureValue:
    """|T|(B) = sum_{n in B} |p(n)|, with finite sets cut at the underflow
    horizon as in evaluate."""
    return _eval_selected(T, sets, eps, abs)


@dataclass(frozen=True)
class JordanPair:
    """Decomposition T = positive - negative against the Hahn split
    A+ = {n : p(n) >= 0} (ties assigned to A+).

    positive(B) sums the terms of B that fall in A+, negative(B) sums
    the negated terms of B in A-; the two parts are mutually singular by
    construction. On a finite set both stop at the underflow horizon, as
    evaluate does, and the terms they sum are split exactly.
    """

    measure: TaylorMeasure

    def hahn_positive_indicator(self, n: int) -> bool:
        return self.measure.term(n) >= 0.0

    def positive(self, sets: NatSet, eps: float = 1e-12) -> MeasureValue:
        out = _eval_selected(self.measure, sets, eps, lambda v: v if v > 0.0 else 0.0)
        return MeasureValue(max(out.value, 0.0), out.abs_error)

    def negative(self, sets: NatSet, eps: float = 1e-12) -> MeasureValue:
        out = _eval_selected(self.measure, sets, eps, lambda v: -v if v < 0.0 else 0.0)
        return MeasureValue(max(out.value, 0.0), out.abs_error)


def jordan_decompose(T: TaylorMeasure) -> JordanPair:
    return JordanPair(T)


# ---------------------------------------------------------------------------
# Linear combinations
# ---------------------------------------------------------------------------


def linear_combination(
    alpha: float, T1: TaylorMeasure, beta: float, T2: TaylorMeasure
) -> TaylorMeasure:
    """The measure with term function alpha * p1 + beta * p2, presented
    canonically at gamma = 1 with a_n = n! * (alpha * p1(n) + beta * p2(n)).

    The result's term function is exactly the pointwise combination of
    the operands' term functions; no presentation merging is attempted
    (coefficient sequences with different gamma cannot be merged at the
    coefficient level in general). Operand term errors carry over as
    |alpha| * e1 + |beta| * e2.
    """
    alpha = float(alpha)
    beta = float(beta)
    if alpha == 0.0 and beta == 0.0:
        return zero_measure()
    t1 = T1.term
    t2 = T2.term
    if beta == 0.0:
        rule = (lambda n: alpha * t1(n)) if alpha != 1.0 else t1
    elif alpha == 0.0:
        rule = (lambda n: beta * t2(n)) if beta != 1.0 else t2
    else:
        rule = lambda n: alpha * t1(n) + beta * t2(n)

    term_error = None
    b1, b2 = _term_errors(T1), _term_errors(T2)
    if b1 is not None or b2 is not None:
        weighted = [(abs(w), b) for w, b in ((alpha, b1), (beta, b2)) if b is not None]

        def term_error(n: int) -> float:
            return sum(w * b(n) for w, b in weighted)

    e1 = _TermEnvelope.of(T1.coefficients.certificate, T1.gamma, T1.term).scaled(alpha)
    e2 = _TermEnvelope.of(T2.coefficients.certificate, T2.gamma, T2.term).scaled(beta)
    cert = e1.add(e2).to_certificate(1.0)
    return TaylorMeasure(TermBackedSequence(rule, 1.0, cert, term_error), 1.0)


def _term_errors(T: TaylorMeasure) -> Callable[[int], float] | None:
    """The term errors of T's terms, or None when they carry none."""
    seq = T.coefficients
    if isinstance(seq, TermBackedSequence) and seq.term_error is not None:
        return partial(kernel._term_bias, seq, T.gamma)
    return None


def from_term_function(
    rule: Callable[[int], float], certificate: kernel.GrowthCertificate, gamma: float = 1.0
) -> TaylorMeasure:
    """Measure with prescribed term function p(n) = rule(n), presented at
    ``gamma`` (so a_n = n! * rule(n) / gamma**n)."""
    return TaylorMeasure(TermBackedSequence(rule, float(gamma), certificate), float(gamma))
