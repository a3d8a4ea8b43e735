"""Signed measures on subsets of the naturals with factorial-weighted terms.

A measure T assigns T(B) = sum_{n in B} a_n * gamma**n / n!. Infinite sets
(the whole of N, or complements of finite sets) go through a certified
truncation plan derived from the coefficient sequence's growth
certificate. Finite sets are summed index by index up to the
certificate's underflow horizon, past which the terms' certified tail is
below the normal float range (kernel.underflow_horizon); like an infinite
sum, this trusts the certificate past the horizon. Every returned value
carries an abs_error combining the tail bound with a roundoff estimate.

One pass (kernel._sum_terms) forms and sums a set's terms once, in one
loop, split by sign: T(B) is pos - neg, |T|(B) is pos + neg, and the
Jordan parts are pos, neg. A long run of terms that are exact by
definition, with short numerators (kernel._exact_first), is summed exactly
in integers instead and each of these is rounded once (exact._ExactSum); on infinite sets such terms make eps a
contract (kernel._sum_within).

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
    Unverified,
    _TermEnvelope,
    finite_sequence,
)


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


def _eval_selected(T: TaylorMeasure, sets: NatSet, eps: float, part: str = "signed",
                   strict: bool = True) -> tuple[kernel._SignSplit | exact._ExactSum, float]:
    """The sign-split pass over T's terms on B that evaluate,
    total_variation and both Jordan parts read, and the tail it leaves out.

    Finite sets stop at the underflow horizon (kernel.underflow_horizon):
    their indices past the first M whose certified tail is at most half
    the smallest normal float are not summed, and that tail's bound,
    2**-1022, is returned. Smaller finite sets, and terms the certificate
    does not bound, are summed in full, with no tail. 'all' sums a
    certified plan. Cofinite sets sum the same plan less the excluded
    indices. Either tail bound serves the signed sum, the variation
    and both parts because it dominates sum |p(n)| over the tail.

    On an infinite set the sum holds the eps contract of kernel._sum_within
    for ``part`` (its plan may then reach past the one at eps), when
    ``strict``.
    """
    seq, gamma = T.coefficients, T.gamma
    if sets.is_finite:
        indices, tail = sets.elements, 0.0
        horizon = indices and kernel.underflow_horizon(seq, gamma, indices[-1])
        if horizon:
            indices = indices[:bisect_right(indices, horizon.last_index)]
            tail = horizon.tail_bound
        exact = kernel._exact_over(indices, kernel._exact_terms, seq, gamma)
        return exact or kernel._sum_terms(seq, gamma, indices), tail
    _require_certificate(seq, "evaluation")
    excluded = sets.elements

    def float_pass(last: int) -> kernel._SignSplit:
        indices = range(last + 1)
        if excluded:
            skip = set(excluded)
            indices = [n for n in indices if n not in skip]
        return kernel._sum_terms(seq, gamma, indices)

    replan = partial(kernel.plan_truncation, seq.certificate, gamma)
    return kernel._sum_within(replan(eps), replan, eps, part, float_pass,
                              partial(kernel._exact_terms, seq, gamma), excluded, strict)


def _part_value(T: TaylorMeasure, sets: NatSet, eps: float, part: str,
                strict: bool = True) -> MeasureValue:
    s, tail = _eval_selected(T, sets, eps, part, strict)
    return MeasureValue(*s.part(part, tail))


def evaluate(T: TaylorMeasure, sets: NatSet, eps: float = 1e-12) -> MeasureValue:
    """T(B) with |returned - exact| <= abs_error (tail bound + roundoff).

    Coefficients that are exact by definition (a prefix, then a zero,
    constant or geometric tail) give exact terms. A run of them is summed
    exactly and rounded once, so abs_error is the tail bound plus half an
    ulp, where its last index passes 170 and gamma, and gamma times a
    geometric tail's ratio, have numerators of at most 24 bits over their
    power of two (kernel._exact_first), and on an infinite B wherever the
    float sum's bound misses eps. On an infinite B with such terms eps is
    a contract: abs_error <= eps, or PrecisionUnattainable is raised
    when half an ulp of the result alone reaches eps. Elsewhere (rule and
    term-backed sequences, log-only coefficients, composites) the float
    sum's abs_error may still exceed eps.

    A finite B stops at the underflow horizon; a bound on its tail,
    2**-1022, joins abs_error. eps does not apply to it."""
    return _part_value(T, sets, eps, "signed")


def taylor_derivative(T: TaylorMeasure, n: int) -> float:
    """The n-th term a_n * gamma**n / n!, i.e. T({n})."""
    return T.term(n)


def total_variation(T: TaylorMeasure, sets: NatSet, eps: float = 1e-12) -> MeasureValue:
    """|T|(B) = sum_{n in B} |p(n)|, the sum of the Jordan parts, with
    the abs_error and the eps contract of evaluate; finite sets are cut
    at the underflow horizon as in evaluate."""
    return _part_value(T, sets, eps, "variation")


@dataclass(frozen=True)
class JordanPair:
    """Decomposition T = positive - negative against the Hahn split
    A+ = {n : p(n) >= 0} (ties assigned to A+).

    positive(B) sums the terms of B that fall in A+, negative(B) sums
    the negated terms of B in A-; the two parts are mutually singular by
    construction. Both read the pass behind evaluate, with its eps
    contract, so on the float path evaluate(B) is positive(B) - negative(B)
    bit for bit; on an exact run (see evaluate) each of the three is the
    correctly rounded value of the same exact sums. On a finite set both
    stop at the underflow horizon, and the terms they sum are split exactly.
    """

    measure: TaylorMeasure

    def hahn_positive_indicator(self, n: int) -> bool:
        return self.measure.term(n) >= 0.0

    def positive(self, sets: NatSet, eps: float = 1e-12) -> MeasureValue:
        return _part_value(self.measure, sets, eps, "pos")

    def negative(self, sets: NatSet, eps: float = 1e-12) -> MeasureValue:
        return _part_value(self.measure, sets, eps, "neg")


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
    coefficient level in general), except that a term below the normal
    range is pulled back within the certificate it would round past
    (_TermEnvelope.within). Operand term errors carry over as
    |alpha| * e1 + |beta| * e2.
    """
    alpha = float(alpha)
    beta = float(beta)
    if alpha == 0.0 and beta == 0.0:
        return zero_measure()
    t1 = T1.term
    t2 = T2.term
    if beta == 0.0:
        combined = (lambda n: alpha * t1(n)) if alpha != 1.0 else t1
    elif alpha == 0.0:
        combined = (lambda n: beta * t2(n)) if beta != 1.0 else t2
    else:
        combined = lambda n: alpha * t1(n) + beta * t2(n)

    term_error = None
    b1, b2 = (kernel._term_errors(T.coefficients, T.gamma) for T in (T1, T2))
    if b1 is not None or b2 is not None:
        weighted = [(abs(w), b) for w, b in ((alpha, b1), (beta, b2)) if b is not None]

        def term_error(n: int) -> float:
            return sum(w * b(n) for w, b in weighted)

    e1 = _TermEnvelope.of(T1.coefficients.certificate, T1.gamma, T1.term).scaled(alpha)
    e2 = _TermEnvelope.of(T2.coefficients.certificate, T2.gamma, T2.term).scaled(beta)
    envelope = e1.add(e2)
    return TaylorMeasure(TermBackedSequence(envelope.within(combined), 1.0,
                                            envelope.to_certificate(1.0), term_error), 1.0)


def from_term_function(
    rule: Callable[[int], float], certificate: kernel.GrowthCertificate, gamma: float = 1.0
) -> TaylorMeasure:
    """Measure with prescribed term function p(n) = rule(n), presented at
    ``gamma`` (so a_n = n! * rule(n) / gamma**n)."""
    return TaylorMeasure(TermBackedSequence(rule, float(gamma), certificate), float(gamma))
