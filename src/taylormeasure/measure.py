"""Signed measures on subsets of the naturals with factorial-weighted terms.

A measure T assigns T(B) = sum_{n in B} a_n * gamma**n / n!. Infinite sets
(the whole of N, or complements of finite sets) go through a certified
truncation plan derived from the coefficient sequence's growth
certificate. Finite sets are summed index by index up to the
certificate's underflow horizon, past which the terms' certified tail is
below the normal float range (kernel.underflow_horizon); like an infinite
sum, this trusts the certificate past the horizon. Every returned value
carries an abs_error combining the tail bound with a roundoff estimate.

Every set sum, the inner products, normalizers and pmf set probabilities
of the other modules included, goes through _set_sum, which reads a
summand (kernel._Terms for a measure), sums it once and is the one place
that chooses the route: the float pass, an exact run from the start, or,
on an infinite set, the exact re-sum that holds the eps contract. The
float pass (kernel._sum_terms) is split by sign: T(B) is pos - neg,
|T|(B) is pos + neg, and the Jordan parts are pos, neg. A long run of
terms that are exact by definition, with short numerators
(kernel._exact_first), is summed exactly in integers instead and each of
these is rounded once (exact._ExactSum).

Measures are identified semantically with their term function
p(n) = a_n * gamma**n / n!; the (gamma, a) pair is just a presentation.
Algebraic results therefore come back in the canonical gamma = 1
presentation backed directly by the combined term function.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Iterator

from . import kernel
from .errors import NonFiniteResult, PrecisionUnattainable
from .kernel import (
    SequenceLike,
    SignedLogTerm,
    TermBackedSequence,
    _TermEnvelope,
    _value_type,
    finite_sequence,
)


@_value_type
class NatSet:
    """A subset of N that is finite, cofinite, or everything.

    ``elements`` is a sorted tuple of distinct naturals: the members for a
    finite set, the non-members for a cofinite one. A cofinite set with
    nothing excluded normalizes to kind 'all'.
    """

    def __init__(self, kind: str, elements: tuple[int, ...] = ()):
        if kind not in ("finite", "cofinite", "all"):
            raise ValueError(f"NatSet.kind must be finite|cofinite|all, got {kind!r}")
        try:
            ints = [int(n) for n in elements]
        except (ValueError, OverflowError):  # nan or an infinity
            ints = [-1]
        if any(i < 0 or i != n for i, n in zip(ints, elements)):
            raise ValueError("NatSet elements must be naturals")
        elems = tuple(sorted(set(ints)))
        if kind == "all" and elems:
            raise ValueError("an 'all' set carries no elements")
        object.__setattr__(self, "kind", "all" if kind == "cofinite" and not elems else kind)
        object.__setattr__(self, "elements", elems)

    @classmethod
    def finite(cls, elements: Iterable[int]) -> "NatSet":
        return cls("finite", tuple(elements))

    @classmethod
    def cofinite(cls, excluded: Iterable[int]) -> "NatSet":
        return cls("cofinite", tuple(excluded))

    @classmethod
    @functools.cache
    def all(cls) -> "NatSet":
        """All of N: one shared instance, since a NatSet is immutable."""
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


@_value_type
class MeasureValue:
    """A computed set value together with a certified absolute error.

    Both must be finite: a value or bound beyond the float range raises
    NonFiniteResult.
    """

    def __init__(self, value: float, abs_error: float):
        if not (math.isfinite(value) and math.isfinite(abs_error)):
            raise NonFiniteResult(f"result {value} with error bound {abs_error} is not finite")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "abs_error", abs_error)


@_value_type
class TaylorMeasure:
    """T(B) = sum_{n in B} a_n * gamma**n / n! for a coefficient sequence a."""

    def __init__(self, coefficients: SequenceLike, gamma: float, label: str | None = None):
        if not math.isfinite(gamma):
            raise ValueError(f"TaylorMeasure.gamma must be finite, got {gamma}")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "label", label)

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


def _set_sum(terms, sets: NatSet, eps: float, part: str = "signed",
             strict: bool = True) -> tuple[kernel._SignSplit | exact._ExactSum, float]:
    """The one set sum: terms (kernel._Terms, or geometry._RhoTerms)
    summed on B, and the tail bound left out, which serves every part.

    A finite set stops at the terms' underflow horizon, past which their
    certified tail is below the normal range, and returns that tail's bound,
    2**-1022 (kernel.underflow_horizon); where there is no horizon it is
    summed in full, with no tail, and a long dense run of exact terms is
    summed exactly (kernel._exact_over).

    An infinite set sums 0..terms.plan(eps).last_index less its excluded
    indices: exactly (exact._ExactSum) from the start where
    kernel._exact_first takes the run, and otherwise by terms.sum, the
    float pass. When ``strict``, this holds the eps contract for ``part``:
    where its bound (tail plus roundoff) exceeds eps and terms.exact gives
    the terms exactly, the run is summed exactly, the tail re-planned to eps
    minus half an ulp of the result, and the run extended from where it
    stopped, until the bound meets eps; PrecisionUnattainable is raised when
    half an ulp of the result alone reaches eps. Elsewhere (terms that are
    not exact, runs past kernel._EXACT_CAP) the bound may still exceed eps.
    A caller that is not ``strict`` uses eps as a truncation target only:
    its run is summed once, exactly or not, and never re-planned.
    """
    if math.isnan(eps):
        raise ValueError("eps must not be nan")
    if sets.is_finite:
        indices, tail = sets.elements, 0.0
        horizon = indices and terms.horizon(indices[-1])
        if horizon:
            indices = indices[:bisect_right(indices, horizon.last_index)]
            tail = horizon.tail_bound
        return kernel._exact_over(indices, terms) or terms.sum(indices), tail
    excluded = sets.elements
    plan = terms.plan(eps)
    last = plan.last_index
    skipped = sum(n <= last for n in excluded) if excluded else 0
    found = kernel._exact_first(last, last + 1 - skipped, terms)
    if found is None:
        indices = range(last + 1)
        if excluded:
            skip = set(excluded)
            indices = [n for n in indices if n not in skip]
        s = terms.sum(indices)
        # a bound that is nan (a term that overflowed) misses eps too
        if not strict or s.part(part, plan.tail_bound)[1] <= eps or last > kernel._EXACT_CAP:
            return s, plan.tail_bound
        found = terms.exact
        if found is None:
            return s, plan.tail_bound
    from .exact import _ExactSum, _add_up, _sub_down

    s = _ExactSum(found, last, excluded)
    while strict:
        v, half = s.rounded(part)
        if not (math.isfinite(v) and _add_up(half, plan.tail_bound) > eps):
            break
        if half >= eps:
            raise PrecisionUnattainable(
                f"half an ulp of the correctly rounded result {v} is {half}, "
                f"not below eps={eps}"
            )
        plan = terms.plan(_sub_down(eps, half))
        s.extend(plan.last_index)
    return s, plan.tail_bound


def _part_value(T: TaylorMeasure, sets: NatSet, eps: float, part: str,
                strict: bool = True) -> MeasureValue:
    s, tail = _set_sum(kernel._Terms(T.coefficients, T.gamma), sets, eps, part, strict)
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


@_value_type
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

    def __init__(self, measure: TaylorMeasure):
        object.__setattr__(self, "measure", measure)

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
    (_TermEnvelope.within). The terms are formed a run of indices at a
    time (kernel._TermRun): each operand's terms over the run are one
    block (kernel._term_block), and a single term is the run over that
    index. The run's memo keeps every term formed, so evaluating the
    result on several sets, or for several parts, forms each operand term
    once, with the same bits. Operand term errors carry over as
    |alpha| * e1 + |beta| * e2.
    """
    alpha = float(alpha)
    beta = float(beta)
    if alpha == 0.0 and beta == 0.0:
        return zero_measure()
    t1 = functools.partial(kernel._term_block, T1.coefficients, T1.gamma, errors=False)
    t2 = functools.partial(kernel._term_block, T2.coefficients, T2.gamma, errors=False)
    if beta == 0.0:
        combined = (lambda ns: [alpha * x for x in t1(ns)]) if alpha != 1.0 else t1
    elif alpha == 0.0:
        combined = (lambda ns: [beta * y for y in t2(ns)]) if beta != 1.0 else t2
    else:
        combined = lambda ns: [alpha * x + beta * y for x, y in zip(t1(ns), t2(ns))]

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
