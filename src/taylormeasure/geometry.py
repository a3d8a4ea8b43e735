"""Hilbert-space geometry for signed Taylor measures.

The inner product pairs two measures index by index,

    rho(T1, T2)(B) = sum_{n in B} n! * p_T1(n) * p_T2(n),

where p_T(n) = a_n * gamma**n / n! is the term function.  Written in the
(gamma, a) presentation this is sum a_{n,1} a_{n,2} (gamma_1 gamma_2)**n / n!,
but the n!-weighted form only depends on the term functions, so rho is
invariant under re-presentation of the same measure.  It induces the norm
``sqrt(rho(T, T))`` and the distance ``norm(T1 - T2)``.

rho is a set sum like T(B): each summand comes with an error bound
(_rho_summand), and measure._set_sum sums the pairs by the kernel's one
pass (kernel._sum_terms), or exactly where it would so sum exact terms.

On infinite index sets convergence is certified through the operands' growth
certificates: bounded or geometric-envelope coefficients give summands below
C * R**n / n!, which is summable for every R.  Factorially growing
coefficients make the n!-weighted products diverge, so those operands are
rejected on infinite sets.

``rational_approximation`` witnesses separability: every certified measure is
within any positive rho-distance of a measure with finitely many dyadic
rational coefficients at gamma = 1.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, partial

from .errors import NegativeRadicand
from .kernel import (
    _FACT,
    _LOG_SAFE,
    _MAX_FLOAT_FACTORIAL,
    _TINY,
    _ULP,
    TruncationPlan,
    _SignSplit,
    _TermEnvelope,
    _Terms,
    _exp_signed,
    _finite_terms,
    _signed_log,
    _sum_terms,
    _term_block,
    _term_errors,
    finite_sequence,
    plan_truncation,
)
from .measure import (
    MeasureValue,
    NatSet,
    TaylorMeasure,
    _part_value,
    _set_sum,
    linear_combination,
)


def _rho_envelope(T1: TaylorMeasure, T2: TaylorMeasure) -> _TermEnvelope:
    """Envelope of the rho summand n! * p_T1(n) * p_T2(n) on an infinite set."""
    return _TermEnvelope.of(T1.coefficients.certificate, T1.gamma).rho(
        _TermEnvelope.of(T2.coefficients.certificate, T2.gamma)
    )


def _rho_summand(T1: TaylorMeasure, T2: TaylorMeasure, n: int,
                 terms=None) -> tuple[float, float]:
    """n! * p_T1(n) * p_T2(n) with a bound on its error: roundoff and the
    operands' term errors.

    Up to n = 170 the operands' terms are formed in linear space, or read
    from ``terms`` (both operands' (term, error) at n, from a block), and
    their product too while it stays in the normal range. Past that, and
    where the product leaves that range, each operand is formed once in
    signed-log form, with one lgamma(n + 1) shared by both; that form's
    bound counts one subnormal unit (_TINY), so a summand that underflows
    is not 0 ± 0. When T2 is T1 (a norm) the one operand is formed once.
    """
    if terms is None and n <= _MAX_FLOAT_FACTORIAL:
        terms = _operand_terms(T1, T2, n)
    if terms is not None:
        (v1, e1), (v2, e2) = terms
        if v1 != 0.0 and v2 != 0.0:
            f = _FACT[n]
            l1 = math.log(abs(v1))
            l2 = math.log(abs(v2))
            lf = math.log(f)
            if abs(l1 + lf) < _LOG_SAFE and abs(l1 + l2 + lf) < _LOG_SAFE:
                v = (f * v1) * v2
                err = f * (abs(v1) * e2 + abs(v2) * e1 + e1 * e2) + 4.0 * _ULP * abs(v)
                return v, err
    lf = math.lgamma(n + 1)
    s1, l1 = _signed_log(T1.coefficients, T1.gamma, n, lf)
    s2, l2 = (s1, l1) if T2 is T1 else _signed_log(T2.coefficients, T2.gamma, n, lf)
    s = s1 * s2
    if s == 0:
        # a zero operand is exact but for its term error: the operands'
        # whole errors bound the product (a nan coefficient reads as zero
        # here and raises in _operand_terms)
        (v1, e1), (v2, e2) = terms or _operand_terms(T1, T2, n)
        return 0.0, _cross_error(lf, l1, l2, e1, e2)
    log_mag = lf + l1 + l2
    v = _exp_signed(s, log_mag)
    # one subnormal unit, as kernel._log_term_and_err adds to a term: a
    # summand below the normal range rounds by up to half of one, even to 0
    err = abs(v) * (abs(l1) + abs(l2) + lf + 16.0) * 2.0 ** -50 + _TINY
    b1, b2 = (bias(n) if bias else 0.0
              for bias in (_term_errors(T.coefficients, T.gamma) for T in (T1, T2)))
    if b1 or b2:
        err += _cross_error(lf, l1, l2, b1, b2)
    return v, err


def _operand_terms(T1: TaylorMeasure, T2: TaylorMeasure, n: int):
    """Both operands' (term, error) at n; one operand when T2 is T1."""
    t1 = _term_block(T1.coefficients, T1.gamma, (n,))[0]
    return t1, (t1 if T2 is T1 else _term_block(T2.coefficients, T2.gamma, (n,))[0])


def _cross_error(lf: float, l1: float, l2: float, e1: float, e2: float) -> float:
    """n! (|p1| e2 + |p2| e1 + e1 e2), each product formed in logs: how far
    n! p1 p2 may move when each term p moves by at most its e, given
    lf = log n! and l = log|p| (-inf for a zero term)."""
    le1 = math.log(e1) if e1 else -math.inf
    le2 = math.log(e2) if e2 else -math.inf
    return (_exp_signed(1, lf + l1 + le2) + _exp_signed(1, lf + l2 + le1)
            + _exp_signed(1, lf + le1 + le2))


def _rho_pairs(T1, T2, indices):
    """The rho summands over increasing naturals with their error bounds:
    _rho_summand's from one block of each operand's terms up to n = 170
    (kernel._term_block; one block when T2 is T1), its log form past that.
    They stop after the first that is not finite, as no later one makes
    the sum or its bound finite again."""
    k = bisect_right(indices, _MAX_FLOAT_FACTORIAL)
    head = indices[:k]
    b1 = _term_block(T1.coefficients, T1.gamma, head)
    b2 = b1 if T2 is T1 else _term_block(T2.coefficients, T2.gamma, head)
    for i, n in enumerate(indices):
        v, e = _rho_summand(T1, T2, n, (b1[i], b2[i]) if i < k else None)
        yield v, e
        if not (math.isfinite(v) and math.isfinite(e)):
            return


class _RhoTerms:
    """The rho summands n! * p_T1(n) * p_T2(n), summed as kernel._Terms.
    They are exact when both operands' terms are: the product of two
    constant or geometric tails is the constant scale1 * scale2 at
    gamma1 * gamma2 * ratio1 * ratio2."""

    def __init__(self, T1: TaylorMeasure, T2: TaylorMeasure):
        self.T1, self.T2 = T1, T2

    def plan(self, eps: float) -> TruncationPlan:
        pair = _rho_envelope(self.T1, self.T2)
        if pair.last is not None:
            return TruncationPlan(pair.last, 0.0)
        return plan_truncation(pair.to_certificate(1.0), 1.0, eps)

    def horizon(self, last: int) -> None:
        return None

    def sum(self, indices) -> _SignSplit:
        return _sum_terms(None, 0.0, indices, pairs=_rho_pairs(self.T1, self.T2, indices))

    @cached_property
    def exact(self) -> exact._ExactTerms | None:
        e1 = _Terms(self.T1.coefficients, self.T1.gamma).exact
        e2 = None if e1 is None else _Terms(self.T2.coefficients, self.T2.gamma).exact
        return None if e2 is None else e1.times(e2)


def _rho(T1: TaylorMeasure, T2: TaylorMeasure, B: NatSet, eps: float,
         strict: bool = True) -> MeasureValue:
    """rho(T1, T2)(B), with eps a contract when ``strict`` (measure._set_sum)."""
    s, tail = _set_sum(_RhoTerms(T1, T2), B, eps, "signed", strict)
    return MeasureValue(*s.part("signed", tail))


def inner_product(
    T1: TaylorMeasure, T2: TaylorMeasure, B: NatSet, eps: float = 1e-12
) -> MeasureValue:
    """Evaluate rho(T1, T2)(B) = sum_{n in B} n! * p_T1(n) * p_T2(n).

    Finite sets sum over the listed indices.  Infinite sets use both
    certificates to plan a truncation whose tail is below eps; abs_error is
    that tail, the summands' own error bounds and 2u (u = 2**-53) times
    the sum of their magnitudes, as for evaluate's terms.

    When both operands' coefficients are exact by definition (a prefix,
    then a zero, constant or geometric tail) the summands are exact, the
    terms of gamma1 * gamma2 (times both ratios on the tail), and are summed
    exactly and rounded once where evaluate sums its terms so (a long, dense
    run with short numerators, or a float sum whose bound misses eps on an
    infinite set), with abs_error the tail bound plus half an ulp. On an
    infinite set eps is then a contract: abs_error <= eps, or
    PrecisionUnattainable is raised when half an ulp of the result alone
    reaches eps. Elsewhere abs_error may still exceed eps.

    Raises DivergenceUnknown on an infinite set when either operand lacks a
    convergence-certifying growth certificate.
    """
    return _rho(T1, T2, B, eps)


def norm(T: TaylorMeasure, B: NatSet, eps: float = 1e-12) -> MeasureValue:
    """The induced norm sqrt(rho(T, T)(B)).

    The radicand is inner_product(T, T, B, eps), summed exactly where that
    sum is, with eps as its truncation target but not as a contract: its
    abs_error may exceed eps, and no PrecisionUnattainable is raised.

    The radicand is a sum of squares, so a negative value can only come from
    accumulated roundoff; within abs_error of zero it is treated as zero, and
    beyond that NegativeRadicand is raised.
    abs_error is e / (sqrt(v) + sqrt(v - e)), for the radicand v and its
    bound e, plus half an ulp of the rounded sqrt(v), rounded upward
    (sqrt(e) where v is 0).
    """
    q = _rho(T, T, B, eps, False)
    v, e = q.value, q.abs_error
    if v < 0.0:
        if -v <= e:
            return MeasureValue(0.0, math.nextafter(math.sqrt(e), math.inf))
        raise NegativeRadicand(
            f"rho(T, T)(B) = {v} is negative beyond its error bound {e}"
        )
    # the float denom may sit 4.5u above the exact one: it is taken 8u lower
    r = math.sqrt(v)
    denom = (r + math.sqrt(max(v - e, 0.0))) * (1.0 - 8.0 * _ULP)
    err = math.nextafter(e / denom if denom > 0.0 else math.sqrt(e), math.inf)
    return MeasureValue(r, math.nextafter(err + 0.5 * math.ulp(r), math.inf))


def distance(
    T1: TaylorMeasure, T2: TaylorMeasure, B: NatSet, eps: float = 1e-12
) -> MeasureValue:
    """rho-distance ||T1 - T2||: the norm of the term-wise difference."""
    return norm(linear_combination(1.0, T1, -1.0, T2), B, eps)


def _dyadic_scale_bits(log_delta: float) -> int:
    """Smallest k with 2**-k <= delta/2, floored at 40 bits."""
    k = math.ceil(-log_delta / math.log(2.0)) + 1
    return max(40, k)


def rational_approximation(
    T: TaylorMeasure, tol: float, N_support: int | None = None
) -> TaylorMeasure:
    """A finite-support dyadic-rational measure within rho-distance tol of T.

    The truncation plan spends tol**2 / 2 on the certified rho-tail; the
    remaining budget is split evenly across the retained indices, and each
    term value is rounded to a dyadic rational (denominator 2**k, k >= 40)
    fine enough for its share.  The result is presented at gamma = 1, so its
    coefficients are the rounded terms scaled by n!.

    N_support, when given, caps the largest retained index; if the certified
    tail at that cap exceeds the budget the tolerance is unattainable and a
    ValueError is raised.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    pair = _rho_envelope(T, T)
    if pair.last is not None:
        if pair.last < 0:
            return TaylorMeasure(finite_sequence(()), 1.0, label=T.label)
        last = pair.last
    else:
        last = plan_truncation(pair.to_certificate(1.0), 1.0, tol * tol / 2.0).last_index
    if N_support is not None and last > N_support:
        raise ValueError(
            f"support cap {N_support} cannot meet tolerance {tol}: the "
            f"certified tail needs terms through index {last}"
        )
    from fractions import Fraction

    count = last + 1
    log_tol = math.log(tol)
    rounded: dict[int, Fraction] = {}
    overflow = False
    for n, p in enumerate(_term_block(T.coefficients, T.gamma, range(count), errors=False)):
        # delta_n = tol / sqrt(2 * count * n!) keeps sum n! * delta_n**2
        # at tol**2 / 2
        log_delta = log_tol - 0.5 * (math.log(2.0 * count) + math.lgamma(n + 1))
        if p == 0.0 or math.log(abs(p)) < log_delta - math.log(2.0):
            continue
        k = _dyadic_scale_bits(log_delta)
        q_n = Fraction(round(Fraction(p) * 2 ** k), 2 ** k)
        if q_n == 0:
            continue
        rounded[n] = q_n
        a_n = q_n * math.factorial(n)
        if not (-(2.0 ** 1023) < a_n < 2.0 ** 1023):
            overflow = True
    if not rounded:
        return TaylorMeasure(finite_sequence(()), 1.0, label=T.label)
    q = [rounded.get(n, 0) for n in range(max(rounded) + 1)]
    if overflow:
        return TaylorMeasure(_finite_terms(map(float, q)), 1.0, label=T.label)
    prefix = [float(q_n * math.factorial(n)) for n, q_n in enumerate(q)]
    return TaylorMeasure(finite_sequence(prefix), 1.0, label=T.label)


@dataclass(frozen=True)
class HilbertAxiomReport:
    """Worst-case residuals over all sampled pairs.

    Residuals for symmetry, bilinearity, and the rho-parallelogram identity
    are relative to max(1, |lhs|, |rhs|); the Cauchy-Schwarz slack is the
    minimum of (rho11 * rho22 - rho12**2) / max(1, rho11 * rho22), which
    should never be meaningfully negative.  The total-variation parallelogram
    residual is absolute: it is expected to be LARGE for generic pairs,
    demonstrating that the variation norm is not induced by any inner
    product, while the rho norm satisfies the identity to roundoff.
    """

    pairs_checked: int
    symmetry_max: float
    bilinearity_max: float
    cauchy_schwarz_min_slack: float
    parallelogram_rho_max: float
    parallelogram_tv_max: float


def _rel(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def hilbert_axiom_report(
    samples: list[TaylorMeasure], B: NatSet, eps: float = 1e-12, seed: int = 0
) -> HilbertAxiomReport:
    """Check the inner-product axioms on every pair from samples.

    For each unordered pair the report accumulates: the symmetry residual
    |rho(T1,T2) - rho(T2,T1)|, a bilinearity residual against random weights,
    the Cauchy-Schwarz slack, the parallelogram residual for the rho norm,
    and the parallelogram residual for the total-variation norm on B. The
    values are read at eps as norm reads its radicand: eps is not a
    contract here.
    """
    import random

    if len(samples) < 2:
        raise ValueError("need at least two sample measures")
    rng = random.Random(seed)
    tv = partial(_part_value, sets=B, eps=eps, part="variation", strict=False)

    rho = partial(_rho, B=B, eps=eps, strict=False)
    rho_self = [rho(T, T).value for T in samples]
    tv_self = [tv(T).value for T in samples]
    sym = 0.0
    bil = 0.0
    cs_slack = math.inf
    par_rho = 0.0
    par_tv = 0.0
    pairs = 0
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            Ti, Tj = samples[i], samples[j]
            pairs += 1
            r_ij = rho(Ti, Tj).value
            r_ji = rho(Tj, Ti).value
            sym = max(sym, _rel(r_ij, r_ji))

            alpha = rng.uniform(-2.0, 2.0)
            beta = rng.uniform(-2.0, 2.0)
            mixed = linear_combination(alpha, Ti, beta, Tj)
            lhs = rho(mixed, Tj).value
            rhs = alpha * r_ij + beta * rho_self[j]
            bil = max(bil, _rel(lhs, rhs))

            prod = rho_self[i] * rho_self[j]
            cs_slack = min(cs_slack, (prod - r_ij * r_ij) / max(1.0, prod))

            plus = linear_combination(1.0, Ti, 1.0, Tj)
            minus = linear_combination(1.0, Ti, -1.0, Tj)
            lhs = rho(plus, plus).value + rho(minus, minus).value
            rhs = 2.0 * (rho_self[i] + rho_self[j])
            par_rho = max(par_rho, _rel(lhs, rhs))

            tv_lhs = tv(plus).value ** 2 + tv(minus).value ** 2
            tv_rhs = 2.0 * (tv_self[i] ** 2 + tv_self[j] ** 2)
            par_tv = max(par_tv, abs(tv_lhs - tv_rhs))
    return HilbertAxiomReport(
        pairs_checked=pairs,
        symmetry_max=sym,
        bilinearity_max=bil,
        cauchy_schwarz_min_slack=cs_slack,
        parallelogram_rho_max=par_rho,
        parallelogram_tv_max=par_tv,
    )


# the public names are listed in the package's table, and bound there as
# this module loads
from . import _bind  # noqa: E402

__all__ = _bind(globals())
