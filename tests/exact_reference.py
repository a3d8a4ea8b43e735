"""Test-only references for exact runs, in Fraction arithmetic.

Coefficients that are exact by definition (a prefix, then a zero, constant
or geometric tail) make every term a_n * gamma**n / n! an exact rational.
These helpers sum such terms as Fractions, round once with float(), which
rounds a Fraction correctly, and rebuild the eps contract of infinite sums
on top: where the float bound misses eps, sum exactly, re-plan the tail to
eps minus half an ulp, and raise PrecisionUnattainable only when half an
ulp alone reaches eps.
"""

import math
from fractions import Fraction

from taylormeasure import (
    CoefficientSequence,
    ConstantTail,
    GeometricTail,
    MeasureValue,
    NonFiniteResult,
    PrecisionUnattainable,
    ZeroTail,
)

EXACT_FROM = 170  # runs past this last index are summed exactly from the start
EXACT_CAP = 5000  # ... up to this one
EXACT_BITS = 24   # ... when their numerators are at most this long
TINY = 2.0 ** -1074


def is_exact(seq):
    return isinstance(seq, CoefficientSequence) and isinstance(
        seq.tail, (ZeroTail, ConstantTail, GeometricTail))


def ratio(seq):
    """The ratio of a geometric tail, 1 for the other exact tails."""
    return Fraction(seq.tail.ratio) if isinstance(seq.tail, GeometricTail) else Fraction(1)


def numerator_bits(x, y):
    """The bit length of the longer numerator of the dyadic rationals x and
    y over their common power of two."""
    k = max(x.denominator.bit_length(), y.denominator.bit_length()) - 1
    return max(abs(x.numerator * (2 ** k // x.denominator)).bit_length(),
               abs(y.numerator * (2 ** k // y.denominator)).bit_length())


def bits(seq, gamma):
    """How long the numerators of seq's exact run at gamma are: gamma's,
    and gamma * ratio's for the tail."""
    x = Fraction(gamma)
    return numerator_bits(x, x * ratio(seq))


def rho_bits(seq1, gamma1, seq2, gamma2):
    """bits() of the inner product's summand: gamma1 * gamma2, and times
    both ratios for the tail."""
    x = Fraction(gamma1) * Fraction(gamma2)
    return numerator_bits(x, x * ratio(seq1) * ratio(seq2))


def coefficient(seq, n):
    """a_n exactly: a geometric tail is scale * ratio**n, not its float."""
    if n < len(seq.prefix):
        return Fraction(seq.prefix[n])
    t = seq.tail
    if isinstance(t, ZeroTail):
        return Fraction(0)
    if isinstance(t, ConstantTail):
        return Fraction(t.value)
    return Fraction(t.scale) * Fraction(t.ratio) ** n


def term(seq, gamma, n):
    return coefficient(seq, n) * Fraction(gamma) ** n / math.factorial(n)


def rho_term(seq1, gamma1, seq2, gamma2, n):
    """n! p1(n) p2(n), the inner product's summand."""
    x = Fraction(gamma1) * Fraction(gamma2)
    return coefficient(seq1, n) * coefficient(seq2, n) * x ** n / math.factorial(n)


def part_sum(terms, part):
    """The exact part of a list of Fraction terms: "signed", "variation",
    "pos" or "neg" (the negated sum of the negative terms)."""
    if part == "variation":
        terms = [abs(t) for t in terms]
    elif part == "pos":
        terms = [t for t in terms if t > 0]
    elif part == "neg":
        terms = [-t for t in terms if t < 0]
    # over one common denominator, far faster than Fraction's pairwise sums:
    # its odd part grows by an lcm only where a term's does not divide it
    twos, odd = 0, 1
    for t in terms:
        d = t.denominator
        k = (d & -d).bit_length() - 1
        twos = max(twos, k)
        if odd % (d >> k):
            odd = math.lcm(odd, d >> k)
    den = odd << twos
    return Fraction(sum(t.numerator * (den // t.denominator) for t in terms), den)


def half_ulp(x):
    """The error bound of float(x), a correctly rounded exact x: half an
    ulp, one subnormal unit where half of one is not a float, 0 if exact."""
    if x == 0:
        return 0.0
    u = math.ulp(float(x))
    return 0.5 * u if u > TINY else TINY


def up(x):
    """The smallest float >= the rational x."""
    f = float(x)
    return math.nextafter(f, math.inf) if Fraction(f) < x else f


def down(x):
    """The largest float <= the rational x."""
    f = float(x)
    return math.nextafter(f, -math.inf) if Fraction(f) > x else f


def rounded(x, tail):
    """(float(x), half an ulp plus tail rounded upward), or NonFiniteResult
    past the float range."""
    try:
        v = float(x)
    except OverflowError:
        return NonFiniteResult
    return MeasureValue(v, up(Fraction(half_ulp(x)) + Fraction(tail)))


def within_eps(term_at, member, plan_at, eps, part, float_sum, run_bits):
    """(outcome, plan) of a sum over an infinite set under the eps contract.

    term_at(n) is the exact term, member(n) says whether n is in the set,
    plan_at(e) plans a tail at e, float_sum(plan) is the float engine's
    (value, abs_error) over that plan, unvalidated, and run_bits the length
    of the run's numerators (bits, rho_bits). ``plan`` is the last plan the
    exact path summed, or None when the float sum is the outcome.
    """
    plan = plan_at(eps)
    last = plan.last_index
    if not exact_first(last, sum(map(member, range(last + 1))), run_bits):
        value, err = float_sum(plan)
        if not err > eps or plan.last_index > EXACT_CAP:
            return _valid(value, err), None
    while True:
        x = part_sum([term_at(n) for n in range(plan.last_index + 1) if member(n)], part)
        out = rounded(x, plan.tail_bound)
        if not isinstance(out, MeasureValue) or not out.abs_error > eps:
            return out, plan
        half = half_ulp(x)
        if half >= eps:
            return PrecisionUnattainable, plan
        plan = plan_at(down(Fraction(eps) - Fraction(half)))


def exact_first(last, size, run_bits):
    """Whether a run over 0..last holding ``size`` of those indices is
    summed exactly from the start: the last past EXACT_FROM and not past
    EXACT_CAP, more than half of 0..last held, numerators of at most
    EXACT_BITS."""
    return EXACT_FROM < last <= EXACT_CAP and 2 * size > last + 1 and run_bits <= EXACT_BITS


def dense_run(indices, run_bits):
    """Whether a finite set's indices take an exact run: sorted naturals
    whose run is summed exactly from the start (exact_first)."""
    indices = list(indices)
    return bool(indices) and indices[0] >= 0 and exact_first(indices[-1], len(indices), run_bits) \
        and all(a < b for a, b in zip(indices, indices[1:]))


def exact_parts(terms):
    """(value, bound) of each part of the exact terms, rounded once with no
    tail, as exact._ExactSum.part gives them: inf past the float range."""
    out = []
    for part in ("signed", "variation", "pos", "neg"):
        x = part_sum(terms, part)
        try:
            out.append((float(x), half_ulp(x)))
        except OverflowError:
            out.append((math.inf if x > 0 else -math.inf, math.inf))
    return out


def _valid(value, err):
    try:
        return MeasureValue(value, err)
    except NonFiniteResult:
        return NonFiniteResult
