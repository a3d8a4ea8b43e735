"""Taylor-coefficient representations of analytic functions.

An analytic function is carried as the sequence of its derivatives at a
center, so its value at x is the total mass of the Taylor measure with
gamma = x - center. This module builds such representations for a small
set of builtins, evaluates them with certified truncation error, and
closes them under multiplication, powers, linear combination, and
recentering (the Taylor shift). Grid sup-distance and interval L^p
norms give measurable density diagnostics on compact intervals. A grid
call makes one truncation plan, at the interval's reach (its largest
|x - center|), fetches the terms at that reach once and sums every point
by Horner's rule to the degree that point needs, with a certified bound
per point (_horner_grid), so its values are not bit-equal to eval_rep's;
the bounds are not yet reported, but a point whose bound exceeds both eps
and 1e-6 of its value is summed again as eval_rep sums it, and refused
(PrecisionUnattainable) if that sum's bound does too.

Internally the arithmetic runs on the normalized values d_n = a_n / n!
(the terms at gamma = 1), which stay representable even when the raw
derivatives grow factorially; results are stored as term-backed
sequences so the factorials never round-trip through floats. A linear
combination is measure.linear_combination of the operands' measures at
gamma = 1; a product sums each d_l once, over the indices that both
operands' supports reach. Every run of terms read here (a grid, a
truncation, a product, a shift) is fetched by blocks (kernel._term_block).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cache, partial
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import (
    CenterMismatch,
    DivergenceUnknown,
    NonFiniteResult,
    OutOfDomain,
    PrecisionUnattainable,
    QuadratureStall,
)
from .kernel import (
    Bounded,
    FactorialGeometric,
    FiniteSupport,
    SequenceLike,
    TermBackedSequence,
    _FACT,
    _MAX_FLOAT_FACTORIAL,
    _MIN_NORMAL,
    _TINY,
    _TermEnvelope,
    _TermRun,
    _ULP,
    _Terms,
    _finite_terms,
    _require_certificate,
    _term_block,
    _term_errors,
    _value_type,
    constant_sequence,
    finite_sequence,
    plan_truncation,
    rule_sequence,
    term_value,
)
from .measure import MeasureValue, NatSet, TaylorMeasure, _set_sum, linear_combination

_SHIFT_CAP = 10 ** 6
# a grid point's certified error may exceed eps up to this share of |f(x)|
_GRID_SHARE = 1e-6


@_value_type
class AnalyticRep:
    """f represented by its derivative sequence a_n = f^(n)(center).

    radius_hint bounds the evaluation region |x - center| < radius_hint;
    it is declared data, not an inferred radius of convergence.
    """

    def __init__(self, center: float, coefficients: SequenceLike, radius_hint: float):
        if not radius_hint > 0.0:
            raise ValueError("radius_hint must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "radius_hint", radius_hint)


def _d_envelope(rep: AnalyticRep) -> _TermEnvelope:
    """Envelope of d_n = a_n / n!, the terms at gamma = 1."""
    seq = rep.coefficients
    return _TermEnvelope.of(seq.certificate, 1.0, partial(term_value, seq, 1.0))


def _no_error(n: int) -> float:
    return 0.0


def _prefix(block: Callable[[range], Iterable[float]]) -> Callable[[int], list[float]]:
    """i -> a list that holds block's values at 0..i, and more when it has
    been asked for more: each call that needs more indices extends it by
    one block."""
    values: list[float] = []

    def upto(i: int) -> list[float]:
        if i >= len(values):
            values.extend(block(range(len(values), i + 1)))
        return values

    return upto


def _carried(x: float, y: float, ex: float, ey: float) -> float:
    """The error that a product x * y carries from its factors' errors."""
    return abs(x) * ey + ex * (abs(y) + ey)


# ---------------------------------------------------------------------------
# builtins


def exp_rep(center: float = 0.0) -> AnalyticRep:
    """The exponential: a_n = e^center for every n."""
    return AnalyticRep(center, constant_sequence(math.exp(center)), math.inf)


def sin_rep(center: float = 0.0) -> AnalyticRep:
    """The sine: derivatives cycle through sin, cos, -sin, -cos at center."""
    cycle = (math.sin(center), math.cos(center), -math.sin(center), -math.cos(center))
    return AnalyticRep(
        center, rule_sequence(lambda n: cycle[n % 4], Bounded(1.0)), math.inf
    )


def cos_rep(center: float = 0.0) -> AnalyticRep:
    """The cosine: derivatives cycle through cos, -sin, -cos, sin at center."""
    cycle = (math.cos(center), -math.sin(center), -math.cos(center), math.sin(center))
    return AnalyticRep(
        center, rule_sequence(lambda n: cycle[n % 4], Bounded(1.0)), math.inf
    )


def _taylor_shift_monomials(coeffs: Sequence[float], c: float) -> list[float]:
    """Coefficients of sum coeffs[j] x^j rewritten in powers of (x - c)."""
    s = [float(v) for v in coeffs]
    for k in range(len(s)):
        for j in range(len(s) - 2, k - 1, -1):
            s[j] += c * s[j + 1]
    return s


def polynomial_rep(coeffs: Sequence[float], center: float = 0.0) -> AnalyticRep:
    """Polynomial sum coeffs[j] x^j, expanded around center.

    The derivative sequence a_k = k! s_k comes from the exact finite
    Taylor shift of the monomial coefficients, so it has finite support.
    """
    shifted = _taylor_shift_monomials(coeffs, center)
    while shifted and shifted[-1] == 0.0:
        shifted.pop()
    deg = len(shifted) - 1
    if deg <= _MAX_FLOAT_FACTORIAL:
        seq: SequenceLike = finite_sequence(
            [_FACT[k] * shifted[k] for k in range(deg + 1)]
        )
    else:
        seq = _finite_terms(shifted)
    return AnalyticRep(center, seq, math.inf)


def geometric_rep(center: float = 0.0) -> AnalyticRep:
    """f(x) = 1/(1 - x) around a center with |center| < 1.

    a_n = n! / (1 - center)^(n+1); the radius hint 1 - |center| is the
    conservative symmetric distance (the pole sits at x = 1).
    """
    if not abs(center) < 1.0:
        raise OutOfDomain(
            f"the geometric series needs |center| < 1, got {center}"
        )
    base = 1.0 / (1.0 - center)
    log_base = math.log(base)

    def rule(n: int) -> float:
        if n <= _MAX_FLOAT_FACTORIAL:
            v = _FACT[n] * base ** (n + 1)
            if math.isfinite(v):
                return v
        return math.inf

    def log_rule(n: int) -> tuple[int, float]:
        return 1, math.lgamma(n + 1) + (n + 1) * log_base

    seq = rule_sequence(rule, FactorialGeometric(base, base, 0), log_rule=log_rule)
    return AnalyticRep(center, seq, 1.0 - abs(center))


_BUILTINS = {
    "exp": exp_rep,
    "sin": sin_rep,
    "cos": cos_rep,
    "geometric": geometric_rep,
}


def builtin(name: str, center: float = 0.0, coeffs: Sequence[float] | None = None) -> AnalyticRep:
    """Construct a named representation: exp, sin, cos, geometric, or
    polynomial (which needs its monomial coefficients)."""
    if name == "polynomial":
        if coeffs is None:
            raise ValueError("polynomial needs its coefficient list")
        return polynomial_rep(coeffs, center)
    if name in _BUILTINS:
        return _BUILTINS[name](center)
    raise ValueError(f"unknown builtin {name!r}")


# ---------------------------------------------------------------------------
# evaluation


def _require_inside(rep: AnalyticRep, x: float) -> float:
    gamma = x - rep.center
    if not abs(gamma) < rep.radius_hint:
        raise OutOfDomain(
            f"x = {x} is outside |x - {rep.center}| < {rep.radius_hint}"
        )
    return gamma


def eval_rep(rep: AnalyticRep, x: float, eps: float = 1e-12) -> MeasureValue:
    """f(x) as the total measure mass at gamma = x - center, within eps.

    The contract is evaluate's on all of N. Derivatives that are exact by
    definition (exp_rep, polynomial_rep, or any prefix with a zero,
    constant or geometric tail) give exact terms, summed exactly and
    rounded once where evaluate sums them so (a long run at a gamma with a
    short numerator, or a float sum whose bound misses eps), with abs_error
    the tail bound plus half an ulp; abs_error <= eps holds, or
    PrecisionUnattainable is raised when half an ulp of f(x) alone reaches
    eps. Elsewhere (sin, cos, geometric and every composite) abs_error may
    still exceed eps. The sum is evaluate's, bit for bit.

    x = center returns a_0 with zero reported error, or with a_0's term
    error when the coefficients carry one (a recentred representation).
    """
    return _sum_at(rep.coefficients, _require_inside(rep, x), eps)


def _sum_at(seq: SequenceLike, gamma: float, eps: float, strict: bool = True) -> MeasureValue:
    """eval_rep's sum at gamma = x - center; with eps as a truncation
    target only, and no PrecisionUnattainable, when not ``strict``."""
    if gamma == 0.0:
        bias = _term_errors(seq, gamma)
        return MeasureValue(term_value(seq, 1.0, 0), 0.0 if bias is None else bias(0))
    s, tail = _set_sum(_Terms(seq, gamma), NatSet.all(), eps, "signed", strict)
    return MeasureValue(*s.part("signed", tail))


def _rep_from_d_list(
    center: float, d: list[float], radius: float, errors: list[float] | None = None
) -> AnalyticRep:
    """The finite representation with d_n = d[n], whose terms carry the
    term errors ``errors`` when given."""
    while d and d[-1] == 0.0 and not (errors and errors[len(d) - 1]):
        d.pop()
    seq = _finite_terms(d, 1.0, None if errors is None else errors[:len(d)])
    return AnalyticRep(center, seq, radius)


# ---------------------------------------------------------------------------
# algebra


def multiply(r1: AnalyticRep, r2: AnalyticRep) -> AnalyticRep:
    """Pointwise product: the binomial convolution of the derivative
    sequences, computed as a plain convolution of the d_n = a_n/n!.

    Each d_l is the correctly rounded sum (math.fsum) of the products
    d1_n * d2_(l-n) that both supports reach, so a finite product costs
    nothing past its support. The operands' d_n are read from lists that
    grow a block at a time as larger l ask for them (_prefix), and the
    products are formed by one map over two slices. The result's term
    function is a kernel._TermRun, whose memo keeps each d_l once formed.
    Operand term errors e carry over as |d1| * e2 + e1 * (|d2| + e2),
    convolved the same way and kept by index too.
    """
    if r1.center != r2.center:
        raise CenterMismatch(
            f"centers differ: {r1.center} vs {r2.center}; recenter first"
        )
    e1, e2 = _d_envelope(r1), _d_envelope(r2)
    last1, last2 = (math.inf if e.last is None else e.last for e in (e1, e2))

    def reach(l: int, p: Callable[[int], list], q: Callable[[int], list]):
        """p's entries n and q's entries l - n, in increasing n, for the n
        with n <= last1 and l - n <= last2."""
        lo, hi = max(0, l - last2), min(l, last1)
        return p(hi)[lo:hi + 1], reversed(q(l - lo)[l - hi:l - lo + 1])

    da, db = (_prefix(partial(_term_block, r.coefficients, 1.0, errors=False))
              for r in (r1, r2))

    def run(indices: Sequence[int]) -> list[float]:
        if indices:  # each operand's d_n up to the run's last l, as one block
            da(min(indices[-1], last1))
            db(min(indices[-1], last2))
        return [math.fsum(map(mul, *reach(l, da, db))) for l in indices]

    ea, eb = (_term_errors(r.coefficients, 1.0) for r in (r1, r2))
    term_error = None
    if ea is not None or eb is not None:
        ea, eb = (_prefix(partial(map, e or _no_error)) for e in (ea, eb))
        term_error = cache(lambda l: math.fsum(map(_carried, *reach(l, da, db),
                                                   *reach(l, ea, eb))))

    cert = e1.cauchy(e2).to_certificate(1.0)
    radius = min(r1.radius_hint, r2.radius_hint)
    return AnalyticRep(r1.center, TermBackedSequence(_TermRun(run), 1.0, cert, term_error), radius)


def _constant_rep(value: float, center: float) -> AnalyticRep:
    return AnalyticRep(center, finite_sequence([value]), math.inf)


def power(rep: AnalyticRep, n: int) -> AnalyticRep:
    """f^n by binary exponentiation; n = 0 is the constant 1."""
    if n < 0:
        raise ValueError("power needs n >= 0")
    result = _constant_rep(1.0, rep.center)
    base = rep
    while n:
        if n & 1:
            result = multiply(result, base)
        base_needed = n > 1
        if base_needed:
            base = multiply(base, base)
        n >>= 1
    return result


def linear_combine(alpha: float, r1: AnalyticRep, beta: float, r2: AnalyticRep) -> AnalyticRep:
    """alpha*f + beta*g at a common center: measure.linear_combination of
    the two Taylor measures at gamma = 1, whose terms are the d_n."""
    if r1.center != r2.center:
        raise CenterMismatch(
            f"centers differ: {r1.center} vs {r2.center}; recenter first"
        )
    T = linear_combination(alpha, TaylorMeasure(r1.coefficients, 1.0),
                           beta, TaylorMeasure(r2.coefficients, 1.0))
    return AnalyticRep(r1.center, T.coefficients, min(r1.radius_hint, r2.radius_hint))


def truncate_rep(rep: AnalyticRep, N: int) -> AnalyticRep:
    """The degree-N Taylor polynomial of the representation (a polynomial,
    so the result is entire)."""
    if N < 0:
        raise ValueError("truncation degree must be >= 0")
    d = _term_block(rep.coefficients, 1.0, range(N + 1), errors=False)
    e = _term_errors(rep.coefficients, 1.0)
    errors = None if e is None else [e(n) for n in range(N + 1)]
    return _rep_from_d_list(rep.center, d, math.inf, errors)


# ---------------------------------------------------------------------------
# recentering


def recenter(rep: AnalyticRep, new_center: float, eps: float = 1e-12) -> AnalyticRep:
    """Re-express the function around a new center inside the validity
    region via the Taylor shift c_k = sum_m a_{k+m} delta^m / m!.

    Finite-support representations shift exactly. Otherwise each new
    coefficient is a truncated series that sums every coefficient below
    the certificate's start and whose certified tail stays below eps
    times the new certificate's envelope at that index. Each coefficient
    carries, as its term error, that tail bound, the term errors of the
    coefficients it sums and the rounding of the sum, so evaluations of
    the result report them in abs_error. A coefficient, or a growth bound,
    that leaves the float range raises NonFiniteResult.
    """
    delta = new_center - rep.center
    if delta == 0.0:
        return rep
    dist = abs(delta)
    if not dist < rep.radius_hint:
        raise OutOfDomain(
            f"new center {new_center} outside |x - {rep.center}| < {rep.radius_hint}"
        )
    d = _prefix(partial(_term_block, rep.coefficients, 1.0, errors=False))
    d_err = _term_errors(rep.coefficients, 1.0) or _no_error
    cert = rep.coefficients.certificate

    def shift_sum(k: int, M: int) -> tuple[float, float, float]:
        """sum_{m <= M} d_{k+m} binom(k+m, m) delta**m, the term errors it
        carries, and the sum of the magnitudes of its products."""
        terms, carried = [], []
        coef = 1.0
        for m, dm in enumerate(d(k + M)[k:k + M + 1]):
            terms.append(dm * coef)
            carried.append(d_err(k + m) * abs(coef))
            coef *= delta * (k + m + 1) / (m + 1)
        try:
            sums = math.fsum(terms), math.fsum(carried), math.fsum(map(abs, terms))
        except (OverflowError, ValueError):  # inf - inf, or a sum past the float range
            sums = (math.nan,)
        if not all(map(math.isfinite, sums)):
            raise NonFiniteResult(f"coefficient {k} at center {new_center} is not finite")
        return sums

    if isinstance(cert, FiniteSupport):
        last = cert.last
        out = [shift_sum(k, last - k) for k in range(last + 1)]
        errors = None if d_err is _no_error else [e for _, e, _ in out]
        return _rep_from_d_list(new_center, [v for v, _, _ in out], rep.radius_hint, errors)

    _require_certificate(rep.coefficients, "recentering")
    env = _d_envelope(rep)
    try:
        new_env = env.widened().shifted(dist)
    except OverflowError:
        raise NonFiniteResult(f"the growth bound at center {new_center} overflows") from None
    new_radius = rep.radius_hint if math.isinf(rep.radius_hint) else rep.radius_hint - dist

    @cache
    def shifted(k: int) -> tuple[float, float]:
        budget = max(eps * new_env.at(k), 5e-324)
        M = 4
        while (tail := env.shift_tail(k, dist, M)) > budget:
            M *= 2
            if M > _SHIFT_CAP:
                raise DivergenceUnknown(
                    f"shift series for coefficient {k} does not settle below "
                    f"its budget within {_SHIFT_CAP} terms"
                )
        value, carried, magnitude = shift_sum(k, M)
        # each product rounds at most 3m + 1 times: 3 per step of coef, 1 more
        rounding = (3 * M + 4) * _ULP * magnitude
        return value, tail + carried + rounding

    seq = TermBackedSequence(lambda k: shifted(k)[0], 1.0, new_env.to_certificate(1.0),
                             lambda k: shifted(k)[1])
    return AnalyticRep(new_center, seq, new_radius)


# ---------------------------------------------------------------------------
# density and quadrature diagnostics


def _require_interval(K: tuple[float, float]) -> tuple[float, float]:
    lo, hi = float(K[0]), float(K[1])
    if not lo < hi:
        raise ValueError(f"interval must satisfy lo < hi, got [{lo}, {hi}]")
    return lo, hi


def _require_eps(eps: float) -> None:
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps}")


def _horner_grid(rep: AnalyticRep, lo: float, hi: float,
                 eps: float) -> Callable[[float], tuple[float, float]]:
    """x -> (f(x), bound) for the points lo <= x <= hi, with
    |f(x) - exact| <= bound, from one truncation plan and one coefficient
    fetch for all of them.

    R = max(|lo - c|, |hi - c|) bounds every |x - c| (x - c rounds
    monotonically), and every certificate's envelope grows with |gamma|,
    so the plan at R (plan_truncation, to eps) bounds the tail T past its
    last index N at every point. The terms at R, d_n = a_n R**n / n!, and
    their certified errors delta_n are fetched once, as one block
    (kernel._term_block, which adds a term-backed sequence's term_error,
    with the bits of a fetch one index at a time). They stay near the
    size of the terms being summed wherever the a_n / n! alone would
    under- or overflow. A point is sum d_n t**n at t = (x - c) / R,
    |t| <= 1, by Horner's rule in floats; it is not bit-equal to eval_rep
    at x.

    Each point stops at its own degree M: everything past M is at most
    |t|**(M+1) S_M, with S_M = sum_{M < n <= N} (|d_n| + delta_n) + T, and
    M is the least degree at which that meets eps / 2 (a bisection on the
    nondecreasing thresholds (eps / 2 / S_M)**(1/(M+1))), or N; so a point
    near the center sums a few terms and one near the reach all N + 1. The
    truncation is then at most min(eps / 2, S_M) below N and T at N.

    The bound follows Higham (Accuracy and Stability of Numerical
    Algorithms, ch. 5). With u = 2**-53 and k = 4(N+1)u, Horner and the
    rounding of t leave at most k * sum |d_n| |t|**n, the d_n at most
    sum delta_n |t|**n, and each product that underflows half a subnormal
    unit; a second Horner pass at |t| on b_n = k |d_n| + delta_n, each
    rounded up, sums the first two. That sum and the truncation, times
    F = 1 + 8(N+2)u for the rounding of the pass, of t, of the thresholds
    and of the bound itself (every part is nonnegative), plus 4(M+1)
    subnormal units for the underflows, is the point's bound. A t below
    the normal range is off by up to half a subnormal unit, which moves
    the sum by at most 2**-1074 (|d_1| + delta_1 + 16) more.

    A point whose value is not finite, or whose bound exceeds both eps and
    _GRID_SHARE |f(x)|, is summed again as eval_rep sums it, with eps as a
    truncation target only, and takes that sum's abs_error as its bound;
    if that bound still exceeds both, PrecisionUnattainable is raised
    (sin at x = 45 from center 0 cancels terms near e**45, past either
    sum's reach), and NonFiniteResult when that value or bound is not
    finite. Raises OutOfDomain when R is not inside the radius hint.
    """
    c, seq = rep.center, rep.coefficients
    reach = max(abs(lo - c), abs(hi - c))
    if not reach < rep.radius_hint:
        raise OutOfDomain(f"[{lo}, {hi}] leaves |x - {c}| < {rep.radius_hint}")
    _require_certificate(seq, "evaluation")
    plan = plan_truncation(seq.certificate, reach, eps)
    N = plan.last_index
    d, delta = zip(*_term_block(seq, reach, range(N + 1)))
    up, inf, half = math.nextafter, math.inf, eps / 2.0
    S = [plan.tail_bound] * (N + 1)
    for n in range(N, 0, -1):
        S[n - 1] = up(up(S[n] + abs(d[n]), inf) + delta[n], inf)
    tau = [inf] * (N + 1)
    for M in range(N - 1, -1, -1):
        tau[M] = min(tau[M + 1], (half / S[M]) ** (1.0 / (M + 1)) if S[M] else inf)
    k, F = 4.0 * (N + 1) * _ULP, 1.0 + 8.0 * (N + 2) * _ULP
    # C[M]: the truncation past degree M and the underflows, times F
    C = [up(up(min(half, S[M]) * F, inf) + 4.0 * (M + 1) * _TINY, inf) for M in range(N)]
    C.append(up(up(S[N] * F, inf) + 4.0 * (N + 1) * _TINY, inf))
    b = [up(up(k * abs(dn), inf) + en, inf) for dn, en in zip(d, delta)]
    rev = list(zip(d[::-1], b[::-1]))
    shift = up(_TINY * (abs(d[1]) + delta[1] + 16.0), inf) if N else _TINY

    def at(x: float) -> tuple[float, float]:
        t = (x - c) / reach
        r = abs(t)
        M = bisect_left(tau, r)
        v, e = rev[N - M]
        for dn, bn in rev[N - M + 1:]:
            v = v * t + dn
            e = e * r + bn
        bound = up(e * F + C[M], inf)
        if r < _MIN_NORMAL:
            bound = up(bound + shift, inf)
        if not (bound <= eps or bound <= _GRID_SHARE * abs(v) < inf):
            one = _sum_at(seq, x - c, eps, strict=False)
            v, bound = one.value, one.abs_error
            if not (math.isfinite(v) and bound < inf):
                raise NonFiniteResult(f"f({x}) = {v} with error bound {bound} is not finite")
            if not bound <= max(eps, _GRID_SHARE * abs(v)):
                raise PrecisionUnattainable(
                    f"f({x}) = {v} carries an error bound of {bound}, above "
                    f"eps = {eps} and {_GRID_SHARE} |f({x})|"
                )
        return v, bound

    return at


def sup_distance_on_grid(
    rep: AnalyticRep,
    oracle: Callable[[float], float],
    K: tuple[float, float],
    m: int = 1001,
    eps: float = 1e-12,
) -> float:
    """max_i |f(x_i) - oracle(x_i)| over m uniform grid points on K.

    The points share one truncation plan, at the grid's largest |x - center|
    with tail bound eps, and one fetch of the coefficients, and each f(x_i)
    is summed by Horner's rule to its own degree with a certified bound
    (_horner_grid); it is not bit-equal to eval_rep at x_i, and the bounds
    are not reported. A point whose bound exceeds both eps and 1e-6 |f(x_i)|
    is summed again as eval_rep sums it. Raises ValueError for eps that is
    not finite and positive, PrecisionUnattainable at the first x_i whose
    bound still exceeds both, and NonFiniteResult at the first x_i where f
    or the oracle is not finite.
    """
    lo, hi = _require_interval(K)
    if m < 2:
        raise ValueError("need at least 2 grid points")
    _require_eps(eps)
    xs = [lo + (hi - lo) * i / (m - 1) for i in range(m)]
    at = _horner_grid(rep, xs[0], xs[-1], eps)
    worst = 0.0
    for x in xs:
        f, _ = at(x)
        o = oracle(x)
        if not math.isfinite(o):
            raise NonFiniteResult(f"the oracle returned {o} at x = {x}")
        worst = max(worst, abs(f - o))
    return worst


def lp_norm_on_interval(
    rep: AnalyticRep,
    p: float,
    K: tuple[float, float],
    eps: float = 1e-9,
    depth_cap: int = 16,
) -> float:
    """(integral of |f|^p over K)^(1/p) by composite Simpson refinement.

    Panels double until two successive estimates agree within eps; the
    final value gets one Richardson correction. Raises QuadratureStall
    if depth_cap doublings cannot reach eps. Every point shares one
    truncation plan, at K's largest |x - center| with tail bound
    eval_eps = min(eps / (100 (hi - lo)), 1e-12), and one fetch of the
    coefficients, and each f(x) is summed by Horner's rule to its own
    degree with a certified bound (_horner_grid); it is not bit-equal to
    eval_rep at x, and the bounds are not reported. A point whose bound
    exceeds both eval_eps and 1e-6 |f(x)| is summed again as eval_rep sums
    it. Raises ValueError for p that is not finite and >= 1 or eps that is
    not finite and positive, PrecisionUnattainable at the first point whose
    bound still exceeds both, and NonFiniteResult when f, |f|^p or a Simpson
    sum is not finite.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    if depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")
    _require_eps(eps)
    lo, hi = _require_interval(K)
    eval_eps = min(eps / (100.0 * (hi - lo)), 1e-12)
    at = _horner_grid(rep, lo, hi, eval_eps)
    fx: dict[float, float] = {}

    def g(x: float) -> float:
        if x not in fx:
            try:
                fx[x] = abs(at(x)[0]) ** p
            except OverflowError:
                raise NonFiniteResult(f"|f({x})|^{p} overflows") from None
        return fx[x]

    def simpson(panels: int) -> float:
        h = (hi - lo) / panels
        acc = g(lo) + g(hi)
        for i in range(1, panels):
            acc += (4.0 if i % 2 else 2.0) * g(lo + i * h)
        if not math.isfinite(acc):
            raise NonFiniteResult(f"the Simpson sum over {panels} panels is {acc}")
        return acc * h / 3.0

    panels = 8
    prev = simpson(panels)
    for _ in range(depth_cap):
        panels *= 2
        cur = simpson(panels)
        if abs(cur - prev) <= eps:
            refined = cur + (cur - prev) / 15.0
            return max(refined, 0.0) ** (1.0 / p)
        prev = cur
    raise QuadratureStall(
        f"Simpson refinement did not converge to {eps} within {depth_cap} doublings"
    )


# the public names are listed in the package's table, and bound there as
# this module loads
from . import _bind  # noqa: E402

__all__ = _bind(globals())
