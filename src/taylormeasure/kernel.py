"""Stable computation of factorial-weighted series terms.

A signed Taylor measure assigns to each index n the term

    p(n) = a_n * gamma**n / n!

and set values are sums of these terms. This module owns the per-term
arithmetic and everything needed to sum the terms safely: coefficient
sequences with declared tails, growth certificates, certified tail
bounds, truncation planning, and one summation pass (_sum_terms), which
every set sum reads its values from. That pass fetches a set's
coefficients as one block and forms each term and adds it to compensated
sums split by sign in one loop, with the operations of _term_and_err,
which forms single terms, so its results are the same bit for bit; terms
formed elsewhere (a term-backed sequence's at its presentation gamma,
geometry's rho summands) reach it as (value, error) pairs. Every other
run of terms, here or in another module, is one _term_block fetch, with
_term_and_err's bits; _term_and_err, term_value and term are one-index
reads. Both find one reach per block (_linear_reach), the last index up
to which every term takes the linear path, and form those terms with no
per-term range test; the range tests live only in _term_from_coefficient,
which forms every other term. A term function formed a run at a time is
a _TermRun, which keeps each value it forms (its memo): a composite built
on one (a linear combination, a pmf measure, a product or a power) and
evaluated on several sets, or for several parts, forms each term once. A
truncation plan is found by one doubling search over tail bounds and
memoised per process; the plan at half the smallest normal float is the
underflow horizon where finite-set sums stop. Tail bounds and every
derived certificate go through one envelope, _TermEnvelope.

Coefficients that are exact by definition (an explicit prefix, then a
zero, constant or geometric tail) make every term an exact dyadic
rational. A long run of such terms with short numerators (_exact_first),
and any run whose float bound misses the requested eps, is summed exactly
in integers and rounded once (the exact module, loaded on first use).
This module keeps the primitives; measure._set_sum chooses between them.
It reads a summand, _Terms for a measure, which plans its truncation,
runs the float pass and gives its exact terms, asks _exact_first whether
a run is summed exactly from the start, and holds the eps contract of an
infinite set.

Terms are kept in sign + log-magnitude form (via lgamma) so that a_n,
gamma**n, and n! never have to be represented separately; a linear-space
fast path is used whenever every intermediate is comfortably inside the
normal floating range (per term in _term_from_coefficient, per block in
_linear_reach), which keeps small cases exact to a few ulp.
The convention 0**0 = 1 applies throughout, so the n = 0 term is a_0
even when gamma = 0.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterable, NamedTuple, Union

from .errors import DivergenceUnknown, OutOfDomain

_MAX_FLOAT_FACTORIAL = 170  # largest n with n! below float overflow
_FACT = tuple(float(math.factorial(n)) for n in range(_MAX_FLOAT_FACTORIAL + 1))
_LOG_SAFE = 700.0           # |log| budget that keeps intermediates normal
_LOG_TINY = -745.0          # below this, exp underflows to zero
_LOG_HUGE = 709.0           # above this, exp overflows
_ULP = 2.0 ** -53
_TINY = 2.0 ** -1074        # one subnormal unit: the absolute rounding floor
_MIN_NORMAL = 2.0 ** -1022  # smallest normal float
_LOG_MIN_NORMAL = -708.0     # above log(_MIN_NORMAL) = -708.40
_LOG_UNIT = 1074.0 * math.log(2.0)  # -log(_TINY)


def _sign(x: float) -> int:
    if x > 0.0:
        return 1
    if x < 0.0:
        return -1
    return 0


# ---------------------------------------------------------------------------
# Growth certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteSupport:
    """a_n = 0 for every n > last. last = -1 denotes the zero sequence."""

    last: int

    def __post_init__(self):
        if self.last < -1:
            raise ValueError(f"FiniteSupport.last must be >= -1, got {self.last}")


@dataclass(frozen=True)
class Bounded:
    """|a_n| <= bound for all n."""

    bound: float

    def __post_init__(self):
        if not (self.bound >= 0.0 and math.isfinite(self.bound)):
            raise ValueError(f"Bounded.bound must be finite and >= 0, got {self.bound}")


def _check_envelope(cert) -> None:
    """The __post_init__ of GeometricEnvelope and FactorialGeometric."""
    name = type(cert).__name__
    for field_name in ("scale", "ratio"):
        v = getattr(cert, field_name)
        if not (v >= 0.0 and math.isfinite(v)):
            raise ValueError(f"{name}.{field_name} must be finite and >= 0, got {v}")
    if cert.start < 0:
        raise ValueError(f"{name}.start must be >= 0")


@dataclass(frozen=True)
class GeometricEnvelope:
    """|a_n| <= scale * ratio**n for all n >= start.

    ``from_asymptotic(M, b)`` builds the envelope for a sequence known to
    satisfy a_n ~ M * b**n asymptotically; the factor 2 it inserts absorbs
    the slack between the asymptotic statement and a hard bound.
    """

    scale: float
    ratio: float
    start: int = 0

    __post_init__ = _check_envelope

    @classmethod
    def from_asymptotic(cls, scale: float, ratio: float, start: int = 0) -> "GeometricEnvelope":
        return cls(2.0 * abs(scale), abs(ratio), start)


@dataclass(frozen=True)
class FactorialGeometric:
    """|a_n| <= scale * n! * ratio**n for all n >= start.

    Describes coefficient sequences that grow factorially while their
    terms a_n * gamma**n / n! stay geometric with ratio |ratio * gamma|.
    Covers measures built from probability mass functions (a_n =
    n! * p_n / gamma**n) and derivative sequences of functions with a
    finite convergence radius. Term sums converge only for
    |gamma| < 1/ratio, and factorial-weighted inner products against
    such sequences diverge, so geometry rejects this certificate on
    infinite sets.
    """

    scale: float
    ratio: float
    start: int = 0

    __post_init__ = _check_envelope


@dataclass(frozen=True)
class Unverified:
    """No growth information. Infinite-set queries fail loudly."""


GrowthCertificate = Union[FiniteSupport, Bounded, GeometricEnvelope, FactorialGeometric, Unverified]


# ---------------------------------------------------------------------------
# Tail models and coefficient sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroTail:
    """a_n = 0 beyond the prefix."""


@dataclass(frozen=True)
class ConstantTail:
    """a_n = value beyond the prefix."""

    value: float


@dataclass(frozen=True)
class GeometricTail:
    """a_n = scale * ratio**n beyond the prefix (n is the global index)."""

    scale: float
    ratio: float


@dataclass(frozen=True)
class CustomTail:
    """a_n = rule(n) beyond the prefix.

    ``log_rule``, when provided, returns (sign, log|a_n|) and is used for
    indices where rule(n) would overflow a float.
    """

    rule: Callable[[int], float]
    log_rule: Callable[[int], tuple[int, float]] | None = None


TailModel = Union[ZeroTail, ConstantTail, GeometricTail, CustomTail]


@dataclass(frozen=True)
class CoefficientSequence:
    """Total map n -> a_n given by an explicit prefix plus a tail model,
    together with a growth certificate for the whole sequence."""

    prefix: tuple[float, ...] = ()
    tail: TailModel = field(default_factory=ZeroTail)
    certificate: GrowthCertificate = field(default_factory=Unverified)

    def __post_init__(self):
        if not all(map(math.isfinite, self.prefix)):
            n = next(n for n, c in enumerate(self.prefix) if not math.isfinite(c))
            raise ValueError(f"coefficient a_{n} = {self.prefix[n]} is not finite")
        t = self.tail
        if isinstance(t, ConstantTail):
            constants: tuple[float, ...] = (t.value,)
        elif isinstance(t, GeometricTail):
            constants = (t.scale, t.ratio)
        else:
            constants = ()
        if not all(map(math.isfinite, constants)):
            raise ValueError(f"tail constants must be finite, got {t}")

    def a(self, n: int) -> float:
        if n < 0:
            raise ValueError("index must be a natural number")
        if n < len(self.prefix):
            return self.prefix[n]
        t = self.tail
        if isinstance(t, ZeroTail):
            return 0.0
        if isinstance(t, ConstantTail):
            return t.value
        if isinstance(t, GeometricTail):
            if t.scale == 0.0:
                return 0.0
            # closed form in logs for indices where ratio**n overflows
            if t.ratio != 0.0 and abs(n * math.log(abs(t.ratio))) > _LOG_SAFE:
                s, lg = self.log_a(n)
                return _exp_signed(s, lg)
            return t.scale * t.ratio ** n
        return t.rule(n)

    def log_a(self, n: int) -> tuple[int, float]:
        """Return (sign(a_n), log|a_n|); (0, -inf) when a_n = 0."""
        if n >= len(self.prefix):
            t = self.tail
            if isinstance(t, GeometricTail):
                if t.scale == 0.0 or t.ratio == 0.0:
                    # ratio 0 still contributes at the first tail index via 0**n only if n==0
                    if t.ratio == 0.0 and t.scale != 0.0 and n == 0:
                        return _sign(t.scale), math.log(abs(t.scale))
                    return 0, -math.inf
                s = _sign(t.scale) * (-1 if (t.ratio < 0 and n % 2) else 1)
                return s, math.log(abs(t.scale)) + n * math.log(abs(t.ratio))
            if isinstance(t, CustomTail) and t.log_rule is not None:
                return t.log_rule(n)
        a = self.a(n)
        if a == 0.0:
            return 0, -math.inf
        if math.isinf(a):
            return _sign(a), math.inf
        return _sign(a), math.log(abs(a))


def finite_sequence(coeffs: Iterable[float]) -> CoefficientSequence:
    prefix = tuple(float(c) for c in coeffs)
    return CoefficientSequence(prefix, ZeroTail(), FiniteSupport(len(prefix) - 1))


def constant_sequence(value: float, prefix: Iterable[float] = ()) -> CoefficientSequence:
    prefix = tuple(float(c) for c in prefix)
    bound = max([abs(value)] + [abs(c) for c in prefix])
    return CoefficientSequence(prefix, ConstantTail(float(value)), Bounded(bound))


def geometric_sequence(scale: float, ratio: float) -> CoefficientSequence:
    cert = GeometricEnvelope(abs(scale), abs(ratio), 0)
    return CoefficientSequence((), GeometricTail(float(scale), float(ratio)), cert)


def rule_sequence(
    rule: Callable[[int], float],
    certificate: GrowthCertificate,
    prefix: Iterable[float] = (),
    log_rule: Callable[[int], tuple[int, float]] | None = None,
) -> CoefficientSequence:
    return CoefficientSequence(tuple(float(c) for c in prefix), CustomTail(rule, log_rule), certificate)


@dataclass(frozen=True)
class TermBackedSequence:
    """Coefficient sequence defined through prescribed term values.

    Stores the term function q(n) = a_n * g**n / n! at the presentation
    value g = ``presentation_gamma`` and derives a_n = n! * q(n) / g**n on
    demand, as one integer quotient, m * n! * gd**n / (d * gn**n) for
    q = m / d and g = gn / gd, which Python's true division rounds once,
    correctly (float(Fraction) is this same quotient). Term
    evaluation at the presentation value short-circuits to q itself, so
    algebraic combinations keep their term functions bit-exact instead of
    round-tripping through n!. A term function that is a _TermRun is
    fetched a run of indices at a time wherever a run is summed, and forms
    each term once per object: its memo keeps every value it has formed.

    ``term_error``, when given, bounds |q(n) - p(n)|, how far each stored
    term may sit from the exact term p(n) of the function it stands for
    (say, a truncated Taylor shift). Term errors (_term_and_err and the
    summation pass _sum_terms) include it, so every sum over these terms
    reports it in its abs_error.
    """

    term_rule: Callable[[int], float]
    presentation_gamma: float
    certificate: GrowthCertificate
    term_error: Callable[[int], float] | None = None

    def a(self, n: int) -> float:
        if n < 0:
            raise ValueError("index must be a natural number")
        return self._coefficient(n, self.term_rule(n))

    def _coefficient(self, n: int, q: float) -> float:
        """a_n from its term q = q(n); through the log form where the
        quotient overflows."""
        if q == 0.0:
            return 0.0
        if not math.isfinite(q):
            return q
        num, den = q.as_integer_ratio()
        num *= math.factorial(n)
        g = self.presentation_gamma
        if g != 1.0:
            gn, gd = g.as_integer_ratio()
            if gn < 0 and n % 2:
                num = -num
            num *= gd ** n
            den *= abs(gn) ** n
        try:
            return num / den
        except OverflowError:
            s, lg = self.log_a(n)
            return _exp_signed(s, lg)

    def log_a(self, n: int) -> tuple[int, float]:
        q = self.term_rule(n)
        if q == 0.0:
            return 0, -math.inf
        s = _sign(q)
        lg = math.lgamma(n + 1) + math.log(abs(q))
        g = self.presentation_gamma
        if g != 1.0:
            if g < 0.0 and n % 2:
                s = -s
            lg -= n * math.log(abs(g))
        return s, lg


class _TermRun:
    """A term function that is formed a run of indices at a time: run(indices)
    gives its values over increasing naturals as one list, and a call at n is
    the run over (n,).

    Each value is formed once per object and kept: run() forms, as one run,
    only the indices its memo lacks, and a call reads the memo first. A value
    has the same bits whichever run formed it, so a memo moves no bit. A run
    that raises stores nothing, and raises again when it is asked again. The
    memo holds one float per formed index and is freed with the object."""

    __slots__ = ("_form", "_memo")

    def __init__(self, form: Callable[[Union[range, list, tuple]], list[float]]):
        self._form = form
        self._memo: dict[int, float] = {}

    def run(self, indices: Union[range, list, tuple]) -> list[float]:
        memo = self._memo
        missing = [n for n in indices if n not in memo]
        if missing:
            memo.update(zip(missing, self._form(missing)))
        return [memo[n] for n in indices]

    def __call__(self, n: int) -> float:
        if n < 0:
            raise ValueError("index must be a natural number")
        memo = self._memo
        if n not in memo:
            memo[n] = self._form((n,))[0]
        return memo[n]


def _finite_terms(terms: Iterable[float], gamma: float = 1.0,
                  errors: Iterable[float] | None = None) -> TermBackedSequence:
    """The sequence whose terms at the presentation ``gamma`` are ``terms``
    and 0 past them, supported up to the last entry; its terms carry the
    term errors ``errors``, one per entry, when given."""
    terms = tuple(terms)
    last = len(terms) - 1
    term_error = None
    if errors is not None:
        errors = tuple(errors)
        term_error = lambda n: errors[n] if 0 <= n <= last else 0.0
    return TermBackedSequence(lambda n: terms[n] if 0 <= n <= last else 0.0, gamma,
                              FiniteSupport(last), term_error)


SequenceLike = Union[CoefficientSequence, TermBackedSequence]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedLogTerm:
    """One series term in sign + log-magnitude form.

    sign is -1, 0, or +1; log_mag is log|a_n * gamma**n / n!| and -inf
    exactly when sign = 0.
    """

    n: int
    sign: int
    log_mag: float

    @property
    def value(self) -> float:
        return _exp_signed(self.sign, self.log_mag)


def _exp_signed(sign: int, log_mag: float) -> float:
    if sign == 0:
        return 0.0
    if log_mag > _LOG_HUGE:
        return sign * math.inf
    if log_mag < _LOG_TINY:
        return 0.0
    return sign * math.exp(log_mag)


def term(seq: SequenceLike, gamma: float, n: int) -> SignedLogTerm:
    """Sign and log magnitude of a_n * gamma**n / n! (0**0 = 1)."""
    if n < 0:
        raise ValueError("index must be a natural number")
    sign, log_mag = _signed_log(seq, gamma, n, math.lgamma(n + 1))
    return SignedLogTerm(n, sign, log_mag)


def _signed_log(seq: SequenceLike, gamma: float, n: int, lg: float) -> tuple[int, float]:
    """(sign, log|a_n * gamma**n / n!|) for n >= 0; (0, -inf) for a zero
    term. ``lg`` is math.lgamma(n + 1), which the log path needs too and
    so computes once."""
    sa, la = seq.log_a(n)
    if sa == 0:
        return 0, -math.inf
    if n == 0:
        return sa, la
    if gamma == 0.0:
        return 0, -math.inf
    sign = -sa if (gamma < 0.0 and n % 2) else sa
    return sign, la + n * math.log(abs(gamma)) - lg


def term_value(seq: SequenceLike, gamma: float, n: int) -> float:
    """Linear-space value of a_n * gamma**n / n!.

    Computed directly when every intermediate stays in the normal range
    (exact to a few ulp), through the log form otherwise.
    """
    v, _ = _term_and_err(seq, gamma, n)
    return v


def _term_and_err(seq: SequenceLike, gamma: float, n: int) -> tuple[float, float]:
    """Term value plus an absolute error bound for that value: its
    roundoff and, for a term-backed sequence, its term_error."""
    if n < 0:
        raise ValueError("index must be a natural number")
    if isinstance(seq, TermBackedSequence):
        if gamma == seq.presentation_gamma:
            q = seq.term_rule(n)
            v, e = q, abs(q) * 2.0 * _ULP
        else:
            v, e = _term_from_coefficient(seq, seq.a(n), gamma, n)
        if seq.term_error is None:
            return v, e
        return v, e + _term_bias(seq, gamma, n)
    return _term_from_coefficient(seq, seq.a(n), gamma, n)


def _term_errors(seq: SequenceLike, gamma: float) -> Callable[[int], float] | None:
    """n -> the error seq's term at gamma carries (_term_bias), or None when
    its terms carry none."""
    if isinstance(seq, TermBackedSequence) and seq.term_error is not None:
        return partial(_term_bias, seq, gamma)
    return None


def _term_bias(seq: TermBackedSequence, gamma: float, n: int) -> float:
    """seq.term_error(n) carried to the term at gamma: the stored term is
    scaled by (gamma / presentation_gamma)**n, and so is its error."""
    b = seq.term_error(n)
    r = abs(gamma / seq.presentation_gamma)
    if b == 0.0 or n == 0 or r == 1.0:
        return b
    if r == 0.0:
        return 0.0
    return _exp_signed(1, math.log(b) + n * math.log(r))


def _term_from_coefficient(seq: SequenceLike, a: float, gamma: float, n: int) -> tuple[float, float]:
    """The arithmetic of _term_and_err, given the coefficient a = seq.a(n).

    The summation pass (_sum_terms) fetches its a_n as one block and
    passes each in. ``seq`` still feeds the log path, which reads log|a_n|
    from the sequence itself.

    Every nonzero coefficient's roundoff estimate includes one subnormal
    unit (_TINY), the absolute rounding of a term that underflows; a
    relative bound alone reads 0 there. Raises ValueError for a nan a.
    """
    if a == 0.0:
        return 0.0, 0.0
    if n == 0:
        if math.isnan(a):
            raise ValueError(f"coefficient a_{n} is nan")
        return a, abs(a) * _ULP + _TINY
    if gamma == 0.0:
        return 0.0, 0.0
    npow = n * math.log(abs(gamma))
    if math.isfinite(a):
        la = math.log(abs(a))
        if n <= _MAX_FLOAT_FACTORIAL and abs(npow) < _LOG_SAFE and abs(la + npow) < _LOG_SAFE:
            v = a * gamma ** n / _FACT[n]
            if math.isfinite(v):
                return v, abs(v) * 4.0 * _ULP + _TINY
    elif math.isnan(a):
        raise ValueError(f"coefficient a_{n} is nan")
    return _log_term_and_err(seq, gamma, n, npow)


def _linear_reach(indices: Union[range, list, tuple], coeffs: list[float], gamma: float) -> int:
    """The last index R <= 170 up to which every nonzero coefficient of a
    block (coeffs, at indices) passes _term_from_coefficient's linear-path
    tests, so that its term there is a * gamma**n / n! with roundoff
    |v| * 4u + _TINY; found once per block instead of once per term.

    R is the largest n with n |log|gamma|| <= _LOG_SAFE - 1 - L, where
    L = max(|log hi|, |log lo|) of the largest and smallest nonzero |a| at
    the block's indices up to 170 (at all of them when the last index is at
    most 170: more coefficients can only shorten R). Then |n log|gamma||
    and |log|a| + n log|gamma|| stay within _LOG_SAFE - 1 for each such a,
    the margin of 1 covering the rounding of the logs, and a * gamma**n is
    a float. R is 0 when gamma is 0 or not finite, when one of those
    coefficients is nan or infinite, or when none is nonzero."""
    if not 0.0 < abs(gamma) < math.inf:
        return 0
    if indices and indices[-1] > _MAX_FLOAT_FACTORIAL:
        coeffs = [a for n, a in zip(indices, coeffs) if n <= _MAX_FLOAT_FACTORIAL]
    vals = sorted(coeffs)
    neg, pos = bisect_left(vals, 0.0), bisect_right(vals, 0.0)  # vals[neg:pos] are 0
    lo = min(-vals[neg - 1] if neg else math.inf, vals[pos] if pos < len(vals) else math.inf)
    if not (lo < math.inf and math.isfinite(sum(vals))):  # none nonzero, or a nan or an inf
        return 0
    budget = _LOG_SAFE - 1.0 - max(math.log(max(-vals[0], vals[-1])), -math.log(lo))
    if budget < 0.0:
        return 0
    lg = abs(math.log(abs(gamma)))
    if budget >= _MAX_FLOAT_FACTORIAL * lg:
        return _MAX_FLOAT_FACTORIAL
    return int(budget / lg)


def _log_term_and_err(seq: SequenceLike, gamma: float, n: int, npow: float) -> tuple[float, float]:
    """Log-path term value exp(la + npow - lgamma(n+1)), where npow is
    n*log|gamma| as _signed_log forms it, and a bound on its roundoff, in
    units of u = 2**-53 of the value.

    Each operand rounds at its own size, not at the size of the result:
    la (a log, or a short sum of logs: 4 |la|), n*log|gamma| (a log within
    u relative, then a product: 2 |n log|gamma||) and lgamma(n+1)
    (3 lgamma(n+1) + 2; against mpmath, CPython's lgamma stays within
    2.6 u relative for n from 10 to 10**7, and within that bound below).
    The two additions round at the size of their results (|la + n log|gamma||
    and |log_mag|), and exp turns an absolute error d in the log into a
    relative error of d in the value, adding its own rounding (1 unit).
    A result below the normal range rounds to a multiple of 2**-1074, so
    one such unit is added to the bound; a term that underflows to 0 has
    |exact| below that unit.
    """
    lg = math.lgamma(n + 1)
    sign, log_mag = _signed_log(seq, gamma, n, lg)
    v = _exp_signed(sign, log_mag)
    if v == 0.0:
        return v, _TINY
    if not math.isfinite(v):
        return v, 0.0
    la = log_mag - npow + lg  # log|a_n| as _signed_log read it, to within roundoff
    units = (abs(log_mag) + 4.0 + 4.0 * abs(la) + 2.0 * abs(npow) + 3.0 * lg
             + abs(la + npow))
    return v, abs(v) * units * _ULP + _TINY


# ---------------------------------------------------------------------------
# Tail bounds and truncation planning
# ---------------------------------------------------------------------------


def _factorial_ratio_tail(scale: float, g: float, last_index: int) -> float:
    """Upper bound for sum_{n > last_index} scale * g**n / n!.

    Uses the ratio test: beyond N+1 the terms shrink by at least
    g/(N+2) per step, so the tail is dominated by the geometric series
    t_{N+1} / (1 - g/(N+2)) once N+2 > g. The global bound
    scale * e**g covers the region before that, and taking the min of
    the two keeps the bound non-increasing in N. The global bound is
    rounded up (_scale_exp), since g, formed as R * |gamma|, may sit half
    an ulp below the exact product.
    """
    if scale == 0.0 or g == 0.0:
        return 0.0
    try:
        global_bound = _scale_exp(scale, g)
    except OverflowError:
        global_bound = math.inf
    n = last_index
    if n + 2 <= g:
        return global_bound
    log_t = math.log(scale) + (n + 1) * math.log(g) - math.lgamma(n + 2)
    return min(global_bound, _ratio_tail(log_t, g / (n + 2)))


def _ratio_tail(log_t: float, q: float) -> float:
    """exp(log_t) / (1 - q) for 0 <= q < 1: the bound t / (1 - q) on a
    tail whose first term is t = exp(log_t) and whose terms shrink by q or
    more; +inf where t overflows.

    Below the normal range exp and the division each round by up to half a
    subnormal unit, even to 0, and a bound must not round down. So there
    the quotient is formed in subnormal units, widened by 2**-40 for the
    roundoff of log_t, and rounded up to a whole unit, at least one.
    """
    if log_t > _LOG_HUGE:
        return math.inf
    if not log_t <= _LOG_MIN_NORMAL:
        return math.exp(log_t) / (1.0 - q)
    units = math.exp(log_t + _LOG_UNIT) / (1.0 - q) * (1.0 + 2.0 ** -40)
    return math.ldexp(max(math.ceil(units), 1), -1074)


def tail_bound(cert: GrowthCertificate, gamma: float, last_index: int) -> float:
    """Certified upper bound for sum_{n > last_index} |a_n * gamma**n / n!|.

    Returns +inf when the certificate cannot bound the tail (Unverified,
    indices before an envelope's start, or a FactorialGeometric envelope
    outside its convergence radius).
    """
    if last_index < 0:
        raise ValueError("last_index must be >= 0")
    return _TermEnvelope.of(cert, gamma).tail(last_index)


@dataclass(frozen=True)
class TruncationPlan:
    """Sum indices 0..last_index; the rest is bounded by tail_bound."""

    last_index: int
    tail_bound: float


_PLAN_CAP = 10 ** 7
_PLAN_MEMO = 1024  # plans plan_truncation keeps


def plan_truncation(cert: GrowthCertificate, gamma: float, eps: float) -> TruncationPlan:
    """Smallest last_index whose certified tail bound is <= eps.

    tail_bound is non-increasing in the index, so the index is found by
    doubling from max(1, start) until a probe meets eps, then bisecting
    between the last probe that failed and the first that met it.
    FiniteSupport plans stop exactly at the support bound.

    Plans are memoised per process by (cert, gamma, eps), the last
    _PLAN_MEMO; refusals are not, and an unhashable cert is planned afresh.

    Raises DivergenceUnknown when no finite index can satisfy eps: when the
    index would exceed the largest max(1, start) * 2**k that is at most
    _PLAN_CAP.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    try:
        return _plan(cert, gamma, eps)
    except TypeError:  # an unhashable cert, which is no certificate
        return _plan.__wrapped__(cert, gamma, eps)


@lru_cache(maxsize=_PLAN_MEMO, typed=True)
def _plan(cert: GrowthCertificate, gamma: float, eps: float) -> TruncationPlan:
    """plan_truncation's search, for an eps that is not <= 0."""
    env = _TermEnvelope.of(cert, gamma)
    if env.k is None:
        raise DivergenceUnknown(
            "cannot truncate an infinite sum without a growth certificate"
        )
    if env.last is not None:
        return TruncationPlan(max(env.last, 0), 0.0)
    if not env.k and env.scale > 0.0 and env.ratio >= 1.0:
        raise DivergenceUnknown(
            f"factorial-geometric envelope with ratio {cert.ratio} does not "
            f"converge at gamma={gamma}"
        )
    # double from max(1, start) until a probe meets eps; lo is -1 or the
    # last probe that failed it
    lo, hi = -1, max(1, env.start)
    while (t := env.tail(hi)) > eps:
        lo, hi = hi, 2 * hi
        if hi > _PLAN_CAP:
            raise DivergenceUnknown(
                f"no truncation index up to {lo} meets eps={eps}, and the "
                f"next probe, {hi}, is past the search cap {_PLAN_CAP}"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        tm = env.tail(mid)
        if tm <= eps:
            hi, t = mid, tm
        else:
            lo = mid
    return TruncationPlan(hi, t)


def underflow_horizon(seq: SequenceLike, gamma: float, last: int) -> TruncationPlan | None:
    """The underflow horizon of seq's terms at gamma, for a finite set
    whose largest index is ``last``: plan_truncation at eps = 2**-1023,
    the smallest M whose certified tail is at most half the smallest
    normal float. A sum over the set may stop at M and add the plan's
    tail_bound to its error bound, trusting the certificate past M as an
    infinite sum does.

    That tail_bound is the smallest normal float, 2**-1022, not the tail
    bound as computed: below the normal range a tail bound rounds by up to
    half a subnormal unit, divided by 1 - q for a geometric ratio q < 1,
    and 2**-1022 covers that. A finite support's horizon is its last index,
    with tail 0.

    Returns None when no index up to ``last`` lies past M, which one tail
    bound at last - 1 decides and which is taken for granted when last is
    at most _MAX_FLOAT_FACTORIAL, and when the certificate bounds nothing
    (Unverified, or a k = 0 envelope at ratio >= 1) or the terms carry a
    term_error, which the certificate does not bound.
    """
    if last <= _MAX_FLOAT_FACTORIAL or _term_errors(seq, gamma) is not None:
        return None
    cert = seq.certificate
    env = _TermEnvelope.of(cert, gamma)
    if not env.tail(last - 1) <= 0.5 * _MIN_NORMAL:
        return None
    try:
        plan = plan_truncation(cert, gamma, 0.5 * _MIN_NORMAL)
    except DivergenceUnknown:  # a horizon past _PLAN_CAP
        return None
    if env.last is not None:  # a finite support's tail is exactly 0
        return plan
    return TruncationPlan(plan.last_index, _MIN_NORMAL)


# ---------------------------------------------------------------------------
# Term-space envelopes
# ---------------------------------------------------------------------------


_RATIO_FLOOR = 1e-12  # widened ratios stay positive, so a scale can be solved for


def _scale_product(x: float, y: float) -> float:
    """x * y for scales x, y >= 0, never rounded down to 0: below the normal
    range the product rounds (even to 0) by up to half a subnormal unit, and
    a bound must not round down, so one unit (_TINY) is added there. A chain
    x * y * z is _scale_product(_scale_product(x, y), z)."""
    p = x * y
    if 0.0 < x and 0.0 < y and p < _MIN_NORMAL:
        p += _TINY
    return p


def _scale_exp(scale: float, g: float) -> float:
    """scale * e**g for scale, g >= 0, rounded up, where g may sit half an
    ulp below the exact exponent it stands for (a rounded product): e**g
    turns that into g ulp, and exp and the product each round by up to an
    ulp (below the normal range, _scale_product's unit), so the product is
    raised by (g + 4) ulp. Raises OverflowError where e**g overflows."""
    return _scale_product(scale, math.exp(g)) * (1.0 + (g + 4.0) * _ULP)


def _quotient_up(x: float, ratio: float, dist: float) -> float:
    """x / (1 - ratio * dist) for floats x >= 0 and ratio * dist < 1, the
    divisor taken exactly, rounded up to a float (+inf past the float range)."""
    from fractions import Fraction

    exact = Fraction(x) / (1 - Fraction(ratio) * Fraction(dist))
    try:
        f = float(exact)
    except OverflowError:
        return math.inf
    return math.nextafter(f, math.inf) if f < exact else f


def _needed_scale(d: float, n: int, ratio: float, k: int) -> float:
    """A scale s with d <= s * ratio**n / (n!)**k, for d > 0 and ratio > 0.

    Computed directly while ratio**n and n! are floats and s is normal;
    otherwise in logs, raised by a bound on the logs' roundoff, plus one
    subnormal unit for the rounding of exp.
    """
    lr = n * math.log(ratio)
    if n <= _MAX_FLOAT_FACTORIAL and abs(lr) < _LOG_SAFE:
        s = (d * _FACT[n] if k else d) / ratio ** n
        if _MIN_NORMAL <= s < math.inf:
            return s
    ld = math.log(d)
    lg = math.lgamma(n + 1) if k else 0.0
    log_s = ld + lg - lr
    return _exp_signed(1, log_s + 8.0 * _ULP * (abs(ld) + lg + abs(lr) + 1.0)) + _TINY


@dataclass(slots=True)
class _TermEnvelope:
    """A certified bound on a term function p(n): the terms
    a_n * gamma**n / n! of a measure, or a sum, product or shift of them.

    - ``k`` None: no bound (Unverified);
    - ``last`` not None: finite support, p(n) = 0 for n > last (-1: p = 0);
    - otherwise |p(n)| <= scale * ratio**n / (n!)**k for n >= start, with
      k = 1 for Bounded and GeometricEnvelope coefficients and k = 0 for
      FactorialGeometric ones, at ratio (certificate ratio) * |gamma|.

    ``term`` is p itself; widened() reads it. Operations return new
    envelopes and never change one.
    """

    k: int | None = 1
    scale: float = 0.0
    ratio: float = 1.0
    start: int = 0
    last: int | None = None
    term: Callable[[int], float] | None = field(default=None, repr=False, compare=False)

    @classmethod
    def of(cls, cert: GrowthCertificate, gamma: float,
           term: Callable[[int], float] | None = None) -> "_TermEnvelope":
        """The envelope that cert gives the terms a_n * gamma**n / n!;
        ``term``, the terms themselves, is needed only to widen it."""
        g = abs(gamma)
        if isinstance(cert, FiniteSupport):
            return cls(last=cert.last, term=term)
        if isinstance(cert, Bounded):
            return cls(1, cert.bound, g, term=term)
        if isinstance(cert, GeometricEnvelope):
            return cls(1, cert.scale, cert.ratio * g, cert.start, term=term)
        if isinstance(cert, FactorialGeometric):
            return cls(0, cert.scale, cert.ratio * g, cert.start, term=term)
        return cls(None)

    def tail(self, last_index: int) -> float:
        """Bound on sum_{n > last_index} |p(n)|; +inf where the envelope
        bounds nothing: no bound, indices before start, a k = 0 ratio of
        1 or more."""
        if self.k is None:
            return math.inf
        if self.last is not None:
            return 0.0 if last_index >= self.last else math.inf
        if last_index < self.start:
            return math.inf
        if self.k:
            return _factorial_ratio_tail(self.scale, self.ratio, last_index)
        q = self.ratio
        if self.scale == 0.0 or q == 0.0:
            return 0.0
        if q >= 1.0:
            return math.inf
        return _ratio_tail(math.log(self.scale) + (last_index + 1) * math.log(q), q)

    def widened(self, ratio: float = 1.0) -> "_TermEnvelope":
        """The same bound as a decay bound from index 0 on: the scale grows
        to cover the terms below start (a finite support becomes ``ratio``)
        and the ratio is floored at _RATIO_FLOOR. A k = 1 scale that
        overflows falls back to k = 0."""
        if self.k is None:
            return self
        if self.last is not None:
            scale, ratio, stop = 0.0, max(ratio, _RATIO_FLOOR), self.last + 1
        else:
            scale, ratio, stop = self.scale, max(self.ratio, _RATIO_FLOOR), self.start
        for n in range(stop):
            d = abs(self.term(n))
            if d != 0.0:
                scale = max(scale, _needed_scale(d, n, ratio, self.k))
        if self.k and not math.isfinite(scale):
            return replace(self, k=0).widened(ratio)
        return _TermEnvelope(self.k, scale, ratio)

    def scaled(self, w: float) -> "_TermEnvelope":
        """The envelope of w * p; w = 0 gives the zero function."""
        if w == 0.0:
            return _TermEnvelope(last=-1)
        term = self.term
        return _TermEnvelope(self.k, _scale_product(abs(w), self.scale), self.ratio,
                             self.start, self.last,
                             None if term is None else (lambda n: w * term(n)))

    def add(self, other: "_TermEnvelope") -> "_TermEnvelope":
        """The envelope of p + q, where other bounds q. A finite support
        summed with a decay bound is widened first: to its partner's k and
        ratio when that partner is k = 0, else to ratio 1."""
        if self.k is None or other.k is None:
            return _TermEnvelope(None)
        if self.last is not None and other.last is not None:
            return _TermEnvelope(last=max(self.last, other.last))
        a, b = self._widened_beside(other), other._widened_beside(self)
        return _TermEnvelope(min(a.k, b.k), a.scale + b.scale, max(a.ratio, b.ratio),
                             max(a.start, b.start))

    def _widened_beside(self, other: "_TermEnvelope") -> "_TermEnvelope":
        if self.last is None:
            return self
        if other.k == 0:
            return replace(self, k=0).widened(other.ratio)
        return self.widened()

    def cauchy(self, other: "_TermEnvelope") -> "_TermEnvelope":
        """The envelope of the Cauchy product l -> sum_n p(n) q(l - n),
        where other bounds q. Two finite supports give the support of the
        product; otherwise both are widened first."""
        if self.k is None or other.k is None:
            return _TermEnvelope(None)
        if self.last is not None and other.last is not None:
            return _TermEnvelope(last=-1 if -1 in (self.last, other.last)
                                 else self.last + other.last)
        a, b = self.widened(), other.widened()
        if a.k == b.k == 1:
            # sum_n S1 R1^n/n! S2 R2^(l-n)/(l-n)! = S1 S2 (R1+R2)^l / l!
            return _TermEnvelope(1, _scale_product(a.scale, b.scale), a.ratio + b.ratio)
        if a.k == b.k == 0:
            # (l+1) S1 S2 Rmax^l <= 2.05 S1 S2 (1.25 Rmax)^l
            return _TermEnvelope(0, _scale_product(_scale_product(2.05, a.scale), b.scale),
                                 1.25 * max(a.ratio, b.ratio))
        if a.k == 0:
            a, b = b, a
        # k = 1 times k = 0: S2 R2^l S1 sum (R1/R2)^n/n! <= S1 S2 e^(R1/R2) R2^l
        scale = _scale_product(_scale_product(a.scale, b.scale), _exp_signed(1, a.ratio / b.ratio))
        return _TermEnvelope(0, scale, b.ratio)

    def rho(self, other: "_TermEnvelope") -> "_TermEnvelope":
        """The envelope of n! * p(n) * q(n), the summand of the inner product.

        Raises DivergenceUnknown when either side is unbounded or decays
        only geometrically (k = 0): the n!-weighted product then diverges.
        """
        for e in (self, other):
            if e.k is None:
                raise DivergenceUnknown("an operand of an inner product on an infinite "
                                        "set carries no growth certificate")
            if e.last is None and e.k == 0:
                raise DivergenceUnknown("inner products against factorially growing "
                                        "coefficients diverge on infinite sets")
        supports = [e.last for e in (self, other) if e.last is not None]
        if supports:
            return _TermEnvelope(last=min(supports))
        return _TermEnvelope(1, _scale_product(self.scale, other.scale), self.ratio * other.ratio,
                             max(self.start, other.start))

    def square(self) -> "_TermEnvelope":
        """The envelope of p(n)**2. It stays at k = 1, although p**2 decays
        like (n!)**-2 there."""
        if self.k is None or self.last is not None:
            return _TermEnvelope(self.k, last=self.last)
        return _TermEnvelope(self.k, _scale_product(self.scale, self.scale), self.ratio ** 2,
                             self.start)

    def shifted(self, dist: float) -> "_TermEnvelope":
        """For a widened envelope: the envelope of the Taylor shift
        c_k = sum_m p(k+m) binom(k+m, m) delta**m, |delta| = dist, with its
        scale, and a k = 0 ratio, rounded up: scale * e**(ratio * dist) for
        k = 1 (_scale_exp), and scale and ratio over 1 - ratio * dist, taken
        exactly, for k = 0.

        Raises OutOfDomain when a k = 0 bound's radius 1/ratio is reached.
        """
        if self.k:
            return _TermEnvelope(1, _scale_exp(self.scale, self.ratio * dist), self.ratio)
        if self.ratio * dist >= 1.0:
            raise OutOfDomain("shift distance reaches the certificate's divergence radius")
        return _TermEnvelope(0, _quotient_up(self.scale, self.ratio, dist),
                             _quotient_up(self.ratio, self.ratio, dist))

    def shift_tail(self, k: int, dist: float, M: int) -> float:
        """A bound on sum_{m > M} |p(k+m)| binom(k+m, m) dist**m for a
        decay bound; +inf while the tail still reaches below start, where
        the terms are explicit and are summed instead."""
        if k + M + 1 < self.start:
            return math.inf
        s, r = self.scale, max(self.ratio, _RATIO_FLOOR)
        if self.k:
            # S r^k / k! times the tail of sum (r dist)^m / m!
            t = _factorial_ratio_tail(s, r * dist, M)
            if t <= 0.0:
                return 0.0
            log_t = math.log(t) + k * math.log(r) - math.lgamma(k + 1)
            return math.exp(min(log_t, 700.0))
        # the first tail term S r^k binom(k+M+1, M+1) q^(M+1), over
        # 1 - q rho: q rho bounds the ratio of successive terms
        q = r * dist
        rho = (k + M + 2) / (M + 2)
        if s == 0.0 or q == 0.0:
            return 0.0
        if q * rho >= 1.0:
            return math.inf
        log_t = (math.log(s) + k * math.log(r)
                 + math.lgamma(k + M + 2) - math.lgamma(M + 2) - math.lgamma(k + 1)
                 + (M + 1) * math.log(q) - math.log1p(-q * rho))
        return math.exp(min(log_t, 700.0))

    def at(self, n: int) -> float:
        """The decay bound scale * ratio**n / (n!)**k at n, capped at e**700."""
        if self.scale <= 0.0:
            return 0.0
        log_v = math.log(self.scale) + n * math.log(self.ratio)
        if self.k:
            log_v -= math.lgamma(n + 1)
        return math.exp(min(log_v, 700.0))

    def pulled_in(self, n: int, v: float) -> float:
        """A computed p(n) = v below the normal range, moved toward 0 to
        the largest multiple of _TINY within the bound on |p(n)| if it lies
        beyond it.

        Rounding there is absolute, so a composed term can exceed an exact
        bound below one subnormal unit. The exact term lies within the
        bound, so the result is no farther from it than v or one _TINY. A
        bound within the subnormal range is taken in exact arithmetic."""
        if self.k is None or (self.last is None and n < self.start):
            return v
        if self.last is not None:
            return v if n <= self.last else 0.0
        if self.scale == 0.0 or (self.ratio == 0.0 and n > 0):
            return 0.0
        log_b = math.log(self.scale) + (n * math.log(self.ratio) if n else 0.0)
        if self.k:
            log_b -= math.lgamma(n + 1)
        if not log_b <= _LOG_MIN_NORMAL:
            return v
        if log_b < _LOG_TINY:
            return 0.0
        from fractions import Fraction

        units = Fraction(self.scale) * Fraction(self.ratio) ** n * 2 ** 1074
        if self.k:
            units /= math.factorial(n)
        return math.copysign(min(abs(v), math.ldexp(math.floor(units), -1074)), v)

    def within(self, run: Callable[[Union[range, list, tuple]], list[float]]) -> _TermRun:
        """The term function whose runs ``run`` gives (indices -> values),
        bounded by this envelope, as a _TermRun with each value below the
        normal range pulled in (pulled_in): such a value may round past an
        exact bound."""
        pull = self.pulled_in

        def pulled(indices: Union[range, list, tuple]) -> list[float]:
            return [pull(n, v) if 0.0 < abs(v) < _MIN_NORMAL else v
                    for n, v in zip(indices, run(indices))]

        return _TermRun(pulled)

    def to_certificate(self, gamma: float) -> GrowthCertificate:
        """The certificate of the coefficients a_n = n! * p(n) / gamma**n:
        the envelope's ratio divided by |gamma|. A bound whose scale is
        not finite certifies nothing."""
        if self.k is None or not math.isfinite(self.scale):
            return Unverified()
        if self.last is not None:
            return FiniteSupport(self.last)
        ratio = self.ratio / abs(gamma)
        if self.k:
            return GeometricEnvelope(self.scale, ratio, self.start)
        return FactorialGeometric(self.scale, ratio, self.start)


# ---------------------------------------------------------------------------
# Compensated summation
# ---------------------------------------------------------------------------


class _NeumaierSum:
    """Compensated accumulator; error stays O(eps * sum|x|) regardless of order."""

    __slots__ = ("high", "comp")

    def __init__(self):
        self.high = 0.0
        self.comp = 0.0

    def add(self, x: float) -> None:
        t = self.high + x
        if abs(self.high) >= abs(x):
            self.comp += (self.high - t) + x
        else:
            self.comp += (x - t) + self.high
        self.high = t

    @property
    def value(self) -> float:
        return self.high + self.comp


class _SignSplit(NamedTuple):
    """What the summation pass (_sum_terms) returns for a set's terms,
    split by sign.

    pos sums the positive terms and neg the negated negative ones, so
    T(B) = pos - neg and |T|(B) = pos + neg; error bounds the roundoff of
    both. pos_error and neg_error bound that of pos and of neg: they count
    the terms >= 0 and the terms <= 0, since a term that rounded to 0 may
    have underflowed, and then its sign is unknown.
    """

    pos: float
    neg: float
    error: float
    pos_error: float
    neg_error: float

    def part(self, name: str, tail: float) -> tuple[float, float]:
        """One sum and its error bound, with ``tail`` added to it: "signed"
        (pos - neg), "variation" (pos + neg), "pos" or "neg"."""
        if name == "signed":
            return self.pos - self.neg, self.error + tail
        if name == "variation":
            return self.pos + self.neg, self.error + tail
        if name == "pos":
            return self.pos, self.pos_error + tail
        return self.neg, self.neg_error + tail


def _coefficients(seq: SequenceLike, indices: Union[range, list, tuple]) -> list[float]:
    """seq.a(n) for every natural n in indices, in order, fetched as one
    block: the prefix is read by slice or subscript, a constant or rule
    tail directly, a geometric tail as scale * ratio**n in one pass, and a
    term-backed sequence's terms as one block (_term_block). seq.a(n)
    itself is called only where a geometric tail's a(n) takes its closed
    form in logs (|n log|ratio|| > _LOG_SAFE), with the same test, so each
    value has seq.a(n)'s bits."""
    if isinstance(seq, TermBackedSequence):
        terms = _term_block(seq, seq.presentation_gamma, indices, errors=False)
        return list(map(seq._coefficient, indices, terms))
    prefix, t = seq.prefix, seq.tail
    size = len(prefix)
    if isinstance(t, GeometricTail) and t.scale != 0.0:
        s, r, a = t.scale, t.ratio, seq.a
        lr = abs(math.log(abs(r))) if r else 0.0
        return [prefix[n] if n < size else s * r ** n if n * lr <= _LOG_SAFE else a(n)
                for n in indices]
    if isinstance(t, CustomTail):
        rule = t.rule
        return [prefix[n] if n < size else rule(n) for n in indices]
    c = t.value if isinstance(t, ConstantTail) else 0.0
    if isinstance(indices, range) and indices.step == 1:
        lo, hi = indices.start, indices.stop
        return list(prefix[lo:hi]) + [c] * (hi - max(lo, size))
    return [prefix[n] if n < size else c for n in indices]


def _term_block(seq: SequenceLike, gamma: float, indices: Union[range, list, tuple],
                errors: bool = True) -> list:
    """seq's terms at gamma over increasing naturals, fetched as one block:
    each (value, error) pair exactly as _term_and_err forms it, or the values
    alone when not ``errors``. A term-backed sequence at its presentation
    gamma reads its terms as one run (its term_rule's, where that is a
    _TermRun); every other sequence reads its coefficients so
    (_coefficients), forms each nonzero term at 0 < n <= the block's reach
    (_linear_reach) as a * gamma**n / n!, and every other one with
    _term_from_coefficient. A run of one index is _term_and_err's."""
    if len(indices) == 1:
        term = _term_and_err(seq, gamma, indices[0])
        return [term if errors else term[0]]
    if isinstance(seq, TermBackedSequence) and gamma == seq.presentation_gamma:
        rule = seq.term_rule
        values = rule.run(indices) if isinstance(rule, _TermRun) else list(map(rule, indices))
        if not errors:
            return values
        block = [(q, abs(q) * 2.0 * _ULP) for q in values]
    else:
        coeffs = _coefficients(seq, indices)
        reach, fact = _linear_reach(indices, coeffs, gamma), _FACT
        if not errors:
            return [a * gamma ** n / fact[n] if a and 0 < n <= reach
                    else _term_from_coefficient(seq, a, gamma, n)[0]
                    for n, a in zip(indices, coeffs)]
        block = [((v := a * gamma ** n / fact[n]), abs(v) * 4.0 * _ULP + _TINY)
                 if a and 0 < n <= reach else _term_from_coefficient(seq, a, gamma, n)
                 for n, a in zip(indices, coeffs)]
    bias = _term_errors(seq, gamma)
    if bias is None:
        return block
    return [(v, e + bias(n)) for n, (v, e) in zip(indices, block)]


def _sum_terms(seq: SequenceLike, gamma: float, indices: Iterable[int],
               pairs: Iterable[tuple[float, float]] | None = None) -> _SignSplit:
    """The one float summation pass behind every set sum: seq's terms at
    gamma over indices, compensated sums by sign and the terms' errors
    summed in index order, each term exactly as _term_and_err forms it.
    measure._set_sum takes an exact run instead where one applies
    (_exact_first); sum_terms does so through _exact_over.

    The terms are formed and summed in one loop, from one block of
    coefficients (_coefficients) and one reach per block (_linear_reach):
    a nonzero term at 0 < n <= reach is formed inline as a * gamma**n / n!,
    with no per-term range test, and every other one by
    _term_from_coefficient; a term-backed sequence's term_error is added
    to each term's error, as _term_and_err adds it.
    ``pairs`` are terms already formed, (value, error) in index order,
    summed as they are until they stop; seq and gamma are then not read.
    A term-backed sequence at its presentation gamma is read so
    (_term_block), and so are geometry's rho summands.
    """
    if not isinstance(indices, (range, list, tuple)):
        indices = list(indices)
    if indices and min(indices) < 0:
        raise ValueError("index must be a natural number")
    if pairs is None and isinstance(seq, TermBackedSequence) and gamma == seq.presentation_gamma:
        pairs = _term_block(seq, gamma, indices)
    formed = pairs is not None
    bias = None if formed else _term_errors(seq, gamma)
    block = pairs if formed else _coefficients(seq, indices)
    reach = 0 if formed else _linear_reach(indices, block, gamma)
    fact = _FACT
    hp = cp = hn = cn = err = ep = en = 0.0
    for n, a in zip(indices, block):
        if formed:
            v, e = a
        elif a == 0.0:
            if bias is None:
                continue  # a zero term with no error adds nothing to any sum
            v = e = 0.0
        elif 0 < n <= reach:
            v = a * gamma ** n / fact[n]
            e = abs(v) * 4.0 * _ULP + _TINY
        else:
            v, e = _term_from_coefficient(seq, a, gamma, n)
        if bias is not None:
            e = e + bias(n)
        err += e
        if v > 0.0:
            t = hp + v
            if hp >= v:
                cp += (hp - t) + v
            else:
                cp += (v - t) + hp
            hp = t
            ep += e
        elif v < 0.0:
            x = -v
            t = hn + x
            if hn >= x:
                cn += (hn - t) + x
            else:
                cn += (x - t) + hn
            hn = t
            en += e
        else:
            ep += e
            en += e
    p, m = hp + cp, hn + cn
    return _SignSplit(p, m, err + 2.0 * _ULP * (p + m), ep + 2.0 * _ULP * p,
                      en + 2.0 * _ULP * m)


def sum_terms(seq: SequenceLike, gamma: float, indices: Iterable[int]) -> tuple[float, float]:
    """Sum the terms at the given indices, split by sign.

    Returns (pos, neg) with pos = sum of positive terms and neg = minus
    the sum of negative terms; both are >= 0 and the signed total is
    pos - neg. The indices are summed in increasing order, so any
    permutation of them gives the same result. The pass is the one behind
    evaluate and the Jordan parts, so a long run of exact terms
    (_exact_over) gives each part correctly rounded.
    Raises ValueError for a gamma that is not finite.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if not (isinstance(indices, range) and indices.step > 0):
        indices = sorted(indices)
    terms = _Terms(seq, gamma)
    s = _exact_over(indices, terms) or terms.sum(indices)
    return s.part("pos", 0.0)[0], s.part("neg", 0.0)[0]


def _require_certificate(seq: SequenceLike, what: str) -> None:
    if isinstance(seq.certificate, Unverified):
        raise DivergenceUnknown(
            f"{what} over an infinite set requires a growth certificate; "
            "this measure's coefficient sequence is Unverified"
        )


class _Terms:
    """seq's terms at gamma as measure._set_sum sums them: plan() plans a
    truncation, horizon() gives the underflow horizon, sum() is the float
    pass (_sum_terms) and ``exact`` the terms exactly (exact._exact_terms)
    or None, formed on first use."""

    def __init__(self, seq: SequenceLike, gamma: float):
        self.seq, self.gamma = seq, gamma

    def plan(self, eps: float) -> TruncationPlan:
        _require_certificate(self.seq, "evaluation")
        return plan_truncation(self.seq.certificate, self.gamma, eps)

    def horizon(self, last: int) -> TruncationPlan | None:
        return underflow_horizon(self.seq, self.gamma, last)

    def sum(self, indices: Union[range, list, tuple]) -> _SignSplit:
        return _sum_terms(self.seq, self.gamma, indices)

    @cached_property
    def exact(self) -> "exact._ExactTerms | None":
        from .exact import _exact_terms

        return _exact_terms(self.seq, self.gamma)


# ---------------------------------------------------------------------------
# Exact runs
# ---------------------------------------------------------------------------

# A run is summed exactly from the start, with no float pass, when its last
# index passes _EXACT_FROM, where the float path turns to lgamma, and its
# numerators are at most _EXACT_BITS long; one past _EXACT_CAP is not, since
# the cost of an exact run grows faster than linearly in its length and in
# the bits each index adds. Measured against the float pass on 2 vCPUs: at
# numerators of up to 24 bits the exact run costs 0.1-0.6x the float pass
# at every N from 178 to 5,000; at 32 bits 1.1-1.4x from N = 3,500 on; at
# 53 bits (a generic gamma) 1.1-1.3x from N = 549 on and 1.75x at 5,000.
# The exact sums live in the exact module, loaded on first use.
_EXACT_FROM = _MAX_FLOAT_FACTORIAL
_EXACT_CAP = 5000
_EXACT_BITS = 24


def _exact_first(last: int, size: int, terms) -> "exact._ExactTerms | None":
    """The terms of a run over 0..last that holds ``size`` of those indices,
    when the run is summed exactly from the start: its last index lies past
    _EXACT_FROM and not past _EXACT_CAP, it holds more than half of 0..last,
    terms.exact gives its terms exactly, and their numerators are at most
    _EXACT_BITS long (exact._ExactTerms.bits). None otherwise: sparser runs
    keep the float path, since each index an exact run skips still costs a
    subtraction the size of the run, and so do longer numerators, past
    which the exact run costs more than the float pass."""
    if not (_EXACT_FROM < last <= _EXACT_CAP and 2 * size > last + 1):
        return None
    found = terms.exact
    return found if found is not None and found.bits <= _EXACT_BITS else None


def _exact_over(indices: Union[range, list, tuple], terms) -> "exact._ExactSum | None":
    """The exact sum (exact._ExactSum) of terms (_Terms, or geometry's
    _RhoTerms) over increasing natural indices when their run is summed
    exactly from the start (_exact_first); None otherwise."""
    if not indices:
        return None
    last = indices[-1]
    found = _exact_first(last, len(indices), terms)
    if found is None or indices[0] < 0:
        return None
    if isinstance(indices, range):
        if indices.step < 0:
            return None
    elif not all(a < b for a, b in zip(indices, indices[1:])):
        return None
    from .exact import _ExactSum

    present = set(indices)
    return _ExactSum(found, last, [n for n in range(last + 1) if n not in present])
