"""Exact runs: sums of terms that are exact by definition, in integers.

Coefficients given by an explicit prefix and a zero, constant or geometric
tail make every term a_n * gamma**n / n! an exact dyadic rational. A run
of them over 0 <= n <= last is summed here as integers over the one
denominator last! * 2**(k last + e), by binary splitting, and each sum is
rounded once by an int / int division, which CPython rounds correctly.

measure._set_sum decides which runs come here, through
kernel._exact_first, and loads this module on first use, so short sums
never compile it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .kernel import (
    _TINY,
    CoefficientSequence,
    ConstantTail,
    GeometricTail,
    SequenceLike,
    ZeroTail,
    _value_type,
)

_LEAF = 64  # runs up to this long are stepped forward, longer ones split


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """fl(a + b) and the exact remainder a + b - fl(a + b) (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _add_up(a: float, b: float) -> float:
    """a + b rounded upward."""
    s, r = _two_sum(a, b)
    return math.nextafter(s, math.inf) if r > 0.0 else s


def _sub_down(a: float, b: float) -> float:
    """a - b rounded downward."""
    s, r = _two_sum(a, -b)
    return math.nextafter(s, -math.inf) if r < 0.0 else s


def _half_ulp(v: float) -> float:
    """A bound on the error of v, a correctly rounded result: half an ulp,
    or one subnormal unit where half a unit is not a float."""
    u = math.ulp(v)
    return 0.5 * u if u > _TINY else _TINY


def _dyadic(x: Fraction) -> tuple[int, int]:
    """(m, k) with x = m / 2**k, for a dyadic rational x."""
    return x.numerator, x.denominator.bit_length() - 1


def _series(m: int, k: int, a: int, b: int) -> tuple[int, int, int]:
    """(S, P, Q) for the run a <= n < b of x**n / n! at x = m / 2**k:

        S = sum_n m**(n - a) * (b - 1)! / n! * 2**(k (b - 1 - n)),
        P = m**(b - a),  Q = a * (a + 1) * ... * (b - 1).

    Long runs are split in halves and joined by S = S1 Q2 2**(k len2) + P1 S2
    (binary splitting, Brent and Zimmermann, Modern Computer Arithmetic,
    ch. 4). A short run steps S forward four indices at a time.
    """
    if b - a > _LEAF:
        c = (a + b) // 2
        s1, p1, q1 = _series(m, k, a, c)
        s2, p2, q2 = _series(m, k, c, b)
        return ((s1 * q2) << (k * (b - c))) + p1 * s2, p1 * p2, q1 * q2
    s, p, q, n = 0, 1, 1, a
    m2 = m * m
    m3, m4 = m2 * m, m2 * m2
    while n + 4 <= b:
        x = n * (n + 1) * (n + 2) * (n + 3)
        q1, q2, q3 = (n + 1) << k, (n + 2) << k, (n + 3) << k
        s = ((s * x) << (4 * k)) + p * (((q1 + m) * q2 + m2) * q3 + m3)
        p, q, n = p * m4, q * x, n + 4
    for n in range(n, b):
        s = s * (n << k) + p
        p, q = p * m, q * n
    return s, p, q


class _Run:
    """sum_{lo <= n <= last} m**n * last! / n! * 2**(k (last - n)), the run
    of x**n / n! at x = m / 2**k scaled by last! * 2**(k last), which
    extend() carries on to a later last without summing it again."""

    __slots__ = ("m", "k", "last", "s", "p", "base")

    def __init__(self, m: int, k: int, lo: int, last: int):
        self.m, self.k, self.last = m, k, lo - 1
        self.s, self.p, self.base = 0, 1, m ** lo
        self.extend(last)

    def extend(self, last: int) -> None:
        if last > self.last:
            s, p, q = _series(self.m, self.k, self.last + 1, last + 1)
            self.s = ((self.s * q) << (self.k * (last - self.last))) + self.p * s
            self.p *= p
            self.last = last

    def total(self) -> int:
        return self.s * self.base


def _sparse(m: int, k: int, indices: list[int], last: int) -> int:
    """sum_{n in indices} m**n * last! / n! * 2**(k (last - n)), for
    increasing indices up to last."""
    acc = pw = 0
    prev = None
    for n in indices:
        if prev is None:
            acc = pw = m ** n
        else:
            pw *= m ** (n - prev)
            acc = ((acc * math.perm(n, n - prev)) << (k * (n - prev))) + pw
        prev = n
    return (acc * math.perm(last, last - prev)) << (k * (last - prev))


@_value_type
class _ExactTerms:
    """Terms c_n * x**n / n! given exactly, every number a dyadic rational:
    c_n = head[n] below len(head), and c_n = tail * rho**n from there on."""

    def __init__(self, head: tuple[Fraction, ...], x: Fraction, tail: Fraction, rho: Fraction):
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "rho", rho)

    def numerators(self) -> tuple[int, int, int]:
        """(k, mh, mt) with x = mh / 2**k and x * rho = mt / 2**k, over
        their common power of two."""
        mh, kh = _dyadic(self.x)
        mt, kt = _dyadic(self.x * self.rho)
        k = max(kh, kt)
        return k, mh << (k - kh), mt << (k - kt)

    @property
    def bits(self) -> int:
        """The bit length of the longer numerator: about how many bits each
        index adds to a run's integers, besides its factorial's."""
        _, mh, mt = self.numerators()
        return max(abs(mh).bit_length(), abs(mt).bit_length())

    def coefficient(self, n: int) -> Fraction:
        return self.head[n] if n < len(self.head) else self.tail * self.rho ** n

    def times(self, other: "_ExactTerms") -> "_ExactTerms":
        """The terms n! * p(n) * q(n), where other gives q: the summand of
        the inner product."""
        size = max(len(self.head), len(other.head))
        head = tuple(self.coefficient(n) * other.coefficient(n) for n in range(size))
        return _ExactTerms(head, self.x * other.x, self.tail * other.tail, self.rho * other.rho)


def _exact_terms(seq: SequenceLike, gamma: float) -> _ExactTerms | None:
    """seq's terms at gamma, exactly, when its coefficients are exact by
    definition: a prefix, then a zero, constant or geometric tail. A
    geometric tail enters as its scale at ratio rho, so its terms are
    scale * (gamma * ratio)**n / n! exactly, not through the rounded
    scale * ratio**n that seq.a(n) returns. None for a rule or term-backed
    sequence, and for a gamma that is not finite."""
    if not isinstance(seq, CoefficientSequence) or not math.isfinite(gamma):
        return None
    t = seq.tail
    if isinstance(t, ZeroTail):
        tail, rho = Fraction(0), Fraction(1)
    elif isinstance(t, ConstantTail):
        tail, rho = Fraction(t.value), Fraction(1)
    elif isinstance(t, GeometricTail):
        tail, rho = Fraction(t.scale), Fraction(t.ratio)
    else:
        return None
    return _ExactTerms(tuple(map(Fraction, seq.prefix)), Fraction(gamma), tail, rho)


class _ExactSum:
    """The sums of exact terms over 0 <= n <= last less ``excluded``, each an
    integer over the one denominator last! * 2**(k last + e), rounded once
    by an int / int division (part).

    The head is summed per sign in one forward pass. The tail's terms at
    x * rho = m / 2**k have the sign of its coefficient times sign(m)**n,
    so its sum at m gives the signed sum and its sum at |m| the variation;
    a part that splits an alternating tail by sign needs both (one _Run
    each). Excluded tail indices are subtracted (_sparse). extend() moves
    last on, and the runs carry on from where they stopped.
    """

    def __init__(self, terms: _ExactTerms, last: int, excluded: Iterable[int] = ()):
        self.terms, self.last = terms, last
        self.excluded = tuple(sorted(excluded))
        self.k, self.mh, self.mt = terms.numerators()
        self.e = e = max(_dyadic(c)[1] for c in (*terms.head, terms.tail))
        self.ct = terms.tail.numerator << (e - _dyadic(terms.tail)[1])
        self._head: tuple[int, int, int] | None = None
        self._runs: dict[int, _Run] = {}
        self._memo: dict[tuple, object] = {}

    def extend(self, last: int) -> None:
        self.last = max(self.last, last)

    def _head_sums(self) -> tuple[int, int]:
        """The head's positive and negated negative terms, scaled."""
        head, k = self.terms.head, self.k
        h = min(len(head), self.last + 1) - 1
        if self._head is None or self._head[0] != h:
            pos = neg = 0
            pw, skip = 1, set(self.excluded)
            for n in range(h + 1):
                if n:
                    pos, neg = pos * (n << k), neg * (n << k)
                c = head[n]
                if c and n not in skip:
                    t = (c.numerator << (self.e - _dyadic(c)[1])) * pw
                    if t > 0:
                        pos += t
                    else:
                        neg -= t
                pw *= self.mh
            self._head = (h, pos, neg)
        h, pos, neg = self._head
        f = math.perm(self.last, self.last - h) << (k * (self.last - h))
        return pos * f, neg * f

    def _tail(self, m: int) -> int:
        """The tail's sum of m**n * last! / n! * 2**(k (last - n))."""
        lo, last = len(self.terms.head), self.last
        if not self.ct or last < lo:
            return 0
        key = (m, last)
        if key not in self._memo:
            run = self._runs.get(m)
            if run is None:
                run = self._runs[m] = _Run(m, self.k, lo, last)
            run.extend(last)
            total = run.total()
            skip = [n for n in self.excluded if lo <= n <= last]
            if skip:
                total -= _sparse(m, self.k, skip, last)
            self._memo[key] = total
        return self._memo[key]

    def _numerator(self, name: str) -> int:
        pos, neg = self._head_sums()
        ct, mt = self.ct, self.mt
        if name == "signed":
            return pos - neg + ct * self._tail(mt)
        if name == "variation":
            return pos + neg + abs(ct) * self._tail(abs(mt))
        # the tail terms with the sign of ct, and those with the other one
        same, other = self._tail(mt), 0
        if mt < 0:
            whole = self._tail(-mt)
            same, other = (whole + same) >> 1, (whole - same) >> 1
        if ct < 0:
            same, other = other, same
        return pos + abs(ct) * same if name == "pos" else neg + abs(ct) * other

    def rounded(self, name: str) -> tuple[float, float]:
        """The part correctly rounded, and half an ulp of it (_half_ulp);
        0 with no error for an exact zero, and inf past the float range."""
        key = (name, self.last)
        if key not in self._memo:
            num = self._numerator(name)
            if not num:
                out = (0.0, 0.0)
            else:
                den = math.factorial(self.last) << (self.k * self.last + self.e)
                try:
                    v = num / den
                    out = (v, _half_ulp(v))
                except OverflowError:
                    out = (math.inf if num > 0 else -math.inf, math.inf)
            self._memo[key] = out
        return self._memo[key]

    def part(self, name: str, tail: float) -> tuple[float, float]:
        """As _SignSplit.part: the part rounded once, within half an ulp
        plus ``tail`` (rounded upward)."""
        v, half = self.rounded(name)
        return v, _add_up(half, tail)
