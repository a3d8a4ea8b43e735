"""Power-series pmfs and the probability content of signed Taylor measures.

A power-series family member has mass function

    f(n | zeta, b) = c(zeta, b) * b_n * zeta**n / n!,

where the reciprocal normalizer c(zeta, b)**-1 = sum_n b_n zeta**n / n! must
be finite and positive.  These pmfs are exactly the term functions of
positive Taylor measures with unit total mass, which gives two bridges:

* every signed Taylor measure splits into scaled probability measures,
  T(B) = mass_pos * Q_pos(B) - mass_neg * Q_neg(B), with Q built from the
  Jordan parts (``probability_pair``);
* every pmf on the naturals with certifiable tail behaviour is the term
  function of a positive Taylor measure for any gamma > 0 (``from_pmf``),
  and a difference of two power-series densities is a signed Taylor measure
  in canonical gamma = 1 presentation (``measure_from_densities``).

Quantiles are computed by incremental accumulation guarded by the certified
tail bound, so a query that the truncation horizon cannot resolve raises
QuantileTailUnresolved instead of silently returning a wrong index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .errors import (
    DegenerateDistribution,
    DivergenceUnknown,
    InvalidPmf,
    QuantileTailUnresolved,
)
from .kernel import (
    _NeumaierSum,
    _TINY,
    _ULP,
    CoefficientSequence,
    ConstantTail,
    GeometricTail,
    TermBackedSequence,
    Unverified,
    ZeroTail,
    _TermEnvelope,
    _Terms,
    _coefficients,
    _finite_terms,
    _term_block,
    plan_truncation,
)
from .measure import (
    MeasureValue,
    NatSet,
    TaylorMeasure,
    _set_sum,
    linear_combination,
)


def _as_sequence(b) -> CoefficientSequence:
    if isinstance(b, (CoefficientSequence, TermBackedSequence)):
        return b
    from .kernel import finite_sequence

    return finite_sequence(b)


def normalizer(zeta: float, b, eps: float = 1e-12) -> MeasureValue:
    """The reciprocal normalizing constant sum_n b_n * zeta**n / n!.

    The contract is evaluate's on all of N: weights b that are exact by
    definition (a prefix, then a zero, constant or geometric tail) are
    summed exactly and rounded once where evaluate sums them so, with
    abs_error the tail bound plus half an ulp, and abs_error <= eps holds
    or PrecisionUnattainable is raised when half an ulp of the sum alone
    reaches eps. For other weights abs_error may still exceed eps.

    Raises InvalidPmf when a negative weight shows up among the summed
    indices, DegenerateDistribution when the sum is zero within its error
    bound, and DivergenceUnknown when b carries no usable certificate.
    """
    return _normalizer(zeta, b, eps, True)


def _refuse_negative(s) -> None:
    """Raise InvalidPmf when a set sum of density weights met a negative one."""
    if s.part("neg", 0.0)[0] > 0.0:
        raise InvalidPmf("negative density weight b_n * zeta**n / n! encountered")


def _normalizer(zeta: float, b, eps: float, strict: bool) -> MeasureValue:
    """normalizer, holding its eps contract when ``strict``; a pmf's own
    normalizer is not, since its eps only sets the truncation."""
    if not 0.0 <= zeta < math.inf:
        raise ValueError(f"zeta must be finite and nonnegative, got {zeta}")
    b = _as_sequence(b)
    if isinstance(b.certificate, Unverified):
        raise DivergenceUnknown(
            "the density sequence carries no growth certificate, so the "
            "normalizer sum cannot be certified"
        )
    s, tail = _set_sum(_Terms(b, zeta), NatSet.all(), eps, "signed", strict)
    _refuse_negative(s)
    value, err = s.part("signed", tail)
    if value <= err:
        raise DegenerateDistribution(
            f"normalizer {value} is zero within its error bound {err}"
        )
    return MeasureValue(value, err)


class _IncrementalPmf:
    """The pmf engine: the pmf of one sign part of a Taylor measure,
    f(n) = max(sign * p(n), 0) / mass, with lazy cumulative sums over
    those weights and truncation plans from the measure's certificate,
    which plan_truncation memoises. PowerSeriesPmf is its positive part,
    with negative weights refused.

    The table grows by blocks of weights (kernel._term_block) and keeps each
    weight, which pmf, cdf and quantile read: each is formed once per object.
    """

    _refuses_negative = False

    def __init__(self, measure: TaylorMeasure, sign: int, mass: MeasureValue):
        self._measure = measure
        self._sign = 1 if sign >= 0 else -1
        self.normalizer = mass
        self._cum: list[float] = []
        self._weights: list[float] = []  # the weight behind each _cum entry
        self._acc = _NeumaierSum()

    def _weight(self, n: int, p: float) -> float:
        """The weight of the term p = p(n)."""
        w = self._sign * p
        if w < 0.0 and self._refuses_negative:
            raise InvalidPmf(f"negative density weight at index {n}")
        return w if w > 0.0 else 0.0

    def _plan(self, tail_eps: float = 1e-15):
        """The horizon that leaves tail_eps of the mass out."""
        T = self._measure
        eps_w = max(self.normalizer.value * tail_eps, 5e-324)
        return plan_truncation(T.coefficients.certificate, T.gamma, eps_w)

    def _extend(self, upto: int) -> None:
        """Extend the table through upto, from one block of the missing
        weights: a compensated running sum, each entry a corrected snapshot."""
        indices, T = range(len(self._cum), upto + 1), self._measure
        try:
            terms = _term_block(T.coefficients, T.gamma, indices, errors=False)
        except Exception:  # one index at a time: the table stops before the one that raises
            terms = map(T.term, indices)
        for n, p in zip(indices, terms):
            w = self._weight(n, p)
            self._weights.append(w)
            self._acc.add(w)
            self._cum.append(self._acc.value)

    def _cum_at(self, n: int) -> float:
        if n >= len(self._cum):
            self._extend(n)
        return self._cum[n]

    def pmf(self, n: int) -> float:
        """Probability mass at n."""
        if n < 0:
            return 0.0
        w = self._weights[n] if n < len(self._weights) else self._weight(n, self._measure.term(n))
        return w / self.normalizer.value

    def cdf(self, n: int) -> float:
        """Cumulative probability P(X <= n)."""
        if n < 0:
            return 0.0
        h = self._plan().last_index
        return self._cum_at(min(n, h)) / self.normalizer.value

    def quantile(self, u: float) -> int:
        """Smallest n with cdf(n) >= u.

        Raises QuantileTailUnresolved when u lies beyond the cumulative
        probability certified at the truncation horizon.
        """
        if not 0.0 <= u <= 1.0:
            raise ValueError("u must lie in [0, 1]")
        plan = self._plan()
        slack = (plan.tail_bound + self.normalizer.abs_error) / self.normalizer.value
        if plan.tail_bound > 0.0 and u > 1.0 - slack:
            raise QuantileTailUnresolved(
                f"quantile {u} exceeds the cumulative probability "
                f"{1.0 - slack} certified at horizon {plan.last_index}"
            )
        target = u * self.normalizer.value
        # past the table one index at a time: no weight past the answer is formed
        for n in range(plan.last_index + 1):
            if self._cum_at(n) >= target:
                return n
        positive = [n for n, w in enumerate(self._weights[:plan.last_index + 1]) if w > 0.0]
        if plan.tail_bound == 0.0 and positive:
            # finite support: the full mass is already in the table and u
            # exceeds it only through rounding
            return positive[-1]
        reached = self._cum_at(plan.last_index) / self.normalizer.value
        raise QuantileTailUnresolved(
            f"quantile {u} exceeds the cumulative probability {reached} "
            f"certified at horizon {plan.last_index}"
        )

    def cumulative_table(self, tail_eps: float = 1e-16) -> tuple[list[float], int]:
        """Normalized cdf table covering all but tail_eps of the mass."""
        plan = self._plan(tail_eps)
        self._extend(plan.last_index)
        norm = self.normalizer.value
        table = [c / norm for c in self._cum[: plan.last_index + 1]]
        return table, plan.last_index

    def set_probability(self, B: NatSet, eps: float = 1e-12) -> MeasureValue:
        """Probability of the index set B under this pmf, with
        |value - exact| <= abs_error.

        The part's weights are summed on B as evaluate sums them
        (measure._set_sum), with eps * mass as a truncation target only,
        and divided by the mass. For a part sum w within e and a mass m
        within d, abs_error is (e + (w / m) d) / (m - d) plus the rounding
        of the division, each step rounded upward. A finite B stops at the
        underflow horizon, as in evaluate.
        """
        T, mass = self._measure, self.normalizer
        part = "pos" if self._sign > 0 else "neg"
        s, tail = _set_sum(_Terms(T.coefficients, T.gamma), B,
                           max(mass.value * eps, 5e-324), part, False)
        if self._refuses_negative:
            _refuse_negative(s)
        w, e = s.part(part, tail)
        up, inf, m, d = math.nextafter, math.inf, mass.value, mass.abs_error
        p = w / m
        hi = up(p, inf)  # at least w / m, which the division rounded to p
        # m > d, so m - d rounded down to 0 was one subnormal unit, exactly
        err = up(up(e + up(hi * d, inf), inf) / (up(m - d, 0.0) or _TINY), inf)
        return MeasureValue(p, up(err + (hi - p), inf))


class PowerSeriesPmf(_IncrementalPmf):
    """Pmf f(n) = b_n * zeta**n / (n! * normalizer).

    The normalizer is computed once, with its certified error, at
    construction; an invalid family (negative weights, zero or uncertifiable
    normalizer) fails there, and a negative weight met later fails where it
    is met.
    """

    _refuses_negative = True

    def __init__(self, zeta: float, b, eps: float = 1e-12):
        self.zeta = float(zeta)
        self.b = _as_sequence(b)
        norm = _normalizer(self.zeta, self.b, eps, False)
        super().__init__(TaylorMeasure(self.b, self.zeta), 1, norm)

    def __repr__(self):
        return f"PowerSeriesPmf(zeta={self.zeta}, normalizer={self.normalizer.value})"


class JordanPmf(_IncrementalPmf):
    """Pmf of one sign-part of a Taylor measure: f(n) = p_side(n) / mass.

    Defined on all of the naturals, with zeros off the side's support, so
    both parts of a pair live on the same sample space. ``eps`` is
    accepted but unused: the mass comes in already summed.
    """

    def __init__(self, measure: TaylorMeasure, sign: int, mass: MeasureValue, eps: float = 1e-12):
        super().__init__(measure, sign, mass)

    def __repr__(self):
        side = "positive" if self._sign > 0 else "negative"
        return f"JordanPmf({side}, mass={self.normalizer.value})"


@dataclass(frozen=True)
class TaylorProbabilityPair:
    """Masses and pmfs of the two sign-parts of a Taylor measure.

    A side with zero mass (within its error bound) is omitted: its pmf slot
    holds None and it contributes nothing to the reconstruction.
    """

    mass_pos: float
    mass_neg: float
    q_pos: JordanPmf | None
    q_neg: JordanPmf | None

    def reconstruct(self, B: NatSet, eps: float = 1e-12) -> MeasureValue:
        """mass_pos * Q_pos(B) - mass_neg * Q_neg(B), through the pmfs.

        This recomputes the measure of B from the probability pair. The pmfs
        sum their set probabilities in the set sum behind evaluate
        (measure._set_sum), so it checks the normalization and the bounds
        of the pair, not the summation itself.
        """
        value = 0.0
        err = 0.0
        if self.q_pos is not None:
            p = self.q_pos.set_probability(B, eps)
            value += self.mass_pos * p.value
            err += self.mass_pos * p.abs_error + abs(p.value) * _ULP * self.mass_pos
        if self.q_neg is not None:
            p = self.q_neg.set_probability(B, eps)
            value -= self.mass_neg * p.value
            err += self.mass_neg * p.abs_error + abs(p.value) * _ULP * self.mass_neg
        return MeasureValue(value, err + 2.0 * _ULP * abs(value))


def probability_pair(T: TaylorMeasure, eps: float = 1e-12) -> TaylorProbabilityPair:
    """Split T into scaled positive and negative probability measures.

    Raises DegenerateDistribution when both Jordan masses vanish (the zero
    measure carries no probability content), and DivergenceUnknown when the
    total masses cannot be certified.
    """
    s, tail = _set_sum(_Terms(T.coefficients, T.gamma), NatSet.all(), eps, "signed", False)
    mp = MeasureValue(*s.part("pos", tail))
    mn = MeasureValue(*s.part("neg", tail))
    pos_degenerate = mp.value <= mp.abs_error
    neg_degenerate = mn.value <= mn.abs_error
    if pos_degenerate and neg_degenerate:
        raise DegenerateDistribution(
            "both sign-parts have zero total mass within tolerance"
        )
    q_pos = None if pos_degenerate else JordanPmf(T, 1, mp)
    q_neg = None if neg_degenerate else JordanPmf(T, -1, mn)
    return TaylorProbabilityPair(
        mass_pos=mp.value, mass_neg=mn.value, q_pos=q_pos, q_neg=q_neg
    )


def pmf_eval(p, n: int) -> float:
    """Probability mass of p at n."""
    return p.pmf(n)


def cdf(p, n: int) -> float:
    """Cumulative probability of p at n."""
    return p.cdf(n)


def quantile(p, u: float) -> int:
    """Smallest n with cdf(n) >= u."""
    return p.quantile(u)


def _measure_from_probs(probs: tuple[float, ...], gamma: float) -> TaylorMeasure:
    if not probs:
        raise InvalidPmf("empty probability list")
    if any(q < 0.0 for q in probs):
        raise InvalidPmf("negative probability entry")
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-12:
        raise InvalidPmf(f"probabilities sum to {total}, not 1")
    last = max((n for n, q in enumerate(probs) if q != 0.0), default=0)
    return TaylorMeasure(_finite_terms(probs[:last + 1], gamma), gamma)


def _measure_from_prob_sequence(p: CoefficientSequence, gamma: float) -> TaylorMeasure:
    prefix = p.prefix
    if any(q < 0.0 for q in prefix):
        raise InvalidPmf("negative probability entry")
    tail = p.tail
    L = len(prefix)
    if isinstance(tail, ZeroTail) or (
        isinstance(tail, ConstantTail) and tail.value == 0.0
    ):
        return _measure_from_probs(tuple(prefix), gamma)
    if not isinstance(tail, GeometricTail):
        raise InvalidPmf(
            "cannot verify normalization: probability tails must be zero or "
            "geometric"
        )
    s, r = tail.scale, tail.ratio
    if s < 0.0 or not 0.0 <= r < 1.0:
        raise InvalidPmf("geometric probability tail needs scale >= 0, 0 <= ratio < 1")
    total = math.fsum(prefix) + s * r ** L / (1.0 - r)
    if abs(total - 1.0) > 1e-12:
        raise InvalidPmf(f"probabilities sum to {total}, not 1")
    env = _TermEnvelope(k=0, scale=s, ratio=r, start=L) if s > 0.0 else _TermEnvelope(last=L - 1)
    seq = TermBackedSequence(env.within(partial(_coefficients, p)), gamma,
                             env.to_certificate(gamma))
    return TaylorMeasure(seq, gamma)


def _measure_from_power_series(p: PowerSeriesPmf, gamma: float) -> TaylorMeasure:
    # the pmf is the density's terms over the smallest certified normalizer;
    # a pmf below the normal range is pulled in within that bound
    norm_lo = p.normalizer.value - p.normalizer.abs_error
    env = _TermEnvelope.of(p.b.certificate, p.zeta).scaled(1.0 / norm_lo)
    seq = TermBackedSequence(env.within(lambda indices: list(map(p.pmf, indices))), gamma,
                             env.to_certificate(gamma))
    return TaylorMeasure(seq, gamma)


def from_pmf(p, gamma: float = 1.0) -> TaylorMeasure:
    """The positive Taylor measure whose term function is the given pmf.

    Inverts the pmf-measure correspondence: the result has coefficients
    a_n = n! * p_n / gamma**n, so its terms reproduce p_n for any gamma > 0
    and its total mass is 1.  Accepts a probability list, a
    CoefficientSequence of probabilities with a zero or geometric tail, or a
    PowerSeriesPmf.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if isinstance(p, PowerSeriesPmf):
        return _measure_from_power_series(p, gamma)
    if isinstance(p, CoefficientSequence):
        return _measure_from_prob_sequence(p, gamma)
    if isinstance(p, TermBackedSequence):
        raise InvalidPmf("cannot verify normalization of a bare term rule")
    return _measure_from_probs(tuple(float(q) for q in p), gamma)


def measure_from_densities(zeta1: float, b1, zeta2: float, b2) -> TaylorMeasure:
    """The signed measure with terms b1_n zeta1**n / n! - b2_n zeta2**n / n!.

    Presented canonically at gamma = 1.  Both density sides must carry
    certificates guaranteeing finite normalizer sums.
    """
    if zeta1 < 0.0 or zeta2 < 0.0:
        raise ValueError("zeta must be nonnegative")
    sides = []
    for label, zeta, b in (("first", zeta1, b1), ("second", zeta2, b2)):
        seq = _as_sequence(b)
        if isinstance(seq.certificate, Unverified):
            raise DivergenceUnknown(
                f"the {label} density carries no growth certificate"
            )
        sides.append(TaylorMeasure(seq, zeta))
    return linear_combination(1.0, sides[0], -1.0, sides[1])


# the public names are listed in the package's table, and bound there as
# this module loads
from . import _bind  # noqa: E402

__all__ = _bind(globals())
