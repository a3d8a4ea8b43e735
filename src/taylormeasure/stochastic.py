"""Stochastic Taylor measures.

A stochastic Taylor measure draws the presentation pair (gamma, a) at
random and evaluates X(B) = sum_{n in B} a_n gamma^n / n!. This module
provides a small declarative family of randomness specifications, exact
moment formulas where they exist, samplers, and path simulators for the
random-walk and Brownian-approximation constructions, which embed into
the same framework through coefficients a_n = n! X_n at gamma = 1.

sample_stm_batch draws each realization of X(B) from its law: one normal
for the Gaussian specs, AR(1) and the Brownian approximation, and one
m-step sum from the step law for a random walk (a binomial count for
two-point steps). It does not replay the per-step draws of sample_stm,
the simulators and stm_coefficients, which agree draw for draw with each
other.

All randomness flows through the counter-based generator shared with the
Monte Carlo estimators, so every draw is reproducible from an RngSpec.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DivergenceUnknown, UnsupportedSpec
from .kernel import (
    Bounded,
    CoefficientSequence,
    FiniteSupport,
    TermBackedSequence,
    TruncationPlan,
    _TermEnvelope,
    constant_sequence,
    plan_truncation,
    rule_sequence,
    term_value,
)
from .measure import NatSet, TaylorMeasure, evaluate
from .montecarlo import CHUNK, ROLE_BROWNIAN, ROLE_STM, ROLE_WALK, RngSpec, generator

__all__ = [
    "Ar1",
    "BernoulliStep",
    "BrownianApprox",
    "GaussianIID",
    "GaussianIndep",
    "IndicatorGamma",
    "NormalStep",
    "RandomWalk",
    "SamplePath",
    "SimpleFunction",
    "StmSpec",
    "UniformStep",
    "brownian_marginal_moments",
    "gaussian_truncation_plan",
    "sample_stm",
    "sample_stm_batch",
    "simulate_brownian",
    "simulate_brownian_batch",
    "simulate_random_walk",
    "simulate_random_walk_batch",
    "stm_moments",
]


# ---------------------------------------------------------------------------
# step distributions for walk-type specifications


@dataclass(frozen=True)
class NormalStep:
    """Steps drawn from N(mu, sigma^2)."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("step sigma must be >= 0")

    @property
    def mean(self) -> float:
        return self.mu

    @property
    def variance(self) -> float:
        return self.sigma ** 2

    def draw(self, g: np.random.Generator, shape) -> np.ndarray:
        return self.mu + self.sigma * g.standard_normal(shape)

    def draw_sum(self, g: np.random.Generator, m: int, size: int) -> np.ndarray:
        """size sums of m steps each: N(m mu, m sigma^2), one normal per sum."""
        return m * self.mu + self.sigma * math.sqrt(m) * g.standard_normal(size)


@dataclass(frozen=True)
class UniformStep:
    """Steps drawn uniformly from [low, high)."""

    low: float = -1.0
    high: float = 1.0

    def __post_init__(self):
        if not self.low < self.high:
            raise ValueError("need low < high")

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def variance(self) -> float:
        return (self.high - self.low) ** 2 / 12.0

    def draw(self, g: np.random.Generator, shape) -> np.ndarray:
        return self.low + (self.high - self.low) * g.random(shape)

    def draw_sum(self, g: np.random.Generator, m: int, size: int) -> np.ndarray:
        """size sums of m steps each, m uniforms per sum: the Irwin-Hall
        law has no exact one-draw sampler."""
        return self.draw(g, (size, m)).sum(axis=1)


@dataclass(frozen=True)
class BernoulliStep:
    """Two-point steps: ``up`` with probability p, else ``down``."""

    p: float = 0.5
    up: float = 1.0
    down: float = -1.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")

    @property
    def mean(self) -> float:
        return self.p * self.up + (1.0 - self.p) * self.down

    @property
    def variance(self) -> float:
        return self.p * (1.0 - self.p) * (self.up - self.down) ** 2

    def draw(self, g: np.random.Generator, shape) -> np.ndarray:
        return np.where(g.random(shape) < self.p, self.up, self.down)

    def draw_sum(self, g: np.random.Generator, m: int, size: int) -> np.ndarray:
        """size sums of m steps each: m down plus (up - down) times a
        Binomial(m, p) count of up-steps, one binomial per sum."""
        return m * self.down + (self.up - self.down) * g.binomial(m, self.p, size)


StepDistribution = Union[NormalStep, UniformStep, BernoulliStep]


# ---------------------------------------------------------------------------
# randomness specifications


@dataclass(frozen=True)
class GaussianIID:
    """Coefficients a_n iid N(mu_a, sigma_a^2) at a fixed gamma.

    X(B) is then exactly Gaussian with mean mu_a * sum_B gamma^n/n! and
    variance sigma_a^2 * sum_B gamma^(2n)/(n!)^2. sigma_a = 0 degenerates
    to the deterministic measure with constant coefficients.
    """

    mu_a: float
    sigma_a: float
    gamma: float

    def __post_init__(self):
        if self.sigma_a < 0.0:
            raise ValueError("sigma_a must be >= 0")


@dataclass(frozen=True)
class GaussianIndep:
    """Independent coefficients a_n ~ N(mu_n, sigma_n^2) at fixed gamma."""

    mu: CoefficientSequence
    sigma: CoefficientSequence
    gamma: float


@dataclass(frozen=True)
class IndicatorGamma:
    """gamma is the indicator of an event with probability p_a.

    With the whole sum gated by the event, X = I_A * sum_B a_n / n! for
    independent a_n ~ N(mu_n, sigma_n^2), so realizations are exactly 0
    with probability 1 - p_a. The variance accounts for the covariance
    the shared indicator induces across terms: with m = sum_B mu_n/n!
    and s2 = sum_B sigma_n^2/(n!)^2,

        Var X = p_a * s2 + p_a * (1 - p_a) * m**2.
    """

    p_a: float
    mu: CoefficientSequence
    sigma: CoefficientSequence

    def __post_init__(self):
        if not 0.0 <= self.p_a <= 1.0:
            raise ValueError("p_a must lie in [0, 1]")


@dataclass(frozen=True)
class SimpleFunction:
    """A simple random variable in canonical form: value c_i w.p. probs_i.

    The measure takes the value c_i on the whole sigma-algebra cell, so
    the evaluation set plays no role.
    """

    c: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        c = tuple(float(x) for x in self.c)
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "probs", probs)
        if len(c) != len(probs) or not c:
            raise ValueError("c and probs must be equal-length and nonempty")
        if any(p < 0.0 for p in probs):
            raise ValueError("probs must be nonnegative")
        if abs(math.fsum(probs) - 1.0) > 1e-12:
            raise ValueError("probs must sum to 1 within 1e-12")


@dataclass(frozen=True)
class RandomWalk:
    """S_t = X_1 + ... + X_t with iid steps; S_0 = 0.

    Embeds as a_n = n! X_n, gamma = 1, so the measure of {0..t} is S_t.
    """

    step: StepDistribution
    t: int

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("t must be >= 0")


@dataclass(frozen=True)
class Ar1:
    """AR(1) value at time t: X_t = phi X_{t-1} + eps_t, X_0 = 0.

    Embeds with a_n = n! phi^(t-n) eps_n for 1 <= n <= t at gamma = 1.
    """

    phi: float
    sigma2: float
    t: int

    def __post_init__(self):
        if not 0.0 <= self.phi <= 1.0:
            raise ValueError("phi must lie in [0, 1]")
        if self.sigma2 <= 0.0:
            raise ValueError("sigma2 must be > 0")
        if self.t < 0:
            raise ValueError("t must be >= 0")


@dataclass(frozen=True)
class BrownianApprox:
    """Scaled random walk on [0, 1]: X_{k/n} = (S_k - k mu) / (sigma sqrt(n)).

    Steps are iid N(mu, sigma^2), so increments are exactly N(0, 1/n).
    Embeds with a_k = k! * (X_{k/n} - X_{(k-1)/n}) at gamma = 1.
    """

    n: int
    mu: float
    sigma: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be > 0")


StmSpec = Union[
    GaussianIID,
    GaussianIndep,
    IndicatorGamma,
    SimpleFunction,
    RandomWalk,
    Ar1,
    BrownianApprox,
]

_GAUSSIAN_SPECS = (GaussianIID, GaussianIndep, IndicatorGamma)
_PATH_SPECS = (RandomWalk, Ar1, BrownianApprox)


@dataclass(frozen=True)
class SamplePath:
    """A realized path with the RngSpec that produced it."""

    times_or_indices: tuple[float, ...]
    values: tuple[float, ...]
    rng: RngSpec = field(default_factory=lambda: RngSpec(seed=0))

    def __post_init__(self):
        times = tuple(float(t) for t in self.times_or_indices)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "times_or_indices", times)
        object.__setattr__(self, "values", values)
        if len(times) != len(values) or not times:
            raise ValueError("times and values must be equal-length and nonempty")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")

    def at(self, t: float) -> float:
        """Value at time t, linearly interpolated between grid points."""
        times, values = self.times_or_indices, self.values
        if not times[0] <= t <= times[-1]:
            raise ValueError(f"time {t} outside [{times[0]}, {times[-1]}]")
        i = bisect_right(times, t)
        if i == len(times):
            return values[-1]
        lo, hi = times[i - 1], times[i]
        w = (t - lo) / (hi - lo)
        return values[i - 1] * (1.0 - w) + values[i] * w


# ---------------------------------------------------------------------------
# weights and evaluation windows


# gamma**n / n! (0**0 = 1) is the term of the all-ones sequence at gamma
_ONES = constant_sequence(1.0)


def _squared_over_factorial(seq: CoefficientSequence) -> CoefficientSequence:
    """Sequence n -> a_n^2 / n! with a certificate carried along.

    Evaluating it as a measure at gamma^2 yields sum a_n^2 gamma^(2n)/(n!)^2,
    the variance series of independently perturbed coefficients. Its terms
    at gamma = 1 are the squares of seq's, so its certificate is the
    square of seq's envelope there.
    """

    def rule(n: int) -> float:
        a = seq.a(n)
        return a * a * term_value(_ONES, 1.0, n)

    return rule_sequence(rule, _TermEnvelope.of(seq.certificate, 1.0).square().to_certificate(1.0))


def gaussian_truncation_plan(spec: StmSpec, eps: float = 1e-12) -> TruncationPlan:
    """Truncation horizon for sampling a Gaussian-coefficient spec on an
    infinite set.

    Realized sequences carry no almost-sure uniform bound, so the tail is
    budgeted against the envelope |mu_n| + 6 sigma_n; the omitted mass is
    below eps except on the roughly 2e-9-per-term event that a draw leaves
    its 6-sigma band.
    """
    if isinstance(spec, GaussianIID):
        bound = abs(spec.mu_a) + 6.0 * spec.sigma_a
        if bound == 0.0:
            return TruncationPlan(0, 0.0)
        return plan_truncation(Bounded(bound), spec.gamma, eps)
    if isinstance(spec, (GaussianIndep, IndicatorGamma)):
        gamma = spec.gamma if isinstance(spec, GaussianIndep) else 1.0
        mean_plan = plan_truncation(spec.mu.certificate, gamma, eps / 2.0)
        noise_cert = _TermEnvelope.of(spec.sigma.certificate, 1.0).scaled(6.0).to_certificate(1.0)
        noise_plan = plan_truncation(noise_cert, gamma, eps / 2.0)
        return TruncationPlan(
            max(mean_plan.last_index, noise_plan.last_index),
            mean_plan.tail_bound + noise_plan.tail_bound,
        )
    raise UnsupportedSpec(
        f"{type(spec).__name__} realizations have finite support and need no plan"
    )


def _window(B: NatSet, last_index: int) -> np.ndarray:
    """Indices of B up to last_index, as an array."""
    if B.is_finite:
        idx = [n for n in B.elements if n <= last_index]
    else:
        idx = [n for n in range(last_index + 1) if n in B]
    return np.array(idx, dtype=np.int64)


def _gaussian_window(spec: StmSpec, B: NatSet, truncation: TruncationPlan | None) -> np.ndarray:
    if B.is_finite:
        return np.array(sorted(B.elements), dtype=np.int64)
    if truncation is None:
        if isinstance(spec, GaussianIID) and spec.mu_a == 0.0 and spec.sigma_a == 0.0:
            return np.array([], dtype=np.int64)
        raise DivergenceUnknown(
            "sampling a Gaussian-coefficient spec on an infinite set needs an "
            "explicit truncation plan (see gaussian_truncation_plan)"
        )
    return _window(B, truncation.last_index)


# ---------------------------------------------------------------------------
# sampling


def _chunk_spans(R: int):
    start = 0
    chunk = 0
    while start < R:
        take = min(CHUNK, R - start)
        yield chunk, start, take
        start += take
        chunk += 1


def _gaussian_batch(spec, B, truncation, rng, R):
    """X(B) = sum_B a_n w_n with independent normal a_n is itself normal:
    each realization is base + scale * Z with one standard normal Z."""
    idx = _gaussian_window(spec, B, truncation)
    gamma = 1.0 if isinstance(spec, IndicatorGamma) else spec.gamma
    w = np.array([term_value(_ONES, gamma, int(n)) for n in idx])
    if isinstance(spec, GaussianIID):
        mu = np.full(idx.shape, spec.mu_a)
        sigma = np.full(idx.shape, spec.sigma_a)
    else:
        mu = np.array([spec.mu.a(int(n)) for n in idx])
        sigma = np.array([spec.sigma.a(int(n)) for n in idx])
    base = float(np.dot(mu, w))
    # hypot rounds accurately and does not overflow where a sum of squares would
    scale = math.hypot(*(sigma * w))
    out = np.empty(R)
    indicator = isinstance(spec, IndicatorGamma)
    for chunk, start, take in _chunk_spans(R):
        # two counter slots per chunk keep the normals and the indicator
        # uniforms at take-independent stream positions
        x = base + scale * generator(rng, ROLE_STM, 2 * chunk).standard_normal(take)
        if indicator:
            u = generator(rng, ROLE_STM, 2 * chunk + 1).random(take)
            x = np.where(u < spec.p_a, x, 0.0)
        out[start : start + take] = x
    return out


def _simple_batch(spec: SimpleFunction, rng, R):
    cum = np.cumsum(spec.probs)
    values = np.asarray(spec.c)
    out = np.empty(R)
    for chunk, start, take in _chunk_spans(R):
        u = generator(rng, ROLE_STM, chunk).random(take)
        cell = np.minimum(np.searchsorted(cum, u, side="right"), values.size - 1)
        out[start : start + take] = values[cell]
    return out


def _walk_coefficient_weights(spec, B) -> np.ndarray:
    """Weight of step/innovation n in the measure of B, n = 1..t."""
    if isinstance(spec, RandomWalk):
        t, unit = spec.t, lambda n: 1.0
    elif isinstance(spec, Ar1):
        t, unit = spec.t, lambda n: spec.phi ** (spec.t - n)
    else:
        t, unit = spec.n, lambda n: 1.0
    return np.array([unit(n) if n in B else 0.0 for n in range(1, t + 1)])


def _path_batch(spec, B, rng, R):
    """X(B) for a path spec is a sum of m = |B & 1..t| independent terms,
    drawn from its law: a random walk asks its step law for m-step sums,
    the Brownian approximation sums m N(0, 1/n) increments, and an AR(1)
    value is one normal with the weighted variance."""
    w = _walk_coefficient_weights(spec, B)
    m = int(np.count_nonzero(w))
    out = np.zeros(R)
    if m == 0:
        return out
    if isinstance(spec, RandomWalk):
        role, step = ROLE_WALK, spec.step
    elif isinstance(spec, Ar1):
        # one normal with variance sigma2 * sum_B phi^(2(t - n))
        role, m = ROLE_STM, 1
        step = NormalStep(0.0, math.sqrt(spec.sigma2) * math.hypot(*w))
    else:
        role, step = ROLE_BROWNIAN, NormalStep(0.0, 1.0 / math.sqrt(spec.n))
    for chunk, start, take in _chunk_spans(R):
        out[start : start + take] = step.draw_sum(generator(rng, role, chunk), m, take)
    return out


def sample_stm_batch(
    spec: StmSpec,
    B: NatSet,
    truncation: TruncationPlan | None,
    rng: RngSpec,
    R: int,
) -> np.ndarray:
    """R independent realizations of X(B), reproducible from rng.

    Each realization is drawn from the law of X(B), not summed from
    per-term draws: for the Gaussian-coefficient specs and the AR(1) and
    Brownian specs that law is normal with the closed-form moments, one
    standard normal per realization; a random walk draws m-step sums from
    its step law. Row 0 equals sample_stm for the coefficient specs; for
    the path specs sample_stm keeps the simulators' per-step draws, so the
    batch has the same law as repeated single draws but other bits.
    """
    if R < 1:
        raise ValueError("R must be at least 1")
    if isinstance(spec, _GAUSSIAN_SPECS):
        return _gaussian_batch(spec, B, truncation, rng, R)
    if isinstance(spec, SimpleFunction):
        return _simple_batch(spec, rng, R)
    if isinstance(spec, _PATH_SPECS):
        return _path_batch(spec, B, rng, R)
    raise UnsupportedSpec(f"unknown spec type {type(spec).__name__}")


def _path_measure_value(spec, B, rng) -> float:
    """One path-spec realization, summed sequentially in index order.

    Matching the simulators' accumulation order makes the embedding
    identity exact: for a random walk, the measure of {0..t} is S_t to
    the last bit.
    """
    w = _walk_coefficient_weights(spec, B)
    t = w.size
    if t == 0:
        return 0.0
    if isinstance(spec, RandomWalk):
        steps = spec.step.draw(generator(rng, ROLE_WALK, 0), t)
        contrib = steps
    elif isinstance(spec, Ar1):
        sigma = math.sqrt(spec.sigma2)
        contrib = sigma * generator(rng, ROLE_STM, 0).standard_normal(t)
    else:
        raw = NormalStep(spec.mu, spec.sigma).draw(generator(rng, ROLE_BROWNIAN, 0), t)
        contrib = (raw - spec.mu) / (spec.sigma * math.sqrt(spec.n))
    acc = 0.0
    for n in range(t):
        if w[n] != 0.0:
            acc += w[n] * contrib[n]
    return acc


def sample_stm(
    spec: StmSpec,
    B: NatSet,
    truncation: TruncationPlan | None,
    rng: RngSpec,
) -> float:
    """One realization of X(B) = sum_{n in B} a_n gamma^n / n!.

    Infinite B needs a truncation plan for the Gaussian-coefficient specs
    (their realized sequences carry no certificate); the path-type specs
    have finite realized support and never need one.
    """
    if isinstance(spec, _PATH_SPECS):
        return _path_measure_value(spec, B, rng)
    return float(sample_stm_batch(spec, B, truncation, rng, 1)[0])


# ---------------------------------------------------------------------------
# moments


def stm_moments(spec: StmSpec, B: NatSet, eps: float = 1e-12) -> tuple[float, float]:
    """Closed-form (mean, variance) of X(B).

    The walk-family specs report the moments of their terminal value
    (the measure of {0..t}), which do not depend on B. BrownianApprox
    has per-time moments instead: see brownian_marginal_moments.
    """
    if isinstance(spec, GaussianIID):
        mean_series = evaluate(TaylorMeasure(constant_sequence(1.0), spec.gamma), B, eps)
        var_seq = _squared_over_factorial(constant_sequence(spec.sigma_a))
        var_series = evaluate(TaylorMeasure(var_seq, spec.gamma ** 2), B, eps)
        return spec.mu_a * mean_series.value, var_series.value
    if isinstance(spec, GaussianIndep):
        mean_series = evaluate(TaylorMeasure(spec.mu, spec.gamma), B, eps)
        var_seq = _squared_over_factorial(spec.sigma)
        var_series = evaluate(TaylorMeasure(var_seq, spec.gamma ** 2), B, eps)
        return mean_series.value, var_series.value
    if isinstance(spec, IndicatorGamma):
        m = evaluate(TaylorMeasure(spec.mu, 1.0), B, eps).value
        s2 = evaluate(TaylorMeasure(_squared_over_factorial(spec.sigma), 1.0), B, eps).value
        p = spec.p_a
        return p * m, p * s2 + p * (1.0 - p) * m * m
    if isinstance(spec, SimpleFunction):
        mean = math.fsum(p * c for p, c in zip(spec.probs, spec.c))
        var = math.fsum(p * (c - mean) ** 2 for p, c in zip(spec.probs, spec.c))
        return mean, var
    if isinstance(spec, RandomWalk):
        return spec.t * spec.step.mean, spec.t * spec.step.variance
    if isinstance(spec, Ar1):
        if spec.phi == 1.0:
            geom = float(spec.t)
        else:
            geom = (1.0 - spec.phi ** (2 * spec.t)) / (1.0 - spec.phi ** 2)
        return 0.0, spec.sigma2 * geom
    if isinstance(spec, BrownianApprox):
        raise UnsupportedSpec(
            "BrownianApprox has no whole-path moments; use "
            "brownian_marginal_moments(spec, k) for the time k/n"
        )
    raise UnsupportedSpec(f"unknown spec type {type(spec).__name__}")


def brownian_marginal_moments(spec: BrownianApprox, k: int) -> tuple[float, float]:
    """(mean, variance) of the approximation at grid time k/n: (0, k/n)."""
    if not 0 <= k <= spec.n:
        raise ValueError(f"grid index k must lie in 0..{spec.n}")
    return 0.0, k / spec.n


# ---------------------------------------------------------------------------
# path simulators


def simulate_random_walk(spec: RandomWalk, rng: RngSpec) -> SamplePath:
    """The walk S_0 = 0, S_k = S_{k-1} + X_k at indices 0..t.

    Uses the same draws as sample_stm(spec, ...) with the same rng, so
    the embedding a_n = n! X_n at gamma = 1 reproduces S_t exactly.
    """
    values = [0.0]
    if spec.t > 0:
        steps = spec.step.draw(generator(rng, ROLE_WALK, 0), spec.t)
        acc = 0.0
        for s in steps:
            acc += s
            values.append(acc)
    return SamplePath(tuple(range(spec.t + 1)), tuple(values), rng)


def simulate_random_walk_batch(spec: RandomWalk, rng: RngSpec, R: int) -> np.ndarray:
    """R walk paths as an (R, t+1) array; row r of the first chunk matches
    simulate_random_walk draw-for-draw."""
    if R < 1:
        raise ValueError("R must be at least 1")
    out = np.zeros((R, spec.t + 1))
    if spec.t == 0:
        return out
    for chunk, start, take in _chunk_spans(R):
        steps = spec.step.draw(generator(rng, ROLE_WALK, chunk), (take, spec.t))
        out[start : start + take, 1:] = np.cumsum(steps, axis=1)
    return out


def simulate_brownian(spec: BrownianApprox, rng: RngSpec) -> SamplePath:
    """One path X_{k/n} = (S_k - k mu) / (sigma sqrt(n)) on the grid k/n."""
    raw = NormalStep(spec.mu, spec.sigma).draw(generator(rng, ROLE_BROWNIAN, 0), spec.n)
    scale = spec.sigma * math.sqrt(spec.n)
    values = [0.0]
    acc = 0.0
    for k in range(spec.n):
        acc += (raw[k] - spec.mu) / scale
        values.append(acc)
    times = tuple(k / spec.n for k in range(spec.n + 1))
    return SamplePath(times, tuple(values), rng)


def simulate_brownian_batch(spec: BrownianApprox, rng: RngSpec, R: int) -> np.ndarray:
    """R Brownian-approximation paths as an (R, n+1) array."""
    if R < 1:
        raise ValueError("R must be at least 1")
    out = np.zeros((R, spec.n + 1))
    scale = spec.sigma * math.sqrt(spec.n)
    for chunk, start, take in _chunk_spans(R):
        raw = NormalStep(spec.mu, spec.sigma).draw(
            generator(rng, ROLE_BROWNIAN, chunk), (take, spec.n)
        )
        out[start : start + take, 1:] = np.cumsum((raw - spec.mu) / scale, axis=1)
    return out


def stm_coefficients(spec: StmSpec, rng: RngSpec) -> TaylorMeasure:
    """The realized Taylor measure of a path-type spec.

    Materializes the embedding a_n = n! X_n (walk), n! phi^(t-n) eps_n
    (AR(1)), or n! times the increments (Brownian) at gamma = 1, backed
    by exact term values so the factorials cancel without roundoff.
    """
    if not isinstance(spec, _PATH_SPECS):
        raise UnsupportedSpec(
            "realized coefficients are materialized only for the path specs"
        )
    t = spec.t if not isinstance(spec, BrownianApprox) else spec.n
    w = _walk_coefficient_weights(spec, NatSet.all())
    if isinstance(spec, RandomWalk):
        contrib = spec.step.draw(generator(rng, ROLE_WALK, 0), t) if t else np.zeros(0)
    elif isinstance(spec, Ar1):
        contrib = (
            math.sqrt(spec.sigma2) * generator(rng, ROLE_STM, 0).standard_normal(t)
            if t
            else np.zeros(0)
        )
    else:
        raw = NormalStep(spec.mu, spec.sigma).draw(generator(rng, ROLE_BROWNIAN, 0), t)
        contrib = (raw - spec.mu) / (spec.sigma * math.sqrt(spec.n))
    terms = {n + 1: float(w[n] * contrib[n]) for n in range(t)}

    def term_rule(n: int) -> float:
        return terms.get(n, 0.0)

    seq = TermBackedSequence(term_rule, 1.0, FiniteSupport(t))
    return TaylorMeasure(seq, 1.0)
