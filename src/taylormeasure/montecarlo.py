"""Samplers and SLLN estimators for Taylor measures.

A signed measure built from two power-series densities can be written

    T(B) = c1 * P1(B) - c2 * P2(B),

where the c are reciprocal normalizers and the P are power-series pmfs, so
T(B) is estimated by sampling each pmf and averaging set indicators.  An
estimator uses its draws only to count something, so it draws the count
from its law and no draw is materialised:

* an inverse-CDF draw lands in B exactly when its uniform lies between the
  cdf values at the edges of B's runs, and ``random()`` takes each of its
  2**53 grid values k / 2**53 with equal probability, so the number of L
  draws in B is Binomial(L, q) with q the exact share of grid values that
  land in B.  A set that fixes the count (q = 0 or 1) draws nothing.
* the normalizers are computed exactly-within-eps by default; they can
  instead be estimated from Poisson draws (point = (e**zeta / L) *
  sum b_{n_i}), the fully stochastic variant for families whose constants
  are unknown.  Only how many draws land on each n matters, which is
  Multinomial(L, Poisson pmf), drawn as conditional binomials in
  increasing n; draws left past the Poisson table's horizon are real
  Poisson variates conditioned on exceeding it.

Determinism: every draw comes from a counter-based generator keyed by
(seed, stream) and advanced to a block determined by (role, chunk), where
the role separates the independent draw purposes (the two indicator samples,
the two normalizer samples, standalone pmf sampling) and chunks are
fixed-size.  Results are therefore bit-identical for a given RngSpec.  The
estimators draw all of a role's counts from its first chunk.  They accept a
``threads`` argument for compatibility; it has no effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteResult, NoSamplerAvailable
from .kernel import Bounded, constant_sequence
from .measure import NatSet
from .probability import PowerSeriesPmf

__all__ = [
    "RngSpec",
    "McEstimate",
    "sample_pmf",
    "estimate_measure",
    "estimate_normalizer_poisson",
]

_MASK64 = (1 << 64) - 1
CHUNK = 8192
_GRID = 1 << 53  # random() returns k / 2**53, k = 0 .. 2**53 - 1
_POISSON_TAIL_EPS = 1e-16  # Poisson mass left past the table's horizon
_ONES = constant_sequence(1.0)

# counter-block roles: keep independent draw purposes on disjoint substreams
_ROLE_INDICATOR_POS = 0
_ROLE_INDICATOR_NEG = 1
_ROLE_NORMALIZER_POS = 2
_ROLE_NORMALIZER_NEG = 3
_ROLE_PMF_INVERSE = 4
_ROLE_PMF_REJECT = 5
ROLE_STM = 6
ROLE_WALK = 7
ROLE_BROWNIAN = 8


@dataclass(frozen=True)
class RngSpec:
    """Seed and substream id; together they determine every draw."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise ValueError("seed and stream must be nonnegative")


def generator(spec: RngSpec, role: int, chunk: int) -> np.random.Generator:
    """Generator positioned at the counter block for (role, chunk)."""
    bitgen = np.random.Philox(key=[spec.seed & _MASK64, spec.stream & _MASK64])
    bitgen.advance((role << 192) + (chunk << 128))
    return np.random.Generator(bitgen)


@dataclass(frozen=True)
class McEstimate:
    """Point estimate with its standard error and a component breakdown."""

    point: float
    stderr: float
    n_samples: int
    components: dict = field(default_factory=dict)


def _b_values(b, draws: np.ndarray) -> np.ndarray:
    """Evaluate the coefficient rule over integer draws, batched by value.

    The distinct draws, in increasing order, come from a presence mask over
    [min, max], which is short for Poisson counts.
    """
    lo = int(draws.min())
    offsets = draws - lo
    present = np.zeros(int(offsets.max()) + 1, dtype=bool)
    present[offsets] = True
    distinct = np.flatnonzero(present)
    vals = np.array([b.a(int(n) + lo) for n in distinct])
    table = np.empty(present.size, dtype=vals.dtype)
    table[distinct] = vals
    return table[offsets]


def _inverse_table(p) -> tuple[np.ndarray, int, int]:
    """The cdf table and its first and last indices of positive mass.

    Inverse-CDF draws are clamped to those indices: a uniform of exactly
    0.0 would otherwise land on index 0 even when p_0 = 0.
    """
    table, horizon = p.cumulative_table(tail_eps=1e-16)
    cdf = np.asarray(table)
    positive = np.flatnonzero(np.diff(np.concatenate(([0.0], cdf))) > 0.0)
    if not positive.size:
        return cdf, 0, 0
    return cdf, int(positive[0]), int(positive[-1])


def _sample_inverse(p, rng: RngSpec, L: int, role: int) -> np.ndarray:
    cdf, first_positive, last_positive = _inverse_table(p)
    out = np.empty(L, dtype=np.int64)
    for chunk, start in enumerate(range(0, L, CHUNK)):
        take = min(CHUNK, L - start)
        u = generator(rng, role, chunk).random(take)
        idx = np.searchsorted(cdf, u, side="left")
        out[start : start + take] = np.clip(idx, first_positive, last_positive)
    return out


def _sample_rejection(p, rng: RngSpec, L: int) -> np.ndarray:
    if not isinstance(p, PowerSeriesPmf):
        raise NoSamplerAvailable(
            "rejection sampling needs a power-series pmf with a bounded "
            "density sequence"
        )
    cert = p.b.certificate
    if not isinstance(cert, Bounded):
        raise NoSamplerAvailable(
            "rejection sampling needs a Bounded certificate on the density "
            f"sequence, not {type(cert).__name__}"
        )
    bound = cert.bound
    out = np.empty(L, dtype=np.int64)
    done = 0
    chunk = 0
    while done < L:
        g = generator(rng, _ROLE_PMF_REJECT, chunk)
        n = g.poisson(p.zeta, CHUNK)
        u = g.random(CHUNK)
        accepted = n[u * bound <= _b_values(p.b, n)]
        take = min(accepted.size, L - done)
        out[done : done + take] = accepted[:take]
        done += take
        chunk += 1
    return out


def sample_pmf(p, rng: RngSpec, L: int, method: str = "auto") -> list[int]:
    """Draw L iid indices from the pmf.

    "auto" uses inverse-CDF from the certified cumulative table; "rejection"
    uses a Poisson(zeta) envelope with acceptance b_n / bound, which needs a
    Bounded density certificate.  Draws depend only on (rng, L, method).
    """
    if L < 1:
        raise ValueError("L must be at least 1")
    if method == "auto":
        method = "inverse_cdf"
    if method == "inverse_cdf":
        if not hasattr(p, "cumulative_table"):
            raise NoSamplerAvailable(
                "inverse-CDF sampling needs a pmf with a certified cumulative "
                "table"
            )
        return _sample_inverse(p, rng, L, _ROLE_PMF_INVERSE).tolist()
    if method == "rejection":
        return _sample_rejection(p, rng, L).tolist()
    raise ValueError(f"unknown sampling method: {method}")


def _membership_cuts(
    B: NatSet, first_positive: int, last_positive: int
) -> tuple[int, list[tuple[int, int]]]:
    """Reduce counting inverse-CDF draws in B to counting uniforms.

    A clamped draw is never below first_positive, is at most k exactly
    when u <= cdf[k] for first_positive <= k < last_positive, and always
    for k >= last_positive. Splitting B & [first_positive, last_positive]
    into maximal runs [a, b], the number of draws in B is therefore
    ``base * n + sum(sign * #{u <= cdf[k]})`` over the returned (k, sign)
    cut points, for a chunk of n uniforms.
    """
    if B.kind == "all":
        return 1, []
    runs: list[list[int]] = []
    for m in B.elements:
        if m < first_positive:
            continue
        if m > last_positive:
            break
        if runs and runs[-1][1] == m - 1:
            runs[-1][1] = m
        else:
            runs.append([m, m])
    base, cuts = 0, []
    for a, b in runs:
        if b >= last_positive:
            base += 1
        else:
            cuts.append((b, 1))
        if a > first_positive:
            cuts.append((a - 1, -1))
    if B.kind == "cofinite":
        return 1 - base, [(k, -sign) for k, sign in cuts]
    return base, cuts


def _grid_count(e: float) -> int:
    """#{k : k / 2**53 <= e}, the grid values of random() at or below e.

    e * 2**53 is exact in floating point, so its floor is too.
    """
    if e < 0.0:
        return 0
    return min(math.floor(e * _GRID) + 1, _GRID)


def _membership_hits(
    cdf: np.ndarray, first_positive: int, last_positive: int, B: NatSet
) -> int:
    """How many of random()'s 2**53 grid values send an inverse-CDF draw
    into B: a draw is in B with probability exactly hits / 2**53."""
    base, cuts = _membership_cuts(B, first_positive, last_positive)
    return base * _GRID + sum(sign * _grid_count(float(cdf[k])) for k, sign in cuts)


def _indicator_proportion(
    p, B: NatSet, L: int, rng: RngSpec, role: int
) -> tuple[float, float]:
    """Mean of I(draw in B) over L inverse-CDF draws, with variance of mean.

    The number of draws in B is Binomial(L, hits / 2**53) (see
    _membership_hits), so it is drawn as one binomial variate; when the
    count is fixed nothing is drawn.
    """
    hits = _membership_hits(*_inverse_table(p), B)
    if 0 < hits < _GRID:
        total = int(generator(rng, role, 0).binomial(L, hits / _GRID))
    else:
        total = L if hits else 0
    prop = total / L
    var = prop * (1.0 - prop) / (L - 1)
    return prop, var


def _poisson_cells(zeta: float) -> tuple[list[float], list[float]]:
    """Poisson(zeta) masses p_0..p_h up to the certified table's horizon h,
    and the masses past h until they no longer add to their own sum."""
    pmf = PowerSeriesPmf(zeta, _ONES)
    _, horizon = pmf.cumulative_table(_POISSON_TAIL_EPS)
    head = [pmf.pmf(n) for n in range(horizon + 1)]
    past: list[float] = []
    total = 0.0
    n = horizon + 1
    while True:
        w = pmf.pmf(n)
        if w == 0.0 or (n > zeta and w < total * 2.0 ** -53):
            return head, past
        past.append(w)
        total += w
        n += 1


def _poisson_counts(zeta: float, L: int, g: np.random.Generator) -> dict[int, int]:
    """How many of L Poisson(zeta) draws land on each n, for the n they
    reach, in increasing n.

    The counts are Multinomial(L, pmf), drawn as conditional binomials:
    c_n ~ Binomial(L - c_0 - ... - c_{n-1}, p_n / P(N >= n)). Draws left
    past the horizon are drawn as Poisson variates conditioned on N > h,
    by inverse cdf over the masses past it.
    """
    head, past = _poisson_cells(zeta)
    # P(N >= n), summed from the far end: no cell is a difference of sums
    surv = np.cumsum(np.array(head + [math.fsum(past)])[::-1])[::-1]
    counts: dict[int, int] = {}
    left = L
    for n, w in enumerate(head):
        if not left:
            return counts
        c = int(g.binomial(left, min(w / surv[n], 1.0)))
        if c:
            counts[n] = c
            left -= c
    if left:
        cdf = np.cumsum(past)
        idx = np.searchsorted(cdf, g.random(left) * cdf[-1], side="right")
        values, freq = np.unique(np.minimum(idx, len(past) - 1), return_counts=True)
        counts.update(zip((values + len(head)).tolist(), freq.tolist()))
    return counts


def _poisson_b_moments(
    zeta: float, b, L: int, rng: RngSpec, role: int
) -> tuple[float, float]:
    """Mean and variance-of-mean of b_N over L Poisson(zeta) draws.

    b.a(n) is called once for each n some draw lands on, in increasing n;
    the variance is summed around the mean, so it does not cancel.
    """
    counts = _poisson_counts(zeta, L, generator(rng, role, 0))
    cells = [(c, float(b.a(n))) for n, c in counts.items()]
    mean = math.fsum(c * v for c, v in cells) / L
    sample_var = math.fsum(c * (v - mean) ** 2 for c, v in cells) / (L - 1)
    return mean, sample_var / L


def _poisson_scale(zeta: float) -> float:
    """e**zeta, which turns a mean of b_N over Poisson(zeta) draws into a
    normalizer; refused where it overflows, before any table is built."""
    try:
        return math.exp(zeta)
    except OverflowError:
        raise NonFiniteResult(
            f"the Poisson normalizer estimate at zeta = {zeta!r} needs e**zeta, "
            "which overflows a float (zeta > 709.78)"
        ) from None


def estimate_normalizer_poisson(
    zeta: float, b, L: int, rng: RngSpec, threads: int = 1
) -> McEstimate:
    """SLLN estimate of the reciprocal normalizer sum_n b_n zeta**n / n!.

    point = (e**zeta / L) * sum b_{n_i} with n_i iid Poisson(zeta); the
    stderr is the sample standard deviation of the scaled summands over
    sqrt(L). ``threads`` is accepted for compatibility and has no effect.
    """
    if L < 2:
        raise ValueError("L must be at least 2")
    if zeta <= 0.0:
        raise ValueError("zeta must be positive for the Poisson estimator")
    scale = _poisson_scale(zeta)
    mean, var_mean = _poisson_b_moments(zeta, b, L, rng, _ROLE_NORMALIZER_POS)
    return McEstimate(
        point=scale * mean,
        stderr=scale * math.sqrt(var_mean),
        n_samples=L,
        components={"raw_mean": mean, "raw_stderr": math.sqrt(var_mean)},
    )


def _product_sd(m: float, mv: float, prop: float, pv: float) -> float:
    """Standard deviation of the product of independent estimates with
    means m, prop and variances mv, pv:
    Var(XY) = m**2 pv + prop**2 mv + mv pv."""
    return math.sqrt(m * m * pv + prop * prop * mv + mv * pv)


def estimate_measure(
    zeta1: float,
    b1,
    zeta2: float,
    b2,
    B: NatSet,
    L1: int,
    L2: int,
    rng: RngSpec,
    eps: float = 1e-12,
    estimate_normalizers: bool = False,
    threads: int = 1,
) -> McEstimate:
    """Monte Carlo estimate of T(B) for T built from two density sides.

    point = mass1 * mean(I(n1 in B)) - mass2 * mean(I(n2 in B)), with each
    side's draws from its own substream.  Masses are the exact-within-eps
    normalizers unless estimate_normalizers is set, in which case they are
    Poisson-sampled as well and their uncertainty enters the stderr through
    the product-variance formula. Each side's stderr is a scale times a
    standard deviation formed at scale 1: mass * sd(prop) for an exact
    mass, e**zeta times the sd of (mean of b_N) * prop for an estimated
    one. No squared mass or e**(2 zeta) is formed, and the two sides
    combine by hypot. A point or stderr beyond the float range raises
    NonFiniteResult. ``threads`` is accepted for compatibility and has no
    effect.
    """
    if L1 < 2 or L2 < 2:
        raise ValueError("L1 and L2 must be at least 2")
    if estimate_normalizers:
        scale1, scale2 = _poisson_scale(zeta1), _poisson_scale(zeta2)
    p1 = PowerSeriesPmf(zeta1, b1, eps)
    p2 = PowerSeriesPmf(zeta2, b2, eps)
    prop1, pv1 = _indicator_proportion(p1, B, L1, rng, _ROLE_INDICATOR_POS)
    prop2, pv2 = _indicator_proportion(p2, B, L2, rng, _ROLE_INDICATOR_NEG)
    if estimate_normalizers:
        m1, mv1 = _poisson_b_moments(zeta1, p1.b, L1, rng, _ROLE_NORMALIZER_POS)
        m2, mv2 = _poisson_b_moments(zeta2, p2.b, L2, rng, _ROLE_NORMALIZER_NEG)
        mass1, se1 = scale1 * m1, scale1 * _product_sd(m1, mv1, prop1, pv1)
        mass2, se2 = scale2 * m2, scale2 * _product_sd(m2, mv2, prop2, pv2)
    else:
        mass1, mass2 = p1.normalizer.value, p2.normalizer.value
        se1, se2 = abs(mass1) * math.sqrt(pv1), abs(mass2) * math.sqrt(pv2)
    point = mass1 * prop1 - mass2 * prop2
    stderr = math.hypot(se1, se2)
    if not (math.isfinite(point) and math.isfinite(stderr)):
        raise NonFiniteResult(
            f"the estimate {point} with stderr {stderr} at zeta = {zeta1!r}, "
            f"{zeta2!r} is not finite"
        )
    return McEstimate(
        point=point,
        stderr=stderr,
        n_samples=L1 + L2,
        components={
            "mass_pos": mass1,
            "mass_neg": mass2,
            "prop_pos": prop1,
            "prop_neg": prop2,
            "stderr_pos": se1,
            "stderr_neg": se2,
        },
    )
