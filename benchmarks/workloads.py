"""The four benchmark workloads.

``WORKLOADS[name](seed, root)`` turns a seed into a list of cases. A case is one
call into the package (or one CLI process) plus the oracle check that judges
its output. All inputs come from ``random.Random(seed)``; numeric ranges are
split into strata with one draw per stratum, so every seed gives the same
mix of work and only the exact numbers move.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import taylormeasure as tm

import oracle as orc
from oracle import Check
from specs import Fn, FromPmf, LinComb, Measure, Pmf, Seq, Set


@dataclass
class Case:
    """One call in a workload's cycle.

    op        name the results are grouped under
    fn        the call; its return value is the output that gets checked
    check     the oracle check for that output
    pair      cases with the same pair key must produce identical output
              (threads=1 against threads=2, or a CLI rerun)
    rerun     rerun the call once after the timed window to check
              reproducibility; CLI cases instead compare every execution
    args      the CLI arguments, for CLI cases
    """

    op: str
    fn: Callable[[], Any]
    check: Check
    pair: str | None = None
    rerun: bool = True
    args: tuple[str, ...] = ()


def strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k draws, one from each of k equal slices of [lo, hi], shuffled."""
    out = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(out)
    return out


def _sign(rng):
    return 1.0 if rng.random() < 0.5 else -1.0


# A defect the oracle finds at the seed beyond the four ROADMAP item 4 lists:
# kernel.term rounds n*log|gamma| and lgamma(n+1) to ~1e-13 relative at
# n ~ 300, but _term_and_err credits a log-path term (|log_mag| + 4) ulp.
LOG_PATH = "ROADMAP 4: log-path term roundoff is under-estimated"


def value_check(exact, *, eps=None, composed=False, known=None) -> Check:
    return Check("bound", exact=exact, eps=eps, composed=composed, known=known,
                 refusal=tm.TaylorMeasureError)


# ---------------------------------------------------------------------------
# measure and set generators


def _measure(rng, kind: str, size: float) -> Measure:
    """A measure whose work grows with ``size`` in (0, 5]: the effective
    |gamma| (|r * gamma| for geometric tails), 12 * q for factorial ones,
    and the support length for finite ones."""
    g = _sign(rng) * size
    if kind == "constant":
        prefix = tuple(rng.uniform(-2.0, 2.0) for _ in range(rng.randrange(0, 4)))
        return Measure(Seq("constant", prefix, _sign(rng) * rng.uniform(0.5, 2.0)), g)
    if kind == "geometric":
        prefix = tuple(rng.uniform(-2.0, 2.0) for _ in range(rng.randrange(0, 3)))
        r = _sign(rng) * rng.uniform(0.3, 1.5)
        return Measure(Seq("geometric", prefix, _sign(rng) * rng.uniform(0.5, 2.0), r), g / abs(r))
    if kind == "finite":
        coeffs = tuple(rng.uniform(-3.0, 3.0) for _ in range(3 + round(2 * size)))
        return Measure(Seq("finite", coeffs), rng.uniform(-5.0, 5.0))
    if kind == "factorial":
        r = _sign(rng) * rng.uniform(0.2, 1.0)
        return Measure(Seq("factorial", (), _sign(rng) * rng.uniform(0.5, 2.0), r), g * 0.12 / abs(r))
    if kind == "unverified":
        return Measure(Seq("unverified", (), _sign(rng) * rng.uniform(0.5, 2.0)), g)
    raise ValueError(kind)


def _mass(spec) -> float:
    """An upper bound on sum_n |p(n)|, at least 1: the scale of its roundoff."""
    if isinstance(spec, LinComb):
        return abs(spec.alpha) * _mass(spec.m1) + abs(spec.beta) * _mass(spec.m2)
    s, g = spec.seq, abs(spec.gamma)
    head = sum(abs(a) * g ** n / math.factorial(n) for n, a in enumerate(s.prefix))
    q = abs(s.r) * g if s.kind in ("geometric", "factorial") else g
    if s.kind == "finite":
        tail = 0.0
    elif s.kind == "factorial":
        tail = abs(s.c) / (1.0 - q)
    else:
        tail = abs(s.c) * math.exp(q)
    return max(1.0, head + tail)


def _small_sets(rng) -> list[Set]:
    excluded = tuple(sorted(rng.sample(range(8), 3)))
    members = tuple(sorted(rng.sample(range(26), 6)))
    return [Set("all"), Set("cofinite", excluded), Set("finite", members)]


_PARTS = {
    "evaluate": ("value", lambda T, B, eps: tm.evaluate(T, B, eps)),
    "total_variation": ("tv", lambda T, B, eps: tm.total_variation(T, B, eps)),
    "jordan_positive": ("pos", lambda T, B, eps: tm.jordan_decompose(T).positive(B, eps)),
    "jordan_negative": ("neg", lambda T, B, eps: tm.jordan_decompose(T).negative(B, eps)),
}


def _set_cases(spec, T, sets, eps, *, composed=False, known=None, parts=tuple(_PARTS)) -> list[Case]:
    cases = []
    for B in sets:
        NB = B.build()
        infinite = B.kind != "finite"
        for op in parts:
            part, call = _PARTS[op]
            exact = (lambda spec=spec, B=B, part=part: orc.set_sum(spec, B, part))
            cases.append(Case(
                op,
                lambda call=call, T=T, NB=NB: call(T, NB, eps),
                value_check(exact, eps=eps if infinite else None, composed=composed, known=known),
            ))
    return cases


def _fn_case(fn: Fn, x: float, eps: float, *, known=None) -> Case:
    # composed representations are built inside the call: multiply, power
    # and recenter memoise their coefficients, so a fresh build is what a
    # caller pays
    rep = None if fn.composed else fn.build()

    def call():
        return tm.eval_rep(fn.build() if rep is None else rep, x, eps)

    return Case("eval_rep", call, value_check(lambda: orc.eval_rep_exact(fn, x), eps=eps,
                                              composed=fn.composed, known=known))


# ---------------------------------------------------------------------------
# exact_short


def exact_short(seed: int, root: Path) -> list[Case]:
    """Thousands of small certified calls, each summing about 60 terms or fewer.

    Why: per-call overhead, plan_truncation and the per-grid-point
    re-planning in analytic dominate here. A vectorised term block has
    little to win on such short sums and pays its numpy set-up on every
    call, so its cost shows on this workload.
    """
    rng = random.Random(seed)
    eps = 1e-12
    cases: list[Case] = []

    # every certificate kind at |gamma| <= 5 on all, cofinite and small
    # finite sets; eps is 1e-12 of the measure's absolute mass, which a
    # double-precision sum can meet (the absolute-eps misses are exact_long's)
    for kind in ("constant", "geometric", "finite", "factorial"):
        for size in strata(rng, 0.2, 5.0, 4):
            spec = _measure(rng, kind, size)
            cases += _set_cases(spec, spec.build(), _small_sets(rng), eps * _mass(spec))
    pairs = [("constant", "finite"), ("geometric", "constant"), ("constant", "geometric"),
             ("geometric", "finite")]
    for (k1, k2), size in zip(pairs, strata(rng, 0.2, 5.0, 4)):
        spec = LinComb(rng.uniform(-2.0, 2.0), _measure(rng, k1, size),
                       rng.uniform(-2.0, 2.0), _measure(rng, k2, size))
        cases += _set_cases(spec, spec.build(), _small_sets(rng), eps * _mass(spec), composed=True)
    # no certificate: finite sets sum, infinite sets are refused by name
    for size in strata(rng, 0.2, 5.0, 2):
        spec = _measure(rng, "unverified", size)
        T = spec.build()
        fin = [B for B in _small_sets(rng) if B.kind == "finite"]
        cases += _set_cases(spec, T, fin, eps)
        cases.append(Case("evaluate", lambda T=T: tm.evaluate(T, tm.NatSet.all(), eps),
                          Check("refuse", refusal=tm.DivergenceUnknown)))

    # inner products and norms on small pairs
    kinds = ["constant", "geometric", "finite"]
    for i, size in enumerate(strata(rng, 0.2, 3.0, 6)):
        s1 = _measure(rng, kinds[i % 3], size)
        s2 = _measure(rng, kinds[(i + i // 3) % 3], size)
        T1, T2 = s1.build(), s2.build()
        pair_eps = eps * _mass(s1) * _mass(s2)
        for B in _small_sets(rng)[:2 if i % 2 else 3]:
            NB = B.build()
            cases.append(Case(
                "inner_product",
                lambda T1=T1, T2=T2, NB=NB, e=pair_eps: tm.inner_product(T1, T2, NB, e),
                value_check(lambda s1=s1, s2=s2, B=B: orc.inner(s1, s2, B),
                            eps=pair_eps if B.kind != "finite" else None)))
        NB = tm.NatSet.all()
        cases.append(Case(
            "norm", lambda T1=T1, NB=NB: tm.norm(T1, NB, eps),
            value_check(lambda s1=s1: orc.norm(s1, Set("all")))))

    # pmf cdf / quantile / set_probability on built (warm) pmfs
    pmf_specs = [Pmf(z, Seq("constant", (), 1.0)) for z in strata(rng, 0.5, 5.0, 2)]
    pmf_specs += [Pmf(rng.uniform(0.5, 5.0), Seq("geometric", (), 1.0, rng.uniform(0.3, 1.0)))]
    pmf_specs += [Pmf(rng.uniform(0.5, 3.0), Seq("finite", tuple(rng.uniform(0.1, 2.0) for _ in range(8))))]
    for ps in pmf_specs:
        p = ps.build()
        p.cumulative_table()
        for n in rng.sample(range(12), 4):
            cases.append(Case("pmf_cdf", lambda p=p, n=n: tm.cdf(p, n),
                              Check("tol", exact=lambda ps=ps, n=n: (orc.pmf_cdf(ps, n), _pmf_slack(ps), 1.0),
                                    extract=lambda out: (out, 0.0), tol=1e-14)))
        for u in strata(rng, 0.01, 0.99, 4):
            cases.append(Case("pmf_quantile", lambda p=p, u=u: tm.quantile(p, u),
                              Check("quantile", exact=lambda n, ps=ps: (orc.pmf_cdf(ps, n - 1), orc.pmf_cdf(ps, n),
                                                                        _pmf_slack(ps) + 1e-14),
                                    quantile_u=u)))
        for B in _small_sets(rng):
            NB = B.build()
            # eps 1e-10: the normalizer under it is itself certified to 1e-12
            cases.append(Case("set_probability", lambda p=p, NB=NB: p.set_probability(NB, 1e-10),
                              value_check(lambda ps=ps, B=B: (orc.pmf_set_probability(ps, B), 1e-40, 1.0),
                                          eps=1e-10 if B.kind != "finite" else None)))

    # single-point eval_rep on the builtins and polynomials
    for name, lo, hi in (("exp", -5.0, 5.0), ("sin", -5.0, 5.0), ("cos", -5.0, 5.0),
                         ("geometric", -0.9, 0.9)):
        for x in strata(rng, lo, hi, 4):
            cases.append(_fn_case(Fn(name), x, eps))
    for _ in range(4):
        coeffs = tuple(rng.randrange(-32, 33) / 16.0 for _ in range(rng.randrange(2, 7)))
        cases.append(_fn_case(Fn("polynomial", coeffs), rng.uniform(-3.0, 3.0), eps))

    # grid sup-distance and L^p norms: one eval_rep (one plan) per grid
    # point. These are the slowest calls here and set op_tail_ms, so their
    # grids are fixed rather than drawn.
    refs = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "geometric": lambda x: 1.0 / (1.0 - x)}
    for name, lo, hi, m in (("exp", -1.0, 1.0, 41), ("sin", 0.0, 1.5, 31), ("cos", -1.0, 0.5, 21),
                            ("geometric", -0.5, 0.5, 21)):
        rep, ref = Fn(name).build(), refs[name]
        cases.append(Case(
            "sup_distance_on_grid",
            lambda rep=rep, ref=ref, lo=lo, hi=hi, m=m: tm.sup_distance_on_grid(rep, ref, (lo, hi), m, eps),
            Check("tol", exact=lambda name=name, ref=ref, lo=lo, hi=hi, m=m:
                  (orc.sup_distance_exact(Fn(name), ref, lo, hi, m), 0.0, 1.0),
                  extract=lambda out: (out, 0.0), tol=eps + 1e-15 * math.exp(2.0))))
    for name, p, lo, hi in (("exp", 2.0, 0.0, 1.0), ("cos", 1.0, 0.2, 1.2), ("geometric", 2.0, 0.0, 0.5)):
        rep = Fn(name).build()
        cases.append(Case(
            "lp_norm_on_interval",
            lambda rep=rep, p=p, lo=lo, hi=hi: tm.lp_norm_on_interval(rep, p, (lo, hi), 1e-6),
            Check("tol", exact=lambda name=name, p=p, lo=lo, hi=hi:
                  (orc.lp_integral_exact(Fn(name), p, lo, hi) ** (1 / orc.mpf(p)), 0.0, 1.0),
                  extract=lambda out: (out, 0.0), tol=1e-5)))
    return cases


def _pmf_slack(ps: Pmf) -> float:
    """A pmf divides by a normalizer certified to eps = 1e-12 plus roundoff,
    so its float cdf may be off by that error relative to the mass."""
    z = float(orc.pmf_normalizer(ps))
    return (1e-12 + 1e-15 * z) / z


# ---------------------------------------------------------------------------
# exact_long


def exact_long(seed: int, root: Path) -> list[Case]:
    """Tens of heavy calls, each summing hundreds to thousands of terms.

    Why: the per-term kernel and the geometry summand dominate and planning
    is negligible. This is where a block kernel or shared coefficients
    gain, and where the costs of ball arithmetic and exact re-summation
    (ROADMAP item 4) show. The inputs that expose the seed's known defects
    are here and stay here.

    The heavy and composed inputs are fixed rather than drawn: whether a
    long or composed sum breaks its bound depends on its exact inputs, and
    fixed inputs keep that count, and the work per cycle, the same for every
    seed. The seed draws the finite sets and the cancellation points.
    """
    rng = random.Random(seed)
    cases: list[Case] = []
    every = Set("all")

    # evaluate exp at gamma 50..500: 159 to 1,383 terms, log path beyond
    # n = 170; eps is relative to the value, as a caller at that size asks
    for g in (60.0, 110.0, 170.0, 230.0, 290.0, 350.0, 420.0, 490.0):
        spec = Measure(Seq("constant", (), 1.0), g)
        cases += _set_cases(spec, spec.build(), [every], 1e-10 * math.exp(g), known=LOG_PATH,
                            parts=("evaluate",))
    # probe: the same sums at an eps of 1e-16 of the value, so the tail
    # bound is negligible and abs_error is the kernel's roundoff estimate,
    # which the log path under-states (LOG_PATH)
    for g in (200.0, 250.0):
        spec = Measure(Seq("constant", (), 1.0), g)
        cases += _set_cases(spec, spec.build(), [every], 1e-16 * math.exp(g), known=LOG_PATH,
                            parts=("evaluate",))
    # Jordan parts and total variation of alternating long sums
    for g in (80.0, 160.0):
        spec = Measure(Seq("constant", (), 1.0), -g)
        cases += _set_cases(spec, spec.build(), [every], 1e-10 * math.exp(g), known=LOG_PATH,
                            parts=("jordan_positive", "total_variation"))

    # finite sets of 1,000 to 5,000 indices (5,000 take about 20 ms)
    for size in (1000, 2000, 3500, 5000):
        spec = Measure(Seq(rng.choice(["constant", "geometric"]), (), rng.uniform(0.5, 2.0),
                           rng.uniform(0.5, 1.0)), rng.uniform(5.0, 50.0))
        B = Set("finite", tuple(sorted(rng.sample(range(3 * size), size))))
        cases += _set_cases(spec, spec.build(), [B], 1e-12, parts=("evaluate",))

    # long inner products: the summand n! p1 p2 needs 300 to 1,500 terms
    for g in (12.0, 17.0, 22.0):
        s1 = Measure(Seq("constant", (), 1.0), g)
        s2 = Measure(Seq("geometric", (), 1.0, 0.75), g)
        T1, T2 = s1.build(), s2.build()
        eps = 1e-10 * math.exp(0.75 * g * g)
        cases.append(Case("inner_product", lambda T1=T1, T2=T2, eps=eps: tm.inner_product(T1, T2, tm.NatSet.all(), eps),
                          value_check(lambda s1=s1, s2=s2: orc.inner(s1, s2, every), eps=eps, known=LOG_PATH)))
    s1, s2 = Measure(Seq("constant", (), 1.0), 10.0), Measure(Seq("constant", (), 1.0), 11.0)
    T1, T2 = s1.build(), s2.build()
    cases.append(Case("distance", lambda: tm.distance(T1, T2, tm.NatSet.all(), 1e-10 * math.exp(121.0)),
                      value_check(lambda: orc.norm(LinComb(1.0, s1, -1.0, s2), every), composed=True)))
    # probe: rho(exp@2 - exp@50) is about e**2500, beyond float range; the
    # seed spends about 265 ms and returns nan (ROADMAP item 4)
    p1, p2 = Measure(Seq("constant", (), 1.0), 2.0), Measure(Seq("constant", (), 1.0), 50.0)
    P1, P2 = p1.build(), p2.build()
    cases.append(Case("distance", lambda: tm.distance(P1, P2, tm.NatSet.all(), 1e-12),
                      value_check(lambda: orc.norm(LinComb(1.0, p1, -1.0, p2), every), composed=True,
                                  known="ROADMAP 4: non-finite result instead of a refusal")))

    # composites on long sums
    for g, alpha, beta, r in ((70.0, 1.5, -0.75, 0.8), (130.0, 0.5, -1.25, 0.6)):
        spec = LinComb(alpha, Measure(Seq("constant", (), 1.0), g),
                       beta, Measure(Seq("geometric", (), 1.0, r), g))
        cases += _set_cases(spec, spec.build(), [every], 1e-10 * math.exp(g), composed=True,
                            parts=("evaluate",))
    for z in (25.0, 55.0):
        spec = FromPmf(Pmf(z, Seq("constant", (), 1.0)), 1.0)
        cases += _set_cases(spec, spec.build(), [every], 1e-12, composed=True, parts=("evaluate",))

    # fresh multiply / power / recenter of infinite reps (multiply is O(N^2) terms)
    for fn, x in ((Fn("pow", f=Fn("exp"), k=3), 2.5), (Fn("pow", f=Fn("exp"), k=5), 1.5),
                  (Fn("mul", f=Fn("sin"), g=Fn("cos")), 4.0), (Fn("mul", f=Fn("exp"), g=Fn("exp")), 6.0),
                  (Fn("recenter", f=Fn("exp"), center=1.25), 0.75),
                  (Fn("recenter", f=Fn("sin"), center=1.5), 2.25)):
        cases.append(_fn_case(fn, x, 1e-10 * orc.fn_scale(fn, x)))

    # cancellation: e**x for x in -30..-10 at an absolute eps of 1e-12; the
    # seed returns roundoff bounds far above eps (ROADMAP item 4: eps unmet)
    for x in strata(rng, -30.0, -10.0, 3) + [-30.0]:
        cases.append(_fn_case(Fn("exp"), x, 1e-12))
    # probe: composed-term bound (ROADMAP item 4); the terms of this
    # difference carry far more roundoff than the 2 ulp the kernel credits
    spec = LinComb(1.0, Measure(Seq("constant", (), 1.0), 1.0),
                   -1.0, Measure(Seq("constant", (), 1.0), 1.0 + 1e-9))
    cases += _set_cases(spec, spec.build(), [Set("finite", tuple(range(20)))], 1e-12,
                        composed=True, parts=("evaluate",))
    # probe: 1/(1-x)**2 at 0.9 lies inside radius 1, yet the product
    # envelope's ratio factor makes the seed refuse it (ROADMAP item 3)
    cases.append(_fn_case(Fn("mul", f=Fn("geometric"), g=Fn("geometric")), 0.9, 1e-9,
                          known="ROADMAP 3: product envelope ratio refuses a point inside the radius"))
    return cases


# ---------------------------------------------------------------------------
# sampling


def _mc(extract, exact, slack=0.0) -> Check:
    return Check("mc", exact=exact, extract=extract, tol=slack)


def _sample_mean(x) -> tuple[float, float]:
    """Mean and its standard error from the sample's own spread."""
    x = np.asarray(x, dtype=float)
    return float(x.mean()), float(x.std(ddof=1)) / math.sqrt(x.size)


def sampling(seed: int, root: Path) -> list[Case]:
    """Monte Carlo and stochastic batches.

    Why: Philox draws, searchsorted and isin dominate, and the kernel only
    builds cdf tables. This workload bypasses every L0-L4 change, where the
    prediction is no change. It is the only workload where the L5 edge
    search or the thread-pool deletion can show; finite B against all B
    separates the two. Each threaded call runs with threads 1 and 2.

    What sets the work of a call is held still across seeds: set sizes are
    fixed (np.isin loops once per listed index) and each zeta, which sets
    a cdf table's length and a rejection sampler's acceptance rate, comes
    from a narrow range. The seed moves the values and the random streams.
    """
    rng = random.Random(seed)
    cases: list[Case] = []
    L = 1_000_000
    z1, z2 = rng.uniform(3.5, 4.5), rng.uniform(2.0, 3.0)
    side1 = Pmf(z1, Seq("constant", (), 1.0))
    side2 = Pmf(z2, Seq("geometric", (), 1.0, rng.uniform(0.7, 0.8)))
    b1, b2 = side1.b.build(), side2.b.build()
    seed_mc = rng.randrange(1 << 30)
    members = tuple(sorted(rng.sample(range(12), 6)))
    excluded = tuple(sorted(rng.sample(range(6), 2)))
    # the masses are exact normalizers (within eps=1e-12), so on B = all the
    # stderr is 0 and only their certified error remains: allow 1e-11 of them
    masses = lambda: orc.pmf_normalizer(side1) + orc.pmf_normalizer(side2)
    for B in (Set("finite", members), Set("cofinite", excluded), Set("all")):
        NB = B.build()
        for threads in (1, 2):
            cases.append(Case(
                "estimate_measure",
                lambda NB=NB, threads=threads: tm.estimate_measure(
                    z1, b1, z2, b2, NB, L, L, tm.RngSpec(seed_mc), threads=threads),
                _mc(lambda out: (out.point, out.stderr),
                    lambda B=B: (orc.two_sided_measure(side1, side2, B), masses()), 1e-11),
                pair=f"estimate_measure/{B.kind}"))
    # a finite-B estimate with both masses Poisson-sampled as well, at a
    # fifth of L (the Poisson draws cost more than the inverse-CDF ones). It
    # also puts an odd number of cases in the cycle, so op_p50_ms is the
    # median of one case's calls rather than a point between two cases
    NB = Set("finite", members).build()
    cases.append(Case(
        "estimate_measure/normalizers",
        lambda NB=NB: tm.estimate_measure(z1, b1, z2, b2, NB, L // 5, L // 5, tm.RngSpec(seed_mc),
                                          estimate_normalizers=True),
        _mc(lambda out: (out.point, out.stderr),
            lambda: (orc.two_sided_measure(side1, side2, Set("finite", members)), masses()), 1e-11)))
    # the exact normalizers estimate_measure uses as masses
    for side in (side1, side2):
        bs = side.b.build()
        cases.append(Case("normalizer", lambda side=side, bs=bs: tm.normalizer(side.zeta, bs, 1e-12),
                          value_check(lambda side=side: (orc.pmf_normalizer(side), 1e-40, orc.pmf_normalizer(side)),
                                      eps=1e-12)))
    zn = rng.uniform(2.0, 3.0)
    norm_side = Pmf(zn, Seq("geometric", (), 1.0, rng.uniform(0.5, 0.7)))
    bn = norm_side.b.build()
    for threads in (1, 2):
        cases.append(Case(
            "estimate_normalizer_poisson",
            lambda threads=threads: tm.estimate_normalizer_poisson(zn, bn, L, tm.RngSpec(seed_mc + 1),
                                                                   threads=threads),
            _mc(lambda out: (out.point, out.stderr),
                lambda: (orc.pmf_normalizer(norm_side),) * 2, 1e-12),
            pair="estimate_normalizer_poisson"))

    # pmf samplers: inverse-CDF from the certified table, and rejection
    pz = Pmf(rng.uniform(4.5, 5.5), Seq("constant", (), 1.0))
    p = pz.build()
    p.cumulative_table()
    for method, n in (("inverse_cdf", 200_000), ("rejection", 100_000)):
        cases.append(Case(f"sample_pmf/{method}",
                          lambda method=method, n=n: tm.sample_pmf(p, tm.RngSpec(seed_mc + 2), n, method),
                          _mc(_sample_mean, lambda: (orc.pmf_mean(pz), 1.0))))

    # stochastic Taylor measure batches and path simulators
    step = tm.NormalStep(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
    specs = [
        (tm.RandomWalk(step, 400), Set("all"), None, 4000),
        (tm.Ar1(rng.uniform(0.3, 0.95), rng.uniform(0.5, 2.0), 200), Set("all"), None, 4000),
        (tm.BrownianApprox(256, 0.0, 1.0), Set("finite", tuple(sorted(rng.sample(range(1, 257), 64)))),
         None, 4000),
    ]
    # gamma fixes the truncation horizon, which sets this batch's width
    gspec = tm.GaussianIID(rng.uniform(-1.0, 1.0), rng.uniform(0.9, 1.1), 1.25)
    specs.append((gspec, Set("all"), tm.gaussian_truncation_plan(gspec, 1e-12), 20000))
    for i, (spec, B, plan, R) in enumerate(specs):
        NB = B.build()
        cases.append(Case(
            f"sample_stm_batch/{type(spec).__name__}",
            lambda spec=spec, NB=NB, plan=plan, R=R, i=i: tm.sample_stm_batch(
                spec, NB, plan, tm.RngSpec(seed_mc + 10 + i), R),
            _mc(_sample_mean, lambda spec=spec, B=B: (orc.stm_mean(spec, B), 1.0), 1e-9)))
    walk = tm.RandomWalk(step, 200)
    brown = tm.BrownianApprox(128, 0.0, 1.0)
    for spec, sim, mean in ((walk, tm.simulate_random_walk_batch, 200 * step.mu),
                            (brown, tm.simulate_brownian_batch, 0.0)):
        cases.append(Case(
            sim.__name__,
            lambda spec=spec, sim=sim: sim(spec, tm.RngSpec(seed_mc + 20), 4000),
            _mc(lambda out: _sample_mean(out[:, -1]), lambda mean=mean: (mean, 1.0), 1e-9)))
    return cases


# ---------------------------------------------------------------------------
# cli


class CliRefusal(Exception):
    """The CLI exited with code 2 or 3 (a named input or numerical refusal)."""


@dataclass(frozen=True)
class CliRun:
    """What one CLI process left: exit code, stdout and stderr bytes."""

    code: int
    stdout: bytes
    stderr: bytes


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "taylormeasure.cli", *args]


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli_call(args: list[str], root: Path, env: dict) -> CliRun:
    argv = cli_argv(args)
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=120)
    return CliRun(proc.returncode, proc.stdout, proc.stderr)


class _CliCheck(Check):
    """Parse the JSON result document and judge it with the inner check."""

    def __init__(self, inner: Check, fields: tuple[str, str]):
        super().__init__(inner.mode, exact=inner.exact, eps=inner.eps, composed=inner.composed,
                         known=inner.known, tol=inner.tol, refusal=CliRefusal,
                         extract=lambda doc: (doc[fields[0]], doc[fields[1]]))

    def judge(self, out: CliRun, exc):
        if exc is None and out.code != 0:
            exc = CliRefusal(out.stderr.decode(errors="replace").strip())
        doc = json.loads(out.stdout) if exc is None else None
        return super().judge(doc, exc)


def cli(seed: int, root: Path) -> list[Case]:
    """Sequential taylormeasure CLI processes with small inputs.

    Why: an eval costs about 248 ms, of which the interpreter takes about
    47 ms and the imports about 170 ms (numpy about 93 ms, the package
    about 76 ms). Only here does a lazy import or a single-pass decompose
    show. Deterministic subcommands (which never need numpy) are split
    from randomized ones (which must still load it) so the lazy-import gain
    separates from the rest. Each invocation runs twice, back to back:
    deterministic ones with the same arguments, randomized ones with
    --threads 1 then 2, and the two outputs must be byte-identical.
    """
    rng = random.Random(seed)
    env = cli_env(root)
    docs: list[tuple[str, list[str], Check]] = []

    # eps is 1e-12 of each input's absolute mass, as in exact_short
    m = _measure(rng, "constant", 3.0)
    B = _small_sets(rng)[1]
    eps = 1e-12 * _mass(m)
    docs.append(("eval", ["eval", json.dumps(m.doc()), "--set", json.dumps(B.doc()), "--eps", repr(eps)],
                 _CliCheck(value_check(lambda m=m, B=B: orc.set_sum(m, B), eps=eps), ("value", "abs_error"))))
    m = _measure(rng, "geometric", 3.0)
    eps = 1e-12 * _mass(m)
    docs.append(("decompose", ["decompose", json.dumps(m.doc()), "--eps", repr(eps)],
                 _CliCheck(value_check(lambda m=m: orc.set_sum(m, Set("all")), eps=2 * eps),
                           ("value", "abs_error"))))
    s1, s2 = _measure(rng, "constant", 2.0), _measure(rng, "finite", 2.0)
    docs.append(("inner", ["inner", json.dumps(s1.doc()), json.dumps(s2.doc())],
                 _CliCheck(value_check(lambda s1=s1, s2=s2: orc.inner(s1, s2, Set("all"))),
                           ("value", "abs_error"))))
    name, x = rng.choice(["exp", "sin", "cos"]), rng.uniform(-3.0, 3.0)
    eps = 1e-12 * math.exp(abs(x))
    docs.append(("fn-eval", ["fn-eval", json.dumps(Fn(name).doc()), "--x", repr(x), "--eps", repr(eps)],
                 _CliCheck(value_check(lambda name=name, x=x: orc.eval_rep_exact(Fn(name), x), eps=eps),
                           ("value", "abs_error"))))
    pmf = Pmf(rng.uniform(0.5, 5.0), Seq("constant", (), 1.0))
    eps = 1e-12 * math.exp(pmf.zeta)
    docs.append(("pmf", ["pmf", json.dumps(pmf.doc()), "--upto", "10", "--eps", repr(eps)],
                 _CliCheck(value_check(lambda pmf=pmf: (orc.pmf_normalizer(pmf), 1e-40, orc.pmf_normalizer(pmf)),
                                       eps=eps), ("value", "abs_error"))))

    pos = Pmf(rng.uniform(1.0, 4.0), Seq("constant", (), 1.0))
    neg = Pmf(rng.uniform(0.5, 3.0), Seq("constant", (), 1.0))
    Bm = Set("finite", tuple(sorted(rng.sample(range(8), 4))))
    run_seed = str(rng.randrange(1 << 30))
    rand = [
        ("mc-measure", ["mc-measure", json.dumps(pos.doc()), json.dumps(neg.doc()), "--set",
                        json.dumps(Bm.doc()), "--L1", "20000", "--L2", "20000", "--seed", run_seed],
         _CliCheck(_mc(None, lambda: (orc.two_sided_measure(pos, neg, Bm),
                                      orc.pmf_normalizer(pos) + orc.pmf_normalizer(neg)), 1e-11),
                   ("value", "stderr"))),
    ]
    mu = rng.uniform(-0.5, 0.5)
    walk = {"kind": "random_walk", "t": 50, "step": {"kind": "normal", "mu": mu, "sigma": 1.0}}
    rand.append(("stm-sim", ["stm-sim", json.dumps(walk), "--L", "2000", "--seed", run_seed],
                 _CliCheck(_mc(None, lambda: (50 * mu, 1.0), 1e-9), ("value", "stderr"))))

    runs = [(op, args, check) for op, args, check in docs for _ in range(2)]
    runs += [(op, args + ["--threads", t], check) for op, args, check in rand for t in ("1", "2")]
    return [Case(f"cli/{op}", lambda args=args: _cli_call(args, root, env), check,
                 pair=f"cli/{op}", rerun=False, args=tuple(args))
            for op, args, check in runs]


WORKLOADS = {
    "exact_short": exact_short,
    "exact_long": exact_long,
    "sampling": sampling,
    "cli": cli,
}

# the subcommands that draw no random numbers, timed as cli.run_ms.det
DETERMINISTIC_CLI = ("eval", "decompose", "inner", "fn-eval", "pmf")
