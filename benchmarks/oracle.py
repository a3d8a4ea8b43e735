"""Exact values of the benchmark inputs, and the checks that use them.

Every exact value is computed here with mpmath from the float inputs read
as exact rationals (a float converts to an mpf without rounding). Nothing
in this module calls taylormeasure code; it only reads the plain specs of
``specs.py`` and the stochastic spec dataclasses' fields.

Infinite sums are cut at a horizon from this module's own tail bound,
chosen so the dropped part is below 1e-40 of the series' absolute mass;
that residue is returned as ``oracle_err`` and added to every tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

from mpmath import mp, mpf

from specs import Fn, FromPmf, LinComb, Measure, Pmf, Seq, Set

# default working precision for everything not given its own below
mp.prec = 256

_REL = 1e-40
_LOG_REL = math.log(_REL)
_FLOAT_MAX = mpf(2) ** 1024
MC_SIGMAS = 5.0


# ---------------------------------------------------------------------------
# envelopes and horizons


def _envelope(spec) -> tuple[str, float, float, int]:
    """(kind, C, q, start): |p_n| <= C q**n / n! ('exp') or C q**n ('geo')
    for n >= start; ('fin', 0, 0, last) when p_n = 0 beyond last."""
    if isinstance(spec, Measure):
        s, g = spec.seq, abs(spec.gamma)
        start = len(s.prefix)
        if s.kind == "finite":
            return "fin", 0.0, 0.0, start - 1
        if s.kind in ("constant", "unverified"):
            return "exp", abs(s.c), g, start
        if s.kind == "geometric":
            return "exp", abs(s.c), abs(s.r) * g, start
        return "geo", abs(s.c), abs(s.r) * g, start
    if isinstance(spec, LinComb):
        e1 = _scaled(_envelope(spec.m1), abs(spec.alpha))
        e2 = _scaled(_envelope(spec.m2), abs(spec.beta))
        if e1[0] == "fin" and e2[0] == "fin":
            return "fin", 0.0, 0.0, max(e1[3], e2[3])
        if e1[0] == "fin" or e2[0] == "fin":
            fin, env = (e1, e2) if e1[0] == "fin" else (e2, e1)
            return env[0], env[1], env[2], max(env[3], fin[3] + 1)
        if e1[0] != e2[0]:
            raise ValueError("mixed envelope kinds are not generated")
        return e1[0], e1[1] + e2[1], max(e1[2], e2[2]), max(e1[3], e2[3])
    if isinstance(spec, FromPmf):
        kind, c, q, start = _envelope(Measure(spec.pmf.b, spec.pmf.zeta))
        return kind, c / float(pmf_normalizer(spec.pmf)), q, start
    raise TypeError(type(spec).__name__)


def _scaled(env, w):
    return env[0], env[1] * w, env[2], env[3]


def _horizon(env) -> tuple[int, float]:
    """Last index to sum and the absolute bound on everything after it."""
    kind, c, q, start = env
    if kind == "fin" or c == 0.0 or q == 0.0:
        return max(start, 0), 0.0
    if kind == "geo":
        if q >= 1.0:
            raise ValueError("divergent factorial-geometric series")
        n = max(start, int((_LOG_REL + math.log1p(-q)) / math.log(q)))
        return n, c * q ** (n + 1) / (1.0 - q)
    n = max(start, int(q) + 1)
    while (n + 1) * math.log(q) - math.lgamma(n + 2) - math.log1p(-q / (n + 2)) > _LOG_REL + q:
        n += max(1, n // 8)
    return n, mpf(c) * mp.exp(q) * _REL


def _prec(env) -> int:
    """Working bits: 160 plus room for cancellation down to e**-q."""
    kind, _, q, _ = env
    return 160 + (int(2.0 * q / math.log(2.0)) if kind == "exp" else 0)


# ---------------------------------------------------------------------------
# exact terms


def _coeffs(seq: Seq, upto: int) -> list:
    out = []
    rp = mpf(1)
    for n in range(upto + 1):
        if n < len(seq.prefix):
            out.append(mpf(seq.prefix[n]))
        elif seq.kind == "finite":
            out.append(mpf(0))
        elif seq.kind == "constant":
            out.append(mpf(seq.c))
        elif seq.kind == "geometric":
            out.append(mpf(seq.c) * rp)
        elif seq.kind == "factorial":
            v = seq.rule_value(n)
            out.append(mpf(v) if math.isfinite(v)
                       else mpf(seq.c) * mp.factorial(n) * mpf(seq.r) ** n)
        else:
            out.append(mpf(seq.rule_value(n)))
        rp *= mpf(seq.r)
    return out


@lru_cache(maxsize=256)
def _terms(spec, upto: int, prec: int) -> tuple:
    """Exact p_n for n = 0..upto at ``prec`` bits."""
    with mp.workprec(prec):
        if isinstance(spec, Measure):
            a = _coeffs(spec.seq, upto)
            gamma = mpf(spec.gamma)
            w = mpf(1)
            out = []
            for n in range(upto + 1):
                if n:
                    w = w * gamma / n
                out.append(a[n] * w)
            return tuple(out)
        if isinstance(spec, LinComb):
            t1 = _terms(spec.m1, upto, prec)
            t2 = _terms(spec.m2, upto, prec)
            al, be = mpf(spec.alpha), mpf(spec.beta)
            return tuple(al * x + be * y for x, y in zip(t1, t2))
        if isinstance(spec, FromPmf):
            z = pmf_normalizer(spec.pmf)
            return tuple(t / z for t in _terms(Measure(spec.pmf.b, spec.pmf.zeta), upto, prec))
    raise TypeError(type(spec).__name__)


def _indices(B: Set, horizon: int) -> list[int]:
    if B.kind == "finite":
        return list(B.elements)
    excluded = frozenset(B.elements)
    return [n for n in range(horizon + 1) if n not in excluded]


def set_sum(spec, B: Set, part: str = "value") -> tuple[Any, float, Any]:
    """(exact, oracle_err, scale) of the measure's value on B.

    part: value | tv | pos | neg (the Jordan parts). scale is the exact
    absolute mass of B, the natural size of float roundoff.
    """
    env = _envelope(spec)
    prec = _prec(env)
    if B.kind == "finite":
        upto, err = (max(B.elements) if B.elements else 0), 0.0
    else:
        upto, err = _horizon(env)
        upto = max([upto] + [n for n in B.elements])
    terms = _terms(spec, upto, prec)
    with mp.workprec(prec):
        picked = [terms[n] for n in _indices(B, upto)]
        scale = mp.fsum(abs(t) for t in picked)
        if part == "value":
            exact = mp.fsum(picked)
        elif part == "tv":
            exact = scale
        elif part == "pos":
            exact = mp.fsum(t for t in picked if t > 0)
        else:
            exact = mp.fsum(-t for t in picked if t < 0)
    return exact, err, scale


def inner(s1, s2, B: Set) -> tuple[Any, float, Any]:
    """rho(T1, T2)(B) = sum_{n in B} n! p1(n) p2(n)."""
    e1, e2 = _envelope(s1), _envelope(s2)
    pair = ("exp", e1[1] * e2[1], e1[2] * e2[2], max(e1[3], e2[3]))
    prec = max(_prec(e1), _prec(e2), _prec(pair))
    if B.kind == "finite":
        upto, err = (max(B.elements) if B.elements else 0), 0.0
    elif e1[0] == "fin" or e2[0] == "fin":
        upto = min(e[3] for e in (e1, e2) if e[0] == "fin")
        err = 0.0
    else:
        upto, err = _horizon(pair)
    upto = max([upto] + [n for n in B.elements])
    t1, t2 = _terms(s1, upto, prec), _terms(s2, upto, prec)
    with mp.workprec(prec):
        picked = []
        f = mpf(1)
        idx = set(_indices(B, upto))
        for n in range(upto + 1):
            if n:
                f *= n
            if n in idx:
                picked.append(f * t1[n] * t2[n])
        return mp.fsum(picked), err, mp.fsum(abs(t) for t in picked)


def norm(spec, B: Set) -> tuple[Any, Any, Any]:
    """sqrt(rho(T, T)(B)); distance(T1, T2) is the norm of LinComb(1, T1, -1, T2)."""
    sq, err, _ = inner(spec, spec, B)
    return mp.sqrt(sq), mp.sqrt(err), mp.sqrt(sq)


# ---------------------------------------------------------------------------
# pmfs


@lru_cache(maxsize=256)
def _pmf_weights(pmf: Pmf) -> tuple[tuple, Any]:
    env = _envelope(Measure(pmf.b, pmf.zeta))
    upto, _ = _horizon(env)
    terms = _terms(Measure(pmf.b, pmf.zeta), upto, _prec(env))
    return terms, mp.fsum(terms)


def pmf_normalizer(pmf: Pmf):
    return _pmf_weights(pmf)[1]


def pmf_cdf(pmf: Pmf, n: int):
    w, z = _pmf_weights(pmf)
    return mp.fsum(w[: n + 1]) / z if n >= 0 else mpf(0)


def pmf_set_probability(pmf: Pmf, B: Set):
    w, z = _pmf_weights(pmf)
    return mp.fsum(w[n] for n in _indices(B, len(w) - 1) if n < len(w)) / z


def pmf_mean(pmf: Pmf):
    w, z = _pmf_weights(pmf)
    return mp.fsum(n * x for n, x in enumerate(w)) / z


def two_sided_measure(p1: Pmf, p2: Pmf, B: Set):
    """T(B) for the measure with terms b1 z1^n/n! - b2 z2^n/n!."""
    return (pmf_set_probability(p1, B) * pmf_normalizer(p1)
            - pmf_set_probability(p2, B) * pmf_normalizer(p2))


# ---------------------------------------------------------------------------
# analytic functions


def fn_value(fn: Fn, x):
    """Exact f(x); x is an mpf or a float read exactly."""
    x = mpf(x)
    k = fn.kind
    if k == "exp":
        return mp.exp(x)
    if k == "sin":
        return mp.sin(x)
    if k == "cos":
        return mp.cos(x)
    if k == "geometric":
        return 1 / (1 - x)
    if k == "polynomial":
        return mp.fsum(mpf(c) * x ** j for j, c in enumerate(fn.coeffs))
    if k == "mul":
        return fn_value(fn.f, x) * fn_value(fn.g, x)
    if k == "pow":
        return fn_value(fn.f, x) ** fn.k
    if k == "recenter":
        # eval_rep forms gamma = x - center in floats
        return fn_value(fn.f, mpf(fn.center) + mpf(float(x) - fn.center))
    raise ValueError(k)


def fn_scale(fn: Fn, x: float) -> float:
    """Value at x of a majorant series: the size of float roundoff."""
    a = abs(x)
    k = fn.kind
    if k in ("exp", "sin", "cos"):
        return math.exp(a)
    if k == "geometric":
        return 1.0 / (1.0 - a)
    if k == "polynomial":
        return math.fsum(abs(c) * a ** j for j, c in enumerate(fn.coeffs))
    if k == "mul":
        return fn_scale(fn.f, a) * fn_scale(fn.g, a)
    if k == "pow":
        return fn_scale(fn.f, a) ** fn.k
    return fn_scale(fn.f, abs(fn.center) + abs(x - fn.center))


def eval_rep_exact(fn: Fn, x: float) -> tuple[Any, float, Any]:
    with mp.workprec(200):
        return +fn_value(fn, x), 0.0, mpf(fn_scale(fn, x))


def sup_distance_exact(fn: Fn, ref: Callable[[float], float], lo: float, hi: float, m: int):
    with mp.workprec(200):
        worst = mpf(0)
        for i in range(m):
            x = lo + (hi - lo) * i / (m - 1)
            worst = max(worst, abs(fn_value(fn, x) - mpf(ref(x))))
        return worst


def lp_integral_exact(fn: Fn, p: float, lo: float, hi: float):
    with mp.workprec(200):
        return mp.quad(lambda t: abs(fn_value(fn, t)) ** p, [lo, hi])


# ---------------------------------------------------------------------------
# stochastic batches


def stm_mean(spec, B: Set) -> float:
    """Exact mean of X(B) for the sampled specs."""
    name = type(spec).__name__
    if name == "RandomWalk":
        return spec.step.mu * sum(1 for n in range(1, spec.t + 1) if _in(B, n))
    if name in ("Ar1", "BrownianApprox"):
        return 0.0
    if name == "GaussianIID":
        return float(set_sum(Measure(Seq("constant", (), 1.0), spec.gamma), B)[0] * mpf(spec.mu_a))
    raise ValueError(name)


def _in(B: Set, n: int) -> bool:
    if B.kind == "all":
        return True
    return (n in B.elements) == (B.kind == "finite")


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class Verdict:
    """What one checked result says.

    error         the call raised where a value was due, raised the wrong
                  class, or returned a non-finite value or bound
    bound_ok      |value - exact| within the claimed abs_error (or the
                  stated tolerance, or 5 stderr for Monte Carlo); None
                  when not checked
    eps_ok        abs_error <= requested eps on an infinite set; None when
                  not checked
    tolerated     the problem is one of the defects ROADMAP names (see
                  Check.known); it is still counted in the ratios
    gate_ok       a composed result whose bound is known to be too tight
                  is still accurate to 1e-9 of its scale
    """

    error: bool = False
    bound_ok: bool | None = None
    eps_ok: bool | None = None
    tolerated: bool = False
    gate_ok: bool = True
    note: str = ""


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


@dataclass
class Check:
    """How to judge one call's outcome against the oracle.

    exact    () -> (exact, slack, scale) for value results: slack is added
             to the tolerance (the oracle's own truncation residue, or an
             input error the package bounds elsewhere); when |exact|
             exceeds the float range the right outcome is a named refusal.
             For 'mc', () -> (exact mean, scale of ``tol``); for
             'quantile', n -> (cdf(n-1), cdf(n), slack)
    extract  output -> (value, bound): bound is the claimed abs_error,
             the stderr for mode 'mc', unused for mode 'tol'
    mode     'bound' (certified abs_error), 'tol' (float result within
             ``tol``), 'mc' (within 5 stderr plus ``tol``), 'refuse' (must
             raise ``refusal``), 'quantile' (integer n with
             cdf(n-1) < u <= cdf(n))
    refusal  the exception class that counts as a named refusal
    eps      requested eps on an infinite set, for eps_met_ratio
    composed the result is built from term-backed (composed) coefficients,
             whose roundoff the package does not propagate (ROADMAP item 4)
    known    names the ROADMAP defect an error on this case is expected
             to show at the seed; errors elsewhere make the run incorrect
    """

    mode: str
    exact: Callable[[], tuple] | None = None
    extract: Callable[[Any], tuple] = lambda out: (out.value, out.abs_error)
    tol: float = 0.0
    eps: float | None = None
    composed: bool = False
    known: str | None = None
    refusal: type | None = None
    quantile_u: float = 0.0

    def judge(self, out: Any, exc: BaseException | None) -> Verdict:
        v = self._judge(out, exc)
        if v.error and self.known:
            v.tolerated = True
        if v.bound_ok is False and (self.composed or self.known):
            v.tolerated = True
        return v

    def _judge(self, out, exc) -> Verdict:
        if self.mode == "refuse":
            ok = exc is not None and isinstance(exc, self.refusal)
            return Verdict(error=not ok, note="" if ok else f"expected {self.refusal.__name__}")
        if self.mode == "quantile":
            if exc is not None:
                return Verdict(error=True, note=type(exc).__name__)
            lo_cdf, hi_cdf, slack = self.exact(out)
            ok = lo_cdf < self.quantile_u + slack and hi_cdf >= self.quantile_u - slack
            return Verdict(bound_ok=ok)
        if self.mode in ("bound", "tol"):
            exact, oerr, scale = self.exact()
            refuse = abs(exact) >= _FLOAT_MAX
            if exc is not None:
                ok = refuse and self.refusal is not None and isinstance(exc, self.refusal)
                return Verdict(error=not ok, note=f"{type(exc).__name__}: {exc}"[:160])
            value, bound = self.extract(out)
            if refuse or not _finite(value, bound if self.mode == "bound" else 0.0):
                return Verdict(error=True, note=f"returned {value!r} +- {bound!r}")
            diff = abs(mpf(value) - exact)
            allowed = (mpf(bound) if self.mode == "bound" else mpf(self.tol)) + mpf(oerr)
            v = Verdict(bound_ok=bool(diff <= allowed))
            if self.eps is not None and self.mode == "bound":
                v.eps_ok = bound <= self.eps
                if not v.eps_ok:
                    v.note = f"abs_error {bound:.3g} > eps {self.eps:.3g}"
            if self.composed and not v.bound_ok:
                v.gate_ok = bool(diff <= allowed + mpf(1e-9) * scale)
            if not v.bound_ok:
                v.note = f"|value - exact| = {float(diff):.3g} > {float(allowed):.3g}"
            return v
        if self.mode == "mc":
            if exc is not None:
                return Verdict(error=True, note=type(exc).__name__)
            point, stderr = self.extract(out)
            if not _finite(point, stderr):
                return Verdict(error=True, note=f"returned {point!r} +- {stderr!r}")
            exact, scale = (float(v) for v in self.exact())
            ok = abs(point - exact) <= MC_SIGMAS * stderr + self.tol * scale
            return Verdict(bound_ok=ok, note="" if ok else
                           f"{point} is {abs(point - exact) / stderr:.1f} stderr from {exact}")
        raise ValueError(self.mode)
