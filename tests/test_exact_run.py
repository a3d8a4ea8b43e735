"""Exact runs: long sums of terms that are exact by definition.

Coefficients given by a prefix and a zero, constant or geometric tail make
every term a_n * gamma**n / n! an exact dyadic rational. A run of them past
n = 170 is summed exactly in integers and rounded once, and on an infinite
set eps is a contract: abs_error <= eps, or PrecisionUnattainable. Each
result is held to a Fraction reference (exact_reference), bit for bit, and
its abs_error to mpmath at 50 digits.
"""

import json
import math
import os
import subprocess
import sys
from functools import partial

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taylormeasure import (
    Bounded,
    CoefficientSequence,
    GeometricEnvelope,
    GeometricTail,
    MeasureValue,
    NatSet,
    PrecisionUnattainable,
    TaylorMeasure,
    TaylorMeasureError,
    TermBackedSequence,
    constant_sequence,
    distance,
    eval_rep,
    evaluate,
    exp_rep,
    finite_sequence,
    geometric_sequence,
    hilbert_axiom_report,
    inner_product,
    jordan_decompose,
    linear_combination,
    norm,
    normalizer,
    plan_truncation,
    probability_pair,
    rule_sequence,
    sin_rep,
    total_variation,
)
from taylormeasure import cli, exact, geometry, kernel

import exact_reference as ref

PARTS = {
    "signed": evaluate,
    "variation": total_variation,
    "pos": lambda T, B, eps: jordan_decompose(T).positive(B, eps),
    "neg": lambda T, B, eps: jordan_decompose(T).negative(B, eps),
}


def _outcome(call):
    try:
        return call()
    except TaylorMeasureError as exc:
        return type(exc)


def _log_abs_term(a, gamma, n):
    if a == 0.0 or (gamma == 0.0 and n):
        return -math.inf
    return math.log(abs(a)) + (n * math.log(abs(gamma)) if n else 0.0) - math.lgamma(n + 1)


def _mass(T):
    """About sum_n |p(n)|, at least 1: the scale eps is drawn against."""
    seq, g = T.coefficients, T.gamma
    head = math.fsum(math.exp(min(_log_abs_term(a, g, n), 700.0))
                     for n, a in enumerate(seq.prefix))
    t = seq.tail
    if isinstance(t, GeometricTail):
        tail = abs(t.scale) * math.exp(abs(g * t.ratio))
    elif hasattr(t, "value"):
        tail = abs(t.value) * math.exp(abs(g))
    else:
        tail = 0.0
    return max(1.0, head + tail)


_coeff = st.floats(-4.0, 4.0)


def _floats(lo, hi, bits):
    """Floats in [lo, hi]: multiples of 2**-bits when bits is given, which
    keep the Fraction reference of a long product run affordable; otherwise
    any, or multiples of 1/16, whose short numerators take an exact run
    from the start where a long run of generic floats is summed in floats
    first (kernel._exact_first)."""
    if bits is None:
        return st.one_of(st.floats(lo, hi), _floats(lo, hi, 4))
    return st.integers(math.ceil(lo * 2 ** bits), math.floor(hi * 2 ** bits)).map(
        lambda i: i / 2 ** bits)


@st.composite
def _exact_measures(draw, reach=500.0, bits=None):
    """Prefix, constant and geometric sequences whose terms reach out to
    |gamma * ratio| <= reach."""
    kind = draw(st.sampled_from(["prefix", "constant", "geometric"]))
    if kind == "prefix":
        coeffs = draw(st.lists(_coeff, min_size=1, max_size=320))
        return TaylorMeasure(finite_sequence(coeffs), draw(_floats(-8.0, 8.0, bits)))
    prefix = tuple(draw(st.lists(_coeff, max_size=4)))
    c = draw(st.floats(-2.0, 2.0))
    gamma = draw(_floats(-reach, reach, bits))
    if kind == "constant":
        return TaylorMeasure(constant_sequence(c, prefix), gamma)
    r = draw(_floats(-1.5, 1.5, bits))
    if abs(gamma * r) > reach:
        gamma = math.copysign(reach, gamma) / abs(r)
    cert = GeometricEnvelope(abs(c), abs(r), len(prefix))
    return TaylorMeasure(CoefficientSequence(prefix, GeometricTail(c, r), cert), gamma)


@st.composite
def _sets(draw, top=1500):
    """All of N, a cofinite set, or a finite set up to ``top``: dense (an
    exact run) or sparse (the float path)."""
    kind = draw(st.sampled_from(["all", "cofinite", "dense", "sparse"]))
    if kind == "all":
        return NatSet.all()
    if kind == "cofinite":
        return NatSet.cofinite(draw(st.lists(st.integers(0, 700), min_size=1, max_size=10)))
    if kind == "dense":
        last = draw(st.integers(171, top))
        dropped = set(draw(st.lists(st.integers(0, last - 1), max_size=20)))
        return NatSet.finite([n for n in range(last + 1) if n not in dropped])
    return NatSet.finite(draw(st.lists(st.integers(0, top), max_size=30)))


_rel = st.sampled_from([1e-16, 1e-14, 1e-12, 1e-8])


def _true_part(terms, part):
    """The exact part of mpmath terms (_mp_terms) at 50 digits."""
    with mp.workdps(50):
        if part == "variation":
            terms = [abs(t) for t in terms]
        elif part == "pos":
            terms = [t for t in terms if t > 0]
        elif part == "neg":
            terms = [-t for t in terms if t < 0]
        return mp.fsum(terms)


def _mp_terms(seq, gamma, indices, weight=None):
    """seq's terms at gamma over increasing indices at 50 digits, formed
    in turn from a_n and gamma**n / n!; ``weight``, when given, gives the
    inner product's summand n! p(n) q(n), with q = weight(n)."""
    out, wanted = [], set(indices)
    with mp.workdps(50):
        w, ratio_n, g = mp.mpf(1), mp.mpf(1), mp.mpf(gamma)
        t = seq.tail
        for n in range(max(indices, default=-1) + 1):
            if n:
                w = w * g / n
                if isinstance(t, GeometricTail):
                    ratio_n *= mp.mpf(t.ratio)
            if n in wanted:
                if n < len(seq.prefix):
                    a = mp.mpf(seq.prefix[n])
                elif isinstance(t, GeometricTail):
                    a = mp.mpf(t.scale) * ratio_n
                else:
                    a = mp.mpf(getattr(t, "value", 0.0))
                p = a * w
                out.append(p if weight is None else p * weight(n) * mp.factorial(n))
    return out


def _check_bound(got, terms, part, mass):
    """|value - exact| <= abs_error against mpmath at 50 digits; the
    reference's own rounding, below 1e-45 of the mass, is allowed for."""
    if not isinstance(got, MeasureValue):
        return
    exact = _true_part(terms, part)
    with mp.workdps(50):
        assert abs(mp.mpf(got.value) - exact) <= mp.mpf(got.abs_error) + mp.mpf(mass) * 1e-45


class TestAgainstFractions:
    @given(_exact_measures(), _sets(top=800), _rel, st.sampled_from(sorted(PARTS)))
    @settings(max_examples=120, deadline=None)
    def test_set_parts(self, T, B, rel, part):
        seq, gamma = T.coefficients, T.gamma
        mass = _mass(T)
        eps = rel * mass
        got = _outcome(lambda: PARTS[part](T, B, eps))
        term_at = partial(ref.term, seq, gamma)
        if B.is_finite:
            indices, tail = B.elements, 0.0
            horizon = indices and kernel.underflow_horizon(seq, gamma, indices[-1])
            if horizon:
                indices = [n for n in indices if n <= horizon.last_index]
                tail = horizon.tail_bound
            if ref.dense_run(indices, ref.bits(seq, gamma)):
                assert got == ref.rounded(ref.part_sum([term_at(n) for n in indices], part), tail)
            _check_bound(got, _mp_terms(seq, gamma, B.elements), part, mass)
            return
        # the float path's result stands in for the float engine: where it
        # misses eps the reference sums exactly and the test fails
        want, plan = ref.within_eps(
            term_at, B.__contains__, partial(plan_truncation, seq.certificate, gamma), eps, part,
            lambda plan: ((got.value, got.abs_error) if isinstance(got, MeasureValue)
                          else (math.nan, math.inf)), ref.bits(seq, gamma))
        assert got == want
        if isinstance(got, MeasureValue):
            assert got.abs_error <= eps
            horizon = plan_truncation(seq.certificate, gamma, mass * 1e-48).last_index
            _check_bound(got, _mp_terms(seq, gamma, [n for n in range(horizon + 1) if n in B]),
                         part, mass)

    @given(_exact_measures(reach=16.0, bits=4), _exact_measures(reach=16.0, bits=4),
           _sets(top=600), _rel)
    @settings(max_examples=60, deadline=None)
    def test_inner_product(self, T1, T2, B, rel):
        s1, g1, s2, g2 = T1.coefficients, T1.gamma, T2.coefficients, T2.gamma
        term_at = partial(ref.rho_term, s1, g1, s2, g2)
        pair = geometry._rho_envelope(T1, T2)
        if pair.last is not None:
            plan_at = lambda e: kernel.TruncationPlan(pair.last, 0.0)
        else:
            plan_at = partial(plan_truncation, pair.to_certificate(1.0), 1.0)
        if pair.last is None:  # the envelope's bound on sum_n |n! p1(n) p2(n)|
            mass = max(1.0, pair.scale * math.exp(pair.ratio))
        else:
            mass = max(1.0, float(ref.part_sum([term_at(n) for n in range(pair.last + 1)],
                                               "variation")))
        eps = rel * mass
        got = _outcome(lambda: inner_product(T1, T2, B, eps))

        def mp_terms(indices):
            second = dict(zip(indices, _mp_terms(s2, g2, indices)))
            return _mp_terms(s1, g1, indices, second.__getitem__)

        if B.is_finite:
            if ref.dense_run(B.elements, ref.rho_bits(s1, g1, s2, g2)):
                assert got == ref.rounded(
                    ref.part_sum([term_at(n) for n in B.elements], "signed"), 0.0)
            _check_bound(got, mp_terms(B.elements), "signed", mass)
            return
        want, _ = ref.within_eps(
            term_at, B.__contains__, plan_at, eps, "signed",
            lambda plan: ((got.value, got.abs_error) if isinstance(got, MeasureValue)
                          else (math.nan, math.inf)), ref.rho_bits(s1, g1, s2, g2))
        assert got == want
        if isinstance(got, MeasureValue):
            assert got.abs_error <= eps
            horizon = plan_at(mass * 1e-48).last_index
            _check_bound(got, mp_terms([n for n in range(horizon + 1) if n in B]), "signed", mass)


class TestSeries:
    @given(st.integers(-10 ** 20, 10 ** 20), st.integers(0, 60), st.integers(0, 300),
           st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
    def test_binary_splitting_matches_the_plain_sum(self, m, k, a, length):
        b = a + length
        s, p, q = exact._series(m, k, a, b)
        assert s == sum(m ** (n - a) * (math.perm(b - 1, b - 1 - n) if n < b else 1)
                        << (k * (b - 1 - n)) for n in range(a, b))
        assert p == m ** (b - a)
        assert q == math.prod(range(a, b))

    def test_extending_a_run_equals_a_fresh_run(self):
        terms = exact._exact_terms(constant_sequence(1.5, [2.0, -3.0]), -123.375)
        grown = exact._ExactSum(terms, 200, [5, 190, 260])
        for name in PARTS:
            grown.rounded(name)
        grown.extend(400)
        fresh = exact._ExactSum(terms, 400, [5, 190, 260])
        for name in PARTS:
            assert grown.rounded(name) == fresh.rounded(name)


class TestExactFirst:
    """Which runs are summed exactly from the start (kernel._exact_first)."""

    ONES = constant_sequence(1.0)
    GENERIC = 400.0 * (1.0 + 0.7071067811865476 * 2.0 ** -20)  # a 53-bit numerator

    def _float_pass(self, gamma, eps, members):
        plan = plan_truncation(self.ONES.certificate, gamma, eps)
        s = kernel._sum_terms(self.ONES, gamma, [n for n in range(plan.last_index + 1)
                                                 if members(n)])
        return MeasureValue(*s.part("signed", plan.tail_bound))

    def test_short_numerators_are_summed_exactly_even_within_eps(self):
        eps = 1e-10 * math.exp(400.0)
        assert self._float_pass(400.0, eps, lambda n: True).abs_error <= eps
        plan = plan_truncation(self.ONES.certificate, 400.0, eps)
        x = ref.part_sum([ref.term(self.ONES, 400.0, n) for n in range(plan.last_index + 1)],
                         "signed")
        assert evaluate(TaylorMeasure(self.ONES, 400.0), NatSet.all(), eps) == ref.rounded(
            x, plan.tail_bound)

    def test_long_numerators_are_summed_in_floats_first(self):
        assert exact._exact_terms(self.ONES, self.GENERIC).bits == 53
        eps = 1e-10 * math.exp(self.GENERIC)
        want = self._float_pass(self.GENERIC, eps, lambda n: True)
        assert want.abs_error <= eps
        assert evaluate(TaylorMeasure(self.ONES, self.GENERIC), NatSet.all(), eps) == want

    def test_long_numerators_missing_eps_are_summed_exactly(self):
        eps = 4e-16 * math.exp(self.GENERIC)
        assert self._float_pass(self.GENERIC, eps, lambda n: True).abs_error > eps
        want, plan = ref.within_eps(
            partial(ref.term, self.ONES, self.GENERIC), lambda n: True,
            partial(plan_truncation, self.ONES.certificate, self.GENERIC), eps, "signed",
            lambda plan: (math.nan, math.inf), 53)
        assert plan is not None
        assert evaluate(TaylorMeasure(self.ONES, self.GENERIC), NatSet.all(), eps) == want

    def test_sparse_cofinite_runs_are_summed_in_floats_first(self):
        # 0..119 left out of a run to about 250: fewer than half its indices
        B = NatSet.cofinite(range(120))
        eps = 1e-10 * math.exp(120.0)
        want = self._float_pass(120.0, eps, B.__contains__)
        assert want.abs_error <= eps
        assert evaluate(TaylorMeasure(self.ONES, 120.0), B, eps) == want


class TestEpsMet:
    # the six calls of the exact_long benchmark whose bound missed eps
    @pytest.mark.parametrize("x", [-30.0, -26.5, -20.25, -13.875])
    def test_cancellation_meets_eps(self, x):
        # e**x for x in -30..-10 at an absolute eps of 1e-12: the float sum
        # returned 0.0 +- 7.1e-3 at x = -30
        got = eval_rep(exp_rep(), x, 1e-12)
        assert got.abs_error <= 1e-12
        with mp.workdps(50):
            assert abs(mp.mpf(got.value) - mp.exp(mp.mpf(x))) <= got.abs_error
        seq = exp_rep().coefficients
        want, plan = ref.within_eps(partial(ref.term, seq, x), lambda n: True,
                                    partial(plan_truncation, seq.certificate, x), 1e-12,
                                    "signed", lambda plan: (math.nan, math.inf), ref.bits(seq, x))
        assert got == want

    @pytest.mark.parametrize("gamma", [200.0, 250.0])
    def test_long_sum_meets_eps(self, gamma):
        # half an ulp of e**gamma is 0.76 (200) and 0.70 (250) of eps, so
        # the tail is re-planned within eps less half an ulp, and the run
        # extended to it
        eps = 1e-16 * math.exp(gamma)
        T = TaylorMeasure(constant_sequence(1.0), gamma)
        got = evaluate(T, NatSet.all(), eps)
        assert got.abs_error <= eps
        with mp.workdps(60):
            assert abs(mp.mpf(got.value) - mp.exp(mp.mpf(gamma))) <= got.abs_error
        first = plan_truncation(T.coefficients.certificate, gamma, eps)
        x = ref.part_sum([ref.term(T.coefficients, gamma, n)
                          for n in range(first.last_index + 1)], "signed")
        assert ref.half_ulp(x) + first.tail_bound > eps  # the first plan falls short


    def test_overflowing_float_pass_is_summed_exactly(self):
        # terms near n = 906 overflow in floats, so the float pass reads nan;
        # the run is summed exactly instead of being refused as not finite
        g = 30.1
        got = [evaluate(TaylorMeasure(constant_sequence(1.0), -g * g), NatSet.all()),
               inner_product(TaylorMeasure(constant_sequence(1.0), g),
                             TaylorMeasure(constant_sequence(1.0), -g), NatSet.all())]
        with mp.workdps(50):
            for mv, exact in zip(got, (mp.exp(mp.mpf(-g * g)), mp.exp(-mp.mpf(g) ** 2))):
                assert mv.abs_error <= 1e-12
                assert abs(mp.mpf(mv.value) - exact) <= mv.abs_error


class TestPrecisionUnattainable:
    def test_half_an_ulp_above_eps_raises(self):
        T = TaylorMeasure(constant_sequence(1.0), 200.0)
        half = math.ulp(math.exp(200.0)) / 2
        with pytest.raises(PrecisionUnattainable, match="half an ulp"):
            evaluate(T, NatSet.all(), 0.9 * half)
        assert evaluate(T, NatSet.all(), 1.5 * half).abs_error <= 1.5 * half

    def test_short_runs_re_summed_exactly_refuse_too(self):
        # e**10 = 22026.47 carries half an ulp of 1.8e-12
        with pytest.raises(PrecisionUnattainable):
            eval_rep(exp_rep(), 10.0, 1e-12)
        with pytest.raises(PrecisionUnattainable):
            normalizer(10.0, constant_sequence(1.0), 1e-12)
        T1 = TaylorMeasure(constant_sequence(1.0), 1.0)
        with pytest.raises(PrecisionUnattainable):
            inner_product(T1, TaylorMeasure(constant_sequence(1.0), 30.0), NatSet.all(), 1e-12)

    def test_cli_exits_3(self, capsys):
        doc = json.dumps({"gamma": 10.0, "coefficients": {"prefix": [], "tail": {
            "kind": "constant", "M": 1.0}}, "certificate": {"kind": "bounded", "M": 1.0}})
        assert cli.main(["eval", doc, "--eps", "1e-12"]) == 3
        assert "PrecisionUnattainable" in capsys.readouterr().err

    def test_value_only_commands_keep_their_values(self, capsys):
        # their sums read eps as a truncation target: e**10 is returned,
        # though half an ulp of it (1.8e-12) is above eps
        exp = '{"kind": "builtin", "name": "exp"}'
        spec = '{"kind": "gaussian_iid", "mu": 1.0, "sigma": 1.0, "gamma": 10.0}'
        for argv in (["stm-moments", spec], ["fn-supdist", exp, "--oracle", "exp", "--K", "0", "10"],
                     ["fn-lpnorm", exp, "--p", "1", "--K", "0", "10"]):
            assert cli.main(argv) == 0, argv
        capsys.readouterr()

    def test_contract_callers_raise_on_constant_one_at_12(self):
        # the counterpart of TestTruncationTargetCallers: at eps 1e-12 these
        # hold the contract, which half an ulp of each result breaks
        T = TaylorMeasure(constant_sequence(1.0), 12.0)
        with pytest.raises(PrecisionUnattainable):
            inner_product(T, T, NatSet.all())
        with pytest.raises(PrecisionUnattainable):
            jordan_decompose(T).positive(NatSet.all())
        with pytest.raises(PrecisionUnattainable):
            jordan_decompose(TaylorMeasure(constant_sequence(1.0), -12.0)).positive(NatSet.all())

    def test_a_pmf_uses_eps_as_a_truncation_target(self):
        # its normalizer is summed once, exactly, and not re-planned
        from taylormeasure import PowerSeriesPmf

        pmf = PowerSeriesPmf(200.0, constant_sequence(1.0), 1e-12)
        assert pmf.normalizer.abs_error > 1e-12


def _hex(mv):
    return mv.value.hex(), mv.abs_error.hex()


class TestTruncationTargetCallers:
    """norm, distance, the axiom report and probability_pair read eps 1e-12
    as a truncation target: they return values, bit for bit, where the
    contract of inner_product and the Jordan parts raises."""

    T = TaylorMeasure(constant_sequence(1.0), 12.0)

    def test_norm(self):
        # sqrt(e**144) = 1.8586717452841279e+31, 9.3e14 from the value: the
        # bound counts the rounding of the square root, half an ulp of 2.25e15
        assert _hex(norm(self.T, NatSet.all())) == ("0x1.d531d8a7ee79cp+103",
                                                    "0x1.8bad7867b0767p+50")

    def test_distance(self):
        d = distance(self.T, TaylorMeasure(constant_sequence(1.0), 11.0), NatSet.all())
        assert _hex(d) == ("0x1.d5311bba4ae7fp+103", "0x1.44417213961ecp+57")

    def test_probability_pair(self):
        # cosh(12) = 81377.39571257407 and sinh(12)
        pair = probability_pair(TaylorMeasure(constant_sequence(1.0), -12.0))
        assert (pair.mass_pos.hex(), pair.mass_neg.hex()) == ("0x1.3de1654d6b544p+16",
                                                              "0x1.3de1654d043f0p+16")
        assert _hex(pair.q_pos.normalizer) == ("0x1.3de1654d6b544p+16", "0x1.e0fa5bfbc6dc0p-35")
        assert _hex(pair.q_neg.normalizer) == ("0x1.3de1654d043f0p+16", "0x1.e0fb1bfb2c3c0p-35")

    def test_axiom_report(self):
        samples = [self.T, TaylorMeasure(constant_sequence(1.0), 11.0),
                   TaylorMeasure(geometric_sequence(1.0, 0.5), 12.0)]
        r = hilbert_axiom_report(samples, NatSet.all(), 1e-12, 1)
        assert r.pairs_checked == 3
        assert [x.hex() for x in (r.symmetry_max, r.bilinearity_max, r.cauchy_schwarz_min_slack,
                                  r.parallelogram_rho_max, r.parallelogram_tv_max)] == [
            "0x0.0p+0", "0x1.78b6ad80a0df3p-53", "0x1.43a54e4e98864p-1",
            "0x1.7d0d2f7ec7febp-51", "0x1.0000000000000p-17"]


_SHORT_SUMS = """
import json, math, sys
import taylormeasure as tm
T = tm.TaylorMeasure(tm.constant_sequence(1.0), 1.5)
ALL = tm.NatSet.all()
for B in (ALL, tm.NatSet.cofinite([1, 4]), tm.NatSet.finite([0, 2, 5, 9])):
    tm.evaluate(T, B)
tm.eval_rep(tm.exp_rep(), 0.7)
tm.eval_rep(tm.sin_rep(), 0.7)
tm.inner_product(T, T, ALL)
tm.norm(T, ALL)
tm.normalizer(1.5, tm.constant_sequence(1.0))
tm.PowerSeriesPmf(1.5, tm.constant_sequence(1.0))
tm.sup_distance_on_grid(tm.exp_rep(), math.exp, (-1.0, 1.0), 41)
short = "taylormeasure.exact" in sys.modules
tm.evaluate(tm.TaylorMeasure(tm.constant_sequence(1.0), 200.0), ALL, 1e-10 * math.exp(200.0))
print(json.dumps([short, "taylormeasure.exact" in sys.modules]))
"""


def test_short_sums_never_load_the_exact_module():
    # a summand forms its exact terms only when a run may be summed exactly
    src = os.path.dirname(os.path.dirname(exact.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", _SHORT_SUMS], capture_output=True, text=True,
                       env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [False, True]


# value and abs_error as the float path gave them before exact runs: rule
# tails, log-only coefficients and term-backed sequences keep their bits
_RULE = rule_sequence(lambda n: 1.0 if n % 2 else 0.5, Bounded(1.0))
_KEPT = {
    "rule": (lambda: evaluate(TaylorMeasure(_RULE, 200.0), NatSet.all(), 1e-10 * math.exp(200.0)),
             ("0x1.16f88afd4168cp+288", "0x1.2c9b17013a8a6p+255")),
    "rule_cofinite_variation": (
        lambda: total_variation(TaylorMeasure(_RULE, -180.0), NatSet.cofinite([3, 7]),
                                1e-10 * math.exp(180.0)),
        ("0x1.34b3a604fe684p+259", "0x1.fbfc638f5c1f2p+225")),
    "log_rule_positive": (
        lambda: jordan_decompose(TaylorMeasure(rule_sequence(
            lambda n: 2.0, Bounded(2.0), log_rule=lambda n: (1, math.log(2.0))), -200.0)).positive(
                NatSet.all(), 1e-10 * math.exp(200.0)),
        ("0x1.73f60ea76b02ep+288", "0x1.0afce0e19ddd0p+255")),
    "term_backed": (
        lambda: evaluate(TaylorMeasure(TermBackedSequence(
            lambda n: math.exp(n * math.log(240.0) - math.lgamma(n + 1)), 1.0,
            GeometricEnvelope(1.0, 240.0)), 1.0), NatSet.all(), 1e-10 * math.exp(240.0)),
        ("0x1.2fc3bb0f62d68p+346", "0x1.a85f4cc7be0aep+312")),
    "linear_combination": (
        lambda: evaluate(linear_combination(
            1.5, TaylorMeasure(constant_sequence(1.0), 190.0),
            -0.75, TaylorMeasure(geometric_sequence(1.0, 0.5), 190.0)),
            NatSet.all(), 1e-10 * math.exp(190.0)),
        ("0x1.9f03e25399e8fp+274", "0x1.816afec07baddp+240")),
    "sin": (lambda: eval_rep(sin_rep(0.0), 45.0, 1e-3),
            ("0x0.0p+0", "0x1.6b9b99c78e31ep+13")),
}


@pytest.mark.parametrize("name", sorted(_KEPT))
def test_float_path_keeps_its_bits(name):
    call, bits = _KEPT[name]
    out = call()
    assert (out.value.hex(), out.abs_error.hex()) == bits
