import functools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taylormeasure import (
    Bounded,
    CenterMismatch,
    DivergenceUnknown,
    FiniteSupport,
    NatSet,
    NonFiniteResult,
    OutOfDomain,
    PrecisionUnattainable,
    QuadratureStall,
    TaylorMeasure,
    TermBackedSequence,
    Unverified,
    builtin,
    cos_rep,
    eval_rep,
    evaluate,
    exp_rep,
    geometric_rep,
    linear_combine,
    lp_norm_on_interval,
    multiply,
    polynomial_rep,
    power,
    recenter,
    rule_sequence,
    sin_rep,
    sup_distance_on_grid,
    truncate_rep,
)
from taylormeasure import analytic, kernel
from taylormeasure.analytic import AnalyticRep, _horner_grid


class TestBuiltins:
    def test_exp_coefficients(self):
        rep = exp_rep()
        assert [rep.coefficients.a(n) for n in range(5)] == [1.0] * 5
        rep1 = exp_rep(1.0)
        assert rep1.coefficients.a(3) == pytest.approx(math.e, rel=1e-15)

    def test_sin_coefficients(self):
        rep = sin_rep()
        assert [rep.coefficients.a(n) for n in range(6)] == [0.0, 1.0, 0.0, -1.0, 0.0, 1.0]

    def test_polynomial_shift(self):
        rep = polynomial_rep([1.0, 0.0, 3.0], center=1.0)
        assert [rep.coefficients.a(k) for k in range(4)] == [4.0, 6.0, 6.0, 0.0]
        assert rep.coefficients.certificate == FiniteSupport(2)

    def test_polynomial_past_the_last_float_factorial(self):
        # degree 180 has no float factorial, so the rep stores its terms at
        # gamma = 1; pinned bit for bit
        rep = polynomial_rep([0.0] * 180 + [1.0])
        assert rep.coefficients.certificate == FiniteSupport(180)
        v = eval_rep(rep, 0.5)
        assert (v.value.hex(), v.abs_error.hex()) == (
            "0x1.0000000000019p-180", "0x1.8b184946a90e5p-221")

    def test_geometric_coefficients(self):
        rep = geometric_rep(0.5)
        # a_n = n! * 2^(n+1)
        assert rep.coefficients.a(0) == 2.0
        assert rep.coefficients.a(2) == 16.0
        assert rep.radius_hint == 0.5

    def test_geometric_domain(self):
        with pytest.raises(OutOfDomain):
            geometric_rep(1.0)
        with pytest.raises(OutOfDomain):
            geometric_rep(-1.2)

    def test_builtin_dispatch(self):
        assert builtin("exp").coefficients.a(0) == 1.0
        assert builtin("polynomial", coeffs=[1.0, 2.0]).coefficients.a(1) == 2.0
        with pytest.raises(ValueError):
            builtin("polynomial")
        with pytest.raises(ValueError):
            builtin("tangent")

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            AnalyticRep(0.0, exp_rep().coefficients, 0.0)


class TestEval:
    def test_exp_at_one(self):
        got = eval_rep(exp_rep(), 1.0, 1e-12)
        assert abs(got.value - math.e) <= 1e-12
        assert got.abs_error <= 1e-12

    def test_sin_at_half_pi(self):
        got = eval_rep(sin_rep(), math.pi / 2, 1e-12)
        assert got.value == pytest.approx(1.0, abs=1e-13)

    def test_center_is_exact(self):
        rep = polynomial_rep([7.0, 1.0], center=2.0)
        got = eval_rep(rep, 2.0)
        assert got.value == 9.0 and got.abs_error == 0.0
        assert eval_rep(geometric_rep(0.5), 0.5).value == 2.0

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            eval_rep(geometric_rep(0.0), 1.0)
        with pytest.raises(OutOfDomain):
            eval_rep(geometric_rep(0.5), -0.1)

    def test_unverified_diverges(self):
        rep = AnalyticRep(0.0, rule_sequence(lambda n: 1.0, Unverified()), math.inf)
        with pytest.raises(DivergenceUnknown):
            eval_rep(rep, 0.5)

    def test_fidelity_random_points(self):
        rnd = random.Random(20260814)
        cases = [
            (exp_rep(), math.exp, 3.0),
            (sin_rep(), math.sin, 3.0),
            (cos_rep(), math.cos, 3.0),
            (geometric_rep(0.0), lambda x: 1.0 / (1.0 - x), 0.8),
            (polynomial_rep([1.0, -2.0, 0.5]), lambda x: 1.0 - 2.0 * x + 0.5 * x * x, 3.0),
        ]
        for rep, ref, span in cases:
            for _ in range(100):
                x = rep.center + rnd.uniform(-span, span)
                got = eval_rep(rep, x, 1e-12).value
                want = ref(x)
                assert abs(got - want) <= 1e-12 + abs(want) * 1e-13


class TestMultiply:
    def test_exp_squared_coefficients(self):
        sq = multiply(exp_rep(), exp_rep())
        for l in range(12):
            assert sq.coefficients.a(l) == pytest.approx(2.0 ** l, rel=1e-13)

    def test_value_homomorphism(self):
        rnd = random.Random(7)
        reps = [exp_rep(), sin_rep(), cos_rep(), polynomial_rep([0.5, 2.0])]
        refs = [math.exp, math.sin, math.cos, lambda x: 0.5 + 2.0 * x]
        for _ in range(30):
            i, j = rnd.randrange(4), rnd.randrange(4)
            x = rnd.uniform(-2.0, 2.0)
            prod = multiply(reps[i], reps[j])
            want = refs[i](x) * refs[j](x)
            assert eval_rep(prod, x, 1e-12).value == pytest.approx(want, abs=3e-11)

    def test_finite_times_finite_is_exact(self):
        prod = multiply(polynomial_rep([1.0, 1.0]), polynomial_rep([1.0, -1.0]))
        assert [prod.coefficients.a(k) for k in range(4)] == [1.0, 0.0, -2.0, 0.0]
        assert prod.coefficients.certificate == FiniteSupport(2)

    def test_finite_coefficients_are_correctly_rounded(self):
        # each d_l is the float products d1_n * d2_(l-n), summed exactly and
        # rounded once
        rnd = random.Random(3)
        for _ in range(20):
            f = polynomial_rep([rnd.uniform(-9, 9) * 10.0 ** rnd.randint(-8, 8)
                                for _ in range(rnd.randint(1, 9))])
            g = polynomial_rep([rnd.uniform(-9, 9) * 10.0 ** rnd.randint(-8, 8)
                                for _ in range(rnd.randint(1, 9))])
            d1 = [kernel.term_value(f.coefficients, 1.0, n) for n in range(9)]
            d2 = [kernel.term_value(g.coefficients, 1.0, n) for n in range(9)]
            prod = multiply(f, g).coefficients
            last = f.coefficients.certificate.last + g.coefficients.certificate.last
            assert prod.certificate == FiniteSupport(last)
            for l in range(last + 3):
                exact = sum(Fraction(d1[n] * d2[l - n]) for n in range(max(0, l - 8), min(l, 8) + 1))
                assert prod.term_rule(l) == float(exact), l

    def test_constant_factor_scales_each_term(self):
        for f in (exp_rep(0.5), sin_rep(0.3), geometric_rep(0.2), polynomial_rep([0.1, 1.3, -0.7])):
            prod = multiply(polynomial_rep([2.0], f.center), f)
            for l in range(40):
                assert prod.coefficients.term_rule(l) == 2.0 * kernel.term_value(f.coefficients, 1.0, l)

    def test_finite_product_reads_only_its_support(self):
        asked = []
        table = {0: 0.5, 1: -1.5, 2: 0.25, 3: 2.0}

        def rule(n):
            asked.append(n)
            return table.get(n, 0.0)

        f = AnalyticRep(0.0, TermBackedSequence(rule, 1.0, FiniteSupport(3), lambda n: 1e-17),
                        math.inf)
        prod = multiply(f, f)
        # term errors keep the whole set summed: no underflow horizon cuts it
        out = evaluate(TaylorMeasure(prod.coefficients, 0.5), NatSet.finite([5, 10 ** 5]))
        assert max(asked) == 3
        want = math.fsum(table[n] * table[5 - n] for n in range(2, 4)) * 0.5 ** 5
        assert abs(out.value - want) <= out.abs_error

    def test_multiplicative_identity(self):
        one = polynomial_rep([1.0])
        rep = multiply(sin_rep(), one)
        for n in range(8):
            assert rep.coefficients.a(n) == sin_rep().coefficients.a(n)

    def test_center_mismatch(self):
        with pytest.raises(CenterMismatch):
            multiply(exp_rep(0.0), exp_rep(1.0))

    def test_geometric_square(self):
        g2 = multiply(geometric_rep(0.0), geometric_rep(0.0))
        # 1/(1-x)^2 has a_n = (n+1)!
        assert g2.coefficients.a(3) == 24.0
        assert eval_rep(g2, 0.5, 1e-12).value == pytest.approx(4.0, abs=1e-11)


class TestPower:
    def test_square_of_exp(self):
        sq = power(exp_rep(), 2)
        assert eval_rep(sq, 1.0, 1e-12).value == pytest.approx(math.e ** 2, abs=1e-10)

    def test_zeroth_power(self):
        rep = power(geometric_rep(0.0), 0)
        assert eval_rep(rep, 0.9).value == 1.0
        assert rep.coefficients.certificate == FiniteSupport(0)

    def test_monomial_cube(self):
        cube = power(polynomial_rep([0.0, 1.0]), 3)
        assert [cube.coefficients.a(k) for k in range(5)] == [0.0, 0.0, 0.0, 6.0, 0.0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            power(exp_rep(), -1)

    def test_fifth_power_value(self):
        p5 = power(cos_rep(), 5)
        x = 0.4
        assert eval_rep(p5, x, 1e-12).value == pytest.approx(math.cos(x) ** 5, abs=1e-10)


def _generator_multiply(r1, r2):
    """multiply with each d_l and term error summed by math.fsum over a
    generator of products of two memoised per-index callables."""
    e1, e2 = analytic._d_envelope(r1), analytic._d_envelope(r2)
    last1, last2 = (math.inf if e.last is None else e.last for e in (e1, e2))

    def reach(l):
        return range(max(0, l - last2), min(l, last1) + 1)

    da, db = (functools.cache(functools.partial(kernel.term_value, r.coefficients, 1.0))
              for r in (r1, r2))
    d_rule = functools.cache(lambda l: math.fsum(da(n) * db(l - n) for n in reach(l)))
    ea, eb = (kernel._term_errors(r.coefficients, 1.0) for r in (r1, r2))
    term_error = None
    if ea is not None or eb is not None:
        ea, eb = ea or analytic._no_error, eb or analytic._no_error
        term_error = functools.cache(lambda l: math.fsum(
            abs(da(n)) * eb(l - n) + ea(n) * (abs(db(l - n)) + eb(l - n)) for n in reach(l)))
    cert = e1.cauchy(e2).to_certificate(1.0)
    return AnalyticRep(r1.center, TermBackedSequence(d_rule, 1.0, cert, term_error),
                       min(r1.radius_hint, r2.radius_hint))


def _generator_power(rep, k):
    result, base = analytic._constant_rep(1.0, rep.center), rep
    while k:
        if k & 1:
            result = _generator_multiply(result, base)
        if k > 1:
            base = _generator_multiply(base, base)
        k >>= 1
    return result


@st.composite
def _factors(draw):
    """Representations at center 0 with finite and infinite supports, with
    and without term errors (a recentred or truncated recentred function)."""
    kind = draw(st.sampled_from(["builtin", "polynomial", "recentred", "truncated", "product"]))
    name = draw(st.sampled_from(_BUILTIN_NAMES))
    if kind == "builtin":
        return builtin(name, 0.0)
    if kind == "polynomial":
        return polynomial_rep(draw(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=8)))
    start = draw(st.sampled_from([-0.25, 0.125]))
    rep = recenter(builtin(name, start), 0.0)
    if kind == "truncated":
        return truncate_rep(rep, draw(st.integers(0, 12)))
    if kind == "product":
        return multiply(rep, polynomial_rep([0.5, -1.5, 0.25]))
    return rep


def _terms_and_errors(seq, ls):
    errors = kernel._term_errors(seq, 1.0) or analytic._no_error
    return [(kernel.term_value(seq, 1.0, l).hex(), errors(l).hex()) for l in ls]


class TestConvolution:
    """multiply and power read their operands as growing lists and convolve
    them with one map per d_l: the d_l and term errors are those of an fsum
    over a generator of per-index products, bit for bit, in any order of
    indices."""

    @given(_factors(), _factors(), st.lists(st.integers(0, 40), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_multiply(self, f, g, ls):
        got, want = multiply(f, g).coefficients, _generator_multiply(f, g).coefficients
        assert (got.term_error is None) == (want.term_error is None)
        assert got.certificate == want.certificate
        assert _terms_and_errors(got, ls) == _terms_and_errors(want, ls)
        run = range(max(ls) + 1)  # on a fresh product, whose term memo is empty
        fresh = multiply(f, g).coefficients
        assert [v.hex() for v in fresh.term_rule.run(run)] == [v for v, _ in _terms_and_errors(want, run)]

    @given(_factors(), st.integers(0, 6), st.lists(st.integers(0, 30), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_power(self, f, k, ls):
        got, want = power(f, k).coefficients, _generator_power(f, k).coefficients
        assert _terms_and_errors(got, ls) == _terms_and_errors(want, ls)


class TestLinearCombine:
    def test_vector_space_law(self):
        rnd = random.Random(11)
        for _ in range(20):
            a, b = rnd.uniform(-3, 3), rnd.uniform(-3, 3)
            x = rnd.uniform(-2, 2)
            rep = linear_combine(a, sin_rep(), b, exp_rep())
            want = a * math.sin(x) + b * math.exp(x)
            assert eval_rep(rep, x, 1e-12).value == pytest.approx(want, abs=1e-10)

    def test_finite_path_exact(self):
        rep = linear_combine(2.0, polynomial_rep([1.0, 1.0]), -1.0, polynomial_rep([0.0, 2.0]))
        assert [rep.coefficients.a(k) for k in range(3)] == [2.0, 0.0, 0.0]

    def test_separates_points(self):
        ident = polynomial_rep([0.0, 1.0])
        x, y = 0.3, 0.30000001
        assert eval_rep(ident, x).value == x
        assert eval_rep(ident, x).value != eval_rep(ident, y).value

    def test_center_mismatch(self):
        with pytest.raises(CenterMismatch):
            linear_combine(1.0, exp_rep(0.0), 1.0, exp_rep(1.0))


class TestRecenter:
    def test_exp_shift_coefficients(self):
        rep = recenter(exp_rep(0.0), 1.0, 1e-13)
        for k in range(21):
            assert abs(rep.coefficients.a(k) - math.e) <= 1e-12

    def test_polynomial_shift_exact(self):
        rep = recenter(polynomial_rep([1.0, 0.0, 3.0]), 1.0)
        assert [rep.coefficients.a(k) for k in range(3)] == [4.0, 6.0, 6.0]
        assert rep.coefficients.certificate == FiniteSupport(2)

    def test_eval_agreement(self):
        rep = recenter(exp_rep(0.0), 1.0, 1e-12)
        assert abs(eval_rep(rep, 1.5, 1e-12).value - eval_rep(exp_rep(), 1.5, 1e-12).value) <= 1e-10

    def test_round_trip(self):
        for base in (exp_rep(), sin_rep()):
            there = recenter(base, 0.7, 1e-13)
            back = recenter(there, 0.0, 1e-13)
            for k in range(16):
                assert abs(back.coefficients.a(k) - base.coefficients.a(k)) <= 1e-10

    def test_geometric_recenter(self):
        rep = recenter(geometric_rep(0.0), 0.5, 1e-12)
        # derivatives of 1/(1-x) at 0.5: n! 2^(n+1)
        assert rep.coefficients.a(1) == pytest.approx(4.0, rel=1e-11)
        assert eval_rep(rep, 0.6, 1e-12).value == pytest.approx(2.5, abs=1e-9)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            recenter(geometric_rep(0.0), 1.0)

    def test_noop_shift(self):
        rep = exp_rep(0.0)
        assert recenter(rep, 0.0) is rep

    @pytest.mark.parametrize("base, new", [(exp_rep, 64.5), (exp_rep, 100.0), (exp_rep, 800.0),
                                           (exp_rep, -800.0), (sin_rep, 709.0)],
                             ids=["exp@64.5", "exp@100", "exp@800", "exp@-800", "sin@709"])
    def test_leaving_the_float_range_raises_non_finite_result(self, base, new):
        # delta**m overflows in the shift series while d_m underflows (from
        # 64.5 for exp), or e**(ratio * dist) in the growth bound (past 709)
        with pytest.raises(NonFiniteResult):
            recenter(base(), new).coefficients.a(0)

    def test_last_center_in_the_float_range(self):
        rep = recenter(exp_rep(), 64.4)
        assert rep.coefficients.a(0) == pytest.approx(math.exp(64.4), rel=1e-12)

    @pytest.mark.parametrize("base, new", [(exp_rep, 0.25), (sin_rep, 0.5), (geometric_rep, 0.25)],
                             ids=["exp", "sin", "geometric"])
    def test_eval_rep_is_evaluate_bit_for_bit(self, base, new):
        # the recentred coefficients carry term errors; eval_rep adds them
        # to abs_error as evaluate does, to the last bit
        rep = recenter(base(), new)
        for i in range(-20, 21):
            x = new + i / 40
            if x == new:
                continue
            got = eval_rep(rep, x)
            want = evaluate(TaylorMeasure(rep.coefficients, x - new), NatSet.all(), 1e-12)
            assert (got.value.hex(), got.abs_error.hex()) == \
                (want.value.hex(), want.abs_error.hex()), x


class TestSupDistance:
    def test_degree20_truncation(self):
        d = sup_distance_on_grid(truncate_rep(exp_rep(), 20), math.exp, (0.0, 1.0), 1001)
        assert d <= 1e-10

    def test_degree2_remainder(self):
        d = sup_distance_on_grid(truncate_rep(exp_rep(), 2), math.exp, (0.0, 1.0), 1001)
        assert d == pytest.approx(math.e - 2.5, rel=1e-12)

    def test_self_distance_is_noise(self):
        # the grid's Horner values and eval_rep's sums differ by no more than
        # their two certified bounds (the difference rounds once)
        rep = exp_rep()
        at = _horner_grid(rep, 0.0, 1.0, 1e-12)
        xs = [i / 100 for i in range(101)]
        noise = max(at(x)[1] + eval_rep(rep, x, 1e-12).abs_error for x in xs)
        d = sup_distance_on_grid(rep, lambda x: eval_rep(rep, x, 1e-12).value, (0.0, 1.0), 101)
        assert d <= noise * (1.0 + 2.0 ** -52)
        assert noise < 1e-11

    def test_density_proxy_monotone(self):
        dists = [
            sup_distance_on_grid(truncate_rep(exp_rep(), N), math.exp, (0.0, 1.0), 101)
            for N in (5, 10, 15, 20, 25)
        ]
        assert all(b <= a for a, b in zip(dists, dists[1:]))
        assert dists[-1] <= 1e-12

    def test_values_past_half_an_ulp_of_eps(self):
        # e**10 carries half an ulp of 1.8e-12, above the default eps 1e-12:
        # the grid keeps its values, as eval_rep's contract would refuse them
        d = sup_distance_on_grid(exp_rep(), math.exp, (0.0, 10.0))
        assert d <= 4.0 * math.ulp(math.exp(10.0))

    def test_domain_and_grid_validation(self):
        with pytest.raises(OutOfDomain):
            sup_distance_on_grid(geometric_rep(0.0), lambda x: 0.0, (0.0, 2.0), 11)
        with pytest.raises(ValueError):
            sup_distance_on_grid(exp_rep(), math.exp, (0.0, 1.0), 1)


class TestLpNorm:
    def test_constant(self):
        assert lp_norm_on_interval(polynomial_rep([1.0]), 2.0, (0.0, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_exp_l1(self):
        got = lp_norm_on_interval(exp_rep(), 1.0, (0.0, 1.0), 1e-9)
        assert got == pytest.approx(math.e - 1.0, abs=1e-9)

    def test_identity_l2(self):
        got = lp_norm_on_interval(polynomial_rep([0.0, 1.0]), 2.0, (0.0, 1.0), 1e-9)
        assert got == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)

    def test_exp_l1_past_half_an_ulp_of_eps(self):
        # the points near 10 carry half an ulp above eval_eps = 1e-12
        got = lp_norm_on_interval(exp_rep(), 1.0, (0.0, 10.0))
        assert got == pytest.approx(math.exp(10.0) - 1.0, rel=1e-12)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            lp_norm_on_interval(exp_rep(), 0.5, (0.0, 1.0))

    def test_stall(self):
        with pytest.raises(QuadratureStall):
            lp_norm_on_interval(geometric_rep(0.0), 1.0, (0.0, 0.8), 1e-18, depth_cap=4)

    def test_depth_cap_validation(self):
        with pytest.raises(ValueError):
            lp_norm_on_interval(exp_rep(), 1.0, (0.0, 1.0), depth_cap=0)


class TestTruncate:
    def test_prefix_matches(self):
        t = truncate_rep(sin_rep(), 5)
        for n in range(6):
            assert t.coefficients.a(n) == sin_rep().coefficients.a(n)
        assert t.coefficients.a(7) == 0.0

    def test_entire_after_truncation(self):
        t = truncate_rep(geometric_rep(0.0), 3)
        # polynomial now, evaluable beyond the old radius
        got = eval_rep(t, 2.0).value
        assert got == pytest.approx(1.0 + 2.0 + 4.0 + 8.0, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            truncate_rep(exp_rep(), -1)


class TestGridBatch:
    """Grid diagnostics plan once, at the largest |x - center| of their
    points, fetch each term once and sum every point by Horner's rule with a
    certified bound (analytic._horner_grid). eval_rep stays the whole-N
    evaluate of one point, bit for bit, and each grid value lies within its
    bound plus eval_rep's abs_error of it."""

    REPS = {
        "multiply": lambda: multiply(exp_rep(), sin_rep()),
        "recenter": lambda: recenter(exp_rep(), 0.25),
        "linear_combine": lambda: linear_combine(2.0, cos_rep(), -0.5, exp_rep()),
        "linear_combine_finite": lambda: linear_combine(
            1.5, polynomial_rep([1.0, -2.0]), 0.25, polynomial_rep([0.0, 0.5, 3.0])),
        "polynomial": lambda: polynomial_rep([1.0, -2.0, 0.5, 3.0]),
        "power": lambda: power(exp_rep(), 3),
    }

    @staticmethod
    def one_point(rep, x, eps):
        gamma = x - rep.center
        if gamma == 0.0:
            return eval_rep(rep, x, eps)
        return evaluate(TaylorMeasure(rep.coefficients, gamma), NatSet.all(), eps)

    @staticmethod
    def bits(mv):
        return mv.value.hex(), mv.abs_error.hex()

    def grid(self, rep, m=31):
        # hi - center == 1.0 exactly: the presentation gamma of term-backed reps
        lo, hi = rep.center - 0.5, rep.center + 1.0
        xs = [lo + (hi - lo) * i / (m - 1) for i in range(m)]
        assert xs[-1] - rep.center == 1.0 and rep.center in xs
        return lo, hi, xs

    def assert_within(self, rep, at, x, eps):
        one = eval_rep(rep, x, eps)
        assert self.bits(one) == self.bits(self.one_point(rep, x, eps))
        v, bound = at(x)
        assert abs(v - one.value) <= (bound + one.abs_error) * (1.0 + 2.0 ** -52), (x, v, bound, one)
        return v, bound, one

    @pytest.mark.parametrize("name", sorted(REPS))
    def test_points_equal_one_point_evaluation(self, name):
        rep = self.REPS[name]()
        lo, hi, xs = self.grid(rep)
        at = _horner_grid(rep, lo, hi, 1e-12)
        for x in xs:
            self.assert_within(rep, at, x, 1e-12)

    @pytest.mark.parametrize("name", sorted(REPS))
    def test_sup_distance_against_one_point_values_is_zero(self, name):
        # zero against the grid's own point values; within the certified
        # bounds against eval_rep's
        rep = self.REPS[name]()
        lo, hi, xs = self.grid(rep)
        at = _horner_grid(rep, lo, hi, 1e-12)
        own = lambda x: at(x)[0]
        assert sup_distance_on_grid(rep, own, (lo, hi), len(xs), 1e-12) == 0.0
        slack = 0.0
        for x in xs:
            _, bound, one = self.assert_within(rep, at, x, 1e-12)
            slack = max(slack, bound + one.abs_error)
        oracle = lambda x: self.one_point(rep, x, 1e-12).value
        d = sup_distance_on_grid(rep, oracle, (lo, hi), len(xs), 1e-12)
        assert d <= slack * (1.0 + 2.0 ** -52)

    @pytest.mark.parametrize("name", ["multiply", "recenter", "polynomial"])
    def test_lp_norm_equals_point_by_point_simpson(self, name):
        rep = self.REPS[name]()
        lo, hi, p, eps = rep.center - 0.5, rep.center + 1.0, 2.0, 1e-7
        eval_eps = min(eps / (100.0 * (hi - lo)), 1e-12)
        at = _horner_grid(rep, lo, hi, eval_eps)
        cache = {}

        def g(x):
            if x not in cache:
                cache[x] = abs(at(x)[0]) ** p
            return cache[x]

        def simpson(panels):
            h = (hi - lo) / panels
            acc = g(lo) + g(hi)
            for i in range(1, panels):
                acc += (4.0 if i % 2 else 2.0) * g(lo + i * h)
            return acc * h / 3.0

        panels, prev = 8, simpson(8)
        while True:
            panels *= 2
            cur = simpson(panels)
            if abs(cur - prev) <= eps:
                break
            prev = cur
        expected = max(cur + (cur - prev) / 15.0, 0.0) ** (1.0 / p)
        assert lp_norm_on_interval(rep, p, (lo, hi), eps) == expected

    @pytest.mark.parametrize("rep", [exp_rep(0.25), recenter(exp_rep(), 0.25)],
                             ids=["exp", "recenter"])
    def test_one_plan_and_one_fetch_per_grid_call(self, rep, monkeypatch):
        # symmetric about the center: one plan at the reach, one block fetch
        # of the terms 0..N at it, however many points and Simpson levels
        seq = rep.coefficients
        plans, fetched = [], []
        plan, block = analytic.plan_truncation, analytic._term_block
        monkeypatch.setattr(analytic, "plan_truncation",
                            lambda *a: plans.append(a) or plan(*a))
        monkeypatch.setattr(analytic, "_term_block",
                            lambda s, g, ns, errors=True: (fetched.append((g, list(ns)))
                                                           if s is seq else None)
                            or block(s, g, ns, errors))
        sup_distance_on_grid(rep, math.exp, (-0.75, 1.25), 17)
        assert [(abs(a[1]), a[2]) for a in plans] == [(1.0, 1e-12)]
        last = plan(seq.certificate, 1.0, 1e-12).last_index
        assert fetched == [(1.0, list(range(last + 1)))]
        plans.clear()
        fetched.clear()
        lp_norm_on_interval(rep, 2.0, (-0.75, 1.25), 1e-9)
        assert [abs(a[1]) for a in plans] == [1.0]
        last = plan(*plans[0]).last_index
        assert fetched == [(1.0, list(range(last + 1)))]

    def test_geometric_grid_inside_radius(self):
        rep = geometric_rep()
        at = _horner_grid(rep, -0.5, 0.5, 1e-12)
        for x in [-0.5 + i / 20 for i in range(21)]:
            self.assert_within(rep, at, x, 1e-12)


class TestGridDegreeAndRefusal:
    """Each grid point sums to its own degree, and a point whose certified
    bound exceeds both eps and 1e-6 of its value is summed again as
    eval_rep sums it, or refused."""

    def test_points_sum_to_their_own_degree(self, monkeypatch):
        # near its radius the geometric series plans tens of thousands of
        # terms at the reach; a point near the center sums a few of them
        steps = []

        class Counted(float):
            def __radd__(self, other):
                steps.append(1)
                return other + float(self)

        block = analytic._term_block

        def counted(s, g, ns, errors=True):
            if not errors:
                return block(s, g, ns, errors)
            return [(Counted(v), e) for v, e in block(s, g, ns)]

        monkeypatch.setattr(analytic, "_term_block", counted)
        rep = geometric_rep(0.9)
        lo, hi = 0.8001, 0.9999
        reach = max(abs(lo - 0.9), abs(hi - 0.9))
        N = analytic.plan_truncation(rep.coefficients.certificate, reach, 1e-12).last_index
        assert N > 30000
        at = _horner_grid(rep, lo, hi, 1e-12)
        far = lo if abs(lo - 0.9) == reach else hi
        exact = lambda x: 1.0 / (1.0 - mpmath.mpf(x))
        for x, most in ((far, N), (0.9, 0), (0.91, 40), (0.95, 600)):
            steps.clear()
            v, bound = at(x)
            assert len(steps) <= most and (x != far or len(steps) == N), (x, len(steps))
            with mpmath.workdps(50):
                assert abs(mpmath.mpf(v) - exact(x)) <= bound

    def test_cancelling_grid_is_refused(self):
        # sin at 45 cancels terms near e**45: neither Horner's sum nor
        # eval_rep's carries a digit of it
        with pytest.raises(PrecisionUnattainable, match=r"f\(-45\.0\)"):
            sup_distance_on_grid(sin_rep(), math.sin, (-45.0, 45.0), 11)
        with pytest.raises(PrecisionUnattainable):
            lp_norm_on_interval(sin_rep(), 2.0, (0.0, 45.0))

    def test_ill_conditioned_point_is_summed_as_eval_rep(self):
        # at 20 Horner's bound exceeds 1e-6 of sin(20); eval_rep's sum
        # stays inside it and is taken, with its abs_error as the bound
        at = _horner_grid(sin_rep(), 0.0, 20.0, 1e-12)
        one = eval_rep(sin_rep(), 20.0)
        assert at(20.0) == (one.value, one.abs_error)
        assert abs(one.value - math.sin(20.0)) <= one.abs_error
        assert sup_distance_on_grid(sin_rep(), math.sin, (0.0, 20.0), 11) <= one.abs_error


class TestGridInputs:
    """Grid inputs are checked before any point is evaluated."""

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_lp_norm_refuses_p(self, p):
        with pytest.raises(ValueError, match="p must be finite"):
            lp_norm_on_interval(exp_rep(), p, (0.0, 1.0), depth_cap=2)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_lp_norm_refuses_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be finite"):
            lp_norm_on_interval(exp_rep(), 2.0, (0.0, 1.0), eps, depth_cap=2)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_sup_distance_refuses_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be finite"):
            sup_distance_on_grid(exp_rep(), math.exp, (0.0, 1.0), 11, eps)

    def test_lp_norm_overflow_is_not_finite(self):
        with pytest.raises(NonFiniteResult, match="overflows"):
            lp_norm_on_interval(exp_rep(), 1e308, (0.0, 1.0))

    def test_sup_distance_names_the_first_nan_oracle_value(self):
        with pytest.raises(NonFiniteResult, match=r"x = 0\.0$"):
            sup_distance_on_grid(exp_rep(), lambda x: math.nan, (0.0, 1.0), 11)
        oracle = lambda x: math.exp(x) if x < 0.5 else math.inf
        with pytest.raises(NonFiniteResult, match=r"x = 0\.5$"):
            sup_distance_on_grid(exp_rep(), oracle, (0.0, 1.0), 11)


# ---------------------------------------------------------------------------
# grid bounds against mpmath


def _stored(seq, gamma, last):
    """sum_{n <= last} p_n gamma**n in mpmath, p_n the terms at gamma = 1
    that seq stores: its term function, or a_n / n!."""
    if isinstance(seq, TermBackedSequence):
        assert seq.presentation_gamma == 1.0 and seq.term_error is None
        p = lambda n: mpmath.mpf(seq.term_rule(n))
    else:
        p = lambda n: mpmath.mpf(seq.a(n)) / mpmath.factorial(n)
    return mpmath.fsum(p(n) * gamma ** n for n in range(last + 1))


def _builtin_exact(rep, name):
    """gamma -> the function a builtin rep stands for, at center + gamma.
    exp, sin and cos store their derivatives exactly; the geometric
    coefficients n! base**(n+1) round (a few ulp each, far inside every
    grid bound), and base/(1 - base gamma) is the series they round."""
    a0, a1 = (mpmath.mpf(rep.coefficients.a(n)) for n in (0, 1))
    if name == "exp":
        return lambda g: a0 * mpmath.exp(g)
    if name == "geometric":
        return lambda g: a0 / (1 - a0 * g)
    return lambda g: a0 * mpmath.cos(g) + a1 * mpmath.sin(g)


def _exact(rep):
    """gamma -> the exact value at center + gamma of what the stored terms
    sum to, summed past a tail of 1e-40 when they are infinite."""
    seq = rep.coefficients

    def f(g):
        cert = seq.certificate
        last = cert.last if isinstance(cert, FiniteSupport) else \
            analytic.plan_truncation(cert, float(abs(g)) or 1.0, 1e-40).last_index
        return _stored(seq, g, last)

    return f


_BUILTIN_NAMES = ["exp", "sin", "cos", "geometric"]


@st.composite
def _grid_case(draw):
    """(rep, exact, reach) over the builtins and every composite."""
    kind = draw(st.sampled_from(["builtin", "polynomial", "multiply", "power", "recenter",
                                 "linear_combine", "truncate_rep"]))
    c = draw(st.sampled_from([0.0, 0.25, -0.375, 1.5]))
    name = draw(st.sampled_from(_BUILTIN_NAMES[:3]))
    coeffs = draw(st.lists(st.integers(-32, 32).map(lambda k: k / 16.0), min_size=1, max_size=6))
    if kind == "builtin":
        name = draw(st.sampled_from(_BUILTIN_NAMES))
        if name == "geometric":
            c = draw(st.sampled_from([0.0, 0.25, -0.375]))
        rep = builtin(name, c)
        return rep, _builtin_exact(rep, name), min(2.0, 0.7 * rep.radius_hint)
    if kind == "polynomial":
        rep = polynomial_rep(coeffs, c)
    elif kind == "multiply":
        other = draw(st.sampled_from(_BUILTIN_NAMES[:3] + ["polynomial"]))
        rhs = polynomial_rep(coeffs, c) if other == "polynomial" else builtin(other, c)
        rep = multiply(builtin(name, c), rhs)
    elif kind == "power":
        rep = power(builtin(name, c), draw(st.integers(0, 3)))
    elif kind == "linear_combine":
        alpha, beta = draw(st.sampled_from([(2.0, -0.5), (1.5, 0.25), (-1.0, 1.0), (0.0, 3.0)]))
        rep = linear_combine(alpha, builtin(name, c), beta, polynomial_rep(coeffs, c))
    elif kind == "truncate_rep":
        rep = truncate_rep(builtin(name, c), draw(st.integers(0, 30)))
    else:
        new = c + draw(st.sampled_from([0.5, -0.25, 1.0]))
        if draw(st.booleans()):
            rep = recenter(polynomial_rep(coeffs, c), new)
        else:
            base = builtin(name, c)
            rep = recenter(base, new)
            ref = _builtin_exact(base, name)
            shift = mpmath.mpf(new) - mpmath.mpf(c)
            return rep, lambda g: ref(shift + g), 2.0
    return rep, _exact(rep), 2.0


class TestGridBoundsAgainstMpmath:
    @settings(max_examples=60, deadline=None)
    @given(case=_grid_case(), s=st.floats(-1.0, 1.0), w=st.floats(0.01, 2.0),
           m=st.integers(2, 25), eps=st.sampled_from([1e-12, 1e-9, 1e-6]))
    def test_values_within_their_bounds(self, case, s, w, m, eps):
        rep, exact, reach = case
        c = rep.center
        lo = c + s * reach
        hi = min(lo + w * reach, c + reach)
        if not lo < hi:
            lo, hi = c - reach, c + reach
        xs = [lo + (hi - lo) * i / (m - 1) for i in range(m)]
        at = _horner_grid(rep, xs[0], xs[-1], eps)
        with mpmath.workdps(50):
            for x in xs:
                v, bound = at(x)
                want = exact(mpmath.mpf(x - c))
                assert abs(mpmath.mpf(v) - want) <= bound, (x, v, bound, want)
                one = eval_rep(rep, x, eps)
                assert abs(mpmath.mpf(v) - mpmath.mpf(one.value)) <= bound + mpmath.mpf(one.abs_error)
