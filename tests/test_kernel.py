import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taylormeasure import (
    Bounded,
    CoefficientSequence,
    ConstantTail,
    DivergenceUnknown,
    FactorialGeometric,
    FiniteSupport,
    GeometricEnvelope,
    GeometricTail,
    NatSet,
    TaylorMeasure,
    TermBackedSequence,
    TruncationPlan,
    Unverified,
    constant_sequence,
    evaluate,
    finite_sequence,
    geometric_sequence,
    plan_truncation,
    rule_sequence,
    sum_terms,
    tail_bound,
    term,
    term_value,
)
from taylormeasure.kernel import _PLAN_CAP, _log_term_and_err, _term_and_err

ONES = constant_sequence(1.0)


def ulps_apart(x, y):
    if x == y:
        return 0.0
    return abs(x - y) / math.ulp(max(abs(x), abs(y)))


class TestTerm:
    def test_unit_coefficients_gamma_one(self):
        t = term(ONES, 1.0, 3)
        assert t.sign == 1
        assert t.log_mag == pytest.approx(-math.log(6.0), rel=1e-15)
        assert term_value(ONES, 1.0, 3) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_zero_gamma_zero_index_is_a0(self):
        # 0**0 = 1, so the n = 0 term survives gamma = 0
        assert term_value(ONES, 0.0, 0) == 1.0
        t = term(ONES, 0.0, 0)
        assert t.sign == 1 and t.log_mag == 0.0

    def test_zero_gamma_kills_higher_terms(self):
        assert term_value(ONES, 0.0, 5) == 0.0
        assert term(ONES, 0.0, 5).sign == 0

    def test_negative_coefficient(self):
        seq = finite_sequence([0.0, -2.0])
        assert term_value(seq, 2.0, 1) == -4.0
        t = term(seq, 2.0, 1)
        assert t.sign == -1
        assert t.log_mag == pytest.approx(math.log(4.0), rel=1e-15)

    def test_negative_gamma_alternates_sign(self):
        assert term_value(ONES, -1.0, 2) > 0
        assert term_value(ONES, -1.0, 3) < 0

    def test_zero_coefficient(self):
        seq = finite_sequence([0.0])
        t = term(seq, 1.0, 0)
        assert t.sign == 0 and t.log_mag == -math.inf
        assert term_value(seq, 1.0, 0) == 0.0

    def test_large_index_avoids_overflow(self):
        # gamma**n and n! both overflow a float here; the term does not
        v = term_value(ONES, 100.0, 400)
        exact = Fraction(100) ** 400 / math.factorial(400)
        assert v == pytest.approx(float(exact), rel=1e-12)

    @given(
        n=st.integers(min_value=0, max_value=170),
        gamma=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        a=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_linear_value_within_4_ulp_of_exact(self, n, gamma, a):
        seq = CoefficientSequence(tuple([0.0] * n) + (a,), certificate=FiniteSupport(n))
        exact = Fraction(a) * Fraction(gamma) ** n / math.factorial(n) if gamma or n == 0 else Fraction(0)
        ref = float(exact)
        if not (1e-300 < abs(ref) < 1e300):
            return
        v = term_value(seq, gamma, n)
        assert ulps_apart(v, ref) <= 4.0

    @given(
        n=st.integers(min_value=0, max_value=170),
        gamma=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        a=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_log_form_matches_exact_in_log_space(self, n, gamma, a):
        seq = CoefficientSequence(tuple([0.0] * n) + (a,), certificate=FiniteSupport(n))
        exact = Fraction(a) * Fraction(gamma) ** n / math.factorial(n) if gamma or n == 0 else Fraction(0)
        ref = float(exact)
        if not (1e-300 < abs(ref) < 1e300):
            return
        t = term(seq, gamma, n)
        assert t.sign == (1 if exact > 0 else -1 if exact < 0 else 0)
        ref_log = math.log(abs(ref))
        # the three-log sum carries a few ulp of each addend's magnitude,
        # which can dwarf the (possibly cancelled) result magnitude
        components = abs(math.log(abs(a))) if a else 0.0
        if gamma and n:
            components += abs(math.lgamma(n + 1)) + abs(n * math.log(abs(gamma)))
        slack = (4.0 * max(abs(ref_log), 1.0) + 4.0 * components) * 2.0 ** -53
        assert abs(t.log_mag - ref_log) <= slack
        # value reconstruction inherits exp's conditioning on log_mag: an
        # error of slack in the log is a relative error of expm1(slack) in
        # the value, plus the rounding of exp and of ref itself
        assert abs(t.value - ref) <= abs(ref) * (math.expm1(slack) + 4.0 * 2.0 ** -52)
        # and the bound the log path certifies covers the true error
        v, err = _log_term_and_err(seq, gamma, n, n * math.log(abs(gamma)) if n else 0.0)
        assert v == t.value
        assert abs(Fraction(v) - exact) <= Fraction(err)

    @pytest.mark.parametrize("gamma", [150.0, 170.0, 190.0, 200.0, 210.0, 230.0, 250.0,
                                       270.0, 290.0, 310.0, 330.0])
    def test_log_path_sum_meets_its_bound(self, gamma):
        # e**gamma = sum gamma**n / n! needs terms beyond n = 170, which take
        # the log path; eps is 1e-16 of the value, so abs_error is roundoff
        exact = math.exp(gamma)
        out = evaluate(TaylorMeasure(ONES, gamma), NatSet.all(), 1e-16 * exact)
        assert abs(out.value - exact) <= out.abs_error + 2.0 * math.ulp(exact)


def _exact_term(a, gamma, n):
    return Fraction(a) * Fraction(gamma) ** n / math.factorial(n)


class TestUnderflowFloor:
    """Terms below the normal range round to multiples of 2**-1074, which a
    bound relative to |value| cannot see; the floor covers that rounding."""

    @pytest.mark.parametrize("a, gamma, n", [
        (1.0, 1e-160, 2),          # log path, subnormal value
        (3.0, -1e-161, 2),         # log path, negative subnormal value
        (1e-310, 1e-160, 1),       # log path, underflows to 0
        (1e-160, 1.0, 100),        # linear path, subnormal value
        (-7e-161, 1.03, 99),       # linear path, negative subnormal value
        (1e-300, 1.0, 170),        # linear path, underflows to 0
    ])
    def test_term_bound_covers_exact(self, a, gamma, n):
        seq = finite_sequence([0.0] * n + [a])
        v, err = _term_and_err(seq, gamma, n)
        assert abs(v) < 2.0 ** -1022
        assert abs(Fraction(v) - _exact_term(a, gamma, n)) <= Fraction(err)

    def test_random_terms_near_underflow(self):
        rng = random.Random(20)
        for _ in range(2000):
            n = rng.randrange(1, 400)
            a = rng.uniform(-2.0, 2.0) * 2.0 ** rng.randrange(-60, 60)
            # |a * gamma**n / n!| near exp(target), across the underflow edge
            target = rng.uniform(-760.0, -690.0)
            log_gamma = (target - math.log(abs(a)) + math.lgamma(n + 1)) / n
            gamma = rng.choice([1.0, -1.0]) * math.exp(log_gamma)
            v, err = _term_and_err(finite_sequence([0.0] * n + [a]), gamma, n)
            assert abs(Fraction(v) - _exact_term(a, gamma, n)) <= Fraction(err), (a, gamma, n)

    def test_sum_keeps_underflowed_terms(self):
        # terms 1 and 3 underflow to 0 and term 2 is subnormal
        prefix = [0.0, 1e-310, 3.0, 1e-300]
        gamma = 1e-160
        exact = sum(_exact_term(a, gamma, n) for n, a in enumerate(prefix))
        T = TaylorMeasure(finite_sequence(prefix), gamma)
        for B in (NatSet.all(), NatSet.finite([1, 2, 3])):
            out = evaluate(T, B)
            assert abs(Fraction(out.value) - exact) <= Fraction(out.abs_error)


class TestNonFinite:
    """Non-finite inputs are refused, never summed into nan or a wrong value."""

    def test_nan_prefix_entry(self):
        with pytest.raises(ValueError, match="a_1"):
            finite_sequence([1.0, math.nan])
        with pytest.raises(ValueError, match="a_0"):
            constant_sequence(1.0, [math.nan])

    @pytest.mark.parametrize("tail", [
        ConstantTail(math.nan),
        ConstantTail(-math.inf),
        GeometricTail(math.nan, 0.5),
        GeometricTail(1.0, math.inf),
    ])
    def test_non_finite_tail_constant(self, tail):
        with pytest.raises(ValueError, match="tail constants must be finite"):
            CoefficientSequence((), tail)

    @pytest.mark.parametrize("first_nan", [0, 3])
    def test_nan_from_a_rule_names_the_index(self, first_nan):
        seq = rule_sequence(lambda n: math.nan if n >= first_nan else 1.0, Bounded(1.0))
        with pytest.raises(ValueError, match=f"a_{first_nan} is nan"):
            evaluate(TaylorMeasure(seq, 1.0), NatSet.all())

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            TaylorMeasure(ONES, gamma)


class TestTailBound:
    def test_bounded_example(self):
        # sum_{n>10} 1/n! <= 1/11! * (1 / (1 - 1/12)) = 1/11! * 12/11
        b = tail_bound(Bounded(1.0), 1.0, 10)
        assert b == pytest.approx(12.0 / 11.0 / math.factorial(11), rel=1e-12)
        direct = math.fsum(1.0 / math.factorial(n) for n in range(11, 61))
        assert b >= direct

    def test_geometric_equiv_example(self):
        cert = GeometricEnvelope.from_asymptotic(1.0, 2.0)
        b = tail_bound(cert, 1.0, 20)
        assert b == pytest.approx(9.030435149334086e-14, rel=1e-12)
        direct = math.fsum(2.0 ** n / math.factorial(n) for n in range(21, 81))
        assert b >= direct

    def test_finite_support_tail_is_zero(self):
        assert tail_bound(FiniteSupport(4), 3.0, 4) == 0.0
        assert tail_bound(FiniteSupport(4), 3.0, 9) == 0.0
        assert tail_bound(FiniteSupport(4), 3.0, 2) == math.inf

    def test_unverified_is_unbounded(self):
        assert tail_bound(Unverified(), 1.0, 100) == math.inf

    def test_factorial_geometric_inside_radius(self):
        cert = FactorialGeometric(1.0, 2.0)
        b = tail_bound(cert, 0.25, 10)  # q = 0.5
        assert b == pytest.approx(0.5 ** 11 / 0.5, rel=1e-12)
        assert tail_bound(cert, 0.5, 10) == math.inf  # q = 1: divergent

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 7.5, 40.0])
    def test_non_increasing_in_index(self, gamma):
        cert = Bounded(3.0)
        bounds = [tail_bound(cert, gamma, n) for n in range(0, 120)]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_dominates_true_tail_randomized(self):
        rng = random.Random(20260814)
        for _ in range(200):
            kind = rng.choice(["bounded", "geo", "factgeo"])
            gamma = rng.uniform(-6.0, 6.0)
            n0 = rng.randrange(0, 25)
            if kind == "bounded":
                m = rng.uniform(0.1, 5.0)
                cert = Bounded(m)
                seq = constant_sequence(m * rng.choice([1.0, -1.0]))
            elif kind == "geo":
                s = rng.uniform(0.1, 3.0)
                r = rng.uniform(0.1, 2.0)
                cert = GeometricEnvelope(s, r)
                seq = geometric_sequence(s, r * rng.choice([1.0, -1.0]))
            else:
                s = rng.uniform(0.1, 2.0)
                r = rng.uniform(0.05, 0.9)
                gamma = rng.uniform(-0.9, 0.9) / r
                cert = FactorialGeometric(s, r)
                # a_n = s * n! * r**n, realized through its term function
                seq = TermBackedSequence(
                    lambda n, s=s, r=r, g=gamma: s * (r * g) ** n, gamma, cert
                )
            bound = tail_bound(cert, gamma, n0)
            direct = math.fsum(
                abs(term_value(seq, gamma, n)) for n in range(n0 + 1, n0 + 201)
            )
            assert bound >= direct * (1.0 - 1e-12)


class TestPlanTruncation:
    def test_unverified_raises(self):
        with pytest.raises(DivergenceUnknown):
            plan_truncation(Unverified(), 1.0, 0.1)

    def test_finite_support_stops_at_support(self):
        plan = plan_truncation(FiniteSupport(7), 123.0, 1e-30)
        assert plan.last_index == 7 and plan.tail_bound == 0.0

    def test_factorial_geometric_outside_radius_raises(self):
        with pytest.raises(DivergenceUnknown):
            plan_truncation(FactorialGeometric(1.0, 2.0), 0.5, 1e-6)

    @staticmethod
    def doubling_plan(cert, gamma, eps):
        """Reference search: doubling from max(1, start), then bisection.
        plan_truncation must return the same plan or raise the same class."""
        if isinstance(cert, FactorialGeometric) and cert.scale > 0.0 and cert.ratio * abs(gamma) >= 1.0:
            raise DivergenceUnknown("outside the radius")
        hi = max(1, getattr(cert, "start", 0))
        while tail_bound(cert, gamma, hi) > eps:
            hi *= 2
            if hi > _PLAN_CAP:
                raise DivergenceUnknown("cap")
        lo = 0
        while lo < hi:
            mid = (lo + hi) // 2
            if tail_bound(cert, gamma, mid) <= eps:
                hi = mid
            else:
                lo = mid + 1
        return TruncationPlan(lo, tail_bound(cert, gamma, lo))

    def assert_same_as_doubling(self, cert, gamma, eps):
        try:
            expected = self.doubling_plan(cert, gamma, eps)
        except DivergenceUnknown:
            with pytest.raises(DivergenceUnknown):
                plan_truncation(cert, gamma, eps)
            return
        got = plan_truncation(cert, gamma, eps)
        assert got.last_index == expected.last_index
        assert repr(got.tail_bound) == repr(expected.tail_bound)

    @given(
        kind=st.sampled_from(["bounded", "geometric", "factorial"]),
        scale=st.floats(min_value=0.0, max_value=1e300),
        ratio=st.floats(min_value=0.0, max_value=20.0),
        start=st.sampled_from([0, 0, 1, 7, 40, 3 * 10 ** 6, _PLAN_CAP + 3]),
        gamma=st.floats(min_value=-1e7, max_value=1e7),
        eps=st.floats(min_value=5e-324, max_value=1e3),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_doubling_search(self, kind, scale, ratio, start, gamma, eps):
        if kind == "bounded":
            cert = Bounded(scale)
        elif kind == "geometric":
            cert = GeometricEnvelope(scale, ratio, start)
        else:
            cert = FactorialGeometric(scale, ratio, start)
        self.assert_same_as_doubling(cert, gamma, eps)

    @given(
        scale=st.floats(min_value=1e-6, max_value=1e6),
        ratio=st.floats(min_value=1e-3, max_value=10.0),
        gap=st.floats(min_value=1e-15, max_value=0.5),
        start=st.sampled_from([0, 5, 60]),
        eps=st.floats(min_value=1e-300, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_doubling_search_near_radius(self, scale, ratio, gap, start, eps):
        # q = ratio * |gamma| close to 1: the answer can pass the cap
        self.assert_same_as_doubling(FactorialGeometric(scale, ratio, start), (1.0 - gap) / ratio, eps)

    @pytest.mark.parametrize(
        "cert,gamma",
        [
            (Bounded(1.0), 3.0e6),    # answer about 8.1e6: below the last doubling
            (Bounded(1.0), 3.2e6),    # answer above 2**23: refused
            (Bounded(1.0), math.inf),
            (Bounded(1.0), math.nan),
            (GeometricEnvelope(1.0, 0.0, 3), math.inf),
            (GeometricEnvelope(2.0, 1.0, _PLAN_CAP + 1), 1.0),
            (GeometricEnvelope(2.0, 1.0, 6 * 10 ** 6), 2.5e6),
            (FactorialGeometric(0.0, 2.0, 4), 9.0),
            (FactorialGeometric(1.0, 1.0, 0), 1.0 - 1e-9),
        ],
    )
    @pytest.mark.parametrize("eps", [1e-12, math.inf, math.nan])
    def test_matches_doubling_search_at_the_edges(self, cert, gamma, eps):
        self.assert_same_as_doubling(cert, gamma, eps)

    @pytest.mark.parametrize(
        "cert,gamma,eps",
        [
            (Bounded(1.0), 1.0, 1e-12),
            (Bounded(5.0), -9.0, 1e-10),
            (GeometricEnvelope.from_asymptotic(1.0, 2.0), 1.5, 1e-9),
            (FactorialGeometric(2.0, 0.5), 1.2, 1e-13),
            (Bounded(1.0), 0.0, 1e-15),
        ],
    )
    def test_result_is_smallest_index(self, cert, gamma, eps):
        plan = plan_truncation(cert, gamma, eps)
        n = plan.last_index
        assert tail_bound(cert, gamma, n) <= eps
        assert plan.tail_bound == tail_bound(cert, gamma, n)
        if n > 0:
            assert tail_bound(cert, gamma, n - 1) > eps


class TestSumTerms:
    def test_sign_split_example(self):
        seq = finite_sequence([1.0, -2.0, 3.0])
        pos, neg = sum_terms(seq, 1.0, [0, 1, 2])
        assert pos == 2.5
        assert neg == 2.0

    def test_empty_sum(self):
        assert sum_terms(ONES, 1.0, []) == (0.0, 0.0)

    def test_permutation_invariance(self):
        rng = random.Random(7)
        coeffs = [rng.uniform(-5.0, 5.0) for _ in range(60)]
        seq = finite_sequence(coeffs)
        idx = list(range(60))
        base = sum_terms(seq, 1.7, idx)
        for _ in range(25):
            rng.shuffle(idx)
            pos, neg = sum_terms(seq, 1.7, idx)
            assert ulps_apart(pos, base[0]) <= 8.0
            assert ulps_apart(neg, base[1]) <= 8.0

    def test_total_matches_fsum_oracle(self):
        rng = random.Random(99)
        coeffs = [rng.uniform(-3.0, 3.0) for _ in range(80)]
        seq = finite_sequence(coeffs)
        pos, neg = sum_terms(seq, 2.3, range(80))
        oracle = math.fsum(term_value(seq, 2.3, n) for n in range(80))
        assert pos - neg == pytest.approx(oracle, abs=1e-13 * (pos + neg + 1.0))
