import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
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
    PrecisionUnattainable,
    TaylorMeasure,
    TermBackedSequence,
    TruncationPlan,
    Unverified,
    constant_sequence,
    cos_rep,
    eval_rep,
    evaluate,
    exp_rep,
    finite_sequence,
    geometric_sequence,
    jordan_decompose,
    linear_combination,
    lp_norm_on_interval,
    normalizer,
    plan_truncation,
    recenter,
    rule_sequence,
    sin_rep,
    sum_terms,
    sup_distance_on_grid,
    tail_bound,
    term,
    term_value,
    total_variation,
)
from taylormeasure import geometry, kernel
from taylormeasure.kernel import _PLAN_CAP, _log_term_and_err, _term_and_err

import exact_reference

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
    # |gamma|**2 is below e**-700, so the term takes the log path: 263 ulp
    # off, within its reported error
    @example(n=2, gamma=5e-153, a=1e6)
    def test_linear_value_within_4_ulp_of_exact(self, n, gamma, a):
        seq = CoefficientSequence(tuple([0.0] * n) + (a,), certificate=FiniteSupport(n))
        exact = Fraction(a) * Fraction(gamma) ** n / math.factorial(n) if gamma or n == 0 else Fraction(0)
        ref = float(exact)
        if not (1e-300 < abs(ref) < 1e300):
            return
        v = term_value(seq, gamma, n)
        npow = n * math.log(abs(gamma)) if n else 0.0
        if abs(npow) < 700.0 and abs(math.log(abs(a)) + npow) < 700.0:
            assert ulps_apart(v, ref) <= 4.0
        else:  # the log path
            assert abs(Fraction(v) - exact) <= Fraction(_term_and_err(seq, gamma, n)[1])

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
        # e**gamma = sum gamma**n / n! needs terms beyond n = 170, an exact
        # run; eps is 1e-16 of the value, about half an ulp of it, so the
        # result is correctly rounded from the Fraction sum, within eps, or
        # the call refuses an eps that half an ulp alone reaches
        eps = 1e-16 * math.exp(gamma)
        want, plan = exact_reference.within_eps(
            lambda n: exact_reference.term(ONES, gamma, n), lambda n: True,
            lambda e: plan_truncation(ONES.certificate, gamma, e), eps, "signed", None,
            exact_reference.bits(ONES, gamma))
        assert plan is not None
        try:
            got = evaluate(TaylorMeasure(ONES, gamma), NatSet.all(), eps)
        except PrecisionUnattainable:
            assert want is PrecisionUnattainable
            return
        assert got == want
        assert got.abs_error <= eps


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

    def test_rounds_upward_below_the_normal_range(self):
        # the exact tail is 1.549 * 2**-1074 (terms past n = 600 add less
        # than 2**-1200); exp and the division rounded it down to one
        # subnormal unit
        b = tail_bound(Bounded(1.3), 45.0, 514)
        head = sum(Fraction(1.3) * 45 ** n / math.factorial(n) for n in range(515, 601))
        assert 1.549 <= head * 2 ** 1074 < 1.55
        assert b == 2 * 2.0 ** -1074
        # a tail far below one unit still reads one unit, not 0
        assert tail_bound(Bounded(1.0), 1.0, 400) == 2.0 ** -1074
        assert tail_bound(GeometricEnvelope(1.0, 0.5), 1.0, 2000) == 2.0 ** -1074

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


class TestPlanMemo:
    """plan_truncation memoises its plans by (cert, gamma, eps): a warm
    plan is the plan its uncached search (kernel._plan.__wrapped__) gives."""

    @staticmethod
    def assert_fresh_plan(cert, gamma, eps):
        fresh = kernel._plan.__wrapped__(cert, gamma, eps)
        for _ in range(2):
            got = plan_truncation(cert, gamma, eps)
            assert (got.last_index, repr(got.tail_bound)) == (fresh.last_index, repr(fresh.tail_bound))

    @given(
        kind=st.sampled_from(["bounded", "geometric", "factorial", "finite"]),
        scale=st.floats(min_value=0.0, max_value=1e300),
        ratio=st.floats(min_value=0.0, max_value=0.9),
        start=st.sampled_from([0, 1, 7, 40]),
        gamma=st.floats(min_value=-1e3, max_value=1e3),
        eps=st.floats(min_value=5e-324, max_value=1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_warm_plan_is_the_fresh_plan(self, kind, scale, ratio, start, gamma, eps):
        cert = {"bounded": lambda: Bounded(scale),
                "geometric": lambda: GeometricEnvelope(scale, ratio, start),
                "factorial": lambda: FactorialGeometric(scale, ratio, start),
                "finite": lambda: FiniteSupport(start)}[kind]()
        try:
            kernel._plan.__wrapped__(cert, gamma, eps)
        except DivergenceUnknown:
            for _ in range(2):
                with pytest.raises(DivergenceUnknown):
                    plan_truncation(cert, gamma, eps)
            return
        self.assert_fresh_plan(cert, gamma, eps)

    def test_a_repeat_is_a_lookup(self):
        cert = GeometricEnvelope(3.0, 0.75, 5)
        assert plan_truncation(cert, 1.25, 1e-11) is plan_truncation(cert, 1.25, 1e-11)

    @pytest.mark.parametrize(
        "first,second",
        [
            ((Bounded(1.0), 3, 1e-12), (Bounded(1.0), 3.0, 1e-12)),
            ((Bounded(1.0), 3.0, 1e-12), (Bounded(1.0), 3, 1e-12)),
            ((Bounded(1.0), 2.0, 1), (Bounded(1.0), 2.0, 1.0)),
            ((Bounded(1.0), 2.0, 1.0), (Bounded(1.0), 2.0, 1)),
            ((Bounded(4), 2.0, 1e-9), (Bounded(4.0), 2.0, 1e-9)),
            ((Bounded(4.0), 2.0, 1e-9), (Bounded(4), 2.0, 1e-9)),
            ((GeometricEnvelope(2, 1, 3), 5, 1e-10), (GeometricEnvelope(2.0, 1.0, 3), 5.0, 1e-10)),
            ((Bounded(1.0), 0.0, 1e-12), (Bounded(1.0), -0.0, 1e-12)),
            ((Bounded(1.0), -0.0, 1e-12), (Bounded(1.0), 0.0, 1e-12)),
        ],
    )
    def test_equal_keys_of_another_type_get_their_own_plan(self, first, second):
        plan_truncation(*first)
        self.assert_fresh_plan(*second)

    def test_refusals_are_raised_on_every_call(self):
        for _ in range(3):
            with pytest.raises(DivergenceUnknown):
                plan_truncation(FactorialGeometric(1.0, 2.0), 0.5, 1e-6)
            with pytest.raises(DivergenceUnknown):
                plan_truncation(Unverified(), 1.0, 0.1)
            for eps in (0.0, -1e-12):
                with pytest.raises(ValueError):
                    plan_truncation(Bounded(1.0), 1.0, eps)

    def test_unhashable_certificate_is_refused_as_no_certificate(self):
        for _ in range(2):
            with pytest.raises(DivergenceUnknown):
                plan_truncation([1.0], 1.0, 1e-12)

    def test_memo_is_bounded(self):
        for i in range(5000):
            plan_truncation(Bounded(1.0), 1.5, 1e-12 * (1.0 + i / 5000.0))
        assert kernel._plan.cache_info().currsize <= kernel._PLAN_MEMO


class TestSumTerms:
    def test_sign_split_example(self):
        seq = finite_sequence([1.0, -2.0, 3.0])
        pos, neg = sum_terms(seq, 1.0, [0, 1, 2])
        assert pos == 2.5
        assert neg == 2.0

    def test_empty_sum(self):
        assert sum_terms(ONES, 1.0, []) == (0.0, 0.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_gamma_refused(self, gamma):
        # a nan term is filed under neither sign: nan once read as (1.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            sum_terms(ONES, gamma, range(5))

    def test_permutation_invariance(self):
        rng = random.Random(7)
        coeffs = [rng.uniform(-5.0, 5.0) for _ in range(60)]
        # the second input is an exact run past n = 170: in any order but
        # increasing it once took the float pass, 573 ulp from the run
        for seq, gamma, count in ((finite_sequence(coeffs), 1.7, 60), (ONES, 200.0, 400)):
            idx = list(range(count))
            base = sum_terms(seq, gamma, idx)
            orders = [idx[::-1]]
            for _ in range(25):
                rng.shuffle(idx)
                orders.append(list(idx))
            for order in orders:
                pos, neg = sum_terms(seq, gamma, order)
                assert ulps_apart(pos, base[0]) <= 8.0
                assert ulps_apart(neg, base[1]) <= 8.0

    def test_total_matches_fsum_oracle(self):
        rng = random.Random(99)
        coeffs = [rng.uniform(-3.0, 3.0) for _ in range(80)]
        seq = finite_sequence(coeffs)
        pos, neg = sum_terms(seq, 2.3, range(80))
        oracle = math.fsum(term_value(seq, 2.3, n) for n in range(80))
        assert pos - neg == pytest.approx(oracle, abs=1e-13 * (pos + neg + 1.0))


# ---------------------------------------------------------------------------
# The log path forms each term once, with the bits of the term()-based path


def _ref_term(seq, gamma, n):
    """Test-only reference: term() as it formed (sign, log_mag) before the
    shared signed-log form, with lgamma inline."""
    sa, la = seq.log_a(n)
    if sa == 0:
        return 0, -math.inf
    if n == 0:
        return sa, la
    if gamma == 0.0:
        return 0, -math.inf
    sign = -sa if (gamma < 0.0 and n % 2) else sa
    return sign, la + n * math.log(abs(gamma)) - math.lgamma(n + 1)


def _ref_log_term_and_err(seq, gamma, n):
    """Test-only reference: _term_and_err for n > 170 and gamma != 0 off a
    term-backed sequence's presentation gamma, through the log path as it
    was built on a SignedLogTerm, which called lgamma twice per term."""
    if seq.a(n) == 0.0:
        return 0.0, 0.0
    npow = n * math.log(abs(gamma))
    sign, log_mag = _ref_term(seq, gamma, n)
    v = kernel._exp_signed(sign, log_mag)
    if v == 0.0:
        return v, kernel._TINY
    if not math.isfinite(v):
        return v, 0.0
    lg = math.lgamma(n + 1)
    la = log_mag - npow + lg
    units = (abs(log_mag) + 4.0 + 4.0 * abs(la) + 2.0 * abs(npow) + 3.0 * lg
             + abs(la + npow))
    return v, abs(v) * units * kernel._ULP + kernel._TINY


def _ref_rho_summand(T1, T2, n):
    """Test-only reference: geometry._rho_summand on n > 170, where it
    reads both terms through term(). A zero operand gives 0 with the bound
    n! (|p1| e2 + |p2| e1 + e1 e2) on the terms' errors e, in logs."""
    v1, e1 = _term_and_err(T1.coefficients, T1.gamma, n)
    v2, e2 = _term_and_err(T2.coefficients, T2.gamma, n)
    sg1, l1 = _ref_term(T1.coefficients, T1.gamma, n)
    sg2, l2 = _ref_term(T2.coefficients, T2.gamma, n)
    s = sg1 * sg2
    lf = math.lgamma(n + 1)
    if s == 0:
        le1 = math.log(e1) if e1 else -math.inf
        le2 = math.log(e2) if e2 else -math.inf
        return 0.0, (kernel._exp_signed(1, lf + l1 + le2) + kernel._exp_signed(1, lf + l2 + le1)
                     + kernel._exp_signed(1, lf + le1 + le2))
    v = kernel._exp_signed(s, lf + l1 + l2)
    return v, abs(v) * (abs(l1) + abs(l2) + lf + 16.0) * 2.0 ** -50


def _log_rule_sequence():
    # a_n = (-1)**n n**3, read through its log rule on the log path
    return rule_sequence(lambda n: (-1.0) ** n * float(n) ** 3, Bounded(1.0),
                         log_rule=lambda n: (-1 if n % 2 else 1, 3.0 * math.log(n)))


_LOG_PATH_SEQUENCES = {
    "constant": lambda: constant_sequence(-1.75),
    "geometric": lambda: geometric_sequence(1.5, -0.8),
    "log_rule": _log_rule_sequence,
    # term-backed at presentation 2, read at other gammas through a_n
    "term_backed": lambda: TermBackedSequence(lambda n: 0.97 ** n, 2.0, GeometricEnvelope(1.0, 0.5)),
}


class TestSignedLogForm:
    @given(st.sampled_from(sorted(_LOG_PATH_SEQUENCES)), st.integers(171, 20000),
           st.floats(0.01, 800.0), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_term_and_err_matches_term_based_log_path(self, kind, n, g, negative):
        seq = _LOG_PATH_SEQUENCES[kind]()
        gamma = -g if negative else g
        assume(kind != "term_backed" or gamma != 2.0)
        assert _term_and_err(seq, gamma, n) == _ref_log_term_and_err(seq, gamma, n)
        t = term(seq, gamma, n)
        assert (t.sign, t.log_mag) == _ref_term(seq, gamma, n)

    @given(st.sampled_from(sorted(_LOG_PATH_SEQUENCES)), st.sampled_from(sorted(_LOG_PATH_SEQUENCES)),
           st.integers(171, 20000), st.floats(0.01, 60.0), st.floats(-60.0, 60.0))
    @settings(max_examples=200, deadline=None)
    def test_rho_summand_matches_term_based_log_path(self, k1, k2, n, g1, g2):
        T1 = TaylorMeasure(_LOG_PATH_SEQUENCES[k1](), -g1 if n % 3 == 0 else g1)
        T2 = TaylorMeasure(_LOG_PATH_SEQUENCES[k2](), g2)
        assume(2.0 not in (T1.gamma, T2.gamma))
        assert geometry._rho_summand(T1, T2, n) == _ref_rho_summand(T1, T2, n)


# ---------------------------------------------------------------------------
# The fused summation pass forms and sums each term as _term_and_err does


def _ref_sum_by_sign(terms):
    """Test-only reference: the pass over (value, roundoff) term pairs that
    every set sum made before the fused loop; each pair came from one
    _term_and_err call."""
    pos, neg = kernel._NeumaierSum(), kernel._NeumaierSum()
    err = err_pos = err_neg = 0.0
    for v, e in terms:
        err += e
        if v > 0.0:
            pos.add(v)
            err_pos += e
        elif v < 0.0:
            neg.add(-v)
            err_neg += e
        else:
            err_pos += e
            err_neg += e
    p, m = pos.value, neg.value
    u = 2.0 * kernel._ULP
    return kernel._SignSplit(p, m, err + u * (p + m), err_pos + u * p, err_neg + u * m)


def _bits(call):
    """A call's result as hex strings (nan compares equal to nan), or the
    type and message of the error it raised."""
    try:
        return tuple(float(x).hex() for x in call())
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


_coeffs = st.one_of(st.just(0.0), st.floats(-1e3, 1e3),
                    st.sampled_from([1e300, -1e-300, 5e-324, 7.0]))


@st.composite
def _fused_sequences(draw):
    """Every tail kind behind a prefix, and term-backed sequences with and
    without term errors; rule and term-backed ones may hold a nan."""
    kind = draw(st.sampled_from(["zero", "constant", "geometric", "rule", "log_rule",
                                 "term", "term_error"]))
    prefix = tuple(draw(st.lists(_coeffs, max_size=8)))
    nan_at = draw(st.none() | st.integers(0, 300))
    c = draw(_coeffs)
    if kind == "zero":
        return CoefficientSequence(prefix, kernel.ZeroTail())
    if kind == "constant":
        return CoefficientSequence(prefix, ConstantTail(c))
    if kind == "geometric":
        return CoefficientSequence(prefix, GeometricTail(c, draw(st.floats(-3.0, 3.0))))
    if kind in ("rule", "log_rule"):
        def rule(n):
            return math.nan if n == nan_at else c * (-1.0) ** n * (1 + n % 3)

        def log_rule(n):
            if c == 0.0:
                return 0, -math.inf
            return (-1 if (c < 0.0) != (n % 2 == 1) else 1), math.log(abs(c)) + math.log(1 + n % 3)

        return rule_sequence(rule, Unverified(), prefix, log_rule if kind == "log_rule" else None)
    q = draw(st.floats(0.1, 0.99))

    def term_rule(n):
        return math.nan if n == nan_at else c * q ** n

    term_error = (lambda n: 1e-9 * q ** n) if kind == "term_error" else None
    return TermBackedSequence(term_rule, draw(st.sampled_from([1.0, 2.0, -0.5])),
                              Unverified(), term_error)


_fused_gammas = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 5.0, -5.0]),
                          st.floats(-1000.0, 1000.0))
_fused_indices = st.one_of(
    st.builds(range, st.integers(0, 20), st.integers(0, 260)),
    st.lists(st.integers(0, 1200), max_size=30).map(sorted),
    st.lists(st.integers(0, 400), max_size=30).map(tuple),
)


class TestFusedPass:
    @given(_fused_sequences(), _fused_gammas, st.booleans(), _fused_indices)
    @settings(max_examples=500, deadline=None)
    def test_matches_term_by_term_pass(self, seq, gamma, presented, indices):
        if presented and isinstance(seq, TermBackedSequence):
            gamma = seq.presentation_gamma
        ref = _bits(lambda: _ref_sum_by_sign(_term_and_err(seq, gamma, n) for n in indices))
        assert _bits(lambda: kernel._sum_terms(seq, gamma, indices)) == ref

    def test_nan_coefficient_raises_as_term_and_err_does(self):
        seq = rule_sequence(lambda n: math.nan if n == 4 else 1.0, Bounded(1.0))
        with pytest.raises(ValueError, match="coefficient a_4 is nan"):
            kernel._sum_terms(seq, 1.5, range(10))

    def test_negative_index_is_refused(self):
        with pytest.raises(ValueError, match="natural number"):
            sum_terms(finite_sequence([1.0, 2.0]), 1.0, [1, -1])


# value and abs_error of calls across the layers, as hex strings recorded with
# the term-by-term summation pass that the fused one replaced: any bit that
# moves fails
_PINNED = {
    "finite_support_all": ("0x1.d5e353f7ced8cp-1", "0x1.4e73b645a1cabp-48"),
    "bounded_cofinite": ("0x1.dfeaaa734fa88p-2", "0x1.0e10f643ec73dp-41"),
    "geometric_finite_variation": ("0x1.0d1da9d5ebc38p+4", "0x1.93ac7ec0e1a54p-47"),
    "factorial_all_positive": ("0x1.3ffffffffff5bp+1", "0x1.50294582f9442p-44"),
    "bounded_cofinite_negative": ("0x1.a079ec76d76b2p+0", "0x1.9288f7ae320e4p-35"),
    "unverified_finite": ("0x1.a43a83a83a83ap+3", "0x1.5ed41d41d41d4p-47"),
    "past_horizon_finite": ("-0x1.5555555555555p+0", "0x1.0000000000000p-50"),
    "linear_combination_all": ("-0x1.623453554b966p+2", "0x1.d6baebe1aa159p-41"),
    "recentered_eval_rep": ("0x1.1ed3fe64fc341p+2", "0x1.10464576931cdp-41"),
    # an exact run since it passes n = 170: e**300 summed to eps 1e120 and
    # rounded once (1e-12, the default, is below half an ulp of it)
    "eval_rep_log_path": ("0x1.c05c0a711fc55p+432", "0x1.1fad6d505f75ap+398"),
    "normalizer": ("0x1.39d6fd931df7cp+3", "0x1.430025670427bp-41"),
    # grid points are summed by Horner's rule (analytic._horner_grid); these
    # two were re-derived from it and checked against mpmath: the distance
    # within the largest point bound, the norm within its quadrature eps
    "sup_distance_on_grid": ("0x1.1080000000000p-42",),
    "lp_norm_on_interval": ("0x1.c5b6cc1a29273p-1",),
}


def _pinned_call(name):
    alt = TaylorMeasure(constant_sequence(1.0), -2.0)
    factorial = rule_sequence(lambda n: math.inf if n > 170 else math.factorial(n) * 0.5 ** n,
                              FactorialGeometric(1.0, 0.5),
                              log_rule=lambda n: (1, math.lgamma(n + 1) + n * math.log(0.5)))
    calls = {
        "finite_support_all": lambda: evaluate(
            TaylorMeasure(finite_sequence([1.5, -2.0, 0.25, 3.0]), 1.7), NatSet.all()),
        "bounded_cofinite": lambda: evaluate(alt, NatSet.cofinite([0, 3])),
        "geometric_finite_variation": lambda: total_variation(
            TaylorMeasure(geometric_sequence(1.5, -0.8), 4.0), NatSet.finite([1, 2, 5, 9])),
        "factorial_all_positive": lambda: jordan_decompose(
            TaylorMeasure(factorial, 1.2)).positive(NatSet.all(), 1e-13),
        "bounded_cofinite_negative": lambda: jordan_decompose(alt).negative(
            NatSet.cofinite([1, 2]), 1e-10),
        "unverified_finite": lambda: evaluate(TaylorMeasure(
            rule_sequence(lambda n: (-1.0) ** n * (1 + n % 3), Unverified(), [0.5, 2.0]), 3.0),
            NatSet.finite([0, 2, 7, 40])),
        # past the underflow horizon: 400 and 1000 are not summed
        "past_horizon_finite": lambda: evaluate(alt, NatSet.finite([3, 50, 400, 1000])),
        "linear_combination_all": lambda: evaluate(linear_combination(
            0.5, alt, -1.25, TaylorMeasure(geometric_sequence(1.0, 0.5), 3.0)), NatSet.all()),
        "recentered_eval_rep": lambda: eval_rep(recenter(exp_rep(0.0), 0.75), 1.5),
        "eval_rep_log_path": lambda: eval_rep(exp_rep(0.0), 300.0, 1e120),
        "normalizer": lambda: normalizer(2.5, constant_sequence(1.0, [0.5, 0.25])),
        "sup_distance_on_grid": lambda: sup_distance_on_grid(sin_rep(0.0), math.sin, (-2.0, 2.0), 41),
        "lp_norm_on_interval": lambda: lp_norm_on_interval(cos_rep(0.0), 2.0, (0.0, 1.5)),
    }
    out = calls[name]()
    return (out.hex(),) if isinstance(out, float) else (out.value.hex(), out.abs_error.hex())


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_pinned_bits(name):
    assert _pinned_call(name) == _PINNED[name]
