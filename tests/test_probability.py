import math
import random

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taylormeasure import (
    Bounded,
    CoefficientSequence,
    DegenerateDistribution,
    DivergenceUnknown,
    GeometricEnvelope,
    GeometricTail,
    InvalidPmf,
    NatSet,
    PowerSeriesPmf,
    QuantileTailUnresolved,
    TaylorMeasure,
    Unverified,
    cdf,
    constant_sequence,
    evaluate,
    finite_sequence,
    from_pmf,
    geometric_sequence,
    measure_from_densities,
    normalizer,
    pmf_eval,
    probability_pair,
    quantile,
    rule_sequence,
    zero_measure,
)

ONES = constant_sequence(1.0)
ALL = NatSet.all()

# nonnegative densities of each tail kind
_densities = st.one_of(
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30).map(finite_sequence),
    st.floats(0.0, 5.0).map(constant_sequence),
    st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 2.0)).map(lambda t: geometric_sequence(*t)),
)


def _outcome(call):
    """A call's result, or the type of the package error it raised."""
    try:
        return call()
    except (DegenerateDistribution, QuantileTailUnresolved) as exc:
        return type(exc)


class TestNormalizer:
    def test_unit_density(self):
        mv = normalizer(1.0, ONES, eps=1e-13)
        assert mv.value == pytest.approx(math.e, rel=1e-12)

    def test_zeta_zero_keeps_first_weight(self):
        b = finite_sequence([5.0, 7.0])
        assert normalizer(0.0, b).value == 5.0

    def test_linear_density(self):
        # sum n * 2**n / n! = 2 * e**2
        b = rule_sequence(lambda n: float(n), GeometricEnvelope(1.0, 2.0))
        mv = normalizer(2.0, b, eps=1e-12)
        assert mv.value == pytest.approx(14.7781121978613, rel=1e-12)

    def test_negative_weight_rejected(self):
        b = finite_sequence([1.0, -0.5])
        with pytest.raises(InvalidPmf):
            normalizer(1.0, b)

    def test_zero_sum_degenerate(self):
        with pytest.raises(DegenerateDistribution):
            normalizer(1.0, finite_sequence([0.0, 0.0]))

    @pytest.mark.parametrize("zeta", [math.nan, math.inf])
    def test_non_finite_zeta_refused(self, zeta):
        # a nan zeta once read as NonFiniteResult, an infinite one as
        # DivergenceUnknown: both are bad input
        with pytest.raises(ValueError, match="finite"):
            normalizer(zeta, ONES)

    def test_unverified_rejected(self):
        with pytest.raises(DivergenceUnknown):
            normalizer(1.0, rule_sequence(lambda n: 1.0, Unverified()))


class TestPowerSeriesPmf:
    @pytest.mark.parametrize("zeta", [math.nan, math.inf])
    def test_non_finite_zeta_refused(self, zeta):
        # a nan zeta once built a pmf with normalizer 0.5 and pmf(1) nan
        with pytest.raises(ValueError, match="finite"):
            PowerSeriesPmf(zeta, [0.5, 0.5])

    def test_poisson_pmf_at_zero(self):
        p = PowerSeriesPmf(1.0, ONES, eps=1e-14)
        assert pmf_eval(p, 0) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert p.pmf(3) == pytest.approx(math.exp(-1.0) / 6.0, rel=1e-12)

    def test_point_mass_at_zero(self):
        p = PowerSeriesPmf(0.0, finite_sequence([2.0]))
        assert p.pmf(0) == 1.0
        assert p.pmf(5) == 0.0
        assert p.quantile(1.0) == 0

    def test_pmf_sums_to_one(self):
        p = PowerSeriesPmf(2.5, ONES, eps=1e-14)
        total = math.fsum(p.pmf(n) for n in range(80))
        assert total == pytest.approx(1.0, abs=1e-13)

    def test_cdf_monotone_and_saturates(self):
        p = PowerSeriesPmf(1.0, ONES)
        values = [cdf(p, n) for n in range(25)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-12)
        assert cdf(p, 0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_quantile_poisson_examples(self):
        p = PowerSeriesPmf(1.0, ONES)
        # cdf(0) = 1/e = 0.36788 >= 0.367
        assert quantile(p, 0.367) == 0
        assert quantile(p, 0.368) == 1
        assert quantile(p, 0.0) == 0

    def test_quantile_inverts_cdf_randomized(self):
        p = PowerSeriesPmf(3.0, ONES)
        rng = random.Random(77)
        for _ in range(200):
            u = rng.random()
            n = p.quantile(u)
            assert p.cdf(n) >= u
            if n > 0:
                assert p.cdf(n - 1) < u

    def test_quantile_tail_unresolved(self):
        p = PowerSeriesPmf(1.0, ONES)
        with pytest.raises(QuantileTailUnresolved):
            p.quantile(1.0)

    def test_finite_support_quantile_reaches_top(self):
        p = PowerSeriesPmf(1.0, finite_sequence([1.0, 1.0]))
        assert p.quantile(1.0) == 1

    def test_cumulative_table_covers_mass(self):
        p = PowerSeriesPmf(2.0, ONES)
        table, horizon = p.cumulative_table(tail_eps=1e-16)
        assert table[-1] == pytest.approx(1.0, abs=1e-13)
        assert horizon + 1 == len(table)


class TestProbabilityPair:
    def test_sign_split_masses_and_pmfs(self):
        T = TaylorMeasure(finite_sequence([1.0, -2.0, 3.0]), 1.0)
        pair = probability_pair(T)
        assert pair.mass_pos == pytest.approx(2.5, abs=1e-14)
        assert pair.mass_neg == pytest.approx(2.0, abs=1e-14)
        assert pair.q_pos.pmf(0) == pytest.approx(0.4, abs=1e-14)
        assert pair.q_pos.pmf(2) == pytest.approx(0.6, abs=1e-14)
        assert pair.q_pos.pmf(1) == 0.0
        assert pair.q_neg.pmf(1) == pytest.approx(1.0, abs=1e-14)

    def test_positive_measure_gives_poisson_side(self):
        T = TaylorMeasure(ONES, 1.0)
        pair = probability_pair(T, eps=1e-14)
        assert pair.q_neg is None
        assert pair.mass_pos == pytest.approx(math.e, rel=1e-12)
        for n in range(6):
            expected = math.exp(-1.0) / math.factorial(n)
            assert pair.q_pos.pmf(n) == pytest.approx(expected, rel=1e-11)

    def test_reconstruction_identity_example(self):
        T = TaylorMeasure(finite_sequence([1.0, -2.0, 3.0]), 1.0)
        pair = probability_pair(T)
        got = pair.reconstruct(NatSet.finite([0, 1]))
        assert got.value == pytest.approx(-1.0, abs=1e-13)

    def test_zero_measure_degenerate(self):
        with pytest.raises(DegenerateDistribution):
            probability_pair(zero_measure())

    @given(_densities, st.floats(0.0, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_positive_side_is_the_power_series_pmf(self, b, zeta):
        p = _outcome(lambda: PowerSeriesPmf(zeta, b))
        pair = _outcome(lambda: probability_pair(TaylorMeasure(b, zeta)))
        if p is DegenerateDistribution or pair is DegenerateDistribution:
            assert p is pair
            return
        q = pair.q_pos
        assert p.normalizer.value == q.normalizer.value
        for n in range(40):
            assert (p.pmf(n), p.cdf(n)) == (q.pmf(n), q.cdf(n))
        for u in (0.0, 0.1, 0.5, 0.9, 0.999999, 1.0):
            assert _outcome(lambda: p.quantile(u)) == _outcome(lambda: q.quantile(u))
        for tail_eps in (1e-16, 1e-6):
            assert p.cumulative_table(tail_eps) == q.cumulative_table(tail_eps)

    def test_pmf_sides_sum_to_one_and_disjoint(self):
        rng = random.Random(133)
        for _ in range(30):
            coeffs = [rng.uniform(-3, 3) for _ in range(rng.randrange(2, 10))]
            T = TaylorMeasure(finite_sequence(coeffs), rng.uniform(0.2, 2.0))
            try:
                pair = probability_pair(T)
            except DegenerateDistribution:
                continue
            for q in (pair.q_pos, pair.q_neg):
                if q is None:
                    continue
                total = math.fsum(q.pmf(n) for n in range(12))
                assert total == pytest.approx(1.0, abs=1e-11)
            if pair.q_pos is not None and pair.q_neg is not None:
                for n in range(12):
                    assert min(pair.q_pos.pmf(n), pair.q_neg.pmf(n)) == 0.0

    def test_reconstruction_matches_evaluate_randomized(self):
        rng = random.Random(211)
        checked = 0
        for _ in range(200):
            coeffs = [rng.uniform(-4, 4) for _ in range(rng.randrange(1, 9))]
            gamma = rng.uniform(-1.8, 1.8)
            T = TaylorMeasure(finite_sequence(coeffs), gamma)
            try:
                pair = probability_pair(T)
            except DegenerateDistribution:
                continue
            if rng.random() < 0.5:
                B = NatSet.finite([n for n in range(12) if rng.random() < 0.4])
            else:
                B = NatSet.cofinite([n for n in range(6) if rng.random() < 0.4])
            lhs = pair.reconstruct(B)
            rhs = evaluate(T, B)
            assert abs(lhs.value - rhs.value) <= lhs.abs_error + rhs.abs_error + 1e-13
            checked += 1
        assert checked >= 150


# sets near a pmf's mode: indices round(mode) + offset, cut at 0
_near_mode = st.tuples(st.sampled_from(["finite", "cofinite", "all"]),
                       st.lists(st.integers(-60, 60), max_size=60))


def _near(kind, offsets, mode):
    if kind == "all":
        return ALL
    return NatSet(kind, tuple(max(0, round(mode) + k) for k in offsets))


def _exact_probability(weight, mass, B):
    """B's probability for exact weights and mass, in mpmath."""
    if B.is_finite:
        return mp.fsum(weight(n) for n in B.elements) / mass
    return 1 - mp.fsum(weight(n) for n in B.elements) / mass


def _holds(got, exact):
    return abs(mp.mpf(got.value) - exact) <= got.abs_error


class TestSetProbabilityBound:
    """set_probability against mpmath at 80 digits: |value - exact| <=
    abs_error with no slack. Past n = 170 the weights come from logs; the
    pinned example, a single index at the Poisson(200) mode, once missed
    its bound 660 times over."""

    @given(st.one_of(st.tuples(st.just("constant"), st.floats(0.1, 5.0)),
                     st.tuples(st.just("geometric"), st.floats(0.1, 5.0),
                               st.floats(0.05, 1.2))),
           st.one_of(st.just(0.0), st.floats(0.05, 500.0)), _near_mode,
           st.sampled_from([1e-12, 1e-6]))
    @example(("constant", 1.0), 200.0, ("finite", [0]), 1e-12)
    @example(("constant", 1.0), 150.0, ("finite", list(range(-30, 30))), 1e-12)
    @example(("constant", 1.0), 200.0, ("cofinite", list(range(-10, 10))), 1e-12)
    @settings(max_examples=100, deadline=None)
    def test_power_series_pmf(self, b, zeta, sets, eps):
        if b[0] == "constant":
            seq, ratio = constant_sequence(b[1]), 1.0
        else:
            seq, ratio = geometric_sequence(b[1], b[2]), b[2]
        p = PowerSeriesPmf(zeta, seq)
        B = _near(*sets, zeta * ratio)
        with mp.workdps(80):
            z, scale, r = mp.mpf(zeta), mp.mpf(b[1]), mp.mpf(ratio)
            mass = scale * mp.exp(r * z)
            exact = _exact_probability(
                lambda n: scale * (r * z) ** n / mp.factorial(n), mass, B)
            assert _holds(p.set_probability(B, eps), exact)

    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
           st.floats(-3.0, 3.0), st.floats(0.5, 300.0), _near_mode)
    @settings(max_examples=100, deadline=None)
    def test_jordan_sides(self, prefix, c, gamma, sets):
        T = TaylorMeasure(constant_sequence(c, prefix), gamma)
        pair = _outcome(lambda: probability_pair(T))
        if pair is DegenerateDistribution:
            return
        B = _near(*sets, gamma)
        with mp.workdps(80):
            g = mp.mpf(gamma)

            def term(n):
                a = prefix[n] if n < len(prefix) else c
                return mp.mpf(a) * g ** n / mp.factorial(n)

            head = mp.fsum(g ** n / mp.factorial(n) for n in range(len(prefix)))
            for sign, q in ((1, pair.q_pos), (-1, pair.q_neg)):
                if q is None:
                    continue

                def weight(n, sign=sign):
                    return max(sign * term(n), 0)

                mass = (mp.fsum(weight(n) for n in range(len(prefix)))
                        + max(sign * mp.mpf(c), 0) * (mp.exp(g) - head))
                assert _holds(q.set_probability(B), _exact_probability(weight, mass, B))


class TestFromPmf:
    def test_geometric_list_coefficients(self):
        probs = [0.5 ** (n + 1) for n in range(30)]
        probs[-1] *= 2.0  # close the geometric sum so it is exactly 1
        T = from_pmf(probs, gamma=1.0)
        a = [T.coefficients.a(n) for n in range(4)]
        assert a[0] == pytest.approx(0.5, abs=1e-15)
        assert a[1] == pytest.approx(0.25, abs=1e-15)
        assert a[2] == pytest.approx(0.25, abs=1e-15)
        assert a[3] == pytest.approx(0.375, abs=1e-15)

    def test_geometric_tail_sequence(self):
        p = CoefficientSequence((), GeometricTail(0.5, 0.5))
        T = from_pmf(p, gamma=1.0)
        for n in range(6):
            assert T.term(n) == 0.5 ** (n + 1)
        mv = evaluate(T, ALL, eps=1e-13)
        assert mv.value == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        T = from_pmf([1.0], gamma=7.0)
        assert T.coefficients.a(0) == 1.0
        assert T.term(0) == 1.0
        assert evaluate(T, ALL).value == 1.0

    def test_poisson_round_trip_is_tight(self):
        p = PowerSeriesPmf(2.0, ONES, eps=1e-16)
        T = from_pmf(p, gamma=2.0)
        # a_n = n! * f(n) / 2**n is the constant exp(-2)
        for n in range(10):
            assert T.coefficients.a(n) == pytest.approx(math.exp(-2.0), rel=1e-13)
        pair = probability_pair(T, eps=1e-16)
        assert pair.q_neg is None
        worst = max(
            abs(pair.q_pos.pmf(n) - p.pmf(n)) for n in range(40)
        )
        assert worst <= 1e-15

    def test_round_trip_gamma_independent(self):
        probs = [0.2, 0.3, 0.1, 0.4]
        recovered = []
        for gamma in (0.5, 1.0, 3.0):
            T = from_pmf(probs, gamma)
            pair = probability_pair(T, eps=1e-15)
            recovered.append([pair.q_pos.pmf(n) for n in range(4)])
        assert recovered[0] == recovered[1] == recovered[2]
        assert max(abs(r - q) for r, q in zip(recovered[0], probs)) <= 1e-12

    def test_round_trip_randomized(self):
        rng = random.Random(307)
        for _ in range(40):
            k = rng.randrange(1, 12)
            raw = [rng.random() for _ in range(k)]
            s = sum(raw)
            probs = [x / s for x in raw]
            probs[-1] += 1.0 - math.fsum(probs)  # force exact unit sum
            gamma = rng.choice([0.5, 1.0, 3.0])
            T = from_pmf(probs, gamma)
            pair = probability_pair(T, eps=1e-15)
            assert pair.mass_pos == pytest.approx(1.0, abs=1e-12)
            assert pair.mass_neg <= 1e-12
            for n, q in enumerate(probs):
                assert pair.q_pos.pmf(n) == pytest.approx(q, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidPmf):
            from_pmf([0.5, -0.1, 0.6], 1.0)
        with pytest.raises(InvalidPmf):
            from_pmf([0.5, 0.4], 1.0)  # sums to 0.9
        with pytest.raises(ValueError):
            from_pmf([1.0], gamma=0.0)
        with pytest.raises(InvalidPmf):
            from_pmf(CoefficientSequence((0.5,), GeometricTail(0.5, 1.0)), 1.0)


class TestMeasureFromDensities:
    def test_poisson_taylor_total_mass(self):
        T = measure_from_densities(2.0, ONES, 1.0, ONES)
        mv = evaluate(T, ALL, eps=1e-11)
        assert mv.value == pytest.approx(4.670774270471606, abs=1e-10)

    def test_poisson_taylor_small_set(self):
        T = measure_from_densities(2.0, ONES, 1.0, ONES)
        mv = evaluate(T, NatSet.finite([0, 1, 2]))
        assert mv.value == pytest.approx(2.5, abs=1e-14)

    def test_identical_sides_vanish(self):
        T = measure_from_densities(1.5, ONES, 1.5, ONES)
        assert evaluate(T, ALL, eps=1e-12).value == pytest.approx(0.0, abs=1e-12)
        assert T.term(7) == 0.0

    def test_canonical_presentation(self):
        T = measure_from_densities(2.0, ONES, 1.0, ONES)
        assert T.gamma == 1.0
        # coefficients are queryable: a_n = (2**n - 1) since gamma = 1
        assert T.coefficients.a(4) == pytest.approx(15.0 / 24.0 * 24.0, abs=1e-10)

    def test_unverified_side_rejected(self):
        bad = rule_sequence(lambda n: 1.0, Unverified())
        with pytest.raises(DivergenceUnknown):
            measure_from_densities(1.0, ONES, 1.0, bad)

    def test_presentation_equivalence_poisson_taylor(self):
        # same term function in three presentations: the canonical gamma=1
        # device, gamma=2 with a_n = 1 - 2**-n, gamma=1 with a_n = 2**n - 1
        T_canon = measure_from_densities(2.0, ONES, 1.0, ONES)
        T_g2 = TaylorMeasure(
            rule_sequence(lambda n: 1.0 - 2.0 ** -n, Bounded(1.0)), 2.0
        )
        T_g1 = TaylorMeasure(
            rule_sequence(lambda n: 2.0 ** n - 1.0, GeometricEnvelope(1.0, 2.0)), 1.0
        )
        for n in range(61):
            t0 = T_canon.term(n)
            t1 = T_g2.term(n)
            t2 = T_g1.term(n)
            scale = max(abs(t0), 1e-300)
            assert abs(t1 - t0) <= 4.0 * math.ulp(scale) + 4.0 * math.ulp(abs(t1) + 1e-300)
            assert abs(t2 - t0) <= 4.0 * math.ulp(scale) + 4.0 * math.ulp(abs(t2) + 1e-300)
