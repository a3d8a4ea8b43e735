import math
import random

import pytest

from taylormeasure import (
    Bounded,
    DivergenceUnknown,
    FiniteSupport,
    MeasureValue,
    NatSet,
    NonFiniteResult,
    TaylorMeasure,
    TaylorMeasureError,
    Unverified,
    constant_sequence,
    distance,
    evaluate,
    finite_sequence,
    jordan_decompose,
    linear_combination,
    norm,
    rule_sequence,
    taylor_derivative,
    total_variation,
    zero_measure,
)

E_MEASURE = TaylorMeasure(constant_sequence(1.0), 1.0)


class TestNatSet:
    def test_finite_membership(self):
        s = NatSet.finite([3, 1, 3, 7])
        assert s.elements == (1, 3, 7)
        assert 3 in s and 2 not in s
        assert s.is_finite

    def test_cofinite_membership(self):
        s = NatSet.cofinite([0, 2])
        assert 0 not in s and 2 not in s
        assert 1 in s and 100 in s
        assert not s.is_finite

    def test_empty_cofinite_normalizes_to_all(self):
        assert NatSet.cofinite([]) == NatSet.all()
        assert 12345 in NatSet.all()

    def test_rejects_negatives(self):
        with pytest.raises(ValueError):
            NatSet.finite([-1])


class TestEvaluate:
    def test_exponential_on_all(self):
        mv = evaluate(E_MEASURE, NatSet.all(), eps=1e-13)
        assert mv.value == pytest.approx(math.e, rel=1e-12)
        assert abs(mv.value - math.e) <= mv.abs_error

    def test_finite_set_is_exact_split(self):
        T = TaylorMeasure(finite_sequence([1.0, -2.0, 3.0]), 1.0)
        mv = evaluate(T, NatSet.finite([0, 1, 2]))
        assert mv.value == 0.5

    def test_empty_set(self):
        mv = evaluate(E_MEASURE, NatSet.finite([]))
        assert mv.value == 0.0 and mv.abs_error == 0.0

    def test_cofinite_complement(self):
        mv = evaluate(E_MEASURE, NatSet.cofinite([0]), eps=1e-13)
        assert mv.value == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_certified_error_covers_truth(self):
        # gamma = 6: value e**6 = 403.4287934927351
        T = TaylorMeasure(constant_sequence(1.0), 6.0)
        mv = evaluate(T, NatSet.all(), eps=1e-9)
        assert abs(mv.value - 403.4287934927351) <= mv.abs_error + 1e-12

    def test_unverified_on_infinite_set_raises(self):
        T = TaylorMeasure(
            rule_sequence(lambda n: 1.0, Unverified()), 1.0
        )
        with pytest.raises(DivergenceUnknown):
            evaluate(T, NatSet.all())
        # finite sets never need a certificate
        mv = evaluate(T, NatSet.finite([0, 1]))
        assert mv.value == 2.0

    def test_finite_additivity_randomized(self):
        rng = random.Random(41)
        T = TaylorMeasure(finite_sequence([rng.uniform(-4, 4) for _ in range(30)]), 1.3)
        for _ in range(50):
            pool = [n for n in range(40) if rng.random() < 0.5]
            cut = rng.randrange(len(pool) + 1)
            a, b = pool[:cut], pool[cut:]
            whole = evaluate(T, NatSet.finite(pool)).value
            parts = evaluate(T, NatSet.finite(a)).value + evaluate(T, NatSet.finite(b)).value
            assert whole == pytest.approx(parts, abs=1e-13)

    def test_countable_additivity_against_singletons(self):
        T = TaylorMeasure(constant_sequence(1.0), 2.0)
        mv = evaluate(T, NatSet.all(), eps=1e-13)
        singles = math.fsum(
            evaluate(T, NatSet.finite([n])).value for n in range(80)
        )
        assert mv.value == pytest.approx(singles, abs=1e-12)


class TestDerivativeView:
    def test_reads_off_terms(self):
        T = TaylorMeasure(finite_sequence([5.0, 0.0, -3.0]), 2.0)
        assert taylor_derivative(T, 0) == 5.0
        assert taylor_derivative(T, 2) == -6.0
        assert taylor_derivative(T, 7) == 0.0

    def test_gamma_zero_keeps_only_a0(self):
        T = TaylorMeasure(finite_sequence([4.0, 9.0]), 0.0)
        assert taylor_derivative(T, 0) == 4.0
        assert taylor_derivative(T, 1) == 0.0


class TestJordan:
    def test_sign_split_masses(self):
        T = TaylorMeasure(finite_sequence([1.0, -2.0, 3.0]), 1.0)
        pair = jordan_decompose(T)
        s = NatSet.finite([0, 1, 2])
        assert pair.positive(s).value == 2.5
        assert pair.negative(s).value == 2.0

    def test_total_variation_example(self):
        T = TaylorMeasure(finite_sequence([1.0, -2.0, 3.0]), 1.0)
        assert total_variation(T, NatSet.finite([0, 1, 2])).value == 4.5

    def test_alternating_series_gives_cosh_sinh(self):
        T = TaylorMeasure(constant_sequence(1.0), -1.0)
        pair = jordan_decompose(T)
        pos = pair.positive(NatSet.all(), eps=1e-13)
        neg = pair.negative(NatSet.all(), eps=1e-13)
        assert pos.value == pytest.approx(1.5430806348152437, rel=1e-12)  # cosh 1
        assert neg.value == pytest.approx(1.1752011936438014, rel=1e-12)  # sinh 1
        assert (pos.value - neg.value) == pytest.approx(1.0 / math.e, rel=1e-11)

    def test_hahn_indicator_matches_split(self):
        T = TaylorMeasure(finite_sequence([1.0, -2.0, 0.0, 3.0]), -1.5)
        pair = jordan_decompose(T)
        for n in range(6):
            assert pair.hahn_positive_indicator(n) == (T.term(n) >= 0.0)

    def test_identity_and_mutual_singularity(self):
        rng = random.Random(17)
        for _ in range(40):
            coeffs = [rng.uniform(-5, 5) for _ in range(12)]
            gamma = rng.uniform(-3, 3)
            T = TaylorMeasure(finite_sequence(coeffs), gamma)
            pair = jordan_decompose(T)
            pool = [n for n in range(15) if rng.random() < 0.6]
            s = NatSet.finite(pool)
            mu = evaluate(T, s).value
            p, q = pair.positive(s).value, pair.negative(s).value
            assert p >= 0.0 and q >= 0.0
            assert mu == pytest.approx(p - q, abs=1e-13)
            # the split never books mass of both signs on one index
            for n in pool:
                one = NatSet.finite([n])
                assert min(pair.positive(one).value, pair.negative(one).value) == 0.0


class TestLinearCombination:
    def test_exact_pointwise_terms(self):
        T1 = TaylorMeasure(constant_sequence(1.0), 1.0)
        T2 = TaylorMeasure(constant_sequence(1.0), 2.0)
        lc = linear_combination(0.75, T1, -1.25, T2)
        for n in range(0, 101, 7):
            expected = 0.75 * T1.term(n) + (-1.25) * T2.term(n)
            assert lc.term(n) == expected

    def test_mass_of_difference(self):
        # e**2 - e = 4.670774270471606
        lc = linear_combination(
            1.0, TaylorMeasure(constant_sequence(1.0), 2.0), -1.0, E_MEASURE
        )
        mv = evaluate(lc, NatSet.all(), eps=1e-12)
        assert mv.value == pytest.approx(4.670774270471606, abs=5e-12)

    def test_scaling(self):
        T = TaylorMeasure(finite_sequence([1.0, -2.0, 3.0]), 1.0)
        lc = linear_combination(2.0, T, 0.0, zero_measure())
        assert evaluate(lc, NatSet.finite([0, 1, 2])).value == pytest.approx(1.0, abs=1e-15)

    def test_finite_supports_stay_finite(self):
        T1 = TaylorMeasure(finite_sequence([1.0, 2.0]), 1.0)
        T2 = TaylorMeasure(finite_sequence([0.0, 0.0, 3.0]), 2.0)
        lc = linear_combination(1.0, T1, 1.0, T2)
        assert isinstance(lc.coefficients.certificate, FiniteSupport)
        assert lc.coefficients.certificate.last == 2
        mv = evaluate(lc, NatSet.all())
        assert mv.value == pytest.approx(1.0 + 2.0 + 6.0, abs=1e-14)
        assert mv.abs_error <= 1e-13

    def test_combined_certificate_still_evaluates(self):
        T1 = TaylorMeasure(constant_sequence(1.0), -1.0)
        lc = linear_combination(3.0, T1, 2.0, E_MEASURE)
        mv = evaluate(lc, NatSet.all(), eps=1e-12)
        assert mv.value == pytest.approx(3.0 / math.e + 2.0 * math.e, rel=1e-11)

    def test_unverified_side_poisons_certificate(self):
        Tu = TaylorMeasure(rule_sequence(lambda n: 1.0, Unverified()), 1.0)
        lc = linear_combination(1.0, Tu, 1.0, E_MEASURE)
        with pytest.raises(DivergenceUnknown):
            evaluate(lc, NatSet.all())


class TestBoundedGamma:
    def test_bounded_certificate_evaluates_any_gamma(self):
        # sum(9**n / n!) = e**9
        T = TaylorMeasure(constant_sequence(1.0), 9.0)
        mv = evaluate(T, NatSet.all(), eps=1e-9)
        assert mv.value == pytest.approx(math.exp(9.0), rel=1e-12)


class TestNonFiniteResult:
    """A result beyond the float range is refused, not returned as nan."""

    def test_evaluate_beyond_float_range(self):
        # e**720 overflows
        T = TaylorMeasure(constant_sequence(1.0), 720.0)
        with pytest.raises(NonFiniteResult):
            evaluate(T, NatSet.all(), 1e300)

    def test_norm_beyond_float_range(self):
        # rho(exp@50, exp@50) = e**2500
        T = TaylorMeasure(constant_sequence(1.0), 50.0)
        with pytest.raises(NonFiniteResult):
            norm(T, NatSet.all())

    def test_distance_beyond_float_range(self):
        T1 = TaylorMeasure(constant_sequence(1.0), 2.0)
        T2 = TaylorMeasure(constant_sequence(1.0), 50.0)
        with pytest.raises(NonFiniteResult):
            distance(T1, T2, NatSet.all(), 1e-12)

    def test_is_a_package_error(self):
        assert issubclass(NonFiniteResult, TaylorMeasureError)
        with pytest.raises(NonFiniteResult):
            MeasureValue(math.inf, 0.0)
        with pytest.raises(NonFiniteResult):
            MeasureValue(1.0, math.nan)
