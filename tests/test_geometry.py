import hashlib
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

import taylormeasure.geometry as geometry
from taylormeasure import (
    Bounded,
    DivergenceUnknown,
    FiniteSupport,
    GeometricEnvelope,
    NatSet,
    NonFiniteResult,
    PrecisionUnattainable,
    TaylorMeasure,
    TaylorMeasureError,
    TermBackedSequence,
    Unverified,
    constant_sequence,
    distance,
    finite_sequence,
    geometric_sequence,
    hilbert_axiom_report,
    inner_product,
    linear_combination,
    norm,
    rational_approximation,
    rule_sequence,
    zero_measure,
)

ONES = TaylorMeasure(constant_sequence(1.0), 1.0)
ALL = NatSet.all()


def _outcome(call):
    """A call's MeasureValue, or the type of the package error it raised."""
    try:
        return call()
    except TaylorMeasureError as exc:
        return type(exc)


def random_measure(rng, max_len=10):
    coeffs = [rng.uniform(-3.0, 3.0) for _ in range(rng.randrange(1, max_len))]
    return TaylorMeasure(finite_sequence(coeffs), rng.uniform(-2.0, 2.0))


class TestInnerProduct:
    def test_unit_pair_gives_e(self):
        mv = inner_product(ONES, ONES, ALL, eps=1e-13)
        assert mv.value == pytest.approx(math.e, rel=1e-12)

    def test_gamma_product_six(self):
        T1 = TaylorMeasure(constant_sequence(1.0), 2.0)
        T2 = TaylorMeasure(constant_sequence(1.0), 3.0)
        mv = inner_product(T1, T2, ALL, eps=1e-9)
        assert mv.value == pytest.approx(403.4287934927351, rel=1e-12)

    def test_zero_operand(self):
        assert inner_product(ONES, zero_measure(), ALL).value == 0.0
        assert inner_product(zero_measure(), ONES, NatSet.finite([0, 3])).value == 0.0

    def test_finite_set_selects_indices(self):
        mv = inner_product(ONES, ONES, NatSet.finite([0, 2]), eps=1e-13)
        assert mv.value == pytest.approx(1.0 + 1.0 / 2.0, rel=1e-14)

    def test_cofinite_set(self):
        mv = inner_product(ONES, ONES, NatSet.cofinite([0]), eps=1e-13)
        assert mv.value == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_unverified_operand_rejected_on_infinite_sets(self):
        Tu = TaylorMeasure(rule_sequence(lambda n: 1.0, Unverified()), 1.0)
        with pytest.raises(DivergenceUnknown):
            inner_product(Tu, ONES, ALL)
        # a finite set stays legal
        assert inner_product(Tu, ONES, NatSet.finite([1])).value == 1.0

    def test_presentation_invariance(self):
        # same term function, two presentations: a_n = 2**n at gamma = 1
        # versus a_n = 1 at gamma = 2
        T_a = TaylorMeasure(
            rule_sequence(lambda n: 2.0 ** n, Bounded(1.0)), 1.0
        )
        T_b = TaylorMeasure(constant_sequence(1.0), 2.0)
        # certificate of T_a is deliberately loose (Bounded(1) at gamma=1
        # undershoots); use a sound one instead
        from taylormeasure import GeometricEnvelope

        T_a = TaylorMeasure(
            rule_sequence(lambda n: 2.0 ** n, GeometricEnvelope(1.0, 2.0)), 1.0
        )
        va = inner_product(T_a, ONES, ALL, eps=1e-12).value
        vb = inner_product(T_b, ONES, ALL, eps=1e-12).value
        assert va == pytest.approx(vb, rel=1e-13)

    def test_summand_identity_randomized(self):
        # n! * p1(n) * p2(n) == a1 * a2 * (g1*g2)**n / n! within a few ulp
        rng = random.Random(314)
        for _ in range(300):
            n = rng.randrange(0, 40)
            a1, a2 = rng.uniform(-4, 4), rng.uniform(-4, 4)
            g1, g2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
            T1 = TaylorMeasure(
                finite_sequence([0.0] * n + [a1]), g1
            )
            T2 = TaylorMeasure(
                finite_sequence([0.0] * n + [a2]), g2
            )
            got = inner_product(T1, T2, NatSet.finite([n])).value
            exact = float(
                Fraction(a1) * Fraction(a2) * Fraction(g1) ** n * Fraction(g2) ** n
                / math.factorial(n)
            )
            if exact == 0.0:
                assert got == 0.0
            else:
                assert abs(got - exact) <= 4.0 * math.ulp(abs(exact))

    def test_additive_over_disjoint_finite_sets(self):
        rng = random.Random(5)
        T1 = random_measure(rng)
        T2 = random_measure(rng)
        s1 = NatSet.finite([0, 2, 5])
        s2 = NatSet.finite([1, 3])
        union = NatSet.finite([0, 1, 2, 3, 5])
        lhs = inner_product(T1, T2, union).value
        rhs = inner_product(T1, T2, s1).value + inner_product(T1, T2, s2).value
        assert lhs == pytest.approx(rhs, abs=1e-13)


def _reference_rho_sum(T1, T2, indices):
    """The rho sum over every index, with no early refusal."""
    acc, err = geometry._NeumaierSum(), geometry._NeumaierSum()
    for n in indices:
        v, e = geometry._rho_summand(T1, T2, n)
        acc.add(v)
        err.add(e + geometry._ULP * abs(v))
    return geometry._RhoSum(acc.value, err.value)


class TestEarlyRefusal:
    def test_overflowing_distance_stops_at_first_nonfinite_summand(self, monkeypatch):
        # the plan for exp@2 - exp@50 on all of N runs to n = 6818; the
        # summands leave the float range at n = 201
        calls = []
        summand = geometry._rho_summand

        def counted(T1, T2, n):
            calls.append(n)
            return summand(T1, T2, n)

        monkeypatch.setattr(geometry, "_rho_summand", counted)
        T1 = TaylorMeasure(constant_sequence(1.0), 2.0)
        T2 = TaylorMeasure(constant_sequence(1.0), 50.0)
        with pytest.raises(NonFiniteResult):
            distance(T1, T2, ALL, 1e-12)
        assert len(calls) <= 202

    def test_finite_inner_products_unchanged(self, monkeypatch):
        rng = random.Random(23)
        pairs = [(random_measure(rng), random_measure(rng)) for _ in range(20)]
        pairs.append((ONES, TaylorMeasure(constant_sequence(1.0), 30.0)))
        sets = (ALL, NatSet.finite([0, 3, 4, 9]), NatSet.cofinite([1, 2]))
        got = [_outcome(lambda: inner_product(a, b, B)) for a, b in pairs for B in sets]
        monkeypatch.setattr(geometry, "_rho_sum", _reference_rho_sum)
        assert got == [_outcome(lambda: inner_product(a, b, B)) for a, b in pairs for B in sets]
        # rho(1@1, 1@30) = e**30 on N: half an ulp of it exceeds eps = 1e-12
        assert got[-3] is PrecisionUnattainable


def _p14(n):
    """14**n / n!, through logs where 14**n or n! leaves the float range."""
    return math.exp(n * math.log(14.0) - math.lgamma(n + 1))


class TestLogPathSummand:
    def test_term_errors_past_the_linear_range(self):
        # stored terms 1e-6 above p(n) = 14**n / n!, declared within
        # 1.01e-6 p(n): rho(T, T)(N) sits 2e-6 above e**196, and the
        # summands near the peak at n = 196 take the log path
        seq = TermBackedSequence(lambda n: _p14(n) * (1.0 + 1e-6), 1.0,
                                 GeometricEnvelope(1.0 + 1e-5, 14.0),
                                 term_error=lambda n: 1.01e-6 * _p14(n))
        T = TaylorMeasure(seq, 1.0)
        mv = inner_product(T, T, ALL, 1e70)
        with mp.workdps(40):
            miss = abs(mp.mpf(mv.value) - mp.exp(196))
        assert miss > 1e79
        assert miss <= mv.abs_error

    def test_each_operand_is_formed_once(self, monkeypatch):
        reads, lgammas, logs = [], [], []
        lgamma, signed_log = math.lgamma, geometry._signed_log

        def rule(n):
            reads.append(n)
            return 1.5

        monkeypatch.setattr(math, "lgamma", lambda x: lgammas.append(x) or lgamma(x))
        monkeypatch.setattr(geometry, "_signed_log",
                            lambda *args: logs.append(args) or signed_log(*args))
        T1 = TaylorMeasure(rule_sequence(rule, Bounded(1.5)), 30.0)
        T2 = TaylorMeasure(constant_sequence(-0.5), -20.0)
        v, e = geometry._rho_summand(T1, T2, 500)
        assert (len(lgammas), len(logs), reads) == (1, 2, [500])
        # a norm's summand: its one operand is formed once
        del lgammas[:], logs[:], reads[:]
        w, f = geometry._rho_summand(T1, T1, 500)
        monkeypatch.undo()
        assert (len(lgammas), len(logs), reads) == (1, 1, [500])
        with mp.workdps(40):
            exact = mp.mpf(1.5) * mp.mpf(-0.5) * mp.mpf(-600) ** 500 / mp.factorial(500)
            assert 0.0 < abs(v - exact) <= e
            exact = mp.mpf(1.5) ** 2 * mp.mpf(900) ** 500 / mp.factorial(500)
            assert 0.0 < abs(w - exact) <= f

    def test_zero_operands_carry_their_term_errors(self):
        # stored terms 0, each within 1e-3 of the exact one: at n = 5 the
        # summand n! p(n)**2 may be as large as 5! * 1e-3 * 1e-3 = 1.2e-4
        T = TaylorMeasure(TermBackedSequence(lambda n: 0.0, 1.0, Bounded(1.0),
                                             term_error=lambda n: 1e-3), 1.0)
        mv = inner_product(T, T, NatSet.finite([5]))
        assert mv.value == 0.0
        assert 1.2e-4 <= mv.abs_error <= 1.21e-4
        # against the exact term 2 / 5! the summand may reach 5! (2 / 5!) 1e-3
        U = TaylorMeasure(finite_sequence([0.0] * 5 + [2.0]), 1.0)
        mv = inner_product(T, U, NatSet.finite([5]))
        assert mv.value == 0.0
        assert 2e-3 <= mv.abs_error <= 2.01e-3
        # with no term errors an exact zero operand makes the summand exactly 0
        zero_at_0 = TaylorMeasure(constant_sequence(1.0), 0.0)
        mv = inner_product(zero_at_0, TaylorMeasure(constant_sequence(1.0), 50.0),
                           NatSet.finite([171, 400]))
        assert (mv.value, mv.abs_error) == (0.0, 0.0)

    def test_nan_coefficient_raises(self):
        T = TaylorMeasure(rule_sequence(lambda n: math.nan if n > 200 else 1.0, Bounded(1.0)), 2.0)
        with pytest.raises(ValueError, match="a_500 is nan"):
            inner_product(T, ONES, NatSet.finite([3, 500]))


class TestSelfPairing:
    """inner_product(T, T, B) and norm(T, B) form each term of T once; the
    results are those of the same calls on a distinct copy of T, bit for bit."""

    # each with an eps that its inner product on all of N can meet: rho(T, T)
    # is near e**196 = 1.3e85 at gamma 14 and 4 e**5.06 = 632 for the geometric
    MEASURES = {
        "constant": (TaylorMeasure(constant_sequence(1.0), 14.0), 1e70),
        "geometric": (TaylorMeasure(geometric_sequence(-2.0, 0.75), -3.0), 1e-12),
        "term_error": (TaylorMeasure(TermBackedSequence(
            lambda n: _p14(n) * (1.0 + 1e-6), 1.0, GeometricEnvelope(1.0 + 1e-5, 14.0),
            term_error=lambda n: 1.01e-6 * _p14(n)), 1.0), 1e80),
        "linear_combination": (linear_combination(
            1.0, TaylorMeasure(constant_sequence(1.0), 14.0),
            -1.0, TaylorMeasure(geometric_sequence(0.5, 1.5), 6.0)), 1e74),
    }

    @pytest.mark.parametrize("B", [NatSet.finite([0, 5, 171, 196, 400]), NatSet.cofinite([0, 196]), ALL],
                             ids=["finite", "cofinite", "all"])
    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_same_bits_as_a_distinct_copy(self, monkeypatch, name, B):
        T, eps = self.MEASURES[name]
        calls = (lambda: inner_product(T, T, B, eps), lambda: norm(T, B, 1e-12))
        same = [_outcome(call) for call in calls]
        rho_terms = geometry._RhoTerms
        monkeypatch.setattr(geometry, "_RhoTerms",
                            lambda T1, T2: rho_terms(T1, TaylorMeasure(T2.coefficients, T2.gamma)))
        copied = [_outcome(call) for call in calls]
        assert repr(same) == repr(copied)


class TestNorm:
    def test_unit_measure(self):
        mv = norm(ONES, ALL, eps=1e-13)
        assert mv.value == pytest.approx(math.sqrt(math.e), rel=1e-12)

    def test_zero_measure(self):
        assert norm(zero_measure(), ALL).value == 0.0

    def test_single_term(self):
        T = TaylorMeasure(finite_sequence([0.0, 0.0, 3.0]), 1.0)  # p(2) = 1.5
        mv = norm(T, ALL)
        assert mv.value == pytest.approx(2.1213203435596424, rel=1e-14)

    def test_nonnegative_on_random_inputs(self):
        rng = random.Random(11)
        for _ in range(50):
            T = random_measure(rng)
            assert norm(T, ALL).value >= 0.0


class TestDistance:
    def test_identity_of_indiscernibles(self):
        mv = distance(ONES, ONES, ALL, eps=1e-13)
        assert mv.value <= 1e-12

    def test_distance_to_zero_is_norm(self):
        mv = distance(ONES, zero_measure(), ALL, eps=1e-13)
        assert mv.value == pytest.approx(math.sqrt(math.e), rel=1e-12)

    def test_agreeing_terms_on_subset(self):
        T1 = TaylorMeasure(constant_sequence(1.0), 2.0)
        # p(0) = 1 for both, so they are indistinguishable on {0}
        assert distance(T1, ONES, NatSet.finite([0])).value == 0.0

    def test_symmetry(self):
        rng = random.Random(23)
        for _ in range(25):
            T1, T2 = random_measure(rng), random_measure(rng)
            d12 = distance(T1, T2, ALL).value
            d21 = distance(T2, T1, ALL).value
            assert d12 == pytest.approx(d21, rel=1e-12, abs=1e-14)

    def test_triangle_inequality(self):
        rng = random.Random(29)
        for _ in range(40):
            T1, T2, T3 = (random_measure(rng) for _ in range(3))
            d13 = distance(T1, T3, ALL).value
            d12 = distance(T1, T2, ALL).value
            d23 = distance(T2, T3, ALL).value
            assert d13 <= d12 + d23 + 1e-10 * (1.0 + d12 + d23)

    def test_cauchy_truncations_converge_monotonically(self):
        # prefixes of the unit measure form a Cauchy sequence with
        # d(T_k, T)**2 = sum_{n >= k} 1/n!, strictly decreasing to 0
        dists = []
        for k in range(1, 14):
            Tk = TaylorMeasure(finite_sequence([1.0] * k), 1.0)
            dists.append(distance(Tk, ONES, ALL, eps=1e-16).value)
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-4
        assert dists[0] == pytest.approx(math.sqrt(math.e - 1.0), rel=1e-10)


class TestRationalApproximation:
    def test_zero_measure_passthrough(self):
        out = rational_approximation(zero_measure(), 0.5)
        assert out.gamma == 1.0
        assert distance(out, zero_measure(), ALL).value == 0.0

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
    def test_unit_measure_within_tolerance(self, tol):
        out = rational_approximation(ONES, tol)
        d = distance(ONES, out, ALL, eps=tol * tol / 100.0).value
        assert d <= tol

    def test_single_term_rounding(self):
        T = TaylorMeasure(finite_sequence([0.0, 0.0, 0.0, 2.0]), 1.0)  # p(3) = 1/3
        out = rational_approximation(T, 1e-9)
        q = Fraction(out.term(3))
        # dyadic: denominator is a power of two, at least 2**40 fine
        assert q.denominator & (q.denominator - 1) == 0
        assert abs(q - Fraction(1, 3)) <= Fraction(1, 2 ** 40)
        assert distance(T, out, ALL).value <= 1e-9

    def test_coefficients_are_dyadic(self):
        T = TaylorMeasure(constant_sequence(1.0), -1.5)
        out = rational_approximation(T, 1e-6)
        for n in range(8):
            c = Fraction(out.coefficients.a(n))
            assert c.denominator & (c.denominator - 1) == 0

    def test_recomputed_distance_randomized(self):
        rng = random.Random(61)
        for _ in range(20):
            T = random_measure(rng)
            tol = 10.0 ** rng.uniform(-9, -2)
            out = rational_approximation(T, tol)
            assert distance(T, out, ALL).value <= tol

    def test_overflowing_coefficients_keep_their_terms(self):
        # at gamma = 60 the coefficients n! q_n pass the float range, so the
        # result stores its terms q_n; pinned bit for bit
        out = rational_approximation(TaylorMeasure(constant_sequence(1.0), 60.0), 1e-3)
        assert out.coefficients.certificate == FiniteSupport(582)
        terms = [out.term(n) for n in range(585)]
        assert terms[:3] == [1.0, 60.0, 1800.0]
        assert terms[580:] == [0x5a * 2.0 ** -1074, 9 * 2.0 ** -1074, 2.0 ** -1074, 0.0, 0.0]
        digest = hashlib.sha256(" ".join(t.hex() for t in terms).encode()).hexdigest()
        assert digest == "1f54b42560b4f8e2a568a990274a4ad104c540c0eddd6a4a5b3218ffeb1814ad"

    def test_support_cap_too_small(self):
        with pytest.raises(ValueError):
            rational_approximation(ONES, 1e-9, N_support=2)

    def test_unverified_rejected(self):
        Tu = TaylorMeasure(rule_sequence(lambda n: 1.0, Unverified()), 1.0)
        with pytest.raises(DivergenceUnknown):
            rational_approximation(Tu, 1e-3)


class TestHilbertAxiomReport:
    def test_residuals_small_for_rho(self):
        rng = random.Random(101)
        samples = [random_measure(rng) for _ in range(8)]
        samples.append(TaylorMeasure(constant_sequence(1.0), 1.5))
        samples.append(TaylorMeasure(constant_sequence(0.5), -1.0))
        rep = hilbert_axiom_report(samples, ALL, eps=1e-13, seed=7)
        assert rep.pairs_checked == 45
        assert rep.symmetry_max <= 1e-12
        assert rep.bilinearity_max <= 1e-9
        assert rep.cauchy_schwarz_min_slack >= -1e-10
        assert rep.parallelogram_rho_max <= 1e-9

    def test_total_variation_counterexample(self):
        T1 = TaylorMeasure(finite_sequence([1.0]), 1.0)
        T2 = TaylorMeasure(finite_sequence([0.0, 1.0]), 1.0)
        rep = hilbert_axiom_report([T1, T2], ALL, eps=1e-13)
        # ||T1+T2||^2 + ||T1-T2||^2 = 8 versus 2(1+1) = 4 in variation norm
        assert rep.parallelogram_tv_max == pytest.approx(4.0, abs=1e-12)
        assert rep.parallelogram_rho_max <= 1e-12

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            hilbert_axiom_report([ONES], ALL)
