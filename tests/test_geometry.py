import hashlib
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import taylormeasure.geometry as geometry
import taylormeasure.kernel as kernel
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

    def test_tail_bound_of_tiny_operands(self):
        # the rho envelope's scale (5e-324)**2 underflows; its tail bound
        # must not read 0 where the summands' tail is 2.4e-647 * (e**4 - 1)
        T = TaylorMeasure(constant_sequence(5e-324), 2.0)
        plan = geometry._RhoTerms(T, T).plan(1e-12)
        with mp.workdps(50):
            tail = mp.mpf(5e-324) ** 2 * (mp.exp(4) - mp.fsum(
                mp.mpf(4) ** n / mp.factorial(n) for n in range(plan.last_index + 1)))
            assert plan.tail_bound >= tail > 0

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


def _reference_rho_pairs(T1, T2, indices):
    """The rho summands, one _rho_summand per index, with no early refusal."""
    return [geometry._rho_summand(T1, T2, n) for n in indices]


class TestEarlyRefusal:
    def test_overflowing_distance_stops_at_first_nonfinite_summand(self, monkeypatch):
        # the plan for exp@2 - exp@50 on all of N runs to n = 6818; the
        # summands leave the float range at n = 201
        calls = []
        summand = geometry._rho_summand

        def counted(T1, T2, n, terms=None):
            calls.append(n)
            return summand(T1, T2, n, terms)

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
        monkeypatch.setattr(geometry, "_rho_pairs", _reference_rho_pairs)
        assert got == [_outcome(lambda: inner_product(a, b, B)) for a, b in pairs for B in sets]
        # rho(1@1, 1@30) = e**30 on N: half an ulp of it exceeds eps = 1e-12
        assert got[-3] is PrecisionUnattainable

    def test_mixed_signs_are_split_by_the_kernel_pass(self):
        # summands of 1@3 against 1@-2 alternate in sign; the pass sums the
        # positive ones and the negated negative ones apart
        T1 = TaylorMeasure(constant_sequence(1.0), 3.0)
        T2 = TaylorMeasure(geometric_sequence(1.5, 0.5), -2.0)
        indices = list(range(40)) + [171, 180, 250]
        summands = _reference_rho_pairs(T1, T2, indices)
        assert {v > 0.0 for v, _ in summands} == {True, False}
        s = geometry._RhoTerms(T1, T2).sum(indices)
        assert isinstance(s, kernel._SignSplit)
        for name, chosen in (("pos", [v for v, _ in summands if v > 0.0]),
                             ("neg", [-v for v, _ in summands if v < 0.0])):
            alone = kernel.sum_terms(kernel._finite_terms(chosen), 1.0, range(len(chosen)))
            assert s.part(name, 0.0)[0] == alone[0]


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


def _within(mv, exact):
    """mv's value lies within its abs_error of exact, an mpf."""
    assert abs(mp.mpf(mv.value) - exact) <= mv.abs_error


def _float_operand(a, gamma, drift):
    """a * gamma**n / n! as a constant sequence at gamma or, for a drift,
    as stored terms each off by that relative drift, with term errors
    that cover it."""
    if drift is None:
        return TaylorMeasure(constant_sequence(a), gamma)

    def stored(n):
        return float(Fraction(a) * Fraction(gamma) ** n / math.factorial(n)) * (1.0 + drift)

    error = lambda n: abs(stored(n)) * (1.01 * abs(drift) + 2.0 ** -50) + 2.0 ** -1074
    return TaylorMeasure(TermBackedSequence(stored, 1.0, GeometricEnvelope(2.0 * abs(a) + 1.0,
                                                                          abs(gamma) + 1.0),
                                            term_error=error), 1.0)


class TestNormAgainstMpmath:
    """norm and distance hold their abs_error against mpmath at 50 digits.
    Their bound covers the rounding of the square root: an exact run rounds
    its radicand once, so there that rounding is most of the error."""

    @given(st.integers(1, 415), st.integers(171, 399))
    @settings(max_examples=60, deadline=None)
    def test_exact_runs_on_finite_sets(self, k, last):
        # gamma = k / 16: the radicand's run 0..last is summed exactly
        mv = norm(TaylorMeasure(constant_sequence(1.0), k / 16), NatSet.finite(range(last + 1)))
        with mp.workdps(50):
            g2 = mp.mpf(k) ** 2 / 256
            _within(mv, mp.sqrt(mp.fsum(g2 ** n / mp.factorial(n) for n in range(last + 1))))

    @given(st.integers(14 * 16, 26 * 16 - 1))
    @settings(max_examples=30, deadline=None)
    # sqrt(e**144) lies 9.33e14 from the value, past the 6.14e14 that the
    # bound read before it counted the root's rounding
    @example(k=12 * 16)
    def test_exact_runs_on_all_of_N(self, k):
        mv = norm(TaylorMeasure(constant_sequence(1.0), k / 16), ALL)
        with mp.workdps(50):
            _within(mv, mp.exp(mp.mpf(k) ** 2 / 512))

    @given(st.floats(-4.0, 4.0), st.floats(-6.0, 6.0), st.floats(-4.0, 4.0),
           st.floats(-6.0, 6.0), st.sampled_from([None, 1e-9, -3e-7]),
           st.sampled_from([ALL, NatSet.finite([0, 3, 4, 9, 30]), NatSet.cofinite([1, 2])]))
    @settings(max_examples=60, deadline=None)
    # radicands near 1e-600: summands that underflow on the log path
    @example(a1=5e-324, g1=0.0, a2=1e-300, g2=0.0, drift=None, B=ALL)
    @example(a1=8.45e-248, g1=0.5, a2=-7e-170, g2=2.0, drift=1e-9, B=NatSet.cofinite([1, 2]))
    def test_float_path_radicands(self, a1, g1, a2, g2, drift, B):
        # an operand with term errors stands for a1 * g1**n / n!; a
        # distance's linear combination for the terms it stores, since how
        # far those sit from its operands' is ROADMAP item 1's open probe
        # (test_certificates.TestCompositeBoundsStillOpen). Summands past
        # n = 250 are below 4 * 36**250 / 250! < 1e-100.
        T1 = _float_operand(a1, g1, drift)
        T2 = TaylorMeasure(constant_sequence(a2), g2)
        stored = linear_combination(1.0, T1, -1.0, T2).term
        with mp.workdps(50):
            indices = [n for n in range(251) if n in B]
            fact = [mp.factorial(n) for n in indices]
            exact = [mp.mpf(a1) * mp.mpf(g1) ** n / f for n, f in zip(indices, fact)]
            for mv, radicand in (
                    (norm(T1, B), mp.fsum(f * p * p for f, p in zip(fact, exact))),
                    (distance(T1, T2, B), mp.fsum(f * mp.mpf(stored(n)) ** 2
                                                  for n, f in zip(indices, fact)))):
                _within(mv, mp.sqrt(radicand))


class TestUnderflowingSummand:
    """A rho summand that underflows on the log path counts one subnormal
    unit of error, as a term that underflows does."""

    def test_underflowing_summand(self):
        # rho(T, T)({0}) = a**2 = 7.1e-495 underflows to 0: the norm's
        # bound must still reach a = 8.5e-248
        a = 8.452538542504772e-248
        with mp.workdps(50):
            _within(norm(TaylorMeasure(constant_sequence(a), 0.0), NatSet.finite([0])), mp.mpf(a))


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

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            rational_approximation(ONES, tol)

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
