import math
import random
import time
from functools import partial

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taylormeasure import (
    Bounded,
    CoefficientSequence,
    DegenerateDistribution,
    DivergenceUnknown,
    FactorialGeometric,
    FiniteSupport,
    GeometricEnvelope,
    GeometricTail,
    InvalidPmf,
    MeasureValue,
    NatSet,
    NonFiniteResult,
    PrecisionUnattainable,
    TaylorMeasure,
    TaylorMeasureError,
    TermBackedSequence,
    Unverified,
    constant_sequence,
    builtin,
    distance,
    eval_rep,
    evaluate,
    finite_sequence,
    geometric_sequence,
    inner_product,
    jordan_decompose,
    linear_combination,
    norm,
    normalizer,
    probability_pair,
    rule_sequence,
    sum_terms,
    taylor_derivative,
    total_variation,
    zero_measure,
)
from taylormeasure import kernel

import exact_reference

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

    def test_all_is_one_shared_instance(self):
        assert NatSet.all() is NatSet.all()
        assert NatSet.cofinite([]).kind == "all"
        assert NatSet.cofinite([]).elements == ()
        assert NatSet.finite([]).elements == ()
        assert NatSet.finite([]).kind == "finite"


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


class TestNanEps:
    """A nan eps meets no bound: every set sum refuses it, as the grids
    and the CLI do, rather than truncate to a plan it never met."""

    E = TaylorMeasure(constant_sequence(1.0), 1.0)
    SUMS = {
        "evaluate": lambda B, eps: evaluate(TestNanEps.E, B, eps),
        "total_variation": lambda B, eps: total_variation(TestNanEps.E, B, eps),
        "positive": lambda B, eps: jordan_decompose(TestNanEps.E).positive(B, eps),
        "negative": lambda B, eps: jordan_decompose(TestNanEps.E).negative(B, eps),
        "inner_product": lambda B, eps: inner_product(TestNanEps.E, TestNanEps.E, B, eps),
        "norm": lambda B, eps: norm(TestNanEps.E, B, eps),
        "eval_rep": lambda B, eps: eval_rep(builtin("exp"), 0.5, eps),
        "normalizer": lambda B, eps: normalizer(1.0, constant_sequence(1.0), eps),
    }

    @pytest.mark.parametrize("B", [NatSet.finite([0, 3]), NatSet.cofinite([1]), NatSet.all()],
                             ids=["finite", "cofinite", "all"])
    @pytest.mark.parametrize("name", sorted(SUMS))
    def test_refused_on_every_set_sum(self, name, B):
        call = self.SUMS[name]
        with pytest.raises(ValueError, match="nan"):
            call(B, math.nan)
        assert math.isfinite(call(B, 1e-12).value)


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


# ---------------------------------------------------------------------------
# The underflow horizon of finite sets


def _pos(v):
    return v if v > 0.0 else 0.0


def _neg(v):
    return -v if v < 0.0 else 0.0


def _terms(T, indices):
    """Test-only reference: (value, roundoff) of T's terms at the given
    indices, one kernel._term_and_err call per term."""
    return [kernel._term_and_err(T.coefficients, T.gamma, n) for n in indices]


def _sum_selected(terms, select):
    """Test-only reference: the summation engine the four parts used before
    they shared one sign-split pass. It sums select(v) over (v, roundoff)
    term pairs with compensated accumulation and returns (value, roundoff
    estimate); a term that rounded to 0 keeps its roundoff."""
    acc_pos = kernel._NeumaierSum()
    acc_neg = kernel._NeumaierSum()
    err = 0.0
    for v, e in terms:
        w = select(v)
        if w == 0.0 and v != 0.0:
            continue
        err += e
        if w > 0.0:
            acc_pos.add(w)
        else:
            acc_neg.add(w)
    value = acc_pos.value + acc_neg.value
    err += 2.0 * kernel._ULP * (acc_pos.value - acc_neg.value)
    return value, err


def _reference_sum(terms, part):
    """Test-only reference: what the old engine returned for each part,
    as (value, roundoff estimate)."""
    _, select, clamp = _PARTS[part]
    value, err = _sum_selected(terms, select)
    return (max(value, 0.0) if clamp else value), err


# part -> (the library call, the selector the reference sums, whether the
# result is clamped at 0 as the Jordan parts are)
_PARTS = {
    "evaluate": (evaluate, lambda v: v, False),
    "total_variation": (total_variation, abs, False),
    "positive": (lambda T, B, eps=1e-12: jordan_decompose(T).positive(B, eps), _pos, True),
    "negative": (lambda T, B, eps=1e-12: jordan_decompose(T).negative(B, eps), _neg, True),
}


def _full_sum(T, B, part):
    """Test-only reference: the same pass over every index of B, with no
    horizon. total_variation is the sum of the Jordan parts, with the
    abs_error of evaluate, as the one sign-split pass forms it."""
    terms = _terms(T, B.elements)
    if part == "total_variation":
        return (_reference_sum(terms, "positive")[0] + _reference_sum(terms, "negative")[0],
                _reference_sum(terms, "evaluate")[1])
    return _reference_sum(terms, part)


def _factorial_sequence(q):
    """a_n = n! q**n under FactorialGeometric(1, q), with its logs for the
    indices where it overflows."""
    return rule_sequence(lambda n: math.inf if n > 170 else math.factorial(n) * q ** n,
                         FactorialGeometric(1.0, q),
                         log_rule=lambda n: (1, math.lgamma(n + 1) + n * math.log(q)))


_gammas = st.floats(0.05, 60.0).flatmap(lambda g: st.sampled_from([g, -g]))


@st.composite
def _certified(draw):
    """A measure whose certificate bounds its terms, of every kind."""
    kind = draw(st.sampled_from(["bounded", "geometric", "factorial", "finite"]))
    gamma = draw(_gammas)
    if kind == "bounded":
        return TaylorMeasure(constant_sequence(draw(st.floats(-3.0, 3.0))), gamma)
    if kind == "geometric":
        # explicit, unbounded coefficients below the envelope's start
        prefix = tuple(draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40)))
        scale, ratio = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.1, 3.0))
        cert = GeometricEnvelope(abs(scale), ratio, len(prefix))
        return TaylorMeasure(CoefficientSequence(prefix, GeometricTail(scale, ratio), cert), gamma)
    if kind == "factorial":
        # convergent: the terms (q gamma)**n decay only geometrically
        return TaylorMeasure(_factorial_sequence(draw(st.floats(0.05, 0.6)) / abs(gamma)), gamma)
    coeffs = draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=260))
    return TaylorMeasure(finite_sequence(coeffs), gamma)


@st.composite
def _measures(draw):
    """Certified measures and their linear combinations, plus the cases
    that have no horizon: no certificate, a divergent factorial envelope
    and terms that carry term errors."""
    kind = draw(st.sampled_from(["certified"] * 3 + ["combination"] * 2
                                + ["unverified", "divergent", "term_error"]))
    if kind == "certified":
        return draw(_certified())
    if kind == "combination":
        return linear_combination(draw(st.floats(-2.0, 2.0)), draw(_certified()),
                                  draw(st.floats(-2.0, 2.0)), draw(_certified()))
    gamma = draw(_gammas)
    if kind == "unverified":
        c = draw(st.floats(-3.0, 3.0))
        return TaylorMeasure(rule_sequence(lambda n: c, Unverified()), gamma)
    if kind == "divergent":
        return TaylorMeasure(_factorial_sequence(draw(st.floats(1.0, 1.1)) / abs(gamma)), gamma)
    r = draw(st.floats(0.1, 0.9))
    seq = TermBackedSequence(lambda n: r ** n, 1.0, GeometricEnvelope(1.0, r),
                             term_error=lambda n: 1e-300 * r ** n)
    return TaylorMeasure(seq, 1.0)


@st.composite
def _long_sets(draw):
    """A finite set with indices near the peak and far past it."""
    top = draw(st.integers(171, 6000))
    low = draw(st.lists(st.integers(0, 200), min_size=1, max_size=40))
    high = draw(st.lists(st.integers(0, top), max_size=60))
    return NatSet.finite(low + high + [top])


class TestUnderflowHorizon:
    @given(_measures(), _long_sets(), st.sampled_from(sorted(_PARTS)))
    @settings(max_examples=300, deadline=None)
    def test_cut_sum_matches_full_sum(self, T, B, part):
        call = _PARTS[part][0]
        value, err = _full_sum(T, B, part)
        if not (math.isfinite(value) and math.isfinite(err)):
            with pytest.raises(NonFiniteResult):
                call(T, B)
            return
        cut = call(T, B)
        horizon = kernel.underflow_horizon(T.coefficients, T.gamma, B.elements[-1])
        if horizon is None:
            assert (cut.value, cut.abs_error) == (value, err)
            return
        assert horizon.last_index < B.elements[-1]
        assert horizon.tail_bound in (0.0, kernel._MIN_NORMAL)
        assert abs(cut.value - value) <= horizon.tail_bound
        if abs(value) >= 1e-250:
            assert (cut.value, cut.abs_error) == (value, err)

    def test_scaled_subnormal_envelope_still_bounds(self):
        # 1e-7 times a subnormal scale rounds to 0; the combination's
        # certificate must still bound its terms, or the horizon drops them
        T1 = TaylorMeasure(CoefficientSequence((0.5,), GeometricTail(5e-324, 3.0),
                                               GeometricEnvelope(5e-324, 3.0, 1)), 60.0)
        T = linear_combination(1e-7, T1, 0.0, T1)
        assert T.coefficients.certificate.scale > 0.0
        B = NatSet.finite([16, 171])
        mv = evaluate(T, B)
        exact = sum(mp.mpf(1e-7) * mp.mpf(5e-324) * mp.mpf(180) ** n / mp.factorial(n) for n in B.elements)
        # the log-path term at 171 carries more roundoff than the
        # combination's 2 ulp credit (ROADMAP item 1), so compare loosely
        assert mv.value == pytest.approx(float(exact), rel=1e-12)

    def test_no_horizon_without_a_bound(self):
        term_backed = TermBackedSequence(lambda n: 0.5 ** n, 1.0, GeometricEnvelope(1.0, 0.5),
                                         term_error=lambda n: 0.0)
        for seq in (rule_sequence(lambda n: 1.0, Unverified()),
                    _factorial_sequence(1.5), term_backed):
            assert kernel.underflow_horizon(seq, 1.0, 3000) is None
        # up to n = 170 the set is summed in full and nothing is planned,
        # although the horizon at gamma = 0.01 lies below 170
        assert kernel.underflow_horizon(constant_sequence(1.0), 0.01, 170) is None
        assert kernel.underflow_horizon(constant_sequence(1.0), 0.01, 171).last_index < 170
        # no index of the set lies past the horizon, and then one does
        assert kernel.underflow_horizon(constant_sequence(1.0), 60.0, 171) is None
        assert kernel.underflow_horizon(constant_sequence(1.0), 1.0, 171).last_index == 170

    def test_horizon_is_the_plan_below_the_normal_range(self):
        for cert, gamma in ((Bounded(2.0), 45.0), (GeometricEnvelope(1.0, 0.8, 30), -12.0),
                            (FactorialGeometric(1.0, 0.02), 25.0)):
            seq = CoefficientSequence((), kernel.ZeroTail(), cert)
            plan = kernel.underflow_horizon(seq, gamma, 10 ** 5)
            assert plan.last_index == kernel.plan_truncation(cert, gamma, 2.0 ** -1023).last_index
            assert plan.tail_bound == kernel._MIN_NORMAL
        assert kernel.underflow_horizon(finite_sequence([1.0] * 41), 3.0, 10 ** 5) == \
            kernel.TruncationPlan(40, 0.0)

    @pytest.mark.parametrize("T, exact", [
        (TaylorMeasure(constant_sequence(1.3), 45.0),
         lambda n: mp.mpf(1.3) * mp.mpf(45) ** n / mp.factorial(n)),
        (TaylorMeasure(constant_sequence(1.0), 1.0), lambda n: 1 / mp.factorial(n)),
        (TaylorMeasure(geometric_sequence(2.0, -1.5), 30.0),
         lambda n: 2 * mp.mpf(-45) ** n / mp.factorial(n)),
        # k = 0 with ratio 0.9: the float tail bound is divided by 1 - 0.9
        (TaylorMeasure(_factorial_sequence(0.9), 1.0), lambda n: mp.mpf(0.9) ** n),
    ], ids=["bounded", "bounded_gamma_1", "geometric", "factorial"])
    def test_certified_against_the_exact_sum(self, T, exact):
        M = kernel.underflow_horizon(T.coefficients, T.gamma, 10 ** 6).last_index
        with mp.workdps(40):
            # the true tail past M against the bound
            assert mp.fsum(abs(exact(n)) for n in range(M + 1, M + 3000)) <= kernel._MIN_NORMAL
            # M itself is summed
            B = NatSet.finite([M, M + 1, M + 7, 20 * M])
            mv = evaluate(T, B)
            assert mv.value == T.term(M) != 0.0
            assert abs(mv.value - mp.fsum(exact(n) for n in B.elements)) <= mv.abs_error
        # a set entirely past M still carries the tail
        past = evaluate(T, NatSet.finite([M + 1, M + 7, 20 * M]))
        assert (past.value, past.abs_error) == (0.0, kernel._MIN_NORMAL)
        for part in ("total_variation", "positive", "negative"):
            assert _PARTS[part][0](T, NatSet.finite([M + 1, 20 * M])).abs_error == kernel._MIN_NORMAL

    def test_long_sparse_set_skips_its_underflowed_terms(self):
        rng = random.Random(5)
        T = TaylorMeasure(constant_sequence(1.0), 45.0)
        B = NatSet.finite(rng.sample(range(15000), 5000))
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            mv = evaluate(T, B)
            best = min(best, time.perf_counter() - t0)
        assert (mv.value, mv.abs_error) == _full_sum(T, B, "evaluate")
        # the full sum spends about 4 us on each of the ~4,800 terms past
        # the horizon at n = 500
        assert best < 5e-3


# ---------------------------------------------------------------------------
# One sign-split pass behind every set sum


def _reference_indices(T, B, eps):
    """The indices a set sum of T on B covers at eps, and its tail bound."""
    if B.is_finite:
        indices, tail = B.elements, 0.0
        horizon = indices and kernel.underflow_horizon(T.coefficients, T.gamma, indices[-1])
        if horizon:
            indices = [n for n in indices if n <= horizon.last_index]
            tail = horizon.tail_bound
        return indices, tail
    if isinstance(T.coefficients.certificate, Unverified):
        raise DivergenceUnknown("no certificate")
    plan = kernel.plan_truncation(T.coefficients.certificate, T.gamma, eps)
    return [n for n in range(plan.last_index + 1) if n in B], plan.tail_bound


def _reference_raw(T, B, eps, part):
    """A part of T on B as the old per-part engine summed it, with the same
    truncation and horizon, as (value, abs_error) before validation."""
    indices, tail = _reference_indices(T, B, eps)
    value, err = _reference_sum(_terms(T, indices), part)
    return value, err + tail


def _reference_part(T, B, eps, part):
    """Test-only reference: a part of T on B as the old per-part engine
    summed it, with the same truncation and horizon."""
    return MeasureValue(*_reference_raw(T, B, eps, part))


_NAMES = {"evaluate": "signed", "total_variation": "variation", "positive": "pos",
          "negative": "neg"}


def _contract_part(T, B, eps, part):
    """(outcome, exact): what a part of T on B must give, and whether an
    exact run gives it. Terms that are exact by definition take an exact
    run on a long, dense finite set, and on an infinite set where the run
    is long or the float bound misses eps (exact_reference.within_eps);
    the rest is the old engine's float sum."""
    seq, gamma = T.coefficients, T.gamma
    float_sum = _outcome(lambda: _reference_part(T, B, eps, part))
    if not exact_reference.is_exact(seq):
        return float_sum, False
    term_at = partial(exact_reference.term, seq, gamma)
    if B.is_finite:
        indices, tail = _reference_indices(T, B, eps)
        if not exact_reference.dense_run(indices, exact_reference.bits(seq, gamma)):
            return float_sum, False
        x = exact_reference.part_sum([term_at(n) for n in indices], _NAMES[part])
        return exact_reference.rounded(x, tail), True
    if isinstance(float_sum, type) and not issubclass(float_sum, NonFiniteResult):
        return float_sum, False
    out, plan = exact_reference.within_eps(
        term_at, B.__contains__, partial(kernel.plan_truncation, seq.certificate, gamma),
        eps, _NAMES[part], lambda plan: _reference_raw(T, B, eps, part),
        exact_reference.bits(seq, gamma))
    return out, plan is not None


def _outcome(call):
    """A call's MeasureValue, or the type of the package error it raised."""
    try:
        return call()
    except (TaylorMeasureError, ValueError) as exc:
        return type(exc)


@st.composite
def _any_sets(draw):
    kind = draw(st.sampled_from(["all", "cofinite", "finite", "long"]))
    if kind == "all":
        return NatSet.all()
    if kind == "cofinite":
        return NatSet.cofinite(draw(st.lists(st.integers(0, 60), min_size=1, max_size=12)))
    if kind == "finite":
        return NatSet.finite(draw(st.lists(st.integers(0, 200), max_size=40)))
    return draw(_long_sets())


_eps = st.sampled_from([1e-15, 1e-12, 1e-8, 1e-3])


class TestOneSignSplitPass:
    @given(_measures(), _any_sets(), _eps)
    @settings(max_examples=300, deadline=None)
    def test_parts_match_the_old_engine(self, T, B, eps):
        # an exact run is held to the Fraction reference instead, within
        # half an ulp (exact_reference)
        for part in ("evaluate", "positive", "negative"):
            got = _outcome(lambda: _PARTS[part][0](T, B, eps))
            assert got == _contract_part(T, B, eps, part)[0], part
        tv = _outcome(lambda: total_variation(T, B, eps))
        ref, exact = _contract_part(T, B, eps, "total_variation")
        if exact:
            assert tv == ref
        elif isinstance(tv, MeasureValue) and isinstance(ref, MeasureValue):
            assert abs(tv.value - ref.value) <= tv.abs_error
            ev = evaluate(T, B, eps)
            pair = jordan_decompose(T)
            assert tv == MeasureValue(pair.positive(B, eps).value + pair.negative(B, eps).value,
                                      ev.abs_error)
        else:
            assert tv == ref

    @given(_measures(), _any_sets())
    @settings(max_examples=150, deadline=None)
    def test_sum_terms_matches_the_old_engine(self, T, B):
        indices = B.elements if B.is_finite else range(80)
        pos, neg = sum_terms(T.coefficients, T.gamma, indices)
        if exact_reference.is_exact(T.coefficients) and exact_reference.dense_run(
                indices, exact_reference.bits(T.coefficients, T.gamma)):
            want = exact_reference.exact_parts(
                [exact_reference.term(T.coefficients, T.gamma, n) for n in indices])
            assert (pos, neg) == (want[2][0], want[3][0])
            return
        terms = _terms(T, indices)
        assert pos == _reference_sum(terms, "positive")[0]
        assert neg == _reference_sum(terms, "negative")[0]

    @given(_certified(), _eps)
    @settings(max_examples=200, deadline=None)
    def test_normalizer_matches_the_old_engine(self, T, eps):
        zeta = abs(T.gamma)
        seq = T.coefficients

        def reference():
            plan = kernel.plan_truncation(seq.certificate, zeta, eps)
            terms = [kernel._term_and_err(seq, zeta, n) for n in range(plan.last_index + 1)]
            if _reference_sum(terms, "negative")[0] > 0.0:
                raise InvalidPmf("negative weight")
            value, err = _reference_sum(terms, "evaluate")
            err = plan.tail_bound + err
            if value <= err:
                raise DegenerateDistribution("zero")
            return MeasureValue(value, err)

        want = _outcome(reference)
        if exact_reference.is_exact(seq):
            # the contract of evaluate on N; an exact run is held to the
            # Fraction reference, within half an ulp
            def float_sum(plan):
                terms = [kernel._term_and_err(seq, zeta, n) for n in range(plan.last_index + 1)]
                value, err = _reference_sum(terms, "evaluate")
                return value, err + plan.tail_bound

            out, plan = exact_reference.within_eps(
                partial(exact_reference.term, seq, zeta), lambda n: True,
                partial(kernel.plan_truncation, seq.certificate, zeta), eps, "signed", float_sum,
                exact_reference.bits(seq, zeta))
            if out is PrecisionUnattainable:
                want = out
            elif plan is not None:
                want = out
                if any(exact_reference.term(seq, zeta, n) < 0 for n in range(plan.last_index + 1)):
                    want = InvalidPmf
                elif isinstance(out, MeasureValue) and out.value <= out.abs_error:
                    want = DegenerateDistribution
        assert _outcome(lambda: normalizer(zeta, seq, eps)) == want

    @given(st.sampled_from(["exp", "sin", "cos", "geometric", "polynomial"]),
           st.floats(-0.5, 0.5), st.floats(-0.99, 0.99), st.floats(-40.0, 40.0), _eps)
    @settings(max_examples=200, deadline=None)
    def test_eval_rep_matches_the_old_engine(self, name, center, t, spread, eps):
        rep = builtin(name, center, coeffs=[1.5, -2.0, 0.25, 3.0])
        x = center + (t * rep.radius_hint if name == "geometric" else spread)
        got = _outcome(lambda: eval_rep(rep, x, eps))
        gamma = x - center
        if gamma == 0.0:
            return
        assert got == _contract_part(TaylorMeasure(rep.coefficients, gamma), NatSet.all(), eps,
                                     "evaluate")[0]


def _counted(monkeypatch):
    """Record the plans that callers make through kernel and the indices
    each fused summation pass (kernel._sum_terms) receives."""
    plans, terms = [], []
    plan, fused = kernel.plan_truncation, kernel._sum_terms

    def counted_plan(*args):
        plans.append(plan(*args))
        return plans[-1]

    def counted_sum(seq, gamma, indices):
        indices = list(indices)
        terms.extend(indices)
        return fused(seq, gamma, indices)

    monkeypatch.setattr(kernel, "plan_truncation", counted_plan)
    monkeypatch.setattr(kernel, "_sum_terms", counted_sum)
    return plans, terms


class TestOnePassPerCaller:
    # the alternating exponential e**-2: signed terms (-2)**n / n!
    T = TaylorMeasure(constant_sequence(1.0), -2.0)

    def test_probability_pair_plans_and_sums_once(self, monkeypatch):
        plans, terms = _counted(monkeypatch)
        pair = probability_pair(self.T, 1e-12)
        assert len(plans) == 1
        assert terms == list(range(plans[0].last_index + 1))
        monkeypatch.undo()
        jp = jordan_decompose(self.T)
        assert (pair.mass_pos, pair.mass_neg) == (jp.positive(NatSet.all()).value,
                                                  jp.negative(NatSet.all()).value)
        assert pair.q_pos.normalizer == jp.positive(NatSet.all())
        assert pair.q_neg.normalizer == jp.negative(NatSet.all())
