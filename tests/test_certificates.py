"""Certificates of composed measures and functions bound their terms.

Every transform that derives a certificate from its operands'
certificates (linear combinations, products, powers, recentering, pmf
measures and the variance series of stochastic measures) is checked
against the coefficients it produces, index by index, in exact Fraction
arithmetic.
Operands carry every certified kind, with envelopes that start before
and after n = 170, the last index whose factorial is a float.
"""

import math
from fractions import Fraction

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from taylormeasure import (
    Bounded,
    DivergenceUnknown,
    FactorialGeometric,
    FiniteSupport,
    GeometricEnvelope,
    NatSet,
    OutOfDomain,
    PowerSeriesPmf,
    TaylorMeasure,
    TermBackedSequence,
    constant_sequence,
    eval_rep,
    evaluate,
    exp_rep,
    finite_sequence,
    from_pmf,
    geometric_rep,
    jordan_decompose,
    linear_combination,
    linear_combine,
    multiply,
    power,
    recenter,
    rule_sequence,
    tail_bound,
    truncate_rep,
)
from taylormeasure.analytic import AnalyticRep
from taylormeasure.kernel import _TermEnvelope
from taylormeasure.stochastic import _squared_over_factorial

TOP = 250  # highest index checked
# composed terms carry their own rounding (and recentering a bias of eps
# times the envelope), so a bound may be exceeded by this relative amount
SLACK = Fraction(1, 10 ** 9)


def _bound(cert, n):
    """The certificate's bound on |a_n| as an exact rational, or None
    where it claims nothing."""
    if isinstance(cert, FiniteSupport):
        return Fraction(0) if n > cert.last else None
    if isinstance(cert, Bounded):
        return Fraction(cert.bound)
    if isinstance(cert, (GeometricEnvelope, FactorialGeometric)):
        if n < cert.start:
            return None
        b = Fraction(cert.scale) * Fraction(cert.ratio) ** n
        return b * math.factorial(n) if isinstance(cert, FactorialGeometric) else b
    return None


def _a_exact(seq, n):
    """a_n of seq exactly, or None when it is not a finite float."""
    if isinstance(seq, TermBackedSequence):
        q = seq.term_rule(n)
        return Fraction(q) * math.factorial(n) / Fraction(seq.presentation_gamma) ** n
    a = seq.a(n)
    return Fraction(a) if math.isfinite(a) else None


def _assert_bounded(seq):
    cert = seq.certificate
    for n in range(TOP + 1):
        bound = _bound(cert, n)
        if bound is None:
            continue
        a = _a_exact(seq, n)
        if a is not None:
            assert abs(a) <= bound * (1 + SLACK), (n, cert, float(a), float(bound))


def _operand(kind, seed, scale, ratio, start, big, positive=False):
    """A sequence given through its terms d_n = a_n / n! at gamma = 1.

    From ``start`` on, |a_n| stays within half of the certificate's bound;
    below it the terms are free, up to 10**big in size.
    """

    def u(n):
        v = math.sin(seed + 1.7 * n)
        return 0.3 + 0.2 * v if positive else 0.5 * v

    def envelope_term(n):
        # scale * ratio**n / n!, or scale * ratio**n for the factorial kind
        log_t = math.log(scale) + n * math.log(ratio)
        if kind != "factorial":
            log_t -= math.lgamma(n + 1)
        return u(n) * math.exp(min(max(log_t, -745.0), 700.0))

    if kind == "finite":
        table = {n: u(n) * 10.0 ** (big * u(n + 1)) for n in range(start + 1)}
        return TermBackedSequence(lambda n: table.get(n, 0.0), 1.0, FiniteSupport(start))
    if kind == "bounded":
        cert = Bounded(scale)
        ratio, start = 1.0, 0
    elif kind == "geometric":
        cert = GeometricEnvelope(scale, ratio, start)
    else:
        cert = FactorialGeometric(scale, ratio, start)

    def rule(n):
        return u(n) * 10.0 ** big if n < start else envelope_term(n)

    return TermBackedSequence(rule, 1.0, cert)


_starts = st.one_of(st.integers(0, 30), st.integers(160, 200))
_operands = st.builds(
    _operand,
    st.sampled_from(["finite", "bounded", "geometric", "factorial"]),
    st.integers(0, 1000),
    st.floats(0.1, 10.0),
    st.floats(0.1, 2.0),
    _starts,
    st.integers(0, 40),
)
_weights = st.floats(-3.0, 3.0).filter(lambda w: abs(w) > 1e-3)
_gammas = st.floats(0.1, 3.0)


def _rep(seq):
    return AnalyticRep(0.0, seq, math.inf)


def _rep_at_one(seq, gamma):
    """The representation whose d_n are the terms of seq at gamma."""
    cert = _TermEnvelope.of(seq.certificate, gamma).to_certificate(1.0)
    return _rep(TermBackedSequence(TaylorMeasure(seq, gamma).term, 1.0, cert))


class TestDerivedCertificatesHold:
    @given(_operands, _operands, _weights, _weights, _gammas, _gammas)
    @settings(max_examples=40, deadline=None)
    def test_linear_combination(self, s1, s2, alpha, beta, g1, g2):
        T = linear_combination(alpha, TaylorMeasure(s1, g1), beta, TaylorMeasure(s2, g2))
        _assert_bounded(T.coefficients)

    def test_linear_combination_subnormal_terms(self):
        # the term at n = 169 rounds to -2**-1074, past a bound of 0.96 units
        s1 = _operand("bounded", 0, 1.0, 1.0, 0, 0)
        s2 = _operand("geometric", 0, 6.5, 1.380859375, 0, 0)
        T = linear_combination(1.0, TaylorMeasure(s1, 0.5), 0.75,
                               TaylorMeasure(s2, 0.555521583009404))
        _assert_bounded(T.coefficients)

    def test_linear_combine_subnormal_terms(self):
        # the operands of test_linear_combination_subnormal_terms, presented
        # at gamma = 1; linear_combine kept a_169 = -2.109e-19 against a
        # bound of 2.036e-19 while it combined the terms itself
        R1 = _rep_at_one(_operand("bounded", 0, 1.0, 1.0, 0, 0), 0.5)
        R2 = _rep_at_one(_operand("geometric", 0, 6.5, 1.380859375, 0, 0), 0.555521583009404)
        _assert_bounded(linear_combine(1.0, R1, 0.75, R2).coefficients)

    def test_pulled_in_keeps_terms_within_the_bound(self):
        env = _TermEnvelope(1, 5.875, 0.7670971859133763)
        tiny = 2.0 ** -1074
        units = Fraction(env.scale) * Fraction(env.ratio) ** 165 / math.factorial(165) / Fraction(tiny)
        assert 1 < units < 2 ** 52
        inside = math.floor(units) * tiny
        assert env.pulled_in(165, -5 * inside) == -inside
        assert env.pulled_in(165, inside / 2) == inside / 2
        assert env.pulled_in(169, tiny) == 0.0  # bound below one unit
        assert env.pulled_in(100, tiny) == tiny  # bound in the normal range
        assert _TermEnvelope(1, 1.0, 1.0, start=200).pulled_in(169, tiny) == tiny
        assert _TermEnvelope(last=3).pulled_in(4, tiny) == 0.0

    @given(_operands, _operands)
    @settings(max_examples=40, deadline=None)
    def test_multiply(self, s1, s2):
        _assert_bounded(multiply(_rep(s1), _rep(s2)).coefficients)

    @given(_operands, st.integers(2, 3))
    @settings(max_examples=20, deadline=None)
    def test_power(self, s, k):
        _assert_bounded(power(_rep(s), k).coefficients)

    @given(_operands, _operands, _weights, _weights)
    @settings(max_examples=40, deadline=None)
    def test_linear_combine(self, s1, s2, alpha, beta):
        _assert_bounded(linear_combine(alpha, _rep(s1), beta, _rep(s2)).coefficients)

    @given(_operands, st.floats(-0.4, 0.4).filter(lambda c: c != 0.0))
    @settings(max_examples=40, deadline=None)
    def test_recenter(self, s, c):
        # factorial kinds shift within the radius 1/ratio of their envelope
        ratio = getattr(s.certificate, "ratio", 1.0)
        _assert_bounded(recenter(_rep(s), c / max(ratio, 1.0)).coefficients)

    @given(
        st.sampled_from(["finite", "bounded", "geometric", "factorial"]),
        st.integers(0, 1000),
        st.floats(0.1, 10.0),
        st.floats(0.1, 2.0),
        _starts,
        st.integers(0, 40),
        st.floats(0.1, 3.0),
        st.floats(0.1, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    # pmf(167) = 7.43e-24 rounds to one subnormal unit where its bound is
    # 0.79 units; the second fails the same way at n = 162
    @example(kind="bounded", seed=0, scale=2.0, ratio=1.0, start=0, big=0,
             zeta=0.724609375, gamma=1.0)
    @example(kind="factorial", seed=789, scale=6.0, ratio=0.1, start=0, big=0,
             zeta=0.1, gamma=1.0)
    def test_from_pmf(self, kind, seed, scale, ratio, start, big, zeta, gamma):
        if kind == "factorial":
            zeta = min(zeta, 0.5 / ratio)  # inside the normalizer's radius
        b = _operand(kind, seed, scale, ratio, start, big, positive=True)
        _assert_bounded(from_pmf(PowerSeriesPmf(zeta, b), gamma).coefficients)

    @given(_operands)
    @settings(max_examples=40, deadline=None)
    def test_squared_over_factorial(self, s):
        _assert_bounded(_squared_over_factorial(s))


# a_180 = 1e300 and a_n = 1 beyond: an envelope that starts after n = 170,
# with an explicit coefficient before it far above the envelope
def _late_rule(n):
    if n == 180:
        return 1e300
    return 1.0 if n > 180 else 0.0


LATE = AnalyticRep(0.0, rule_sequence(_late_rule, GeometricEnvelope(1.0, 1.0, start=181)), math.inf)


def _late_exact(x):
    """The function LATE represents, at x (call it inside mpmath.workdps)."""
    x = mpmath.mpf(x)
    head = mpmath.fsum(x ** n / mpmath.factorial(n) for n in range(181))
    return mpmath.mpf(1e300) * x ** 180 / mpmath.factorial(180) + mpmath.exp(x) - head


class TestLateStartEnvelopes:
    """Composed certificates cover the explicit coefficients before a
    start beyond n = 170."""

    def _assert_close(self, out, exact):
        assert abs(mpmath.mpf(out.value) - exact) <= out.abs_error, (out, exact)

    def test_multiply(self):
        out = eval_rep(multiply(LATE, exp_rep()), 10.0)
        with mpmath.workdps(50):
            self._assert_close(out, _late_exact(10.0) * mpmath.exp(10))

    def test_linear_combine(self):
        out = eval_rep(linear_combine(1.0, LATE, 1.0, exp_rep()), 10.0)
        with mpmath.workdps(50):
            self._assert_close(out, _late_exact(10.0) + mpmath.exp(10))

    def test_recenter(self):
        out = eval_rep(recenter(LATE, 1.0), 10.0)
        with mpmath.workdps(50):
            self._assert_close(out, _late_exact(10.0))


def _shift_tail_exact(scale, r, k, q, M):
    """sum_{m > M} scale r^k binom(k+m, m) q^m, summed term by term in
    mpmath until what is left is below 1e-25 of the sum."""
    with mpmath.workdps(40):
        q = mpmath.mpf(q)
        m = M + 1
        t = mpmath.binomial(k + m, m) * q ** m
        total = mpmath.mpf(0)
        while True:
            total += t
            ratio = q * (k + m + 1) / (m + 1)  # falls as m grows
            t *= ratio
            m += 1
            if ratio < 1 and t / (1 - ratio) < total * mpmath.mpf(1e-25):
                return scale * mpmath.mpf(r) ** k * total


class TestShiftTail:
    """The k = 0 shift-tail bound of recenter against the tail itself."""

    def test_direct_summation(self):
        bound = _TermEnvelope(0, 1.0, 1.0).shift_tail(3, 0.5, 4)
        # 16 - (1 + 2 + 5/2 + 5/2 + 35/16)
        assert abs(_shift_tail_exact(1.0, 1.0, 3, 0.5, 4) - mpmath.mpf("5.8125")) < 1e-20
        assert bound == pytest.approx(7.0, rel=1e-12)

    @given(st.floats(0.1, 10.0), st.floats(0.1, 4.0), st.integers(0, 30),
           st.integers(1, 64), st.floats(0.01, 0.95))
    @settings(max_examples=200, deadline=None)
    def test_bound_covers_tail(self, scale, r, k, M, q):
        dist = q / r
        bound = _TermEnvelope(0, scale, r).shift_tail(k, dist, M)
        exact = _shift_tail_exact(scale, r, k, r * dist, M)
        # at k = 0 the successive-term ratio is exactly q, so the bound is the
        # tail itself up to rounding
        assert bound >= exact * (1 - 1e-12)

    @pytest.mark.parametrize("c", [0.5, 0.3, -0.4, 0.8, -0.9])
    @pytest.mark.parametrize("eps", [1e-12, 1e-8])
    def test_recenter_factorial_geometric(self, c, eps):
        # 1/(1 - x) recentred at c has d_k = (1 - c)^-(k+1); each recentred
        # term carries its shift-tail bias and rounding as its term error
        rep = recenter(geometric_rep(0.0), c, eps)
        seq = rep.coefficients
        with mpmath.workdps(50):
            for k in range(41):
                exact = (1 - mpmath.mpf(c)) ** -(k + 1)
                d_k = mpmath.mpf(seq.term_rule(k))
                assert abs(d_k - exact) <= seq.term_error(k)
            for f in (-0.9, -0.5, 0.0, 0.25, 0.5, 0.9):
                x = c + f * rep.radius_hint
                out = eval_rep(rep, x, eps)
                exact = 1 / (1 - (mpmath.mpf(c) + mpmath.mpf(x - c)))
                assert abs(mpmath.mpf(out.value) - exact) <= out.abs_error

    @pytest.mark.parametrize("c, eps, x", [(0.8, 1e-12, 0.9), (0.5, 1e-8, 0.5),
                                           (0.5, 1e-12, 0.75)])
    def test_recenter_bias_in_abs_error(self, c, eps, x):
        # each of these missed its abs_error while the shift-tail bias was
        # left out of it (at x = c the error was reported as 0)
        out = eval_rep(recenter(geometric_rep(0.0), c, eps), x)
        with mpmath.workdps(50):
            exact = 1 / (1 - mpmath.mpf(x))
            assert abs(mpmath.mpf(out.value) - exact) <= out.abs_error
        assert out.abs_error > 0.0

    def test_term_errors_propagate(self):
        # a recentred rep's term errors survive multiply, linear_combine,
        # truncation and a second recenter, and reach abs_error
        moved = recenter(geometric_rep(0.0), 0.5, 1e-8)
        cases = {
            "multiply": (multiply(moved, moved), lambda x: 1 / (1 - x) ** 2),
            "linear_combine": (linear_combine(2.0, moved, -1.0, recenter(exp_rep(), 0.5)),
                               lambda x: 2 / (1 - x) - mpmath.exp(x)),
            "recenter": (recenter(moved, 0.6, 1e-8), lambda x: 1 / (1 - x)),
        }
        for name, (rep, f) in cases.items():
            for x in (rep.center - 0.2, rep.center, rep.center + 0.2):
                out = eval_rep(rep, x, 1e-12)
                with mpmath.workdps(50):
                    miss = abs(mpmath.mpf(out.value) - f(mpmath.mpf(x)))
                assert miss <= out.abs_error, (name, x)
        poly = truncate_rep(moved, 12)
        with_errors = multiply(poly, poly)
        assert with_errors.coefficients.term_error(3) > 0.0
        T = TaylorMeasure(moved.coefficients, 0.3)
        combined = linear_combination(1.0, T, -1.0, TaylorMeasure(exp_rep().coefficients, 0.3))
        out = combined.evaluate(NatSet.all())
        with mpmath.workdps(50):
            exact = 1 / (1 - mpmath.mpf(0.8)) - mpmath.exp(mpmath.mpf(0.3))
            assert abs(mpmath.mpf(out.value) - exact) <= out.abs_error


class TestEnvelopeSum:
    def test_finite_support_beside_factorial_geometric(self):
        # the finite part is widened at its partner's ratio; widened to
        # ratio 1 the sum's envelope did not converge
        T = TaylorMeasure(recenter(geometric_rep(), 0.5).coefficients, 0.3)
        combined = linear_combination(1.0, T, -1.0, TaylorMeasure(finite_sequence([1.0]), 1.0))
        out = combined.evaluate(NatSet.all())
        assert abs(out.value - 4.0) <= out.abs_error

    def test_finite_support_beside_k1_keeps_ratio_one(self):
        finite = _TermEnvelope(last=2, term=lambda n: 1.0)
        summed = finite.add(_TermEnvelope(1, 1.0, 0.5))
        assert (summed.k, summed.ratio) == (1, 1.0)
        assert summed == _TermEnvelope(1, 1.0, 0.5).add(finite)


class TestEnvelopeProducts:
    # scales whose products fall below the normal range, even below 5e-324
    TINY_SCALES = (5e-324, 1e-310, 1e-200, 3e-170, 1e-160)

    def test_scales_of_tiny_operands(self):
        # every scale product of two envelopes bounds the exact product of
        # its factors from above: none rounds down, to 0 or otherwise
        def at_least(env, *factors):
            exact = math.prod(map(Fraction, factors))
            assert env.scale > 0.0 and Fraction(env.scale) >= exact, (env, factors)

        for s1 in self.TINY_SCALES:
            for s2 in self.TINY_SCALES:
                k1, k0 = _TermEnvelope(1, s1, 2.0), _TermEnvelope(0, s1, 0.5)
                at_least(k1.cauchy(_TermEnvelope(1, s2, 3.0)), s1, s2)
                at_least(k0.cauchy(_TermEnvelope(0, s2, 0.25)), 2.05, s1, s2)
                # k = 1 times k = 0: S1 S2 e**(R1 / R2), with e**4 as a float
                at_least(k1.cauchy(_TermEnvelope(0, s2, 0.5)), s1, s2, math.exp(4.0))
                at_least(k1.rho(_TermEnvelope(1, s2, 3.0)), s1, s2)
                at_least(k1.scaled(-s2), s1, s2)
            at_least(_TermEnvelope(1, s1, 2.0).square(), s1, s1)


class TestShiftedEnvelope:
    """_TermEnvelope.shifted rounds its scale, and a k = 0 ratio, upward:
    the k = 1 scale S e**(R d) against mpmath at 50 digits, the k = 0 scale
    and ratio S / (1 - R d) and R / (1 - R d) against Fractions."""

    @staticmethod
    def _check(k, scale, ratio, dist):
        env = _TermEnvelope(k, scale, ratio).shifted(dist)
        if k:
            with mpmath.workdps(50):
                exact = mpmath.mpf(scale) * mpmath.exp(mpmath.mpf(ratio) * mpmath.mpf(dist))
                assert mpmath.mpf(env.scale) >= exact, (scale, ratio, dist, env)
                # and no looser than a few ulp, or one subnormal unit
                assert mpmath.mpf(env.scale) <= exact * (1 + 2 ** -40) + 2 * mpmath.mpf(5e-324)
            assert env.ratio == ratio
            return
        d = 1 - Fraction(ratio) * Fraction(dist)
        for got, exact in ((env.scale, Fraction(scale) / d), (env.ratio, Fraction(ratio) / d)):
            assert Fraction(got) >= exact, (scale, ratio, dist, env)
            assert math.nextafter(got, 0.0) < exact  # the nearest float above it

    def test_subnormal_scales(self):
        # both read 3 subnormal units when formed in round-to-nearest
        env = _TermEnvelope(1, 1.5e-323, 1.0).shifted(0.1)
        assert env.scale == 2e-323  # 4 units, over 1.5e-323 * e**0.1
        env = _TermEnvelope(0, 1.5e-323, 0.5).shifted(0.1)
        assert env.scale == 2e-323  # 4 units, over 1.5e-323 / 0.95
        for scale in (5e-324, 1.5e-323, 1e-310, 2.0 ** -1022, 1e-300):
            self._check(1, scale, 1.0, 0.1)
            self._check(0, scale, 0.5, 0.1)

    @given(st.sampled_from([0, 1]), st.floats(5e-324, 1e300), st.floats(1e-3, 50.0),
           st.floats(1e-6, 10.0))
    @settings(max_examples=300, deadline=None)
    @example(k=0, scale=1.0, ratio=1.0, dist=1.0 - 2.0 ** -53)  # 1 - R d is 2**-53
    @example(k=1, scale=1e300, ratio=50.0, dist=10.0)  # e**500: rounded up by 504 ulp
    def test_rounded_up(self, k, scale, ratio, dist):
        if k == 0 and ratio * dist >= 1.0:
            with pytest.raises(OutOfDomain):
                _TermEnvelope(0, scale, ratio).shifted(dist)
            return
        if k and scale * math.exp(ratio * dist) > 1e300:
            return  # e**(R d) times the scale nears overflow
        self._check(k, scale, ratio, dist)


class TestCompositeBoundsStillOpen:
    """Probes of ROADMAP item 1 that fail today; a fix shows as XPASS."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: a combination term is credited 2 ulp of "
                              "the difference, not of each operand's term")
    def test_cancelling_linear_combination(self):
        g = 1.0 + 1e-9
        T = linear_combination(1.0, TaylorMeasure(constant_sequence(1.0), 1.0),
                               -1.0, TaylorMeasure(constant_sequence(1.0), g))
        out = evaluate(T, NatSet.finite(range(20)))
        with mpmath.workdps(50):
            exact = mpmath.fsum((1 - mpmath.mpf(g) ** n) / mpmath.factorial(n)
                                for n in range(20))
            assert abs(mpmath.mpf(out.value) - exact) <= out.abs_error

    @pytest.mark.xfail(strict=True, raises=DivergenceUnknown,
                       reason="ROADMAP item 1: the product of two k = 0 envelopes "
                              "widens to ratio 1.25, past x = 0.9")
    def test_product_of_geometric_series(self):
        out = eval_rep(multiply(geometric_rep(), geometric_rep()), 0.9)
        with mpmath.workdps(50):
            exact = 1 / (1 - mpmath.mpf(0.9)) ** 2
            assert abs(mpmath.mpf(out.value) - exact) <= out.abs_error

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: a convolution product that underflows "
                              "counts no error")
    def test_product_of_tiny_functions(self):
        # (1e-170 e**x)**2 at x = 300 is 3.77e-80; every product
        # d1_n * d2_(l-n) underflows, so the value reads 0 within 6.5e-101
        r = AnalyticRep(0.0, constant_sequence(1e-170), math.inf)
        out = eval_rep(multiply(r, r), 300.0, 1e-100)
        with mpmath.workdps(50):
            exact = mpmath.mpf(1e-170) ** 2 * mpmath.exp(600)
            assert abs(mpmath.mpf(out.value) - exact) <= out.abs_error


class TestGlobalTailBound:
    """Before the terms peak (N + 2 <= R|gamma|) the tail bound is the whole
    series' S e**(R|gamma|), rounded up."""

    SCALES = (1.0, 3.7, 5.8758007304400345e-226, 1e-300, 1e-320)

    def test_bounds_the_exact_tail(self):
        for g in (38.0, 40.0, 100.0, 333.0, 470.0, 650.0, 700.0):
            for s in self.SCALES:
                got = tail_bound(GeometricEnvelope(s, 1.0), g, 0)
                with mpmath.workdps(50):
                    exact = mpmath.mpf(s) * mpmath.expm1(g)
                    assert mpmath.mpf(got) >= exact, (g, s, got)

    @pytest.mark.parametrize("ratio, gamma", [(1.25, -376.0), (1.3125, -341.0667803269349)])
    def test_negative_part_before_the_peak(self, ratio, gamma):
        # every term is negative, and the plan stops at n = 0: the bound is
        # all of the part but its first term. 1.3125 * 341.0667803269349
        # rounds down, so e**(R|gamma|) as floats falls short by 6.6e-15
        s = 5.8758007304400345e-226
        T = TaylorMeasure(rule_sequence(lambda n: -s * (-ratio) ** n, GeometricEnvelope(s, ratio)),
                          gamma)
        out = jordan_decompose(T).negative(NatSet.all(), 1e-16)
        with mpmath.workdps(50):
            exact = mpmath.mpf(s) * mpmath.exp(mpmath.mpf(ratio) * abs(mpmath.mpf(gamma)))
            assert abs(mpmath.mpf(out.value) - exact) <= out.abs_error


class TestTailBoundStillOpen:
    """A tail-bound probe that fails today; a fix shows as XPASS."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the ratio-test tail bound exp(log_t) / (1 - q) is not "
                              "rounded upward, and at a tiny gamma it is tight")
    def test_tail_at_tiny_gamma(self):
        gamma = 9.45972488349881e-70
        out = evaluate(TaylorMeasure(constant_sequence(1.0), gamma), NatSet.cofinite([0]))
        with mpmath.workdps(50):
            exact = mpmath.expm1(mpmath.mpf(gamma))
            assert abs(mpmath.mpf(out.value) - exact) <= out.abs_error
