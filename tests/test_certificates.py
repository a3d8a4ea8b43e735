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
from hypothesis import given, settings
from hypothesis import strategies as st

from taylormeasure import (
    Bounded,
    FactorialGeometric,
    FiniteSupport,
    GeometricEnvelope,
    PowerSeriesPmf,
    TaylorMeasure,
    TermBackedSequence,
    eval_rep,
    exp_rep,
    from_pmf,
    linear_combination,
    linear_combine,
    multiply,
    power,
    recenter,
    rule_sequence,
)
from taylormeasure.analytic import AnalyticRep
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


class TestDerivedCertificatesHold:
    @given(_operands, _operands, _weights, _weights, _gammas, _gammas)
    @settings(max_examples=40, deadline=None)
    def test_linear_combination(self, s1, s2, alpha, beta, g1, g2):
        T = linear_combination(alpha, TaylorMeasure(s1, g1), beta, TaylorMeasure(s2, g2))
        _assert_bounded(T.coefficients)

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
