import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import taylormeasure.montecarlo as mc

from taylormeasure import (
    Bounded,
    GeometricEnvelope,
    NatSet,
    NoSamplerAvailable,
    PowerSeriesPmf,
    TaylorMeasure,
    constant_sequence,
    evaluate,
    finite_sequence,
    probability_pair,
    rule_sequence,
)
from taylormeasure.montecarlo import (
    CHUNK,
    McEstimate,
    RngSpec,
    estimate_measure,
    estimate_normalizer_poisson,
    sample_pmf,
)

ONES = constant_sequence(1.0)


class TestSamplePmf:
    def test_poisson_mean_calibrated(self):
        p = PowerSeriesPmf(1.0, ONES)
        draws = sample_pmf(p, RngSpec(seed=101), 10 ** 5)
        mean = sum(draws) / len(draws)
        assert abs(mean - 1.0) <= 3.0 * math.sqrt(1.0 / 10 ** 5)

    def test_point_mass(self):
        p = PowerSeriesPmf(0.0, finite_sequence([3.0]))
        draws = sample_pmf(p, RngSpec(seed=5), 200)
        assert set(draws) == {0}

    def test_reproducible_and_stream_sensitive(self):
        p = PowerSeriesPmf(2.0, ONES)
        a = sample_pmf(p, RngSpec(seed=9, stream=0), 4096)
        b = sample_pmf(p, RngSpec(seed=9, stream=0), 4096)
        c = sample_pmf(p, RngSpec(seed=9, stream=1), 4096)
        assert a == b
        assert a != c

    def test_rejection_even_support(self):
        even = rule_sequence(
            lambda n: 1.0 if n % 2 == 0 else 0.0, Bounded(1.0)
        )
        p = PowerSeriesPmf(1.0, even)
        draws = sample_pmf(p, RngSpec(seed=31), 30000, method="rejection")
        assert all(n % 2 == 0 for n in draws)
        # normalizer over the evens is cosh(1), so f(0) = 1 / cosh(1)
        frac0 = draws.count(0) / len(draws)
        expected = 1.0 / 1.5430806348152437
        assert abs(frac0 - expected) <= 3.0 * math.sqrt(expected * (1 - expected) / 30000)

    def test_rejection_needs_bounded_certificate(self):
        growing = rule_sequence(lambda n: 2.0 ** n, GeometricEnvelope(1.0, 2.0))
        p = PowerSeriesPmf(0.5, growing)
        with pytest.raises(NoSamplerAvailable):
            sample_pmf(p, RngSpec(seed=1), 10, method="rejection")

    def test_samplers_agree_in_distribution(self):
        # two-sample chi-square between inverse-CDF and rejection draws
        p = PowerSeriesPmf(1.0, ONES)
        inv = sample_pmf(p, RngSpec(seed=71), 10 ** 5, method="inverse_cdf")
        rej = sample_pmf(p, RngSpec(seed=72), 10 ** 5, method="rejection")
        top = 8
        obs_inv = np.bincount(np.minimum(inv, top), minlength=top + 1)
        obs_rej = np.bincount(np.minimum(rej, top), minlength=top + 1)
        table = np.vstack([obs_inv, obs_rej])
        _, pvalue, _, _ = stats.chi2_contingency(table)
        assert pvalue > 0.001

    def test_jordan_pmf_sampleable(self):
        T = TaylorMeasure(finite_sequence([1.0, -2.0, 3.0]), 1.0)
        pair = probability_pair(T)
        draws = sample_pmf(pair.q_pos, RngSpec(seed=12), 20000)
        assert set(draws) == {0, 2}
        frac2 = draws.count(2) / len(draws)
        assert abs(frac2 - 0.6) <= 3.0 * math.sqrt(0.24 / 20000)


class TestEstimateMeasure:
    def test_poisson_taylor_small_set(self):
        est = estimate_measure(
            2.0, ONES, 1.0, ONES, NatSet.finite([0, 1, 2]),
            10 ** 5, 10 ** 5, RngSpec(seed=2026),
        )
        assert isinstance(est, McEstimate)
        assert abs(est.point - 2.5) <= 3.0 * est.stderr
        assert est.n_samples == 2 * 10 ** 5

    def test_identical_sides_center_on_zero(self):
        est = estimate_measure(
            1.5, ONES, 1.5, ONES, NatSet.finite([0, 1]),
            10 ** 4, 10 ** 4, RngSpec(seed=88),
        )
        assert abs(est.point) <= 3.0 * est.stderr + 1e-12

    def test_full_set_has_no_indicator_noise(self):
        est = estimate_measure(
            2.0, ONES, 1.0, ONES, NatSet.all(),
            10 ** 4, 10 ** 4, RngSpec(seed=3),
        )
        # indicators are identically 1 and masses are exact: stderr collapses
        assert est.stderr == 0.0
        assert est.point == pytest.approx(4.670774270471606, abs=1e-10)

    def test_estimated_normalizers_still_calibrated(self):
        est = estimate_measure(
            2.0, ONES, 1.0, ONES, NatSet.all(),
            10 ** 5, 10 ** 5, RngSpec(seed=4), estimate_normalizers=True,
        )
        # b is constant so the normalizer estimates are exact here too
        assert est.point == pytest.approx(4.670774270471606, rel=1e-12)
        est2 = estimate_measure(
            2.0, rule_sequence(lambda n: float(n + 1), GeometricEnvelope(1.0, 2.0)),
            1.0, ONES, NatSet.all(),
            10 ** 5, 10 ** 5, RngSpec(seed=5), estimate_normalizers=True,
        )
        # sum (n+1) 2**n / n! = e**2 (2 + 1) = 3 e**2; minus e
        exact = 3.0 * math.exp(2.0) - math.e
        assert abs(est2.point - exact) <= 3.0 * est2.stderr

    def test_thread_count_invariance(self):
        kwargs = dict(
            zeta1=2.0, b1=ONES, zeta2=1.0, b2=ONES,
            B=NatSet.finite([0, 1, 2]), L1=30000, L2=30000,
        )
        a = estimate_measure(rng=RngSpec(seed=6), threads=1, **kwargs)
        b = estimate_measure(rng=RngSpec(seed=6), threads=4, **kwargs)
        assert a.point == b.point
        assert a.stderr == b.stderr

    def test_coverage_calibration(self):
        hits = 0
        reps = 60
        B = NatSet.finite([0, 1, 2])
        for r in range(reps):
            est = estimate_measure(
                2.0, ONES, 1.0, ONES, B, 10 ** 4, 10 ** 4,
                RngSpec(seed=515, stream=r),
            )
            if abs(est.point - 2.5) <= 3.0 * est.stderr:
                hits += 1
        # 99.7% nominal coverage; allow a 3-sigma binomial band
        assert hits >= reps - 3


class TestEstimateNormalizerPoisson:
    def test_constant_density_is_exact(self):
        est = estimate_normalizer_poisson(1.0, ONES, 10 ** 4, RngSpec(seed=1))
        assert est.point == pytest.approx(math.e, rel=1e-12)
        assert est.stderr == 0.0

    def test_linear_density(self):
        b = rule_sequence(lambda n: float(n), GeometricEnvelope(1.0, 2.0))
        est = estimate_normalizer_poisson(2.0, b, 10 ** 6, RngSpec(seed=77))
        assert abs(est.point - 14.7781121978613) <= 3.0 * est.stderr

    def test_even_indicator_density(self):
        b = rule_sequence(lambda n: 1.0 if n % 2 == 0 else 0.0, Bounded(1.0))
        est = estimate_normalizer_poisson(1.0, b, 10 ** 6, RngSpec(seed=78))
        assert abs(est.point - 1.5430806348152437) <= 3.0 * est.stderr

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            estimate_normalizer_poisson(0.0, ONES, 100, RngSpec(seed=1))
        with pytest.raises(ValueError):
            estimate_normalizer_poisson(1.0, ONES, 1, RngSpec(seed=1))


# ---------------------------------------------------------------------------
# set membership counted from cdf cut points


def _reference_proportion(p, B, L, rng, role):
    """Draw every index by search and clamp, then test membership per draw."""
    cdf, last_positive = mc._inverse_table(p)
    listed = np.asarray(B.elements, dtype=np.int64)
    total = 0
    for chunk, start in enumerate(range(0, L, CHUNK)):
        u = mc.generator(rng, role, chunk).random(min(CHUNK, L - start))
        draws = np.minimum(np.searchsorted(cdf, u, side="left"), last_positive)
        inside = np.isin(draws, listed)
        if B.kind == "all":
            inside = np.ones(draws.shape, dtype=bool)
        elif B.kind == "cofinite":
            inside = ~inside
        total += int(np.count_nonzero(inside))
    prop = total / L
    return prop, prop * (1.0 - prop) / (L - 1)


def _reference_b_values(b, draws):
    uniques, inverse = np.unique(draws, return_inverse=True)
    vals = np.array([b.a(int(n)) for n in uniques])
    return vals[inverse]


EVENS = rule_sequence(lambda n: 1.0 if n % 2 == 0 else 0.0, Bounded(1.0))

_densities = st.one_of(
    st.just(ONES),
    st.just(EVENS),
    # zero-mass indices inside and at the ends of a finite support
    st.lists(st.sampled_from([0.0, 1.0, 2.0, 0.5]), min_size=1, max_size=9)
    .filter(any).map(finite_sequence),
)
# up to 32 listed indices: up to 64 cut points, with members past the last
# index of positive mass
_sets = st.one_of(
    st.just(NatSet.all()),
    st.lists(st.integers(0, 48), max_size=32).map(NatSet.finite),
    st.lists(st.integers(0, 48), min_size=1, max_size=32).map(NatSet.cofinite),
)
_sizes = st.sampled_from([2, CHUNK - 1, CHUNK + 1, 3 * CHUNK])


class TestCutPointCounting:
    @given(st.floats(0.05, 12.0), _densities, _sets, _sizes, st.integers(0, 2 ** 32))
    @settings(max_examples=80, deadline=None)
    def test_proportion_matches_search_and_isin(self, zeta, b, B, L, seed):
        p = PowerSeriesPmf(zeta, b)
        rng = RngSpec(seed=seed)
        got = mc._indicator_proportion(p, B, L, rng, 0)
        assert got == _reference_proportion(p, B, L, rng, 0)

    @given(st.floats(0.05, 6.0), st.floats(0.05, 6.0), _densities, _sets,
           _sizes, _sizes, st.integers(0, 2 ** 32))
    @settings(max_examples=30, deadline=None)
    def test_estimate_matches_reference(self, z1, z2, b, B, L1, L2, seed):
        args = (z1, b, z2, ONES, B, L1, L2, RngSpec(seed=seed))
        got = estimate_measure(*args)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "_indicator_proportion", _reference_proportion)
            want = estimate_measure(*args)
        assert (got.point, got.stderr, got.n_samples, got.components) == (
            want.point, want.stderr, want.n_samples, want.components)

    def test_many_and_few_cut_points(self):
        # 40 isolated members give 79 cut points (member 0 has no lower
        # edge), 3 give 6
        p = PowerSeriesPmf(60.0, ONES)
        _, last_positive = mc._inverse_table(p)
        for members in (range(0, 120, 3), (50, 60, 70)):
            B = NatSet.finite(members)
            _, cuts = mc._membership_cuts(B, last_positive)
            assert len(cuts) == 2 * len(members) - (0 in members)
            rng = RngSpec(seed=11)
            assert (mc._indicator_proportion(p, B, 2 * CHUNK + 5, rng, 1)
                    == _reference_proportion(p, B, 2 * CHUNK + 5, rng, 1))

    def test_fixed_count_draws_nothing(self, monkeypatch):
        p = PowerSeriesPmf(1.0, finite_sequence([0.0, 1.0, 0.0, 2.0, 1.0, 0.0]))
        _, last_positive = mc._inverse_table(p)
        assert last_positive == 4

        def no_draws(*_):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(mc, "generator", no_draws)
        rng = RngSpec(seed=3)
        cases = {
            NatSet.all(): 1.0,
            NatSet.finite(range(5)): 1.0,
            NatSet.finite([0, 1, 2, 3, 4, 9]): 1.0,
            NatSet.finite([5, 6, 40]): 0.0,
            NatSet.finite([]): 0.0,
            NatSet.cofinite([5, 17]): 1.0,
            NatSet.cofinite(range(8)): 0.0,
        }
        for B, prop in cases.items():
            assert mc._indicator_proportion(p, B, CHUNK + 1, rng, 0) == (prop, 0.0)
        est = estimate_measure(2.0, ONES, 1.0, ONES, NatSet.all(), 10 ** 6, 10 ** 6, rng)
        assert est.stderr == 0.0

    @pytest.mark.parametrize("zeta", [0.3, 4.0, 150.0])
    def test_b_values_match_unique(self, zeta):
        draws = np.random.default_rng(5).poisson(zeta, 5000)
        rules = (
            rule_sequence(lambda n: float(n) ** 0.5, GeometricEnvelope(1.0, 2.0)),
            rule_sequence(lambda n: n % 3, Bounded(2.0)),
        )
        for b in rules:
            got = mc._b_values(b, draws)
            want = _reference_b_values(b, draws)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_b_values_call_each_distinct_draw_once_in_order(self):
        seen = []
        b = rule_sequence(lambda n: seen.append(n) or n / 2.0, Bounded(8.0))
        got = mc._b_values(b, np.array([12, 3, 3, 9, 7, 7]))
        assert seen == [3, 7, 9, 12]
        assert got.tolist() == [6.0, 1.5, 1.5, 4.5, 3.5, 3.5]

    def test_uniform_on_an_edge_counts_below_it(self, monkeypatch):
        # a draw with u == cdf[k] is index k or lower (searchsorted, side
        # "left"), so it counts toward #{u <= cdf[k]}
        p = PowerSeriesPmf(1.0, finite_sequence([1.0, 2.0, 0.0, 1.0, 3.0]))
        cdf, last_positive = mc._inverse_table(p)
        u = np.concatenate((cdf[:last_positive], [0.0, 0.5, 0.99]))

        class OnEdges:
            def random(self, take):
                return u[:take]

        monkeypatch.setattr(mc, "generator", lambda *_: OnEdges())
        rng = RngSpec(seed=1)
        for B in (NatSet.finite([1]), NatSet.finite([0, 3]), NatSet.cofinite([2, 3])):
            got = mc._indicator_proportion(p, B, u.size, rng, 0)
            assert got == _reference_proportion(p, B, u.size, rng, 0)

    def test_rejection_sampling_unchanged(self, monkeypatch):
        p = PowerSeriesPmf(1.5, EVENS)
        got = sample_pmf(p, RngSpec(seed=41), 3 * CHUNK, method="rejection")
        monkeypatch.setattr(mc, "_b_values", _reference_b_values)
        assert got == sample_pmf(p, RngSpec(seed=41), 3 * CHUNK, method="rejection")
