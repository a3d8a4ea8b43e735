import math
import time

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
    NonFiniteResult,
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

    def test_zero_uniform_draws_no_zero_mass_index(self, monkeypatch):
        # the uniforms 0.0 and the largest below 1.0 land on the first and
        # last indices of positive mass
        class Edges:
            def random(self, n):
                return np.resize([0.0, 1.0 - 2.0 ** -53], n)

        monkeypatch.setattr(mc, "generator", lambda *_: Edges())
        p = PowerSeriesPmf(1.0, finite_sequence([0.0, 0.0, 1.0, 0.0, 2.0, 0.0]))
        assert sample_pmf(p, RngSpec(seed=1), 4) == [2, 4, 2, 4]

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
    @pytest.mark.parametrize("zeta", [math.nan, math.inf])
    def test_non_finite_zeta_refused(self, zeta):
        # a nan zeta once gave point -0.5 with stderr 0.0
        with pytest.raises(ValueError, match="finite"):
            estimate_measure(zeta, [0.5, 0.5], 1.0, [1.0], NatSet.all(), 10, 10, RngSpec(1))
        with pytest.raises(ValueError, match="finite"):
            estimate_measure(1.0, [0.5, 0.5], zeta, [1.0], NatSet.all(), 10, 10, RngSpec(1))
        with pytest.raises(ValueError, match="finite"):
            estimate_normalizer_poisson(zeta, [0.5, 0.5], 10, RngSpec(1))

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


class TestStderrAtLargeZeta:
    """Each side's stderr is formed at its mass's scale: e**400 is a float,
    its square is not."""

    def test_exact_masses_at_zeta_400(self):
        est = estimate_measure(400.0, ONES, 1.0, ONES, NatSet.finite([400]), 100, 100,
                               RngSpec(seed=1))
        c = est.components
        assert math.isfinite(est.point) and 0.0 < est.stderr < math.inf
        assert c["mass_pos"] == pytest.approx(math.exp(400.0), rel=1e-12)
        pv = c["prop_pos"] * (1.0 - c["prop_pos"]) / 99
        assert c["stderr_pos"] == pytest.approx(c["mass_pos"] * math.sqrt(pv), rel=1e-15)
        assert est.stderr == math.hypot(c["stderr_pos"], c["stderr_neg"])

    def test_estimated_masses_at_zeta_400(self):
        b = rule_sequence(lambda n: float(n % 3), Bounded(2.0))
        est = estimate_measure(400.0, b, 1.0, ONES, NatSet.finite(range(380, 420)), 1000, 1000,
                               RngSpec(seed=2), estimate_normalizers=True)
        assert math.isfinite(est.point) and 0.0 < est.stderr < math.inf
        assert est.components["stderr_pos"] > 0.0

    def test_same_stderr_law_where_squares_fit(self):
        # the product-variance formula, as a plain sum of squared terms
        b = rule_sequence(lambda n: float(n + 1), GeometricEnvelope(1.0, 2.0))
        for normalizers in (False, True):
            est = estimate_measure(2.0, b, 1.5, ONES, NatSet.finite([0, 1, 2, 3]), 5000, 5000,
                                   RngSpec(seed=9), estimate_normalizers=normalizers)
            c = est.components
            var = 0.0
            for side, L in (("pos", 5000), ("neg", 5000)):
                prop, mass = c[f"prop_{side}"], c[f"mass_{side}"]
                pv = prop * (1.0 - prop) / (L - 1)
                sd = c[f"stderr_{side}"]
                if not normalizers:
                    assert sd == pytest.approx(abs(mass) * math.sqrt(pv), rel=1e-14)
                var += sd * sd
            assert est.stderr == pytest.approx(math.sqrt(var), rel=1e-14)

    def test_non_finite_estimate_is_refused(self, monkeypatch):
        # a mean of b_N beyond 1.8e308 / e**700 makes the mass estimate overflow
        monkeypatch.setattr(mc, "_poisson_b_moments", lambda *a: (1e10, 0.0))
        with pytest.raises(NonFiniteResult, match="not finite"):
            estimate_measure(700.0, ONES, 1.0, ONES, NatSet.all(), 100, 100, RngSpec(seed=1),
                             estimate_normalizers=True)


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

    def test_overflowing_scale_is_refused_by_name(self, monkeypatch):
        # e**720 overflows a float: refused before any Poisson table is built
        def no_tables(*_):
            raise AssertionError("a Poisson table was built")

        monkeypatch.setattr(mc, "_poisson_cells", no_tables)
        monkeypatch.setattr(PowerSeriesPmf, "cumulative_table", no_tables)
        calls = [
            lambda: estimate_normalizer_poisson(720.0, ONES, 100, RngSpec(seed=1)),
            lambda: estimate_measure(720.0, ONES, 1.0, ONES, NatSet.finite([1]), 100, 100,
                                     RngSpec(seed=1), estimate_normalizers=True),
            lambda: estimate_measure(1.0, ONES, 720.0, ONES, NatSet.finite([1]), 100, 100,
                                     RngSpec(seed=1), estimate_normalizers=True),
        ]
        for call in calls:
            with pytest.raises(NonFiniteResult, match=r"zeta = 720\.0 needs e\*\*zeta"):
                call()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            estimate_normalizer_poisson(0.0, ONES, 100, RngSpec(seed=1))
        with pytest.raises(ValueError):
            estimate_normalizer_poisson(1.0, ONES, 1, RngSpec(seed=1))


# ---------------------------------------------------------------------------
# counts drawn from their laws, against references that draw one by one

GRID = 2 ** 53  # random() returns k / 2**53, k = 0 .. 2**53 - 1
K_SE = 5.0  # how many standard errors two samples of estimates may differ by


def _reference_proportion(p, B, L, rng, role):
    """Draw every index by search and clamp, then test membership per draw."""
    cdf, first_positive, last_positive = mc._inverse_table(p)
    listed = np.asarray(B.elements, dtype=np.int64)
    total = 0
    for chunk, start in enumerate(range(0, L, CHUNK)):
        u = mc.generator(rng, role, chunk).random(min(CHUNK, L - start))
        draws = np.clip(np.searchsorted(cdf, u, side="left"), first_positive, last_positive)
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


def _reference_poisson_moments(zeta, b, L, rng, role):
    """Draw every Poisson variate and average b over the draws."""
    draws = np.concatenate([
        mc.generator(rng, role, chunk).poisson(zeta, min(CHUNK, L - start))
        for chunk, start in enumerate(range(0, L, CHUNK))])
    vals = _reference_b_values(b, draws).astype(float)
    return float(vals.mean()), float(vals.var(ddof=1)) / L


def _reference_hits(cdf, first_positive, last_positive, B):
    """Grid values k / 2**53 whose per-draw index (search and clamp) is in
    B, counted by bisecting on k for where the index passes each m."""
    m = np.arange(last_positive + 1)
    lo = np.zeros(m.size, dtype=np.int64)  # k < lo: index <= m
    hi = np.full(m.size, GRID, dtype=np.int64)  # k >= hi: index > m
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        index = np.clip(np.searchsorted(cdf, mid / GRID, side="left"),
                        first_positive, last_positive)
        at_most = (index <= m) & (lo < hi)
        lo = np.where(at_most, mid + 1, lo)
        hi = np.where(~at_most & (lo < hi), mid, hi)
    cells = np.diff(np.concatenate(([0], lo)))
    inside = np.isin(m, np.asarray(B.elements, dtype=np.int64))
    if B.kind == "all":
        inside[:] = True
    elif B.kind == "cofinite":
        inside = ~inside
    return int(cells[inside].sum())


def _assert_same_law(got, want):
    """Two samples of estimates agree in mean and in variance within K_SE
    standard errors (the variance's from the samples' fourth moments)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)

    def moments(x):
        d = x - x.mean()
        m2, m4 = float(np.mean(d ** 2)), float(np.mean(d ** 4))
        return float(x.mean()), m2 / x.size, float(x.var(ddof=1)), (m4 - m2 ** 2) / x.size

    mean1, vm1, var1, vv1 = moments(got)
    mean2, vm2, var2, vv2 = moments(want)
    assert abs(mean1 - mean2) <= K_SE * math.sqrt(vm1 + vm2), (mean1, mean2)
    assert abs(var1 - var2) <= K_SE * math.sqrt(vv1 + vv2), (var1, var2)


class _Recorder:
    """A generator stand-in that records its binomial calls."""

    def __init__(self):
        self.calls = []

    def binomial(self, n, q):
        self.calls.append((n, q))
        return 0


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


class TestCutPointCounting:
    @given(st.floats(0.05, 12.0), _densities, _sets)
    @settings(max_examples=80, deadline=None)
    def test_proportion_matches_search_and_isin(self, zeta, b, B):
        # the binomial's q is the per-draw rule's probability on the grid
        p = PowerSeriesPmf(zeta, b)
        table = mc._inverse_table(p)
        hits = mc._membership_hits(*table, B)
        assert hits == _reference_hits(*table, B)
        recorder = _Recorder()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "generator", lambda *_: recorder)
            mc._indicator_proportion(p, B, 1000, RngSpec(seed=1), 0)
        assert recorder.calls == ([(1000, hits / GRID)] if 0 < hits < GRID else [])

    def test_uniform_on_an_edge_counts_below_it(self):
        # cdf edges on grid points and one float below and above them; at
        # 0.5 and up a float's neighbour is the next grid point
        g = 2.0 ** -53
        edges = []
        for k in (5, 2 ** 30 + 3, 2 ** 51 + 1, 2 ** 52 + 9):
            on = k * g
            edges += [np.nextafter(on, 0.0), on, np.nextafter(on, 1.0)]
        cdf = np.array(edges + [1.0])
        table = (cdf, 0, cdf.size - 1)
        # a uniform equal to an edge draws that edge's index or lower
        assert [mc._grid_count(e) for e in edges[:3]] == [5, 6, 6]
        assert [mc._grid_count(e) for e in edges[-3:]] == [2 ** 52 + 9, 2 ** 52 + 10, 2 ** 52 + 11]
        assert mc._grid_count(1.0) == GRID
        sets = [NatSet.finite([m]) for m in range(cdf.size)]
        sets += [NatSet.finite([0, 2, 3, 7, 12]), NatSet.cofinite([1, 2, 9]),
                 NatSet.finite(range(0, 13, 2)), NatSet.all()]
        for B in sets:
            assert mc._membership_hits(*table, B) == _reference_hits(*table, B), B

    def test_many_and_few_cut_points(self):
        # 40 isolated members give 79 cut points (member 0 has no lower
        # edge), 3 give 6
        p = PowerSeriesPmf(60.0, ONES)
        table = mc._inverse_table(p)
        assert table[1] == 0
        for members in (range(0, 120, 3), (50, 60, 70)):
            B = NatSet.finite(members)
            _, cuts = mc._membership_cuts(B, *table[1:])
            assert len(cuts) == 2 * len(members) - (0 in members)
            assert mc._membership_hits(*table, B) == _reference_hits(*table, B)

    def test_estimate_matches_reference(self):
        # over 300 streams, the binomial count and the count of 5000 draws
        # give estimates with the same mean and variance; q runs from 0.003
        # (numpy's inversion sampler) to 0.9
        cases = [
            (PowerSeriesPmf(2.0, ONES), NatSet.finite([0, 1, 2])),
            (PowerSeriesPmf(2.0, ONES), NatSet.finite([7])),
            (PowerSeriesPmf(4.0, EVENS), NatSet.cofinite([0, 2, 3])),
            (PowerSeriesPmf(1.0, finite_sequence([1.0, 0.0, 2.0, 0.5])), NatSet.finite([1, 2])),
        ]
        L = 5000
        for p, B in cases:
            got, want = [], []
            for r in range(300):
                rng = RngSpec(seed=2024, stream=r)
                got.append(mc._indicator_proportion(p, B, L, rng, 0))
                want.append(_reference_proportion(p, B, L, rng, 0))
            _assert_same_law([g[0] for g in got], [w[0] for w in want])
            # and the reported variance of the mean matches the spread
            reported = np.mean([g[1] for g in got])
            spread = np.var([g[0] for g in got], ddof=1)
            assert abs(reported - spread) <= K_SE * spread * math.sqrt(2.0 / 299)

    def test_poisson_moments_match_reference(self):
        cases = [
            (2.5, rule_sequence(lambda n: float(n), GeometricEnvelope(1.0, 2.0))),
            (10.0, rule_sequence(lambda n: n % 3, Bounded(2.0))),
            (0.2, EVENS),
        ]
        L = 5000
        for zeta, b in cases:
            got, want = [], []
            for r in range(300):
                rng = RngSpec(seed=2025, stream=r)
                got.append(mc._poisson_b_moments(zeta, b, L, rng, 2))
                want.append(_reference_poisson_moments(zeta, b, L, rng, 2))
            _assert_same_law([g[0] for g in got], [w[0] for w in want])
            _assert_same_law([g[1] for g in got], [w[1] for w in want])

    def test_fixed_count_draws_nothing(self, monkeypatch):
        p = PowerSeriesPmf(1.0, finite_sequence([0.0, 1.0, 0.0, 2.0, 1.0, 0.0]))
        assert mc._inverse_table(p)[1:] == (1, 4)

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
            # cut points remain, but the cell they bound holds no grid value
            NatSet.finite([2]): 0.0,
            NatSet.cofinite([2]): 1.0,
            # index 0 has no mass: a uniform of exactly 0.0 draws index 1
            NatSet.finite([0]): 0.0,
            NatSet.cofinite([0]): 1.0,
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

    def test_rejection_sampling_unchanged(self, monkeypatch):
        p = PowerSeriesPmf(1.5, EVENS)
        got = sample_pmf(p, RngSpec(seed=41), 3 * CHUNK, method="rejection")
        monkeypatch.setattr(mc, "_b_values", _reference_b_values)
        assert got == sample_pmf(p, RngSpec(seed=41), 3 * CHUNK, method="rejection")


class TestPoissonCells:
    def test_each_reached_cell_evaluated_once_in_order(self):
        seen = []
        b = rule_sequence(lambda n: seen.append(n) or float(n), GeometricEnvelope(1.0, 2.0))
        counts = mc._poisson_counts(3.0, 10 ** 5, mc.generator(RngSpec(seed=8), 2, 0))
        mc._poisson_b_moments(3.0, b, 10 ** 5, RngSpec(seed=8), 2)
        assert seen == sorted(counts) == list(counts)
        assert sum(counts.values()) == 10 ** 5

    def test_overflow_cell_law(self, monkeypatch):
        # a horizon of 3 at zeta = 2.5 leaves a quarter of the mass past it,
        # so most cells are filled by conditioned Poisson variates
        monkeypatch.setattr(mc, "_POISSON_TAIL_EPS", 0.5)
        zeta, L = 2.5, 10 ** 5
        head, past = mc._poisson_cells(zeta)
        assert len(head) == 4 and len(past) > 10
        counts = mc._poisson_counts(zeta, L, mc.generator(RngSpec(seed=9), 2, 0))
        assert sum(counts.values()) == L
        assert sum(c for n, c in counts.items() if n >= len(head)) > 0.2 * L
        top = 11
        observed = [counts.get(n, 0) for n in range(top)]
        observed.append(L - sum(observed))
        pmf = [stats.poisson.pmf(n, zeta) for n in range(top)]
        pmf.append(stats.poisson.sf(top - 1, zeta))
        _, pvalue = stats.chisquare(observed, [L * q for q in pmf])
        assert pvalue > 0.001
        # the conditioned draws alone follow Poisson given N > 3
        tail_obs = [counts.get(n, 0) for n in range(4, top)]
        tail_obs.append(sum(observed[4:]) - sum(tail_obs))
        tail_p = np.array(pmf[4:]) / stats.poisson.sf(3, zeta)
        _, pvalue = stats.chisquare(tail_obs, sum(tail_obs) * tail_p)
        assert pvalue > 0.001
        b = rule_sequence(lambda n: float(n), GeometricEnvelope(1.0, 2.0))
        est = estimate_normalizer_poisson(zeta, b, L, RngSpec(seed=10))
        assert abs(est.point - zeta * math.exp(zeta)) <= K_SE * est.stderr

    def test_huge_sample_is_cheap_and_scales(self):
        b = rule_sequence(lambda n: float(n), GeometricEnvelope(1.0, 2.0))
        calls = {
            "measure": lambda L: estimate_measure(
                2.0, ONES, 1.0, ONES, NatSet.finite([0, 1, 2]), L, L, RngSpec(seed=12)),
            "measure_normalizers": lambda L: estimate_measure(
                2.0, b, 1.0, ONES, NatSet.cofinite([1]), L, L, RngSpec(seed=13),
                estimate_normalizers=True),
            "normalizer": lambda L: estimate_normalizer_poisson(2.0, b, L, RngSpec(seed=14)),
        }
        for name, call in calls.items():
            small = call(10 ** 6)
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                big = call(10 ** 12)
                times.append(time.perf_counter() - t0)
            assert min(times) < 0.05, name
            assert big.stderr * 10 ** 3 == pytest.approx(small.stderr, rel=0.02), name


class TestHonestStderr:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_large_constant_offset_keeps_its_spread(self, seed):
        # b_n = 1e8 + (n mod 2): Var(b_N) = P(even) P(odd) under Poisson(2);
        # s2 - L mean**2 cancelled to a raw stderr of 0 here
        b = rule_sequence(lambda n: 1e8 + (n % 2), Bounded(1e8 + 1.0))
        L = 10 ** 5
        est = estimate_normalizer_poisson(2.0, b, L, RngSpec(seed=seed))
        even = (1.0 + math.exp(-4.0)) / 2.0
        true_raw = math.sqrt(even * (1.0 - even) / L)
        assert est.components["raw_stderr"] == pytest.approx(true_raw, rel=0.01)
        exact = 1e8 * math.exp(2.0) + math.sinh(2.0)
        assert abs(est.point - exact) <= K_SE * est.stderr
