import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import taylormeasure.stochastic as stoch
from taylormeasure import (
    Ar1,
    BernoulliStep,
    BrownianApprox,
    DivergenceUnknown,
    GaussianIID,
    GaussianIndep,
    IndicatorGamma,
    NatSet,
    NormalStep,
    RandomWalk,
    RngSpec,
    SamplePath,
    SimpleFunction,
    UniformStep,
    UnsupportedSpec,
    Unverified,
    brownian_marginal_moments,
    constant_sequence,
    evaluate,
    finite_sequence,
    gaussian_truncation_plan,
    rule_sequence,
    sample_stm,
    sample_stm_batch,
    simulate_brownian,
    simulate_brownian_batch,
    simulate_random_walk,
    simulate_random_walk_batch,
    stm_coefficients,
    stm_moments,
)
from taylormeasure.montecarlo import (
    CHUNK,
    ROLE_BROWNIAN,
    ROLE_STM,
    ROLE_WALK,
    generator,
)

ALL = NatSet.all()
SUM_INV_SQ_FACT = 2.2795853023360673  # sum over n of 1/(n!)^2


def _var_band(v, R):
    # 3 standard errors of a Gaussian sample variance
    return 3.0 * v * math.sqrt(2.0 / (R - 1))


class TestStepDistributions:
    def test_moments(self):
        assert NormalStep(2.0, 3.0).mean == 2.0
        assert NormalStep(2.0, 3.0).variance == 9.0
        u = UniformStep(0.0, 1.0)
        assert u.mean == 0.5
        assert u.variance == pytest.approx(1.0 / 12.0)
        b = BernoulliStep(0.5)
        assert b.mean == 0.0
        assert b.variance == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NormalStep(0.0, -1.0)
        with pytest.raises(ValueError):
            UniformStep(1.0, 1.0)
        with pytest.raises(ValueError):
            BernoulliStep(1.5)


class TestSpecValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GaussianIID(0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            IndicatorGamma(1.2, constant_sequence(1.0), constant_sequence(1.0))
        with pytest.raises(ValueError):
            SimpleFunction((1.0, 2.0), (0.5, 0.6))
        with pytest.raises(ValueError):
            SimpleFunction((1.0,), (0.5, 0.5))
        with pytest.raises(ValueError):
            RandomWalk(NormalStep(), -1)
        with pytest.raises(ValueError):
            Ar1(1.5, 1.0, 3)
        with pytest.raises(ValueError):
            Ar1(0.5, 0.0, 3)
        with pytest.raises(ValueError):
            BrownianApprox(0, 0.0, 1.0)
        with pytest.raises(ValueError):
            BrownianApprox(4, 0.0, 0.0)


class TestSamplePath:
    def test_interpolation(self):
        p = SamplePath((0.0, 1.0, 2.0), (0.0, 2.0, -2.0))
        assert p.at(0.5) == 1.0
        assert p.at(1.5) == 0.0
        assert p.at(2.0) == -2.0
        with pytest.raises(ValueError):
            p.at(2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplePath((0.0, 0.0), (1.0, 2.0))
        with pytest.raises(ValueError):
            SamplePath((0.0, 1.0), (1.0,))


class TestGaussianMoments:
    def test_iid_on_all(self):
        mean, var = stm_moments(GaussianIID(1.0, 1.0, 1.0), ALL)
        assert mean == pytest.approx(math.e, abs=1e-11)
        assert var == pytest.approx(SUM_INV_SQ_FACT, abs=1e-13)

    def test_iid_on_finite_set(self):
        B = NatSet.finite([0, 1, 2])
        mean, var = stm_moments(GaussianIID(2.0, 3.0, 0.5), B)
        assert mean == pytest.approx(2.0 * (1.0 + 0.5 + 0.125), rel=1e-14)
        assert var == pytest.approx(9.0 * (1.0 + 0.25 + 0.25 ** 2 / 4.0), rel=1e-14)

    def test_iid_mean_past_half_an_ulp_of_eps(self):
        # the mean series e**10 carries half an ulp of 1.8e-12, above eps
        mean, var = stm_moments(GaussianIID(mu_a=1.0, sigma_a=1.0, gamma=10.0), ALL)
        assert mean == pytest.approx(math.exp(10.0), rel=1e-14)
        exact = math.fsum(100.0 ** n / math.factorial(n) ** 2 for n in range(80))
        assert var == pytest.approx(exact, rel=1e-13)

    def test_indep(self):
        spec = GaussianIndep(finite_sequence([1.0, 2.0]), finite_sequence([3.0]), 1.0)
        mean, var = stm_moments(spec, ALL)
        assert mean == pytest.approx(3.0, rel=1e-14)
        assert var == pytest.approx(9.0, rel=1e-14)

    def test_indicator_exact_formula(self):
        spec = IndicatorGamma(0.3, constant_sequence(1.0), constant_sequence(1.0))
        mean, var = stm_moments(spec, ALL)
        assert mean == pytest.approx(0.3 * math.e, abs=1e-11)
        exact = 0.3 * SUM_INV_SQ_FACT + 0.3 * 0.7 * math.e ** 2
        assert var == pytest.approx(exact, rel=1e-11)


class TestGaussianSampling:
    def test_infinite_set_needs_plan(self):
        with pytest.raises(DivergenceUnknown):
            sample_stm(GaussianIID(1.0, 1.0, 1.0), ALL, None, RngSpec(seed=1))

    def test_degenerate_is_zero(self):
        assert sample_stm(GaussianIID(0.0, 0.0, 1.0), ALL, None, RngSpec(seed=1)) == 0.0
        B = NatSet.finite([0, 3, 7])
        assert sample_stm(GaussianIID(0.0, 0.0, 2.0), B, None, RngSpec(seed=1)) == 0.0

    def test_reproducible_and_single_matches_batch(self):
        spec = GaussianIID(1.0, 1.0, 1.0)
        plan = gaussian_truncation_plan(spec, 1e-12)
        a = sample_stm_batch(spec, ALL, plan, RngSpec(seed=7), 100)
        b = sample_stm_batch(spec, ALL, plan, RngSpec(seed=7), 100)
        c = sample_stm_batch(spec, ALL, plan, RngSpec(seed=7, stream=1), 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        single = sample_stm(spec, ALL, plan, RngSpec(seed=7))
        assert single == a[0]

    def test_iid_calibration(self):
        spec = GaussianIID(1.0, 1.0, 1.0)
        plan = gaussian_truncation_plan(spec, 1e-12)
        mean, var = stm_moments(spec, ALL)
        R = 10 ** 5
        draws = sample_stm_batch(spec, ALL, plan, RngSpec(seed=2026), R)
        assert abs(draws.mean() - mean) <= 3.0 * math.sqrt(var / R)
        assert abs(draws.var(ddof=1) - var) <= _var_band(var, R)

    def test_indicator_calibration(self):
        spec = IndicatorGamma(0.3, constant_sequence(1.0), constant_sequence(1.0))
        plan = gaussian_truncation_plan(spec, 1e-12)
        mean, var = stm_moments(spec, ALL)
        R = 10 ** 5
        draws = sample_stm_batch(spec, ALL, plan, RngSpec(seed=11), R)
        assert abs(draws.mean() - mean) <= 3.0 * math.sqrt(var / R)
        centered = draws - draws.mean()
        m4 = float(np.mean(centered ** 4))
        se_var = math.sqrt(max(m4 - var ** 2, 0.0) / R)
        assert abs(draws.var(ddof=1) - var) <= 4.0 * se_var
        zero_freq = float(np.mean(draws == 0.0))
        assert abs(zero_freq - 0.7) <= 3.0 * math.sqrt(0.21 / R)

    def test_plan_errors(self):
        with pytest.raises(UnsupportedSpec):
            gaussian_truncation_plan(RandomWalk(NormalStep(), 3))
        spec = GaussianIndep(
            constant_sequence(1.0),
            rule_sequence(lambda n: 1.0, Unverified()),
            1.0,
        )
        with pytest.raises(DivergenceUnknown):
            gaussian_truncation_plan(spec)


class TestSimpleFunction:
    def test_values_and_frequencies(self):
        spec = SimpleFunction((2.0, 5.0), (0.3, 0.7))
        draws = sample_stm_batch(spec, ALL, None, RngSpec(seed=4), 10 ** 5)
        assert set(np.unique(draws)) == {2.0, 5.0}
        freq = float(np.mean(draws == 5.0))
        assert abs(freq - 0.7) <= 3.0 * math.sqrt(0.21 / 10 ** 5)

    def test_moments(self):
        mean, var = stm_moments(SimpleFunction((2.0, 5.0), (0.3, 0.7)), ALL)
        assert mean == pytest.approx(4.1, rel=1e-14)
        assert var == pytest.approx(1.89, rel=1e-14)


class TestRandomWalk:
    def test_zero_steps(self):
        path = simulate_random_walk(RandomWalk(NormalStep(), 0), RngSpec(seed=1))
        assert path.values == (0.0,)
        assert sample_stm(RandomWalk(NormalStep(), 0), ALL, None, RngSpec(seed=1)) == 0.0

    def test_stm_identity_bit_exact(self):
        spec = RandomWalk(NormalStep(0.0, 1.0), 50)
        rng = RngSpec(seed=42)
        path = simulate_random_walk(spec, rng)
        assert path.values[-1] == sample_stm(spec, NatSet.finite(range(51)), None, rng)

    def test_stm_identity_through_measure(self):
        spec = RandomWalk(UniformStep(-1.0, 1.0), 40)
        rng = RngSpec(seed=9)
        s = simulate_random_walk(spec, rng).values[-1]
        got = evaluate(stm_coefficients(spec, rng), NatSet.finite(range(41))).value
        assert abs(got - s) <= 4.0 * abs(s) * 2.0 ** -52 + 5e-324

    def test_variance_additivity(self):
        spec = RandomWalk(NormalStep(0.0, 1.0), 10 ** 4)
        paths = simulate_random_walk_batch(spec, RngSpec(seed=3), 10 ** 3)
        emp = paths[:, -1].var(ddof=1) / 10 ** 4
        assert abs(emp - 1.0) <= 0.1

    def test_bernoulli_walk_moments(self):
        spec = RandomWalk(BernoulliStep(0.6, 1.0, -1.0), 100)
        mean, var = stm_moments(spec, ALL)
        assert mean == pytest.approx(100 * 0.2, rel=1e-12)
        assert var == pytest.approx(100 * (1.0 - 0.04), rel=1e-12)

    def test_martingale_increment_proxy(self):
        # zero-mean steps: E[S_{t+1} - S_t | sign(S_t)] = 0 in both bins
        spec = RandomWalk(NormalStep(0.0, 1.0), 201)
        paths = simulate_random_walk_batch(spec, RngSpec(seed=12), 20000)
        s_t = paths[:, 200]
        inc = paths[:, 201] - paths[:, 200]
        for bin_mask in (s_t >= 0.0, s_t < 0.0):
            n = int(bin_mask.sum())
            assert n > 100
            m = float(inc[bin_mask].mean())
            se = float(inc[bin_mask].std(ddof=1)) / math.sqrt(n)
            assert abs(m) <= 3.0 * se

    def test_subset_evaluation(self):
        # measure of a sub-window sums only those steps
        spec = RandomWalk(NormalStep(0.0, 1.0), 10)
        rng = RngSpec(seed=5)
        path = simulate_random_walk(spec, rng)
        got = sample_stm(spec, NatSet.finite([3, 4, 5]), None, rng)
        steps = np.diff(path.values)
        assert got == pytest.approx(steps[2] + steps[3] + steps[4], rel=1e-12)


class TestAr1:
    def test_moments(self):
        mean, var = stm_moments(Ar1(0.5, 1.0, 3), ALL)
        assert mean == 0.0
        assert var == pytest.approx(1.3125, rel=1e-14)

    def test_unit_phi(self):
        _, var = stm_moments(Ar1(1.0, 2.0, 5), ALL)
        assert var == pytest.approx(10.0, rel=1e-14)

    @given(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 10 ** 6), st.floats(0.01, 100.0))
    @settings(max_examples=300, deadline=None)
    # 1 - phi**(2t) cancels to 0.0 at a phi this near 1 unless formed as an expm1
    @example(phi=0.9999999999973651, t=1975, sigma2=1.0)
    @example(phi=0.0, t=3, sigma2=1.0)
    def test_variance_against_mpmath(self, phi, t, sigma2):
        _, var = stm_moments(Ar1(phi, sigma2, t), ALL)
        with mpmath.workdps(50):
            p = mpmath.mpf(phi)
            exact = sigma2 * (1 - p ** (2 * t)) / (1 - p * p)
            assert abs(var - exact) <= 2e-15 * exact

    def test_calibration(self):
        spec = Ar1(0.5, 1.0, 3)
        R = 10 ** 5
        draws = sample_stm_batch(spec, ALL, None, RngSpec(seed=6), R)
        assert abs(draws.mean()) <= 3.0 * math.sqrt(1.3125 / R)
        assert abs(draws.var(ddof=1) - 1.3125) <= _var_band(1.3125, R)


class TestBrownianApprox:
    def test_paths_start_at_zero_on_unit_grid(self):
        spec = BrownianApprox(8, 0.5, 2.0)
        path = simulate_brownian(spec, RngSpec(seed=1))
        assert path.values[0] == 0.0
        assert path.times_or_indices[0] == 0.0
        assert path.times_or_indices[-1] == 1.0
        assert len(path.values) == 9

    def test_increment_moments(self):
        spec = BrownianApprox(16, 0.0, 1.0)
        paths = simulate_brownian_batch(spec, RngSpec(seed=8), 10 ** 4)
        inc = np.diff(paths, axis=1)
        flat = inc.ravel()
        n_obs = flat.size
        assert abs(flat.mean()) <= 3.0 * math.sqrt((1.0 / 16) / n_obs)
        assert abs(flat.var(ddof=1) - 1.0 / 16) <= _var_band(1.0 / 16, n_obs)

    def test_terminal_variance_one(self):
        spec = BrownianApprox(16, 0.5, 2.0)
        paths = simulate_brownian_batch(spec, RngSpec(seed=13), 10 ** 5)
        term = paths[:, -1]
        assert abs(term.mean()) <= 3.0 * math.sqrt(1.0 / 10 ** 5)
        assert abs(term.var(ddof=1) - 1.0) <= _var_band(1.0, 10 ** 5)

    def test_adjacent_increments_uncorrelated(self):
        spec = BrownianApprox(4, 0.0, 1.0)
        paths = simulate_brownian_batch(spec, RngSpec(seed=14), 10 ** 5)
        inc = np.diff(paths, axis=1)
        corr = float(np.corrcoef(inc[:, 0], inc[:, 1])[0, 1])
        assert abs(corr) <= 3.0 / math.sqrt(10 ** 5)

    def test_marginal_moments(self):
        spec = BrownianApprox(10, 0.0, 1.0)
        assert brownian_marginal_moments(spec, 0) == (0.0, 0.0)
        assert brownian_marginal_moments(spec, 7) == (0.0, 0.7)
        with pytest.raises(ValueError):
            brownian_marginal_moments(spec, 11)
        with pytest.raises(UnsupportedSpec):
            stm_moments(spec, ALL)

    def test_path_matches_stm_sample(self):
        spec = BrownianApprox(32, 0.0, 1.0)
        rng = RngSpec(seed=15)
        path = simulate_brownian(spec, rng)
        got = sample_stm(spec, ALL, None, rng)
        assert got == path.values[-1]


class TestStmCoefficients:
    def test_only_path_specs(self):
        with pytest.raises(UnsupportedSpec):
            stm_coefficients(GaussianIID(0.0, 1.0, 1.0), RngSpec(seed=1))

    def test_ar1_embedding(self):
        spec = Ar1(0.5, 1.0, 4)
        rng = RngSpec(seed=16)
        T = stm_coefficients(spec, rng)
        direct = sample_stm(spec, ALL, None, rng)
        got = evaluate(T, NatSet.finite(range(5))).value
        assert got == pytest.approx(direct, rel=1e-14)


# ---------------------------------------------------------------------------
# batches drawn from the law of X(B), against references that draw per term


def _reference_gaussian_batch(spec, B, truncation, rng, R):
    """Draw every coefficient's normal and sum the weighted terms."""
    idx = stoch._gaussian_window(spec, B, truncation)
    gamma = 1.0 if isinstance(spec, IndicatorGamma) else spec.gamma
    w = np.array([stoch.term_value(stoch._ONES, gamma, int(n)) for n in idx])
    if isinstance(spec, GaussianIID):
        mu = np.full(idx.shape, spec.mu_a)
        sigma = np.full(idx.shape, spec.sigma_a)
    else:
        mu = np.array([spec.mu.a(int(n)) for n in idx])
        sigma = np.array([spec.sigma.a(int(n)) for n in idx])
    base = float(np.dot(mu, w))
    noise = sigma * w
    H = idx.size
    out = np.empty(R)
    for chunk, start, take in stoch._chunk_spans(R):
        z = generator(rng, ROLE_STM, 2 * chunk).standard_normal((take, H))
        x = base + (z @ noise if H else np.zeros(take))
        if isinstance(spec, IndicatorGamma):
            u = generator(rng, ROLE_STM, 2 * chunk + 1).random(take)
            x = np.where(u < spec.p_a, x, 0.0)
        out[start : start + take] = x
    return out


def _reference_path_batch(spec, B, rng, R):
    """Draw every step or innovation and sum the weighted steps."""
    w = stoch._walk_coefficient_weights(spec, B)
    t = w.size
    out = np.empty(R)
    for chunk, start, take in stoch._chunk_spans(R):
        if isinstance(spec, RandomWalk):
            steps = spec.step.draw(generator(rng, ROLE_WALK, chunk), (take, t))
        elif isinstance(spec, Ar1):
            g = generator(rng, ROLE_STM, chunk)
            steps = math.sqrt(spec.sigma2) * g.standard_normal((take, t))
        else:
            raw = NormalStep(spec.mu, spec.sigma).draw(
                generator(rng, ROLE_BROWNIAN, chunk), (take, t))
            steps = (raw - spec.mu) / (spec.sigma * math.sqrt(spec.n))
        out[start : start + take] = steps @ w if t else np.zeros(take)
    return out


def _reference_batch(spec, B, truncation, rng, R):
    if isinstance(spec, (GaussianIID, GaussianIndep, IndicatorGamma)):
        return _reference_gaussian_batch(spec, B, truncation, rng, R)
    if isinstance(spec, SimpleFunction):
        return stoch._simple_batch(spec, rng, R)  # one uniform per draw already
    return _reference_path_batch(spec, B, rng, R)


K_SE = 5.0  # how many standard errors two samples may differ by


def _assert_same_law(got, want):
    """Two samples agree in mean and in variance within K_SE standard
    errors (the variance's from the samples' fourth moments)."""

    def moments(x):
        d = x - x.mean()
        m2, m4 = float(np.mean(d ** 2)), float(np.mean(d ** 4))
        return float(x.mean()), m2 / x.size, float(x.var(ddof=1)), (m4 - m2 ** 2) / x.size

    mean1, vm1, var1, vv1 = moments(got)
    mean2, vm2, var2, vv2 = moments(want)
    assert abs(mean1 - mean2) <= K_SE * math.sqrt(vm1 + vm2), (mean1, mean2)
    assert abs(var1 - var2) <= K_SE * math.sqrt(vv1 + vv2), (var1, var2)


def _plan(spec):
    return gaussian_truncation_plan(spec, 1e-12)


_COEFS = finite_sequence([1.0, 2.0, -1.0, 0.5])
_SIGMAS = finite_sequence([0.5, 1.0, 2.0, 0.3])
_IID = GaussianIID(0.5, 1.2, 1.5)
_INDEP = GaussianIndep(_COEFS, _SIGMAS, 0.8)
_INDICATOR = IndicatorGamma(0.3, constant_sequence(1.0), constant_sequence(1.0))
_LAW_CASES = {
    "iid-all": (_IID, ALL, _plan(_IID)),
    "iid-finite": (_IID, NatSet.finite([0, 2, 5]), None),
    "indep-all": (_INDEP, ALL, _plan(_INDEP)),
    "indicator-all": (_INDICATOR, ALL, _plan(_INDICATOR)),
    "simple": (SimpleFunction((2.0, 5.0, -1.0), (0.3, 0.5, 0.2)), ALL, None),
    "walk-normal-all": (RandomWalk(NormalStep(0.3, 1.5), 40), ALL, None),
    "walk-bernoulli-subset": (RandomWalk(BernoulliStep(0.3, 2.0, -1.0), 40),
                              NatSet.finite(range(3, 18)), None),
    "walk-uniform-cofinite": (RandomWalk(UniformStep(-1.0, 3.0), 40),
                              NatSet.cofinite([2, 5, 9]), None),
    "ar1-all": (Ar1(0.7, 1.5, 30), ALL, None),
    "ar1-evens": (Ar1(0.9, 0.5, 30), NatSet.finite(range(0, 31, 2)), None),
    "brownian-subset": (BrownianApprox(64, 0.5, 2.0), NatSet.finite(range(5, 64, 3)), None),
    "brownian-all": (BrownianApprox(16, -1.0, 0.5), ALL, None),
}
# B holds no index of 1..t, so X(B) is 0 in every realization
_EMPTY_CASES = {
    "walk-bernoulli": (RandomWalk(BernoulliStep(0.5), 25), NatSet.finite([0, 30, 40])),
    "walk-uniform": (RandomWalk(UniformStep(), 25), NatSet.finite([])),
    "ar1": (Ar1(0.5, 1.0, 8), NatSet.finite([0])),
    "brownian": (BrownianApprox(8, 0.0, 1.0), NatSet.finite([9, 12])),
    "walk-no-steps": (RandomWalk(NormalStep(), 0), ALL),
}


class TestBatchLaw:
    def test_normal_specs_are_mean_plus_sd_z(self):
        # two chunks, so the second chunk's counter slot is checked too
        R = CHUNK + 7
        ind_mu = finite_sequence([1.0, 3.0, 2.0])
        ind_sigma = finite_sequence([0.5, 1.0, 1.5])
        indicator = IndicatorGamma(0.4, ind_mu, ind_sigma)
        B3 = NatSet.finite([0, 1, 2])
        cond = stm_moments(GaussianIndep(ind_mu, ind_sigma, 1.0), B3)
        brownian = BrownianApprox(64, 0.5, 2.0)
        cases = [
            # spec, B, role, counter slot of chunk c, (mean, var)
            (_IID, NatSet.finite([0, 2, 5]), ROLE_STM, 2, None),
            (GaussianIndep(finite_sequence([1.0, 2.0, 4.0, 0.5]), _SIGMAS, 0.8),
             NatSet.finite([0, 1, 3]), ROLE_STM, 2, None),
            (indicator, B3, ROLE_STM, 2, cond),
            (RandomWalk(NormalStep(0.3, 1.5), 40), ALL, ROLE_WALK, 1, None),
            (Ar1(0.5, 1.5, 12), ALL, ROLE_STM, 1, None),
            (brownian, NatSet.finite(range(1, 41)), ROLE_BROWNIAN, 1,
             brownian_marginal_moments(brownian, 40)),
        ]
        for spec, B, role, slot, moments in cases:
            mean, var = moments or stm_moments(spec, B)
            rng = RngSpec(seed=31, stream=3)
            z = np.concatenate([generator(rng, role, slot * c).standard_normal(take)
                                for c, _, take in stoch._chunk_spans(R)])
            want = mean + math.sqrt(var) * z
            tol = 4.0 * 2.0 ** -52 * (abs(mean) + math.sqrt(var) * np.abs(z))
            got = sample_stm_batch(spec, B, None, rng, R)
            if spec is indicator:
                # the event's uniforms come from the chunk's second slot
                u = np.concatenate([generator(rng, ROLE_STM, 2 * c + 1).random(take)
                                    for c, _, take in stoch._chunk_spans(R)])
                on = u < spec.p_a
                assert np.array_equal(got != 0.0, on)
                got, want, tol = got[on], want[on], tol[on]
            assert np.all(np.abs(got - want) <= np.maximum(tol, 5e-324)), type(spec).__name__

    @pytest.mark.parametrize("name", sorted(_LAW_CASES))
    def test_batch_matches_per_step_reference(self, name):
        # 40 streams of 500 realizations per side
        spec, B, plan = _LAW_CASES[name]
        got, want = [], []
        for r in range(40):
            rng = RngSpec(seed=2027, stream=r)
            got.append(sample_stm_batch(spec, B, plan, rng, 500))
            want.append(_reference_batch(spec, B, plan, rng, 500))
        _assert_same_law(np.concatenate(got), np.concatenate(want))

    @pytest.mark.parametrize("name", sorted(_EMPTY_CASES))
    def test_empty_window_is_zero(self, name):
        spec, B = _EMPTY_CASES[name]
        rng = RngSpec(seed=8)
        got = sample_stm_batch(spec, B, None, rng, CHUNK + 3)
        assert np.array_equal(got, np.zeros(CHUNK + 3))
        assert np.array_equal(got, _reference_batch(spec, B, None, rng, CHUNK + 3))

    def test_walk_batch_cost_does_not_grow_with_t(self):
        # 20000 walks of 2000 steps: 4e7 per-step draws would take about a second
        spec = RandomWalk(NormalStep(), 2000)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            sample_stm_batch(spec, ALL, None, RngSpec(seed=1), 20000)
            best = min(best, time.perf_counter() - start)
        assert best < 0.05
