import math

import numpy as np
import pytest
from scipy.stats import norm

from matchstudy.config import SensitivityParams
from matchstudy.inference import SetLayout, mantel_haenszel, matched_arrays, permutational_t_test
from matchstudy.oracles import sensitivity_grid_max_p, sensitivity_instance
from matchstudy.sensitivity import (
    gamma_threshold,
    sensitivity_mh,
    sensitivity_residual,
)

from util import lay_out, make_table, match_of, random_matched_instance, shuffled_matched_instance


class TestResidualBound:
    def test_gamma_one_reduces_to_normal_approximation(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            resid, sets = random_matched_instance(rng, 8)
            bound = sensitivity_residual(resid, sets, gamma=1.0, direction="greater")
            ref = permutational_t_test(resid, sets, mode="normal-approx")
            assert bound.p_one_sided == pytest.approx(ref.p_upper, abs=1e-12)

    def test_pair_worst_mean_closed_form(self):
        resid = np.array([1.0, -1.0])
        sets = SetLayout([2])
        for gamma in (1.0, 1.5, 2.0, 3.0):
            bound = sensitivity_residual(resid, sets, gamma)
            assert bound.detail["worst_mean"] == pytest.approx((gamma - 1.0) / (gamma + 1.0))
        assert sensitivity_residual(resid, sets, 2.0).detail["worst_mean"] == pytest.approx(1.0 / 3.0)

    def test_separable_bound_dominates_grid_oracle(self):
        resid, z, sets = sensitivity_instance()
        laid, layout = lay_out(resid, z, sets)
        for gamma in (1.0, 1.2, 1.5, 2.0, 2.5):
            bound = sensitivity_residual(laid, layout, gamma, direction="greater").p_one_sided
            oracle = sensitivity_grid_max_p(resid, z, sets, gamma)
            assert bound >= oracle - 1e-9
            assert bound <= oracle + 0.01

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        resid, sets = random_matched_instance(rng, 6)
        base = sensitivity_residual(resid, sets, 1.7, direction="greater")
        scaled = sensitivity_residual(resid * 3.7, sets, 1.7, direction="greater")
        assert scaled.detail["deviate"] == pytest.approx(base.detail["deviate"], abs=1e-12)
        assert scaled.p_one_sided == pytest.approx(base.p_one_sided, abs=1e-12)

    def test_p_nondecreasing_in_gamma(self):
        rng = np.random.default_rng(2)
        resid, sets = random_matched_instance(rng, 10)
        p = [
            sensitivity_residual(resid, sets, g, direction="greater").p_one_sided
            for g in SensitivityParams().grid()
        ]
        assert all(b >= a - 1e-12 for a, b in zip(p, p[1:]))

    def test_constant_sets_degenerate(self):
        resid = np.array([2.0, 2.0, -1.0, -1.0, -1.0])
        bound = sensitivity_residual(resid, SetLayout([2, 3]), 1.5)
        assert bound.p_one_sided == 1.0

    def test_lower_direction_mirrors_negated_upper(self):
        rng = np.random.default_rng(3)
        resid, sets = random_matched_instance(rng, 7)
        lower = sensitivity_residual(resid, sets, 1.8, direction="less")
        upper = sensitivity_residual(-resid, sets, 1.8, direction="greater")
        assert lower.p_one_sided == pytest.approx(upper.p_one_sided, abs=1e-14)

    def test_gamma_below_one_rejected(self):
        resid = np.array([1.0, -1.0])
        with pytest.raises(ValueError, match="gamma"):
            sensitivity_residual(resid, SetLayout([2]), 0.9)

    def test_unknown_direction_rejected(self):
        resid = np.array([1.0, -1.0])
        with pytest.raises(ValueError, match="direction"):
            sensitivity_residual(resid, SetLayout([2]), 1.5, direction="both")


def per_set_worst_moments(values, gamma):
    """One set's worst-case (mean, variance): the largest-mean cut of the
    sorted values, exact ties going to the larger variance."""
    v = np.sort(values)[::-1]
    if v.size == 1:
        return v[0], 0.0
    a = np.arange(1, v.size)
    denom = gamma * a + (v.size - a)
    top, top2 = np.cumsum(v)[:-1], np.cumsum(v * v)[:-1]
    mu = (gamma * top + (v.sum() - top)) / denom
    nu = (gamma * top2 + ((v * v).sum() - top2)) / denom - mu * mu
    best = np.flatnonzero(mu == mu.max())
    pick = best[np.argmax(nu[best])]
    return mu[pick], nu[pick]


class TestScrambledSets:
    """The batched bound against a per-set loop, on sets that are neither
    contiguous nor treated-first, of mixed sizes and with tied values; the
    library sees them laid out by ``lay_out``."""

    def test_bound_matches_per_set_loop(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            resid, z, sets = shuffled_matched_instance(rng, 40)
            t = sum(resid[s][z[s] == 1][0] for s in sets)
            sign = 1.0 if t >= sum(resid[s].mean() for s in sets) else -1.0
            laid, layout = lay_out(resid, z, sets)
            for gamma in (1.0, 1.5, 3.0):
                bound = sensitivity_residual(laid, layout, gamma)
                moments = [per_set_worst_moments(sign * resid[s], gamma) for s in sets]
                mu = sum(m for m, _ in moments)
                nu = sum(v for _, v in moments)
                assert bound.direction == ("greater" if sign > 0 else "less")
                assert bound.statistic == pytest.approx(t, rel=1e-12)
                assert bound.detail["worst_mean"] == pytest.approx(sign * mu, rel=1e-12)
                assert bound.detail["worst_var"] == pytest.approx(nu, rel=1e-12)
                assert bound.p_one_sided == pytest.approx(norm.sf((sign * t - mu) / math.sqrt(nu)), rel=1e-12)

    @pytest.mark.parametrize("z", [[1, 1, 0, 0, 1], [0, 0, 0, 0, 1]], ids=["two-treated", "no-treated"])
    def test_set_without_exactly_one_treated_rejected(self, z):
        # The bound takes the first member of each laid-out set as treated;
        # matched_arrays, which lays out the sets, rejects any other layout.
        table = make_table(z, np.zeros((5, 1)), outcomes=[0.5, -1.0, 2.0, 0.3, -0.2], outcome_names=("y",))
        with pytest.raises(ValueError, match="exactly one treated"):
            matched_arrays(table, match_of(table, [[2, 0, 1], [4, 3]]), "y")
        data = matched_arrays(table, match_of(table, [[4, 3]]), "y")
        assert sensitivity_residual(data.r, data.sets, 1.5).statistic == -0.2


class TestMhBound:
    def binary_instance(self, rng, n_sets):
        _, sets = random_matched_instance(rng, n_sets)
        y = (rng.uniform(size=sets.z.size) < 0.45).astype(float)
        return y, sets

    def test_gamma_one_reduces_to_mantel_haenszel(self):
        rng = np.random.default_rng(4)
        y, sets = self.binary_instance(rng, 12)
        bound = sensitivity_mh(y, sets, gamma=1.0, direction="greater", mode="exact")
        ref = mantel_haenszel(y, sets, mode="exact")
        assert bound.p_one_sided == pytest.approx(ref.p_upper, abs=1e-10)
        lower = sensitivity_mh(y, sets, gamma=1.0, direction="less", mode="exact")
        assert lower.p_one_sided == pytest.approx(ref.p_lower, abs=1e-10)

    def test_discordant_pair_extreme_probability(self):
        y = np.array([1.0, 0.0])
        sets = SetLayout([2])
        for gamma in (1.0, 2.0, 3.0):
            bound = sensitivity_mh(y, sets, gamma, direction="greater", mode="exact")
            assert bound.detail["worst_mean"] == pytest.approx(gamma / (1.0 + gamma))
            # observed count 1 out of one Bernoulli draw: upper tail is the
            # success probability itself
            assert bound.p_one_sided == pytest.approx(gamma / (1.0 + gamma))

    def test_convolution_matches_simulation(self):
        rng = np.random.default_rng(5)
        y, sets = self.binary_instance(rng, 10)
        gamma = 1.6
        bound = sensitivity_mh(y, sets, gamma, direction="greater", mode="exact")
        d = np.array([v.sum() for v in sets.split(y)])
        n = sets.sizes
        probs = gamma * d / (gamma * d + (n - d))
        draws = 1_000_000
        sim = np.random.default_rng(99)
        totals = (sim.uniform(size=(draws, len(sets))) < probs).sum(axis=1)
        p_hat = float(np.mean(totals >= bound.statistic))
        sd = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / draws)
        assert abs(bound.p_one_sided - p_hat) < 3 * sd + 1e-6

    def test_p_nondecreasing_in_gamma(self):
        rng = np.random.default_rng(6)
        y, sets = self.binary_instance(rng, 15)
        p = [
            sensitivity_mh(y, sets, g, direction="greater", mode="exact").p_one_sided
            for g in SensitivityParams().grid()
        ]
        assert all(b >= a - 1e-12 for a, b in zip(p, p[1:]))

    def test_large_instance_switches_to_normal(self):
        rng = np.random.default_rng(7)
        y, sets = self.binary_instance(rng, 201)
        bound = sensitivity_mh(y, sets, 1.3)
        assert bound.method == "extreme-bernoulli-normal"

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            sensitivity_mh(np.array([1.0, 0.0]), SetLayout([2]), 0.5)


class TestGammaThreshold:
    def test_monotone_curve_crossing(self):
        curve = gamma_threshold(lambda g: 0.01 if g < 1.38 else 0.2, SensitivityParams().grid(), alpha=0.05)
        assert curve.threshold == pytest.approx(1.4)
        assert not curve.insignificant_at_one
        assert not curve.beyond_grid

    def test_insignificant_at_gamma_one(self):
        curve = gamma_threshold(lambda g: 0.2, SensitivityParams().grid(), alpha=0.05)
        assert curve.threshold == 1.0
        assert curve.insignificant_at_one
        assert not curve.beyond_grid

    def test_robust_beyond_grid(self):
        curve = gamma_threshold(lambda g: 0.001, SensitivityParams().grid(), alpha=0.05)
        assert math.isnan(curve.threshold)
        assert curve.beyond_grid

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="grid"):
            gamma_threshold(lambda g: 0.5, gammas=np.array([]))
        with pytest.raises(ValueError, match="grid"):
            gamma_threshold(lambda g: 0.5, gammas=np.array([1.5, 2.0]))
        with pytest.raises(ValueError, match="grid"):
            gamma_threshold(lambda g: 0.5, gammas=np.array([1.0, 1.0, 2.0]))

    def test_residual_pipeline_curve(self):
        # strong effect: every treated residual tops its set
        laid, layout = lay_out(*sensitivity_instance())
        curve = gamma_threshold(
            lambda g: sensitivity_residual(laid, layout, g, direction="greater").p_one_sided,
            SensitivityParams().grid(),
        )
        assert not curve.insignificant_at_one
        assert curve.beyond_grid or curve.threshold > 1.0
        assert all(b >= a - 1e-12 for a, b in zip(curve.p_values, curve.p_values[1:]))
