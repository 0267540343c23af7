import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from matchstudy.config import SensitivityParams
from matchstudy import sensitivity
from matchstudy.inference import MH_EXACT_LIMIT, SetLayout, mantel_haenszel, matched_arrays, permutational_t_test
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
            curve = sensitivity_residual(resid, sets, [1.0], direction="greater")
            ref = permutational_t_test(resid, sets, mode="normal-approx")
            assert curve.p_values[0] == pytest.approx(ref.p_upper, abs=1e-12)

    def test_pair_worst_mean_closed_form(self):
        resid = np.array([1.0, -1.0])
        sets = SetLayout([2])
        gammas = np.array([1.0, 1.5, 2.0, 3.0])
        curve = sensitivity_residual(resid, sets, gammas)
        np.testing.assert_allclose(curve.worst_mean, (gammas - 1.0) / (gammas + 1.0), rtol=1e-12)
        assert curve.worst_mean[2] == pytest.approx(1.0 / 3.0)

    def test_separable_bound_dominates_grid_oracle(self):
        resid, z, sets = sensitivity_instance()
        laid, layout = lay_out(resid, z, sets)
        gammas = (1.0, 1.2, 1.5, 2.0, 2.5)
        for gamma, bound in zip(gammas, sensitivity_residual(laid, layout, gammas, direction="greater").p_values):
            oracle = sensitivity_grid_max_p(resid, z, sets, gamma)
            assert bound >= oracle - 1e-9
            assert bound <= oracle + 0.01

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        resid, sets = random_matched_instance(rng, 6)
        base = sensitivity_residual(resid, sets, [1.7], direction="greater")
        scaled = sensitivity_residual(resid * 3.7, sets, [1.7], direction="greater")

        def deviate(curve):
            return (curve.statistic - curve.worst_mean[0]) / math.sqrt(curve.worst_var[0])

        assert deviate(scaled) == pytest.approx(deviate(base), abs=1e-12)
        assert scaled.p_values[0] == pytest.approx(base.p_values[0], abs=1e-12)

    def test_p_nondecreasing_in_gamma(self):
        rng = np.random.default_rng(2)
        resid, sets = random_matched_instance(rng, 10)
        p = sensitivity_residual(resid, sets, SensitivityParams().grid(), direction="greater").p_values
        assert all(b >= a - 1e-12 for a, b in zip(p, p[1:]))

    def test_constant_sets_degenerate(self):
        resid = np.array([2.0, 2.0, -1.0, -1.0, -1.0])
        curve = sensitivity_residual(resid, SetLayout([2, 3]), [1.0, 1.5])
        assert curve.p_values.tolist() == [1.0, 1.0]

    def test_lower_direction_mirrors_negated_upper(self):
        rng = np.random.default_rng(3)
        resid, sets = random_matched_instance(rng, 7)
        lower = sensitivity_residual(resid, sets, [1.8], direction="less")
        upper = sensitivity_residual(-resid, sets, [1.8], direction="greater")
        assert lower.p_values[0] == pytest.approx(upper.p_values[0], abs=1e-14)

    def test_gamma_below_one_rejected(self):
        resid = np.array([1.0, -1.0])
        with pytest.raises(ValueError, match="gamma"):
            sensitivity_residual(resid, SetLayout([2]), [1.0, 0.9])

    def test_unknown_direction_rejected(self):
        resid = np.array([1.0, -1.0])
        with pytest.raises(ValueError, match="direction"):
            sensitivity_residual(resid, SetLayout([2]), [1.5], direction="both")


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
            gammas = (1.0, 1.5, 3.0)
            curve = sensitivity_residual(laid, layout, gammas)
            assert curve.direction == ("greater" if sign > 0 else "less")
            assert curve.statistic == pytest.approx(t, rel=1e-12)
            for i, gamma in enumerate(gammas):
                moments = [per_set_worst_moments(sign * resid[s], gamma) for s in sets]
                mu = sum(m for m, _ in moments)
                nu = sum(v for _, v in moments)
                assert curve.worst_mean[i] == pytest.approx(sign * mu, rel=1e-12)
                assert curve.worst_var[i] == pytest.approx(nu, rel=1e-12)
                assert curve.p_values[i] == pytest.approx(norm.sf((sign * t - mu) / math.sqrt(nu)), rel=1e-12)

    @pytest.mark.parametrize("z", [[1, 1, 0, 0, 1], [0, 0, 0, 0, 1]], ids=["two-treated", "no-treated"])
    def test_set_without_exactly_one_treated_rejected(self, z):
        # The bound takes the first member of each laid-out set as treated;
        # matched_arrays, which lays out the sets, rejects any other layout.
        table = make_table(z, np.zeros((5, 1)), outcomes=[0.5, -1.0, 2.0, 0.3, -0.2], outcome_names=("y",))
        with pytest.raises(ValueError, match="exactly one treated"):
            matched_arrays(table, match_of(table, [[2, 0, 1], [4, 3]]), "y")
        data = matched_arrays(table, match_of(table, [[4, 3]]), "y")
        assert sensitivity_residual(data.r, data.sets, [1.5]).statistic == -0.2


class TestMhBound:
    def binary_instance(self, rng, n_sets):
        _, sets = random_matched_instance(rng, n_sets)
        y = (rng.uniform(size=sets.z.size) < 0.45).astype(float)
        return y, sets

    def test_gamma_one_reduces_to_mantel_haenszel(self):
        rng = np.random.default_rng(4)
        y, sets = self.binary_instance(rng, 12)
        upper = sensitivity_mh(y, sets, [1.0], direction="greater", mode="exact")
        ref = mantel_haenszel(y, sets, mode="exact")
        assert upper.p_values[0] == pytest.approx(ref.p_upper, abs=1e-10)
        lower = sensitivity_mh(y, sets, [1.0], direction="less", mode="exact")
        assert lower.p_values[0] == pytest.approx(ref.p_lower, abs=1e-10)

    def test_discordant_pair_extreme_probability(self):
        y = np.array([1.0, 0.0])
        sets = SetLayout([2])
        gammas = np.array([1.0, 2.0, 3.0])
        curve = sensitivity_mh(y, sets, gammas, direction="greater", mode="exact")
        np.testing.assert_allclose(curve.worst_mean, gammas / (1.0 + gammas), rtol=1e-12)
        # observed count 1 out of one Bernoulli draw: upper tail is the
        # success probability itself
        np.testing.assert_allclose(curve.p_values, gammas / (1.0 + gammas), rtol=1e-12)

    def test_convolution_matches_simulation(self):
        rng = np.random.default_rng(5)
        y, sets = self.binary_instance(rng, 10)
        gamma = 1.6
        curve = sensitivity_mh(y, sets, [gamma], direction="greater", mode="exact")
        d = np.array([v.sum() for v in sets.split(y)])
        n = sets.sizes
        probs = gamma * d / (gamma * d + (n - d))
        draws = 1_000_000
        sim = np.random.default_rng(99)
        totals = (sim.uniform(size=(draws, len(sets))) < probs).sum(axis=1)
        p_hat = float(np.mean(totals >= curve.statistic))
        sd = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / draws)
        assert abs(curve.p_values[0] - p_hat) < 3 * sd + 1e-6

    def test_p_nondecreasing_in_gamma(self):
        rng = np.random.default_rng(6)
        y, sets = self.binary_instance(rng, 15)
        p = sensitivity_mh(y, sets, SensitivityParams().grid(), direction="greater", mode="exact").p_values
        assert all(b >= a - 1e-12 for a, b in zip(p, p[1:]))

    def test_large_instance_switches_to_normal(self):
        rng = np.random.default_rng(7)
        y, sets = self.binary_instance(rng, 201)
        p = sensitivity_mh(y, sets, [1.3]).p_values.tolist()
        assert p == sensitivity_mh(y, sets, [1.3], mode="normal").p_values.tolist()
        assert p != sensitivity_mh(y, sets, [1.3], mode="exact").p_values.tolist()

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            sensitivity_mh(np.array([1.0, 0.0]), SetLayout([2]), [0.5])


class TestGammaThreshold:
    def test_monotone_curve_crossing(self):
        grid = SensitivityParams().grid()
        assert gamma_threshold(np.where(grid < 1.38, 0.01, 0.2), grid, alpha=0.05) == pytest.approx(1.4)

    def test_insignificant_at_gamma_one(self):
        grid = SensitivityParams().grid()
        assert gamma_threshold(np.full(grid.size, 0.2), grid, alpha=0.05) == 1.0

    def test_robust_beyond_grid(self):
        grid = SensitivityParams().grid()
        assert math.isnan(gamma_threshold(np.full(grid.size, 0.001), grid, alpha=0.05))

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="grid"):
            gamma_threshold(np.array([]), gammas=np.array([]))
        with pytest.raises(ValueError, match="grid"):
            gamma_threshold(np.full(2, 0.5), gammas=np.array([1.5, 2.0]))
        with pytest.raises(ValueError, match="grid"):
            gamma_threshold(np.full(3, 0.5), gammas=np.array([1.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="p-value per grid gamma"):
            gamma_threshold(np.full(2, 0.5), gammas=np.array([1.0, 1.5, 2.0]))

    def test_residual_pipeline_curve(self):
        # strong effect: every treated residual tops its set
        laid, layout = lay_out(*sensitivity_instance())
        grid = SensitivityParams().grid()
        p = sensitivity_residual(laid, layout, grid, direction="greater").p_values
        threshold = gamma_threshold(p, grid)
        assert math.isnan(threshold) or threshold > 1.0
        assert all(b >= a - 1e-12 for a, b in zip(p, p[1:]))


@st.composite
def curve_instances(draw, min_sets=1, max_sets=40):
    """Sets of sizes 1-16 with values drawn from five (so ties are common),
    and an increasing grid of 1-60 gammas starting at 1."""
    sizes = draw(st.lists(st.integers(1, 16), min_size=min_sets, max_size=max_sets))
    values = draw(st.lists(st.sampled_from([-1.5, -0.5, 0.0, 0.5, 2.0]), min_size=sum(sizes), max_size=sum(sizes)))
    steps = draw(st.lists(st.floats(0.01, 0.5), max_size=59))
    return np.array(values), SetLayout(np.array(sizes)), np.concatenate([[1.0], 1.0 + np.cumsum(steps)])


def assert_curve_is_pointwise(curve, gammas, one_point):
    """Every gamma of ``curve`` bit for bit equal to the one-point call there."""
    for i, gamma in enumerate(gammas):
        point = one_point([gamma])
        got = (curve.p_values[i], curve.worst_mean[i], curve.worst_var[i], curve.direction, curve.statistic)
        want = (point.p_values[0], point.worst_mean[0], point.worst_var[0], point.direction, point.statistic)
        assert got == want, (gamma, got, want)


class TestCurve:
    """A curve is its one-point calls: the sort and the set margins are
    shared along the grid, and the grid's blocks change no bit."""

    @given(curve_instances(), st.sampled_from([1, 5, 40, sensitivity._BLOCK_ENTRIES]))
    @settings(max_examples=150, deadline=None)
    def test_residual_curve_is_pointwise(self, instance, block_entries):
        values, sets, gammas = instance
        with mock.patch.object(sensitivity, "_BLOCK_ENTRIES", block_entries):
            curve = sensitivity_residual(values, sets, gammas)
        assert_curve_is_pointwise(curve, gammas, lambda g: sensitivity_residual(values, sets, g))

    @pytest.mark.parametrize(
        "min_sets, max_sets", [(1, MH_EXACT_LIMIT), (MH_EXACT_LIMIT + 1, 2 * MH_EXACT_LIMIT)], ids=["exact", "normal"]
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mh_curve_is_pointwise(self, min_sets, max_sets, data):
        values, sets, gammas = data.draw(curve_instances(min_sets, max_sets))
        y = (values > 0).astype(float)
        curve = sensitivity_mh(y, sets, gammas)
        assert_curve_is_pointwise(curve, gammas, lambda g: sensitivity_mh(y, sets, g))


class TestCurveMemory:
    def test_traced_peak_is_at_most_ten_times_the_values(self):
        # The grid is taken in blocks, so its (gamma, set, cut) temporaries
        # stay bounded; a whole-grid broadcast would peak at about 35 times
        # the laid-out values on this layout, and the blocked curve at about 5 times.
        rng = np.random.default_rng(31)
        sets = SetLayout(rng.integers(2, 17, size=12_000))
        resid = rng.normal(size=sets.z.size)
        tracemalloc.start()
        try:
            curve = sensitivity_residual(resid, sets, SensitivityParams().grid())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert curve.p_values.size == 41
        assert peak <= 10 * resid.nbytes, f"traced peak {peak} bytes for {resid.nbytes} bytes of values"
