import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import binom, norm

from matchstudy.inference import (
    ADJUST_NONE,
    ADJUST_OLS,
    SetLayout,
    align_responses,
    bernoulli_convolution,
    cohen_grid,
    conditional_logistic,
    covariance_adjust,
    event_tail_probabilities,
    invert_tests,
    mantel_haenszel,
    matched_arrays,
    permutational_t_test,
)
from matchstudy.oracles import brute_force_tail_probabilities

from util import (
    index_sets,
    lay_out,
    make_table,
    match_of,
    random_match,
    random_matched_instance,
    reference_invert_tests,
    reference_matched_arrays,
    shuffled_matched_instance,
)


def pair_result(table, n_pairs):
    """Rows 2i (treated) and 2i + 1 (control) of ``table`` as pair i."""
    return match_of(table, [[2 * i, 2 * i + 1] for i in range(n_pairs)])


class TestAlignResponses:
    def test_pair_centering(self):
        aligned = align_responses(np.array([5.0, 3.0]), SetLayout([2]), tau0=0.0)
        assert aligned.tolist() == [1.0, -1.0]

    def test_shift_absorbs_pair_difference(self):
        aligned = align_responses(np.array([5.0, 3.0]), SetLayout([2]), tau0=2.0)
        assert aligned.tolist() == [0.0, 0.0]

    def test_one_to_two_set(self):
        aligned = align_responses(np.array([4.0, 1.0, 1.0]), SetLayout([3]), tau0=3.0)
        assert aligned.tolist() == [0.0, 0.0, 0.0]

    def test_set_means_vanish(self):
        rng = np.random.default_rng(0)
        r, sets = random_matched_instance(rng, 8)
        aligned = align_responses(r, sets, tau0=0.7)
        for a in sets.split(aligned):
            assert abs(a.mean()) < 1e-10

    def test_per_set_constant_is_removed(self):
        rng = np.random.default_rng(1)
        r, sets = random_matched_instance(rng, 5)
        shifted = r.copy()
        for offset, members in zip((3.0, -1.0, 10.0, 0.5, -2.5), sets.split(shifted)):
            members += offset
        a1 = align_responses(r, sets, tau0=0.0)
        a2 = align_responses(shifted, sets, tau0=0.0)
        np.testing.assert_allclose(a1, a2, atol=1e-12)
        p1 = permutational_t_test(a1, sets, mode="exact").p_two_sided
        p2 = permutational_t_test(a2, sets, mode="exact").p_two_sided
        assert p1 == p2

    def test_shift_identity(self):
        # testing tau0 on r must equal testing 0 on r - tau0*z, exactly
        rng = np.random.default_rng(2)
        r, sets = random_matched_instance(rng, 6)
        a1 = align_responses(r, sets, tau0=1.25)
        a2 = align_responses(r - 1.25 * sets.z, sets, tau0=0.0)
        np.testing.assert_array_equal(a1, a2)

    def test_signed_zeros_keep_their_bits(self):
        # The shift is r - tau0*z with an integer z, so a control's -0.0
        # becomes -0.0 - (-0.0 * 0) = 0.0; subtracting tau0 at the treated
        # members alone would leave it -0.0.
        r = np.array([-0.0, -0.0, 1.0, -0.0])
        aligned = align_responses(r, SetLayout([2, 2]), tau0=-0.0)
        shifted = r - -0.0 * np.array([1, 0, 1, 0])
        want = shifted - np.repeat([shifted[:2].mean(), shifted[2:].mean()], 2)
        assert aligned.tobytes() == want.tobytes()


class TestCovarianceAdjust:
    def test_none_is_identity(self):
        r = np.array([1.0, -1.0, 0.5])
        resid, info = covariance_adjust(r, None, ADJUST_NONE)
        np.testing.assert_array_equal(resid, r)
        assert info["method"] == ADJUST_NONE

    def test_exact_linear_response_zeroed(self):
        rng = np.random.default_rng(3)
        r, sets = random_matched_instance(rng, 6)
        x = rng.normal(size=(r.size, 2))
        aligned_x = sets.centre(x)
        linear = aligned_x @ np.array([2.0, -0.5])
        resid, info = covariance_adjust(linear, aligned_x, ADJUST_OLS)
        assert np.all(np.abs(resid) < 1e-8)
        assert not info["rank_deficient"]

    def test_residuals_orthogonal_to_columns(self):
        rng = np.random.default_rng(4)
        r, sets = random_matched_instance(rng, 10)
        x = rng.normal(size=(r.size, 4))
        aligned_r, aligned_x = align_responses(r, sets, 0.0), sets.centre(x)
        resid, _ = covariance_adjust(aligned_r, aligned_x, ADJUST_OLS)
        scale = max(1.0, float(np.abs(aligned_x).max()) * float(np.abs(resid).max()))
        assert np.all(np.abs(aligned_x.T @ resid) < 1e-6 * scale)

    def test_duplicate_column_flags_rank_deficiency(self):
        rng = np.random.default_rng(5)
        r, sets = random_matched_instance(rng, 6)
        col = rng.normal(size=r.size)
        x = np.column_stack([col, col])
        aligned_r, aligned_x = align_responses(r, sets, 0.0), sets.centre(x)
        resid, info = covariance_adjust(aligned_r, aligned_x, ADJUST_OLS)
        assert info["rank_deficient"]
        assert np.all(np.isfinite(resid))

    def test_missing_covariates_rejected(self):
        with pytest.raises(ValueError, match="covariates"):
            covariance_adjust(np.zeros(3), None, ADJUST_OLS)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="adjustment"):
            covariance_adjust(np.zeros(3), np.zeros((3, 1)), "ridge")


class TestPermutationalTTest:
    def test_two_pairs_exact_half(self):
        resid = np.array([1.0, -1.0, 1.0, -1.0])
        out = permutational_t_test(resid, SetLayout([2, 2]), mode="exact")
        assert out.statistic == 2.0
        assert out.p_two_sided == 0.5
        assert out.detail["n_assignments"] == 4

    def test_all_zero_residuals(self):
        out = permutational_t_test(np.zeros(4), SetLayout([2, 2]), mode="exact")
        assert out.statistic == 0.0
        assert out.p_two_sided == 1.0

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            resid, sets = random_matched_instance(rng, int(rng.integers(2, 6)))
            out = permutational_t_test(resid, sets, mode="exact")
            upper, lower, n_assign = brute_force_tail_probabilities(resid, sets.z, index_sets(sets))
            assert out.p_upper == pytest.approx(upper, abs=1e-12)
            assert out.p_lower == pytest.approx(lower, abs=1e-12)
            assert out.detail["n_assignments"] == n_assign

    def test_exact_p_is_multiple_of_assignment_fraction(self):
        rng = np.random.default_rng(7)
        resid, sets = random_matched_instance(rng, 5)
        out = permutational_t_test(resid, sets, mode="exact")
        n_assign = out.detail["n_assignments"]
        for p in (out.p_upper, out.p_lower):
            assert Fraction(p).limit_denominator(n_assign).denominator <= n_assign
            assert (p * n_assign) == pytest.approx(round(p * n_assign), abs=1e-9)

    def test_monte_carlo_close_to_exact(self):
        rng = np.random.default_rng(8)
        resid, sets = random_matched_instance(rng, 5)
        exact = permutational_t_test(resid, sets, mode="exact")
        mc = permutational_t_test(resid, sets, mode="monte-carlo", n_draws=100_000, seed=11)
        for p_mc, p_ex in ((mc.p_upper, exact.p_upper), (mc.p_lower, exact.p_lower)):
            bound = 3.0 * math.sqrt(p_ex * (1.0 - p_ex) / 100_000) + 2e-5
            assert abs(p_mc - p_ex) < bound

    def test_monte_carlo_seed_reproducible(self):
        rng = np.random.default_rng(9)
        resid, sets = random_matched_instance(rng, 4)
        a = permutational_t_test(resid, sets, mode="monte-carlo", n_draws=2000, seed=5)
        b = permutational_t_test(resid, sets, mode="monte-carlo", n_draws=2000, seed=5)
        assert a.p_upper == b.p_upper and a.p_lower == b.p_lower

    def test_monte_carlo_draws_per_set_in_set_order(self):
        # one index vector per set, drawn in set order from the seeded stream
        rng = np.random.default_rng(9)
        resid, sets = random_matched_instance(rng, 6)
        out = permutational_t_test(resid, sets, mode="monte-carlo", n_draws=500, seed=3)
        draws = np.random.default_rng(3)
        acc = np.zeros(500)
        for members in sets.split(resid):
            acc += members[draws.integers(0, members.size, 500)]
        t = resid[sets.starts].sum()
        tol = 1e-9 * max(1.0, np.abs(acc).max())
        assert out.p_upper == (1.0 + np.count_nonzero(acc >= t - tol)) / 501.0
        assert out.p_lower == (1.0 + np.count_nonzero(acc <= t + tol)) / 501.0

    @pytest.mark.parametrize("n_draws", [0, -5, 2.7, True])
    def test_monte_carlo_rejects_bad_draw_counts(self, n_draws):
        rng = np.random.default_rng(9)
        resid, sets = random_matched_instance(rng, 4)
        with pytest.raises(ValueError, match="n_draws"):
            permutational_t_test(resid, sets, mode="monte-carlo", n_draws=n_draws)

    def test_normal_approx_closed_form(self):
        resid = np.array([1.0, -1.0, 1.0, -1.0])
        out = permutational_t_test(resid, SetLayout([2, 2]), mode="normal-approx")
        # each pair contributes population variance 1; T = 2, so the deviate
        # is 2/sqrt(2)
        assert out.detail["null_mean"] == pytest.approx(0.0, abs=1e-12)
        assert out.detail["null_var"] == pytest.approx(2.0)
        assert out.p_upper == pytest.approx(float(norm.sf(math.sqrt(2.0))), abs=1e-12)

    def test_auto_switches_on_instance_size(self):
        rng = np.random.default_rng(10)
        resid, sets = random_matched_instance(rng, 3)
        assert permutational_t_test(resid, sets).method == "exact"
        # 25 sets of size >= 2 give at least 2^25 assignments, past the budget
        resid, sets = random_matched_instance(rng, 25)
        big = permutational_t_test(resid, sets, mode="auto", n_draws=1000)
        assert big.method == "monte-carlo"

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError, match="set"):
            permutational_t_test(np.array([]), SetLayout(np.array([], dtype=int)))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            permutational_t_test(np.array([1.0, 0.0]), SetLayout([2]), mode="bootstrap")


class TestScrambledSets:
    """Segment reductions against per-set loops, on sets that are neither
    contiguous nor treated-first, of mixed sizes and with tied values; the
    library sees them laid out by ``lay_out``."""

    def test_align_responses_matches_per_set_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            r, z, sets = shuffled_matched_instance(rng, 40)
            laid_r, layout = lay_out(r, z, sets)
            aligned = align_responses(laid_r, layout, tau0=0.3)
            ref = np.empty_like(r)
            for s in sets:
                adjusted = r[s] - 0.3 * z[s]
                ref[s] = adjusted - adjusted.mean()
            ref = lay_out(ref, z, sets)[0]
            np.testing.assert_allclose(aligned, ref, rtol=1e-12, atol=1e-12 * np.abs(r).max())

    def test_normal_approx_matches_per_set_loop(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            r, z, sets = shuffled_matched_instance(rng, 40)
            out = permutational_t_test(*lay_out(r, z, sets), mode="normal-approx")
            t = sum(r[s][z[s] == 1][0] for s in sets)
            mean = sum(r[s].mean() for s in sets)
            var = sum(np.var(r[s]) for s in sets)
            deviate = (t - mean) / math.sqrt(var)
            assert out.statistic == pytest.approx(t, rel=1e-12)
            assert out.detail["null_mean"] == pytest.approx(mean, rel=1e-12)
            assert out.detail["null_var"] == pytest.approx(var, rel=1e-12)
            assert out.p_upper == pytest.approx(norm.sf(deviate), rel=1e-12)
            assert out.p_lower == pytest.approx(norm.cdf(deviate), rel=1e-12)

    @pytest.mark.parametrize("z", [[1, 1, 0, 0, 1], [0, 0, 0, 0, 1]], ids=["two-treated", "no-treated"])
    def test_set_without_exactly_one_treated_rejected(self, z):
        # A set enters the layout only through matched_arrays, which checks
        # that each set's first member is its one treated subject.
        table = make_table(z, np.zeros((5, 1)), outcomes=[0.5, -1.0, 2.0, 0.3, -0.2], outcome_names=("y",))
        with pytest.raises(ValueError, match="exactly one treated"):
            matched_arrays(table, match_of(table, [[2, 0, 1], [4, 3]]), "y")


class TestSetLayout:
    def test_starts_indicator_and_split(self):
        layout = SetLayout(np.array([2, 1, 3]))
        assert len(layout) == 3
        assert layout.starts.tolist() == [0, 2, 3]
        assert layout.z.tolist() == [1, 0, 1, 1, 0, 0]
        assert [v.tolist() for v in layout.split(np.arange(6))] == [[0, 1], [2], [3, 4, 5]]
        assert layout.means(np.arange(6.0)).tolist() == [0.5, 2.0, 4.0]

    @pytest.mark.parametrize(
        "sizes",
        [np.array([], dtype=int), np.array([[2, 3]]), np.array([2.0, 3.0]), np.array([2, 0, 3]), np.array([True])],
        ids=["empty", "2-d", "float", "zero", "bool"],
    )
    def test_bad_sizes_rejected(self, sizes):
        with pytest.raises(ValueError, match="set sizes"):
            SetLayout(sizes)

    def test_centre_matches_per_set_loop(self):
        # covariate rows of scrambled sets, laid out, less their set means
        rng = np.random.default_rng(23)
        for _ in range(5):
            _, z, sets = shuffled_matched_instance(rng, 40)
            x = np.round(rng.normal(size=(z.size, 3)), 1)
            laid_x, layout = lay_out(x, z, sets)
            centred = layout.centre(laid_x)
            ref = np.empty_like(x)
            for s in sets:
                ref[s] = x[s] - x[s].mean(axis=0)
            ref = lay_out(ref, z, sets)[0]
            np.testing.assert_allclose(centred, ref, rtol=1e-12, atol=1e-12 * np.abs(x).max())
            for members in layout.split(centred):
                assert np.all(np.abs(members.mean(axis=0)) < 1e-10)

    def test_arrays_are_read_only(self):
        layout = SetLayout([2, 2])
        with pytest.raises(ValueError):
            layout.z[1] = 1

    @pytest.mark.parametrize("n", [3, 5])
    def test_values_of_another_length_rejected(self, n):
        layout = SetLayout([2, 2])
        with pytest.raises(ValueError, match="laid out"):
            permutational_t_test(np.zeros(n), layout, mode="normal-approx")
        with pytest.raises(ValueError, match="laid out"):
            align_responses(np.zeros(n), layout, 0.0)
        with pytest.raises(ValueError, match="laid out"):
            layout.centre(np.zeros((n, 2)))
        with pytest.raises(ValueError, match="laid out"):
            mantel_haenszel(np.zeros(n), layout)


class TestMatchedArrays:
    def make_outcome_table(self, r, missing_rows=()):
        n = len(r)
        z = np.array([1, 0] * (n // 2))
        outcomes = np.array(r, dtype=float)[:, None]
        outcomes[list(missing_rows), 0] = np.nan
        return make_table(z, np.zeros((n, 1)), outcomes=outcomes, outcome_names=("dep",))

    def test_layout_treated_first(self):
        table = self.make_outcome_table([4.0, 1.0, 7.0, 2.0])
        result = pair_result(table, 2)
        data = matched_arrays(table, result, "dep")
        assert data.r.tolist() == [4.0, 1.0, 7.0, 2.0]
        assert data.sets.z.tolist() == [1, 0, 1, 0]
        assert data.sets.sizes.tolist() == [2, 2]
        assert data.excluded_sets == ()

    def test_control_listed_as_treated_rejected(self):
        table = self.make_outcome_table([4.0, 1.0, 7.0, 2.0])
        with pytest.raises(ValueError, match=f"{table.ids[3]!r} must list exactly one treated"):
            matched_arrays(table, match_of(table, [[0, 1], [3, 2]]), "dep")

    def test_missing_outcome_drops_whole_set(self):
        table = self.make_outcome_table([4.0, 1.0, 7.0, 2.0], missing_rows=(3,))
        result = pair_result(table, 2)
        data = matched_arrays(table, result, "dep")
        assert data.excluded_sets == (table.ids[2],)
        assert len(data.sets) == 1
        assert data.r.tolist() == [4.0, 1.0]

    def test_all_sets_missing_raises(self):
        table = self.make_outcome_table([4.0, 1.0, 7.0, 2.0], missing_rows=(1, 3))
        result = pair_result(table, 2)
        with pytest.raises(ValueError, match="dep"):
            matched_arrays(table, result, "dep")

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_a_per_set_reference(self, seed):
        rng = np.random.default_rng(seed)
        table, result = random_match(rng, n_sets=int(rng.integers(1, 40)), missing_rate=0.05)
        rows, sets, excluded = reference_matched_arrays(table, result, "y")
        if not sets:
            with pytest.raises(ValueError, match="y"):
                matched_arrays(table, result, "y")
            return
        data = matched_arrays(table, result, "y")
        assert data.excluded_sets == excluded
        assert len(data.sets) == len(sets)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(index_sets(data.sets), sets))
        x = table.covariates[rows]
        for got, want in (
            (data.r, table.outcomes[rows, 0]),
            (data.sets.z, table.z[rows]),
            (data.x, data.sets.centre(x)),
        ):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # the covariate rows come centred within their sets (numpy's per-set
        # mean sums in another order, so the last bits may differ)
        want_x = np.concatenate([x[s] - x[s].mean(axis=0) for s in sets])
        np.testing.assert_allclose(data.x, want_x, rtol=1e-12, atol=1e-12 * np.abs(x).max())


class TestInvertTests:
    def test_exact_shift_accepted_with_p_one(self):
        rng = np.random.default_rng(12)
        controls = rng.normal(size=4)
        r = np.empty(8)
        r[0::2] = controls + 1.5
        r[1::2] = controls
        z = np.array([1, 0] * 4)
        table = make_table(z, np.zeros((8, 1)), outcomes=r, outcome_names=("dep",))
        result = pair_result(table, 4)
        grid = np.array([0.0, 0.75, 1.5, 2.25])
        region = invert_tests(matched_arrays(table, result, "dep"), grid=grid, mode="exact")
        at = {float(g): p for g, p in zip(region.grid, region.p_values)}
        assert at[1.5] == 1.0
        assert region.accepted[list(region.grid).index(1.5)]
        assert region.grid[np.argmax(region.p_values)] == 1.5
        assert region.hull[0] <= 1.5 <= region.hull[1]

    def test_hull_bounds_accepted_set(self):
        rng = np.random.default_rng(13)
        r = rng.normal(size=12)
        z = np.array([1, 0] * 6)
        table = make_table(z, rng.normal(size=(12, 2)), outcomes=r, outcome_names=("dep",))
        result = pair_result(table, 6)
        region = invert_tests(matched_arrays(table, result, "dep"), mode="exact", adjustment=ADJUST_OLS)
        if region.accepted.any():
            inside = region.grid[region.accepted]
            assert region.hull == (float(inside.min()), float(inside.max()))
        else:
            assert region.hull is None

    @pytest.mark.parametrize("mode", ["exact", "monte-carlo", "normal-approx"])
    @pytest.mark.parametrize("adjustment", [ADJUST_NONE, ADJUST_OLS])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_a_per_set_reference(self, seed, adjustment, mode):
        rng = np.random.default_rng(100 + seed)
        # at most 4^6 assignments, so exact enumeration stays feasible
        table, result = random_match(rng, n_sets=6, max_controls=3, missing_rate=0.05)
        grid = np.linspace(-1.5, 1.5, 13)
        options = dict(alpha=0.2, adjustment=adjustment, mode=mode, seed=seed, n_draws=400)
        region = invert_tests(matched_arrays(table, result, "y"), grid=grid, **options)
        p_values, accepted, hull = reference_invert_tests(table, result, "y", grid, **options)
        np.testing.assert_allclose(region.p_values, p_values, rtol=1e-9, atol=0.0)
        assert region.accepted.tolist() == accepted.tolist()
        assert region.hull == hull

    def test_default_grid_uses_conventional_multiples(self):
        grid = cohen_grid(2.0)
        for anchor in (-1.6, -1.0, -0.4, 0.0, 0.4, 1.0, 1.6):
            assert np.any(np.isclose(grid, anchor))
        assert np.all(np.diff(grid) > 0)
        assert grid[0] == -1.6 and grid[-1] == 1.6

    def test_default_grid_equals_sorted_unique(self):
        for sd in (0.3, 1.0, 2.0, 7.5):
            for n_fill in (2, 5, 50):
                anchors = np.array([-0.8, -0.5, -0.2, 0.0, 0.2, 0.5, 0.8]) * sd
                fill = np.linspace(-0.8 * sd, 0.8 * sd, n_fill)
                expected = np.unique(np.concatenate([anchors, fill]))
                assert cohen_grid(sd, n_fill).tobytes() == expected.tobytes()

    def test_excluded_sets_propagate(self):
        r = np.array([4.0, 1.0, 7.0, np.nan])
        z = np.array([1, 0, 1, 0])
        table = make_table(z, np.zeros((4, 1)), outcomes=r, outcome_names=("dep",))
        result = pair_result(table, 2)
        data = matched_arrays(table, result, "dep")
        region = invert_tests(data, grid=np.array([0.0]), mode="exact")
        assert data.excluded_sets == (table.ids[2],)
        # the one remaining pair (4, 1): both assignments, p = 1
        assert len(data.sets) == 1
        assert region.p_values.tolist() == [1.0]


def mcnemar_reference(t, c):
    # asymptotic McNemar: discordant pairs only
    b = int(np.sum((t == 1) & (c == 0)))
    d = int(np.sum((t == 0) & (c == 1)))
    stat = (b - d) / math.sqrt(b + d)
    return stat, 2.0 * float(norm.sf(abs(stat)))


def conditional_loglik(theta, t, d, n):
    # enumeration-based conditional likelihood: with the set's event count
    # fixed at d, the treated event indicator takes value v with probability
    # proportional to C(n-1, d-v) * exp(theta*v)
    total = 0.0
    for ti, di, ni in zip(t, d, n):
        w = {}
        for v in (0, 1):
            if v <= di <= ni - 1 + v:
                w[v] = math.comb(ni - 1, di - v) * math.exp(theta * v)
        total += math.log(w[ti] / sum(w.values()))
    return total


def golden_section_max(f, lo, hi, tol=1e-10):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class TestConditionalLogistic:
    def pairs_instance(self, rng, n_pairs):
        t = rng.integers(0, 2, n_pairs)
        c = rng.integers(0, 2, n_pairs)
        y = np.empty(2 * n_pairs)
        y[0::2], y[1::2] = t, c
        return y, SetLayout(np.full(n_pairs, 2)), t, c

    def test_pairs_reduce_to_mcnemar(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            y, sets, t, c = self.pairs_instance(rng, 40)
            if np.sum(t != c) < 2:
                continue
            out = conditional_logistic(y, sets)
            stat, p = mcnemar_reference(t, c)
            assert out.statistic == pytest.approx(stat, abs=1e-10)
            assert out.p == pytest.approx(p, abs=1e-10)

    def test_concordant_only_unidentified(self):
        out = conditional_logistic(np.array([1.0, 1.0, 0.0, 0.0]), SetLayout([2, 2]))
        assert not out.identified
        assert out.n_informative == 0
        assert out.p == 1.0

    def test_one_to_two_sets_against_golden_section(self):
        # three 1:2 sets with mixed event patterns
        y = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0])
        out = conditional_logistic(y, SetLayout([3, 3, 3]))
        t = np.array([1.0, 0.0, 1.0])
        d = np.array([2, 1, 1])
        n = np.array([3, 3, 3])
        theta_star = golden_section_max(lambda th: conditional_loglik(th, t, d, n), -10.0, 10.0)
        assert out.identified
        assert out.theta == pytest.approx(theta_star, abs=1e-6)

    def test_random_sets_against_golden_section(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            _, sets = random_matched_instance(rng, 12)
            y = rng.integers(0, 2, sets.z.size).astype(float)
            t = np.array([float(v[0]) for v in sets.split(y)])
            d = np.array([int(v.sum()) for v in sets.split(y)])
            n = np.array([v.size for v in sets.split(y)])
            keep = (d > 0) & (d < n)
            if keep.sum() < 3 or len({(int(a), int(b)) for a, b in zip(d[keep], t[keep])}) < 2:
                continue
            out = conditional_logistic(y, sets)
            if not out.identified:
                continue
            theta_star = golden_section_max(
                lambda th: conditional_loglik(th, t[keep], d[keep], n[keep]), -12.0, 12.0
            )
            assert out.theta == pytest.approx(theta_star, abs=1e-6)

    def test_score_statistic_sign_tracks_treated_excess(self):
        y = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        assert conditional_logistic(y, SetLayout([2, 2, 2])).statistic > 0

    def test_non_binary_outcome_rejected(self):
        with pytest.raises(ValueError, match="0/1"):
            conditional_logistic(np.array([0.5, 0.0]), SetLayout([2]))


class TestMantelHaenszel:
    def test_single_discordant_pair_margins(self):
        out = mantel_haenszel(np.array([1.0, 0.0]), SetLayout([2]), mode="exact")
        assert out.detail["null_mean"] == 0.5
        assert out.detail["null_var"] == 0.25
        assert out.statistic == 1.0
        assert out.p_upper == 0.5
        assert out.p_two_sided == 1.0

    def test_no_events_anywhere(self):
        out = mantel_haenszel(np.zeros(6), SetLayout([2, 2, 2]), mode="exact")
        assert out.p_two_sided == 1.0
        assert out.p_upper == 1.0 and out.p_lower == 1.0

    def test_normal_close_to_exact_on_twenty_sets(self):
        rng = np.random.default_rng(16)
        _, sets = random_matched_instance(rng, 20)
        y = (rng.uniform(size=sets.z.size) < 0.4).astype(float)
        exact = mantel_haenszel(y, sets, mode="exact")
        normal = mantel_haenszel(y, sets, mode="normal")
        assert abs(exact.p_upper - normal.p_upper) < 0.02
        assert abs(exact.p_lower - normal.p_lower) < 0.02

    def test_auto_mode_switches_at_limit(self):
        rng = np.random.default_rng(17)
        _, sets = random_matched_instance(rng, 10)
        y = (rng.uniform(size=sets.z.size) < 0.5).astype(float)
        assert mantel_haenszel(y, sets).method == "mantel-haenszel-exact"
        _, sets = random_matched_instance(rng, 201, max_controls=1)
        y = (rng.uniform(size=sets.z.size) < 0.5).astype(float)
        assert mantel_haenszel(y, sets).method == "mantel-haenszel-normal"

    def test_two_treated_in_a_set_rejected(self):
        # The test sees a binary outcome only as laid out by matched_arrays,
        # which rejects a set with two treated members.
        table = make_table([1, 1], np.zeros((2, 1)), outcomes=[1.0, 0.0], outcome_names=("y",))
        with pytest.raises(ValueError, match="one treated"):
            matched_arrays(table, match_of(table, [[0, 1]]), "y")


class TestEventTails:
    def test_convolution_matches_binomial(self):
        probs = np.full(10, 0.3)
        pmf = bernoulli_convolution(probs)
        np.testing.assert_allclose(pmf, binom.pmf(np.arange(11), 10, 0.3), atol=1e-12)

    def test_tails_overlap_by_point_mass(self):
        rng = np.random.default_rng(18)
        probs = rng.uniform(0.1, 0.9, 12)
        pmf = bernoulli_convolution(probs)
        for t_obs in (0, 4, 12):
            upper, lower = event_tail_probabilities(probs, t_obs, "exact")
            assert upper + lower == pytest.approx(1.0 + pmf[t_obs], abs=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            event_tail_probabilities(np.array([0.5]), 0, "saddlepoint")

    @pytest.mark.parametrize("mode", ["exact", "normal"])
    def test_rows_are_their_one_dimensional_calls(self, mode):
        # Each row of a 2-D probability array is one sum: its pmf and tails
        # are bit for bit those of the row passed alone.
        rng = np.random.default_rng(19)
        probs = rng.uniform(0.0, 1.0, (7, 150))
        probs[3] = 0.0  # no spread: the normal tails are 1
        pmf = bernoulli_convolution(probs)
        upper, lower = event_tail_probabilities(probs, 60, mode)
        assert pmf.shape == (7, 151) and upper.shape == lower.shape == (7,)
        for i, row in enumerate(probs):
            np.testing.assert_array_equal(pmf[i], bernoulli_convolution(row))
            assert (upper[i], lower[i]) == event_tail_probabilities(row, 60, mode)


class TestNormalTails:
    """Normal tails come from scipy.special.ndtr in inference, sensitivity,
    the oracles and the attrition check: sf(x) as ndtr(-x), cdf(x) as ndtr(x).
    scipy.stats.norm is only the oracle."""

    SPECIAL = [0.0, -0.0, np.inf, -np.inf, 40.0, -40.0, 38.5, -38.5, 8.3, -8.3, 1e300, -1e300, 5e-324, -5e-324, np.nan]

    def grid(self):
        rng = np.random.default_rng(0)
        return np.concatenate(
            [rng.normal(size=200_000), rng.normal(scale=15.0, size=20_000), np.linspace(-45.0, 45.0, 9001), self.SPECIAL]
        )

    def test_sf_is_ndtr_of_the_negation(self):
        x = self.grid()
        assert ndtr(-x).tobytes() == norm.sf(x).tobytes()

    def test_cdf_is_ndtr(self):
        x = self.grid()
        assert ndtr(x).tobytes() == norm.cdf(x).tobytes()

    def test_python_float_arguments(self):
        for v in self.SPECIAL:
            assert np.float64(ndtr(-v)).tobytes() == np.float64(norm.sf(v)).tobytes(), v
            assert np.float64(ndtr(v)).tobytes() == np.float64(norm.cdf(v)).tobytes(), v
