import itertools
import os
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.special import expit, logit
from scipy.stats import rankdata

from matchstudy import matching
from matchstudy.matching import (
    MatchCounts,
    MatchingError,
    MatchingParams,
    REASON_COMMON_SUPPORT,
    REASON_MISSINGNESS,
    REASON_OPTIMAL_DISCARD,
    REASON_UNMATCHED,
    SetLayout,
    apply_caliper,
    build_match,
    composition,
    match_bucket,
    match_counts,
    propensity_interval,
    rank_mahalanobis,
    trim_common_support,
)
from matchstudy.oracles import brute_force_bucket_cost, brute_force_canonical_match, match_total_cost
from matchstudy.pipeline import format_match_row

from util import id_ledger, id_sets, load_in_fresh_interpreter, make_table


def exact_rank_mahalanobis(x_treated, x_control):
    """The documented distance in rational arithmetic: average ranks, ddof=1
    covariance, ridge 1e-8 * trace/p, then d' S^-1 d by Gauss-Jordan."""
    pooled = np.vstack([x_treated, x_control])
    ranks = rankdata(pooled, axis=0, method="average")
    ranks = [[Fraction(v) for v in row] for row in ranks[:, np.ptp(ranks, axis=0) > 0]]
    n, p = len(ranks), len(ranks[0])
    mean = [sum(row[a] for row in ranks) / n for a in range(p)]
    cov = [[sum((row[a] - mean[a]) * (row[b] - mean[b]) for row in ranks) / (n - 1) for b in range(p)] for a in range(p)]
    ridge = sum(cov[a][a] for a in range(p)) / p * Fraction(1, 10**8)
    for a in range(p):
        cov[a][a] += ridge

    def quad(d):
        m = [cov[a][:] + [d[a]] for a in range(p)]
        for i in range(p):
            pivot = next(r for r in range(i, p) if m[r][i] != 0)
            m[i], m[pivot] = m[pivot], m[i]
            for r in range(p):
                if r != i and m[r][i] != 0:
                    f = m[r][i] / m[i][i]
                    m[r] = [x - f * y for x, y in zip(m[r], m[i])]
        return sum(d[a] * m[a][p] / m[a][a] for a in range(p))

    n_t = len(x_treated)
    return [
        [quad([ranks[i][a] - ranks[n_t + j][a] for a in range(p)]) for j in range(len(x_control))]
        for i in range(n_t)
    ]


class TestRankMahalanobis:
    def test_identical_vectors_are_at_distance_zero(self):
        d = rank_mahalanobis(np.array([[1.0, 5.0]]), np.array([[1.0, 5.0], [2.0, 7.0]]))
        assert abs(d[0, 0]) < 1e-10

    def test_adjacent_ranks_single_covariate(self):
        # pooled ranks are 1..4, variance 5/3, so one rank step costs 0.6
        d = rank_mahalanobis(np.array([[10.0], [30.0]]), np.array([[20.0], [40.0]]))
        np.testing.assert_allclose(d[0, 0], 0.6, rtol=1e-6)
        np.testing.assert_allclose(d[1, 1], 0.6, rtol=1e-6)
        np.testing.assert_allclose(d[0, 1], 0.6 * 9, rtol=1e-6)

    def test_column_order_irrelevant(self):
        rng = np.random.default_rng(0)
        xt, xc = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        perm = [2, 0, 1]
        np.testing.assert_allclose(
            rank_mahalanobis(xt[:, perm], xc[:, perm]), rank_mahalanobis(xt, xc), atol=1e-10
        )

    def test_singular_cell_agrees_with_exact_arithmetic(self):
        # Rank-equivalent to a seed-7 comparison-2 cell: 6 subjects and 6
        # non-constant columns, so only the ridge makes the rank covariance
        # invertible (condition number about 3e8).
        xt = np.array([[5, 6, 5, 0, 0, 1], [4, 5, 2, 1, 0, 0]], dtype=float)
        xc = np.array([[2, 4, 6, 1, 0, 0], [3, 3, 3, 1, 0, 0], [1, 2, 4, 1, 0, 0], [6, 1, 1, 0, 1, 0]], dtype=float)
        exact = exact_rank_mahalanobis(xt, xc)
        want = [[10000000, 9999997, 9999999, 10000000], [9999999, 9999994, 10000000, 10000000]]
        assert [[round(v * 10**6) for v in row] for row in exact] == want
        d = rank_mahalanobis(xt, xc)
        np.testing.assert_allclose(d, np.array(exact, dtype=float), rtol=0, atol=1e-9)
        np.testing.assert_array_equal(np.round(d * 1e6), want)

    def test_constant_covariate_dropped_with_warning(self):
        xt = np.array([[1.0, 7.0], [2.0, 7.0]])
        xc = np.array([[3.0, 7.0]])
        with pytest.warns(UserWarning, match="constant covariate"):
            d = rank_mahalanobis(xt, xc)
        assert d.shape == (2, 1)
        assert np.isfinite(d).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_column(self, bad):
        rng = np.random.default_rng(3)
        xt, xc = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        xt[2, 1] = bad
        with pytest.raises(ValueError, match="column 1"):
            rank_mahalanobis(xt, xc)

    def test_row_of_nans_is_an_error(self):
        rng = np.random.default_rng(4)
        xt, xc = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        xc[2, :] = np.nan
        with pytest.raises(ValueError, match="column 0"):
            rank_mahalanobis(xt, xc)


#: Few distinct values, so columns are heavily tied; signed zeros tie too.
TIED_VALUES = (-1e300, -2.5, -0.0, 0.0, 1.0, 1.0 + 2.0**-52, 3.0, 1e300)


@st.composite
def tied_matrices(draw):
    n, p = draw(st.integers(1, 30)), draw(st.integers(1, 5))
    levels = draw(st.lists(st.sampled_from(TIED_VALUES), min_size=1, max_size=4, unique=True))
    cells = draw(st.lists(st.sampled_from(levels), min_size=n * p, max_size=n * p))
    return np.array(cells, dtype=float).reshape(n, p)


class TestAverageRanks:
    def rankdata_ranks(self, x):
        return rankdata(x, axis=0, method="average")

    @given(x=tied_matrices())
    @example(x=np.array([[2.0]]))
    @example(x=np.array([[1.0, 0.0, -0.0]]))
    @example(x=np.array([[1.0], [0.0], [1.0], [1.0]]))
    @example(x=np.full((6, 2), 7.0))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_rankdata(self, x):
        ours, want = matching._average_ranks(x), self.rankdata_ranks(x)
        assert ours.dtype == want.dtype and ours.shape == want.shape and ours.strides == want.strides
        assert ours.tobytes() == want.tobytes()

    @given(xt=tied_matrices(), xc=tied_matrices())
    @settings(max_examples=100, deadline=None)
    def test_distances_unchanged_from_rankdata_ranks(self, xt, xc):
        p = min(xt.shape[1], xc.shape[1])
        xt, xc = xt[:, :p], xc[:, :p]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ours = rank_mahalanobis(xt, xc)
            with mock.patch.object(matching, "_average_ranks", self.rankdata_ranks):
                want = rank_mahalanobis(xt, xc)
        assert ours.tobytes() == want.tobytes()


class TestApplyCaliper:
    def test_equal_scores_leave_distances_unchanged(self):
        d = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = apply_caliper(d, np.full(2, 0.3), np.full(2, 0.3), width_sd=0.2, penalty=5.0)
        np.testing.assert_array_equal(out, d)

    def test_single_violation_is_local(self):
        st = expit(np.array([0.0]))
        sc = expit(np.array([0.05, 0.6]))
        pool = np.concatenate([logit(st), logit(sc)])
        sd = float(np.std(pool, ddof=1))
        # width 0.3: only the second gap (0.6, twice the width) violates
        d = np.ones((1, 2))
        out = apply_caliper(d, st, sc, width_sd=0.3 / sd, penalty=7.0)
        expected = d.copy()
        expected[0, 1] += 7.0 * 0.3
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_huge_penalty_avoids_violating_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = rng.integers(1, 100, size=(3, 3)) / 10.0
            st = expit(rng.normal(size=3))
            sc = expit(rng.normal(size=3))
            out = apply_caliper(d, st, sc, width_sd=0.5, penalty=1e6)
            violating = out > d + 1e-9
            clean_matching_exists = any(
                not any(violating[t, perm[t]] for t in range(3))
                for perm in itertools.permutations(range(3))
            )
            if not clean_matching_exists:
                continue
            sets, _ = match_bucket(out, ("t1", "t2", "t3"), ("c1", "c2", "c3"), k=1)
            pairs = {(t, cs[0]) for t, cs in sets}
            names = ("t1", "t2", "t3"), ("c1", "c2", "c3")
            for t, c in pairs:
                assert not violating[names[0].index(t), names[1].index(c)]


    @given(
        n_t=st.one_of(
            st.sampled_from([matching._CALIPER_ROWS - 1, matching._CALIPER_ROWS, matching._CALIPER_ROWS + 1]),
            st.integers(1, 3 * matching._CALIPER_ROWS + 5),
        ),
        n_c=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        width_sd=st.floats(0.0, 2.0),
        penalty=st.one_of(st.none(), st.floats(0.0, 1e6)),
        scaled=st.booleans(),
    )
    @example(n_t=1, n_c=200, seed=0, width_sd=0.1, penalty=None, scaled=False)
    @example(n_t=200, n_c=1, seed=1, width_sd=0.1, penalty=3.0, scaled=True)
    @settings(max_examples=80, deadline=None)
    def test_blockwise_penalty_is_bit_identical_and_leaves_inputs(self, n_t, n_c, seed, width_sd, penalty, scaled):
        rng = np.random.default_rng(seed)
        d = rng.random((n_t, n_c)) * 10.0
        s_t, s_c = rng.uniform(0.01, 0.99, size=n_t), rng.uniform(0.01, 0.99, size=n_c)
        scale = rng.uniform(0.01, 0.99, size=7) if scaled else None
        before = [a.copy() for a in (d, s_t, s_c)]
        out = apply_caliper(d, s_t, s_c, width_sd=width_sd, penalty=penalty, scale_scores=scale)

        lt, lc = logit(s_t), logit(s_c)
        pool = logit(scale) if scaled else np.concatenate([lt, lc])
        width = width_sd * float(np.std(pool, ddof=1))
        pen = 1000.0 * float(d.mean()) if penalty is None else penalty
        want = d + pen * np.maximum(np.abs(lt[:, None] - lc[None, :]) - width, 0)
        assert out.dtype == want.dtype
        np.testing.assert_array_equal(out, want)
        for a, b in zip((d, s_t, s_c), before):
            np.testing.assert_array_equal(a, b)


class TestTrimCommonSupport:
    def test_low_treated_dropped(self):
        drop = trim_common_support(np.array([0.5, 0.05, 0.1, 0.4]), np.array([1, 1, 0, 0]))
        np.testing.assert_array_equal(drop, [1])

    def test_full_overlap_drops_nobody(self):
        drop = trim_common_support(np.array([0.3, 0.6, 0.2, 0.55]), np.array([1, 1, 0, 0]))
        assert drop.size == 0

    def test_emptying_an_arm_raises(self):
        with pytest.raises(MatchingError, match="emptied"):
            trim_common_support(np.array([0.6, 0.7, 0.8]), np.array([1, 0, 0]))

    def test_single_arm_rejected(self):
        with pytest.raises(MatchingError, match="both arms"):
            trim_common_support(np.array([0.5, 0.6]), np.array([1, 1]))


class TestPropensityInterval:
    def test_published_anchor_points(self):
        assert propensity_interval(0.5) == 1
        assert propensity_interval(0.3) == 2
        assert propensity_interval(1.0 / 16.0) == 15
        assert propensity_interval(1.0 / 16.0 + 1e-12) == 14

    def test_unit_endpoints(self):
        assert propensity_interval(1.0) == 1
        assert propensity_interval(0.0) == 15

    def test_agrees_with_interval_definitions(self):
        # S_1 = (1/3, 1]; S_k = (1/(k+2), 1/(k+1)] for k = 2..14; S_15 = [0, 1/16]
        rng = np.random.default_rng(2)
        for e in rng.random(5000):
            k = propensity_interval(float(e))
            if k == 1:
                assert 1.0 / 3.0 < e <= 1.0
            elif k == 15:
                assert 0.0 <= e <= 1.0 / 16.0
            else:
                assert 1.0 / (k + 2) < e <= 1.0 / (k + 1)

    def test_vector_input(self):
        out = propensity_interval(np.array([0.5, 0.3, 0.01]))
        np.testing.assert_array_equal(out, [1, 2, 15])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            propensity_interval(1.5)


class TestMatchBucket:
    def test_two_by_two_picks_diagonal(self):
        d = np.array([[1.0, 2.0], [2.0, 1.0]])
        sets, dropped = match_bucket(d, ("t1", "t2"), ("c1", "c2"), k=1)
        assert sets == [("t1", ("c1",)), ("t2", ("c2",))]
        assert dropped == []
        assert match_total_cost(d, ("t1", "t2"), ("c1", "c2"), sets) == 2.0

    def test_single_treated_takes_nearest_controls(self):
        d = np.array([[0.3, 0.1, 0.9]])
        sets, dropped = match_bucket(d, ("t1",), ("c1", "c2", "c3"), k=2)
        assert sets == [("t1", ("c1", "c2"))]
        assert dropped == [("c3", REASON_OPTIMAL_DISCARD)]

    def test_scarce_controls_discard_is_optimal(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = rng.integers(0, 10_000, size=(3, 2)) / 1000.0
            sets, dropped = match_bucket(d, ("t1", "t2", "t3"), ("c1", "c2"), k=3)
            assert len(sets) == 2 and len(dropped) == 1
            assert dropped[0][1] == REASON_OPTIMAL_DISCARD
            cost = match_total_cost(d, ("t1", "t2", "t3"), ("c1", "c2"), sets)
            assert cost == pytest.approx(brute_force_bucket_cost(d, 3), abs=1e-9)

    def test_optimal_on_random_small_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n_t = int(rng.integers(1, 4))
            n_c = int(rng.integers(1, 6))
            k = int(rng.integers(1, 4))
            d = rng.integers(0, 10_000, size=(n_t, n_c)) / 1000.0
            t_ids = tuple(f"t{i}" for i in range(n_t))
            c_ids = tuple(f"c{i}" for i in range(n_c))
            sets, dropped = match_bucket(d, t_ids, c_ids, k)
            cost = match_total_cost(d, t_ids, c_ids, sets)
            assert cost == pytest.approx(brute_force_bucket_cost(d, k), abs=1e-9)
            seen = [c for _, cs in sets for c in cs] + [t for t, _ in sets]
            seen += [s for s, _ in dropped]
            assert sorted(seen) == sorted(t_ids + c_ids)

    def test_intermediate_regime_uses_every_control(self):
        rng = np.random.default_rng(5)
        d = rng.random((2, 3))
        sets, dropped = match_bucket(d, ("t1", "t2"), ("c1", "c2", "c3"), k=2)
        assert dropped == []
        matched_controls = sorted(c for _, cs in sets for c in cs)
        assert matched_controls == ["c1", "c2", "c3"]
        assert all(1 <= len(cs) <= 2 for _, cs in sets)

    def test_inputs_left_unchanged(self):
        # The oracles solve one distance matrix twice; the build must copy.
        rng = np.random.default_rng(17)
        for n_t, n_c, k in ((3, 2, 1), (2, 5, 4), (2, 9, 3), (30, 20, 1), (6, 40, 2)):
            d = rng.random((n_t, n_c))
            t_ids = tuple(f"t{i}" for i in range(n_t))
            c_ids = tuple(f"c{j}" for j in range(n_c))
            before = d.copy()
            first = match_bucket(d, t_ids, c_ids, k)
            np.testing.assert_array_equal(d, before)
            assert match_bucket(d, t_ids, c_ids, k) == first

    def test_scarce_cell_keeps_the_solvers_pairs(self):
        # A cell with more treated subjects than controls reaches the solver
        # as its transpose; the solver transposes a tall matrix itself, so
        # the pairs are those it picks for the untransposed costs.
        rng = np.random.default_rng(18)
        d = rng.random((40, 25))
        t_ids = tuple(f"t{i:02d}" for i in range(40))
        c_ids = tuple(f"c{j:02d}" for j in range(25))
        assert_not_folded(d, t_ids, c_ids, k=1)
        rows, cols = linear_sum_assignment(np.round(d * matching._COST_SCALE))
        sets, dropped = match_bucket(d, t_ids, c_ids, k=1)
        assert sets == [(t_ids[r], (c_ids[c],)) for r, c in zip(rows, cols)]
        assert len(dropped) == 15

    def test_empty_side_returns_everything_unmatched(self):
        sets, dropped = match_bucket(np.zeros((0, 2)), (), ("c1", "c2"), k=1)
        assert sets == []
        assert dropped == [("c1", REASON_UNMATCHED), ("c2", REASON_UNMATCHED)]

    def test_same_input_same_output(self):
        rng = np.random.default_rng(6)
        d = rng.random((3, 5))
        first = match_bucket(d, ("t1", "t2", "t3"), ("c1", "c2", "c3", "c4", "c5"), k=2)
        second = match_bucket(d, ("t1", "t2", "t3"), ("c1", "c2", "c3", "c4", "c5"), k=2)
        assert first == second


@st.composite
def tie_heavy_cell(draw, regime):
    """A cell with n_t + n_c <= 8 in the given regime, distances in {0, 1, 2},
    and treated/control ids in a drawn order."""
    if regime == "scarce":
        n_c = draw(st.integers(1, 3))
        n_t = draw(st.integers(n_c + 1, 8 - n_c))
        k = draw(st.integers(1, 3))
    elif regime == "surplus":
        n_t = draw(st.integers(1, 3))
        k = draw(st.integers(1, (8 - n_t) // n_t))
        n_c = draw(st.integers(k * n_t, 8 - n_t))
    else:
        n_t = draw(st.integers(1, 4))
        n_c = draw(st.integers(n_t, 8 - n_t))
        k = draw(st.integers(n_c // n_t + 1, n_c // n_t + 3))
    dist = np.array(draw(st.lists(st.integers(0, 2), min_size=n_t * n_c, max_size=n_t * n_c)), dtype=float)
    t_ids = tuple(f"t{i}" for i in draw(st.permutations(range(n_t))))
    c_ids = tuple(f"c{j}" for j in draw(st.permutations(range(n_c))))
    return dist.reshape(n_t, n_c), t_ids, c_ids, k


REGIMES = ("surplus", "intermediate", "scarce")


class TestTieRule:
    @pytest.mark.parametrize("regime", REGIMES)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_permuting_rows_and_columns_gives_identical_sets(self, regime, data):
        dist, t_ids, c_ids, k = data.draw(tie_heavy_cell(regime))
        tp = data.draw(st.permutations(range(len(t_ids))))
        cp = data.draw(st.permutations(range(len(c_ids))))
        sets, dropped = match_bucket(dist, t_ids, c_ids, k)
        p_sets, p_dropped = match_bucket(
            dist[np.ix_(tp, cp)], tuple(t_ids[i] for i in tp), tuple(c_ids[j] for j in cp), k
        )
        assert sorted(p_sets) == sorted(sets)
        assert sorted(p_dropped) == sorted(dropped)

    @pytest.mark.parametrize("regime", REGIMES)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_cost_equals_brute_force(self, regime, data):
        dist, t_ids, c_ids, k = data.draw(tie_heavy_cell(regime))
        sets, _ = match_bucket(dist, t_ids, c_ids, k)
        assert match_total_cost(dist, t_ids, c_ids, sets) == brute_force_bucket_cost(dist, k)

    @pytest.mark.parametrize("regime", REGIMES)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_picks_the_canonical_optimum(self, regime, data):
        dist, t_ids, c_ids, k = data.draw(tie_heavy_cell(regime))
        sets, _ = match_bucket(dist, t_ids, c_ids, k)
        assert sorted(sets) == brute_force_canonical_match(dist, t_ids, c_ids, k)

    def test_lowest_id_labels_win_a_tie(self):
        # Both controls cost the same for both treated subjects; c1 goes to
        # t1, the treated subject of lowest id, whatever the row order.
        d = np.ones((2, 2))
        for t_ids in (("t1", "t2"), ("t2", "t1")):
            sets, _ = match_bucket(d, t_ids, ("c2", "c1"), k=1)
            assert sorted(sets) == [("t1", ("c1",)), ("t2", ("c2",))]

    def test_cell_beyond_the_fold_bound_is_still_optimal(self):
        # 40 controls would need a secondary cost of 2**40 per unit of
        # primary cost, so the costs are not folded; the solve stays optimal.
        rng = np.random.default_rng(16)
        d = rng.integers(0, 1000, size=(1, 40)) / 1000.0
        c_ids = tuple(f"c{j:02d}" for j in range(40))
        assert_not_folded(d, ("t1",), c_ids, k=3)
        sets, dropped = match_bucket(d, ("t1",), c_ids, k=3)
        assert len(sets[0][1]) == 3 and len(dropped) == 37
        assert match_total_cost(d, ("t1",), c_ids, sets) == pytest.approx(sum(sorted(d[0])[:3]), abs=1e-12)

        # Distances up to 1e8 put the folded totals past 2**53 in small cells
        # too: 2 treated with 5 controls at k=4 (every control used), and 5
        # treated with 3 controls (pairs only). Integer distances add exactly.
        for n_t, n_c, k, n_dropped in ((2, 5, 4, 0), (5, 3, 2, 2)):
            d = rng.integers(0, 10**8, size=(n_t, n_c)).astype(float)
            t_ids = tuple(f"t{i}" for i in range(n_t))
            c_ids = tuple(f"c{j}" for j in range(n_c))
            assert_not_folded(d, t_ids, c_ids, k)
            sets, dropped = match_bucket(d, t_ids, c_ids, k)
            assert len(dropped) == n_dropped
            assert all(1 <= len(cs) <= k for _, cs in sets)
            assert match_total_cost(d, t_ids, c_ids, sets) == brute_force_bucket_cost(d, k)


@st.composite
def tie_heavy_matrix(draw):
    """A small-integer cost matrix, wide, tall, square, 1 x n or n x 1."""
    a, b = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    shape = draw(st.sampled_from(((min(a, b), max(a, b)), (max(a, b), min(a, b)), (a, a), (1, b), (b, 1))))
    values = draw(st.lists(st.integers(0, 3), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    return np.array(values, dtype=float).reshape(shape)


class TestSolver:
    @given(matrix=tie_heavy_matrix())
    @settings(max_examples=200, deadline=None)
    def test_solver_is_scipys(self, matrix):
        # linear_sum_assignment is the public scipy.optimize function.
        rows, cols = matching.linear_sum_assignment(matrix)
        expected = linear_sum_assignment(matrix)
        np.testing.assert_array_equal(rows, expected[0])
        np.testing.assert_array_equal(cols, expected[1])
        assert matching.linear_sum_assignment is linear_sum_assignment
        assert sys.modules["scipy.optimize._lsap"].linear_sum_assignment is linear_sum_assignment

    def test_folder_without_the_extension_gives_the_public_function(self, tmp_path):
        # In a fresh interpreter: this one has imported scipy.optimize, which
        # the loader would reuse.
        solve = "result.linear_sum_assignment([[2.0, 1.0], [1.0, 2.0]])[1].tolist()"
        fallback = load_in_fresh_interpreter("scipy.optimize", ["_lsap"], [str(tmp_path)], solve)
        assert fallback == {"module": "scipy.optimize", "at_fallback": [[]], "package_imported": True, "value": [1, 0]}
        folders = [os.path.join(p, "optimize") for p in scipy.__path__]
        alone = load_in_fresh_interpreter("scipy.optimize", ["_lsap"], folders, solve)
        assert alone == {"module": "scipy.optimize._lsap", "at_fallback": [], "package_imported": False, "value": [1, 0]}


class TestOneDecode:
    @pytest.mark.parametrize("regime", REGIMES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_build_match_sets_are_match_bucket_sets_on_one_cell(self, regime, data):
        # One stratum, every score in interval k and no caliper penalty: the
        # table is one cell, and build_match's decode into rows must name the
        # sets that match_bucket's decode into ids names for its distances.
        k = data.draw(st.integers(2 if regime == "intermediate" else 1, 4))
        if regime == "scarce":
            n_c = data.draw(st.integers(1, 5))
            n_t = data.draw(st.integers(n_c + 1, n_c + 5))
        elif regime == "surplus":
            n_t = data.draw(st.integers(1, 4))
            n_c = data.draw(st.integers(k * n_t, k * n_t + 4))
        else:
            n_t = data.draw(st.integers(1, 4))
            n_c = data.draw(st.integers(n_t, k * n_t - 1))
        n = n_t + n_c
        z = np.array(data.draw(st.permutations([1] * n_t + [0] * n_c)))
        covs = np.array(data.draw(st.lists(st.integers(0, 3), min_size=2 * n, max_size=2 * n)), dtype=float)
        table = make_table(z, covs.reshape(n, 2))  # ids in row order
        # Treated scores above control scores, so the trim keeps everyone.
        low, high = 1.0 / (k + 2), 1.0 / (k + 1)
        scores = np.where(z == 1, low + 0.75 * (high - low), low + 0.25 * (high - low))
        assert (propensity_interval(scores) == k).all()
        result = build_match(table, scores, MatchingParams(caliper_penalty=0.0))

        t_rows, c_rows = np.flatnonzero(z == 1), np.flatnonzero(z == 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dist = rank_mahalanobis(table.covariates[t_rows], table.covariates[c_rows])
        tp = data.draw(st.permutations(range(n_t)))
        cp = data.draw(st.permutations(range(n_c)))
        sets, dropped = match_bucket(
            dist[np.ix_(tp, cp)], tuple(table.ids[t_rows[i]] for i in tp), tuple(table.ids[c_rows[j]] for j in cp), k
        )
        assert id_sets(table, result) == sets
        assert id_ledger(table, result) == dropped


def solver_layout(a):
    """A copy of ``a`` in the layout the assignment solver takes: C-order
    when it is wide or square, the transpose of a C-order array when tall."""
    return np.ascontiguousarray(a.T).T if a.shape[0] > a.shape[1] else np.ascontiguousarray(a)


class TestOneCostMatrix:
    """A cell's distances, caliper and integer costs share one array, laid
    out as the solver takes it."""

    @pytest.mark.parametrize("n_t, n_c", [(3, 5), (4, 4), (5, 3), (1, 6), (6, 1)])
    @pytest.mark.parametrize("constant", [False, True])
    def test_rank_mahalanobis_returns_the_solver_layout(self, n_t, n_c, constant):
        rng = np.random.default_rng(21)
        xt, xc = rng.normal(size=(n_t, 3)), rng.normal(size=(n_c, 3))
        if constant:  # every covariate dropped: the distances are zeros
            xt, xc = np.ones_like(xt), np.ones_like(xc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d = rank_mahalanobis(xt, xc)
        assert d.shape == (n_t, n_c) and d.dtype == np.float64
        assert (d.T if n_t > n_c else d).flags.c_contiguous
        np.testing.assert_allclose(d, rank_mahalanobis(xc, xt).T if not constant else 0.0, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
    @pytest.mark.parametrize("shape", [(3, 5), (5, 3)])
    def test_build_rejects_non_finite_and_negative_distances(self, bad, shape):
        dist = solver_layout(np.random.default_rng(22).random(shape))
        dist[1, 2] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            matching._build_assignment(dist, 1)

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3)])
    def test_build_accepts_zeros_of_either_sign(self, shape):
        dist = solver_layout(np.random.default_rng(23).random(shape))
        dist[0, 0], dist[1, 1] = 0.0, -0.0
        matching._build_assignment(dist, 1)

    @pytest.mark.parametrize("dist", [np.zeros((3, 5), order="F"), np.zeros((5, 3)), np.zeros((3, 5), dtype=np.float32)])
    def test_build_rejects_another_layout(self, dist):
        with pytest.raises(ValueError, match="solver's layout"):
            matching._build_assignment(dist, 1)

    @pytest.mark.parametrize("n_t, n_c", [(30, 40), (40, 40), (40, 30)])
    def test_one_row_per_treated_subject_solves_the_input_array(self, n_t, n_c):
        # 30 or more controls: too large for the tie-rule fold.
        dist = solver_layout(np.random.default_rng(24).random((n_t, n_c)))
        want = np.round(dist * matching._COST_SCALE)
        cell = matching._build_assignment(dist, 1)
        assert (cell.copies, cell.transposed) == (1, n_t > n_c)
        assert cell.matrix.flags.c_contiguous and np.shares_memory(cell.matrix, dist)
        np.testing.assert_array_equal(cell.matrix, want.T if n_t > n_c else want)

    def test_caliper_in_the_transposed_layout(self):
        # 70 controls: two blocks of memory rows; the default penalty's mean
        # sums the distances in memory order.
        rng = np.random.default_rng(25)
        d = solver_layout(rng.random((90, 70)) * 10.0)
        s_t, s_c = rng.uniform(0.05, 0.95, size=90), rng.uniform(0.05, 0.95, size=70)
        before = d.copy()
        want = apply_caliper(np.ascontiguousarray(d), s_t, s_c, penalty=1000.0 * float(d.T.mean()))
        out = apply_caliper(d, s_t, s_c)
        assert out.T.flags.c_contiguous and not np.shares_memory(out, d)
        np.testing.assert_array_equal(d, before)
        np.testing.assert_array_equal(out, want)
        into = np.empty_like(d)
        assert apply_caliper(d, s_t, s_c, out=into) is into
        np.testing.assert_array_equal(into, want)
        assert apply_caliper(d, s_t, s_c, out=d) is d
        np.testing.assert_array_equal(d, want)

    @pytest.mark.parametrize("regime", REGIMES)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_in_place_build_equals_the_layered_build(self, regime, data):
        # Cells from 1 x 1 to beyond the tie-rule fold's bound, both
        # orientations (scarce cells are tall), default or fixed penalty.
        k = data.draw(st.integers(2 if regime == "intermediate" else 1, 4))
        if regime == "scarce":
            n_c = data.draw(st.integers(1, 20))
            n_t = data.draw(st.integers(n_c + 1, n_c + 30))
        elif regime == "surplus":
            n_t = data.draw(st.integers(1, 8))
            n_c = data.draw(st.integers(k * n_t, k * n_t + 20))
        else:
            n_t = data.draw(st.integers(1, 12))
            n_c = data.draw(st.integers(n_t, k * n_t - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        xt, xc = rng.normal(size=(n_t, 3)).round(1), rng.normal(size=(n_c, 3)).round(1)
        s_t, s_c = rng.uniform(0.05, 0.95, size=n_t), rng.uniform(0.05, 0.95, size=n_c)
        scale = np.concatenate([s_t, s_c, rng.uniform(0.05, 0.95, size=5)])
        params = MatchingParams(caliper_width_sd=0.2, caliper_penalty=data.draw(st.sampled_from([None, 0.0, 3.5])))

        cell = matching._cell_assignment(xt, xc, s_t, s_c, k, params, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dist = rank_mahalanobis(xt, xc)
        penalized = apply_caliper(dist, s_t, s_c, width_sd=0.2, penalty=params.caliper_penalty, scale_scores=scale)
        layered = matching._build_assignment(penalized, k)
        assert (cell.transposed, cell.copies, cell.n_t, cell.n_c) == (n_t > n_c, layered.copies, n_t, n_c)
        assert cell.matrix.shape == layered.matrix.shape and cell.matrix.dtype == layered.matrix.dtype
        assert cell.matrix.tobytes() == layered.matrix.tobytes()


class TestCellMemory:
    @pytest.mark.parametrize(
        "n_t, n_c, k",
        [
            (600, 800, 1),  # one row per treated subject
            (800, 600, 1),  # more treated subjects than controls: the transposed layout
            (300, 450, 2),  # two rows per treated subject, and dummy columns
        ],
    )
    def test_build_match_holds_one_cost_matrix_per_cell(self, n_t, n_c, k):
        # One cell: one stratum, every score in interval k. Its build holds
        # the cost matrix, plus the replicated matrix where a treated subject
        # owns several rows; the caliper's row block (a ninth of the cost
        # matrix here) and the O(n * p) arrays stay under a third of it. A
        # build that copies the cost matrix once more exceeds the bound.
        rng = np.random.default_rng(26)
        n = n_t + n_c
        table = make_table(np.array([1] * n_t + [0] * n_c), rng.normal(size=(n, 4)))
        low, high = 1.0 / (k + 2), 1.0 / (k + 1)
        scores = rng.uniform(low + 0.1 * (high - low), low + 0.9 * (high - low), size=n)
        scores[0], scores[n_t] = low + 0.95 * (high - low), low + 0.05 * (high - low)  # the trim keeps everyone
        assert (propensity_interval(scores) == k).all()
        cost = n_t * n_c * 8
        copies = max(1, min(k, n_c - n_t + 1))
        rows = n_t * copies
        replicated = rows * max(rows, n_c) * 8 if copies > 1 else 0

        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            result = build_match(table, scores)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(result.sets) == min(n_t, n_c)
        assert peak < cost + replicated + cost / 3


def assert_not_folded(dist, t_ids, c_ids, k):
    """The costs of this cell are too large for the tie-rule fold."""
    cost = np.round(dist * matching._COST_SCALE)
    assert matching._fold_tie_rule(cost, max(len(c_ids), k * len(t_ids))) is cost


def simple_instance(rng, n_treated, n_control, strata=("a",), score_range=(0.35, 0.9)):
    n = n_treated + n_control
    z = np.array([1] * n_treated + [0] * n_control)
    covs = rng.normal(size=(n, 3))
    stratum = rng.choice(strata, size=n)
    table = make_table(z, covs, stratum=stratum)
    return table, rng.uniform(*score_range, size=n)


class TestBuildMatch:
    def test_balanced_single_bucket_is_pure_pairing(self):
        rng = np.random.default_rng(7)
        table = make_table(np.array([1, 1, 1, 1, 0, 0, 0, 0]), rng.normal(size=(8, 3)))
        scores = np.array([0.50, 0.55, 0.60, 0.65, 0.45, 0.52, 0.58, 0.63])
        assert (propensity_interval(scores) == 1).all()
        result = build_match(table, scores)
        assert result.sets.sizes.tolist() == [2] * 4
        assert composition(result) == {1: 4, **{k: 0 for k in range(2, 16)}}
        assert result.counts.n_matched == 8

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_row_order_does_not_change_the_match(self, seed, data):
        # Ids s1..s24 compare as strings, so "s10" comes before "s2": the
        # table rows are not in id order even before they are permuted.
        rng = np.random.default_rng(seed)
        n = 24
        z = np.array([1] * 9 + [0] * 15)
        scores = rng.uniform(0.2, 0.8, size=n)
        # s1 is a treated subject below every control, s10 and s11 are
        # controls above every treated subject.
        scores[[0, 9, 10]] = (0.05, 0.9, 0.95)
        # Only controls have a 1 in either indicator: s12 and s13 are
        # missingness-determined, and s12 is flagged twice.
        indicators = np.zeros((n, 2))
        indicators[11, 0] = indicators[[11, 12], 1] = 1.0
        covs = np.column_stack([rng.normal(size=(n, 3)).round(1), indicators])
        table = make_table(
            z,
            covs,
            covariate_names=("x1", "x2", "x3", "x1__missing", "x2__missing"),
            stratum=rng.choice(["a", "b"], size=n),
            ids=[f"s{i + 1}" for i in range(n)],
        )
        order = np.array(data.draw(st.permutations(range(n))))
        result = build_match(table, scores)
        permuted = table.subset(order)
        again = build_match(permuted, scores[order])
        assert id_sets(permuted, again) == id_sets(table, result)
        assert id_ledger(permuted, again) == id_ledger(table, result)
        assert again.counts == result.counts
        assert id_ledger(table, result)[:5] == [
            ("s12", REASON_MISSINGNESS),
            ("s13", REASON_MISSINGNESS),
            ("s1", REASON_COMMON_SUPPORT),
            ("s10", REASON_COMMON_SUPPORT),
            ("s11", REASON_COMMON_SUPPORT),
        ]

    def test_no_cell_with_both_arms_raises(self):
        # Every treated subject in stratum a, every control in b: no cell
        # can form a set, so there is no match to assess or test.
        rng = np.random.default_rng(7)
        table = make_table(np.array([1] * 4 + [0] * 4), rng.normal(size=(8, 3)), stratum=["a"] * 4 + ["b"] * 4)
        with pytest.raises(MatchingError, match="no stratum x interval cell holds both arms"):
            build_match(table, np.full(8, 0.5))

    def test_straddling_buckets_match_independent_sub_runs(self):
        # no caliper and no trims, so each interval cell is self-contained
        z = np.array([1, 1, 0, 0, 1, 1, 0, 0])
        scores = np.array([0.50, 0.60, 0.45, 0.55, 0.30, 0.32, 0.28, 0.31])
        rng = np.random.default_rng(8)
        covs = rng.normal(size=(8, 2))
        params = MatchingParams(caliper_penalty=0.0)

        table = make_table(z, covs)
        full = build_match(table, scores, params)

        pieces = []
        for cell in (slice(0, 4), slice(4, 8)):
            sub = make_table(z[cell], covs[cell], ids=table.ids[cell])
            pieces.extend(id_sets(sub, build_match(sub, scores[cell], params)))
        assert sorted(id_sets(table, full)) == sorted(pieces)

    def test_common_support_and_accounting(self):
        z = np.array([1, 1, 1, 0, 0, 0])
        scores = np.array([0.50, 0.44, 0.05, 0.45, 0.42, 0.90])
        rng = np.random.default_rng(9)
        table = make_table(z, rng.normal(size=(6, 2)))
        result = build_match(table, scores)
        reasons = dict(id_ledger(table, result))
        assert reasons[table.ids[2]] == REASON_COMMON_SUPPORT  # below every control
        assert reasons[table.ids[5]] == REASON_COMMON_SUPPORT  # above every treated
        assert result.counts.n_cs_treated == 1 and result.counts.n_cs_control == 1
        matched = {table.ids[r] for r in result.members}
        assert matched | set(reasons) == set(table.ids)
        assert len(matched) + len(result.dropped) == table.n

    def test_match_counts_split_the_ledger_by_arm(self):
        z = np.array([1, 1, 1, 0, 0, 0, 0])
        table = make_table(z, np.zeros((7, 1)))
        dropped = np.array([0, 3, 4, 1, 5])
        reasons = (REASON_MISSINGNESS,) * 3 + (REASON_COMMON_SUPPORT, REASON_OPTIMAL_DISCARD)
        # One set, row 2 with row 6.
        assert match_counts(table, SetLayout([2]), dropped, reasons) == MatchCounts(1, 2, 1, 0, 1, 1)

    def test_worker_count_does_not_change_the_result(self, monkeypatch):
        # Cells: (a,1) scarce, (a,3) intermediate and (b,2) surplus, all small
        # enough for the tie-rule fold; (c,1) scarce, (d,1) and (d,2) surplus
        # and (d,4) intermediate with dummy columns, all unfolded; (e,1) and
        # (e,3) each lack an arm.
        rng = np.random.default_rng(19)
        bands = {1: (0.34, 0.89), 2: (0.26, 0.33), 3: (0.21, 0.249), 4: (0.171, 0.199)}
        layout = {  # (stratum, interval): (treated, controls)
            ("a", 1): (5, 3),
            ("a", 3): (2, 4),
            ("b", 2): (2, 6),
            ("c", 1): (40, 25),
            ("d", 1): (25, 40),
            ("d", 2): (5, 30),
            ("d", 4): (10, 25),
            ("e", 1): (0, 3),
            ("e", 3): (2, 0),
        }
        z, stratum, scores = [], [], []
        for (name, k), (n_t, n_c) in layout.items():
            z += [1] * n_t + [0] * n_c
            stratum += [name] * (n_t + n_c)
            scores += list(rng.uniform(*bands[k], size=n_t + n_c))
            if (name, k) == ("d", 4):
                scores[-1] = 0.17  # the lowest control score: the trim keeps every treated subject
        z, scores = np.array(z), np.array(scores)
        scores[0] = 0.9  # the highest treated score: the trim keeps every control
        order = rng.permutation(z.size)
        table = make_table(z[order], rng.normal(size=(z.size, 3)), stratum=np.array(stratum)[order])
        scores = scores[order]

        pools = []

        class SpyPool(matching.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(matching, "ThreadPoolExecutor", SpyPool)
        results = []
        switch = sys.getswitchinterval()
        for cores in (1, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)), raising=False)
            sys.setswitchinterval(1e-6)
            try:
                results.append(build_match(table, scores))
            finally:
                sys.setswitchinterval(switch)
        assert pools == [1, 3]
        serial, pooled = results
        assert np.array_equal(pooled.members, serial.members)
        assert np.array_equal(pooled.sets.sizes, serial.sets.sizes)
        assert np.array_equal(pooled.dropped, serial.dropped)
        assert pooled.reasons == serial.reasons
        assert pooled.counts == serial.counts
        assert REASON_COMMON_SUPPORT not in serial.reasons
        cell_of = {table.ids[i]: (table.stratum[i], int(propensity_interval(scores[i]))) for i in range(table.n)}
        assert {cell_of[t] for t, _ in id_sets(table, serial)} == {key for key in layout if key[0] != "e"}

        # One match_bucket call per cell, in cell order.
        keyed, dropped = [], []
        for name, k in sorted(set(cell_of.values())):
            rows = [i for i in range(table.n) if cell_of[table.ids[i]] == (name, k)]
            t_rows = sorted((i for i in rows if table.z[i] == 1), key=lambda i: table.ids[i])
            c_rows = sorted((i for i in rows if table.z[i] == 0), key=lambda i: table.ids[i])
            t_ids = tuple(table.ids[i] for i in t_rows)
            c_ids = tuple(table.ids[i] for i in c_rows)
            if not t_rows or not c_rows:
                dropped += [(s, REASON_UNMATCHED) for s in t_ids + c_ids]
                continue
            d = rank_mahalanobis(table.covariates[t_rows], table.covariates[c_rows])
            d = apply_caliper(d, scores[t_rows], scores[c_rows], scale_scores=scores)
            cell_sets, cell_dropped = match_bucket(d, t_ids, c_ids, k)
            keyed += [((name, k, t), (t, cs)) for t, cs in cell_sets]
            dropped += cell_dropped
        assert id_sets(table, serial) == [s for _, s in sorted(keyed, key=lambda item: item[0])]
        assert id_ledger(table, serial) == dropped

    def test_sets_never_cross_strata(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            table, scores = simple_instance(rng, 6, 10, strata=("7-8", "9-10", "11-12"))
            result = build_match(table, scores)
            stratum_of = {s: table.stratum[i] for i, s in enumerate(table.ids)}
            for treated_id, control_ids in id_sets(table, result):
                for c in control_ids:
                    assert stratum_of[c] == stratum_of[treated_id]
                assert 1 <= len(control_ids) <= 15

    def test_partition_property(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            table, scores = simple_instance(rng, 5, 12, strata=("a", "b"), score_range=(0.05, 0.95))
            result = build_match(table, scores)
            in_sets = [t for t, _ in id_sets(table, result)]
            in_sets += [c for _, cs in id_sets(table, result) for c in cs]
            everyone = in_sets + [s for s, _ in id_ledger(table, result)]
            assert sorted(everyone) == sorted(table.ids)

    def test_caliper_penalty_monotone_in_total_violation(self):
        # the optimal match's total caliper excess is nonincreasing in the
        # penalty (exchange argument); the count of within-caliper pairs is
        # not, since one big violation may be traded for two small ones
        rng = np.random.default_rng(12)
        width_sd = 0.5
        for _ in range(25):
            d = rng.random((4, 6))
            st = expit(rng.normal(size=4))
            sc = expit(rng.normal(size=6))
            pool = np.concatenate([logit(st), logit(sc)])
            width = width_sd * float(np.std(pool, ddof=1))
            t_ids = tuple(f"t{i}" for i in range(4))
            c_ids = tuple(f"c{i}" for i in range(6))
            last = np.inf
            for penalty in (0.0, 1.0, 10.0, 1000.0):
                out = apply_caliper(d, st, sc, width_sd=width_sd, penalty=penalty)
                sets, _ = match_bucket(out, t_ids, c_ids, k=2)
                excess = sum(
                    max(abs(logit(st[int(t[1:])]) - logit(sc[int(c[1:])])) - width, 0.0)
                    for t, cs in sets
                    for c in cs
                )
                assert excess <= last + 1e-9
                last = excess

    def test_misaligned_scores_rejected(self):
        rng = np.random.default_rng(13)
        table, _ = simple_instance(rng, 2, 2)
        with pytest.raises(ValueError, match="align"):
            build_match(table, [0.5, 0.5])

    def test_config_bounds(self):
        with pytest.raises(ValueError):
            MatchingParams(max_controls=16)
        with pytest.raises(ValueError):
            MatchingParams(max_controls=0)


class TestComposition:
    def test_all_pairs(self):
        rng = np.random.default_rng(14)
        table = make_table(np.array([1, 1, 1, 0, 0, 0]), rng.normal(size=(6, 3)))
        result = build_match(table, [0.50, 0.55, 0.60, 0.48, 0.52, 0.58])
        counts = composition(result)
        assert counts[1] == 3
        assert sum(counts.values()) == len(result.sets)

    def test_mixed_sizes_counted(self):
        rng = np.random.default_rng(15)
        # scores spread over buckets so set sizes vary
        table, scores = simple_instance(rng, 4, 20, score_range=(0.1, 0.9))
        result = build_match(table, scores)
        counts = composition(result)
        sizes = (result.sets.sizes - 1).tolist()
        for j in range(1, 16):
            assert counts[j] == sizes.count(j)


class TestReportRow:
    def test_published_row_format(self):
        counts = MatchCounts(
            n_miss_treated=0,
            n_miss_control=32,
            n_cs_treated=26,
            n_cs_control=177,
            n_matched_treated=447,
            n_matched_control=1034,
        )
        row = format_match_row("Comparison 1", "MLE", counts, imbalanced=0)
        assert row == (
            "Comparison 1, MLE: n_miss 32 (0/32), n_cs 203 (26/177), "
            "n_total 1481 (447/1034), imbalanced 0"
        )
