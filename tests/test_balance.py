import math

import numpy as np
import pytest

from matchstudy.balance import (
    BalanceRow,
    balance_table,
    count_imbalanced,
    pooled_sd,
    select_match,
    standardized_difference,
)
from matchstudy.dataset import Covariate, CovariateSchema, CONTINUOUS, ORDINAL
from matchstudy.matching import build_match

from util import make_table, match_of, random_match, reference_weighted_rows


def manual_result(table, sets):
    """A match of ``table`` whose sets list the given ids, treated id first."""
    return match_of(table, [[table.row_of(s) for s in ids] for ids in sets])


def pair(treated_id, *control_ids):
    return (treated_id, *control_ids)


def fake_row(post_diff):
    return BalanceRow(
        name="x",
        treated_mean_pre=0.0,
        control_mean_pre=0.0,
        treated_mean_post=0.0,
        control_mean_post=0.0,
        sd_diff_pre=0.0,
        sd_diff_post=post_diff,
        denom=1.0,
        imbalanced=abs(post_diff) > 0.2,
    )


def post_control_means(values, sets):
    """``balance_table``'s post-match control mean of each column of
    ``values``, keyed by subject id, on the given sets."""
    ids = sorted(values)
    table = make_table(
        [1 if i.startswith("t") else 0 for i in ids], [values[i] for i in ids], ids=ids
    )
    return [row.control_mean_post for row in balance_table(table, manual_result(table, sets))]


class TestWeights:
    def test_pair_sets_get_unit_weights(self):
        values = {"t1": [0.0], "t2": [0.0], "c1": [3.0], "c2": [8.0]}
        assert post_control_means(values, [pair("t1", "c1"), pair("t2", "c2")]) == [5.5]

    def test_one_to_four_set(self):
        # One column per control, 1 on that control: each mean is its weight.
        controls = ("c1", "c2", "c3", "c4")
        values = {"t1": [0.0] * 4, **{c: [float(c == d) for d in controls] for c in controls}}
        assert post_control_means(values, [pair("t1", *controls)]) == [0.25] * 4

    def test_mixed_sets_weighted_mean(self):
        values = {"t1": [0.0], "t2": [0.0], "c1": [10.0], "c2": [3.0], "c3": [6.0], "c4": [9.0]}
        mean = post_control_means(values, [pair("t1", "c1"), pair("t2", "c2", "c3", "c4")])
        assert mean == [pytest.approx((10.0 + (3.0 + 6.0 + 9.0) / 3.0) / 2.0)]

    def test_weights_sum_to_one_per_set_and_sets_total(self):
        # Column i is 1 on the controls of set i: with weights summing to one
        # in every set, each column's weighted control mean is 1 / n_sets.
        rng = np.random.default_rng(0)
        sizes = rng.integers(1, 6, size=12)
        sets = [pair(f"t{i:02d}", *(f"c{i:02d}_{j}" for j in range(size))) for i, size in enumerate(sizes)]
        values = {s[0]: [0.0] * len(sets) for s in sets}
        for i, s in enumerate(sets):
            values.update({c: [float(i == j) for j in range(len(sets))] for c in s[1:]})
        assert post_control_means(values, sets) == pytest.approx([1.0 / len(sets)] * len(sets))

    @pytest.mark.parametrize("seed", range(6))
    def test_post_match_columns_equal_a_per_set_reference(self, seed):
        rng = np.random.default_rng(seed)
        table, result = random_match(rng, n_sets=int(rng.integers(1, 40)))
        t_rows, c_rows, c_weights = reference_weighted_rows(table, result)
        for j, row in enumerate(balance_table(table, result)):
            values = table.covariates[:, j]
            denom = pooled_sd(values[table.z == 1], values[table.z == 0])
            post = standardized_difference(values[t_rows], values[c_rows], denom, c_weights)
            assert row.treated_mean_post == float(np.mean(values[t_rows]))
            assert row.control_mean_post == float(np.average(values[c_rows], weights=c_weights))
            assert row.sd_diff_post == post


class TestStandardizedDifference:
    def test_equal_means_give_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        assert standardized_difference(v, v, denom=2.0) == 0.0

    def test_unit_separation_with_unit_sds(self):
        half = 1.0 / math.sqrt(2.0)
        treated = np.array([1.0 - half, 1.0 + half])  # mean 1, sample sd 1
        control = np.array([0.0 - half, 0.0 + half])  # mean 0, sample sd 1
        denom = pooled_sd(treated, control)
        assert denom == pytest.approx(1.0)
        assert standardized_difference(treated, control, denom) == pytest.approx(1.0)

    def test_published_weight_row_convention(self):
        # pre-match means 160.08 vs 150.01 reported as +0.263: the treated
        # arm leads and the implied scale denominator is 10.07/0.263
        denom = (160.08 - 150.01) / 0.263
        d = standardized_difference(np.array([160.08]), np.array([150.01]), denom)
        assert round(d, 3) == 0.263

    def test_antisymmetric_under_arm_swap(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=8), rng.normal(1.0, 2.0, size=5)
        denom = pooled_sd(a, b)
        assert standardized_difference(a, b, denom) == pytest.approx(
            -standardized_difference(b, a, denom)
        )

    def test_weighted_control_mean_used(self):
        treated = np.array([2.0])
        control = np.array([0.0, 4.0])
        weights = np.array([3.0, 1.0])
        assert standardized_difference(treated, control, 1.0, weights) == pytest.approx(1.0)

    def test_zero_denominator(self):
        v = np.array([1.0, 1.0])
        assert standardized_difference(v, v, denom=0.0) == 0.0
        d = standardized_difference(np.array([2.0, 2.0]), v, denom=0.0)
        assert math.isinf(d) and d > 0


class TestBalanceTable:
    def test_null_simulation_pre_match_nearly_balanced(self):
        rng = np.random.default_rng(2)
        n = 5000
        z = rng.integers(0, 2, n)
        z[:4] = [1, 1, 0, 0]  # guard both arms
        covs = rng.normal(size=(n, 4))
        table = make_table(z, covs)
        t_ids = [table.ids[i] for i in np.flatnonzero(z == 1)[:50]]
        c_ids = [table.ids[i] for i in np.flatnonzero(z == 0)[:50]]
        result = manual_result(table, [pair(t, c) for t, c in zip(t_ids, c_ids)])
        rows = balance_table(table, result)
        assert all(abs(r.sd_diff_pre) < 0.1 for r in rows)

    def test_dropping_a_control_touches_only_weighted_columns(self):
        rng = np.random.default_rng(3)
        table = make_table(np.array([1, 1, 0, 0, 0]), rng.normal(size=(5, 3)))
        ids = table.ids
        full = manual_result(table, [pair(ids[0], ids[2]), pair(ids[1], ids[3], ids[4])])
        trimmed = manual_result(table, [pair(ids[0], ids[2]), pair(ids[1], ids[3])])
        for before, after in zip(balance_table(table, full), balance_table(table, trimmed)):
            assert before.sd_diff_pre == after.sd_diff_pre
            assert before.control_mean_pre == after.control_mean_pre
            assert before.treated_mean_post == after.treated_mean_post
            assert before.denom == after.denom

    def test_affine_transform_preserves_magnitude(self):
        rng = np.random.default_rng(4)
        covs = rng.normal(size=(12, 1))
        z = np.array([1] * 6 + [0] * 6)
        table = make_table(z, covs)
        ids = table.ids
        result = manual_result(table, [pair(ids[0], ids[6]), pair(ids[1], ids[7], ids[8])])
        rows = balance_table(table, result)
        scaled = make_table(z, covs * -2.5 + 7.0)
        rows_scaled = balance_table(scaled, result)
        assert abs(rows_scaled[0].sd_diff_pre) == pytest.approx(abs(rows[0].sd_diff_pre))
        assert abs(rows_scaled[0].sd_diff_post) == pytest.approx(abs(rows[0].sd_diff_post))

    def test_ordinal_levels_expand_to_percentage_rows(self):
        grades = np.array([7.0, 7.0, 8.0, 9.0, 8.0, 9.0])
        z = np.array([1, 1, 1, 0, 0, 0])
        table = make_table(z, grades, covariate_names=("grade",))
        ids = table.ids
        result = manual_result(table, [pair(ids[0], ids[3])])
        schema = CovariateSchema((Covariate("grade", ORDINAL, levels=(7.0, 8.0, 9.0)),))
        rows = balance_table(table, result, schema=schema)
        names = [r.name for r in rows]
        assert names == ["grade", "grade=7", "grade=8", "grade=9"]
        by_name = {r.name: r for r in rows}
        assert by_name["grade=7"].treated_mean_pre == pytest.approx(2.0 / 3.0)
        assert by_name["grade=8"].control_mean_pre == pytest.approx(1.0 / 3.0)

    def test_flag_threshold_is_strict(self):
        rng = np.random.default_rng(5)
        table = make_table(np.array([1, 1, 0, 0]), rng.normal(size=(4, 1)))
        ids = table.ids
        result = manual_result(table, [pair(ids[0], ids[2]), pair(ids[1], ids[3])])
        d = abs(balance_table(table, result)[0].sd_diff_post)
        at = balance_table(table, result, threshold=d)
        below = balance_table(table, result, threshold=d * (1.0 - 1e-12))
        assert not at[0].imbalanced
        assert below[0].imbalanced

    def test_counts_monotone_in_threshold(self):
        rng = np.random.default_rng(6)
        table = make_table(np.array([1] * 5 + [0] * 7), rng.normal(size=(12, 4)))
        result = build_match(table, rng.uniform(0.35, 0.65, 12))
        last = math.inf
        for threshold in (0.05, 0.1, 0.2, 0.5, 1.0):
            rows = balance_table(table, result, threshold=threshold)
            count = count_imbalanced(rows)
            assert count <= last
            last = count


class TestCountImbalanced:
    def test_all_balanced(self):
        rows = tuple(fake_row(0.0) for _ in range(4))
        assert count_imbalanced(rows) == 0

    def test_mixed_signs_counted_strictly(self):
        rows = (fake_row(0.19), fake_row(0.21), fake_row(-0.25))
        assert count_imbalanced(rows) == 2

    def test_exact_threshold_not_counted(self):
        assert count_imbalanced((fake_row(0.2), fake_row(-0.2))) == 0


class TestSelectMatch:
    def test_balance_first_then_fewest_dropped(self):
        choice = select_match([(0, 203), (1, 106), (0, 141)])
        assert choice.index == 2
        assert choice.meets_bar

    def test_identical_candidates_pick_first(self):
        choice = select_match([(0, 100), (0, 100), (0, 100)])
        assert choice.index == 0

    def test_single_candidate(self):
        choice = select_match([(1, 7)])
        assert choice.index == 0 and choice.meets_bar

    def test_no_candidate_meets_bar_flags_best_effort(self):
        choice = select_match([(3, 10), (2, 50)], max_imbalanced=1)
        assert choice.index == 1
        assert not choice.meets_bar

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            select_match([])
