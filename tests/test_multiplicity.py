import numpy as np
import pytest

from matchstudy.multiplicity import (
    EquivalenceResult,
    ProtocolError,
    benjamini_hochberg,
    equivalence_test,
    ordered_procedure,
    secondary_adjustment,
)


def shown_equivalence():
    return equivalence_test((-0.05, 0.08), margin=0.2)


class TestOrderedProcedure:
    def test_stage_one_failure_stops_everything(self):
        out = ordered_procedure(p1=0.2)
        assert out.stopped_at_stage == 1
        assert out.decisions[0].performed and out.decisions[0].reject is False
        for d in out.decisions[1:]:
            assert not d.performed
            assert d.note == "not reached"
        assert out.rejections == ()

    def test_full_run_reaches_equivalence_stage(self):
        out = ordered_procedure(p1=0.01, p2=0.03, p3=0.04, equivalence=shown_equivalence())
        assert out.stopped_at_stage is None
        assert all(d.performed for d in out.decisions)
        assert out.rejections == (1, 2, 3)
        assert out.decisions[3].note == "equivalent"

    def test_split_stage_two_reports_both_and_stops(self):
        out = ordered_procedure(p1=0.01, p2=0.03, p3=0.2)
        assert out.stopped_at_stage == 2
        assert out.decisions[1].reject is True
        assert out.decisions[2].reject is False
        assert not out.decisions[3].performed
        assert out.rejections == (1, 2)

    def test_boundary_p_equal_alpha_rejects(self):
        out = ordered_procedure(p1=0.05, p2=0.05, p3=0.05, equivalence=shown_equivalence())
        assert out.rejections == (1, 2, 3)

    def test_out_of_order_inputs_rejected(self):
        with pytest.raises(ProtocolError, match="stage 1"):
            ordered_procedure(p1=0.2, p2=0.01)
        with pytest.raises(ProtocolError, match="stage 2"):
            ordered_procedure(p1=0.01)
        with pytest.raises(ProtocolError, match="stage 2"):
            ordered_procedure(p1=0.01, p2=0.03)
        with pytest.raises(ProtocolError, match="equivalence"):
            ordered_procedure(p1=0.01, p2=0.03, p3=0.2, equivalence=shown_equivalence())
        with pytest.raises(ProtocolError, match="equivalence"):
            ordered_procedure(p1=0.01, p2=0.03, p3=0.04)

    def test_stage_gating_structure(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p1, p2, p3 = rng.uniform(size=3)
            if p1 > 0.05:
                out = ordered_procedure(p1=p1)
            elif p2 > 0.05 or p3 > 0.05:
                out = ordered_procedure(p1=p1, p2=p2, p3=p3)
            else:
                out = ordered_procedure(p1=p1, p2=p2, p3=p3, equivalence=shown_equivalence())
            performed = {d.comparison: d.performed for d in out.decisions}
            rejected = {d.comparison: d.reject for d in out.decisions}
            if performed[2] or performed[3]:
                assert rejected[1]
            if performed[4]:
                assert rejected[2] and rejected[3]
            # any rejection at all requires the first gate to open
            assert bool(out.rejections) == (p1 <= 0.05)

    def test_independent_null_fwer(self):
        # with independent uniform p-values a false rejection needs p1 <= alpha
        rng = np.random.default_rng(1)
        reps = 5000
        false_hits = 0
        for _ in range(reps):
            p1, p2, p3 = rng.uniform(size=3)
            if p1 > 0.05:
                out = ordered_procedure(p1=p1)
            elif p2 > 0.05 or p3 > 0.05:
                out = ordered_procedure(p1=p1, p2=p2, p3=p3)
            else:
                out = ordered_procedure(p1=p1, p2=p2, p3=p3, equivalence=shown_equivalence())
            false_hits += bool(out.rejections)
        sd = np.sqrt(0.05 * 0.95 / reps)
        assert false_hits / reps <= 0.05 + 3 * sd


def bh_reference(p):
    # textbook step-up: adjusted_(i) = min over j >= i of p_(j) * m / j
    m = len(p)
    order = sorted(range(m), key=lambda i: p[i])
    adjusted = [None] * m
    best = 1.0
    for rank in range(m, 0, -1):
        i = order[rank - 1]
        best = min(best, p[i] * m / rank)
        adjusted[i] = best
    return adjusted


class TestBenjaminiHochberg:
    def test_three_value_fixture(self):
        out = benjamini_hochberg(np.array([0.01, 0.02, 0.2]))
        np.testing.assert_allclose(out, [0.03, 0.03, 0.2], atol=1e-12)

    def test_all_ones(self):
        np.testing.assert_array_equal(benjamini_hochberg(np.ones(5)), np.ones(5))

    def test_single_value_unchanged(self):
        assert benjamini_hochberg(np.array([0.37]))[0] == 0.37

    def test_matches_step_up_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = rng.uniform(size=int(rng.integers(1, 12)))
            np.testing.assert_allclose(benjamini_hochberg(p), bh_reference(p.tolist()), atol=1e-12)

    def test_adjusted_dominate_raw_and_cap_at_one(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = rng.uniform(size=8)
            adj = benjamini_hochberg(p)
            assert np.all(adj >= p - 1e-15)
            assert np.all(adj <= 1.0)

    def test_order_preserving(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            p = rng.uniform(size=10)
            adj = benjamini_hochberg(p)
            idx = np.argsort(p)
            assert np.all(np.diff(adj[idx]) >= -1e-15)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(size=9)
        p[3] = p[7]  # tie
        perm = rng.permutation(9)
        np.testing.assert_allclose(benjamini_hochberg(p[perm]), benjamini_hochberg(p)[perm], atol=1e-15)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            benjamini_hochberg(np.array([]))
        with pytest.raises(ValueError):
            benjamini_hochberg(np.array([[0.1, 0.2]]))
        with pytest.raises(ValueError):
            benjamini_hochberg(np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            benjamini_hochberg(np.array([-0.1]))


class TestEquivalence:
    def test_hull_inside_margin(self):
        out = shown_equivalence()
        assert out.equivalent and out.shown
        assert not out.empty_region
        assert out.hull == (-0.05, 0.08) and out.margin == 0.2

    def test_hull_outside_margin(self):
        out = equivalence_test((-0.3, 0.1), margin=0.2)
        assert not out.equivalent and not out.shown

    def test_zero_margin_never_equivalent(self):
        out = equivalence_test((0.0, 0.0), margin=0.0)
        assert not out.equivalent

    def test_boundary_is_open(self):
        out = equivalence_test((-0.1, 0.2), margin=0.2)
        assert not out.equivalent

    def test_empty_region_flagged(self):
        out = equivalence_test(None, margin=0.2)
        assert out.empty_region
        assert not out.equivalent and not out.shown
        assert isinstance(out, EquivalenceResult)

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError, match="margin"):
            equivalence_test((0.0, 0.0), margin=-0.1)


class TestSecondaryAdjustment:
    def test_nothing_small_leaves_raw_only(self):
        adj, applied = secondary_adjustment(np.array([0.3, 0.6, 0.051]))
        assert adj is None and not applied

    def test_threshold_is_strict(self):
        adj, applied = secondary_adjustment(np.array([0.05, 0.5]))
        assert adj is None and not applied

    def test_small_p_triggers_adjustment(self):
        p = np.array([0.01, 0.2, 0.6])
        adj, applied = secondary_adjustment(p)
        assert applied
        np.testing.assert_allclose(adj, benjamini_hochberg(p))
