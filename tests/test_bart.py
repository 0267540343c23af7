import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import chi2

from matchstudy.bart import (
    BartParams,
    BartRegressionFit,
    TreeSnapshot,
    bart_predict,
    bart_predict_proba,
    fit_bart_binary,
    fit_bart_regression,
    forest_from_json,
    forest_to_json,
)


def leaf(value):
    return TreeSnapshot(
        feature=np.array([-1]),
        threshold=np.array([0.0]),
        left=np.array([-1]),
        right=np.array([-1]),
        value=np.array([float(value)]),
    )


def split(feature, threshold, left_value, right_value):
    return TreeSnapshot(
        feature=np.array([feature, -1, -1]),
        threshold=np.array([threshold, 0.0, 0.0]),
        left=np.array([1, -1, -1]),
        right=np.array([2, -1, -1]),
        value=np.array([0.0, float(left_value), float(right_value)]),
    )


def manual_fit(forests, num_features, y_min=-1.0, y_scale=2.0):
    draws = len(forests)
    return BartRegressionFit(
        forests=forests,
        sigma_draws=np.zeros(draws),
        in_sample=np.zeros((draws, 1)),
        y_min=y_min,
        y_scale=y_scale,
        num_features=num_features,
        params=BartParams(draws=draws),
        seed=0,
    )


class TestParams:
    def test_proposal_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            BartParams(p_grow=0.5, p_prune=0.5, p_change=0.5)

    def test_split_base_must_be_inside_unit_interval(self):
        with pytest.raises(ValueError):
            BartParams(split_prob_base=1.0)

    def test_tree_count_positive(self):
        with pytest.raises(ValueError):
            BartParams(num_trees=0)


class TestRegression:
    def test_constant_response_reproduced_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 2))
        fit = fit_bart_regression(x, np.full(20, 3.25), seed=0)
        assert fit.constant_response
        probe = rng.normal(size=(7, 2))
        np.testing.assert_allclose(bart_predict(fit, probe), 3.25, atol=1e-6)
        np.testing.assert_allclose(fit.in_sample, 3.25, atol=1e-6)

    def test_step_function_beats_best_linear_fit(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(500, 2))
        f = 2.0 * (x[:, 0] > 0.0)
        y = f + 0.3 * rng.normal(size=500)
        fit = fit_bart_regression(x, y, seed=0)

        design = np.column_stack([np.ones(500), x])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        rmse_linear = float(np.sqrt(np.mean((design @ coef - f) ** 2)))
        rmse_bart = float(np.sqrt(np.mean((fit.in_sample.mean(axis=0) - f) ** 2)))
        assert rmse_bart < rmse_linear

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 2))
        y = x[:, 0] + rng.normal(size=80)
        params = BartParams(burn_in=50, draws=150)
        a = fit_bart_regression(x, y, params=params, seed=7)
        b = fit_bart_regression(x, y, params=params, seed=7)
        np.testing.assert_array_equal(a.in_sample, b.in_sample)
        np.testing.assert_array_equal(a.sigma_draws, b.sigma_draws)
        assert forest_to_json(a) == forest_to_json(b)

    def test_backfitting_identity_holds_throughout(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 2))
        y = np.sin(x[:, 0]) + 0.2 * rng.normal(size=60)
        fit_bart_regression(x, y, params=BartParams(burn_in=30, draws=60), seed=0, validate=True)
        z = (x[:, 1] > 0).astype(int)
        fit_bart_binary(x, z, params=BartParams(burn_in=30, draws=60), seed=0, validate=True)

    def test_standardization_round_trip_via_per_draw_recompute(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 2))
        y = 13.0 - 7.0 * x[:, 0] + rng.normal(size=50)  # far from unit scale
        fit = fit_bart_regression(x, y, params=BartParams(burn_in=40, draws=80), seed=0)
        recomputed = bart_predict(fit, x, per_draw=True)
        np.testing.assert_allclose(recomputed, fit.in_sample, atol=1e-10)

    def test_fixed_stump_matches_conjugate_posterior_quadrature(self):
        # p_change=1 never alters a rootless tree, so the chain is exactly a
        # Gibbs sampler on (leaf mean, sigma^2) with known conjugate updates
        rng = np.random.default_rng(5)
        y = rng.normal(5.0, 2.0, size=40)
        x = rng.normal(size=(40, 1))
        params = BartParams(num_trees=1, p_grow=0.0, p_prune=0.0, p_change=1.0, burn_in=500, draws=4000)
        fit = fit_bart_regression(x, y, params=params, seed=0)
        mu_draws = (fit.in_sample[:, 0] - fit.y_min) / fit.y_scale - 0.5

        y_std = (y - y.min()) / (y.max() - y.min()) - 0.5
        leaf_var = (0.5 / (params.leaf_prior_k * 1.0)) ** 2
        sd_hat = float(np.std(y_std, ddof=1))
        nu = params.sigma_prior_df
        lam = sd_hat**2 * float(chi2.ppf(1.0 - params.sigma_prior_quantile, nu)) / nu

        n = len(y)
        ybar = y_std.mean()
        ss = float(np.sum((y_std - ybar) ** 2))
        mu = np.linspace(-0.6, 0.6, 481)
        s2 = np.geomspace(sd_hat**2 / 8.0, sd_hat**2 * 6.0, 400)
        mm, vv = np.meshgrid(mu, s2, indexing="ij")
        loglik = -0.5 * n * np.log(vv) - (ss + n * (ybar - mm) ** 2) / (2.0 * vv)
        logprior = -0.5 * mm**2 / leaf_var + (-0.5 * nu - 1.0) * np.log(vv) - 0.5 * nu * lam / vv
        w = np.exp(loglik + logprior - (loglik + logprior).max()) * vv  # d(s2) on a log grid
        w /= w.sum()
        mean_mu = float((w.sum(axis=1) * mu).sum())
        sd_mu = float(np.sqrt((w.sum(axis=1) * (mu - mean_mu) ** 2).sum()))

        assert abs(mu_draws.mean() - mean_mu) < 0.2 * sd_mu
        assert abs(mu_draws.std() - sd_mu) < 0.2 * sd_mu


class TestBinary:
    def test_null_simulation_stays_near_class_rate(self):
        rng = np.random.default_rng(200)
        x = rng.integers(0, 2, size=(1200, 2)).astype(float)
        z = (rng.random(1200) < 0.45).astype(int)
        fit = fit_bart_binary(x, z, seed=0)
        probs = fit.in_sample_probs.mean(axis=0)
        assert np.max(np.abs(probs - z.mean())) < 0.1

    def test_learnable_split_classified_accurately(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(500, 2))
        z = (x[:, 0] > np.median(x[:, 0])).astype(int)
        fit = fit_bart_binary(x, z, seed=0)
        probs = fit.in_sample_probs.mean(axis=0)
        accuracy = np.mean((probs > 0.5) == z)
        assert accuracy > 0.85

    def test_single_grow_draw_is_two_level_step(self):
        # one tree, one retained draw, seed picked so that first move is an
        # accepted grow: the snapshot must be a stump and the fit a 2-level step
        rng = np.random.default_rng(7)
        x = rng.normal(size=(200, 1))
        z = (x[:, 0] > 0).astype(int)
        params = BartParams(num_trees=1, draws=1, burn_in=0)
        fit = fit_bart_binary(x, z, params=params, seed=0)
        probs = fit.in_sample_probs[0]
        values = np.unique(probs)
        assert len(values) == 2
        tree = fit.forests[0][0]
        side = x[:, 0] <= tree.threshold[0]
        assert len(np.unique(probs[side])) == 1
        assert len(np.unique(probs[~side])) == 1


class TestPredict:
    def test_all_zero_leaves_predict_zero(self):
        # training midpoint at 0: y_min = -y_scale/2, so zero totals map to 0
        forests = [[leaf(0.0), leaf(0.0)] for _ in range(3)]
        fit = manual_fit(forests, num_features=2)
        np.testing.assert_array_equal(bart_predict(fit, np.ones((4, 2))), np.zeros(4))

    def test_two_tree_forest_hand_walked(self):
        tree_a = split(feature=0, threshold=0.5, left_value=1.0, right_value=2.0)
        tree_b = split(feature=1, threshold=0.0, left_value=-0.5, right_value=0.25)
        fit = manual_fit([[tree_a, tree_b]], num_features=2)
        x = np.array([[0.3, 0.7], [0.9, -0.2]])
        # row 1: 1.0 + 0.25 = 1.25 -> (1.25 + 0.5) * 2 - 1 = 2.5
        # row 2: 2.0 - 0.5 = 1.5 -> (1.5 + 0.5) * 2 - 1 = 3.0
        np.testing.assert_allclose(bart_predict(fit, x), [2.5, 3.0], atol=1e-12)

    def test_training_rows_match_cached_in_sample_mean(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(70, 2))
        y = x[:, 0] ** 2 + rng.normal(size=70)
        fit = fit_bart_regression(x, y, params=BartParams(burn_in=40, draws=100), seed=0)
        np.testing.assert_allclose(bart_predict(fit, x), fit.in_sample.mean(axis=0), atol=1e-10)

    def test_tree_order_within_draw_is_irrelevant(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(60, 2))
        y = x[:, 1] + rng.normal(size=60)
        fit = fit_bart_regression(x, y, params=BartParams(burn_in=30, draws=50), seed=0)
        reversed_fit = manual_fit(
            [list(reversed(forest)) for forest in fit.forests],
            num_features=2,
            y_min=fit.y_min,
            y_scale=fit.y_scale,
        )
        probe = rng.normal(size=(12, 2))
        np.testing.assert_allclose(
            bart_predict(reversed_fit, probe), bart_predict(fit, probe), atol=1e-12
        )

    def test_dimension_mismatch_rejected(self):
        fit = manual_fit([[leaf(0.0)]], num_features=2)
        with pytest.raises(ValueError):
            bart_predict(fit, np.ones((3, 5)))


class TestSerialization:
    def test_regression_round_trip_exact(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(50, 2))
        y = x[:, 0] + rng.normal(size=50)
        fit = fit_bart_regression(x, y, params=BartParams(burn_in=20, draws=40), seed=0)
        text = forest_to_json(fit)
        back = forest_from_json(text)
        assert forest_to_json(back) == text
        probe = rng.normal(size=(9, 2))
        np.testing.assert_array_equal(bart_predict(back, probe), bart_predict(fit, probe))
        np.testing.assert_array_equal(back.in_sample, fit.in_sample)

    def test_binary_round_trip_exact(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(50, 2))
        z = (x[:, 0] > 0).astype(int)
        fit = fit_bart_binary(x, z, params=BartParams(burn_in=20, draws=40), seed=0)
        back = forest_from_json(forest_to_json(fit))
        probe = rng.normal(size=(9, 2))
        np.testing.assert_array_equal(
            bart_predict_proba(back, probe), bart_predict_proba(fit, probe)
        )
        np.testing.assert_array_equal(back.in_sample_probs, fit.in_sample_probs)


def small_pinned_data():
    rng = np.random.default_rng(12)
    x = np.round(rng.normal(size=(60, 3)), 2)
    z = (x[:, 0] + 0.5 * x[:, 1] + 0.5 * rng.normal(size=60) > 0).astype(int)
    y = np.sin(2.0 * x[:, 0]) + x[:, 2] + 0.3 * rng.normal(size=60)
    return x, z, y


PINNED_PARAMS = BartParams(num_trees=5, burn_in=20, draws=20)

# Final forests (feature, threshold, left, right) of seed-3 fits on
# small_pinned_data. Thresholds are data values, so they compare exactly; a
# leaf keeps the threshold its node held when it was last split. Any change to
# the RNG call sequence or to a move decision changes these.
PINNED_BINARY = [
    ([0, -1, -1], [-0.35, 0.0, 0.0], [1, -1, -1], [2, -1, -1]),
    ([1, -1, -1], [-0.5, 0.06, 1.23], [1, -1, -1], [2, -1, -1]),
    ([2, -1, -1], [-1.43, 0.0, -2.38], [1, -1, -1], [2, -1, -1]),
    ([0, -1, -1], [0.99, 0.06, 0.0], [1, -1, -1], [2, -1, -1]),
    ([0, 2, -1, -1, -1], [-0.61, -0.87, 0.0, 0.0, 0.0], [1, 2, -1, -1, -1], [4, 3, -1, -1, -1]),
]
PINNED_REGRESSION = [
    ([2, -1, -1], [-0.11, -0.68, 0.0], [1, -1, -1], [2, -1, -1]),
    (
        [0, 0, -1, -1, 2, -1, -1],
        [0.18, -1.88, 0.0, 0.0, -1.43, 0.0, 0.0],
        [1, 2, -1, -1, 5, -1, -1],
        [4, 3, -1, -1, 6, -1, -1],
    ),
    ([2, -1, -1], [0.51, -1.75, -0.02], [1, -1, -1], [2, -1, -1]),
    ([0, 0, -1, -1, -1], [0.23, -1.47, 0.66, 0.0, -1.16], [1, 2, -1, -1, -1], [4, 3, -1, -1, -1]),
    ([0, -1, -1], [1.64, 1.23, 0.0], [1, -1, -1], [2, -1, -1]),
]


def forest_shapes(forest):
    return [
        (t.feature.tolist(), t.threshold.tolist(), t.left.tolist(), t.right.tolist()) for t in forest
    ]


class TestSamplerBookkeeping:
    def test_binary_final_forest_pinned(self):
        x, z, _ = small_pinned_data()
        fit = fit_bart_binary(x, z, params=PINNED_PARAMS, seed=3)
        assert forest_shapes(fit.forests[-1]) == PINNED_BINARY

    def test_regression_final_forest_pinned(self):
        x, _, y = small_pinned_data()
        fit = fit_bart_regression(x, y, params=PINNED_PARAMS, seed=3)
        assert forest_shapes(fit.forests[-1]) == PINNED_REGRESSION

    def test_every_snapshot_reproduces_its_draw(self):
        # a snapshot that reused a shape cached before an accepted move would
        # route rows to the wrong leaves
        x, z, _ = small_pinned_data()
        fit = fit_bart_binary(x, z, params=BartParams(num_trees=8, burn_in=10, draws=60), seed=4)
        np.testing.assert_allclose(bart_predict_proba(fit, x), fit.in_sample_probs, rtol=0, atol=1e-10)

    def test_snapshot_arrays_are_read_only(self):
        x, _, y = small_pinned_data()
        fit = fit_bart_regression(x, y, params=PINNED_PARAMS, seed=3)
        for forest in fit.forests:
            for tree in forest:
                for name in ("feature", "threshold", "left", "right", "value"):
                    assert not getattr(tree, name).flags.writeable, name
