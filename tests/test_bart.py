import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincinv, ndtr
from scipy.stats import chi2

from matchstudy import bart
from matchstudy.bart import BartParams, fit_bart_binary, fit_bart_regression
from matchstudy.inference import covariance_adjust


@pytest.fixture
def samplers(monkeypatch):
    """The samplers a fit creates, in order, so a test can read the final trees."""
    made = []

    class Recording(bart._Sampler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(bart, "_Sampler", Recording)
    return made


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

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p_grow=1.2, p_prune=-0.2, p_change=0.0),
            dict(p_grow=0.6, p_prune=0.6, p_change=-0.2),
            dict(split_prob_power=-1.0),
            dict(leaf_prior_k=0.0),
            dict(leaf_prior_k=-2.0),
            dict(leaf_prior_k=float("nan")),
            dict(sigma_prior_df=0.0),
            dict(sigma_prior_quantile=0.0),
            dict(sigma_prior_quantile=1.0),
            dict(sigma_prior_quantile=1.5),
            dict(draws=10.5),
            dict(burn_in=5.0),
            dict(num_trees=2.0),
        ],
    )
    def test_invalid_values_rejected_up_front(self, kwargs):
        # unchecked, each would fail mid-sampling (math domain error,
        # ZeroDivisionError, TypeError inside numpy) or run silently
        with pytest.raises(ValueError):
            BartParams(**kwargs)


class TestSigmaPriorQuantile:
    """The sigma prior takes its chi-square quantile as 2 * gammaincinv(nu/2, q)
    from scipy.special; scipy.stats.chi2.ppf is only the oracle."""

    @staticmethod
    def bits(q, nu):
        return (2.0 * gammaincinv(np.divide(nu, 2.0), q)).tobytes(), np.asarray(chi2.ppf(q, nu), dtype=float).tobytes()

    def test_equals_chi2_ppf_at_the_defaults(self):
        params = BartParams()
        q, nu = 1.0 - params.sigma_prior_quantile, params.sigma_prior_df
        ours, oracle = self.bits(q, nu)
        assert ours == oracle

    def test_equals_chi2_ppf_on_a_grid(self):
        rng = np.random.default_rng(0)
        qq, nn = np.meshgrid(
            np.concatenate([np.linspace(0.001, 0.999, 97), [1e-12, 1e-6, 0.5, 1 - 1e-9]]),
            np.concatenate([[0.05, 0.5, 1.0, 2.0, 3.0, 3.5, 5.0, 10.0, 30.0, 100.0, 1000.0], rng.uniform(0.01, 60.0, 20)]),
        )
        q = np.concatenate([qq.ravel(), rng.random(3000)])
        nu = np.concatenate([nn.ravel(), rng.uniform(0.01, 50.0, 3000)])
        ours, oracle = self.bits(q, nu)
        assert ours == oracle


class TestRegression:
    def test_constant_response_reproduced_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 2))
        mean = fit_bart_regression(x, np.full(20, 3.25), seed=0)
        np.testing.assert_allclose(mean, 3.25, atol=1e-6)

    def test_step_function_beats_best_linear_fit(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(500, 2))
        f = 2.0 * (x[:, 0] > 0.0)
        y = f + 0.3 * rng.normal(size=500)
        mean = fit_bart_regression(x, y, seed=0)

        design = np.column_stack([np.ones(500), x])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        rmse_linear = float(np.sqrt(np.mean((design @ coef - f) ** 2)))
        rmse_bart = float(np.sqrt(np.mean((mean - f) ** 2)))
        assert rmse_bart < rmse_linear

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 2))
        y = x[:, 0] + rng.normal(size=80)
        params = BartParams(burn_in=50, draws=150)
        a = list(bart._regression_draws(x, y, params, 7, False))
        b = list(bart._regression_draws(x, y, params, 7, False))
        np.testing.assert_array_equal(np.array([f for f, _ in a]), np.array([f for f, _ in b]))
        assert [s for _, s in a] == [s for _, s in b]

    def test_backfitting_identity_holds_throughout(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 2))
        y = np.sin(x[:, 0]) + 0.2 * rng.normal(size=60)
        fit_bart_regression(x, y, params=BartParams(burn_in=30, draws=60), seed=0, validate=True)
        z = (x[:, 1] > 0).astype(int)
        fit_bart_binary(x, z, params=BartParams(burn_in=30, draws=60), seed=0, validate=True)

    def test_standardization_round_trip_via_per_draw_recompute(self, samplers):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 2))
        y = 13.0 - 7.0 * x[:, 0] + rng.normal(size=50)  # far from unit scale
        *_, (last, _) = bart._regression_draws(x, y, BartParams(burn_in=40, draws=80), 0, False)
        # the last draw, rebuilt from the final trees' leaf values
        totals = sum(tree.value[tree.leaf_of] for tree in samplers[-1].trees)
        y_scale = y.max() - y.min()
        np.testing.assert_allclose((totals + 0.5) * y_scale + y.min(), last, atol=1e-10)

    def test_fixed_stump_matches_conjugate_posterior_quadrature(self):
        # p_change=1 never alters a rootless tree, so the chain is exactly a
        # Gibbs sampler on (leaf mean, sigma^2) with known conjugate updates
        rng = np.random.default_rng(5)
        y = rng.normal(5.0, 2.0, size=40)
        x = rng.normal(size=(40, 1))
        params = BartParams(num_trees=1, p_grow=0.0, p_prune=0.0, p_change=1.0, burn_in=500, draws=4000)
        fitted = np.array([f[0] for f, _ in bart._regression_draws(x, y, params, 0, False)])
        mu_draws = (fitted - y.min()) / (y.max() - y.min()) - 0.5

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
        probs = fit_bart_binary(x, z, seed=0)
        assert np.max(np.abs(probs - z.mean())) < 0.1

    def test_learnable_split_classified_accurately(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(500, 2))
        z = (x[:, 0] > np.median(x[:, 0])).astype(int)
        probs = fit_bart_binary(x, z, seed=0)
        accuracy = np.mean((probs > 0.5) == z)
        assert accuracy > 0.85

    def test_single_grow_draw_is_two_level_step(self, samplers):
        # one tree, one retained draw, seed picked so that first move is an
        # accepted grow: the tree must be a stump and the fit a 2-level step
        rng = np.random.default_rng(7)
        x = rng.normal(size=(200, 1))
        z = (x[:, 0] > 0).astype(int)
        params = BartParams(num_trees=1, draws=1, burn_in=0)
        (probs,) = bart._binary_draws(x, z, params, 0, False)
        values = np.unique(probs)
        assert len(values) == 2
        tree = samplers[-1].trees[0]
        assert tree.leaves() == [1, 2]
        side = x[:, 0] <= tree.threshold[0]
        assert len(np.unique(probs[side])) == 1
        assert len(np.unique(probs[~side])) == 1


class TestMemory:
    @pytest.mark.parametrize("binary", [True, False])
    def test_fit_keeps_no_draws_array(self, binary):
        # 400 draws of 2000 rows would take 6.4 MB as one float64 array; a fit
        # that streams them into one sum peaks far below half of that
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2000, 3))
        y = (x[:, 0] > 0).astype(int) if binary else x[:, 0] + rng.normal(size=2000)
        fit = fit_bart_binary if binary else fit_bart_regression
        params = BartParams(num_trees=5, burn_in=10, draws=400)
        tracemalloc.start()
        try:
            mean = fit(x, y, params=params, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.2e6
        assert mean.shape == (2000,)


def small_pinned_data():
    rng = np.random.default_rng(12)
    x = np.round(rng.normal(size=(60, 3)), 2)
    z = (x[:, 0] + 0.5 * x[:, 1] + 0.5 * rng.normal(size=60) > 0).astype(int)
    y = np.sin(2.0 * x[:, 0]) + x[:, 2] + 0.3 * rng.normal(size=60)
    return x, z, y


PINNED_PARAMS = BartParams(num_trees=5, burn_in=20, draws=20)

# sha256 of the seed-3 fits' draws on small_pinned_data (float64 bytes), as
# (draws, n) arrays of the generators' rows.
PINNED_DIGESTS = {
    "binary in_sample_probs": "7ac404141206c37d24e665ae4aad905df5c2aba942506e2ba21939908e028ce6",
    "regression in_sample": "bfe1296aeb9f0c92d7fcb48516a4540fa91912fccd35e392fd913c346a7f6f29",
    "regression sigma_draws": "13a83cbaadc1766ea708140693a8a6a7b42095aecb2fb4cb4ff9069a0ed59005",
}

# sha256 of the posterior means the seed-3 fits return on small_pinned_data,
# and of the residuals of the bart adjustment on small_adjustment_data.
PINNED_MEAN_DIGESTS = {
    "binary": "9ba4f99121841675c17535ff9abb0603cce65de0bc0acee69facc74d024ef458",
    "regression": "eee4288e6f5bea1d2364eba089172f001fe90046ac607815956339a07c98cc14",
    "bart adjustment": "80e7110e6a8fafe93a6ca7db86ddb131d5c41018607434361ec20dc596155f2a",
}


def small_adjustment_data():
    rng = np.random.default_rng(21)
    aligned_x = np.round(rng.normal(size=(24, 2)), 2)
    aligned_r = aligned_x[:, 0] - 0.5 * aligned_x[:, 1] ** 2 + 0.3 * rng.normal(size=24)
    return aligned_r, aligned_x

# Final node arrays (feature, threshold, left, right) of the samplers of
# those fits, freed slots included. Thresholds are data values, so they
# compare exactly. Node ids set the order in which leaves take their normal
# draws, so the allocation policy is pinned along with the tree shapes; any
# change to the RNG call sequence or to a move decision changes these.
PINNED_BINARY = [
    ([0, -1, -1], [-0.35, 0.0, 0.0], [1, -1, -1], [2, -1, -1]),
    (
        [1, -1, -1, -1, -1, -1, -1],
        [-0.5, 0.06, 1.23, 1.05, 0.45, 0.0, 0.0],
        [1, 3, 6, 6, 5, -1, -1],
        [2, 4, 5, 5, 6, -1, -1],
    ),
    ([2, -1, -1, -1, -1], [-1.43, -2.38, 0.0, 0.0, 0.0], [2, 4, -1, -1, -1], [1, 3, -1, -1, -1]),
    ([0, -1, -1, -1, -1], [0.99, 0.06, 0.0, 0.0, 0.0], [1, 4, -1, -1, -1], [2, 3, -1, -1, -1]),
    ([0, 2, -1, -1, -1], [-0.61, -0.87, 0.0, 0.0, 0.0], [1, 4, -1, -1, -1], [2, 3, -1, -1, -1]),
]
PINNED_REGRESSION = [
    ([2, -1, -1, -1, -1], [-0.11, 0.0, -0.68, 0.0, 0.0], [2, -1, 4, -1, -1], [1, -1, 3, -1, -1]),
    (
        [0, 2, 0, -1, -1, -1, -1],
        [0.18, -1.43, -1.88, 0.0, 0.0, 0.0, 0.0],
        [2, 4, 5, -1, -1, -1, -1],
        [1, 3, 6, -1, -1, -1, -1],
    ),
    (
        [2, -1, -1, -1, -1, -1, -1],
        [0.51, -1.75, -0.02, 0.19, 0.0, 0.0, 0.0],
        [1, 3, 3, -1, -1, -1, -1],
        [2, 4, 4, -1, -1, -1, -1],
    ),
    (
        [0, 0, -1, -1, -1, -1, -1],
        [0.23, -1.47, -1.16, 0.0, 0.66, 0.0, 0.0],
        [1, 4, 3, -1, 5, -1, -1],
        [2, 3, 4, -1, 6, -1, -1],
    ),
    ([0, -1, -1, -1, -1], [1.64, 1.23, 0.0, 0.0, 0.0], [1, 4, -1, -1, -1], [2, 3, -1, -1, -1]),
]


def node_arrays(sampler):
    return [(t.feature, t.threshold, t.left, t.right) for t in sampler.trees]


def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


#: Proposal mixes (grow, prune, change) for the bookkeeping checks.
MIXES = [(0.4, 0.4, 0.2), (0.5, 0.5, 0.0), (0.25, 0.25, 0.5), (0.7, 0.3, 0.0), (0.0, 0.5, 0.5)]


class TestSamplerBookkeeping:
    def test_draws_pinned(self):
        x, z, y = small_pinned_data()
        binary = list(bart._binary_draws(x, z, PINNED_PARAMS, 3, False))
        regression = list(bart._regression_draws(x, y, PINNED_PARAMS, 3, False))
        assert {
            "binary in_sample_probs": digest(np.array(binary)),
            "regression in_sample": digest(np.array([f for f, _ in regression])),
            "regression sigma_draws": digest(np.array([s for _, s in regression])),
        } == PINNED_DIGESTS

    def test_posterior_means_pinned(self):
        x, z, y = small_pinned_data()
        aligned_r, aligned_x = small_adjustment_data()
        resid, _ = covariance_adjust(aligned_r, aligned_x, "bart", seed=5)
        assert {
            "binary": digest(fit_bart_binary(x, z, params=PINNED_PARAMS, seed=3)),
            "regression": digest(fit_bart_regression(x, y, params=PINNED_PARAMS, seed=3)),
            "bart adjustment": digest(resid),
        } == PINNED_MEAN_DIGESTS

    def test_binary_final_forest_pinned(self, samplers):
        x, z, _ = small_pinned_data()
        fit_bart_binary(x, z, params=PINNED_PARAMS, seed=3)
        assert node_arrays(samplers[-1]) == PINNED_BINARY

    def test_regression_final_forest_pinned(self, samplers):
        x, _, y = small_pinned_data()
        fit_bart_regression(x, y, params=PINNED_PARAMS, seed=3)
        assert node_arrays(samplers[-1]) == PINNED_REGRESSION

    def test_every_snapshot_reproduces_its_draw(self, monkeypatch):
        # the trees' state at each retained draw, read through the row lists
        # (not leaf_of), must give that draw; a row list left stale by an
        # accepted move would put rows under the wrong leaf
        totals = []
        step = bart._Sampler.backfit_iteration

        def recording(self, *args, **kwargs):
            step(self, *args, **kwargs)
            total = np.zeros(self.n)
            for tree in self.trees:
                for leaf, rows in tree.rows.items():
                    total[rows] += tree.value[leaf]
            totals.append(total)

        monkeypatch.setattr(bart._Sampler, "backfit_iteration", recording)
        x, z, _ = small_pinned_data()
        params = BartParams(num_trees=8, burn_in=10, draws=60)
        probs = np.array(list(bart._binary_draws(x, z, params, 4, False)))
        rebuilt = ndtr(np.array(totals[params.burn_in :]))
        np.testing.assert_allclose(rebuilt, probs, rtol=0, atol=1e-10)

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(4, 40),
        p=st.integers(1, 4),
        num_trees=st.integers(1, 6),
        mix=st.sampled_from(MIXES),
        binary=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_validated_fits_keep_row_lists_consistent(self, seed, n, p, num_trees, mix, binary):
        # rounded covariates give tied values and columns without cuts
        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(size=(n, p)), 1)
        y = (x[:, 0] > 0).astype(int) if binary else x[:, 0] + rng.normal(size=n)
        draws = bart._binary_draws if binary else bart._regression_draws
        params = BartParams(
            num_trees=num_trees, burn_in=3, draws=5, p_grow=mix[0], p_prune=mix[1], p_change=mix[2]
        )
        checked = list(draws(x, y, params, seed, True))
        plain = list(draws(x, y, params, seed, False))
        # the checks draw no random numbers
        if not binary:
            checked, plain = [f for f, _ in checked], [f for f, _ in plain]
        np.testing.assert_array_equal(np.array(checked), np.array(plain))

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            ("unsorted", "not strictly ascending"),
            ("row_dropped", "do not partition"),
            ("leaf_of", "disagree with leaf_of"),
            ("internal_key", "differ from the tree's leaves"),
        ],
    )
    def test_check_tree_catches_corrupt_row_lists(self, corrupt, message):
        x = np.arange(6.0)[:, None]
        sampler = bart._Sampler(x, BartParams(num_trees=1), leaf_sd=0.1, seed=0)
        tree = sampler.trees[0]
        tree.split(0, 0, 2.0, sampler.columns[0] <= 2.0)
        sampler._check_tree(tree)
        if corrupt == "unsorted":
            tree.rows[1] = tree.rows[1][::-1]
        elif corrupt == "row_dropped":
            tree.rows[1] = tree.rows[1][1:]
        elif corrupt == "leaf_of":
            tree.leaf_of[0] = 2
        else:
            tree.rows[0] = np.array([], dtype=np.int64)
        with pytest.raises(AssertionError, match=message):
            sampler._check_tree(tree)
