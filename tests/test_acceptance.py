"""End-to-end acceptance checks.

Each test pins one externally verifiable property of the toolkit:
optimality against exhaustive enumeration, agreement with closed forms
and independent oracles, operating characteristics (size, coverage,
family-wise error) under seeded simulation, and byte-level stability of
the report files. Simulation seeds are frozen; every run is
deterministic.
"""
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import norm

from matchstudy.balance import balance_table, count_imbalanced, select_match
from matchstudy.bart import fit_bart_regression
from matchstudy.cli import main
from matchstudy.config import SensitivityParams
from matchstudy.inference import (
    SetLayout,
    conditional_logistic,
    invert_tests,
    mantel_haenszel,
    matched_arrays,
    permutational_t_test,
)
from matchstudy.matching import (
    build_match,
    match_bucket,
    propensity_interval,
)
from matchstudy.multiplicity import (
    EquivalenceResult,
    benjamini_hochberg,
    ordered_procedure,
)
from matchstudy.oracles import (
    brute_force_bucket_cost,
    brute_force_tail_probabilities,
    match_total_cost,
    sensitivity_grid_max_p,
    sensitivity_instance,
)
from matchstudy.propensity import fit_bayes, fit_l1, fit_mle
from matchstudy.sensitivity import (
    sensitivity_mh,
    sensitivity_residual,
)

from test_cli import reduced_config_dict
from test_propensity import irls_reference, logistic_data
from util import index_sets, lay_out, make_table, match_of, random_matched_instance


# ---------------------------------------------------------------------------
# 1. variable-ratio matching is optimal against exhaustive enumeration
# ---------------------------------------------------------------------------


def test_bucket_matching_is_optimal():
    rng = np.random.default_rng(42)
    start = time.monotonic()
    for _ in range(200):
        n_t = int(rng.integers(1, 5))
        n_c = int(rng.integers(1, 9 - n_t))  # n_t + n_c <= 8
        k = int(rng.integers(1, 4))
        dist = rng.integers(0, 1000, size=(n_t, n_c)) / 1000
        t_ids = tuple(f"t{j}" for j in range(n_t))
        c_ids = tuple(f"c{j}" for j in range(n_c))
        sets, _ = match_bucket(dist, t_ids, c_ids, k)
        cost = match_total_cost(dist, t_ids, c_ids, sets)
        oracle = brute_force_bucket_cost(dist, k)
        assert round(cost * 1000) == round(oracle * 1000)
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 2. interval bucketing agrees with the closed-form definition
# ---------------------------------------------------------------------------


def interval_reference(u):
    # direct membership in the defining intervals: bucket 1 is (1/3, 1],
    # bucket k is (1/(k+2), 1/(k+1)] for k = 2..14, bucket 15 is [0, 1/16]
    if u <= 1 / 16:
        return 15
    if u > 1 / 3:
        return 1
    for k in range(2, 15):
        if 1 / (k + 2) < u <= 1 / (k + 1):
            return k
    raise AssertionError(f"no interval contains {u!r}")


def test_interval_bucketing_bulk():
    rng = np.random.default_rng(99)
    u = rng.random(1_000_000)
    with np.errstate(divide="ignore"):
        expected = np.clip(np.floor(1.0 / u) - 1, 1, 15).astype(int)
    np.testing.assert_array_equal(propensity_interval(u), expected)


def test_interval_bucketing_endpoints():
    endpoints = []
    endpoints += [1 / 3, 1.0]  # bucket 1
    for k in range(2, 15):
        endpoints += [1 / (k + 2), 1 / (k + 1)]
    endpoints += [0.0, 1 / 16]  # bucket 15
    assert len(endpoints) == 30
    probes = []
    for e in endpoints:
        for u in (e - 1e-12, e, e + 1e-12):
            if 0.0 <= u <= 1.0:
                probes.append(u)
    got = propensity_interval(np.array(probes))
    want = [interval_reference(u) for u in probes]
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# 3. exact permutation p equals enumeration; Monte-Carlo tracks it
# ---------------------------------------------------------------------------


def test_exact_permutation_matches_enumeration():
    # 8 sets of size 2-3 keeps the assignment count under 3^8 = 6561
    rng = np.random.default_rng(11)
    for _ in range(30):
        resid, sets = random_matched_instance(rng, 8, max_controls=2)
        n_assign = math.prod(sets.sizes.tolist())
        assert n_assign <= 10_000
        t = permutational_t_test(resid, sets, mode="exact")
        up, lo, n = brute_force_tail_probabilities(resid, sets.z, index_sets(sets))
        assert n == n_assign
        assert t.p_upper == pytest.approx(up, abs=1e-12)
        assert t.p_lower == pytest.approx(lo, abs=1e-12)
        assert t.p_two_sided == pytest.approx(min(1.0, 2 * min(up, lo)), abs=1e-12)


def test_monte_carlo_within_three_sds_of_exact():
    rng = np.random.default_rng(12)
    n_draws = 100_000
    for i in range(50):
        resid, sets = random_matched_instance(rng, 8, max_controls=2)
        exact = permutational_t_test(resid, sets, mode="exact")
        mc = permutational_t_test(resid, sets, mode="monte-carlo", n_draws=n_draws, seed=i)
        for p_mc, p_ex in ((mc.p_upper, exact.p_upper), (mc.p_lower, exact.p_lower)):
            sd = math.sqrt(p_ex * (1.0 - p_ex) / n_draws)
            # 2e-5 absorbs the add-one shift of the unbiased estimator
            assert abs(p_mc - p_ex) <= 3 * sd + 2e-5


# ---------------------------------------------------------------------------
# 4. size of the test under the sharp null
# ---------------------------------------------------------------------------


def test_sharp_null_rejection_rate():
    sets = SetLayout(np.array([2] * 20 + [3] * 15 + [4] * 15))
    rng = np.random.default_rng(1)
    hits = 0
    for _ in range(10_000):
        resid = rng.normal(size=sets.z.size)
        t = permutational_t_test(resid, sets, mode="normal-approx")
        hits += t.p_two_sided <= 0.05
    assert 0.04 <= hits / 10_000 <= 0.06


# ---------------------------------------------------------------------------
# 5. confidence-hull coverage of the true effect
# ---------------------------------------------------------------------------


def _paired_cohort_region(seed, adjustment):
    rng = np.random.default_rng(seed)
    n_pairs = 1000
    beta = np.array([0.5, -0.3, 0.2])
    x = rng.normal(size=(2 * n_pairs, 3))
    z = np.tile([1, 0], n_pairs)
    y = x @ beta + 0.5 * z + rng.normal(size=2 * n_pairs)
    table = make_table(z, x, outcomes=y, outcome_names=("y",))
    result = match_of(table, [[2 * i, 2 * i + 1] for i in range(n_pairs)])
    return invert_tests(
        matched_arrays(table, result, "y"),
        grid=np.linspace(0.3, 0.7, 11),
        alpha=0.05,
        adjustment=adjustment,
        mode="normal-approx",
    )


@pytest.mark.parametrize("adjustment", ["none", "ols"])
def test_hull_covers_true_effect(adjustment):
    covered = 0
    for seed in range(200, 300):
        region = _paired_cohort_region(seed, adjustment)
        assert region.hull is not None
        lo, hi = region.hull
        # the grid point nearest 0.5 is 0.49999999999999994; containment
        # must not fail on that representation error
        covered += lo - 1e-9 <= 0.5 <= hi + 1e-9
    assert covered >= 93


# ---------------------------------------------------------------------------
# 6. a confounded cohort is repaired by the selected match
# ---------------------------------------------------------------------------


def _confounded_balance(seed):
    rng = np.random.default_rng(seed)
    n = 1200
    x = np.column_stack(
        [rng.normal(size=(n, 6)), (rng.random((n, 2)) < 0.4).astype(float)]
    )
    coef = np.array([0.6, -0.5, 0.5, -0.45, 0.45, -0.1, 0.8, -0.7])
    z = (rng.random(n) < expit(x @ coef - 0.6)).astype(int)
    table = make_table(z, x)
    candidates = []
    tables = []
    for fit in (fit_mle(x, z), fit_l1(x, z, seed=seed)):
        res = build_match(table, fit.scores)
        rows = balance_table(table, res)
        candidates.append((count_imbalanced(rows), res.n_dropped))
        tables.append(rows)
    chosen = tables[select_match(candidates).index]
    n_pre = sum(abs(r.sd_diff_pre) > 0.2 for r in chosen)
    worst_post = max(abs(r.sd_diff_post) for r in chosen)
    return n_pre, worst_post


def test_selected_match_repairs_confounding():
    repaired = 0
    for seed in range(10):
        n_pre, worst_post = _confounded_balance(seed)
        assert n_pre >= 5  # the confounding must actually bite pre-match
        repaired += worst_post < 0.2
    assert repaired >= 9


# ---------------------------------------------------------------------------
# 7. sensitivity bounds: gamma = 1 agreement, dominance, monotonicity
# ---------------------------------------------------------------------------


def test_sensitivity_residual_reduces_to_test_at_gamma_one():
    rng = np.random.default_rng(21)
    for _ in range(5):
        resid, sets = random_matched_instance(rng, 40)
        bound = sensitivity_residual(resid, sets, gamma=1.0, direction="greater")
        t = permutational_t_test(resid, sets, mode="normal-approx")
        assert bound.p_one_sided == pytest.approx(t.p_upper, abs=1e-6)


def test_sensitivity_mh_reduces_to_test_at_gamma_one():
    rng = np.random.default_rng(22)
    for _ in range(5):
        _, sets = random_matched_instance(rng, 12, max_controls=2)
        y = (rng.random(sets.z.size) < 0.4).astype(float)
        exact = mantel_haenszel(y, sets, mode="exact")
        b_up = sensitivity_mh(y, sets, gamma=1.0, direction="greater", mode="exact")
        b_lo = sensitivity_mh(y, sets, gamma=1.0, direction="less", mode="exact")
        assert b_up.p_one_sided == pytest.approx(exact.p_upper, abs=1e-10)
        assert b_lo.p_one_sided == pytest.approx(exact.p_lower, abs=1e-10)
        normal = mantel_haenszel(y, sets, mode="normal")
        n_up = sensitivity_mh(y, sets, gamma=1.0, direction="greater", mode="normal")
        assert n_up.p_one_sided == pytest.approx(normal.p_upper, abs=1e-6)


def test_separable_bound_dominates_enumeration():
    resid, z, sets = sensitivity_instance()
    laid, layout = lay_out(resid, z, sets)
    for gamma in (1.0, 1.2, 1.5, 2.0, 2.5):
        bound = sensitivity_residual(laid, layout, gamma, direction="greater")
        oracle = sensitivity_grid_max_p(resid, z, sets, gamma)
        assert bound.p_one_sided >= oracle - 1e-9
        assert bound.p_one_sided <= oracle + 0.01


def test_bound_curves_are_nondecreasing():
    rng = np.random.default_rng(23)
    resid, sets = random_matched_instance(rng, 30)
    z = sets.z
    resid = resid + z * 0.8  # a real effect so the curve starts low
    p_res = [
        sensitivity_residual(resid, sets, g, direction="greater").p_one_sided
        for g in SensitivityParams().grid()
    ]
    assert np.all(np.diff(p_res) >= -1e-12)
    y = (rng.random(z.size) < np.where(z == 1, 0.6, 0.3)).astype(float)
    p_mh = [
        sensitivity_mh(y, sets, g, direction="greater").p_one_sided
        for g in SensitivityParams().grid()
    ]
    assert np.all(np.diff(p_mh) >= -1e-12)


# ---------------------------------------------------------------------------
# 8. conditional logistic score test reduces to McNemar on pairs
# ---------------------------------------------------------------------------


def test_paired_score_test_equals_mcnemar():
    rng = np.random.default_rng(31)
    done = 0
    while done < 100:
        n_pairs = int(rng.integers(15, 41))
        t = (rng.random(n_pairs) < 0.55).astype(float)
        c = (rng.random(n_pairs) < 0.35).astype(float)
        b = int(np.sum((t == 1) & (c == 0)))
        d = int(np.sum((t == 0) & (c == 1)))
        if b + d == 0:
            continue
        y = np.empty(2 * n_pairs)
        y[0::2] = t
        y[1::2] = c
        out = conditional_logistic(y, SetLayout(np.full(n_pairs, 2)))
        stat = (b - d) / math.sqrt(b + d)
        assert out.statistic == pytest.approx(stat, abs=1e-10)
        assert out.p == pytest.approx(2.0 * float(norm.sf(abs(stat))), abs=1e-10)
        done += 1


# ---------------------------------------------------------------------------
# 9. family-wise error of the ordered procedure under the global null
# ---------------------------------------------------------------------------


def _null_p(rng):
    resid, sets = random_matched_instance(rng, 10, max_controls=2)
    return permutational_t_test(resid, sets, mode="exact").p_two_sided


def test_ordered_procedure_familywise_error():
    rng = np.random.default_rng(2)
    n_reps = 10_000
    false_rejections = 0
    for _ in range(n_reps):
        p1 = _null_p(rng)
        if p1 > 0.05:
            res = ordered_procedure(p1)
        else:
            p2, p3 = _null_p(rng), _null_p(rng)
            if p2 <= 0.05 and p3 <= 0.05:
                eq = EquivalenceResult(False, False, (-0.1, 0.1), 0.2, False)
                res = ordered_procedure(p1, p2, p3, eq)
            else:
                res = ordered_procedure(p1, p2, p3)
        false_rejections += bool(res.rejections)
    mc_sd = math.sqrt(0.05 * 0.95 / n_reps)
    assert false_rejections / n_reps <= 0.05 + 2 * mc_sd


# ---------------------------------------------------------------------------
# 10. false-discovery-rate adjustment
# ---------------------------------------------------------------------------


def test_fdr_fixture_is_exact():
    adj = benjamini_hochberg(np.array([0.01, 0.02, 0.2]))
    assert list(adj) == [0.03, 0.03, 0.2]


def test_fdr_adjustment_is_monotone():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        m = int(rng.integers(1, 12))
        p = rng.uniform(size=m)
        adj = benjamini_hochberg(p)
        order = np.argsort(p, kind="stable")
        assert np.all(np.diff(adj[order]) >= -1e-15)
        assert np.all(adj >= p - 1e-15)
        assert np.all(adj <= 1.0)


# ---------------------------------------------------------------------------
# 11. propensity fitters against independent oracles
# ---------------------------------------------------------------------------


def test_propensity_fits_match_oracles():
    start = time.monotonic()

    # maximum likelihood vs textbook IRLS
    for seed in (1, 2, 3):
        x, z = logistic_data(seed=seed, n=400, coefs=[0.8, -0.5, 0.3])
        fit = fit_mle(x, z)
        ref = irls_reference(x, z)
        assert np.max(np.abs(fit.beta - ref)) < 1e-6

    # lasso stationarity: penalized coordinates of the log-likelihood
    # gradient cannot exceed the penalty at the reported solution
    for seed in (7, 8):
        x, z = logistic_data(seed=seed, n=250, coefs=[0.9, 0.0, 0.0, -0.6, 0.0])
        fit = fit_l1(x, z, seed=0)
        lam = fit.diagnostics["penalty"]
        design = np.column_stack([np.ones(len(z)), x])
        grad = design.T @ (z - expit(design @ fit.beta))
        assert np.max(np.abs(grad[1:])) <= lam + 1e-6

    # posterior mean vs dense quadrature with the same prior
    x, z = logistic_data(seed=11, n=500, coefs=[1.5], intercept=0.2)
    fit = fit_bayes(x, z, seed=3)
    design = np.column_stack([np.ones(len(z)), x])
    b0 = np.linspace(-2.0, 2.0, 161)
    b1 = np.linspace(-1.0, 4.0, 201)
    grid0, grid1 = np.meshgrid(b0, b1, indexing="ij")
    betas = np.stack([grid0.ravel(), grid1.ravel()], axis=1)
    eta = betas @ design.T
    loglik = (z * eta - np.logaddexp(0.0, eta)).sum(axis=1)
    logprior = -0.5 * (betas[:, 0] ** 2 / 100.0 + betas[:, 1] ** 2)
    w = np.exp(loglik + logprior - (loglik + logprior).max())
    w /= w.sum()
    mean1 = float(w @ betas[:, 1])
    sd1 = float(np.sqrt(w @ (betas[:, 1] - mean1) ** 2))
    assert abs(fit.beta[1] - mean1) < 3 * sd1

    # the tree ensemble must beat the best linear fit on a step function
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(500, 2))
    f = 2.0 * (xs[:, 0] > 0.0)
    ys = f + 0.3 * rng.normal(size=500)
    bart_mean = fit_bart_regression(xs, ys, seed=0)
    design = np.column_stack([np.ones(500), xs])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    rmse_linear = float(np.sqrt(np.mean((design @ coef - f) ** 2)))
    rmse_bart = float(np.sqrt(np.mean((bart_mean - f) ** 2)))
    assert rmse_bart < rmse_linear

    assert time.monotonic() - start < 600.0


# ---------------------------------------------------------------------------
# 12. report files are byte-identical to the checked-in goldens
# ---------------------------------------------------------------------------

GOLDEN_NAMES = ("match_summary.csv", "composition.csv") + tuple(
    f"balance_comparison-{i}{ext}" for i in (1, 2, 3, 4) for ext in (".csv", ".md")
)


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("golden-run")
    out_dir = os.path.join(str(base), "out")
    cfg_path = os.path.join(str(base), "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(reduced_config_dict(out_dir, seed=7), fh)
    assert main(["run", "--config", cfg_path]) == 0
    return out_dir


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_report_matches_golden(golden_run, name):
    golden = os.path.join(os.path.dirname(__file__), "goldens", name)
    with open(golden, "rb") as fh:
        want = fh.read()
    with open(os.path.join(golden_run, name), "rb") as fh:
        got = fh.read()
    assert got == want
