"""Exhaustive reference computations for small instances.

Everything here re-derives results by brute force, sharing no logic with the
fast implementations, so the two can be checked against each other. The
checks run from the command line (the ``oracle`` subcommand) and from the
test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import inference, matching, propensity, sensitivity
from ._scipy import expit, ndtr

#: Cap on enumerated states in any single brute-force pass.
ENUMERATION_LIMIT = 4_000_000


def _feasible_labelings(n_t: int, n_c: int, k: int):
    """Every feasible variable-ratio match of one cell, in lexicographic order.

    A match is a label per control: the index of the treated subject it
    joins, or n_t when it is discarded. Feasibility mirrors the three
    matching regimes: surplus controls force exactly k per treated (extras
    dropped), the intermediate regime uses every control with 1..k per
    treated, and scarce controls pair off a subset of treated subjects.
    """
    if n_c < n_t:
        labels, lo, hi = range(n_t), 0, 1
    elif n_c >= k * n_t:
        labels, lo, hi = range(n_t + 1), k, k
    else:
        labels, lo, hi = range(n_t), 1, k
    if len(labels) ** n_c > ENUMERATION_LIMIT:
        raise ValueError("instance too large for brute force")
    for assign in product(labels, repeat=n_c):
        counts = [0] * (n_t + 1)
        for lab in assign:
            counts[lab] += 1
        if all(lo <= ct <= hi for ct in counts[:n_t]):
            yield assign


def brute_force_bucket_cost(dist: np.ndarray, k: int) -> float:
    """Minimum total distance over every feasible variable-ratio match."""
    dist = np.asarray(dist, dtype=float)
    n_t, n_c = dist.shape
    if n_t == 0 or n_c == 0:
        return 0.0
    return min(
        sum(dist[lab, c] for c, lab in enumerate(assign) if lab < n_t) for assign in _feasible_labelings(n_t, n_c, k)
    )


def brute_force_canonical_match(
    dist: np.ndarray, treated_ids: tuple[str, ...], control_ids: tuple[str, ...], k: int
) -> list[tuple[str, tuple[str, ...]]]:
    """The optimal match that ``match_bucket``'s tie rule names, by enumeration.

    Controls are read in id order and labelled with the id rank of the
    treated subject they join (n_t when discarded); among the minimum-cost
    label vectors the lexicographically smallest wins. Sets come sorted by
    treated id. Distances must add exactly in float, as integers do.
    """
    dist = np.asarray(dist, dtype=float)
    n_t, n_c = dist.shape
    t_order = sorted(range(n_t), key=treated_ids.__getitem__)
    c_order = sorted(range(n_c), key=control_ids.__getitem__)
    d = dist[np.ix_(t_order, c_order)]
    best, pick = math.inf, ()
    for assign in _feasible_labelings(n_t, n_c, k):
        total = sum(d[lab, c] for c, lab in enumerate(assign) if lab < n_t)
        if total < best:
            best, pick = total, assign
    sets = []
    for t in range(n_t):
        controls = tuple(sorted(control_ids[c_order[c]] for c, lab in enumerate(pick) if lab == t))
        if controls:
            sets.append((treated_ids[t_order[t]], controls))
    return sets


def match_total_cost(
    dist: np.ndarray,
    treated_ids: tuple[str, ...],
    control_ids: tuple[str, ...],
    sets: list[tuple[str, tuple[str, ...]]],
) -> float:
    t_index = {s: i for i, s in enumerate(treated_ids)}
    c_index = {s: i for i, s in enumerate(control_ids)}
    return float(sum(dist[t_index[t], c_index[c]] for t, controls in sets for c in controls))


def brute_force_tail_probabilities(
    resid: np.ndarray, z: np.ndarray, sets: tuple[np.ndarray, ...]
) -> tuple[float, float, int]:
    """(upper, lower, n_assignments) by direct enumeration of treated slots."""
    resid = np.asarray(resid, dtype=float)
    t_obs = float(sum(resid[s][z[s] == 1][0] for s in sets))
    n_assign = math.prod(len(s) for s in sets)
    if n_assign > ENUMERATION_LIMIT:
        raise ValueError("instance too large for brute force")
    sums = [sum(float(resid[s[i]]) for s, i in zip(sets, pick)) for pick in product(*[range(len(s)) for s in sets])]
    tol = 1e-9 * max(1.0, max(abs(v) for v in sums))
    ge = sum(1 for v in sums if v >= t_obs - tol)
    le = sum(1 for v in sums if v <= t_obs + tol)
    return ge / n_assign, le / n_assign, n_assign


def _hidden_bias_moments(v: np.ndarray, gamma: float, u_grid: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(means, variances) of one set's treated draw, one per hidden-bias
    vector u in u_grid^n, with the treated slot chosen with probability
    proportional to gamma**u."""
    w = gamma ** np.array(list(product(u_grid, repeat=v.size)))
    p = w / w.sum(axis=1, keepdims=True)
    mean = p @ v
    return mean, p @ (v * v) - mean * mean


def sensitivity_grid_max_p(
    resid: np.ndarray,
    z: np.ndarray,
    sets: tuple[np.ndarray, ...],
    gamma: float,
    u_grid: tuple[float, ...] = (0.0, 0.5, 1.0),
) -> float:
    """Maximum upper-tail normal p over gridded biased assignments.

    Each subject gets a hidden score u on the grid; within a set the treated
    slot has probability proportional to gamma**u. The search is over the
    joint choice across sets, which the separable bound replaces with
    per-set maximization.
    """
    resid = np.asarray(resid, dtype=float)
    t_obs = float(sum(resid[s][z[s] == 1][0] for s in sets))
    if len(u_grid) ** sum(len(s) for s in sets) > ENUMERATION_LIMIT:
        raise ValueError("instance too large for brute force")
    mus, nus = np.zeros(1), np.zeros(1)
    for s in sets:
        m, nu = _hidden_bias_moments(resid[s], gamma, u_grid)
        mus = (mus[:, None] + m[None, :]).ravel()
        nus = (nus[:, None] + nu[None, :]).ravel()
    p = np.empty_like(mus)
    degenerate = nus <= 0.0
    p[degenerate] = (mus[degenerate] >= t_obs).astype(float)
    ok = ~degenerate
    p[ok] = ndtr((mus[ok] - t_obs) / np.sqrt(nus[ok]))
    return float(p.max())


def brute_force_worst_moments(values: np.ndarray, gamma: float) -> tuple[float, float]:
    """Worst-case (mean, variance) of one set's treated draw by enumerating
    hidden-bias vectors u in {0,1}^n: the largest mean, and the largest
    variance among the vectors attaining it (to rounding)."""
    mean, var = _hidden_bias_moments(np.asarray(values, dtype=float), gamma, (0.0, 1.0))
    top = mean.max()
    return float(top), float(var[mean >= top - 1e-12 * max(1.0, abs(top))].max())


@dataclass(frozen=True)
class OracleCheck:
    name: str
    passed: bool
    detail: str


def _check_assignment(rng: np.random.Generator) -> OracleCheck:
    worst = 0.0
    for _ in range(60):
        n_t = int(rng.integers(1, 5))
        n_c = int(rng.integers(1, 9 - n_t))
        k = int(rng.integers(1, 4))
        dist = rng.integers(0, 50, size=(n_t, n_c)).astype(float)
        t_ids = tuple(f"t{i}" for i in range(n_t))
        c_ids = tuple(f"c{j}" for j in range(n_c))
        sets, _ = matching.match_bucket(dist, t_ids, c_ids, k)
        got = match_total_cost(dist, t_ids, c_ids, sets)
        want = brute_force_bucket_cost(dist, k)
        worst = max(worst, abs(got - want))
        if got != want:
            return OracleCheck(
                "assignment-enumeration", False, f"cost {got} != brute force {want} on {n_t}x{n_c} k={k}"
            )
    return OracleCheck("assignment-enumeration", True, f"60 instances, max deviation {worst}")


def _check_tie_rule(rng: np.random.Generator) -> OracleCheck:
    for trial in range(60):
        n_t = int(rng.integers(1, 5))
        n_c = int(rng.integers(1, 9 - n_t))
        k = int(rng.integers(1, 4))
        dist = rng.integers(0, 3, size=(n_t, n_c)).astype(float)  # tie-heavy
        t_ids = tuple(f"t{i}" for i in range(n_t))
        c_ids = tuple(f"c{j}" for j in range(n_c))
        sets, _ = matching.match_bucket(dist, t_ids, c_ids, k)
        tp, cp = rng.permutation(n_t), rng.permutation(n_c)
        permuted, _ = matching.match_bucket(
            dist[np.ix_(tp, cp)], tuple(t_ids[i] for i in tp), tuple(c_ids[j] for j in cp), k
        )
        if sorted(permuted) != sorted(sets):
            return OracleCheck("assignment-permutation", False, f"trial {trial}: {permuted} != {sets} after permuting")
        want = brute_force_canonical_match(dist, t_ids, c_ids, k)
        if sorted(sets) != want:
            return OracleCheck("assignment-permutation", False, f"trial {trial}: {sets} != canonical {want}")
    return OracleCheck("assignment-permutation", True, "60 tie-heavy instances, same canonical sets under permutation")


def _random_sets(
    rng: np.random.Generator, sizes: np.ndarray, resid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Sets of the given sizes over shuffled rows, each with one treated
    member at a random position."""
    sets = tuple(np.split(rng.permutation(resid.size), np.cumsum(sizes)[:-1]))
    z = np.zeros(resid.size, dtype=int)
    z[[s[rng.integers(0, s.size)] for s in sets]] = 1
    return resid, z, sets


def _laid_out(resid: np.ndarray, z: np.ndarray, sets: tuple[np.ndarray, ...]) -> tuple[np.ndarray, inference.SetLayout]:
    """The residuals laid out set after set, each set's treated member first
    and its other members in their listed order."""
    rows = np.concatenate([np.concatenate([s[z[s] == 1], s[z[s] != 1]]) for s in sets])
    return resid[rows], inference.SetLayout([s.size for s in sets])


def _check_permutation(rng: np.random.Generator) -> OracleCheck:
    for trial in range(20):
        sizes = rng.integers(2, 5, size=int(rng.integers(2, 6)))
        resid, z, sets = _random_sets(rng, sizes, rng.integers(-5, 6, size=sizes.sum()).astype(float))
        got = inference.permutational_t_test(*_laid_out(resid, z, sets), mode="exact")
        up, lo, n_assign = brute_force_tail_probabilities(resid, z, sets)
        if not (got.p_upper == up and got.p_lower == lo):
            return OracleCheck(
                "exact-permutation", False, f"trial {trial}: ({got.p_upper}, {got.p_lower}) != ({up}, {lo})"
            )
        if got.detail["n_assignments"] != n_assign:
            return OracleCheck("exact-permutation", False, f"trial {trial}: assignment count mismatch")
    return OracleCheck("exact-permutation", True, "20 shuffled instances, tail probabilities equal")


def sensitivity_instance() -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Fixed small instance with the treated subject at each set's largest
    residual.

    Each set has at most two distinct residual values, so raising the
    worst-case mean never trades away variance and the per-set maximizer is
    the joint one; with three distinct values the grid oracle can beat the
    separable choice on instances this small.
    """
    parts = [
        np.array([1.1, -1.1]),
        np.array([0.9, -0.9]),
        np.array([1.3, -0.65, -0.65]),
        np.array([1.0, -0.5, -0.5]),
        np.array([1.2, -0.6, -0.6]),
    ]
    layout = inference.SetLayout([part.size for part in parts])
    return np.concatenate(parts), layout.z, tuple(layout.split(np.arange(layout.z.size)))


def _check_sensitivity(rng: np.random.Generator) -> OracleCheck:
    resid, z, sets = sensitivity_instance()
    laid, layout = _laid_out(resid, z, sets)
    for gamma in (1.0, 1.3, 1.8, 2.2):
        sep = sensitivity.sensitivity_residual(laid, layout, gamma, direction="greater").p_one_sided
        orc = sensitivity_grid_max_p(resid, z, sets, gamma)
        if sep < orc - 1e-9:
            return OracleCheck("sensitivity-grid", False, f"gamma {gamma}: bound {sep} below oracle {orc}")
        if sep > orc + 0.01:
            return OracleCheck("sensitivity-grid", False, f"gamma {gamma}: bound {sep} loose vs oracle {orc}")
    return OracleCheck("sensitivity-grid", True, "separable bound dominates within 0.01 at 4 gammas")


def _check_moments(rng: np.random.Generator) -> OracleCheck:
    for trial in range(30):
        sizes = rng.integers(1, 9, size=int(rng.integers(1, 5)))
        # Three values per instance: equal values are common, exact ties
        # between different cuts of a set are not.
        resid, z, sets = _random_sets(rng, sizes, rng.normal(size=3)[rng.integers(0, 3, size=sizes.sum())])
        laid, layout = _laid_out(resid, z, sets)
        for gamma in (1.5, 2.0, 3.0):
            got = sensitivity.sensitivity_residual(laid, layout, gamma, direction="greater").detail
            want = np.sum([brute_force_worst_moments(resid[s], gamma) for s in sets], axis=0)
            dev = np.abs(np.array([got["worst_mean"], got["worst_var"]]) - want)
            if np.any(dev > 1e-9 * np.maximum(1.0, np.abs(want))):
                return OracleCheck("separable-moments", False, f"trial {trial}, gamma {gamma}: {got} vs {want}")
    return OracleCheck("separable-moments", True, "30 instances at 3 gammas, worst-case moments within 1e-9")


def l1_kkt_violation(x: np.ndarray, z: np.ndarray, beta: np.ndarray, lam: float) -> float:
    """Largest violation of the KKT conditions of
    loglik(beta) - lam * sum_{j>=1} |beta_j| at ``beta``: the intercept's
    gradient must vanish, a zero coefficient needs |g_j| <= lam and a
    nonzero one g_j = lam * sign(beta_j), where g is the log-likelihood
    gradient."""
    design = np.column_stack([np.ones(len(z)), x])
    grad = design.T @ (z - expit(design @ beta))
    b, g = beta[1:], grad[1:]
    gap = np.where(b == 0.0, np.maximum(np.abs(g) - lam, 0.0), np.abs(g - lam * np.sign(b)))
    return float(max(abs(grad[0]), gap.max(initial=0.0)))


def _ranked_arms(rng: np.random.Generator, x: np.ndarray, scale: float) -> np.ndarray:
    """Half the rows treated, ranked by a logistic index with normal
    coefficients of the given scale."""
    index = x @ rng.normal(scale=scale, size=x.shape[1]) + rng.logistic(size=x.shape[0])
    return (np.argsort(np.argsort(index)) >= x.shape[0] // 2).astype(int)


def _l1_certificate(x: np.ndarray, z: np.ndarray, lam: float) -> tuple[propensity.PropensityFit, float]:
    """An L1 fit at one penalty and its KKT gap."""
    fit = propensity.fit_l1(x, z, penalties=np.array([lam]), folds=2)
    return fit, l1_kkt_violation(x, z, fit.beta, lam)


def _check_l1_kkt(rng: np.random.Generator) -> OracleCheck:
    """KKT certificates of L1 fits on small instances, a third of them with an
    all-zero column and a third with a duplicated one, then a batch whose
    fits saturate: some fitted probability below 1e-5, where the IRLS weights
    are floored. The gap may reach the solver's coefficient tolerance (1e-7)
    times n, the scale of the curvature; exact finishes leave about 1e-11."""
    worst = 0.0
    for trial in range(12):
        n = int(rng.integers(40, 81))
        p = int(rng.integers(2, 7))
        x = rng.normal(size=(n, p))
        if trial % 3 == 1:
            x[:, -1] = 0.0  # zero curvature
        elif trial % 3 == 2:
            x[:, -1] = x[:, 0]  # singular Gram matrix unless the copy is left out
        # Signal in x, no fitted probability near the weight floor, and no
        # 2-fold split that leaves a fold with one arm.
        z = _ranked_arms(rng, x, 0.5)
        lam_max = propensity.l1_lambda_grid(x, z)[0]
        for frac in (1.0, 0.5, 0.2, 0.1):
            fit, gap = _l1_certificate(x, z, frac * lam_max)
            worst = max(worst, gap)
            if not fit.converged or gap > 1e-7 * n:
                detail = f"trial {trial}, penalty {frac} x max: KKT gap {gap:.3g}, converged {fit.converged}"
                return OracleCheck("l1-kkt", False, detail)

    # Drawn after the instances above, so that those stay the same. A strong
    # index and small penalties saturate about three fits in four; instances
    # are drawn until four saturated fits have been certified.
    saturated = instances = 0
    while saturated < 4 and instances < 12:
        n = int(rng.integers(40, 81))
        p = int(rng.integers(2, 7))
        x = rng.normal(size=(n, p))
        z = _ranked_arms(rng, x, 4.0)
        lam_max = propensity.l1_lambda_grid(x, z)[0]
        for frac in (0.02, 0.01):
            fit, gap = _l1_certificate(x, z, frac * lam_max)
            worst = max(worst, gap)
            if not fit.converged or gap > 1e-7 * n:
                detail = f"saturating instance {instances}, penalty {frac} x max: KKT gap {gap:.3g}"
                return OracleCheck("l1-kkt", False, f"{detail}, converged {fit.converged}")
            saturated += float(np.minimum(fit.scores, 1.0 - fit.scores).min()) < 1e-5
        instances += 1
    if saturated < 4:
        return OracleCheck("l1-kkt", False, f"{instances} saturating instances gave {saturated} saturated fits")
    detail = f"12 instances at 4 penalties and {instances} at 2 ({saturated} fits saturated), max KKT gap {worst:.2g}"
    return OracleCheck("l1-kkt", True, detail)


def run_oracle_suite(seed: int = 0) -> list[OracleCheck]:
    """Run all brute-force cross-checks on seeded instances."""
    rng = np.random.default_rng(seed)
    return [
        _check_assignment(rng),
        _check_permutation(rng),
        _check_sensitivity(rng),
        _check_tie_rule(rng),
        _check_moments(rng),
        _check_l1_kkt(rng),
    ]
