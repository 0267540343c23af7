"""Randomization inference on matched sets.

The test statistic is the sum of treated members' aligned (set-mean-centered)
adjusted responses. Under the sharp null with an additive shift tau0, the
treated position is uniform within each set, which fixes the statistic's null
distribution without any model for the outcomes; every test at one tau0 sees
its ``adjusted_residuals``. Exact enumeration, Monte Carlo, and a normal
approximation are provided, plus confidence regions by test inversion, a
conditional-logistic analysis for binary outcomes, and the Mantel-Haenszel
test. An inversion keeps the test of each grid value, so the point test at
tau0 = 0 is read off the grid (``ConfidenceRegion.test_at``), not run again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._scipy import gammaln, ndtr
from .dataset import SubjectTable
from .matching import MatchResult, SetLayout, member_rows

#: Largest number of equiprobable assignments enumerated exactly.
EXACT_LIMIT = 10**6

ADJUST_NONE = "none"
ADJUST_OLS = "ols"
ADJUST_BART = "bart"
ADJUSTMENTS = (ADJUST_NONE, ADJUST_OLS, ADJUST_BART)

#: The modes of ``permutational_t_test``.
TEST_MODES = ("auto", "exact", "monte-carlo", "normal-approx")


@dataclass(frozen=True)
class InferenceData:
    """Matched outcomes and covariates laid out by ``sets``.

    ``x`` is centred within its sets. ``excluded_sets`` names treated ids of
    sets dropped for missing outcomes.
    """

    r: np.ndarray
    x: np.ndarray
    sets: SetLayout
    excluded_sets: tuple[str, ...]


def matched_arrays(table: SubjectTable, result: MatchResult, outcome: str) -> InferenceData:
    """Extract outcome/covariate arrays for the matched sets, laid out as the
    match lays out its member rows of ``table``.

    Sets containing any member with a missing outcome are excluded and
    logged. Raises if nothing remains, or (in ``member_rows``) unless each
    set's first member is its one treated subject.
    """
    j = table.outcome_index(outcome)
    rows, layout = member_rows(table, result)
    missing = np.logical_or.reduceat(np.isnan(table.outcomes[rows, j]), layout.starts)
    if missing.all():
        raise ValueError(f"no matched sets with observed outcome {outcome!r}")
    keep = ~missing
    idx = rows[np.repeat(keep, layout.sizes)]
    sets = SetLayout(layout.sizes[keep])
    return InferenceData(
        r=table.outcomes[idx, j],
        x=sets.centre(table.covariates[idx]),
        sets=sets,
        excluded_sets=tuple(table.ids[t] for t in rows[layout.starts[missing]].tolist()),
    )


def align_responses(r: np.ndarray, sets: SetLayout, tau0: float) -> np.ndarray:
    """(r - tau0*z) less its set means, for responses ``r`` laid out by ``sets``."""
    return sets.centre(sets.check(r) - tau0 * sets.z)


def covariance_adjust(
    aligned_r: np.ndarray,
    aligned_x: np.ndarray | None,
    method: str = ADJUST_NONE,
    seed: int = 0,
) -> tuple[np.ndarray, dict]:
    """Residualize aligned responses on aligned covariates.

    ``ols`` fits no-intercept least squares (minimum-norm under rank
    deficiency, flagged); ``bart`` subtracts the posterior-mean sum-of-trees
    fit; ``none`` passes responses through.
    """
    if method == ADJUST_NONE:
        return aligned_r.copy(), {"method": method}
    if aligned_x is None:
        raise ValueError(f"adjustment {method!r} needs covariates")
    if method == ADJUST_OLS:
        beta, _, rank, _ = np.linalg.lstsq(aligned_x, aligned_r, rcond=None)
        info = {"method": method, "rank": int(rank), "rank_deficient": rank < aligned_x.shape[1]}
        return aligned_r - aligned_x @ beta, info
    if method == ADJUST_BART:
        from . import bart

        fitted = bart.fit_bart_regression(aligned_x, aligned_r, seed=seed)
        return aligned_r - fitted, {"method": method, "seed": seed}
    raise ValueError(f"unknown adjustment {method!r}")


def adjusted_residuals(data: InferenceData, tau0: float, adjustment: str, seed: int) -> np.ndarray:
    """``data``'s responses aligned at ``tau0``, residualized on its covariates."""
    return covariance_adjust(align_responses(data.r, data.sets, tau0), data.x, adjustment, seed=seed)[0]


@dataclass(frozen=True)
class TestResult:
    """Permutation (or approximation) test outcome."""

    statistic: float
    p_two_sided: float
    p_upper: float
    p_lower: float
    method: str
    n_sets: int
    detail: dict = field(default_factory=dict)


def _comparison_tolerance(values: np.ndarray) -> float:
    return 1e-9 * max(1.0, float(np.max(np.abs(values), initial=0.0)))


def assignment_count(sets: SetLayout) -> int:
    """The number of equiprobable treatment assignments of ``sets``: the
    product of the set sizes, which ``exact`` mode enumerates."""
    return math.prod(sets.sizes.tolist())


def order_of_magnitude(count: int) -> str:
    """``count``'s order of magnitude as ``10^k``, for messages (a count of
    assignments can have more digits than ``str`` converts)."""
    return f"10^{math.floor(math.log10(count))}"


def permutational_t_test(
    resid: np.ndarray,
    sets: SetLayout,
    mode: str = "auto",
    n_draws: int = 100_000,
    seed: int = 0,
) -> TestResult:
    """Test the sharp null via the treated-sum statistic of residuals laid
    out by ``sets``.

    Modes: ``exact`` enumerates every equiprobable assignment (product of set
    sizes at most 1e6); ``monte-carlo`` samples assignments with an add-one
    estimate; ``normal-approx`` uses the exact null mean and variance.
    ``auto`` picks exact when feasible, otherwise Monte Carlo. Two-sided p is
    twice the smaller tail, capped at 1. ``exact`` raises ``ValueError``
    beyond ``EXACT_LIMIT`` assignments, and Monte Carlo unless ``n_draws`` is
    an integer >= 1.
    """
    laid = sets.check(resid, float)
    t_obs = float(laid[sets.starts].sum())
    n_assign = assignment_count(sets)
    if mode == "auto":
        mode = "exact" if n_assign <= EXACT_LIMIT else "monte-carlo"
    detail: dict = {}

    if mode == "exact":
        if n_assign > EXACT_LIMIT:
            raise ValueError(
                f"exact enumeration takes at most {EXACT_LIMIT} assignments; "
                f"these sets have about {order_of_magnitude(n_assign)}"
            )
        sums = np.zeros(1)
        for values in sets.split(laid):
            sums = (sums[:, None] + values[None, :]).ravel()
        tol = _comparison_tolerance(sums)
        p_upper = float(np.count_nonzero(sums >= t_obs - tol)) / sums.size
        p_lower = float(np.count_nonzero(sums <= t_obs + tol)) / sums.size
        detail["n_assignments"] = sums.size
    elif mode == "monte-carlo":
        if isinstance(n_draws, bool) or not isinstance(n_draws, (int, np.integer)) or n_draws < 1:
            raise ValueError("n_draws must be an integer >= 1")
        rng = np.random.default_rng(seed)
        acc = np.zeros(n_draws)
        for values in sets.split(laid):
            acc += values[rng.integers(0, values.size, n_draws)]
        tol = _comparison_tolerance(acc)
        p_upper = (1.0 + np.count_nonzero(acc >= t_obs - tol)) / (n_draws + 1.0)
        p_lower = (1.0 + np.count_nonzero(acc <= t_obs + tol)) / (n_draws + 1.0)
        detail.update(n_draws=n_draws, seed=seed)
    elif mode == "normal-approx":
        mean = float(sets.means(laid).sum())
        var = float(sets.means(sets.centre(laid) ** 2).sum())  # population variances
        detail.update(null_mean=mean, null_var=var)
        if var <= 0.0:
            p_upper = p_lower = 1.0
        else:
            deviate = (t_obs - mean) / math.sqrt(var)
            p_upper = float(ndtr(-deviate))
            p_lower = float(ndtr(deviate))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    return TestResult(
        statistic=t_obs,
        p_two_sided=min(1.0, 2.0 * min(p_upper, p_lower)),
        p_upper=min(p_upper, 1.0),
        p_lower=min(p_lower, 1.0),
        method=mode,
        n_sets=len(sets),
        detail=detail,
    )


@dataclass(frozen=True)
class ConfidenceRegion:
    """Accepted shift values from inverting the permutation test; ``tests``
    holds each grid value's test, ``p_values`` their two-sided p-values."""

    grid: np.ndarray
    tests: tuple[TestResult, ...]
    p_values: np.ndarray
    accepted: np.ndarray
    hull: tuple[float, float] | None
    non_monotone: bool

    def test_at(self, tau0: float) -> TestResult:
        """The test of the grid value ``tau0``; raises ``ValueError`` when
        the grid does not hold it."""
        hit = np.flatnonzero(self.grid == tau0)
        if hit.size == 0:
            raise ValueError(f"the inversion grid does not hold {tau0!r}")
        return self.tests[hit[0]]


def cohen_grid(outcome_sd: float, n_fill: int = 50) -> np.ndarray:
    """Default shift grid: conventional small/medium/large multiples of the
    outcome sd plus uniform fill-in points across the same span."""
    anchors = np.array([-0.8, -0.5, -0.2, 0.0, 0.2, 0.5, 0.8]) * outcome_sd
    fill = np.linspace(-0.8 * outcome_sd, 0.8 * outcome_sd, n_fill)
    # np.unique's sort and first-of-run mask, without its numpy.ma import.
    grid = np.sort(np.concatenate([anchors, fill]))
    return grid[np.concatenate([[True], grid[1:] != grid[:-1]])]


def invert_tests(
    data: InferenceData,
    grid: np.ndarray | None = None,
    alpha: float = 0.05,
    adjustment: str = ADJUST_NONE,
    mode: str = "auto",
    seed: int = 0,
    n_draws: int = 100_000,
) -> ConfidenceRegion:
    """Confidence region for an additive effect on ``data``'s outcome by
    inverting the test.

    Each grid value is tested once, on its ``adjusted_residuals`` (alignment
    and covariance adjustment depend on tau0), with the same ``seed``. The
    default grid is ``cohen_grid`` of the outcome's sd, which holds 0; any
    grid is taken. The accepted hull is [min, max] of accepted grid values;
    a non-contiguous accepted set raises the non-monotone flag.
    """
    if grid is None:
        grid = cohen_grid(float(np.std(data.r, ddof=1)))
    grid = np.sort(np.asarray(grid, dtype=float))
    tests = tuple(
        permutational_t_test(
            adjusted_residuals(data, tau0, adjustment, seed), data.sets, mode=mode, n_draws=n_draws, seed=seed
        )
        for tau0 in grid
    )
    p_values = np.array([test.p_two_sided for test in tests], dtype=float)
    accepted = p_values > alpha
    hull = None
    non_monotone = False
    if accepted.any():
        idx = np.flatnonzero(accepted)
        hull = (float(grid[idx[0]]), float(grid[idx[-1]]))
        non_monotone = bool(np.any(~accepted[idx[0] : idx[-1] + 1]))
    return ConfidenceRegion(
        grid=grid,
        tests=tests,
        p_values=p_values,
        accepted=accepted,
        hull=hull,
        non_monotone=non_monotone,
    )


# ---------------------------------------------------------------------------
# Binary outcomes
# ---------------------------------------------------------------------------


def _binary_set_margins(y: np.ndarray, sets: SetLayout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(treated event, events d_i, size n_i) per set of 0/1 outcomes laid out
    by ``sets``."""
    y = sets.check(y)
    if not np.isin(y, (0, 1)).all():
        raise ValueError("binary outcome must be 0/1")
    laid = y.astype(float)
    return laid[sets.starts], np.add.reduceat(laid, sets.starts), sets.sizes.astype(float)


@dataclass(frozen=True)
class ConditionalLogitResult:
    theta: float
    se: float
    p: float
    statistic: float
    identified: bool
    n_informative: int


def conditional_logistic(y: np.ndarray, sets: SetLayout) -> ConditionalLogitResult:
    """Conditional logistic regression of a binary outcome, laid out by
    ``sets``, on treatment.

    Conditioning on each set's event count leaves a one-parameter likelihood;
    with one treated per set the set contribution is Bernoulli with odds
    multiplied by C(n-1, d-1)/C(n-1, d). Reports the max-conditional-likelihood
    estimate and the score test at theta = 0 (which reduces to McNemar on
    pairs). Sets with no event-count information (d = 0 or d = n) drop out;
    with none left theta is unidentified.
    """
    t, d, n = _binary_set_margins(y, sets)
    informative = (d > 0) & (d < n)
    t, d, n = t[informative], d[informative], n[informative]
    if t.size == 0:
        return ConditionalLogitResult(
            theta=math.nan, se=math.nan, p=1.0, statistic=0.0, identified=False, n_informative=0
        )
    mean0 = d / n
    u = float(np.sum(t - mean0))
    v = float(np.sum(mean0 * (1.0 - mean0)))
    statistic = u / math.sqrt(v)
    p = 2.0 * float(ndtr(-abs(statistic)))

    # Newton on the conditional log-likelihood; log C(n-1, d-1) - log C(n-1, d)
    # gives each set's baseline log-odds shift.
    log_shift = (
        gammaln(n) - gammaln(d) - gammaln(n - d + 1.0) - (gammaln(n) - gammaln(d + 1.0) - gammaln(n - d))
    )
    theta = 0.0
    converged = True
    for _ in range(100):
        q = 1.0 / (1.0 + np.exp(-(theta + log_shift)))
        grad = float(np.sum(t - q))
        hess = float(np.sum(q * (1.0 - q)))
        if hess <= 0.0:
            converged = False
            break
        step = grad / hess
        theta += step
        if abs(theta) > 30.0:
            converged = False
            break
        if abs(step) < 1e-12:
            break
    if not converged:
        return ConditionalLogitResult(
            theta=math.nan, se=math.nan, p=min(p, 1.0), statistic=statistic, identified=False, n_informative=t.size
        )
    q = 1.0 / (1.0 + np.exp(-(theta + log_shift)))
    se = 1.0 / math.sqrt(float(np.sum(q * (1.0 - q))))
    return ConditionalLogitResult(
        theta=theta, se=se, p=min(p, 1.0), statistic=statistic, identified=True, n_informative=t.size
    )


def bernoulli_convolution(probs: np.ndarray) -> np.ndarray:
    """Exact pmf of a sum of independent Bernoulli variables."""
    pmf = np.array([1.0])
    for p in probs:
        nxt = np.zeros(pmf.size + 1)
        nxt[: pmf.size] += pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return pmf


def event_tail_probabilities(probs: np.ndarray, t_obs: int, mode: str) -> tuple[float, float]:
    """(upper, lower) tail p for T = sum of Bernoulli(probs) at the observed
    integer count; ``exact`` convolves, ``normal`` applies a 0.5 continuity
    correction."""
    mean = float(np.sum(probs))
    var = float(np.sum(probs * (1.0 - probs)))
    if mode == "exact":
        pmf = bernoulli_convolution(probs)
        upper = float(pmf[t_obs:].sum())
        lower = float(pmf[: t_obs + 1].sum())
        return min(upper, 1.0), min(lower, 1.0)
    if mode == "normal":
        if var <= 0.0:
            return 1.0, 1.0
        sd = math.sqrt(var)
        upper = float(ndtr(-((t_obs - 0.5 - mean) / sd)))
        lower = float(ndtr((t_obs + 0.5 - mean) / sd))
        return upper, lower
    raise ValueError(f"unknown mode {mode!r}")


#: Set count above which the Mantel-Haenszel paths switch to the normal tail.
MH_EXACT_LIMIT = 200


def mh_tail_mode(mode: str, sets: SetLayout) -> str:
    """The tail a Mantel-Haenszel path computes: ``auto`` is ``exact`` up to
    ``MH_EXACT_LIMIT`` sets and ``normal`` above; other modes are kept."""
    if mode == "auto":
        return "exact" if len(sets) <= MH_EXACT_LIMIT else "normal"
    return mode


def mantel_haenszel(y: np.ndarray, sets: SetLayout, mode: str = "auto") -> TestResult:
    """Mantel-Haenszel test of treated event counts across matched sets, for
    a 0/1 outcome laid out by ``sets``.

    Conditioning on each set's margins makes the treated-event indicator
    hypergeometric: Bernoulli(d_i/n_i) with one treated draw. ``exact``
    convolves the set contributions; ``normal`` uses the continuity-corrected
    deviate. ``auto`` is exact up to 200 sets.
    """
    t, d, n = _binary_set_margins(y, sets)
    t_obs = int(round(float(t.sum())))
    probs = d / n
    mode = mh_tail_mode(mode, sets)
    p_upper, p_lower = event_tail_probabilities(probs, t_obs, mode)
    return TestResult(
        statistic=float(t_obs),
        p_two_sided=min(1.0, 2.0 * min(p_upper, p_lower)),
        p_upper=p_upper,
        p_lower=p_lower,
        method=f"mantel-haenszel-{mode}",
        n_sets=len(sets),
        detail={"null_mean": float(probs.sum()), "null_var": float((probs * (1 - probs)).sum())},
    )
