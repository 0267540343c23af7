"""Propensity-score estimators: logistic MLE, L1-penalized logistic with
cross-validated penalty, Bayesian logistic via adaptive random-walk
Metropolis, and a sum-of-trees probit fit.

All fitters take a covariate matrix ``x`` of shape (n, p) WITHOUT an
intercept column; the intercept is handled internally and is never penalized.
Fitted scores are clipped to the open interval (0, 1). The fitters take the
rows as given, and sums, L1 folds and BART draws follow the row order; the
pipeline sorts the cohort by id first (``pipeline.load_cohort``).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._scipy import expit

_SCORE_EPS = 1e-12

MLE = "mle"
L1 = "l1"
BAYES = "bayes"
BART = "bart"

#: Deterministic method ordering used for tie-breaks in match selection.
METHOD_ORDER = (MLE, L1, BAYES, BART)


@dataclass
class PropensityFit:
    """Fitted propensity model.

    Attributes:
        method: One of ``mle``, ``l1``, ``bayes``, ``bart``.
        scores: Fitted score per training row, strictly inside (0, 1).
        beta: Coefficients (intercept first) for the point-estimate methods;
            posterior mean for ``bayes``; None for ``bart``.
        converged: False under detected separation / non-convergence.
        diagnostics: Method-specific extras (penalty chosen, acceptance
            rate, CV table, ...).
    """

    method: str
    scores: np.ndarray
    beta: np.ndarray | None = None
    converged: bool = True
    diagnostics: dict = field(default_factory=dict)


def _clip_scores(s: np.ndarray) -> np.ndarray:
    return np.clip(s, _SCORE_EPS, 1.0 - _SCORE_EPS)


def _check_inputs(x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    z = np.asarray(z)
    if x.ndim != 2:
        raise ValueError("x must be a 2-d matrix")
    if z.shape != (x.shape[0],):
        raise ValueError("z length must match x rows")
    if not np.isin(z, (0, 1)).all():
        raise ValueError("z must be binary 0/1")
    if not (z.any() and (1 - z).any()):
        raise ValueError("both arms must be non-empty")
    return x, z.astype(float)


def _loglik(design: np.ndarray, z: np.ndarray, beta: np.ndarray) -> float:
    eta = design @ beta
    # log(1 + exp(eta)) computed stably.
    return float(z @ eta - np.logaddexp(0.0, eta).sum())


def fit_mle(x: np.ndarray, z: np.ndarray) -> PropensityFit:
    """Maximum-likelihood logistic fit by Newton/IRLS.

    Iterates until the gradient max-norm falls below 1e-8 or 100 iterations.
    Separation is flagged (converged=False, warning) when the coefficient
    norm exceeds 1e3 or the likelihood stalls with a non-small gradient.
    """
    x, z = _check_inputs(x, z)
    n, p = x.shape
    design = np.column_stack([np.ones(n), x])
    beta = np.zeros(p + 1)
    converged = False
    separated = False
    last_ll = _loglik(design, z, beta)
    for _ in range(100):
        prob = expit(design @ beta)
        grad = design.T @ (z - prob)
        if np.max(np.abs(grad)) < 1e-8:
            converged = True
            break
        w = prob * (1.0 - prob)
        info = design.T @ (design * w[:, None])
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            info = info + 1e-10 * np.eye(p + 1)
            step = np.linalg.solve(info, grad)
        beta = beta + step
        if not np.isfinite(beta).all():
            separated = True
            break
        ll = _loglik(design, z, beta)
        if np.linalg.norm(beta) > 1e3:
            separated = True
            break
        if abs(ll - last_ll) < 1e-12 and np.max(np.abs(grad)) > 1e-4:
            separated = True
            break
        last_ll = ll
    if not separated and beta[1:].any():
        # expit saturation can zero the gradient at finite beta even though the
        # true MLE is at infinity; perfect in-sample ranking reveals that case
        idx = design @ beta
        if idx[z == 1].min() >= idx[z == 0].max():
            separated = True
    if separated:
        warnings.warn("possible separation in logistic MLE; coefficients unreliable", stacklevel=2)
        converged = False
    scores = _clip_scores(expit(design @ beta))
    return PropensityFit(method=MLE, scores=scores, beta=beta, converged=converged)


# ---------------------------------------------------------------------------
# L1-penalized logistic regression
# ---------------------------------------------------------------------------

# The IRLS weights p(1 - p) are floored at their value for p = 1e-5, so a
# saturated fit keeps curvature in every nonzero column. Only the weights are
# floored: the gradient uses the exact probabilities, so the fixed point is
# the penalized MLE.
_WEIGHT_FLOOR = 1e-5 * (1.0 - 1e-5)


def _l1_coordinate_descent(
    design: np.ndarray, z: np.ndarray, lam: float, beta: np.ndarray, tol: float = 1e-7, max_outer: int = 100
) -> tuple[np.ndarray, bool]:
    """IRLS with covariance-update coordinate descent and an exact finish.

    Minimizes NLL(beta) + lam * sum_{j>=1} |beta_j| (the sum form; the
    intercept, column 0, is never thresholded). Each IRLS step expands the
    log-likelihood to second order at the current beta and forms the Gram
    matrix G = X'WX and the gradient X'(z - p) once; a coordinate update then
    touches only d-vectors: beta_j <- S(g_j + G_jj beta_j, lam) / G_jj and
    g -= G[j] * delta, where g is the gradient of the quadratic model
    (Friedman, Hastie & Tibshirani 2010, covariance updates).

    Once a sweep leaves the signed support unchanged, the step's weighted
    lasso is solved exactly on that support (G_AA delta = g_A - lam * s_A);
    the solution is kept only if its signs agree and every zero coordinate
    has |g_j| <= lam. Otherwise, or when G_AA is singular, the sweeps go on
    until none moves a coefficient by tol (at most 1000 sweeps). IRLS stops
    when a step moves no coefficient by tol (at most max_outer steps). A
    column of zero curvature is all zero; its coefficient stays 0.

    Returns (beta, converged); converged is False when a cap was hit.
    """
    d = design.shape[1]
    lam = float(lam)
    beta = beta.copy()
    for _ in range(max_outer):
        prob = expit(design @ beta)
        gram = design.T @ (design * np.maximum(prob * (1.0 - prob), _WEIGHT_FLOOR)[:, None])
        grad = design.T @ (z - prob)
        curv = np.diag(gram).tolist()
        rows = gram.tolist()
        live = [j for j in range(d) if curv[j] > 0.0]
        b = [v if curv[j] > 0.0 else 0.0 for j, v in enumerate(beta.tolist())]
        g = grad.tolist()
        solved = False
        for _ in range(1000):
            before = [(v > 0.0) - (v < 0.0) for v in b[1:]]
            max_delta = 0.0
            for j in live:
                old = b[j]
                rho = g[j] + curv[j] * old
                new = (rho if j == 0 else _soft_threshold(rho, lam)) / curv[j]
                if new != old:
                    delta = new - old
                    g = [gi - gji * delta for gi, gji in zip(g, rows[j])]
                    b[j] = new
                    max_delta = max(max_delta, abs(delta))
            signs = [(v > 0.0) - (v < 0.0) for v in b[1:]]
            if signs == before:
                exact = _exact_on_support(gram, np.array(g), np.array(b), lam, np.array([0.0] + signs))
                if exact is not None:
                    b, solved = exact, True
                    break
            if max_delta < tol:
                solved = True
                break
        start, beta = beta, np.asarray(b, dtype=float)
        if np.max(np.abs(beta - start)) < tol:
            return beta, solved
    return beta, False


def _exact_on_support(
    gram: np.ndarray, grad: np.ndarray, beta: np.ndarray, lam: float, signs: np.ndarray
) -> np.ndarray | None:
    """Exact minimizer of the quadratic model on a signed support, or None.

    ``grad`` is the model's gradient at ``beta``; the support is the
    intercept plus the coordinates with nonzero ``signs``. The candidate
    solves G_AA delta = grad_A - lam * signs_A and is returned only when G_AA
    is numerically nonsingular (a Cholesky factor exists and its smallest
    pivot exceeds size * eps times the largest diagonal entry), the
    candidate's signs agree with ``signs`` and every coordinate off the
    support has |grad_j| <= lam at the candidate.
    """
    active = np.concatenate(([0], np.flatnonzero(signs)))
    block = gram.take(active, 0).take(active, 1)
    try:
        pivots = np.diag(np.linalg.cholesky(block)) ** 2
    except np.linalg.LinAlgError:
        return None
    if pivots.min() <= np.diag(block).max() * active.size * np.finfo(float).eps:
        return None
    delta = np.linalg.solve(block, grad[active] - lam * signs[active])
    out = beta.copy()
    out[active] += delta
    if not np.array_equal(np.sign(out[active[1:]]), signs[active[1:]]):
        return None
    resid = grad - gram[:, active] @ delta
    resid[active] = 0.0
    if np.max(np.abs(resid[1:])) > lam:
        return None
    return out


def _soft_threshold(value: float, lam: float) -> float:
    if value > lam:
        return value - lam
    if value < -lam:
        return value + lam
    return 0.0


def _binomial_deviance(design: np.ndarray, z: np.ndarray, beta: np.ndarray) -> float:
    return -2.0 * _loglik(design, z, beta)


def _null_gradient(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Log-likelihood gradient in the covariate coefficients at the
    intercept-only fit; every penalty at least its max-norm has the all-zero
    solution."""
    return x.T @ (z - z.mean())


def l1_lambda_grid(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """50 log-spaced penalties from the smallest all-zero penalty down to 1e-3 of it."""
    x, z = _check_inputs(x, z)
    lam_max = float(np.max(np.abs(_null_gradient(x, z))))
    lam_max = max(lam_max, 1e-10)
    return np.geomspace(lam_max, lam_max * 1e-3, 50)


def _distinct_columns(design: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the columns of ``design`` that are not exact
    copies of an earlier column."""
    first: dict[bytes, int] = {}
    for j in range(design.shape[1]):
        first.setdefault(design[:, j].tobytes(), j)
    return np.array(sorted(first.values()))


def _l1_path(x: np.ndarray, z: np.ndarray, penalties: np.ndarray):
    """Solutions at descending penalties, each warm-started from the last.

    Yields (beta, converged) per penalty. A penalty at least the max-norm of
    ``_null_gradient`` gets the intercept-only fit, with every covariate
    coefficient exactly 0, without iterating.

    Columns that exactly copy an earlier column, the intercept included, are
    left out of the solve: with both copies active the Gram matrix would be
    singular and the exact finish could never be taken. Such solutions are
    not unique, since copies may split their coefficient; the one returned
    gives each group of copies' coefficient to its first column and 0 to the
    others, which meets the KKT conditions of the full problem.
    """
    design = np.column_stack([np.ones(len(z)), x])
    keep = _distinct_columns(design)
    if keep.size < design.shape[1]:
        design = design.take(keep, axis=1)
    zero_from = float(np.max(np.abs(_null_gradient(x, z))))
    zbar = z.mean()
    beta = np.zeros(design.shape[1])
    beta[0] = math.log(zbar / (1.0 - zbar))
    for lam in penalties:
        if lam < zero_from:
            beta, converged = _l1_coordinate_descent(design, z, lam, beta)
        else:
            converged = True
        full = np.zeros(x.shape[1] + 1)
        full[keep] = beta
        yield full, converged


def fit_l1(
    x: np.ndarray,
    z: np.ndarray,
    penalties: np.ndarray | None = None,
    folds: int = 10,
    seed: int = 0,
) -> PropensityFit:
    """L1-penalized logistic fit with the penalty chosen by cross-validation.

    The path is computed from the largest penalty down with warm starts; CV
    loss is mean held-out binomial deviance, fold assignment is a seeded
    permutation, and ties prefer the larger (sparser) penalty. The final
    model is refit on the full data at the chosen penalty. Each penalty is
    solved by ``_l1_coordinate_descent`` (IRLS steps of covariance-update
    coordinate descent, finished exactly on a stable signed support);
    penalties at or above the all-zero bound of ``l1_lambda_grid`` give the
    intercept-only fit directly. ``converged`` is False, with a warning, if
    any fit of the folds or of the final path hit an iteration cap.
    """
    x, z = _check_inputs(x, z)
    n = x.shape[0]
    if penalties is None:
        penalties = l1_lambda_grid(x, z)
    penalties = np.asarray(penalties, dtype=float)
    if (penalties < 0).any():
        raise ValueError("penalties must be nonnegative")
    order = np.argsort(penalties)[::-1]  # descending for warm starts
    penalties = penalties[order]
    design = np.column_stack([np.ones(n), x])

    folds = min(folds, n)
    perm = np.random.default_rng(seed).permutation(n)
    fold_of = np.empty(n, dtype=int)
    fold_of[perm] = np.arange(n) % folds

    cv_loss = np.zeros(len(penalties))
    converged = True
    for f in range(folds):
        train = fold_of != f
        test = ~train
        if not (z[train].any() and (1 - z[train]).any()):
            raise ValueError("a CV fold lost one arm entirely; use fewer folds")
        for i, (beta, ok) in enumerate(_l1_path(x[train], z[train], penalties)):
            converged = converged and ok
            cv_loss[i] += _binomial_deviance(design[test], z[test], beta) / test.sum()
    cv_loss /= folds
    best = int(np.flatnonzero(cv_loss == cv_loss.min())[0])  # first index = largest penalty

    path = list(_l1_path(x, z, penalties))
    converged = converged and all(ok for _, ok in path)
    if not converged:
        warnings.warn("L1 coordinate descent hit an iteration cap; penalized fit may be inaccurate", stacklevel=2)
    chosen = path[best][0]
    scores = _clip_scores(expit(design @ chosen))
    return PropensityFit(
        method=L1,
        scores=scores,
        beta=chosen,
        converged=converged,
        diagnostics={
            "penalty": float(penalties[best]),
            "penalties": penalties,
            "cv_loss": cv_loss,
            "path_nonzero": tuple(int(np.count_nonzero(beta[1:])) for beta, _ in path),
            "nonzero": int(np.count_nonzero(chosen[1:])),
            "folds": folds,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# Bayesian logistic regression
# ---------------------------------------------------------------------------

#: Prior sd for the intercept; covariate coefficients get a standard normal.
_INTERCEPT_PRIOR_SD = 10.0

#: Posterior draws scored at a time by ``_posterior_mean_scores``; its two
#: work arrays are this many rows long whatever the draw count.
_SCORE_BLOCK = 256


def _log_posterior(design: np.ndarray, z: np.ndarray, beta: np.ndarray, prior_prec: np.ndarray) -> float:
    return _loglik(design, z, beta) - 0.5 * float(beta @ (prior_prec * beta))


def _posterior_mean_scores(chain: np.ndarray, design: np.ndarray) -> np.ndarray:
    """Mean of expit(design @ beta) over the rows beta of ``chain``.

    Scores ``_SCORE_BLOCK`` draws at a time. A block's linear predictors are
    summed over the design columns in column order, b0*x0 + b1*x1 + ...,
    with elementwise numpy into two preallocated (block, n) buffers. No
    matrix product is formed, so the bytes do not depend on the BLAS build
    or its thread count. The block's rows are then added to one length-n
    sum in draw order. Memory is O(block * n), not O(draws * n).
    """
    columns = np.ascontiguousarray(design.T)
    eta = np.empty((min(_SCORE_BLOCK, len(chain)), design.shape[0]))
    term = np.empty_like(eta)
    total = np.zeros(design.shape[0])
    for start in range(0, len(chain), _SCORE_BLOCK):
        block = chain[start : start + _SCORE_BLOCK]
        probs, part = eta[: len(block)], term[: len(block)]
        np.multiply(block[:, :1], columns[0], out=probs)
        for j in range(1, len(columns)):
            np.multiply(block[:, j : j + 1], columns[j], out=part)
            probs += part
        expit(probs, out=probs)
        for row in probs:
            total += row
    return total / len(chain)


def fit_bayes(
    x: np.ndarray,
    z: np.ndarray,
    draws: int = 4000,
    burn_in: int = 1000,
    seed: int = 0,
    target_acceptance: float = 0.3,
) -> PropensityFit:
    """Bayesian logistic regression under a standard-normal coefficient prior.

    Random-walk Metropolis preconditioned by the Laplace approximation at the
    posterior mode; the step scale adapts toward the target acceptance rate
    during burn-in only, so the retained chain is a valid fixed kernel.
    Fitted scores are posterior means of expit(x'beta) over retained draws,
    computed ``_SCORE_BLOCK`` (256) draws at a time, each linear predictor
    as a fixed-order sum over the design columns, and summed in draw order:
    the scores do not depend on the BLAS thread count, and beyond the
    (draws, p + 1) chain scoring takes O(block * n) memory.

    Raises ``ValueError`` unless ``draws`` is an integer >= 1, ``burn_in``
    an integer >= 0 and ``0 < target_acceptance < 1``.
    """
    counts = (draws, burn_in)
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in counts):
        raise ValueError("draws and burn_in must be integers")
    if draws < 1 or burn_in < 0:
        raise ValueError("draws >= 1 and burn_in >= 0 required")
    if not 0.0 < target_acceptance < 1.0:
        raise ValueError("target_acceptance must lie in (0, 1)")
    x, z = _check_inputs(x, z)
    n, p = x.shape
    design = np.column_stack([np.ones(n), x])
    prior_prec = np.ones(p + 1)
    prior_prec[0] = 1.0 / _INTERCEPT_PRIOR_SD**2

    # Posterior mode by damped Newton; always exists thanks to the prior.
    beta = np.zeros(p + 1)
    for _ in range(50):
        prob = expit(design @ beta)
        grad = design.T @ (z - prob) - prior_prec * beta
        w = prob * (1.0 - prob)
        hess = design.T @ (design * w[:, None]) + np.diag(prior_prec)
        step = np.linalg.solve(hess, grad)
        beta = beta + step
        if np.max(np.abs(step)) < 1e-10:
            break
    prob = expit(design @ beta)
    w = prob * (1.0 - prob)
    hess = design.T @ (design * w[:, None]) + np.diag(prior_prec)
    chol = np.linalg.cholesky(np.linalg.inv(hess))

    rng = np.random.default_rng(seed)
    log_scale = math.log(2.38 / math.sqrt(p + 1))
    current = beta.copy()
    current_lp = _log_posterior(design, z, current, prior_prec)
    kept = np.empty((draws, p + 1))
    accepts_total = 0
    batch_accepts = 0
    for it in range(burn_in + draws):
        proposal = current + math.exp(log_scale) * (chol @ rng.standard_normal(p + 1))
        lp = _log_posterior(design, z, proposal, prior_prec)
        if math.log(rng.random()) < lp - current_lp:
            current, current_lp = proposal, lp
            batch_accepts += 1
            if it >= burn_in:
                accepts_total += 1
        if it < burn_in and (it + 1) % 50 == 0:
            rate = batch_accepts / 50.0
            log_scale += 0.5 * (rate - target_acceptance)
            batch_accepts = 0
        if it >= burn_in:
            kept[it - burn_in] = current

    acceptance = accepts_total / draws
    if not 0.05 <= acceptance <= 0.95:
        warnings.warn(f"Metropolis acceptance rate {acceptance:.3f} outside [0.05, 0.95]", stacklevel=2)
    scores = _clip_scores(_posterior_mean_scores(kept, design))
    return PropensityFit(
        method=BAYES,
        scores=scores,
        beta=kept.mean(axis=0),
        diagnostics={"acceptance": acceptance, "draws": draws, "burn_in": burn_in, "seed": seed},
    )


def fit_bart_propensity(x: np.ndarray, z: np.ndarray, seed: int = 0) -> PropensityFit:
    """Sum-of-trees probit propensity fit; scores are posterior means."""
    from . import bart

    x, z = _check_inputs(x, z)
    scores = _clip_scores(bart.fit_bart_binary(x, z.astype(int), seed=seed))
    return PropensityFit(method=BART, scores=scores, diagnostics={"seed": seed})
