"""Worst-case inference under bounded unmeasured confounding.

Gamma bounds the odds ratio of treatment between any two members of a
matched set. For each value of a gamma grid the module reports an upper
bound on the one-sided p-value over every within-set assignment
distribution consistent with that bound, via the separable per-set
worst-case construction for residual tests and the extreme Bernoulli model
for event counts. Each bound computes the whole curve in one call: what does
not depend on gamma (the sorted sets, the set margins) is computed once.
gamma_threshold finds where along the grid significance is lost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scipy import ndtr
from .inference import SetLayout, _binary_set_margins, event_tail_probabilities, mh_tail_mode, row_sums

#: Cut-formula entries per temporary in ``_worst_case_moments``: the gamma
#: grid is taken in blocks, so that its (gamma, set, cut) arrays stay bounded.
_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class SensitivityCurve:
    """One-sided worst-case p-value bounds along a gamma grid, with the
    worst-case null mean and variance of the statistic at each gamma."""

    p_values: np.ndarray
    worst_mean: np.ndarray
    worst_var: np.ndarray
    direction: str
    statistic: float


def _gamma_grid(gammas) -> np.ndarray:
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 1 or np.any(gammas < 1.0):
        raise ValueError("gamma must be a 1-D array of values of at least 1")
    return gammas


def _worst_case_moments(laid: np.ndarray, sets: SetLayout, gammas: np.ndarray):
    """Per gamma, the sums over sets of the worst-case (mean, variance) of
    each set's treated draw, for values laid out by ``sets``; the sets of
    each size n form one block.

    The bias-maximizing assignment puts probability gamma/(gamma*a + n - a)
    on each of the a largest values and 1/(gamma*a + n - a) on the rest, for
    some cut a. The cut maximizing the mean is chosen, breaking exact ties
    toward the larger variance. Each block is sorted once; the sums run over
    the sets in layout order, one gamma at a time.
    """
    blocks = []
    # The set sizes of two or more present, ascending (np.unique would import numpy.ma).
    for n in np.flatnonzero(np.bincount(sets.sizes, minlength=2)[2:]) + 2:
        which = np.flatnonzero(sets.sizes == n)
        v = np.sort(laid[sets.starts[which, None] + np.arange(n)], axis=1)[:, ::-1]
        v2 = v * v
        top, top2 = np.cumsum(v, axis=1)[:, :-1], np.cumsum(v2, axis=1)[:, :-1]
        blocks.append((which, n, top, v.sum(axis=1, keepdims=True), top2, v2.sum(axis=1, keepdims=True)))
    singles = np.flatnonzero(sets.sizes == 1)  # each its own treated draw at every gamma
    step = max(1, _BLOCK_ENTRIES // max([which.size * (n - 1) for which, n, *_ in blocks] + [1]))
    mean, var = np.empty(gammas.size), np.empty(gammas.size)
    for lo in range(0, gammas.size, step):
        gamma = gammas[lo : lo + step, None, None]
        mu, nu = np.zeros((gamma.shape[0], len(sets))), np.zeros((gamma.shape[0], len(sets)))
        mu[:, singles] = laid[sets.starts[singles]]
        for which, n, top, total, top2, total2 in blocks:
            a = np.arange(1, n)
            denom = gamma * a + (n - a)
            cut_mu = (gamma * top + (total - top)) / denom
            cut_nu = (gamma * top2 + (total2 - top2)) / denom - cut_mu * cut_mu
            best = np.where(cut_mu == cut_mu.max(axis=2, keepdims=True), cut_nu, -np.inf)
            pick = np.argmax(best, axis=2)[..., None]
            mu[:, which] = np.take_along_axis(cut_mu, pick, axis=2)[..., 0]
            nu[:, which] = np.take_along_axis(cut_nu, pick, axis=2)[..., 0]
        mean[lo : lo + step], var[lo : lo + step] = row_sums(mu), row_sums(nu)
    return mean, var


def _resolve_direction(direction: str, t_obs: float, center: float) -> str:
    if direction in ("greater", "less"):
        return direction
    if direction == "auto":
        return "greater" if t_obs >= center else "less"
    raise ValueError(f"unknown direction {direction!r}")


def sensitivity_residual(
    resid: np.ndarray,
    sets: SetLayout,
    gammas: np.ndarray,
    direction: str = "auto",
) -> SensitivityCurve:
    """Separable worst-case bounds for the treated-residual-sum test on
    residuals laid out by ``sets``, at each of ``gammas``.

    The one-sided bound targets the observed direction (``auto``): the
    biased assignment inflates the null mean toward the statistic and the
    reported p is the upper normal tail of the worst-case deviate. At
    gamma = 1 this is the uniform-assignment normal approximation.
    """
    gammas = _gamma_grid(gammas)
    laid = sets.check(resid, float)
    t_obs = float(laid[sets.starts].sum())
    side = _resolve_direction(direction, t_obs, float(sets.means(laid).sum()))
    sign = 1.0 if side == "greater" else -1.0

    mean, var = _worst_case_moments(sign * laid, sets, gammas)
    p_values = np.ones(gammas.size)
    spread = var > 0.0
    p_values[spread] = ndtr(-((sign * t_obs - mean[spread]) / np.sqrt(var[spread])))
    return SensitivityCurve(p_values, sign * mean, var, side, t_obs)


def sensitivity_mh(
    y: np.ndarray,
    sets: SetLayout,
    gammas: np.ndarray,
    direction: str = "auto",
    mode: str = "auto",
) -> SensitivityCurve:
    """Worst-case Mantel-Haenszel bounds for a 0/1 outcome laid out by
    ``sets``, at each of ``gammas``.

    With one treated draw per set, the treated-event indicator under the
    most biased admissible assignment is Bernoulli with probability
    gamma*d/(gamma*d + n - d) (or the deflated mirror for the lower tail).
    The total-count tail comes from exact convolution up to 200 sets, then
    the continuity-corrected normal.
    """
    gamma = _gamma_grid(gammas)[:, None]
    t, d, n = _binary_set_margins(y, sets)
    t_obs = int(round(float(t.sum())))
    side = _resolve_direction(direction, float(t_obs), float(np.sum(d / n)))
    if side == "greater":
        probs = gamma * d / (gamma * d + (n - d))
    else:
        probs = d / (d + gamma * (n - d))
    upper, lower = event_tail_probabilities(probs, t_obs, mh_tail_mode(mode, sets))
    p_values = upper if side == "greater" else lower
    return SensitivityCurve(p_values, row_sums(probs), row_sums(probs * (1 - probs)), side, float(t_obs))


def gamma_threshold(p_values: np.ndarray, gammas: np.ndarray, alpha: float = 0.05) -> float:
    """The smallest grid gamma whose bound p-value reaches alpha.

    That is 1.0 for a result that is insignificant even without hidden bias,
    and NaN for one that stays significant through the whole grid.
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.size == 0 or gammas[0] != 1.0 or np.any(np.diff(gammas) <= 0):
        raise ValueError("gamma grid must start at 1 and increase")
    if np.shape(p_values) != gammas.shape:
        raise ValueError("need one p-value per grid gamma")
    hit = np.flatnonzero(np.asarray(p_values) >= alpha)
    return float(gammas[hit[0]]) if hit.size else math.nan
