"""Worst-case inference under bounded unmeasured confounding.

Gamma bounds the odds ratio of treatment between any two members of a
matched set. For each value of gamma the module reports an upper bound on
the p-value over every within-set assignment distribution consistent with
that bound, via the separable per-set worst-case construction for residual
tests and the extreme Bernoulli model for event counts. gamma_threshold
walks a grid to find where significance is lost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._scipy import ndtr
from .inference import SetLayout, _binary_set_margins, event_tail_probabilities, mh_tail_mode


@dataclass(frozen=True)
class SensitivityBound:
    """Worst-case p-value bound at one gamma."""

    gamma: float
    p_one_sided: float
    p_two_sided: float
    direction: str
    statistic: float
    method: str
    detail: dict = field(default_factory=dict)


def _worst_case_moments(laid: np.ndarray, sets: SetLayout, gamma: float):
    """Worst-case (mean, variance) of each set's treated draw, for values
    laid out by ``sets``; the sets of each size n form one block.

    The bias-maximizing assignment puts probability gamma/(gamma*a + n - a)
    on each of the a largest values and 1/(gamma*a + n - a) on the rest, for
    some cut a. The cut maximizing the mean is chosen, breaking exact ties
    toward the larger variance.
    """
    mu, nu = np.zeros(len(sets)), np.zeros(len(sets))
    # The set sizes present, ascending (np.unique would import numpy.ma).
    for n in np.flatnonzero(np.bincount(sets.sizes)):
        which = np.flatnonzero(sets.sizes == n)
        v = np.sort(laid[sets.starts[which, None] + np.arange(n)], axis=1)[:, ::-1]
        if n == 1:
            mu[which] = v[:, 0]
            continue
        a = np.arange(1, n)
        denom = gamma * a + (n - a)
        top, top2 = np.cumsum(v, axis=1)[:, :-1], np.cumsum(v * v, axis=1)[:, :-1]
        cut_mu = (gamma * top + (v.sum(axis=1, keepdims=True) - top)) / denom
        cut_nu = (gamma * top2 + ((v * v).sum(axis=1, keepdims=True) - top2)) / denom - cut_mu * cut_mu
        pick = np.argmax(np.where(cut_mu == cut_mu.max(axis=1, keepdims=True), cut_nu, -np.inf), axis=1)
        block = np.arange(which.size)
        mu[which], nu[which] = cut_mu[block, pick], cut_nu[block, pick]
    return mu, nu


def _resolve_direction(direction: str, t_obs: float, center: float) -> str:
    if direction in ("greater", "less"):
        return direction
    if direction == "auto":
        return "greater" if t_obs >= center else "less"
    raise ValueError(f"unknown direction {direction!r}")


def sensitivity_residual(
    resid: np.ndarray,
    sets: SetLayout,
    gamma: float,
    direction: str = "auto",
) -> SensitivityBound:
    """Separable worst-case bound for the treated-residual-sum test on
    residuals laid out by ``sets``.

    The one-sided bound targets the observed direction (``auto``): the
    biased assignment inflates the null mean toward the statistic and the
    reported p is the upper normal tail of the worst-case deviate. At
    gamma = 1 this is the uniform-assignment normal approximation.
    """
    if gamma < 1.0:
        raise ValueError("gamma must be at least 1")
    laid = sets.check(resid, float)
    t_obs = float(laid[sets.starts].sum())
    center = float(sets.means(laid).sum())
    side = _resolve_direction(direction, t_obs, center)
    sign = 1.0 if side == "greater" else -1.0

    mu, nu = _worst_case_moments(sign * laid, sets, gamma)
    mu_total, nu_total = float(mu.sum()), float(nu.sum())
    if nu_total <= 0.0:
        p_one = 1.0
        deviate = 0.0
    else:
        deviate = (sign * t_obs - mu_total) / math.sqrt(nu_total)
        p_one = float(ndtr(-deviate))
    return SensitivityBound(
        gamma=gamma,
        p_one_sided=p_one,
        p_two_sided=min(1.0, 2.0 * p_one),
        direction=side,
        statistic=t_obs,
        method="separable-normal",
        detail={"worst_mean": sign * mu_total, "worst_var": nu_total, "deviate": deviate},
    )


def sensitivity_mh(
    y: np.ndarray,
    sets: SetLayout,
    gamma: float,
    direction: str = "auto",
    mode: str = "auto",
) -> SensitivityBound:
    """Worst-case Mantel-Haenszel bound for a 0/1 outcome laid out by ``sets``.

    With one treated draw per set, the treated-event indicator under the
    most biased admissible assignment is Bernoulli with probability
    gamma*d/(gamma*d + n - d) (or the deflated mirror for the lower tail).
    The total-count tail comes from exact convolution up to 200 sets, then
    the continuity-corrected normal.
    """
    if gamma < 1.0:
        raise ValueError("gamma must be at least 1")
    t, d, n = _binary_set_margins(y, sets)
    t_obs = int(round(float(t.sum())))
    side = _resolve_direction(direction, float(t_obs), float(np.sum(d / n)))
    mode = mh_tail_mode(mode, sets)
    if side == "greater":
        probs = gamma * d / (gamma * d + (n - d))
        p_one = event_tail_probabilities(probs, t_obs, mode)[0]
    else:
        probs = d / (d + gamma * (n - d))
        p_one = event_tail_probabilities(probs, t_obs, mode)[1]
    return SensitivityBound(
        gamma=gamma,
        p_one_sided=min(p_one, 1.0),
        p_two_sided=min(1.0, 2.0 * p_one),
        direction=side,
        statistic=float(t_obs),
        method=f"extreme-bernoulli-{mode}",
        detail={"worst_mean": float(probs.sum()), "worst_var": float((probs * (1 - probs)).sum())},
    )


@dataclass(frozen=True)
class GammaCurve:
    """Bound p-values along a gamma grid with the sensitivity threshold.

    ``threshold`` is the smallest grid gamma whose bound reaches alpha, NaN
    when the result stays significant through the whole grid
    (``beyond_grid``). ``insignificant_at_one`` marks results that fail even
    without any hidden bias.
    """

    gammas: np.ndarray
    p_values: np.ndarray
    alpha: float
    threshold: float
    insignificant_at_one: bool
    beyond_grid: bool


def gamma_threshold(compute_p, gammas: np.ndarray, alpha: float = 0.05) -> GammaCurve:
    """Locate the gamma at which ``compute_p`` first reaches alpha along ``gammas``."""
    gammas = np.asarray(gammas, dtype=float)
    if gammas.size == 0 or gammas[0] != 1.0 or np.any(np.diff(gammas) <= 0):
        raise ValueError("gamma grid must start at 1 and increase")
    p_values = np.array([float(compute_p(g)) for g in gammas])
    hit = np.flatnonzero(p_values >= alpha)
    if hit.size == 0:
        return GammaCurve(gammas, p_values, alpha, math.nan, False, True)
    first = int(hit[0])
    return GammaCurve(gammas, p_values, alpha, float(gammas[first]), first == 0, False)
