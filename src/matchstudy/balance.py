"""Covariate balance before and after matching.

Matched sets have one treated subject and a variable number of controls, so
control summaries weight each control by 1/(set size - 1): every set
contributes one treated unit and one control unit of weight. Standardized
differences keep the pre-match pooled sd as the denominator so pre and post
rows are on the same scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import BINARY, ORDINAL, CovariateSchema, SubjectTable
from .matching import MatchResult, member_rows

#: Absolute standardized difference above which a covariate is imbalanced.
IMBALANCE_THRESHOLD = 0.2


@dataclass(frozen=True)
class BalanceRow:
    """Balance summary for one covariate (or one ordinal level)."""

    name: str
    treated_mean_pre: float
    control_mean_pre: float
    treated_mean_post: float
    control_mean_post: float
    sd_diff_pre: float
    sd_diff_post: float
    denom: float
    imbalanced: bool


def standardized_difference(
    values_treated: np.ndarray,
    values_control: np.ndarray,
    denom: float,
    control_weights: np.ndarray | None = None,
) -> float:
    """(treated mean - weighted control mean) / denom.

    A zero denominator yields 0.0 when the means agree and +-inf otherwise.
    """
    mt = float(np.mean(values_treated))
    if control_weights is None:
        mc = float(np.mean(values_control))
    else:
        mc = float(np.average(values_control, weights=control_weights))
    diff = mt - mc
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / denom


def pooled_sd(values_treated: np.ndarray, values_control: np.ndarray) -> float:
    """sqrt((sd_T^2 + sd_C^2) / 2) with sample variances."""
    vt = float(np.var(values_treated, ddof=1)) if len(values_treated) > 1 else 0.0
    vc = float(np.var(values_control, ddof=1)) if len(values_control) > 1 else 0.0
    return math.sqrt((vt + vc) / 2.0)


def balance_table(
    table: SubjectTable,
    result: MatchResult,
    threshold: float = IMBALANCE_THRESHOLD,
    schema: CovariateSchema | None = None,
    codes: dict[str, np.ndarray] | None = None,
) -> tuple[BalanceRow, ...]:
    """Pre/post balance rows, one per covariate of ``table``.

    Pre-match moments use every subject in ``table``; post-match moments use
    the match's member rows of ``table``, as its set layout gives them, with
    1/(n_i - 1) control weights. The standardized
    difference denominator is the pre-match pooled sd for both columns. Each
    ordinal covariate of ``schema`` also gets a row ``<name>=<level>`` per
    level, counted on ``codes[name]``: its values on ``table``'s rows before
    scaling (by default ``table``'s column), because a scaled column no
    longer holds its codes.
    """
    treated_pre = table.z == 1
    members, layout = member_rows(table, result)
    t_rows, c_rows = members[layout.starts], members[layout.z == 0]
    c_weights = np.repeat(1.0 / (layout.sizes - 1), layout.sizes - 1)

    rows: list[BalanceRow] = []

    def add_row(name: str, values: np.ndarray) -> None:
        vt_pre = values[treated_pre]
        vc_pre = values[~treated_pre]
        denom = pooled_sd(vt_pre, vc_pre)
        pre = standardized_difference(vt_pre, vc_pre, denom)
        post = standardized_difference(values[t_rows], values[c_rows], denom, c_weights)
        rows.append(
            BalanceRow(
                name=name,
                treated_mean_pre=float(np.mean(vt_pre)),
                control_mean_pre=float(np.mean(vc_pre)),
                treated_mean_post=float(np.mean(values[t_rows])),
                control_mean_post=float(np.average(values[c_rows], weights=c_weights)),
                sd_diff_pre=pre,
                sd_diff_post=post,
                denom=denom,
                imbalanced=abs(post) > threshold,
            )
        )

    for name in table.covariate_names:
        add_row(name, table.covariate(name))
        if schema is not None and name in schema and schema.kind_of(name) == ORDINAL:
            values = table.covariate(name) if codes is None else codes[name]
            for level in next(c.levels for c in schema.covariates if c.name == name):
                add_row(f"{name}={level:g}", (values == level).astype(float))
    return tuple(rows)


def count_imbalanced(rows: tuple[BalanceRow, ...]) -> int:
    """Number of covariates with post-match |sd-diff| above the threshold."""
    return sum(1 for r in rows if r.imbalanced)


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of picking a propensity method by balance."""

    index: int
    meets_bar: bool


def select_match(
    candidates: list[tuple[int, int]],
    max_imbalanced: int = 1,
) -> SelectionResult:
    """Pick a match among (imbalance count, dropped count) candidates.

    Candidates achieving the minimal imbalance count are preferred, with
    fewest dropped subjects as the tie-break and list order (the declared
    method order) breaking exact ties. When even the best candidate exceeds
    ``max_imbalanced`` the choice is best-effort and flagged.
    """
    if not candidates:
        raise ValueError("no candidates to select from")
    best_count = min(c[0] for c in candidates)
    pool = [i for i, c in enumerate(candidates) if c[0] == best_count]
    fewest = min(candidates[i][1] for i in pool)
    index = next(i for i in pool if candidates[i][1] == fewest)
    return SelectionResult(index=index, meets_bar=best_count <= max_imbalanced)
