"""Ordered testing across the four comparisons, with FWER control.

The protocol tests the comparisons in a fixed sequence and stops at the
first non-rejection: comparison 1 (treated vs all controls) gates
comparisons 2 and 3 (treated vs each control subgroup), and only if both of
those reject does the control-subgroup equivalence assessment run. Stopping
on non-rejection is what bounds the family-wise error rate at alpha.
Secondary outcomes are handled separately with Benjamini-Hochberg.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COMPARISON_LABELS = (
    "treated vs all controls",
    "treated vs sport controls",
    "treated vs non-sport controls",
    "sport vs non-sport controls",
)


class ProtocolError(ValueError):
    """Inputs inconsistent with the fixed testing sequence."""


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of the confidence-interval-inclusion equivalence test."""

    equivalent: bool
    shown: bool
    hull: tuple[float, float] | None
    margin: float
    empty_region: bool


def equivalence_test(hull: tuple[float, float] | None, margin: float) -> EquivalenceResult:
    """Equivalent iff the accepted hull of a confidence region sits inside the
    open (-margin, margin).

    An empty accepted region (``hull`` None) cannot show equivalence and is
    flagged rather than treated as evidence either way.
    """
    if margin < 0.0:
        raise ValueError("margin must be nonnegative")
    if hull is None:
        return EquivalenceResult(False, False, None, margin, True)
    lo, hi = hull
    equivalent = -margin < lo and hi < margin
    return EquivalenceResult(equivalent, equivalent, hull, margin, False)


@dataclass(frozen=True)
class StageDecision:
    comparison: int
    stage: int
    label: str
    p: float | None
    performed: bool
    reject: bool | None
    note: str = ""


@dataclass(frozen=True)
class ProcedureResult:
    decisions: tuple[StageDecision, ...]
    alpha: float
    stopped_at_stage: int | None

    @property
    def rejections(self) -> tuple[int, ...]:
        return tuple(d.comparison for d in self.decisions if d.performed and d.reject and d.stage < 3)


def ordered_procedure(
    p1: float,
    p2: float | None = None,
    p3: float | None = None,
    equivalence: EquivalenceResult | None = None,
    alpha: float = 0.05,
    labels: tuple[str, str, str, str] = COMPARISON_LABELS,
) -> ProcedureResult:
    """Run the three-stage stopping rule over the four comparisons.

    Later-stage inputs may only be supplied when the earlier stage actually
    rejected; anything else raises ProtocolError so that out-of-sequence
    testing cannot slip through. Stage 2 requires both subgroup p-values;
    if exactly one rejects, both results are reported and the procedure
    stops without the equivalence stage.
    """
    decisions = [StageDecision(1, 1, labels[0], p1, True, p1 <= alpha)]
    if p1 > alpha:
        if p2 is not None or p3 is not None or equivalence is not None:
            raise ProtocolError("stage 1 did not reject; later-stage inputs are out of order")
        decisions += [
            StageDecision(2, 2, labels[1], None, False, None, "not reached"),
            StageDecision(3, 2, labels[2], None, False, None, "not reached"),
            StageDecision(4, 3, labels[3], None, False, None, "not reached"),
        ]
        return ProcedureResult(tuple(decisions), alpha, 1)
    if p2 is None or p3 is None:
        raise ProtocolError("stage 2 was reached; both subgroup p-values are required")
    r2, r3 = p2 <= alpha, p3 <= alpha
    decisions += [
        StageDecision(2, 2, labels[1], p2, True, r2),
        StageDecision(3, 2, labels[2], p3, True, r3),
    ]
    if not (r2 and r3):
        if equivalence is not None:
            raise ProtocolError("stage 2 did not fully reject; the equivalence input is out of order")
        decisions.append(StageDecision(4, 3, labels[3], None, False, None, "not reached"))
        return ProcedureResult(tuple(decisions), alpha, 2)
    if equivalence is None:
        raise ProtocolError("stage 3 was reached; the equivalence result is required")
    note = "equivalent" if equivalence.equivalent else "not shown"
    decisions.append(StageDecision(4, 3, labels[3], None, True, equivalence.equivalent, note))
    return ProcedureResult(tuple(decisions), alpha, None)


def benjamini_hochberg(pvals: np.ndarray) -> np.ndarray:
    """Step-up false-discovery-rate adjustment.

    Sorted p-values are scaled by m/rank and a running minimum from the
    largest down enforces monotonicity; results return in input order.
    """
    p = np.asarray(pvals, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("need a nonempty 1-d p-value vector")
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    # multiply by the ratio so rank m is an exact no-op on the largest p
    scaled = p[order] * (m / np.arange(1, m + 1))
    adjusted = np.minimum(np.minimum.accumulate(scaled[::-1])[::-1], 1.0)
    out = np.empty(m)
    out[order] = adjusted
    return out


def secondary_adjustment(pvals: np.ndarray, threshold: float = 0.05) -> tuple[np.ndarray | None, bool]:
    """Adjust the secondary-outcome p-values only when something crosses the
    reporting threshold; raw values are always reported alongside."""
    p = np.asarray(pvals, dtype=float)
    if not bool((p < threshold).any()):
        return None, False
    return benjamini_hochberg(p), True
