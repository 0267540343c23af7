"""Variable-ratio optimal matching within strata and propensity buckets.

Treated subjects are matched to controls inside cells formed by crossing the
design strata with propensity-score intervals; the interval index k doubles as
the number of controls sought per treated subject (capped at 15). Distances
are rank-based Mahalanobis with a soft propensity caliper. Each cell is solved
to exact optimality by one rectangular linear assignment in which each
treated subject owns up to k identical rows.

The cells of one ``build_match`` call are independent, so their assignment
solves run concurrently on a thread pool with one worker per core this
process may run on (``os.sched_getaffinity``; one worker on one core).
Threads pay here because ``linear_sum_assignment`` releases the GIL. The
main thread builds every cost matrix, largest cell first, and builds the
next one only when a worker is free; the workers only solve and decode.
Every big matrix is allocated on the main thread: glibc gives each thread
its own malloc arena, so matrices built in the workers raised the peak
resident memory. The warning filter around the distances is not thread-safe
and stays on the main thread too. Results are gathered in cell order, so
the output does not depend on the number of workers.

Each cell owns one cost matrix from its distances to the solve.
``rank_mahalanobis`` writes it in the layout the solver takes: C-order
(n_t, n_c) when n_t <= n_c, and the transpose of a C-order (n_c, n_t)
array when n_t > n_c, which the solver would otherwise copy. The caliper
penalty is added to it in place, in blocks of its memory rows, and
``_build_assignment`` scales and rounds it in place and hands it to the
solver as it is. Only a cell whose treated subjects own several rows
allocates a second full-size matrix, the replicated one.

The solver is scipy's ``linear_sum_assignment``, which ``_scipy`` loads
alone from its own extension module, ``scipy.optimize._lsap``, without the
``scipy.optimize`` package.
"""
from __future__ import annotations

import os
import warnings
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from ._scipy import linear_sum_assignment, logit
from .dataset import SubjectTable, ValidationError, finite_number, id_order, missingness_flags, whole_number

#: Largest number of controls a single treated subject can receive.
MAX_CONTROLS = 15

REASON_MISSINGNESS = "missingness-determined"
REASON_COMMON_SUPPORT = "common-support"
REASON_OPTIMAL_DISCARD = "optimal-discard"
REASON_UNMATCHED = "unmatched-leftover"
#: Every reason a ledger line may give.
REASONS = frozenset({REASON_MISSINGNESS, REASON_COMMON_SUPPORT, REASON_OPTIMAL_DISCARD, REASON_UNMATCHED})

#: Distances are scaled to integers (1e-6 resolution) before assignment so the
#: solver's optimum is exact in double precision.
_COST_SCALE = 1e6

#: Memory rows per block of ``apply_caliper``'s penalty, so its temporary
#: stays small next to the distance matrix.
_CALIPER_ROWS = 64


class MatchingError(ValueError):
    """Matching is impossible for the given comparison."""


class SetLayout:
    """Matched sets laid end to end, each with its treated member first.

    An array laid out with it holds set i at ``[starts[i], starts[i] + sizes[i])``
    along its first axis, the treated member at ``starts[i]``. So the layout
    is its own treatment indicator: ``z`` is 1 at the starts and 0 elsewhere.
    """

    def __init__(self, sizes) -> None:
        sizes = np.asarray(sizes)
        if sizes.ndim != 1 or sizes.size == 0 or sizes.dtype.kind not in "iu" or sizes.min() < 1:
            raise ValueError("set sizes must be a non-empty 1-d integer array of values >= 1")
        self.sizes = sizes.astype(np.intp)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.z = np.zeros(int(self.sizes.sum()), dtype=np.int64)
        self.z[self.starts] = 1
        for a in (self.sizes, self.starts, self.z):
            a.flags.writeable = False

    def __len__(self) -> int:
        return self.sizes.size

    def check(self, values, dtype=None) -> np.ndarray:
        """``values`` as an array (of ``dtype``, if given), after checking
        that it has one entry (or row) per member."""
        values = np.asarray(values, dtype=dtype)
        if values.shape[:1] != self.z.shape:
            raise ValueError(f"expected {self.z.size} values laid out by set, got shape {values.shape}")
        return values

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """Per-set views of laid-out values, in set order."""
        return np.split(values, self.starts[1:])

    def means(self, laid: np.ndarray) -> np.ndarray:
        """Per-set means of laid-out values (along axis 0)."""
        return np.add.reduceat(laid, self.starts, axis=0) / self.sizes.reshape((-1,) + (1,) * (laid.ndim - 1))

    def centre(self, laid) -> np.ndarray:
        """Laid-out values less their set means, after ``check``."""
        laid = self.check(laid)
        return laid - np.repeat(self.means(laid), self.sizes, axis=0)


@dataclass(frozen=True)
class MatchCounts:
    """Treated/control breakdowns of the pipeline's subject accounting."""

    n_miss_treated: int
    n_miss_control: int
    n_cs_treated: int
    n_cs_control: int
    n_matched_treated: int
    n_matched_control: int

    @property
    def n_miss(self) -> int:
        return self.n_miss_treated + self.n_miss_control

    @property
    def n_cs(self) -> int:
        return self.n_cs_treated + self.n_cs_control

    @property
    def n_matched(self) -> int:
        return self.n_matched_treated + self.n_matched_control


@dataclass(frozen=True, eq=False)
class MatchResult:
    """One comparison x method match, as rows of the comparison table it was
    built from or loaded against.

    ``members`` holds the sets end to end as ``sets`` lays them out: each
    set's treated row, then its control rows. ``dropped`` holds every other
    row, the ledger, with ``reasons`` parallel to it.
    """

    members: np.ndarray
    sets: SetLayout
    dropped: np.ndarray
    reasons: tuple[str, ...]
    counts: MatchCounts

    @property
    def n_dropped(self) -> int:
        return len(self.dropped)


@dataclass(frozen=True)
class MatchingParams:
    """The matcher's knobs, as the config's ``matching`` section gives them."""

    max_controls: int = MAX_CONTROLS
    caliper_width_sd: float = 0.2
    caliper_penalty: float | None = None

    def __post_init__(self):
        if not (whole_number(self.max_controls) and 1 <= self.max_controls <= MAX_CONTROLS):
            raise ValidationError(f"max_controls must be an integer in 1..{MAX_CONTROLS}")
        if not (finite_number(self.caliper_width_sd) and self.caliper_width_sd > 0):
            raise ValidationError("caliper_width_sd must be positive and finite")
        penalty = self.caliper_penalty
        if penalty is not None and not (finite_number(penalty) and penalty >= 0):
            raise ValidationError("caliper_penalty must be null or finite and >= 0")


def member_rows(table: SubjectTable, result: MatchResult) -> tuple[np.ndarray, SetLayout]:
    """The member rows of a match and their layout, after checking them
    against ``table``, the comparison table the match belongs to.

    Set i occupies ``rows[starts[i] : starts[i] + sizes[i]]`` of the layout,
    its treated row first. Raises ``ValueError`` unless each set's first row,
    and no other, is a treated subject of ``table``; the error names the
    set's first id.
    """
    rows, layout = result.members, result.sets
    wrong = np.flatnonzero(table.z[rows] != layout.z)
    if wrong.size:
        first = layout.starts[np.searchsorted(layout.starts, wrong[0], side="right") - 1]
        raise ValueError(f"matched set {table.ids[rows[first]]!r} must list exactly one treated subject, first")
    return rows, layout


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def rank_mahalanobis(x_treated: np.ndarray, x_control: np.ndarray) -> np.ndarray:
    """Rank-based Mahalanobis distances, shape (n_treated, n_control), in
    the assignment solver's layout: a C-contiguous array when n_treated <=
    n_control, and otherwise the transpose of a C-contiguous (n_control,
    n_treated) array.

    Columns are converted to average ranks over the pooled sample; the rank
    covariance (ddof=1) is regularized by adding 1e-8 * trace/p to the
    diagonal. Covariates that are constant in the pooled sample carry no rank
    information and are dropped with a warning. A NaN or infinite value
    raises ``ValueError`` naming its column: it has no rank, and missing
    values are imputed before matching.

    The ranks are centred on their pooled mean and whitened with the
    eigendecomposition of the regularized covariance, so each distance is the
    squared Euclidean distance between two whitened rows. Small cells
    (n <= p + 1) have a singular rank covariance that only the ridge keeps
    invertible; there a quadratic form on uncentred ranks loses about 1e-6 to
    cancellation, a whole unit of the integer assignment cost, while the
    whitened form stays within 1e-11 of exact rational arithmetic.

    The cross products come from one matrix product written in the result's
    memory layout: whitened treated rows times control rows, or, when n_t >
    n_c, control rows times treated rows, whose entries may differ from the
    other order's in the last bit. The squared norms are then added to it in
    place, so memory is O(n * p) besides the result.
    """
    x_treated = np.atleast_2d(np.asarray(x_treated, dtype=float))
    x_control = np.atleast_2d(np.asarray(x_control, dtype=float))
    n_t, n_c = x_treated.shape[0], x_control.shape[0]
    transposed = n_t > n_c
    pooled = np.vstack([x_treated, x_control])
    finite = np.isfinite(pooled).all(axis=0)
    if not finite.all():
        raise ValueError(f"non-finite value in distance covariate column {int(np.argmin(finite))}")
    ranks = _average_ranks(pooled)
    spread = ranks.max(axis=0) - ranks.min(axis=0)
    keep = spread > 0
    if not keep.all():
        warnings.warn(f"{int((~keep).sum())} constant covariate(s) dropped from the distance", stacklevel=2)
    ranks = ranks[:, keep]
    if ranks.shape[1] == 0 or pooled.shape[0] < 2:
        return np.zeros((n_c, n_t)).T if transposed else np.zeros((n_t, n_c))
    centred = ranks - ranks.mean(axis=0)
    cov = centred.T @ centred / (pooled.shape[0] - 1)
    p = cov.shape[0]
    cov[np.diag_indices(p)] += np.trace(cov) / p * 1e-8
    evals, evecs = np.linalg.eigh(cov)
    white = centred @ (evecs / np.sqrt(evals))
    wt, wc = white[:n_t], white[n_t:]
    dist = (wc @ wt.T).T if transposed else wt @ wc.T
    dist *= -2.0
    dist += np.einsum("ij,ij->i", wt, wt)[:, None]
    dist += np.einsum("ij,ij->i", wc, wc)[None, :]
    return np.maximum(dist, 0.0, out=dist)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks down each column of ``x``; tied values share the mean
    of their positions.

    Each tie group starting at sorted position ``first`` with ``count``
    members gets ``first + (count - 1) / 2 + 1``, an exact half-integer, so
    the order of equal values inside the sort does not matter and the fast
    unstable sort serves.
    """
    cols = x.T
    order = np.argsort(cols, axis=1)
    ordered = np.take_along_axis(cols, order, axis=1)
    starts = np.empty(ordered.shape, dtype=bool)
    starts[:, :1] = True
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=starts[:, 1:])
    first = np.flatnonzero(starts)
    count = np.diff(first, append=ordered.size)
    ranks = np.repeat(first % ordered.shape[1] + (count - 1) / 2.0 + 1.0, count).reshape(ordered.shape)
    out = np.empty(ordered.shape)
    np.put_along_axis(out, order, ranks, axis=1)
    return out.T


def apply_caliper(
    dist: np.ndarray,
    scores_treated: np.ndarray,
    scores_control: np.ndarray,
    width_sd: float = 0.2,
    penalty: float | None = None,
    scale_scores: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Add a soft propensity caliper on the logit scale.

    Pairs whose logit-score gap exceeds ``width_sd`` standard deviations of
    the logit scores pay ``penalty`` per unit of excess; matches are penalized
    rather than forbidden, so feasibility is preserved. The sd is taken over
    ``scale_scores`` when provided (e.g. the whole comparison) and otherwise
    over the pooled scores given here. Default penalty: 1000 x mean distance.
    The mean is numpy's pairwise sum over the distances in their memory
    order, so on a transposed layout it sums them control row by control
    row; the same distances in the two layouts may give penalties that
    differ in the last bit.

    The result goes to ``out`` when it is given, which may be ``dist`` itself
    (``build_match`` adds the caliper to its distances in place), and
    otherwise to a new array with the memory layout of ``dist``; ``dist`` is
    modified only when it is ``out``. The penalty is added in blocks of
    memory rows (treated rows, or control rows of a transposed layout), so
    the temporaries stay small next to the distance matrix.
    """
    lt = logit(np.asarray(scores_treated, dtype=float))
    lc = logit(np.asarray(scores_control, dtype=float))
    pool = logit(np.asarray(scale_scores, dtype=float)) if scale_scores is not None else np.concatenate([lt, lc])
    sd = float(np.std(pool, ddof=1)) if pool.size > 1 else 0.0
    width = width_sd * sd
    dist = np.asarray(dist)
    if penalty is None:
        penalty = 1000.0 * float(dist.mean()) if dist.size else 0.0
    if out is None:
        out = np.array(dist, dtype=np.result_type(dist, np.float64), order="K")
    elif out.shape != dist.shape:
        raise ValueError("out must have the shape of dist")
    elif out is not dist:
        np.copyto(out, dist)
    # |a - b| equals |b - a| exactly, so either arm may index the blocks.
    rows, a, b = (out.T, lc, lt) if out.T.flags.c_contiguous and not out.flags.c_contiguous else (out, lt, lc)
    buffer = np.empty((min(_CALIPER_ROWS, rows.shape[0]), rows.shape[1]))
    for start in range(0, rows.shape[0], _CALIPER_ROWS):
        block = rows[start : start + _CALIPER_ROWS]
        excess = buffer[: block.shape[0]]
        np.subtract(a[start : start + _CALIPER_ROWS, None], b[None, :], out=excess)
        np.abs(excess, out=excess)
        excess -= width
        np.maximum(excess, 0.0, out=excess)
        excess *= penalty
        block += excess
    return out


def trim_common_support(scores: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Row indices falling outside the arms' overlapping score range.

    Treated subjects scoring below every control and controls scoring above
    every treated subject are dropped. Raises when the trim would empty an
    arm.
    """
    scores = np.asarray(scores, dtype=float)
    z = np.asarray(z)
    treated = z == 1
    if not treated.any() or treated.all():
        raise MatchingError("both arms are required for common-support trimming")
    min_control = scores[~treated].min()
    max_treated = scores[treated].max()
    drop = (treated & (scores < min_control)) | (~treated & (scores > max_treated))
    if (treated & ~drop).sum() == 0 or (~treated & ~drop).sum() == 0:
        raise MatchingError("common-support trim emptied an arm")
    return np.flatnonzero(drop)


# Interval boundaries 1/16 < 1/15 < ... < 1/3; index k counts strictly smaller
# boundaries, and the bucket is 15 - k.
_INTERVAL_BOUNDS = np.array([1.0 / n for n in range(16, 2, -1)])


def propensity_interval(scores):
    """Propensity bucket: 1 for scores above 1/3, then (1/(k+2), 1/(k+1)]
    maps to k up to the closed bottom bucket [0, 1/16] -> 15.

    Accepts a scalar or an array; the bucket index is also the number of
    controls sought for a treated subject with that score.
    """
    s = np.asarray(scores, dtype=float)
    if np.any((s < 0.0) | (s > 1.0)):
        raise ValueError("scores must lie in [0, 1]")
    k = 15 - np.searchsorted(_INTERVAL_BOUNDS, s, side="left")
    return int(k) if np.isscalar(scores) or s.ndim == 0 else k.astype(int)


# ---------------------------------------------------------------------------
# Per-cell optimal assignment
# ---------------------------------------------------------------------------


def match_bucket(
    dist: np.ndarray,
    treated_ids: tuple[str, ...],
    control_ids: tuple[str, ...],
    k: int,
) -> tuple[list[tuple[str, tuple[str, ...]]], list[tuple[str, str]]]:
    """Optimally match one cell at ratio up to 1:k.

    One rectangular assignment on integer-scaled costs gives each treated
    subject between 1 and k controls. Every treated subject owns
    ``copies = max(1, min(k, n_c - n_t + 1))`` identical rows, and a row
    assigned to a real control joins that control to the row's owner. The
    solver fills min(rows, n_c) entries, so:

    * with k*n_t <= n_c controls, every treated subject gets exactly k
      controls and the leftover controls are discarded optimally;
    * with fewer controls than treated subjects (one row each), the cell is
      optimal pairs and the surplus treated subjects are discarded;
    * in between, every control is used and every treated subject gets at
      least one. Where the rows outnumber the controls, dummy columns take
      the extra rows; a dummy costs 0 except on a subject's first row, where
      it costs more than any feasible real total.

    The solve gives the cell's label vector: for each control in id order,
    the id rank of the treated subject it joins, or n_t when it is
    discarded. Ties among optimal matches are broken by one canonical rule:
    take the optimum whose label vector is lexicographically smallest. The
    rule is folded into the integer costs as a secondary cost, which needs
    every assignment total the solver can form to stay below 2**53 so that
    float64 holds it exactly. The secondary cost grows as (n_t + 1)**n_c, so
    the bound holds only in small cells, up to about a dozen controls (fewer
    when caliper penalties make the costs large). In larger cells the costs
    are not folded, and the solver's choice among tied optima stands.

    Returns (sets, dropped) where sets pair each matched treated id with its
    control ids and dropped lists (id, reason) rows: the treated subjects
    without a control, then the controls no row took. Whatever the order of
    the arguments, the output is in id order: the sets by treated id, each
    set's controls by id, and each arm's dropped subjects by id. This is
    ``build_match``'s decode of the same label vector, on ids in place of
    table rows. ``dist`` is not modified: the build works on a copy, taken in
    id order and in the solver's layout.
    """
    n_t, n_c = len(treated_ids), len(control_ids)
    if np.shape(dist) != (n_t, n_c):
        raise ValueError("distance matrix shape must be (n_treated, n_control)")
    t, c = id_order(treated_ids), id_order(control_ids)
    treated = np.array([treated_ids[i] for i in t], dtype=object)
    controls = np.array([control_ids[j] for j in c], dtype=object)
    if n_t == 0 or n_c == 0:
        return [], [(s, REASON_UNMATCHED) for s in treated.tolist() + controls.tolist()]
    dist = np.asarray(dist, dtype=float)
    # A copy in id order and in the solver's layout, for the build to work on.
    cost = dist.T[np.ix_(c, t)].T if n_t > n_c else dist[np.ix_(t, c)]
    labels = _solve_assignment(_build_assignment(cost, k))
    members, sizes, dropped = _decode(labels, treated, controls)
    members = members.tolist()
    starts = (np.cumsum(sizes) - sizes).tolist()
    sets = [(members[s], tuple(members[s + 1 : s + n])) for s, n in zip(starts, sizes.tolist())]
    return sets, [(s, REASON_OPTIMAL_DISCARD) for s in dropped.tolist()]


@dataclass(frozen=True)
class _Assignment:
    """One cell's assignment problem, ready for the solver.

    Row r of ``matrix`` belongs to treated subject ``r // copies`` and column
    c < n_c is control c; later columns are dummies. A ``transposed`` matrix
    has the controls as rows and the treated subjects as columns. Both arms
    are in id order.
    """

    matrix: np.ndarray
    transposed: bool
    copies: int
    n_t: int
    n_c: int


def _build_assignment(dist: np.ndarray, k: int) -> _Assignment:
    """The assignment matrix of a non-empty cell, as ``match_bucket`` documents
    it. Rows and columns must be in id order.

    The build works in place: ``dist`` must be a writable float64 array in
    the layout ``rank_mahalanobis`` returns, C-contiguous when n_t <= n_c
    and the transpose of a C-contiguous array when n_t > n_c, and it is
    scaled and rounded into the integer costs. Min and max reductions check
    it for NaN, infinite and negative entries without allocating. A cell
    with one row per treated subject hands ``dist`` itself to the solver, as
    the transposed C-contiguous (n_c, n_t) array when n_t > n_c; the solver
    transposes a tall matrix itself, so the pairs are the same. A cell whose
    treated subjects own several rows allocates the replicated matrix, and
    a cell small enough for the tie-rule fold gets folded costs in a new
    array.
    """
    n_t, n_c = dist.shape
    transposed = n_t > n_c
    if not (
        dist.dtype == np.float64
        and dist.flags.writeable
        and (dist.T if transposed else dist).flags.c_contiguous
    ):
        raise ValueError("distances must be a writable float64 array in the solver's layout")
    if not (dist.min() >= 0.0 and dist.max() < np.inf):
        raise ValueError("distances must be finite and non-negative")
    np.multiply(dist, _COST_SCALE, out=dist)
    np.round(dist, out=dist)
    # No assignment takes more than max(n_c, k * n_t) entries.
    cost = _fold_tie_rule(dist, max(n_c, k * n_t))
    if transposed:
        return _Assignment(np.ascontiguousarray(cost.T), True, 1, n_t, n_c)

    copies = max(1, min(k, n_c - n_t + 1))
    if copies == 1:
        return _Assignment(cost, False, 1, n_t, n_c)
    n_rows = n_t * copies
    # Where the rows outnumber the controls, dummy columns square the matrix.
    # Their finite forbidden cost exceeds any feasible real total, so it is
    # never paid. It is taken before the replicated matrix exists, so the
    # sorted copy of the costs does not add to the peak.
    forbidden = float(np.sort(cost, axis=None)[-n_c:].sum()) + 1.0 if n_rows > n_c else 0.0
    matrix = np.zeros((n_rows, max(n_rows, n_c)))
    for copy in range(copies):
        matrix[copy::copies, :n_c] = cost
    matrix[::copies, n_c:] = forbidden
    return _Assignment(matrix, False, copies, n_t, n_c)


def _cell_assignment(
    x_treated: np.ndarray,
    x_control: np.ndarray,
    scores_treated: np.ndarray,
    scores_control: np.ndarray,
    k: int,
    params: MatchingParams,
    scale_scores: np.ndarray,
) -> _Assignment:
    """One cell's assignment matrix, built on the main thread of
    ``build_match``: the distances, the caliper added to them in place, and
    the integer costs scaled and rounded in place, all in one array. Both
    arms must be in id order."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant-column drops are routine in small cells
        dist = rank_mahalanobis(x_treated, x_control)
    apply_caliper(
        dist,
        scores_treated,
        scores_control,
        width_sd=params.caliper_width_sd,
        penalty=params.caliper_penalty,
        scale_scores=scale_scores,
        out=dist,
    )
    return _build_assignment(dist, k)


def _solve_assignment(cell: _Assignment) -> np.ndarray:
    """Solve one built cell into its label vector: for each control in id
    order, the position of the treated subject it joins, or n_t when it is
    discarded. Runs on the worker threads of ``build_match``."""
    rows, cols = linear_sum_assignment(cell.matrix)
    if cell.transposed:
        rows, cols = cols, rows
    real = cols < cell.n_c
    labels = np.full(cell.n_c, cell.n_t, dtype=np.intp)
    labels[cols[real]] = rows[real] // cell.copies
    return labels


def _decode(labels: np.ndarray, treated: np.ndarray, controls: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A cell's sets from its label vector. ``treated`` and ``controls`` hold
    the cell's subjects in id order, as table rows or as ids.

    Returns (members, sizes, dropped): the sets end to end, each its treated
    subject, then its controls in id order; each set's size; and the treated
    subjects without a control, then the discarded controls. A stable sort of
    the labels groups the controls by treated subject and keeps id order
    inside each group, so the discarded controls, labelled n_t, come last.
    """
    n_t = treated.size
    counts = np.bincount(labels, minlength=n_t + 1)
    joined = np.argsort(labels, kind="stable")
    n_joined = labels.size - counts[n_t]
    matched = counts[:n_t] > 0
    sizes = counts[:n_t][matched] + 1
    first = np.zeros(n_joined + sizes.size, dtype=bool)
    first[np.cumsum(sizes) - sizes] = True
    members = np.empty(first.size, dtype=controls.dtype)
    members[first] = treated[matched]
    members[~first] = controls[joined[:n_joined]]
    return members, sizes, np.concatenate([treated[~matched], controls[joined[n_joined:]]])


def _fold_tie_rule(cost: np.ndarray, max_rows: int) -> np.ndarray:
    """Integer costs with ``match_bucket``'s tie rule folded in, or ``cost``
    unchanged when a total the solver forms could reach 2**53.

    Rows and columns are in id order. With base = n_t + 1, primary costs are
    scaled by base**n_c, and giving control c to treated t adds (t - n_t) *
    base**(n_c - 1 - c). A match's secondary total is then its label vector
    read as a base-(n_t + 1) number, less a constant, and it is below the
    primary scale, so it orders only matches of equal primary cost. The result is
    shifted to a zero minimum; every assignment of a cell fills the same
    number of real entries, so the shift moves all feasible totals alike.
    ``max_rows`` bounds the number of entries an assignment takes.
    """
    n_t, n_c = cost.shape
    base = n_t + 1
    scale = base**n_c
    low = int(cost.min())
    span = (int(cost.max()) - low + 1) * scale
    # A forbidden dummy entry of match_bucket is at most n_c * span + 1.
    if max_rows * (n_c * span + 1) >= 2**53:
        return cost
    place = base ** (n_c - 1 - np.arange(n_c))
    folded = (cost.astype(np.int64) - low) * scale + (np.arange(n_t) - n_t)[:, None] * place[None, :]
    return (folded - folded.min()).astype(float)


# ---------------------------------------------------------------------------
# Full pipeline for one comparison x method
# ---------------------------------------------------------------------------


def build_match(table: SubjectTable, scores, params: MatchingParams = MatchingParams()) -> MatchResult:
    """Run the matching pipeline: missingness-determined drop, common-support
    trim, stratum x interval cells, per-cell optimal assignment.

    ``scores`` are the propensity scores of the ``table`` rows. The result
    holds rows of ``table``: every row lands either in a matched set or in
    the ledger with a reason. Whatever the row order of ``table``, the output
    is in id order: the sets come in cell order (stratum, then interval),
    each cell's by treated id with its controls by id, and the ledger lists
    each step's drops by id. Each cell's label vector is decoded straight
    into rows, as ``match_bucket`` decodes it into ids. Raises
    ``MatchingError`` when no cell holds both arms.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (table.n,):
        raise ValueError("scores must align with the table rows")

    # The subjects' rows in id order; every step below keeps that order.
    rows = id_order(table.ids)
    determined = missingness_flags(table).any(axis=1)[rows]
    ledger = [(rows[determined], REASON_MISSINGNESS)]
    rows = rows[~determined]
    trim = trim_common_support(scores[rows], table.z[rows])
    ledger.append((rows[trim], REASON_COMMON_SUPPORT))
    rows = np.delete(rows, trim)
    kept_scores = scores[rows]

    # A stable sort by cell keeps the id order inside each cell.
    labels, stratum = np.unique(np.asarray(table.stratum, dtype=object)[rows], return_inverse=True)
    intervals = np.minimum(propensity_interval(kept_scores), params.max_controls)
    cell_of = stratum * (MAX_CONTROLS + 1) + intervals
    by_cell = np.argsort(cell_of, kind="stable")
    cells: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
    for part in np.split(by_cell, np.flatnonzero(np.diff(cell_of[by_cell])) + 1):
        cell_rows = rows[part]
        treated = table.z[cell_rows] == 1
        cells[labels[stratum[part[0]]], int(intervals[part[0]])] = (cell_rows[treated], cell_rows[~treated])

    # Largest cells first, so the longest solves start early. A matrix is
    # built only when a worker is free, so at most workers + 1 cells hold one.
    solvable = [key for key, parts in cells.items() if all(len(part) for part in parts)]
    if not solvable:
        raise MatchingError("no stratum x interval cell holds both arms")
    solvable.sort(key=lambda key: len(cells[key][0]) * len(cells[key][1]) * key[1], reverse=True)
    solves = {}
    workers = _worker_count()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        running: set = set()
        for key in solvable:
            t_rows, c_rows = cells[key]
            while len(running) >= workers:
                _, running = wait(running, return_when=FIRST_COMPLETED)
            # The worker holds the only reference to the built matrix.
            cell = _cell_assignment(
                table.covariates[t_rows],
                table.covariates[c_rows],
                scores[t_rows],
                scores[c_rows],
                key[1],
                params,
                kept_scores,
            )
            solves[key] = pool.submit(_solve_assignment, cell)
            del cell
            running.add(solves[key])

    members, sizes = [], []
    for key, (t_rows, c_rows) in cells.items():
        if key not in solves:
            ledger += [(t_rows, REASON_UNMATCHED), (c_rows, REASON_UNMATCHED)]
            continue
        cell_members, cell_sizes, cell_dropped = _decode(solves[key].result(), t_rows, c_rows)
        members.append(cell_members)
        sizes.append(cell_sizes)
        ledger.append((cell_dropped, REASON_OPTIMAL_DISCARD))

    layout = SetLayout(np.concatenate(sizes))
    dropped = np.concatenate([part for part, _ in ledger])
    reasons = tuple(reason for part, reason in ledger for _ in range(part.size))
    if layout.z.size + dropped.size != table.n:
        raise AssertionError("subject accounting failed: sets + dropped != input")
    return MatchResult(
        np.concatenate(members), layout, dropped, reasons, match_counts(table, layout, dropped, reasons)
    )


def match_counts(table: SubjectTable, sets: SetLayout, dropped: np.ndarray, reasons: Sequence[str]) -> MatchCounts:
    """The subject accounting of a match: treated and control subjects in the
    ledger for missingness and for common support, and in the matched sets.
    ``dropped`` holds rows of ``table``, the comparison table of the match,
    with ``reasons`` parallel to it."""
    treated = table.z[dropped] == 1
    reasons = np.array(reasons, dtype=object)

    def tally(reason: str, arm: np.ndarray) -> int:
        return int(np.count_nonzero((reasons == reason) & arm))

    return MatchCounts(
        n_miss_treated=tally(REASON_MISSINGNESS, treated),
        n_miss_control=tally(REASON_MISSINGNESS, ~treated),
        n_cs_treated=tally(REASON_COMMON_SUPPORT, treated),
        n_cs_control=tally(REASON_COMMON_SUPPORT, ~treated),
        n_matched_treated=len(sets),
        n_matched_control=sets.z.size - len(sets),
    )


def composition(result: MatchResult) -> dict[int, int]:
    """Count matched sets by number of controls, 1 through 15."""
    counts = np.bincount(result.sets.sizes - 1, minlength=MAX_CONTROLS + 1)
    return {k: int(counts[k]) for k in range(1, counts.size)}


def _worker_count() -> int:
    """Cores this process may run on; the CPU count where the platform
    cannot tell."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
