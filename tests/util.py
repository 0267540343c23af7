"""Shared builders for the test suite."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np

import matchstudy
from matchstudy.dataset import SubjectTable
from matchstudy.inference import covariance_adjust, permutational_t_test
from matchstudy.matching import MatchCounts, MatchResult, SetLayout


def make_table(
    z,
    covariates,
    covariate_names=None,
    stratum=None,
    ids=None,
    outcomes=None,
    outcome_names=(),
    group=None,
) -> SubjectTable:
    z = np.asarray(z, dtype=np.int64)
    covariates = np.asarray(covariates, dtype=float)
    if covariates.ndim == 1:
        covariates = covariates[:, None]
    n, p = covariates.shape
    if covariate_names is None:
        covariate_names = tuple(f"x{j + 1}" for j in range(p))
    if ids is None:
        ids = tuple(f"s{i:03d}" for i in range(n))
    if stratum is None:
        stratum = ("a",) * n
    if outcomes is None:
        outcomes = np.empty((0, 0)) if not outcome_names else np.zeros((n, len(outcome_names)))
    else:
        outcomes = np.asarray(outcomes, dtype=float)
        if outcomes.ndim == 1:
            outcomes = outcomes[:, None]
    return SubjectTable(
        ids=tuple(ids),
        z=z,
        stratum=tuple(stratum),
        covariate_names=tuple(covariate_names),
        covariates=covariates,
        outcome_names=tuple(outcome_names),
        outcomes=outcomes,
        group=group,
    )


def random_matched_instance(rng, n_sets, max_controls=3, values=None):
    """Residuals laid out by ``n_sets`` sets of 2..max_controls+1 members,
    and their ``SetLayout``."""
    resid = []
    sizes = []
    for _ in range(n_sets):
        size = int(rng.integers(2, max_controls + 2))
        if values is None:
            vals = rng.normal(size=size)
        else:
            vals = rng.choice(values, size=size)
        resid.extend(vals.tolist())
        sizes.append(size)
    return np.asarray(resid), SetLayout(np.array(sizes))


def index_sets(layout):
    """The per-set index arrays of a layout: the input of the brute-force
    references, which take a treatment indicator and index arrays."""
    return tuple(layout.split(np.arange(layout.z.size)))


def lay_out(values, z, sets):
    """A scrambled instance laid out set after set, each set's treated member
    first and its other members in their listed order: the laid values (rows
    along axis 0) and their ``SetLayout``."""
    rows = np.concatenate([np.concatenate([s[z[s] == 1], s[z[s] != 1]]) for s in sets])
    return values[rows], SetLayout(np.array([len(s) for s in sets]))


def match_of(table, row_sets):
    """A match whose sets list the given table rows, the first row of each as
    its treated member, with an empty ledger."""
    sizes = np.array([len(rows) for rows in row_sets])
    members = np.array([r for rows in row_sets for r in rows], dtype=np.intp)
    counts = MatchCounts(0, 0, 0, 0, sizes.size, int(sizes.sum()) - sizes.size)
    return MatchResult(members, SetLayout(sizes), np.empty(0, dtype=np.intp), (), counts)


def id_sets(table, result):
    """A match's sets as (treated id, control ids) pairs, in set order."""
    return [(table.ids[rows[0]], tuple(table.ids[r] for r in rows[1:])) for rows in result.sets.split(result.members)]


def id_ledger(table, result):
    """A match's ledger as (id, reason) pairs, in ledger order."""
    return [(table.ids[r], reason) for r, reason in zip(result.dropped.tolist(), result.reasons)]


def shuffled_matched_instance(rng, n_sets, max_size=16):
    """Residuals, treatment indicator, and set index arrays in a scrambled layout.

    Sets of sizes 2..max_size draw their members from a random permutation of
    the rows, so no set is contiguous or sorted, and the treated member is
    never listed first. Residuals are rounded to one decimal, so values tie
    within and across sets.
    """
    sizes = rng.integers(2, max_size + 1, size=n_sets)
    n = int(sizes.sum())
    sets = tuple(np.split(rng.permutation(n), np.cumsum(sizes)[:-1]))
    z = np.zeros(n, dtype=np.int64)
    for s in sets:
        z[s[rng.integers(1, s.size)]] = 1
    return np.round(rng.normal(size=n), 1), z, sets


def tables_equal(a: SubjectTable, b: SubjectTable) -> bool:
    """Exact equality of two tables (NaN == NaN: both mark a missing value)."""
    if (a.ids, a.stratum, a.covariate_names, a.outcome_names) != (
        b.ids,
        b.stratum,
        b.covariate_names,
        b.outcome_names,
    ):
        return False
    if not np.array_equal(a.z, b.z):
        return False
    if not np.array_equal(a.covariates, b.covariates, equal_nan=True):
        return False
    if not np.array_equal(a.outcomes, b.outcomes, equal_nan=True):
        return False
    return a.group == b.group


def random_match(rng, n_sets, max_controls=15, missing_rate=0.1):
    """A table and a hand-made match of ``n_sets`` sets with 1..max_controls
    controls each, plus unmatched subjects.

    Members are drawn from a random permutation of the rows, and each set
    lists its controls in random order. The one outcome ``y`` is missing at
    ``missing_rate`` of the rows, so some sets have a member without it.
    """
    sizes = rng.integers(1, max_controls + 1, size=n_sets)
    n = int(sizes.sum()) + n_sets + 5
    order = rng.permutation(n)
    z = np.zeros(n, dtype=np.int64)
    z[order[:n_sets]] = 1
    controls = np.split(order[n_sets : n_sets + int(sizes.sum())], np.cumsum(sizes)[:-1])
    outcomes = rng.normal(size=n)
    outcomes[rng.random(n) < missing_rate] = np.nan
    table = make_table(z, rng.normal(size=(n, 3)), outcomes=outcomes, outcome_names=("y",))
    return table, match_of(table, [[t, *cs] for t, cs in zip(order[:n_sets].tolist(), controls)])


def reference_weighted_rows(table, result):
    """Treated rows, control rows and control weights 1/(set size - 1) of a
    match, built set by set in Python, as an independent reference for the
    balance module's row layout."""
    t_rows, c_rows, weights = [], [], []
    for rows in result.sets.split(result.members):
        t_rows.append(rows[0])
        c_rows.extend(rows[1:])
        weights += [1.0 / (len(rows) - 1)] * (len(rows) - 1)
    return np.array(t_rows, dtype=int), np.array(c_rows, dtype=int), np.array(weights)


def reference_matched_arrays(table, result, outcome):
    """``inference.matched_arrays`` built set by set in Python: the compact
    rows, the per-set index arrays and the treated ids of the sets dropped
    for a missing outcome, in set order."""
    j = table.outcome_index(outcome)
    rows, sets, excluded = [], [], []
    for members in result.sets.split(result.members):
        if any(math.isnan(table.outcomes[m, j]) for m in members):
            excluded.append(table.ids[members[0]])
            continue
        start = len(rows)
        rows.extend(members)
        sets.append(np.arange(start, start + len(members)))
    return np.array(rows, dtype=int), tuple(sets), tuple(excluded)


def reference_invert_tests(table, result, outcome, grid, alpha, adjustment, mode, seed, n_draws):
    """``inference.invert_tests`` on ``matched_arrays(table, result,
    outcome)`` with each test's inputs built set by set in Python: at each
    grid value, r - tau0*z and the covariate rows less their set means, then
    ``covariance_adjust`` and ``permutational_t_test``. Returns the p-values,
    the accepted flags and the hull."""
    rows, sets, _ = reference_matched_arrays(table, result, outcome)
    r, z, x = table.outcomes[rows, table.outcome_index(outcome)], table.z[rows], table.covariates[rows]
    layout = SetLayout(np.array([len(s) for s in sets]))
    aligned_x = np.concatenate([x[s] - x[s].mean(axis=0) for s in sets])
    p_values = []
    for tau0 in grid:
        aligned_r = np.concatenate([(r[s] - tau0 * z[s]) - (r[s] - tau0 * z[s]).mean() for s in sets])
        resid, _ = covariance_adjust(aligned_r, aligned_x, adjustment, seed=seed)
        p_values.append(permutational_t_test(resid, layout, mode=mode, n_draws=n_draws, seed=seed).p_two_sided)
    accepted = np.array(p_values) > alpha
    inside = [float(g) for g, a in zip(grid, accepted) if a]
    return np.array(p_values), accepted, (inside[0], inside[-1]) if inside else None


# Stand-ins for the two packages make the loader's own module-level loads
# reuse them and load nothing; with the stand-ins removed, the call runs as in
# a fresh interpreter. The loader's fallback goes through
# importlib.import_module, which records the package's entries it finds.
_LOADER_PROBE = """
import importlib, importlib.util, json, sys, types
path, package, modules, folders, expression = sys.argv[1:]
stand_in = types.SimpleNamespace(
    **dict.fromkeys(("linear_sum_assignment", "expit", "gammaincinv", "gammaln", "logit", "ndtr", "ndtri"))
)
sys.modules["scipy.optimize"] = sys.modules["scipy.special"] = stand_in
spec = importlib.util.spec_from_file_location("loader", path)
loader = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loader)
del sys.modules["scipy.optimize"], sys.modules["scipy.special"]
assert not [m for m in sys.modules if m.startswith(("scipy.optimize", "scipy.special"))]

at_fallback = []
public_import = importlib.import_module

def import_module(name):
    at_fallback.append(sorted(m for m in sys.modules if m == name or m.startswith(name + ".")))
    return public_import(name)

importlib.import_module = import_module
result = loader.load(package, json.loads(modules), json.loads(folders))
print(json.dumps({
    "module": result.__name__,
    "at_fallback": at_fallback[:1],
    "package_imported": package in sys.modules,
    "value": eval(expression),
}))
"""


def load_in_fresh_interpreter(package, modules, folders, expression):
    """Run ``matchstudy._scipy.load(package, modules, folders)`` in a fresh
    interpreter. Returns the loaded module's name, the ``package`` entries
    of ``sys.modules`` when the fallback began (empty list: no fallback),
    whether ``package`` was then imported, and ``expression`` evaluated on
    the result (named ``result``)."""
    path = os.path.join(os.path.dirname(os.path.abspath(matchstudy.__file__)), "_scipy.py")
    proc = subprocess.run(
        [sys.executable, "-c", _LOADER_PROBE, path, package, json.dumps(modules), json.dumps(folders), expression],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])
