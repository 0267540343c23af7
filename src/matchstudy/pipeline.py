"""Pipeline stages and report rendering.

Each stage writes text intermediates and reads those of earlier stages from
disk, so a single ``run`` and a chain of stage subcommands produce identical
bytes. The cohort file is read and prepared once per ``run`` or subcommand:
a ``Cohort``, which ``run_pipeline`` shares among its stages.
``stage_report`` only renders: every table it writes is derived from
intermediates, never recomputed from models.

Artifacts, all under the configured output directory, each name formatted
in one place that its writer, its reader and the manifest share:

* intermediates: ``cohort.csv``, ``propensity_<comp>_<method>.json``
  (``_propensity_name``), ``match_<comp>_<method>.sets.txt`` /
  ``.ledger.csv`` (``_match_names``; the ledger opens with ``id,reason``),
  ``balance_<comp>.json``, ``inference_<comp>.json``,
  ``sensitivity_<comp>.json`` (``_stage_name``);
* reports: ``balance_<comp>.csv`` / ``.md`` (``_balance_report_names``),
  ``match_summary.csv``, ``composition.csv``, ``inference.csv``,
  ``sensitivity.csv``, ``propensity_quantiles.csv``, ``decisions.txt``
  (``_REPORT_NAMES``), ``manifest.txt``.

The first comparison analyses every outcome and the others the primary
outcome (``_analysed_outcomes``). Seeds come from ``_propensity_seed`` and
``_analysis_seed``; ``infer`` and ``sensitivity`` share one front end and one
seed per comparison x outcome: the point test is the inversion's test at
tau0 = 0, and the sensitivity curve bounds that test's residuals.

``propensity`` runs its sampled fits (L1, Bayes, BART) on a pool of forked
workers, one per core, and the MLE fits itself meanwhile; on one core every
fit runs in the stage's process (``_fit_all``). The fits' warnings are issued
again in job order, so stderr and every byte are the same for any core
count, and a worker's error reaches ``run_stage`` as its own class.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import sys
import threading
import warnings

import numpy as np
import scipy

from . import balance as balance_mod
from . import inference as inference_mod
from . import matching as matching_mod
from . import multiplicity as multiplicity_mod
from . import propensity as propensity_mod
from . import sensitivity as sensitivity_mod
from .config import ComparisonSpec, StudyConfig
from .dataset import (
    BINARY,
    ORDINAL,
    SchemaError,
    SubjectTable,
    ValidationError,
    attrition_check,
    augment_missingness,
    generate_synthetic,
    id_order,
    load_subjects,
    save_subjects,
    scale_covariates,
)

METHOD_DISPLAY = {"mle": "MLE", "l1": "L1", "bayes": "Bayes", "bart": "BART"}

# The stages in run order: (subcommand, stage name in errors and failure
# manifests, help text). ``run_stage`` looks ``stage_<subcommand>`` up in this
# module when it runs, so a wrapper set on the module sees every call.
STAGES = (
    ("simulate", "simulate", "write a synthetic cohort csv"),
    ("propensity", "propensity", "fit the configured score models"),
    ("match", "match", "build matched sets for every comparison and method"),
    ("balance", "balance", "tabulate covariate balance and select a match per comparison"),
    ("infer", "inference", "run the randomization tests and interval inversions"),
    ("sensitivity", "sensitivity", "compute hidden-bias bounds over the gamma grid"),
    ("report", "report", "render the report tables from stored intermediates"),
)


class PipelineError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


class MissingIntermediateError(FileNotFoundError):
    def __init__(self, path: str, producer: str):
        super().__init__(f"{path} not found; run the {producer} subcommand first")
        self.producer = producer


# Invalid configuration or missing inputs: raised as they are, with no
# failure manifest, because no stage ran into a fault.
VALIDATION_ERRORS = (
    SchemaError,
    ValidationError,
    multiplicity_mod.ProtocolError,
    matching_mod.MatchingError,
    MissingIntermediateError,
)


def derive_seed(base: int, *parts) -> int:
    """Stable per-task seed: hash of the base seed and the task labels."""
    text = "|".join([str(base), *map(str, parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# Paths and low-level io
# ---------------------------------------------------------------------------


def _path(cfg: StudyConfig, name: str) -> str:
    return os.path.join(cfg.output_dir, name)


def _propensity_name(comp: str, method: str) -> str:
    return f"propensity_{comp}_{method}.json"


def _match_names(comp: str, method: str) -> tuple[str, str]:
    """The set file and the ledger of a match."""
    base = f"match_{comp}_{method}"
    return base + ".sets.txt", base + ".ledger.csv"


def _stage_name(stage: str, comp: str) -> str:
    """The intermediate ``balance``, ``inference`` or ``sensitivity`` writes per comparison."""
    return f"{stage}_{comp}.json"


def _balance_report_names(comp: str) -> tuple[str, str]:
    return f"balance_{comp}.csv", f"balance_{comp}.md"


# The study-wide report files, in the order ``stage_report`` renders them.
_REPORT_NAMES = (
    "match_summary.csv",
    "composition.csv",
    "inference.csv",
    "sensitivity.csv",
    "propensity_quantiles.csv",
    "decisions.txt",
)


def _data_path(cfg: StudyConfig) -> str:
    # Relative data paths live inside the output directory.
    if os.path.isabs(cfg.data):
        return cfg.data
    return os.path.join(cfg.output_dir, cfg.data)


def _write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _read_json(path: str, producer: str) -> dict:
    if not os.path.exists(path):
        raise MissingIntermediateError(path, producer)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Cohort preparation and comparison arms
# ---------------------------------------------------------------------------


def load_cohort(cfg: StudyConfig) -> SubjectTable:
    """The cohort in id order, so no output depends on the file's row order;
    validation errors still name file rows."""
    path = _data_path(cfg)
    if not os.path.exists(path):
        raise MissingIntermediateError(path, "simulate")
    if not os.path.isfile(path):
        raise ValidationError(f"{path}: the data path is not a file")
    table = load_subjects(path, cfg.schema, cfg.columns, tuple(o.name for o in cfg.outcome_specs))
    order = id_order(table.ids)
    return table if np.array_equal(order, np.arange(table.n)) else table.subset(order)


def _comparison_rows(cfg: StudyConfig, table: SubjectTable, comp: ComparisonSpec) -> tuple[np.ndarray, np.ndarray]:
    """This comparison's rows of ``table`` and its treatment indicator on them.
    A comparison that names groups needs the cohort's group column."""
    if table.group is None and (comp.treated_groups, comp.control_groups) != (None, None):
        raise ValidationError(f"{comp.name}: names groups, but the cohort has no {cfg.columns.group!r} column")
    if comp.treated_groups is None:
        treated_mask = table.z == 1
    else:
        treated_mask = (table.z == 0) & np.isin(table.group, comp.treated_groups)
    if comp.control_groups is None:
        control_mask = (table.z == 0) & ~treated_mask
    else:
        control_mask = (table.z == 0) & np.isin(table.group, comp.control_groups) & ~treated_mask
    if not treated_mask.any():
        raise ValidationError(f"{comp.name}: empty treated arm")
    if not control_mask.any():
        raise ValidationError(f"{comp.name}: empty control arm")
    keep = treated_mask | control_mask
    return np.flatnonzero(keep), treated_mask[keep].astype(np.int64)


def prepare(cfg: StudyConfig, table: SubjectTable) -> tuple[dict[str, SubjectTable], dict[str, dict]]:
    """The cohort ``table`` imputed in raw units (so fill values are natural-unit
    means and the indicators stay binary), then rescaled as a whole, then
    split: by comparison name, its table, and its ordinal covariates' imputed,
    unscaled values by name, the codes balance counts level rows on."""
    # Rebinding drops the imputed table once it is scaled: of the unscaled
    # values only the ordinal columns outlive this call, as the codes.
    table = augment_missingness(table)
    unscaled = {c.name: table.covariate(c.name).copy() for c in cfg.schema.covariates if c.kind == ORDINAL}
    table = scale_covariates(table, cfg.schema)
    tables, codes = {}, {}
    for comp in cfg.comparisons:
        rows, z = _comparison_rows(cfg, table, comp)
        tables[comp.name] = dataclasses.replace(table.subset(rows), z=z)
        codes[comp.name] = {name: values[rows] for name, values in unscaled.items()}
    return tables, codes


class Cohort:
    """``cfg.data`` read by ``load_cohort`` and ``prepare``d when a stage first
    asks for its ``tables`` or ``codes``, then kept. ``run_pipeline`` hands
    one Cohort to every stage after ``simulate``; a stage called alone makes
    its own. Either way the file is read once."""

    def __init__(self, cfg: StudyConfig):
        self.cfg = cfg

    @functools.cached_property
    def _prepared(self):
        return prepare(self.cfg, load_cohort(self.cfg))

    tables = property(lambda self: self._prepared[0])
    codes = property(lambda self: self._prepared[1])


# ---------------------------------------------------------------------------
# Stage: simulate
# ---------------------------------------------------------------------------


def stage_simulate(cfg: StudyConfig) -> str:
    if cfg.simulate is None:
        raise ValidationError("config has no simulate block")
    cohort = generate_synthetic(cfg.simulate, seed=cfg.seed)
    path = _data_path(cfg)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    save_subjects(cohort.table, path, cfg.columns)
    return path


# ---------------------------------------------------------------------------
# Stage: propensity
# ---------------------------------------------------------------------------


def _propensity_seed(cfg: StudyConfig, name: str, method: str) -> int:
    """The seed of a comparison x score model in ``propensity`` and the manifest."""
    return derive_seed(cfg.seed, name, "propensity", method)


def _fit_one(cfg: StudyConfig, name: str, ct: SubjectTable, method: str):
    seed = _propensity_seed(cfg, name, method)
    x, z = ct.covariates, ct.z
    if method == "mle":
        fit = propensity_mod.fit_mle(x, z)
    elif method == "l1":
        fit = propensity_mod.fit_l1(x, z, seed=seed)
    elif method == "bayes":
        fit = propensity_mod.fit_bayes(x, z, seed=seed)
    elif method == "bart":
        fit = propensity_mod.fit_bart_propensity(x, z, seed=seed)
    else:
        raise ValidationError(f"unknown propensity method {method!r}")
    return fit, seed


def _fit_recorded(cfg: StudyConfig, name: str, ct: SubjectTable, method: str):
    """``_fit_one`` with every warning it issues recorded instead of shown,
    as ``(message, category, filename, lineno)``; ``_warn_again`` issues them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit, seed = _fit_one(cfg, name, ct, method)
    return fit, seed, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _warn_again(caught) -> None:
    """Issue recorded warnings as ``warnings.warn`` issued them: from their
    line, under their module's name and through its once-per-line registry,
    so they meet the caller's filters."""
    if not caught:
        return
    by_file = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in caught:
        module = by_file.get(filename)
        if module is None:
            warnings.warn_explicit(message, category, filename, lineno)
        else:
            registry = vars(module).setdefault("__warningregistry__", {})
            warnings.warn_explicit(message, category, filename, lineno, module.__name__, registry)


def _fit_all(cfg: StudyConfig, tables: dict[str, SubjectTable], jobs: list[tuple[str, str]]) -> list:
    """``_fit_recorded`` of every ``(comparison, method)`` job, in job order.

    The sampled fits (every method but ``mle``) run on a pool of forked
    worker processes, BART first and then in job order, while this process
    runs the MLE fits, which take milliseconds. The pool has one worker per
    core (``matching._worker_count``) up to the number of sampled fits. With
    fewer than two workers, without ``fork``, or while this process runs
    other threads (a lock one of them holds would stay held in a forked
    child), every fit runs here in job order. Each fit has its own seed, so
    neither the order nor the worker count moves a byte. No worker outlives
    the call: on a failure the queued fits are cancelled and the running
    ones awaited.
    """
    sampled = sorted((job for job in jobs if job[1] != "mle"), key=lambda job: job[1] != "bart")
    workers = min(matching_mod._worker_count(), len(sampled))
    pool = None
    if workers >= 2 and threading.active_count() == 1:
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    futures = {}
    try:
        if pool is not None:
            # The workers inherit the module state (patched functions too).
            futures = {job: pool.submit(_fit_recorded, cfg, job[0], tables[job[0]], job[1]) for job in sampled}
        here = {job: _fit_recorded(cfg, job[0], tables[job[0]], job[1]) for job in jobs if job not in futures}
        return [futures[job].result() if job in futures else here[job] for job in jobs]
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def stage_propensity(cfg: StudyConfig, cohort: Cohort | None = None) -> None:
    tables = (cohort or Cohort(cfg)).tables
    jobs = [(comp.name, method) for comp in cfg.comparisons for method in cfg.propensity_methods]
    fits = _fit_all(cfg, tables, jobs)
    _warn_again([w for _, _, caught in fits for w in caught])
    for (name, method), (fit, seed, _) in zip(jobs, fits):
        _write_json(
            _path(cfg, _propensity_name(name, method)),
            {
                "comparison": name,
                "method": method,
                "seed": seed,
                "converged": bool(fit.converged),
                "beta": _jsonable(fit.beta) if fit.beta is not None else None,
                "diagnostics": _jsonable(fit.diagnostics),
                "ids": list(tables[name].ids),
                "scores": _jsonable(fit.scores),
            },
        )


def _load_scores(cfg: StudyConfig, name: str, method: str, ct: SubjectTable) -> np.ndarray:
    obj = _read_json(_path(cfg, _propensity_name(name, method)), "propensity")
    if tuple(obj["ids"]) != ct.ids:
        raise ValidationError(f"propensity file for {name}/{method} does not align with the cohort")
    return np.asarray(obj["scores"], dtype=float)


# ---------------------------------------------------------------------------
# Stage: match
# ---------------------------------------------------------------------------


def stage_match(cfg: StudyConfig, cohort: Cohort | None = None) -> None:
    tables = (cohort or Cohort(cfg)).tables
    for comp in cfg.comparisons:
        ct = tables[comp.name]
        for method in cfg.propensity_methods:
            scores = _load_scores(cfg, comp.name, method, ct)
            try:
                result = matching_mod.build_match(ct, scores, cfg.matching)
            except matching_mod.MatchingError as err:
                raise matching_mod.MatchingError(f"{comp.name}: {err}") from None
            for name, text in zip(_match_names(comp.name, method), render_match(ct, result)):
                _write_text(_path(cfg, name), text)


def render_match(ct: SubjectTable, result: matching_mod.MatchResult) -> tuple[str, str]:
    """The text of a match's two files, ``.sets.txt`` and ``.ledger.csv``.

    A set line is ``<treated id>: <control id>,<control id>...`` with the
    controls in the order the match holds them; a ledger line is
    ``<id>,<reason>``. ``ct`` is the comparison table whose rows the match
    holds: the ids are looked up here, and only here and in ``load_match``.
    """
    ids = np.asarray(ct.ids, dtype=object)
    members = ids[result.members].tolist()
    starts = result.sets.starts.tolist()
    ends = starts[1:] + [len(members)]
    sets = "".join(f"{members[s]}: {','.join(members[s + 1 : e])}\n" for s, e in zip(starts, ends))
    ledger = "".join(f"{sid},{reason}\n" for sid, reason in zip(ids[result.dropped].tolist(), result.reasons))
    return sets, "id,reason\n" + ledger


def load_match(cfg: StudyConfig, name: str, method: str, ct: SubjectTable) -> matching_mod.MatchResult:
    """The match in the two files ``render_match`` writes, ``.sets.txt`` and
    ``.ledger.csv``, as rows of ``ct``, the comparison table it was built
    from. The files are read alone; their ids are mapped to rows once, here,
    and the subject accounting is recounted on ``ct``.

    Raises ``ValueError`` naming the file when the ledger's first line is not
    its ``id,reason`` header, and naming the file and the id when an id is
    not in ``ct``, when a subject is listed twice across the two files, when
    a subject of ``ct`` is in neither, or when a ledger line gives a reason
    that is not one of ``matching.REASONS``.
    """
    paths = [_path(cfg, n) for n in _match_names(name, method)]
    for p in paths:
        if not os.path.exists(p):
            raise MissingIntermediateError(p, "match")
    listed, sizes = [], []
    with open(paths[0], encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                treated_id, _, rest = line.partition(": ")
                set_ids = [treated_id, *rest.split(",")]
                listed += set_ids
                sizes.append(len(set_ids))
    with open(paths[1], encoding="utf-8") as fh:
        if fh.readline().strip() != "id,reason":
            raise ValueError(f"{paths[1]}: the first line is not the header 'id,reason'")
        ledger = [line.strip().partition(",") for line in fh if line.strip()]
    for sid, _, reason in ledger:
        if reason not in matching_mod.REASONS:
            raise ValueError(f"{paths[1]}: subject {sid!r} has the unknown reason {reason!r}")
    ledger_ids = [sid for sid, _, _ in ledger]

    rows = []
    for path, ids in zip(paths, (listed, ledger_ids)):
        try:
            rows.append(np.fromiter(map(ct.row_of, ids), dtype=np.intp, count=len(ids)))
        except KeyError as err:
            raise ValueError(f"{path}: subject {err.args[0]!r} is not in {name}") from None
    members, dropped = rows
    everyone = np.concatenate(rows)
    _, first = np.unique(everyone, return_index=True)
    if first.size < everyone.size:
        again = np.setdiff1d(np.arange(everyone.size), first)[0]
        path = paths[0] if again < members.size else paths[1]
        raise ValueError(f"{path}: subject {ct.ids[everyone[again]]!r} is listed twice")
    if first.size < ct.n:
        unlisted = np.setdiff1d(np.arange(ct.n), everyone)[0]
        raise ValueError(f"{paths[0]}, {paths[1]}: subject {ct.ids[unlisted]!r} is in neither file")
    layout = matching_mod.SetLayout(np.array(sizes, dtype=np.intp))
    reasons = tuple(reason for _, _, reason in ledger)
    return matching_mod.MatchResult(
        members, layout, dropped, reasons, matching_mod.match_counts(ct, layout, dropped, reasons)
    )


# ---------------------------------------------------------------------------
# Stage: balance
# ---------------------------------------------------------------------------


def stage_balance(cfg: StudyConfig, cohort: Cohort | None = None) -> None:
    cohort = cohort or Cohort(cfg)
    for comp in cfg.comparisons:
        ct, codes = cohort.tables[comp.name], cohort.codes[comp.name]
        per_method = {}
        candidates = []
        for method in cfg.propensity_methods:
            result = load_match(cfg, comp.name, method, ct)
            rows = balance_mod.balance_table(ct, result, schema=cfg.schema, codes=codes)
            n_imbalanced = balance_mod.count_imbalanced(rows)
            per_method[method] = {
                "rows": [dataclasses.asdict(r) for r in rows],
                "imbalanced": n_imbalanced,
                "dropped": result.n_dropped,
                "counts": dataclasses.asdict(result.counts),
                "n_sets": len(result.sets),
                "composition": {str(k): v for k, v in matching_mod.composition(result).items()},
            }
            candidates.append((n_imbalanced, result.n_dropped))
        chosen = balance_mod.select_match(candidates)
        _write_json(
            _path(cfg, _stage_name("balance", comp.name)),
            {
                "comparison": comp.name,
                "methods": list(cfg.propensity_methods),
                "per_method": per_method,
                "selected": cfg.propensity_methods[chosen.index],
                "meets_bar": bool(chosen.meets_bar),
            },
        )


def load_balance(cfg: StudyConfig, name: str) -> dict:
    return _read_json(_path(cfg, _stage_name("balance", name)), "balance")


# ---------------------------------------------------------------------------
# Stage: inference
# ---------------------------------------------------------------------------


def _analysed_outcomes(cfg: StudyConfig):
    """``(comp, outcome specs)`` per comparison: the first comparison analyses
    every outcome, the others the primary outcome."""
    for idx, comp in enumerate(cfg.comparisons):
        yield comp, cfg.outcome_specs if idx == 0 else (cfg.primary_outcome,)


def _analysis_seed(cfg: StudyConfig, name: str, outcome: str) -> int:
    """The seed of a comparison x outcome in ``infer``, ``sensitivity`` and the manifest."""
    return derive_seed(cfg.seed, name, "inference", outcome)


def _analyses(cfg: StudyConfig, cohort: Cohort | None):
    """Per comparison: ``(comp, comparison table, selected method, outcomes)``,
    with a ``(spec, InferenceData, seed)`` per analysed outcome of the match."""
    tables = (cohort or Cohort(cfg)).tables
    for comp, specs in _analysed_outcomes(cfg):
        ct = tables[comp.name]
        selected = load_balance(cfg, comp.name)["selected"]
        result = load_match(cfg, comp.name, selected, ct)
        outcomes = (
            (o, inference_mod.matched_arrays(ct, result, o.name), _analysis_seed(cfg, comp.name, o.name))
            for o in specs
        )
        yield comp, ct, selected, outcomes


def _fields(result, *names: str) -> dict:
    return {name: getattr(result, name) for name in names}


def _test_suite(cfg: StudyConfig, outcome, data: inference_mod.InferenceData, seed: int) -> dict:
    """All inference artifacts for one comparison x outcome. The point test
    is the grid's tau0 = 0 test: ``cohen_grid`` and every configured grid hold 0."""
    adjustment = cfg.inference.adjustment if outcome.kind != BINARY else "none"
    region = inference_mod.invert_tests(
        data,
        grid=None if cfg.inference.grid is None else np.asarray(cfg.inference.grid),
        alpha=cfg.inference.alpha,
        adjustment=adjustment,
        mode=cfg.inference.mode,
        seed=seed,
        n_draws=cfg.inference.n_draws,
    )
    point = region.test_at(0.0)
    out = {
        "kind": outcome.kind,
        "adjustment": adjustment,
        "seed": seed,
        "outcome_sd": float(np.std(data.r, ddof=1)),
        "n_sets": len(data.sets),
        "excluded_sets": list(data.excluded_sets),
        "grid": _jsonable(region.grid),
        "grid_p": _jsonable(region.p_values),
        "accepted": _jsonable(region.accepted),
        "hull": None if region.hull is None else [region.hull[0], region.hull[1]],
        "non_monotone": bool(region.non_monotone),
        "point": _fields(point, "statistic", "p_two_sided", "p_upper", "p_lower", "method"),
    }
    if outcome.kind == BINARY:
        mh = inference_mod.mantel_haenszel(data.r, data.sets)
        clog = inference_mod.conditional_logistic(data.r, data.sets)
        out["mantel_haenszel"] = _fields(mh, "statistic", "p_two_sided", "p_upper", "method")
        out["conditional_logistic"] = _fields(clog, "theta", "se", "p", "statistic", "identified", "n_informative")
        out["p_primary"] = mh.p_two_sided
    else:
        out["p_primary"] = point.p_two_sided
    return out


def _check_exact_mode(cfg: StudyConfig, name: str, outcome: str, sets: matching_mod.SetLayout) -> None:
    """Raise ``ValidationError`` when ``inference.mode`` is ``exact`` and the
    matched sets have more assignments than exact enumeration takes."""
    if cfg.inference.mode != "exact":
        return
    count = inference_mod.assignment_count(sets)
    if count > inference_mod.EXACT_LIMIT:
        raise ValidationError(
            f"{name}, outcome {outcome!r}: inference.mode 'exact' enumerates at most "
            f"{inference_mod.EXACT_LIMIT} assignments, and the matched sets have about "
            f"{inference_mod.order_of_magnitude(count)}; use 'auto' or 'monte-carlo'"
        )


def stage_infer(cfg: StudyConfig, cohort: Cohort | None = None) -> None:
    for comp, ct, selected, analyses in _analyses(cfg, cohort):
        outcomes, attrition = {}, {}
        for outcome, data, seed in analyses:
            _check_exact_mode(cfg, comp.name, outcome.name, data.sets)
            outcomes[outcome.name] = _test_suite(cfg, outcome, data, seed)
            if np.isnan(ct.outcomes[:, ct.outcome_index(outcome.name)]).any():
                res = attrition_check(ct, outcome.name)
                attrition[outcome.name] = {"coef": res.coef, "p": res.p, "separation": bool(res.separation)}
        _write_json(
            _path(cfg, _stage_name("inference", comp.name)),
            {"comparison": comp.name, "selected": selected, "outcomes": outcomes, "attrition": attrition},
        )


# ---------------------------------------------------------------------------
# Stage: sensitivity
# ---------------------------------------------------------------------------


def stage_sensitivity(cfg: StudyConfig, cohort: Cohort | None = None) -> None:
    """Hidden-bias bounds; a continuous outcome's are of its point test's residuals."""
    grid = cfg.sensitivity.grid()
    for comp, _, selected, analyses in _analyses(cfg, cohort):
        outcomes = {}
        for outcome, data, seed in analyses:
            if outcome.kind == BINARY:
                test, bound, values = "mantel-haenszel", sensitivity_mod.sensitivity_mh, data.r
            else:
                test, bound = "residual", sensitivity_mod.sensitivity_residual
                values = inference_mod.adjusted_residuals(data, 0.0, cfg.inference.adjustment, seed)
            curve = sensitivity_mod.gamma_threshold(
                lambda g: bound(values, data.sets, g).p_one_sided, grid, alpha=cfg.inference.alpha
            )
            outcomes[outcome.name] = {
                "test": test,
                "gammas": _jsonable(curve.gammas),
                "p_upper": _jsonable(curve.p_values),
                "threshold": None if math.isnan(curve.threshold) else curve.threshold,
                "insignificant_at_one": bool(curve.insignificant_at_one),
                "beyond_grid": bool(curve.beyond_grid),
            }
        _write_json(
            _path(cfg, _stage_name("sensitivity", comp.name)),
            {"comparison": comp.name, "selected": selected, "outcomes": outcomes},
        )


# ---------------------------------------------------------------------------
# Stage: report
# ---------------------------------------------------------------------------


def comparison_display(name: str) -> str:
    m = re.fullmatch(r"comparison-(\d+)", name)
    return f"Comparison {m.group(1)}" if m else name


def format_match_row(comparison: str, method: str, counts: matching_mod.MatchCounts, imbalanced: int) -> str:
    """One match-summary line in the published table's row format."""
    return (
        f"{comparison}, {method}: "
        f"n_miss {counts.n_miss} ({counts.n_miss_treated}/{counts.n_miss_control}), "
        f"n_cs {counts.n_cs} ({counts.n_cs_treated}/{counts.n_cs_control}), "
        f"n_total {counts.n_matched} ({counts.n_matched_treated}/{counts.n_matched_control}), "
        f"imbalanced {imbalanced}"
    )


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row of fields, each
    field through ``str`` (which is ``repr`` for a Python float)."""
    return "".join([header + "\n", *(",".join(map(str, row)) + "\n" for row in rows)])


def _match_summary_csv(cfg: StudyConfig, balances: dict) -> str:
    rows = []
    for comp in cfg.comparisons:
        info = balances[comp.name]
        for method in cfg.propensity_methods:
            entry = info["per_method"][method]
            c = matching_mod.MatchCounts(**entry["counts"])
            rows.append((
                comp.name, method, 1 if method == info["selected"] else 0,
                c.n_miss, c.n_miss_treated, c.n_miss_control,
                c.n_cs, c.n_cs_treated, c.n_cs_control,
                c.n_matched, c.n_matched_treated, c.n_matched_control,
                entry["n_sets"], entry["imbalanced"],
            ))
    header = (
        "comparison,method,selected,n_miss,n_miss_treated,n_miss_control,"
        "n_cs,n_cs_treated,n_cs_control,n_matched,n_matched_treated,n_matched_control,"
        "n_sets,imbalanced"
    )
    return _csv(header, rows)


def _composition_csv(cfg: StudyConfig, balances: dict) -> str:
    names = [comp.name for comp in cfg.comparisons]
    counts = [balances[name]["per_method"][balances[name]["selected"]]["composition"] for name in names]
    rows = [[f"1:{k}", *(c.get(str(k), 0) for c in counts)] for k in range(1, matching_mod.MAX_CONTROLS + 1)]
    rows.append(["sets", *(sum(column) for column in list(zip(*rows))[1:])])
    return _csv(",".join(["ratio", *names]), rows)


# The balance-row fields of the balance tables' numeric columns, in column order.
_BALANCE_FIELDS = (
    "treated_mean_pre", "control_mean_pre", "sd_diff_pre", "treated_mean_post", "control_mean_post", "sd_diff_post"
)


def _balance_csv(rows: list[dict]) -> str:
    return _csv(
        "covariate,pre_treated_mean,pre_control_mean,pre_sd_diff,"
        "post_treated_mean,post_control_mean,post_sd_diff,imbalanced",
        ([r["name"], *(_fmt(r[k]) for k in _BALANCE_FIELDS), int(r["imbalanced"])] for r in rows),
    )


def _balance_md(name: str, method: str, rows: list[dict]) -> str:
    lines = [
        f"# Balance: {comparison_display(name)} ({METHOD_DISPLAY.get(method, method)})\n",
        "\n",
        "| covariate | pre treated | pre control | pre sd-diff | post treated | post control | post sd-diff |\n",
        "| --- | --- | --- | --- | --- | --- | --- |\n",
    ]
    for r in rows:
        star = " *" if r["imbalanced"] else ""
        lines.append(f"| {r['name']} | " + " | ".join(_fmt(r[k]) for k in _BALANCE_FIELDS) + f"{star} |\n")
    threshold = balance_mod.IMBALANCE_THRESHOLD
    lines.append(f"\n`*` marks a post-match standardized difference above {threshold:g} in absolute value.\n")
    return "".join(lines)


def _inference_csv(cfg: StudyConfig, inferences: dict) -> str:
    rows = []
    for comp, specs in _analysed_outcomes(cfg):
        for outcome in specs:
            o = inferences[comp.name]["outcomes"][outcome.name]
            point, key, tail = o["point"], (comp.name, outcome.name), (o["adjustment"], o["seed"])
            rows.append((*key, "point", 0.0, point["statistic"], point["p_two_sided"], point["method"], *tail))
            rows += [
                (*key, "shift-grid", tau0, "", p, cfg.inference.mode, *tail) for tau0, p in zip(o["grid"], o["grid_p"])
            ]
            if "mantel_haenszel" in o:
                mh = o["mantel_haenszel"]
                rows.append((*key, "mantel-haenszel", "", mh["statistic"], mh["p_two_sided"], mh["method"], "none", ""))
            if "conditional_logistic" in o:
                cl = o["conditional_logistic"]
                rows.append((*key, "conditional-logistic", "", cl["theta"], cl["p"], "score-test", "none", ""))
    return _csv("comparison,outcome,test,tau0,statistic,p_two_sided,method,adjustment,seed", rows)


def _sensitivity_csv(cfg: StudyConfig, sensitivities: dict) -> str:
    rows = []
    for comp, specs in _analysed_outcomes(cfg):
        for outcome in specs:
            o = sensitivities[comp.name]["outcomes"][outcome.name]
            rows += [(comp.name, outcome.name, o["test"], f"{g:.2f}", p) for g, p in zip(o["gammas"], o["p_upper"])]
    return _csv("comparison,outcome,test,gamma,p_upper", rows)


def _quartiles(values: np.ndarray) -> np.ndarray:
    """``np.quantile(values, [0, .25, .5, .75, 1])`` bit for bit (scores have no
    signed zeros to tie), without the ``numpy.ma`` import of its ``np.unique``."""
    ordered = np.sort(values)
    virtual = (ordered.size - 1) * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    lo = np.floor(virtual).astype(np.intp)
    t, a, b = virtual - lo, ordered[lo], ordered[np.minimum(lo + 1, ordered.size - 1)]
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)  # numpy's _lerp


def _quantiles_csv(cfg: StudyConfig, tables: dict) -> str:
    rows = []
    for comp in cfg.comparisons:
        ct = tables[comp.name]
        for method in cfg.propensity_methods:
            scores = _load_scores(cfg, comp.name, method, ct)
            for arm, mask in (("treated", ct.z == 1), ("control", ct.z == 0)):
                rows.append((comp.name, method, arm, int(mask.sum()), *(float(q) for q in _quartiles(scores[mask]))))
    return _csv("comparison,method,arm,n,min,q25,median,q75,max", rows)


def _run_procedure(cfg: StudyConfig, inferences: dict):
    """Apply the ordered stopping rule to the primary-outcome p-values."""
    if len(cfg.comparisons) != 4:
        return None, None
    names = [comp.name for comp in cfg.comparisons]
    primary = cfg.primary_outcome.name
    p = [inferences[name]["outcomes"][primary]["p_primary"] for name in names]
    alpha = cfg.inference.alpha
    labels = tuple(comparison_display(n) for n in names)
    eq = None
    if p[0] <= alpha and p[1] <= alpha and p[2] <= alpha:
        o4 = inferences[names[3]]["outcomes"][primary]
        margin = cfg.equivalence_margin_sd * o4["outcome_sd"]
        eq = multiplicity_mod.equivalence_test(None if o4["hull"] is None else tuple(o4["hull"]), margin)
        proc = multiplicity_mod.ordered_procedure(p[0], p[1], p[2], eq, alpha=alpha, labels=labels)
    elif p[0] <= alpha:
        proc = multiplicity_mod.ordered_procedure(p[0], p[1], p[2], alpha=alpha, labels=labels)
    else:
        proc = multiplicity_mod.ordered_procedure(p[0], alpha=alpha, labels=labels)
    return proc, eq


def _hull_text(hull) -> str:
    return "empty" if hull is None else f"[{hull[0]!r}, {hull[1]!r}]"


def _gamma_text(cfg: StudyConfig, curve: dict) -> str:
    """The gamma* of a stored sensitivity curve, as ``decisions.txt`` prints it."""
    if curve["beyond_grid"]:
        return f"beyond grid (> {cfg.sensitivity.stop:.2f})"
    if curve["insignificant_at_one"]:
        return "1.00 (insignificant without hidden bias)"
    return f"{curve['threshold']:.2f}"


def _decisions_text(cfg: StudyConfig, balances, inferences, sensitivities) -> str:
    alpha = cfg.inference.alpha
    out = ["study decision report\n", "=====================\n", "\n"]

    out.append("selected matches\n")
    for comp in cfg.comparisons:
        info = balances[comp.name]
        method = info["selected"]
        entry = info["per_method"][method]
        counts = matching_mod.MatchCounts(**entry["counts"])
        row = format_match_row(
            comparison_display(comp.name), METHOD_DISPLAY.get(method, method), counts, entry["imbalanced"]
        )
        bar = "" if info["meets_bar"] else "  [balance bar not met]"
        out.append(f"  {row}{bar}\n")
    out.append("\n")

    proc, eq = _run_procedure(cfg, inferences)
    out.append(f"ordered testing procedure (alpha = {alpha})\n")
    if proc is None:
        out.append("  skipped: the procedure is defined for exactly four comparisons\n")
    else:
        for d in proc.decisions:
            if not d.performed:
                out.append(f"  stage {d.stage}  {d.label}: not reached\n")
            elif d.stage < 3:
                verdict = "reject" if d.reject else "do not reject -> stop"
                out.append(f"  stage {d.stage}  {d.label}: p = {d.p!r}  {verdict}\n")
            else:
                out.append(f"  stage {d.stage}  {d.label}: equivalence {d.note}\n")
        if eq is not None:
            out.append(
                f"  equivalence margin = {eq.margin!r} "
                f"({cfg.equivalence_margin_sd} x outcome sd; configured choice)\n"
            )
    out.append("\n")

    out.append(f"confidence hulls, primary outcome (alpha = {alpha})\n")
    primary = cfg.primary_outcome.name
    for comp in cfg.comparisons:
        o = inferences[comp.name]["outcomes"][primary]
        flag = "  [non-monotone acceptance]" if o["non_monotone"] else ""
        out.append(f"  {comp.name}  {primary}: {_hull_text(o['hull'])}{flag}\n")
    out.append("\n")

    out.append(f"sensitivity thresholds (one-sided bound, alpha = {alpha})\n")
    for comp, specs in _analysed_outcomes(cfg):
        for outcome in specs:
            o = sensitivities[comp.name]["outcomes"][outcome.name]
            out.append(f"  {comp.name}  {outcome.name} ({o['test']}): gamma* = {_gamma_text(cfg, o)}\n")
    out.append("\n")

    if cfg.secondary_outcomes:
        first = cfg.comparisons[0].name
        inf0 = inferences[first]["outcomes"]
        sens0 = sensitivities[first]["outcomes"]
        raw = [inf0[o.name]["p_primary"] for o in cfg.secondary_outcomes]
        adjusted, applied = multiplicity_mod.secondary_adjustment(np.asarray(raw), threshold=alpha)
        out.append(f"secondary outcomes ({first}; confidence intervals are marginal)\n")
        for j, o in enumerate(cfg.secondary_outcomes):
            bh = f"{float(adjusted[j])!r}" if applied else "-"
            out.append(
                f"  {o.name}: raw p = {raw[j]!r}, bh p = {bh}, ci {_hull_text(inf0[o.name]['hull'])}, "
                f"gamma* = {_gamma_text(cfg, sens0[o.name])}\n"
            )
        out.append(f"  bh adjustment applied: {'yes' if applied else 'no'}\n")
        out.append("\n")

    out.append("attrition checks (outcome missingness on covariates and treatment)\n")
    any_attrition = False
    for comp in cfg.comparisons:
        for outcome, res in inferences[comp.name]["attrition"].items():
            any_attrition = True
            if res["separation"]:
                out.append(f"  {comp.name}  {outcome}: separation, p-value unavailable\n")
            else:
                out.append(f"  {comp.name}  {outcome}: treatment coef = {res['coef']!r}, p = {res['p']!r}\n")
    if not any_attrition:
        out.append("  no missing outcomes\n")
    out.append("\n")

    out.append("excluded matched sets (missing outcome)\n")
    any_excluded = False
    for comp, specs in _analysed_outcomes(cfg):
        for outcome in specs:
            excluded = inferences[comp.name]["outcomes"][outcome.name]["excluded_sets"]
            if excluded:
                any_excluded = True
                out.append(f"  {comp.name}  {outcome.name}: {len(excluded)} sets ({', '.join(excluded)})\n")
    if not any_excluded:
        out.append("  none\n")
    return "".join(out)


def _digest_lines(cfg: StudyConfig, names) -> str:
    """A ``sha256 <digest>  <name>`` line per name present in the output directory."""
    return "".join(f"sha256 {_sha256(_path(cfg, n))}  {n}\n" for n in names if os.path.exists(_path(cfg, n)))


def _manifest_text(cfg: StudyConfig, balances: dict) -> str:
    out = [f"base seed {cfg.seed}\n"]
    for comp in cfg.comparisons:
        for method in cfg.propensity_methods:
            out.append(f"seed {comp.name} propensity {method} {_propensity_seed(cfg, comp.name, method)}\n")
    for comp, specs in _analysed_outcomes(cfg):
        for outcome in specs:
            out.append(f"seed {comp.name} inference {outcome.name} {_analysis_seed(cfg, comp.name, outcome.name)}\n")
    for comp in cfg.comparisons:
        out.append(f"selected {comp.name} {balances[comp.name]['selected']}\n")
    out.append(f"numpy {np.__version__}\nscipy {scipy.__version__}\n")
    return "".join(out) + _digest_lines(cfg, sorted(_artifact_names(cfg)))


def _artifact_names(cfg: StudyConfig) -> list[str]:
    names = []
    data = _data_path(cfg)
    if os.path.realpath(os.path.dirname(data)) == os.path.realpath(cfg.output_dir):
        names.append(os.path.basename(data))
    for comp in cfg.comparisons:
        for method in cfg.propensity_methods:
            names += [_propensity_name(comp.name, method), *_match_names(comp.name, method)]
        names += [_stage_name(stage, comp.name) for stage in ("balance", "inference", "sensitivity")]
        names += _balance_report_names(comp.name)
    return names + list(_REPORT_NAMES)


def stage_report(cfg: StudyConfig, cohort: Cohort | None = None) -> None:
    tables = (cohort or Cohort(cfg)).tables
    balances, inferences, sensitivities = (
        {comp.name: _read_json(_path(cfg, _stage_name(stage, comp.name)), producer) for comp in cfg.comparisons}
        for stage, producer in (("balance", "balance"), ("inference", "infer"), ("sensitivity", "sensitivity"))
    )

    for comp in cfg.comparisons:
        info = balances[comp.name]
        rows = info["per_method"][info["selected"]]["rows"]
        csv_name, md_name = _balance_report_names(comp.name)
        _write_text(_path(cfg, csv_name), _balance_csv(rows))
        _write_text(_path(cfg, md_name), _balance_md(comp.name, info["selected"], rows))
    texts = (
        _match_summary_csv(cfg, balances),
        _composition_csv(cfg, balances),
        _inference_csv(cfg, inferences),
        _sensitivity_csv(cfg, sensitivities),
        _quantiles_csv(cfg, tables),
        _decisions_text(cfg, balances, inferences, sensitivities),
    )
    for name, text in zip(_REPORT_NAMES, texts, strict=True):
        _write_text(_path(cfg, name), text)
    _write_text(_path(cfg, "manifest.txt"), _manifest_text(cfg, balances))


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _write_failure_manifest(cfg: StudyConfig, stage: str, error: Exception) -> None:
    try:
        head = f"FAILED at stage {stage}\nerror: {type(error).__name__}: {error}\nfiles written so far:\n"
        _write_text(_path(cfg, "failure_manifest.txt"), head + _digest_lines(cfg, _artifact_names(cfg)))
    except OSError:
        pass  # reporting the original failure matters more


def run_stage(cfg: StudyConfig, command: str, cohort: Cohort | None = None) -> None:
    """Run ``stage_<command>(cfg)`` for a subcommand of ``STAGES``, or
    ``stage_<command>(cfg, cohort)`` when given a cohort.

    A ``VALIDATION_ERRORS`` exception propagates unchanged. Any other
    failure writes ``failure_manifest.txt`` naming the stage and raises
    ``PipelineError``.
    """
    stage = {cmd: name for cmd, name, _ in STAGES}[command]
    try:
        globals()[f"stage_{command}"](cfg, *([] if cohort is None else [cohort]))
    except VALIDATION_ERRORS:
        raise
    except Exception as exc:
        _write_failure_manifest(cfg, stage, exc)
        raise PipelineError(stage, str(exc)) from exc


def run_pipeline(cfg: StudyConfig) -> str:
    """Run every stage in order through ``run_stage``; returns the output
    directory.

    Synthesizes the cohort first when the data file does not exist yet, and
    raises ``MissingIntermediateError`` when there is no simulate block to
    synthesize it from. The later stages share one ``Cohort``, so the file
    is read once, by the first of them.
    """
    os.makedirs(cfg.output_dir, exist_ok=True)
    if not os.path.exists(_data_path(cfg)):
        if cfg.simulate is None:
            raise MissingIntermediateError(_data_path(cfg), "simulate")
        run_stage(cfg, "simulate")
    cohort = Cohort(cfg)
    for command, _, _ in STAGES[1:]:
        run_stage(cfg, command, cohort)
    return cfg.output_dir
