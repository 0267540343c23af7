"""Layer spans and counts for the traced benchmark samples.

``Tracer.install`` replaces public functions of the matchstudy modules,
where their callers look them up, with wrappers that record one span per
call (name, start, end, parent span) and add counts computed from the call's
arguments. Wrappers pass arguments and results through unchanged. Spans stay
in memory until the sample ends; ``layer_metrics`` turns them into the
per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

# (module the caller looks the name up in, attribute, layer name). The
# pipeline imports the dataset functions by name, so they are wrapped there.
WRAPPED = (
    ("matchstudy.pipeline", "stage_propensity", "pipeline.stage_propensity"),
    ("matchstudy.pipeline", "stage_match", "pipeline.stage_match"),
    ("matchstudy.pipeline", "stage_balance", "pipeline.stage_balance"),
    ("matchstudy.pipeline", "stage_infer", "pipeline.stage_infer"),
    ("matchstudy.pipeline", "stage_sensitivity", "pipeline.stage_sensitivity"),
    ("matchstudy.pipeline", "stage_report", "pipeline.stage_report"),
    ("matchstudy.pipeline", "load_cohort", "pipeline.load_cohort"),
    ("matchstudy.pipeline", "load_match", "pipeline.load_match"),
    ("matchstudy.pipeline", "load_subjects", "dataset.load_subjects"),
    ("matchstudy.pipeline", "attrition_check", "dataset.attrition_check"),
    ("matchstudy.pipeline", "generate_synthetic", "dataset.generate_synthetic"),
    ("matchstudy.propensity", "fit_mle", "propensity.fit_mle"),
    ("matchstudy.propensity", "fit_l1", "propensity.fit_l1"),
    ("matchstudy.propensity", "fit_bayes", "propensity.fit_bayes"),
    ("matchstudy.propensity", "fit_bart_propensity", "propensity.fit_bart_propensity"),
    ("matchstudy.matching", "build_match", "matching.build_match"),
    ("matchstudy.matching", "rank_mahalanobis", "matching.rank_mahalanobis"),
    ("matchstudy.matching", "apply_caliper", "matching.apply_caliper"),
    ("matchstudy.matching", "match_bucket", "matching.match_bucket"),
    ("matchstudy.balance", "balance_table", "balance.balance_table"),
    ("matchstudy.inference", "invert_tests", "inference.invert_tests"),
    ("matchstudy.inference", "matched_arrays", "inference.matched_arrays"),
    ("matchstudy.inference", "align_responses", "inference.align_responses"),
    ("matchstudy.inference", "covariance_adjust", "inference.covariance_adjust"),
    ("matchstudy.inference", "permutational_t_test", "inference.permutational_t_test"),
    ("matchstudy.inference", "mantel_haenszel", "inference.mantel_haenszel"),
    ("matchstudy.inference", "conditional_logistic", "inference.conditional_logistic"),
    ("matchstudy.sensitivity", "gamma_threshold", "sensitivity.gamma_threshold"),
    ("matchstudy.sensitivity", "sensitivity_residual", "sensitivity.sensitivity_residual"),
    ("matchstudy.sensitivity", "sensitivity_mh", "sensitivity.sensitivity_mh"),
)

REGIMES = ("surplus", "intermediate", "scarce")


def bucket_regime(n_t: int, n_c: int, k: int) -> tuple[str, int]:
    """The regime ``match_bucket`` solves a cell in, and the rows x columns
    of the cost matrix it hands to the assignment solver (computed here from
    the cell sizes, not read from the solver)."""
    if n_t == 0 or n_c == 0:
        return "empty", 0
    if n_c < n_t:
        return "scarce", n_c * n_t
    if n_c >= k * n_t:
        return "surplus", k * n_t * n_c
    rows = n_t * min(k, n_c - n_t + 1)
    return "intermediate", rows * rows


def _bucket(name: str, args: dict) -> tuple[str, dict]:
    regime, entries = bucket_regime(len(args["treated_ids"]), len(args["control_ids"]), args["k"])
    return f"{name}.{regime}", {"matching.lsa_entries": entries}


def _sets_into(counter: str):
    def hook(name: str, args: dict) -> tuple[str, dict]:
        return name, {counter: len(args["sets"])}

    return hook


# Layers whose span name or counts depend on the call's arguments.
HOOKS = {
    "matching.match_bucket": _bucket,
    "inference.permutational_t_test": _sets_into("inference.set_tests"),
    "inference.mantel_haenszel": _sets_into("inference.set_tests"),
    "inference.conditional_logistic": _sets_into("inference.set_tests"),
    "sensitivity.sensitivity_residual": _sets_into("sensitivity.set_bounds"),
    "sensitivity.sensitivity_mh": _sets_into("sensitivity.set_bounds"),
}


class Tracer:
    """Spans as ``[name, start, end, parent index or -1]`` plus named counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), name))

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            stack = self._stack()
            with self._lock:
                if hook is not None:
                    span_name, counts = hook(name, signature.bind(*args, **kwargs).arguments)
                    for key, value in counts.items():
                        self.counts[key] = self.counts.get(key, 0) + value
                index = len(self.spans)
                span = [span_name, 0.0, 0.0, stack[-1] if stack else -1]
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: busy time ``s`` (union of its spans), ``self_s`` (span
    time not covered by child spans) and ``calls``."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    intervals: dict[str, list[tuple[float, float]]] = {}
    self_time: dict[str, float] = {}
    for index, (name, start, end, _) in enumerate(spans):
        intervals.setdefault(name, []).append((start, end))
        own = (end - start) - _covered(children.get(index, []))
        self_time[name] = self_time.get(name, 0.0) + own
    return {
        name: {"s": _covered(spans_of), "self_s": self_time[name], "calls": len(spans_of)}
        for name, spans_of in intervals.items()
    }


def _names(layer: str, *measures: str) -> list[str]:
    return [f"{layer}.{m}" for m in measures]


STAGES = ("propensity", "match", "balance", "infer", "sensitivity", "report")

PER_LAYER = (
    *[n for stage in STAGES for n in _names(f"pipeline.stage_{stage}", "s", "self_s")],
    *_names("pipeline.load_cohort", "s", "calls"),
    *_names("pipeline.load_match", "s", "calls"),
    "pipeline.artifact_bytes",
    *[n for fit in ("mle", "l1", "bayes", "bart_propensity") for n in _names(f"propensity.fit_{fit}", "s", "calls")],
    *_names("matching.build_match", "s", "self_s", "calls"),
    "matching.rank_mahalanobis.s",
    "matching.apply_caliper.s",
    *[n for regime in REGIMES for n in _names(f"matching.match_bucket.{regime}", "s", "cells")],
    "matching.lsa_entries",
    *_names("balance.balance_table", "s", "calls"),
    *_names("inference.invert_tests", "s", "self_s", "calls"),
    *[
        n
        for fn in (
            "matched_arrays",
            "align_responses",
            "covariance_adjust",
            "permutational_t_test",
            "mantel_haenszel",
            "conditional_logistic",
        )
        for n in _names(f"inference.{fn}", "s", "calls")
    ],
    "inference.set_tests",
    *[
        n
        for fn in ("gamma_threshold", "sensitivity_residual", "sensitivity_mh")
        for n in _names(f"sensitivity.{fn}", "s", "calls")
    ],
    "sensitivity.set_bounds",
    "dataset.load_subjects.s",
    "dataset.attrition_check.s",
    "dataset.generate_synthetic.s",
)

def unit_of(metric: str) -> str:
    measure = metric.rpartition(".")[2]
    if measure in ("s", "self_s"):
        return "s"
    if measure == "artifact_bytes":
        return "bytes"
    return "count"


def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced sample. Layers the sample
    never entered read 0."""
    stats = layer_stats(spans)
    out = {}
    for metric in PER_LAYER:
        layer, _, measure = metric.rpartition(".")
        if measure in ("s", "self_s", "calls"):
            out[metric] = stats.get(layer, {}).get(measure, 0)
        elif measure == "cells":
            out[metric] = stats.get(layer, {}).get("calls", 0)
        else:
            out[metric] = counts.get(metric, 0)
    return out
