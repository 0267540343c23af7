"""One benchmark sample, run by run_bench.py in a fresh interpreter.

    python3 bench/child.py SPEC

SPEC is a JSON file with the source directory (``src``), the study config
path (``config``), the stage plan (``plan``: ``run`` for run_pipeline,
``rematch`` for the propensity, match and balance stages as separate calls,
``setup`` for set-up alone), whether to trace (``trace``),
the parent's ``time.monotonic()`` just before it started this process
(``spawned``) and where to write the result (``result``).

Set-up is everything from process start until the cohort is written:
interpreter start, imports, config parsing, cohort synthesis. The timed
region is the plan's stages. A failing stage is a measured outcome: its
error goes into the result and the process exits with 1.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _cpu_seconds() -> float:
    """User plus system time of this process, its threads and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """High-water RSS of this process image.

    ``ru_maxrss`` would also count the parent's RSS, which Linux carries
    across the fork and exec that started this process; ``VmHWM`` does not.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from matchstudy import pipeline
    from matchstudy.config import load_config

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    result = {"error": None}
    try:
        cfg = load_config(spec["config"])
        pipeline.stage_simulate(cfg)
        result["setup_s"] = time.monotonic() - spec["spawned"]
        if spec["plan"] != "setup":
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            if spec["plan"] == "run":
                pipeline.run_pipeline(cfg)
            else:
                pipeline.stage_propensity(cfg)
                pipeline.stage_match(cfg)
                pipeline.stage_balance(cfg)
            result["wall_s"] = time.perf_counter() - t0
            result["cpu_s"] = _cpu_seconds() - cpu0
    except Exception as exc:  # reported to the parent, which counts the failed run
        result["error"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    result["peak_rss_mb"] = _peak_rss_mb()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if result["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
