"""Benchmark of the matchstudy pipeline.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; ``--workload all`` runs every
workload in turn. Each sample runs the workload in a fresh child process
(child.py). Samples run back to back, one at a time (a closed loop with one
client), until the next one would end after ``--seconds``; at least one runs.
Every sample's outputs are checked (checks.py), and all samples of one
invocation must leave identical artifacts. The brute-force oracle suite runs
once per invocation.

With ``--trace 1`` untraced and traced samples alternate; the traced ones
give the per-layer metrics (spans.py) and the difference of the two medians
is the tracing overhead.

Output: one line per workload with its end-to-end metrics, then one JSON
record per workload (samples, artifact digest, oracle checks, environment),
and as the last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end medians, or with ``--trace 1`` the
per-layer metrics. A run that fails, or whose outputs fail a check, counts
in ``failed``; so does a failed oracle suite, which counts as one attempt.
"""
from __future__ import annotations

import argparse
import compileall
import contextlib
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import RUN, SETUP, WORKLOADS, sample_seed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A run must end within 180 s; a child still running after this is killed.
RUN_LIMIT_S = 170.0

# Set-ups measured per invocation; set-up-only children make up the count
# when fewer samples fit.
MIN_SETUPS = 5

# (name, unit) of each end-to-end metric.
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def run_sample(config: dict, plan: str, traced: bool, sample_dir: Path, timeout: float) -> dict:
    """Run one sample in a child process, check its outputs, and remove them."""
    out_dir = sample_dir / "out"
    sample_dir.mkdir(parents=True)
    config = dict(config, output_dir=str(out_dir))
    paths = {name: sample_dir / name for name in ("config.json", "spec.json", "result.json", "stderr.txt")}
    paths["config.json"].write_text(json.dumps(config), encoding="utf-8")
    started = time.monotonic()
    spec = {
        "src": str(SRC),
        "config": str(paths["config.json"]),
        "plan": plan,
        "trace": traced,
        "spawned": started,
        "result": str(paths["result.json"]),
    }
    paths["spec.json"].write_text(json.dumps(spec), encoding="utf-8")
    sample = {"traced": traced, "error": None, "checks": []}
    try:
        with open(paths["stderr.txt"], "w", encoding="utf-8") as err:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(paths["spec.json"])],
                stdout=subprocess.DEVNULL,
                stderr=err,
                cwd=ROOT,
                timeout=timeout,
            )
    except subprocess.TimeoutExpired:
        sample["error"] = f"killed after {timeout:.0f} s"
    else:
        if paths["result.json"].exists():
            result = json.loads(paths["result.json"].read_text(encoding="utf-8"))
            sample["error"] = result.pop("error")
            sample.update((k, v) for k, v in result.items() if k not in ("spans", "counts"))
            if sample["error"] is None and plan != SETUP:
                sample["checks"] = checks.check_outputs(str(out_dir), config, plan == RUN)
                sample["digest"] = checks.digest(str(out_dir))
                if traced:
                    counts = dict(result["counts"], **{"pipeline.artifact_bytes": checks.artifact_bytes(str(out_dir))})
                    sample["layers"] = spans.layer_metrics(result["spans"], counts)
        else:
            tail = paths["stderr.txt"].read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
            sample["error"] = f"child exited with {proc.returncode}: " + " | ".join(tail)
    shutil.rmtree(sample_dir)
    sample["duration_s"] = time.monotonic() - started
    return sample


def _top_percentile(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": math.floor(100 * (n - 10) / n), "value": sorted(values)[n - 11]}


def _median(samples: list[dict], key: str) -> float | None:
    values = [s[key] for s in samples if s.get(key) is not None]
    return statistics.median(values) if values else None


def _openblas() -> list[dict]:
    """Each OpenBLAS loaded in this process, with its build and thread count."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for name in ("scipy_openblas_%s64_", "scipy_openblas_%s", "openblas_%s64_", "openblas_%s"):
            get_config = getattr(lib, name % "get_config", None)
            get_threads = getattr(lib, name % "get_num_threads", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                entry.update(config=get_config().decode(), threads=get_threads())
                break
        found.append(entry)
    return found


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one invocation of a workload; returns (result, record)."""
    from matchstudy.oracles import run_oracle_suite

    invocation_start = time.monotonic()
    load_start = os.getloadavg()
    work = WORK / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    samples: list[dict] = []
    while True:
        # Untraced invocations measure a new cohort with each sample; traced
        # ones alternate untraced and traced samples of the first cohort.
        traced = trace and len(samples) % 2 == 1
        cohort = seed if trace else sample_seed(seed, len(samples))
        timeout = max(10.0, RUN_LIMIT_S - (time.monotonic() - invocation_start))
        sample = run_sample(workload.config(cohort), workload.plan, traced, work / f"sample{len(samples)}", timeout)
        samples.append(dict(sample, cohort=cohort))
        elapsed = time.monotonic() - invocation_start
        typical = statistics.median(s["duration_s"] for s in samples)
        if len(samples) >= (2 if trace else 1) and elapsed + typical > seconds:
            break
    probes: list[dict] = []
    while sum(1 for s in samples + probes if not s["traced"] and s.get("setup_s") is not None) < MIN_SETUPS:
        timeout = max(10.0, RUN_LIMIT_S - (time.monotonic() - invocation_start))
        probes.append(run_sample(workload.config(seed), SETUP, False, work / f"setup{len(probes)}", timeout))
        if probes[-1]["error"] is not None:
            break
    shutil.rmtree(work, ignore_errors=True)

    # Every sample of one workload and cohort, traced or not, must leave the
    # same artifacts, and every traced sample must count the same work.
    completed = [s for s in samples if s["error"] is None]
    digests: dict[int, str] = {}
    traced_done = [s for s in completed if s["traced"]]
    for s in completed:
        if digests.setdefault(s["cohort"], s["digest"]) != s["digest"]:
            s["checks"].append("artifacts differ from the cohort's first sample" + (" (traced)" if s["traced"] else ""))
        if s["traced"]:
            first = traced_done[0]["layers"]
            moved = [m for m in spans.PER_LAYER if spans.unit_of(m) != "s" and s["layers"][m] != first[m]]
            if moved:
                s["checks"].append(f"counts differ from the first traced sample: {', '.join(moved[:5])}")
    oracle = [{"name": c.name, "passed": bool(c.passed), "detail": c.detail} for c in run_oracle_suite(seed=seed)]
    attempted = len(samples) + len(probes) + 1
    failed = (
        sum(1 for s in samples + probes if s["error"] is not None or s["checks"])
        + int(not all(c["passed"] for c in oracle))
    )

    untraced = [s for s in completed if not s["traced"]]
    end_to_end = {name: _median(untraced, name) for name, _ in END_TO_END}
    end_to_end["setup_s"] = _median(untraced + [p for p in probes if p["error"] is None], "setup_s")
    if trace:
        metrics = {m: {"value": _layer_value(traced_done, m), "unit": spans.unit_of(m)} for m in spans.PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    wall_traced = _median(traced_done, "wall_s")
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "digest": digests.get(seed),
        "digests": {str(cohort): d for cohort, d in digests.items()},
        "end_to_end": end_to_end,
        "wall_s": {
            "median": end_to_end["wall_s"],
            "top_percentile": _top_percentile([s["wall_s"] for s in untraced]),
            "samples": len(untraced),
        },
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "tracing_overhead_s": (
            wall_traced - end_to_end["wall_s"] if wall_traced is not None and end_to_end["wall_s"] is not None else None
        ),
        "samples": [{k: v for k, v in s.items() if k != "layers"} for s in samples],
        "setup_probes": probes,
        "oracle": oracle,
        "environment": dict(environment(), seed=seed, load_start=load_start, load_end=os.getloadavg()),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def _layer_value(traced: list[dict], metric: str) -> float | None:
    """Median time over the traced samples; counts, which repeat, from the first."""
    if not traced:
        return None
    if spans.unit_of(metric) == "s":
        return statistics.median(s["layers"][metric] for s in traced)
    return traced[0]["layers"][metric]


def summary_line(record: dict) -> str:
    parts = [f"{record['workload']} seed {record['seed']}:"]
    for name, unit in END_TO_END:
        value = record["end_to_end"][name]
        parts.append(f"{name} {'-' if value is None else f'{value:.4f}'} {unit},")
    parts.append(f"error_rate {record['error_rate']:.4f} ({record['failed']} of {record['attempted']} failed),")
    parts.append(f"median of {record['wall_s']['samples']} untraced samples")
    if record["trace"]:
        overhead = record["tracing_overhead_s"]
        parts.append(f"| tracing overhead {'-' if overhead is None else f'{overhead:.4f}'} s")
    return " ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "matchstudy" / "__init__.py").is_file():
        print(f"error: no matchstudy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    # Bytecode is compiled once, as for an installed package, so set-up
    # times measure interpreter start and imports rather than compilation.
    compileall.compile_dir(str(SRC), quiet=1)

    runs = []
    for workload in chosen:
        result, record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(summary_line(record), flush=True)
        runs.append((workload.name, result, record))
    with contextlib.suppress(OSError):  # left in place while another invocation uses it
        WORK.rmdir()
    for _, _, record in runs:
        print(json.dumps(record, sort_keys=True))
    if len(runs) == 1:
        final = runs[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r, _ in runs),
            "attempted": sum(r["attempted"] for _, r, _ in runs),
            "failed": sum(r["failed"] for _, r, _ in runs),
            "metrics": {f"{name}.{m}": v for name, r, _ in runs for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
