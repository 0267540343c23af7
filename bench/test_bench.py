"""Self-test of the benchmark on a small cohort.

    python3 -m pytest bench/test_bench.py

The small config has the shape of the n=260 reduced config in the CLI
tests; it is copied here so that the benchmark stays apart from the suite.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run_bench
import spans
from workloads import RUN, WORKLOADS, Workload

sys.path.insert(0, str(run_bench.SRC))


def small_config() -> dict:
    return {
        "data": "cohort.csv",
        "covariates": [
            {"name": "x1", "kind": "continuous"},
            {"name": "x2", "kind": "continuous"},
            {"name": "x3", "kind": "continuous"},
            {"name": "b1", "kind": "binary"},
        ],
        "primary_outcome": {"name": "y", "kind": "continuous"},
        "secondary_outcomes": [
            {"name": "y_bin", "kind": "binary"},
            {"name": "y_aux", "kind": "continuous"},
        ],
        "comparisons": [
            {"name": "comparison-1", "control_groups": None},
            {"name": "comparison-2", "control_groups": ["sport"]},
            {"name": "comparison-3", "control_groups": ["non-sport"]},
            {"name": "comparison-4", "treated_groups": ["sport"], "control_groups": ["non-sport"]},
        ],
        "propensity_methods": ["mle", "l1"],
        "simulate": {
            "n": 260,
            "n_continuous": 3,
            "n_binary": 1,
            "propensity_intercept": -0.5,
            "propensity_coefs": [0.5, -0.4, 0.3, 0.4],
            "outcomes": [
                {"name": "y", "kind": "continuous", "coefs": [0.4, 0.3, -0.2, 0.2], "effect": 0.5},
                {"name": "y_bin", "kind": "binary", "coefs": [0.3, 0.0, 0.2, 0.1], "effect": 0.0},
                {
                    "name": "y_aux",
                    "kind": "continuous",
                    "coefs": [0.0, 0.2, -0.3, 0.1],
                    "effect": 0.2,
                    "missing_rate": 0.05,
                },
            ],
            "strata": ["band-1", "band-2"],
            "strata_probs": [0.55, 0.45],
            "covariate_missing_rate": 0.03,
            "control_groups": ["sport", "non-sport"],
            "control_group_probs": [0.45, 0.55],
            "treated_group_label": "football",
        },
    }


def empty_control_arm() -> dict:
    cfg = small_config()
    cfg["comparisons"][1]["control_groups"] = ["no-such-group"]
    return cfg


SMALL = Workload("small", "self-test", RUN, small_config)
SEED = 7


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.fixture(scope="module")
def traced_runs():
    return [run_bench.run_workload(SMALL, SEED, seconds=1, trace=True) for _ in range(2)]


def test_declared_workloads_exist():
    spec = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_end_to_end_metrics_emitted_with_units():
    result, record = run_bench.run_workload(SMALL, SEED, seconds=1, trace=False)
    assert result["correct"], record
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["error_rate"] == 0.0
    assert all(c["passed"] for c in record["oracle"])


def test_per_layer_metrics_emitted_with_units(traced_runs):
    result, record = traced_runs[0]
    assert result["correct"], record
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared("per_layer")
    reached = ("propensity.fit_l1.calls", "matching.build_match.calls", "inference.set_tests", "sensitivity.set_bounds")
    assert all(result["metrics"][m]["value"] > 0 for m in reached)
    assert record["tracing_overhead_s"] is not None


def test_counts_and_digests_repeat_exactly(traced_runs):
    (first, first_record), (second, second_record) = traced_runs
    counts = [m for m in spans.PER_LAYER if spans.unit_of(m) != "s"]
    assert {m: first["metrics"][m]["value"] for m in counts} == {m: second["metrics"][m]["value"] for m in counts}
    digests = {s["digest"] for r in (first_record, second_record) for s in r["samples"]}
    assert len(digests) == 1 and first_record["digest"] in digests


def test_failing_config_is_a_failed_run():
    broken = Workload("empty-control-arm", "must fail", RUN, empty_control_arm)
    result, record = run_bench.run_workload(broken, SEED, seconds=1, trace=False)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["attempted"] == len(record["samples"]) + len(record["setup_probes"]) + 1
    assert "empty control arm" in record["samples"][0]["error"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run_bench.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run_bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", next(iter(WORKLOADS))]
        + ["--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
