"""The benchmark's workloads.

A workload is a study config plus the stages to time. The workload seed
feeds both the cohort synthesis and the config ``seed``; the pipeline sees
only the generated ``cohort.csv`` and the config. Each workload is sized so
that a different layer does most of the work, and so that one sample fits
the benchmark's run length (see README.md).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

RUN = "run"  # pipeline.run_pipeline
REMATCH = "rematch"  # stage_propensity, stage_match, stage_balance as separate calls
SETUP = "setup"  # set-up alone: start, imports, config parsing, cohort synthesis


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    plan: str
    build: Callable[[], dict]

    def config(self, seed: int) -> dict:
        cfg = self.build()
        cfg["seed"] = seed
        return cfg


def sample_seed(seed: int, index: int) -> int:
    """Workload seed of an invocation's sample ``index``: the invocation's
    own seed first, then seeds derived from it, so that one invocation
    measures several cohorts and the same seed always gives the same ones."""
    if index == 0:
        return seed
    return int.from_bytes(hashlib.sha256(f"{seed}/{index}".encode()).digest()[:4], "big")


def _defaults() -> dict:
    # Imported on use, so that the harness can check for the sources first.
    from matchstudy.config import default_config_dict

    return default_config_dict()


def _default_first_comparison() -> dict:
    cfg = _defaults()
    cfg["comparisons"] = cfg["comparisons"][:1]
    return cfg


def _mle_only(n: int) -> Callable[[], dict]:
    def build() -> dict:
        cfg = _defaults()
        cfg["propensity_methods"] = ["mle"]
        cfg["simulate"]["n"] = n
        return cfg

    return build


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "default-comp1-n500",
            "the --print-defaults config cut to comparison-1: the BART and L1 score fits take most of the time",
            RUN,
            _default_first_comparison,
        ),
        Workload(
            "rematch-n10000",
            "score, match and balance as separate stage calls at n=10000: match_bucket takes most of the time",
            REMATCH,
            _mle_only(10000),
        ),
    )
}
