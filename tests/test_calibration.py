"""End-to-end calibration: the whole pipeline, run on synthetic cohorts with
known effects, covers the planted shifts and holds its level on the nulls.

Each run goes through simulation, scoring, the caliper, the cells, balance
selection, covariate imputation, outcome exclusion and the Cohen grid, so a
defect that keeps every layer's byte-level and oracle checks self-consistent
still shows here. The seeds were fixed before the test was first run. The
bounds are three binomial standard deviations from the nominal rates at 100
seeds: coverage at least 89 of 100, null rejections at most 11 of 100.
"""
import json
import os

from matchstudy import pipeline
from matchstudy.config import config_from_dict, default_config_dict

SEEDS = range(100)
#: The continuous outcome with no effect that this test adds to the recipe.
NULL_OUTCOME = {"name": "y_null", "kind": "continuous", "coefs": [0.3, -0.2, 0.2, 0.1, 0.0, 0.2], "effect": 0.0}


def calibration_config(out_dir, seed):
    """The default recipe cut to the MLE score and comparison-1, with one
    more continuous outcome under the null. The recipe keeps its 4% missing
    covariates and 3% missing ``y_aux``."""
    cfg = default_config_dict()
    cfg.update(output_dir=out_dir, seed=seed, propensity_methods=["mle"], comparisons=cfg["comparisons"][:1])
    cfg["secondary_outcomes"].append({"name": NULL_OUTCOME["name"], "kind": NULL_OUTCOME["kind"]})
    cfg["simulate"]["outcomes"].append(NULL_OUTCOME)
    return cfg


def test_hulls_cover_planted_effects_and_nulls_hold_their_level(tmp_path):
    recipe = default_config_dict()["simulate"]
    effects = {o["name"]: o["effect"] for o in recipe["outcomes"] if o["name"] in ("y", "y_aux")}
    assert effects == {"y": 0.5, "y_aux": 0.2}
    covered = {name: 0 for name in effects}
    rejected = {"y_bin": 0, "y_null": 0}
    for seed in SEEDS:
        cfg = config_from_dict(calibration_config(str(tmp_path / f"seed-{seed}"), seed))
        pipeline.run_pipeline(cfg)
        with open(os.path.join(cfg.output_dir, "inference_comparison-1.json"), encoding="utf-8") as fh:
            outcomes = json.load(fh)["outcomes"]
        for name, effect in effects.items():
            hull = outcomes[name]["hull"]
            covered[name] += hull is not None and hull[0] <= effect <= hull[1]
        rejected["y_bin"] += outcomes["y_bin"]["mantel_haenszel"]["p_two_sided"] <= cfg.inference.alpha
        rejected["y_null"] += outcomes["y_null"]["point"]["p_two_sided"] <= cfg.inference.alpha
    assert all(count >= 89 for count in covered.values()), covered
    assert all(count <= 11 for count in rejected.values()), rejected
