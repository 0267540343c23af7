"""End-to-end calibration: the whole pipeline, run on synthetic cohorts with
known effects, covers the planted shifts and holds its level on the nulls,
and its sensitivity bound holds its level under a planted hidden confounder.

Each run goes through simulation, scoring, the caliper, the cells, balance
selection, covariate imputation, outcome exclusion and the Cohen grid, so a
defect that keeps every layer's byte-level and oracle checks self-consistent
still shows here. The seeds were fixed before the test was first run. The
bounds are three binomial standard deviations from the nominal rates at 100
seeds: coverage at least 89 of 100, null rejections at most 11 of 100.
"""
import json
import math
import os

import numpy as np

from matchstudy import pipeline
from matchstudy.config import config_from_dict, default_config_dict
from matchstudy.dataset import save_subjects
from util import make_table

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


def confounded_config(out_dir, seed):
    """The default study cut to the MLE score, comparison-1 and the primary
    outcome, with no recipe: the cohort comes from ``write_confounded_cohort``."""
    cfg = default_config_dict()
    cfg.update(
        output_dir=out_dir,
        seed=seed,
        propensity_methods=["mle"],
        comparisons=cfg["comparisons"][:1],
        secondary_outcomes=[],
        simulate=None,
    )
    return cfg


def write_confounded_cohort(cfg, seed, gamma0, beta_u, n=1000):
    """A cohort of the default recipe's six covariates, strata and ``y``, with
    no treatment effect and no missing value, plus a hidden u ~ Bernoulli(0.5)
    that never reaches the file. u adds log ``gamma0`` to the treatment
    log-odds and ``beta_u`` to y, so it is a confounder whose odds ratio of
    treatment is ``gamma0``."""
    recipe = default_config_dict()["simulate"]
    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.standard_normal((n, recipe["n_continuous"])), rng.integers(0, 2, (n, recipe["n_binary"]))])
    u = rng.integers(0, 2, n)
    log_odds = recipe["propensity_intercept"] + x @ recipe["propensity_coefs"] + math.log(gamma0) * u
    z = rng.random(n) < 1.0 / (1.0 + np.exp(-log_odds))
    (y_model,) = [o for o in recipe["outcomes"] if o["name"] == "y"]
    y = x @ y_model["coefs"] + beta_u * u + rng.standard_normal(n)
    stratum = rng.choice(recipe["strata"], size=n, p=recipe["strata_probs"]).tolist()
    table = make_table(
        z=z,
        covariates=x,
        covariate_names=[c.name for c in cfg.covariates],
        stratum=stratum,
        outcomes=y,
        outcome_names=("y",),
    )
    save_subjects(table, os.path.join(cfg.output_dir, cfg.data), cfg.columns)


def test_sensitivity_bound_holds_its_level_under_a_hidden_confounder(tmp_path):
    # Upper-tail rejections of the true null "no effect" at alpha, counted at
    # gamma 1 (the naive test) and at gamma 2, per planted (gamma0, beta_u).
    # Gamma 2 bounds a confounder of odds ratio 2, so it must hold the level
    # (at most 11 of 100); the naive test must see the confounder that the
    # bound accounts for, rejecting at four times the level or more.
    rejected = {}
    for gamma0, beta_u in ((2.0, 2.0), (1.0, 2.0)):
        counts = rejected[gamma0] = {1.0: 0, 2.0: 0}
        for seed in SEEDS:
            out_dir = tmp_path / f"gamma0-{gamma0:g}-seed-{seed}"
            out_dir.mkdir()
            cfg = config_from_dict(confounded_config(str(out_dir), seed))
            write_confounded_cohort(cfg, seed, gamma0, beta_u)
            pipeline.run_pipeline(cfg)
            with open(out_dir / "sensitivity_comparison-1.json", encoding="utf-8") as fh:
                curve = json.load(fh)["outcomes"]["y"]
            p_upper = {round(g, 9): p for g, p in zip(curve["gammas"], curve["p_upper"])}
            for gamma in counts:
                counts[gamma] += p_upper[gamma] <= cfg.inference.alpha
    assert rejected[2.0][1.0] >= 20, rejected
    assert rejected[2.0][2.0] <= 11, rejected
    assert rejected[1.0][1.0] <= 11, rejected
