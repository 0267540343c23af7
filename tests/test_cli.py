import argparse
import concurrent.futures.process
import copy
import csv
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy

import matchstudy
from matchstudy import pipeline, propensity
from matchstudy.cli import build_parser, main
from matchstudy.config import config_from_dict, default_config, default_config_dict, load_config
from matchstudy.matching import MatchCounts, build_match
from matchstudy.dataset import Columns, ValidationError


def reduced_config_dict(out_dir, seed=7):
    """A small cohort with the two cheap estimators; runs in seconds."""
    return {
        "data": "cohort.csv",
        "output_dir": out_dir,
        "seed": seed,
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


def simulate_with(**changes):
    """A config entry: the reduced simulate block with some values changed."""
    return {"simulate": dict(reduced_config_dict(None)["simulate"], **changes)}


def write_config(tmp_path, obj, name="study.json"):
    path = os.path.join(str(tmp_path), name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
    return path


def dir_digest(out_dir):
    digests = {}
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


REPORT_FILES = (
    "match_summary.csv",
    "composition.csv",
    "inference.csv",
    "sensitivity.csv",
    "propensity_quantiles.csv",
    "decisions.txt",
    "manifest.txt",
)


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-run")
    out_dir = os.path.join(str(base), "out")
    cfg_path = write_config(base, reduced_config_dict(out_dir))
    code = main(["run", "--config", cfg_path])
    assert code == 0
    return cfg_path, out_dir, dir_digest(out_dir)


class TestDefaults:
    def test_print_defaults_round_trips(self, capsys):
        assert main(["--print-defaults"]) == 0
        printed = capsys.readouterr().out
        obj = json.loads(printed)
        assert config_from_dict(obj) == default_config()

    def test_no_command_is_a_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_defaults_dict_is_plain_json(self):
        text = json.dumps(default_config_dict())
        assert json.loads(text) == default_config_dict()


class TestValidation:
    def test_unknown_covariate_named_in_error(self, tmp_path, capsys):
        obj = reduced_config_dict(os.path.join(str(tmp_path), "out"))
        obj["covariates"].append({"name": "ghost", "kind": "continuous"})
        cfg_path = write_config(tmp_path, obj)
        assert main(["run", "--config", cfg_path]) == 1
        assert "ghost" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        obj = reduced_config_dict(os.path.join(str(tmp_path), "out"))
        obj["matcing"] = {}
        cfg_path = write_config(tmp_path, obj)
        assert main(["run", "--config", cfg_path]) == 1
        assert "matcing" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["matching", "inference", "sensitivity"])
    def test_unknown_section_key_named_in_error(self, section):
        with pytest.raises(ValidationError, match="n_drawz"):
            config_from_dict({section: {"n_drawz": 5}})

    def test_unknown_section_key_is_a_configuration_error(self, tmp_path, capsys):
        obj = reduced_config_dict(os.path.join(str(tmp_path), "out"))
        obj["inference"] = {"n_drawz": 5}
        cfg_path = write_config(tmp_path, obj)
        assert main(["run", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: ")
        assert "n_drawz" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n_draws", [0, -5, 2.7, True, "100"])
    def test_bad_draw_count_rejected(self, n_draws):
        with pytest.raises(ValidationError, match="n_draws"):
            config_from_dict({"inference": {"n_draws": n_draws}})

    @pytest.mark.parametrize("penalty", [-1.0, float("inf"), float("nan"), "1"])
    def test_bad_caliper_penalty_rejected(self, penalty):
        with pytest.raises(ValidationError, match="caliper_penalty"):
            config_from_dict({"matching": {"caliper_penalty": penalty}})

    @pytest.mark.parametrize("width", [0.0, -0.2, float("inf"), float("nan"), True])
    def test_bad_caliper_width_rejected(self, width):
        with pytest.raises(ValidationError, match="caliper_width_sd"):
            config_from_dict({"matching": {"caliper_width_sd": width}})

    def test_valid_matching_and_draw_values_accepted(self):
        cfg = config_from_dict({"matching": {"caliper_penalty": 0}, "inference": {"n_draws": 1}})
        assert (cfg.matching.caliper_penalty, cfg.inference.n_draws) == (0, 1)
        assert config_from_dict({"matching": {"caliper_penalty": 2.5}}).matching.caliper_penalty == 2.5

    @pytest.mark.parametrize("max_controls", [0, 16, 2.5, True, "3"])
    def test_bad_max_controls_rejected(self, max_controls):
        with pytest.raises(ValidationError, match="max_controls"):
            config_from_dict({"matching": {"max_controls": max_controls}})

    @pytest.mark.parametrize("alpha", [0.0, 1.0, float("nan"), "x", True, None])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValidationError, match="alpha"):
            config_from_dict({"inference": {"alpha": alpha}})

    @pytest.mark.parametrize(
        "grid",
        [
            {"step": "0.1"},
            {"step": float("nan")},
            {"stop": float("nan")},
            {"stop": float("inf")},
            {"start": "1"},
            {"start": True},
            {"step": 0.0},
            {"stop": 1.0},
            {"step": 0.3},
            {"step": 5.0},
        ],
    )
    def test_bad_sensitivity_grid_rejected(self, grid):
        with pytest.raises(ValidationError, match="sensitivity"):
            config_from_dict({"sensitivity": grid})

    @pytest.mark.parametrize("step", [0.05, 0.25, 2.0])
    def test_sensitivity_step_that_divides_the_span_accepted(self, step):
        grid = config_from_dict({"sensitivity": {"step": step}}).sensitivity.grid()
        np.testing.assert_allclose(np.diff(grid), step)
        assert (grid[0], grid[-1]) == (1.0, 3.0)

    @pytest.mark.parametrize("margin", [-0.1, float("nan"), float("inf"), "0.2", True])
    def test_bad_equivalence_margin_rejected(self, margin):
        with pytest.raises(ValidationError, match="equivalence_margin_sd"):
            config_from_dict({"equivalence_margin_sd": margin})

    def test_negative_seed_override_is_a_configuration_error(self, tmp_path, capsys):
        out_dir = os.path.join(str(tmp_path), "out")
        cfg_path = write_config(tmp_path, reduced_config_dict(out_dir))
        assert main(["run", "--config", cfg_path, "--seed", "-3"]) == 1
        assert capsys.readouterr().err.startswith("error: invalid configuration: seed must be an integer >= 0")
        assert not os.path.exists(out_dir)

    def test_integer_margin_is_read_as_a_float(self):
        assert repr(config_from_dict({"equivalence_margin_sd": 1}).equivalence_margin_sd) == "1.0"

    @pytest.mark.parametrize(
        "section",
        [
            {"matching": {"caliper_penalty": -1.0}},
            {"inference": {"n_draws": 0}},
            {"inference": {"alpha": "x"}},
            {"sensitivity": {"step": "0.1"}},
            {"sensitivity": {"stop": float("nan")}},
            {"matching": {"max_controls": 2.5}},
            {"equivalence_margin_sd": "0.2"},
            {"seed": 2.5},
            {"seed": "7"},
            {"seed": True},
            {"seed": -3},
            simulate_with(n="500"),
            simulate_with(n=2.5),
            simulate_with(n=-5),
            simulate_with(n=0),
            simulate_with(covariate_missing_rate=1.5),
            simulate_with(covariate_missing_rate="0.03"),
            simulate_with(outcomes=[{"name": "y", "missing_rate": -0.1}]),
            simulate_with(strata_probs=[0.9, 0.9]),
            simulate_with(strata_probs=[1.0]),
            simulate_with(control_group_probs=[-0.45, 1.45]),
            simulate_with(control_group_probs=[0.45, float("nan")]),
            simulate_with(strata=[], strata_probs=None),
        ],
    )
    def test_bad_value_is_a_configuration_error_before_any_stage(self, tmp_path, capsys, section):
        out_dir = os.path.join(str(tmp_path), "out")
        obj = reduced_config_dict(out_dir)
        obj.update(section)
        cfg_path = write_config(tmp_path, obj)
        assert main(["run", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: ")
        assert "Traceback" not in err
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"comparisons": [{"name": "comparison-1"}] * 2}, "comparison 'comparison-1' is listed twice"),
            ({"propensity_methods": ["mle", "mle"]}, "propensity method 'mle' is listed twice"),
            ({"secondary_outcomes": [{"name": "y_bin", "kind": "binary"}] * 2}, "outcome 'y_bin' is listed twice"),
            ({"secondary_outcomes": [{"name": "y", "kind": "continuous"}]}, "outcome 'y' is listed twice"),
            ({"secondary_outcomes": [{"name": "x1", "kind": "continuous"}]}, "outcome 'x1' names a covariate"),
        ],
        ids=["comparison", "method", "secondary-outcome", "primary-outcome", "outcome-is-covariate"],
    )
    def test_name_clash_is_a_configuration_error(self, tmp_path, capsys, change, message):
        out_dir = os.path.join(str(tmp_path), "out")
        obj = reduced_config_dict(out_dir)
        obj.update(change)
        assert main(["run", "--config", write_config(tmp_path, obj)]) == 1
        assert capsys.readouterr().err == f"error: invalid configuration: {message}\n"
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize(
        "grid",
        [[float("nan"), 0.0, 0.5], [], [True, 0.0], [-0.5, 0.5], [0.0, float("inf")], [0.0, "0.5"], 0.0],
        ids=["nan", "empty", "bool", "no-zero", "inf", "string", "not-a-list"],
    )
    def test_bad_inference_grid_is_a_configuration_error(self, tmp_path, capsys, grid):
        out_dir = os.path.join(str(tmp_path), "out")
        obj = reduced_config_dict(out_dir)
        obj["inference"] = {"grid": grid}
        assert main(["run", "--config", write_config(tmp_path, obj)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: inference grid ")
        assert not os.path.exists(out_dir)

    def test_inference_grid_is_read_as_floats(self):
        grid = config_from_dict({"inference": {"grid": [-1, 0, 0.5]}}).inference.grid
        assert list(map(repr, grid)) == ["-1.0", "0.0", "0.5"]

    def test_simulate_edge_values_accepted(self):
        strata = [f"band-{i}" for i in range(10)]
        sim = config_from_dict(
            simulate_with(n=1, covariate_missing_rate=1.0, strata=strata, strata_probs=[0.1] * 10)
        ).simulate
        assert (sim.n, sim.covariate_missing_rate, sum(sim.strata_probs)) == (1, 1.0, 0.9999999999999999)

    def test_bad_json_rejected(self, tmp_path, capsys):
        path = os.path.join(str(tmp_path), "broken.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        assert main(["run", "--config", path]) == 1
        assert "invalid" in capsys.readouterr().err.lower()

    def test_missing_config_file_rejected(self, capsys):
        assert main(["run", "--config", "/nonexistent/study.json"]) == 1

    def test_missing_intermediates_name_their_producer(self, tmp_path, capsys):
        out_dir = os.path.join(str(tmp_path), "out")
        obj = reduced_config_dict(out_dir)
        del obj["simulate"]  # no recipe, so nothing can create the cohort
        cfg_path = write_config(tmp_path, obj)
        assert main(["propensity", "--config", cfg_path]) == 1
        assert "simulate" in capsys.readouterr().err
        assert main(["run", "--config", cfg_path]) == 1
        assert capsys.readouterr().err.endswith("cohort.csv not found; run the simulate subcommand first\n")
        assert not os.path.exists(os.path.join(out_dir, "cohort.csv"))

        obj = reduced_config_dict(out_dir)
        cfg_path = write_config(tmp_path, obj)
        assert main(["simulate", "--config", cfg_path]) == 0
        assert main(["match", "--config", cfg_path]) == 1
        assert "propensity" in capsys.readouterr().err
        assert main(["balance", "--config", cfg_path]) == 1
        assert "match" in capsys.readouterr().err
        assert main(["infer", "--config", cfg_path]) == 1
        assert "balance" in capsys.readouterr().err
        assert main(["report", "--config", cfg_path]) == 1
        assert "balance" in capsys.readouterr().err


class TestFullRun:
    def test_all_report_files_written(self, completed_run):
        _, out_dir, _ = completed_run
        for name in REPORT_FILES:
            assert os.path.exists(os.path.join(out_dir, name)), name
        for comp in ("comparison-1", "comparison-2", "comparison-3", "comparison-4"):
            for suffix in (".csv", ".md"):
                assert os.path.exists(os.path.join(out_dir, f"balance_{comp}{suffix}"))

    def test_manifest_lists_every_artifact_with_correct_hash(self, completed_run):
        _, out_dir, digests = completed_run
        listed = {}
        with open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("sha256 "):
                    _, digest, name = line.split()
                    listed[name] = digest
        for name, digest in listed.items():
            assert digests[name] == digest, name
        # everything except the manifest itself must be listed
        assert set(listed) == set(digests) - {"manifest.txt"}

    def test_manifest_records_seeds_and_selection(self, completed_run):
        _, out_dir, _ = completed_run
        with open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8") as fh:
            text = fh.read()
        assert text.startswith("base seed 7\n")
        for comp in ("comparison-1", "comparison-4"):
            assert f"seed {comp} propensity mle " in text
            assert f"seed {comp} propensity l1 " in text
            assert f"selected {comp} " in text
        assert "seed comparison-1 inference y " in text
        # the library versions follow the selections and precede the digests
        lines = text.splitlines()
        versions = [f"numpy {np.__version__}", f"scipy {scipy.__version__}"]
        at = lines.index(versions[0])
        assert lines[at : at + 2] == versions
        assert lines[at - 1].startswith("selected ")
        assert lines[at + 2].startswith("sha256 ")

    def test_propensity_seed_is_the_manifest_seed(self, completed_run):
        # The seed a score file records is the one its manifest line names.
        _, out_dir, _ = completed_run
        with open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8") as fh:
            seeds = {tuple(f[1:4]): int(f[4]) for f in map(str.split, fh) if f[0] == "seed" and f[2] == "propensity"}
        cfg = config_from_dict(reduced_config_dict(out_dir))
        for comp in cfg.comparisons:
            for method in cfg.propensity_methods:
                with open(os.path.join(out_dir, f"propensity_{comp.name}_{method}.json"), encoding="utf-8") as fh:
                    recorded = json.load(fh)["seed"]
                assert recorded == seeds.pop((comp.name, "propensity", method)), (comp.name, method)
        assert not seeds

    def test_composition_counts_match_set_files(self, completed_run):
        cfg_path, out_dir, _ = completed_run
        with open(os.path.join(out_dir, "composition.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        assert header[0] == "ratio"
        names = header[1:]
        with open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8") as fh:
            selected = dict(
                line.split()[1:3] for line in fh if line.startswith("selected ")
            )
        totals = dict.fromkeys(names, 0)
        by_ratio = {}
        for line in lines[1:-1]:
            cells = line.split(",")
            by_ratio[cells[0]] = dict(zip(names, map(int, cells[1:])))
            for name, v in by_ratio[cells[0]].items():
                totals[name] += v
        footer = dict(zip(names, map(int, lines[-1].split(",")[1:])))
        assert lines[-1].startswith("sets,")
        assert footer == totals
        for name in names:
            path = os.path.join(out_dir, f"match_{name}_{selected[name]}.sets.txt")
            with open(path, encoding="utf-8") as fh:
                sizes = [len(line.split(": ")[1].split(",")) for line in fh if line.strip()]
            assert footer[name] == len(sizes)
            for k in range(1, 16):
                assert by_ratio[f"1:{k}"][name] == sizes.count(k)

    def test_rerun_is_byte_identical(self, completed_run, tmp_path):
        _, _, digests = completed_run
        out_dir = os.path.join(str(tmp_path), "out")
        cfg_path = write_config(tmp_path, reduced_config_dict(out_dir))
        assert main(["run", "--config", cfg_path]) == 0
        assert dir_digest(out_dir) == digests

    def test_stage_chain_equals_run(self, completed_run, tmp_path):
        _, _, digests = completed_run
        out_dir = os.path.join(str(tmp_path), "out")
        cfg_path = write_config(tmp_path, reduced_config_dict(out_dir))
        for command in ("simulate", "propensity", "match", "balance", "infer", "sensitivity", "report"):
            assert main([command, "--config", cfg_path]) == 0, command
        assert dir_digest(out_dir) == digests

    def test_cohort_row_order_does_not_change_the_outputs(self, completed_run, tmp_path):
        _, out_dir, digests = completed_run
        shuffled_dir = os.path.join(str(tmp_path), "out")
        os.makedirs(shuffled_dir)
        with open(os.path.join(out_dir, "cohort.csv"), encoding="utf-8") as fh:
            header, *rows = fh.readlines()
        with open(os.path.join(shuffled_dir, "cohort.csv"), "w", encoding="utf-8") as fh:
            fh.writelines([header] + [rows[i] for i in np.random.default_rng(0).permutation(len(rows))])
        assert main(["run", "--config", write_config(tmp_path, reduced_config_dict(shuffled_dir))]) == 0
        fresh = dir_digest(shuffled_dir)
        assert set(fresh) == set(digests)
        assert {name for name in digests if fresh[name] != digests[name]} == {"cohort.csv", "manifest.txt"}
        manifests = []
        for directory in (out_dir, shuffled_dir):
            with open(os.path.join(directory, "manifest.txt"), encoding="utf-8") as fh:
                manifests.append([line for line in fh if not line.endswith("  cohort.csv\n")])
        assert manifests[0] == manifests[1]

    @pytest.mark.parametrize("column", ["x1", "y"])
    def test_non_finite_cohort_cell_is_rejected_at_load(self, completed_run, tmp_path, capsys, column):
        _, out_dir, _ = completed_run
        bad_dir = os.path.join(str(tmp_path), "out")
        os.makedirs(bad_dir)
        with open(os.path.join(out_dir, "cohort.csv"), newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        rows[3][header.index(column)] = "inf"
        with open(os.path.join(bad_dir, "cohort.csv"), "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        assert main(["run", "--config", write_config(tmp_path, reduced_config_dict(bad_dir))]) == 1
        assert capsys.readouterr().err.endswith(f"row 3: non-finite value 'inf' in column '{column}'\n")
        assert not os.path.exists(os.path.join(bad_dir, "failure_manifest.txt"))

    def test_duplicated_cohort_column_is_rejected_at_load(self, completed_run, tmp_path, capsys):
        _, out_dir, _ = completed_run
        bad_dir = os.path.join(str(tmp_path), "out")
        os.makedirs(bad_dir)
        with open(os.path.join(out_dir, "cohort.csv"), newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        x1 = header.index("x1")
        with open(os.path.join(bad_dir, "cohort.csv"), "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header + ["x1"], *(row + [row[x1]] for row in rows)])
        assert main(["run", "--config", write_config(tmp_path, reduced_config_dict(bad_dir))]) == 1
        assert capsys.readouterr().err.endswith("column 'x1' appears more than once in the header\n")
        assert not os.path.exists(os.path.join(bad_dir, "failure_manifest.txt"))

    def test_seed_override_changes_cohort(self, completed_run, tmp_path):
        _, _, digests = completed_run
        out_dir = os.path.join(str(tmp_path), "out")
        cfg_path = write_config(tmp_path, reduced_config_dict(out_dir))
        assert main(["run", "--config", cfg_path, "--seed", "8"]) == 0
        fresh = dir_digest(out_dir)
        assert fresh["cohort.csv"] != digests["cohort.csv"]
        assert fresh["manifest.txt"] != digests["manifest.txt"]

    def _copy_with_inference(self, completed_run, tmp_path, **inference):
        # The run's intermediates under a config that changes only the
        # inference settings, which no stage before infer reads.
        _, out_dir, _ = completed_run
        out_copy = os.path.join(str(tmp_path), "out")
        shutil.copytree(out_dir, out_copy)
        obj = reduced_config_dict(out_copy)
        obj["inference"] = {"grid": [-0.5, 0.0, 0.5], **inference}
        return load_config(write_config(tmp_path, obj))

    def test_infer_runs_one_test_per_grid_value(self, completed_run, tmp_path, monkeypatch):
        # The point test is the grid's tau0 = 0 test, not another call.
        cfg = self._copy_with_inference(completed_run, tmp_path)
        calls = []
        test = pipeline.inference_mod.permutational_t_test

        def counted(*args, **kwargs):
            calls.append(1)
            return test(*args, **kwargs)

        monkeypatch.setattr(pipeline.inference_mod, "permutational_t_test", counted)
        pipeline.run_stage(cfg, "infer")
        n_outcomes = len(cfg.outcome_specs) + len(cfg.comparisons) - 1
        assert len(calls) == 3 * n_outcomes
        with open(os.path.join(cfg.output_dir, "inference_comparison-1.json"), encoding="utf-8") as fh:
            for o in json.load(fh)["outcomes"].values():
                assert o["point"]["p_two_sided"] == o["grid_p"][o["grid"].index(0.0)]

    def test_every_adjustment_seed_is_in_the_manifest(self, completed_run, tmp_path, monkeypatch):
        # A recorder in place of the BART refit: it sees the seed of every
        # adjustment that infer and sensitivity make.
        cfg = self._copy_with_inference(completed_run, tmp_path, adjustment="bart")
        seen = set()

        def recorder(aligned_r, aligned_x, method="none", seed=0):
            seen.add((method, seed))
            return aligned_r.copy(), {"method": method}

        monkeypatch.setattr(pipeline.inference_mod, "covariance_adjust", recorder)
        for command in ("infer", "sensitivity", "report"):
            pipeline.run_stage(cfg, command)
        with open(os.path.join(cfg.output_dir, "manifest.txt"), encoding="utf-8") as fh:
            listed = {int(line.split()[-1]) for line in fh if re.match(r"seed \S+ inference ", line)}
        assert {method for method, _ in seen} == {"bart", "none"}
        assert {seed for _, seed in seen} <= listed

    def test_exact_mode_beyond_the_enumeration_limit_is_a_configuration_error(self, completed_run, tmp_path, capsys):
        # The matched sets fix the number of assignments, so only infer can
        # tell; it names the comparison, the outcome and the count's order.
        cfg = self._copy_with_inference(completed_run, tmp_path, mode="exact")
        selected = pipeline.load_balance(cfg, "comparison-1")["selected"]
        with open(os.path.join(cfg.output_dir, f"match_comparison-1_{selected}.sets.txt"), encoding="utf-8") as fh:
            sizes = [2 + line.count(",") for line in fh]
        assert math.prod(sizes) > pipeline.inference_mod.EXACT_LIMIT
        assert main(["infer", "--config", os.path.join(str(tmp_path), "study.json")]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: comparison-1, outcome 'y': inference.mode 'exact' enumerates at most 1000000 assignments, "
            f"and the matched sets have about 10^{math.floor(math.log10(math.prod(sizes)))}; "
            "use 'auto' or 'monte-carlo'"
        )
        assert not os.path.exists(os.path.join(cfg.output_dir, "failure_manifest.txt"))

    def test_load_match_round_trips_build_match(self, completed_run, tmp_path):
        # load_match reads the two match files alone: the score files are
        # moved away before it runs.
        _, out_dir, _ = completed_run
        out_copy = os.path.join(str(tmp_path), "out")
        shutil.copytree(out_dir, out_copy)
        cfg = load_config(write_config(tmp_path, reduced_config_dict(out_copy)))
        pipeline.stage_match(cfg)
        tables = pipeline.Cohort(cfg).tables
        built = {}
        for comp in cfg.comparisons:
            for method in cfg.propensity_methods:
                scores = pipeline._load_scores(cfg, comp.name, method, tables[comp.name])
                built[comp.name, method] = build_match(tables[comp.name], scores, cfg.matching)
        for name in os.listdir(out_copy):
            if name.startswith("propensity_"):
                os.replace(os.path.join(out_copy, name), os.path.join(str(tmp_path), name))
        for (comp_name, method), result in built.items():
            ct = tables[comp_name]
            loaded = pipeline.load_match(cfg, comp_name, method, ct)
            assert np.array_equal(loaded.members, result.members), (comp_name, method)
            assert np.array_equal(loaded.sets.sizes, result.sets.sizes), (comp_name, method)
            assert np.array_equal(loaded.dropped, result.dropped), (comp_name, method)
            assert loaded.reasons == result.reasons, (comp_name, method)
            assert loaded.counts == result.counts, (comp_name, method)
            assert pipeline.render_match(ct, loaded) == pipeline.render_match(ct, result)

    def test_match_error_names_the_comparison(self, completed_run, tmp_path, capsys):
        # Every treated score below every control score: the trim empties the
        # treated arm, and the error says in which comparison.
        _, out_dir, _ = completed_run
        out_copy = os.path.join(str(tmp_path), "out")
        shutil.copytree(out_dir, out_copy)
        cfg_path = write_config(tmp_path, reduced_config_dict(out_copy))
        ct = pipeline.Cohort(load_config(cfg_path)).tables["comparison-3"]
        path = os.path.join(out_copy, "propensity_comparison-3_l1.json")
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["scores"] = [0.1 if z == 1 else 0.9 for z in ct.z.tolist()]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        assert main(["match", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: comparison-3: common-support trim emptied an arm")
        assert "Traceback" not in err

    def test_match_without_a_cell_holding_both_arms_names_the_comparison(self, completed_run, tmp_path, capsys):
        # Treated scores in interval 1, control scores in a later one and
        # below them, so the trim keeps everyone and no cell holds both arms.
        _, out_dir, _ = completed_run
        out_copy = os.path.join(str(tmp_path), "out")
        shutil.copytree(out_dir, out_copy)
        cfg_path = write_config(tmp_path, reduced_config_dict(out_copy))
        ct = pipeline.Cohort(load_config(cfg_path)).tables["comparison-2"]
        path = os.path.join(out_copy, "propensity_comparison-2_mle.json")
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["scores"] = [0.6 if z == 1 else 0.2 for z in ct.z.tolist()]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        assert main(["match", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: comparison-2: no stratum x interval cell holds both arms")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["balance", "infer", "sensitivity"])
    def test_set_file_naming_a_control_as_treated_is_rejected(self, completed_run, tmp_path, capsys, command):
        # The first id of a .sets.txt line is the set's treated subject;
        # swap it with the first control of one set.
        _, out_dir, _ = completed_run
        out_copy = os.path.join(str(tmp_path), "out")
        shutil.copytree(out_dir, out_copy)
        cfg_path = write_config(tmp_path, reduced_config_dict(out_copy))
        with open(os.path.join(out_copy, "balance_comparison-1.json"), encoding="utf-8") as fh:
            selected = json.load(fh)["selected"]
        path = os.path.join(out_copy, f"match_comparison-1_{selected}.sets.txt")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
        treated, controls = lines[0].rstrip("\n").split(": ")
        controls = controls.split(",")
        lines[0] = f"{controls[0]}: {','.join([treated] + controls[1:])}\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(lines))
        cfg = load_config(cfg_path)
        ct = pipeline.Cohort(cfg).tables["comparison-1"]
        result = pipeline.load_match(cfg, "comparison-1", selected, ct)
        with pytest.raises(ValueError, match=f"{controls[0]!r} must list exactly one treated subject, first"):
            matchstudy.matched_arrays(ct, result, cfg.primary_outcome.name)
        assert main([command, "--config", cfg_path]) == 2
        assert "must list exactly one treated subject" in capsys.readouterr().err

    def _selected_sets(self, completed_run, tmp_path):
        """A copy of the run: its config path, and the path and lines of its
        comparison-1 set file for the selected method."""
        _, out_dir, _ = completed_run
        out_copy = os.path.join(str(tmp_path), "out")
        shutil.copytree(out_dir, out_copy)
        with open(os.path.join(out_copy, "balance_comparison-1.json"), encoding="utf-8") as fh:
            selected = json.load(fh)["selected"]
        path = os.path.join(out_copy, f"match_comparison-1_{selected}.sets.txt")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
        return write_config(tmp_path, reduced_config_dict(out_copy)), path, lines

    def _assert_rejected(self, capsys, command, cfg_path, path, message):
        assert main([command, "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert path in err and message in err

    @pytest.mark.parametrize("command", ["balance", "infer"])
    def test_set_file_with_an_unknown_id_is_rejected(self, completed_run, tmp_path, capsys, command):
        cfg_path, path, lines = self._selected_sets(completed_run, tmp_path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines([f"s9999: {lines[0].split(': ')[1]}"] + lines[1:])
        self._assert_rejected(capsys, command, cfg_path, path, "'s9999' is not in comparison-1")

    @pytest.mark.parametrize("command", ["balance", "infer"])
    def test_control_listed_in_two_sets_is_rejected(self, completed_run, tmp_path, capsys, command):
        # The first control of the first set is listed again in the second.
        cfg_path, path, lines = self._selected_sets(completed_run, tmp_path)
        control = lines[0].rstrip("\n").split(": ")[1].split(",")[0]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines([lines[0], lines[1].rstrip("\n") + f",{control}\n"] + lines[2:])
        self._assert_rejected(capsys, command, cfg_path, path, f"{control!r} is listed twice")

    @pytest.mark.parametrize("command", ["balance", "infer"])
    def test_deleted_set_line_is_rejected(self, completed_run, tmp_path, capsys, command):
        cfg_path, path, lines = self._selected_sets(completed_run, tmp_path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[1:])
        self._assert_rejected(capsys, command, cfg_path, path, f"{lines[0].split(': ')[0]!r} is in neither file")

    @pytest.mark.parametrize(
        "command, reason",
        [("balance", "common-suport"), ("infer", "common-suport"), ("sensitivity", "common-suport"), ("balance", "")],
    )
    def test_ledger_line_with_an_unknown_reason_is_rejected(self, completed_run, tmp_path, capsys, command, reason):
        # mle is the selected match of comparison-3, so every stage that
        # loads a match reads this ledger; its one common-support line gets
        # a misspelled or an empty reason.
        _, out_dir, _ = completed_run
        out_copy = os.path.join(str(tmp_path), "out")
        shutil.copytree(out_dir, out_copy)
        cfg_path = write_config(tmp_path, reduced_config_dict(out_copy))
        path = os.path.join(out_copy, "match_comparison-3_mle.ledger.csv")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert text.count(",common-support\n") == 1
        sid = next(line for line in text.splitlines() if line.endswith(",common-support")).split(",")[0]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(",common-support\n", f",{reason}\n"))
        self._assert_rejected(capsys, command, cfg_path, path, f"{sid!r} has the unknown reason {reason!r}")
        assert os.path.exists(os.path.join(out_copy, "failure_manifest.txt"))

    @pytest.mark.parametrize("command", ["balance", "infer"])
    @pytest.mark.parametrize("ledger", ["empty", "headless"])
    def test_ledger_without_its_header_is_rejected(self, completed_run, tmp_path, capsys, command, ledger):
        # An empty ledger, or one whose first line is a subject's: neither
        # may be read as a ledger whose header is that first line.
        cfg_path, sets_path, _ = self._selected_sets(completed_run, tmp_path)
        path = sets_path.replace(".sets.txt", ".ledger.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
        assert lines[0] == "id,reason\n" and len(lines) > 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines([] if ledger == "empty" else lines[1:])
        self._assert_rejected(capsys, command, cfg_path, path, "the first line is not the header 'id,reason'")

    def test_match_stage_rerun_reproduces_run_output(self, completed_run):
        cfg_path, out_dir, digests = completed_run
        assert main(["match", "--config", cfg_path]) == 0
        fresh = dir_digest(out_dir)
        for name in digests:
            if name.startswith("match_"):
                assert fresh[name] == digests[name], name

    def test_report_stage_is_pure_rendering(self, completed_run):
        cfg_path, out_dir, digests = completed_run
        for name in REPORT_FILES:
            os.remove(os.path.join(out_dir, name))
        assert main(["report", "--config", cfg_path]) == 0
        assert dir_digest(out_dir) == digests

    def test_decisions_report_structure(self, completed_run):
        _, out_dir, _ = completed_run
        with open(os.path.join(out_dir, "decisions.txt"), encoding="utf-8") as fh:
            text = fh.read()
        assert "selected matches" in text
        assert "ordered testing procedure (alpha = 0.05)" in text
        assert "sensitivity thresholds" in text
        assert "secondary outcomes" in text
        assert "attrition checks" in text
        # the margin is a configured choice, not an estimate; the report says so
        if "equivalence margin" in text:
            assert "configured choice" in text

    def test_decisions_report_prints_plain_floats(self, completed_run):
        # the adjusted secondary p-values are written as bare floats, so the
        # report does not depend on how the numpy version prints its scalars
        _, out_dir, _ = completed_run
        with open(os.path.join(out_dir, "decisions.txt"), encoding="utf-8") as fh:
            text = fh.read()
        assert "bh p = -" not in text
        assert "np." not in text

    def test_secondary_gamma_text_is_the_thresholds_text(self, completed_run):
        # A secondary outcome's gamma* reads the same in both blocks; in this
        # run y_aux is insignificant at gamma = 1 and y_bin is not.
        _, out_dir, _ = completed_run
        with open(os.path.join(out_dir, "decisions.txt"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(os.path.join(out_dir, "sensitivity_comparison-1.json"), encoding="utf-8") as fh:
            curves = json.load(fh)["outcomes"]
        assert curves["y_aux"]["insignificant_at_one"] and not curves["y_bin"]["insignificant_at_one"]
        for name in ("y_bin", "y_aux"):
            (threshold,) = [line for line in lines if line.startswith(f"  comparison-1  {name} (")]
            (secondary,) = [line for line in lines if line.startswith(f"  {name}: raw p = ")]
            assert secondary.partition(", gamma* = ")[2] == threshold.partition(": gamma* = ")[2], name


class TestFailureManifest:
    def test_runtime_failure_names_the_stage(self, tmp_path, capsys):
        out_dir = os.path.join(str(tmp_path), "out")
        obj = reduced_config_dict(out_dir)
        obj["simulate"]["outcomes"][0]["missing_rate"] = 1.0  # primary outcome never observed
        cfg_path = write_config(tmp_path, obj)
        assert main(["run", "--config", cfg_path]) == 2
        manifest = os.path.join(out_dir, "failure_manifest.txt")
        assert os.path.exists(manifest)
        with open(manifest, encoding="utf-8") as fh:
            text = fh.read()
        assert text.startswith("FAILED at stage inference\n")
        # the error line names the exception type, not only its message
        assert text.splitlines()[1] == "error: ValueError: no matched sets with observed outcome 'y'"
        assert "files written so far:" in text
        # stages before the failure left their artifacts behind
        assert "propensity_comparison-1_mle.json" in text


def _rename_first_id(cohort, new_id, encoding="utf-8"):
    """Give the first subject of a cohort file the id ``new_id``, written in ``encoding``."""
    with open(cohort, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[1][0] = new_id
    with open(cohort, "w", newline="", encoding=encoding) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


class TestCohortRead:
    """A run reads and prepares the cohort file once, in its propensity
    stage, and shares it with every later stage; a stage command reads it
    once. The file is UTF-8 whatever the locale."""

    def test_one_load_per_run_and_per_stage_command(self, tmp_path, monkeypatch):
        loads = []
        for name in ("load_cohort", "load_subjects"):
            real = getattr(pipeline, name)
            monkeypatch.setattr(pipeline, name, lambda *a, name=name, real=real: loads.append(name) or real(*a))
        cfg_path = write_config(tmp_path, reduced_config_dict(os.path.join(str(tmp_path), "out")))
        assert main(["run", "--config", cfg_path]) == 0
        assert loads == ["load_cohort", "load_subjects"]
        for command, _, _ in pipeline.STAGES:
            loads.clear()
            assert main([command, "--config", cfg_path]) == 0
            assert loads == ([] if command == "simulate" else ["load_cohort", "load_subjects"]), command

    @pytest.mark.parametrize("error, code", [(ValidationError, 1), (RuntimeError, 2)])
    def test_cohort_fault_in_run_fails_at_propensity(self, tmp_path, monkeypatch, capsys, error, code):
        # As before the cohort was shared: a validation error exits 1 with no
        # failure manifest, any other error exits 2 with one naming propensity.
        def failing_load(path, *rest):
            raise error(f"{path}: cannot be read")

        monkeypatch.setattr(pipeline, "load_subjects", failing_load)
        out_dir = os.path.join(str(tmp_path), "out")
        assert main(["run", "--config", write_config(tmp_path, reduced_config_dict(out_dir))]) == code
        cohort = os.path.join(out_dir, "cohort.csv")
        stage = "stage propensity: " if code == 2 else ""
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {stage}{cohort}: cannot be read"
        manifest = os.path.join(out_dir, "failure_manifest.txt")
        if code == 1:
            assert not os.path.exists(manifest)
        else:
            with open(manifest, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            assert lines[:3] == [
                "FAILED at stage propensity",
                f"error: RuntimeError: {cohort}: cannot be read",
                "files written so far:",
            ]
            assert [line.split()[-1] for line in lines[3:]] == ["cohort.csv"]

    def test_data_path_that_is_a_directory_is_a_validation_error(self, tmp_path, capsys):
        out_dir = os.path.join(str(tmp_path), "out")
        obj = dict(reduced_config_dict(out_dir), data="cohort")
        os.makedirs(os.path.join(out_dir, "cohort"))
        cfg_path = write_config(tmp_path, obj)
        for command in ("run", "propensity"):
            assert main([command, "--config", cfg_path]) == 1, command
            message = capsys.readouterr().err.splitlines()[-1]
            assert message == f"error: {os.path.join(out_dir, 'cohort')}: the data path is not a file"
        assert os.listdir(out_dir) == ["cohort"]

    def test_bytes_that_are_not_utf8_are_a_validation_error(self, tmp_path, capsys):
        out_dir = os.path.join(str(tmp_path), "out")
        cfg_path = write_config(tmp_path, reduced_config_dict(out_dir))
        assert main(["simulate", "--config", cfg_path]) == 0
        cohort = os.path.join(out_dir, "cohort.csv")
        _rename_first_id(cohort, "s\u00e9001", encoding="latin-1")
        assert main(["run", "--config", cfg_path]) == 1
        message = capsys.readouterr().err.splitlines()[-1]
        assert message.startswith(f"error: {cohort}: the file is not UTF-8 text (")
        assert not os.path.exists(os.path.join(out_dir, "failure_manifest.txt"))

    def test_cohort_is_read_as_utf8_in_any_locale(self, tmp_path):
        # The same cohort, with a non-ASCII id, under UTF-8 mode and under the
        # C locale, whose preferred encoding is ASCII: both runs succeed, and
        # write the same bytes.
        src = os.path.dirname(os.path.dirname(os.path.abspath(matchstudy.__file__)))
        locales = {
            "utf8": {"PYTHONUTF8": "1"},
            "C": {"LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
        }
        digests = []
        for name, env in locales.items():
            out_dir = os.path.join(str(tmp_path), name)
            cfg_path = write_config(tmp_path, reduced_config_dict(out_dir), f"{name}.json")
            assert main(["simulate", "--config", cfg_path]) == 0
            _rename_first_id(os.path.join(out_dir, "cohort.csv"), "s\u00e9001")
            proc = subprocess.run(
                [sys.executable, "-m", "matchstudy.cli", "run", "--config", cfg_path],
                env=dict(os.environ, PYTHONPATH=src, **env),
                capture_output=True,
                text=True,
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(dir_digest(out_dir))
        assert digests[0] == digests[1]
        with open(os.path.join(str(tmp_path), "C", "propensity_comparison-1_mle.json"), encoding="utf-8") as fh:
            assert "s\u00e9001" in json.load(fh)["ids"]

    @pytest.mark.parametrize("layout", ["dot-relative data", "relative output_dir"])
    def test_manifests_list_the_cohort_inside_the_output_directory(self, tmp_path, monkeypatch, layout):
        monkeypatch.chdir(tmp_path)
        out_dir = os.path.join(str(tmp_path), "out")
        if layout == "dot-relative data":
            obj = dict(reduced_config_dict(out_dir), data="./cohort.csv")
        else:
            obj = dict(reduced_config_dict("out"), data=os.path.join(out_dir, "cohort.csv"))
        cfg_path = write_config(tmp_path, obj)
        assert main(["run", "--config", cfg_path]) == 0
        line = f"sha256 {dir_digest(out_dir)['cohort.csv']}  cohort.csv\n"
        with open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8") as fh:
            assert line in fh.read()

        def failing_render(cfg, tables):
            raise RuntimeError("render failed")

        monkeypatch.setattr(pipeline, "_quantiles_csv", failing_render)
        assert main(["report", "--config", cfg_path]) == 2
        with open(os.path.join(out_dir, "failure_manifest.txt"), encoding="utf-8") as fh:
            assert line in fh.read()


def _without_groups(out_dir, comparisons):
    """The reduced config cut to ``comparisons`` comparisons, with a recipe
    that draws no control subgroups, so its cohort has no group column."""
    obj = reduced_config_dict(out_dir)
    obj["comparisons"] = obj["comparisons"][:comparisons]
    obj["simulate"].update(control_groups=[], control_group_probs=None)
    return obj


class TestColumns:
    """The config's ``columns`` section names the cohort file's id,
    treatment, stratum and group columns and its missing token; the group
    column is optional unless a comparison names groups."""

    def test_recipe_without_control_groups_runs_comparison_one(self, tmp_path):
        out_dir = os.path.join(str(tmp_path), "out")
        assert main(["run", "--config", write_config(tmp_path, _without_groups(out_dir, 1))]) == 0
        with open(os.path.join(out_dir, "cohort.csv"), encoding="utf-8") as fh:
            header = fh.readline()
        assert header == "id,treated,stratum,x1,x2,x3,b1,y,y_bin,y_aux\n"

    @pytest.mark.parametrize(
        "columns",
        [{"group": "subgroup"}, {"id": "pid", "treatment": "z", "stratum": "band", "missing_token": ""}],
        ids=["group", "all"],
    )
    def test_renamed_columns_change_only_the_cohort_file(self, tmp_path, columns):
        digests, cohorts = [], []
        for name, renamed in (("default", {}), ("renamed", columns)):
            out_dir = os.path.join(str(tmp_path), name)
            obj = dict(reduced_config_dict(out_dir), propensity_methods=["mle"], columns=renamed)
            assert main(["run", "--config", write_config(tmp_path, obj, f"{name}.json")]) == 0
            digests.append(dir_digest(out_dir))
            with open(os.path.join(out_dir, "cohort.csv"), newline="", encoding="utf-8") as fh:
                cohorts.append(list(csv.reader(fh)))
        assert set(digests[0]) == set(digests[1])
        assert {name for name in digests[0] if digests[0][name] != digests[1][name]} == {"cohort.csv", "manifest.txt"}
        (header, *rows), (renamed_header, *renamed_rows) = cohorts
        cols = dataclasses.replace(Columns(), **columns)
        assert renamed_header == [cols.id, cols.treatment, cols.stratum, *header[3:-1], cols.group]
        assert renamed_rows == [[cols.missing_token if cell == "NA" else cell for cell in row] for row in rows]

    def test_comparison_naming_groups_needs_the_group_column(self, tmp_path, capsys):
        out_dir = os.path.join(str(tmp_path), "out")
        assert main(["run", "--config", write_config(tmp_path, _without_groups(out_dir, 4))]) == 1
        message = capsys.readouterr().err.splitlines()[-1]
        assert message == "error: comparison-2: names groups, but the cohort has no 'group' column"
        assert not os.path.exists(os.path.join(out_dir, "failure_manifest.txt"))

    @pytest.mark.parametrize(
        "columns, message",
        [
            (5, "expected an object"),
            (None, "expected an object"),
            (["id"], "expected an object"),
            ({"missing_token": 5}, "missing_token must be a string"),
            ({"missing_token": None}, "missing_token must be a string"),
            ({"treatment": "id"}, "id, treatment, stratum and group must be distinct"),
            ({"group": "stratum"}, "id, treatment, stratum and group must be distinct"),
            ({"group": ""}, "id, treatment, stratum and group must be non-empty strings"),
            ({"id": 5}, "id, treatment, stratum and group must be non-empty strings"),
            ({"stratum": None}, "id, treatment, stratum and group must be non-empty strings"),
            ({"group": "x1"}, "group 'x1' names a covariate"),
            ({"stratum": "b1"}, "stratum 'b1' names a covariate"),
            ({"id": "y"}, "id 'y' names an outcome"),
            ({"treatment": "x2"}, "treatment 'x2' names a covariate"),
            ({"stratum": "y_bin"}, "stratum 'y_bin' names an outcome"),
        ],
        ids=[
            "number",
            "null",
            "list",
            "numeric-token",
            "null-token",
            "treatment-is-id",
            "group-is-stratum",
            "empty-group",
            "numeric-id",
            "null-stratum",
            "group-is-covariate",
            "simulated-stratum-is-covariate",
            "id-is-outcome",
            "treatment-is-covariate",
            "stratum-is-outcome",
        ],
    )
    def test_bad_columns_section_is_a_configuration_error_before_any_stage(self, tmp_path, capsys, columns, message):
        out_dir = os.path.join(str(tmp_path), "out")
        obj = dict(reduced_config_dict(out_dir), columns=columns)
        assert main(["run", "--config", write_config(tmp_path, obj)]) == 1
        assert capsys.readouterr().err.startswith(f"error: invalid configuration: columns: {message}")
        assert not os.path.exists(out_dir)

    def test_real_cohort_whose_stratum_column_is_a_covariate_runs(self, tmp_path):
        # Without a recipe nothing writes the file, so the stratum may be read
        # from a covariate's column: here b1's, in place of the stratum column.
        out_dir = os.path.join(str(tmp_path), "out")
        obj = dict(reduced_config_dict(out_dir), propensity_methods=["mle"])
        assert main(["simulate", "--config", write_config(tmp_path, obj)]) == 0
        cohort = os.path.join(out_dir, "cohort.csv")
        with open(cohort, newline="", encoding="utf-8") as fh:
            rows = [row[:2] + row[3:] for row in csv.reader(fh)]
        with open(cohort, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        obj.update(simulate=None, columns={"stratum": "b1"})
        assert main(["run", "--config", write_config(tmp_path, obj, "real.json")]) == 0


def _cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)), raising=False)


def _simulated(tmp_path, methods, comparisons=1):
    """A simulated cohort under the reduced config cut to ``comparisons``
    comparisons and the score models ``methods``; returns the config path."""
    obj = reduced_config_dict(os.path.join(str(tmp_path), "out"))
    obj.update(comparisons=obj["comparisons"][:comparisons], propensity_methods=methods)
    os.makedirs(tmp_path, exist_ok=True)
    path = write_config(tmp_path, obj)
    assert main(["simulate", "--config", path]) == 0
    return path


class TestScorePool:
    """The sampled score fits run on a pool of forked workers, one per core
    up to the number of sampled fits; on one core they run in the stage's
    process. The tests that patch a fit rely on the workers inheriting it."""

    def test_core_count_changes_no_byte(self, tmp_path, monkeypatch):
        # One core, two cores, and two cores while another thread runs, where
        # a fork could copy a lock that thread holds: only the plain two-core
        # case starts a pool, and all three write the same files and warnings.
        pools = []

        class SpyPool(concurrent.futures.process.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", SpyPool)
        digests, warned = [], []
        for cores, threaded in ((1, False), (2, False), (2, True)):
            _cores(monkeypatch, cores)
            cfg = load_config(_simulated(tmp_path / f"{cores}-{threaded}", ["mle", "l1", "bayes", "bart"], comparisons=2))
            stop = threading.Event()
            other = threading.Thread(target=stop.wait)
            if threaded:
                other.start()
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    pipeline.stage_propensity(cfg)
            finally:
                stop.set()
                if threaded:
                    other.join(timeout=10)
            assert not other.is_alive()
            warned.append([(w.category, str(w.message), w.filename, w.lineno) for w in caught])
            digests.append({k: v for k, v in dir_digest(cfg.output_dir).items() if k.startswith("propensity_")})
        assert pools == [2]
        assert len(digests[0]) == 8
        assert digests[0] == digests[1] == digests[2]
        assert warned[0] == warned[1] == warned[2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cores", [1, 2])
    def test_worker_warnings_reach_the_caller(self, tmp_path, monkeypatch, cores):
        def warning_fit(x, z, seed):
            warnings.warn(f"fitted in process {os.getpid()}", UserWarning)
            return propensity.fit_mle(x, z)

        monkeypatch.setattr(pipeline.propensity_mod, "fit_bart_propensity", warning_fit)
        _cores(monkeypatch, cores)
        cfg = load_config(_simulated(tmp_path, ["mle", "l1", "bart"]))
        with pytest.warns(UserWarning, match="fitted in process") as record:
            pipeline.stage_propensity(cfg)
        (pid,) = [int(str(w.message).split()[-1]) for w in record if "fitted in process" in str(w.message)]
        assert (pid != os.getpid()) == (cores == 2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error, code", [(ValidationError, 1), (RuntimeError, 2)])
    def test_worker_failure_fails_the_stage(self, tmp_path, monkeypatch, capsys, error, code):
        # A validation error from a worker exits 1 with no failure manifest,
        # any other error exits 2 with one; either way no worker is left.
        def failing_fit(x, z, seed):
            raise error(f"failed in process {os.getpid()}")

        monkeypatch.setattr(pipeline.propensity_mod, "fit_bart_propensity", failing_fit)
        _cores(monkeypatch, 2)
        path = _simulated(tmp_path, ["mle", "l1", "bart"])
        assert main(["propensity", "--config", path]) == code
        message = capsys.readouterr().err.splitlines()[-1]
        assert message.startswith("error: " + ("stage propensity: " if code == 2 else "") + "failed in process")
        pid = int(message.split()[-1])
        assert pid != os.getpid()
        manifest = os.path.join(str(tmp_path), "out", "failure_manifest.txt")
        if code == 1:
            assert not os.path.exists(manifest)
        else:
            with open(manifest, encoding="utf-8") as fh:
                assert fh.read().startswith(f"FAILED at stage propensity\nerror: RuntimeError: failed in process {pid}\n")
        assert multiprocessing.active_children() == []


class TestStages:
    def test_ordinal_level_rows_count_the_unscaled_codes(self, tmp_path):
        # With nothing missing, each arm's pre-match level means are its
        # level shares, and they sum to 1.
        out_dir = os.path.join(str(tmp_path), "out")
        obj = reduced_config_dict(out_dir)
        obj["simulate"]["covariate_missing_rate"] = 0.0
        obj["covariates"][2] = {"name": "x3", "kind": "ordinal", "levels": [0, 1, 2]}
        cfg_path = write_config(tmp_path, obj)
        assert main(["simulate", "--config", cfg_path]) == 0
        cohort = os.path.join(out_dir, "cohort.csv")
        with open(cohort, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        j, t = header.index("x3"), header.index("treated")
        codes = np.digitize([float(row[j]) for row in rows], [-0.5, 0.5])
        for row, code in zip(rows, codes):
            row[j] = str(code)
        with open(cohort, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        for command in ("propensity", "match", "balance"):
            assert main([command, "--config", cfg_path]) == 0, command
        with open(os.path.join(out_dir, "balance_comparison-1.json"), encoding="utf-8") as fh:
            per_method = json.load(fh)["per_method"]
        treated = np.array([row[t] == "1" for row in rows])
        for entry in per_method.values():
            by_name = {r["name"]: r for r in entry["rows"]}
            for arm, in_arm in (("treated", treated), ("control", ~treated)):
                means = [by_name[f"x3={level}"][f"{arm}_mean_pre"] for level in range(3)]
                assert means == pytest.approx([np.mean(codes[in_arm] == level) for level in range(3)])
                assert sum(means) == pytest.approx(1.0)

    def test_parser_subcommands_are_the_stage_table_plus_run_and_oracle(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == [command for command, _, _ in pipeline.STAGES] + ["run", "oracle"]

    def test_stages_are_looked_up_when_they_run(self, tmp_path, monkeypatch):
        # A wrapper set on the pipeline module, as the benchmark's tracer
        # sets one, sees the calls of run_pipeline and of every subcommand.
        calls = []
        for command, _, _ in pipeline.STAGES:
            monkeypatch.setattr(pipeline, f"stage_{command}", lambda cfg, cohort=None, command=command: calls.append(command))
        cfg_path = write_config(tmp_path, reduced_config_dict(os.path.join(str(tmp_path), "out")))
        pipeline.run_pipeline(load_config(cfg_path))
        assert calls == [command for command, _, _ in pipeline.STAGES]
        for command, _, _ in pipeline.STAGES:
            calls.clear()
            assert main([command, "--config", cfg_path]) == 0
            assert calls == [command]

    @pytest.mark.parametrize(
        "chain, code, first_line",
        [
            # no cohort and no simulate block: a configuration error
            (["propensity"], 1, None),
            # the primary outcome is never observed: a runtime failure
            (["simulate", "propensity", "match", "balance", "infer"], 2, "FAILED at stage inference\n"),
        ],
    )
    def test_run_fails_like_the_stage_command(self, tmp_path, capsys, chain, code, first_line):
        # `run` and the stage subcommands exit with the same code and message
        # and leave the same failure manifest, or none.
        errors, manifests = [], []
        for way, commands in (("run", ["run"]), ("chain", chain)):
            out_dir = os.path.join(str(tmp_path), way)
            obj = reduced_config_dict(out_dir)
            if code == 1:
                obj["simulate"] = None
            else:
                obj["simulate"]["outcomes"][0]["missing_rate"] = 1.0
            cfg_path = write_config(tmp_path, obj, f"{way}.json")
            assert [main([c, "--config", cfg_path]) for c in commands] == [0] * (len(commands) - 1) + [code]
            errors.append(capsys.readouterr().err.splitlines()[-1].replace(out_dir, "<out>"))
            path = os.path.join(out_dir, "failure_manifest.txt")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    manifests.append(fh.readline())
            else:
                manifests.append(None)
        assert errors[0] == errors[1] and errors[0].startswith("error: ")
        assert manifests == [first_line] * 2


class TestWriteJson:
    def test_numpy_values_and_dataclasses_write_as_their_python_twins(self, tmp_path):
        record = {
            "float": np.float64(0.1),
            "nan": np.float64("nan"),
            "int": np.int64(-7),
            "flag": np.bool_(True),
            "matrix": np.array([[1.5, np.nan], [-2.0, 1e-300]]),
            "tuple": (np.int64(1), np.float64(2.5), "a"),
            "nested": {"inner": {"flag": np.bool_(False), "value": np.float64(1 / 3)}},
            "counts": MatchCounts(1, 2, 3, 4, 5, 6),
        }
        twin = {
            "float": 0.1,
            "nan": float("nan"),
            "int": -7,
            "flag": True,
            "matrix": [[1.5, float("nan")], [-2.0, 1e-300]],
            "tuple": [1, 2.5, "a"],
            "nested": {"inner": {"flag": False, "value": 1 / 3}},
            "counts": {
                "n_miss_treated": 1,
                "n_miss_control": 2,
                "n_cs_treated": 3,
                "n_cs_control": 4,
                "n_matched_treated": 5,
                "n_matched_control": 6,
            },
        }
        path = os.path.join(str(tmp_path), "record.json")
        pipeline._write_json(path, record)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == json.dumps(twin, sort_keys=True, indent=1) + "\n"

    def test_a_value_json_cannot_encode_raises_and_writes_nothing(self, tmp_path):
        path = os.path.join(str(tmp_path), "record.json")
        with pytest.raises(TypeError, match="set"):
            pipeline._write_json(path, {"ids": {"a", "b"}})
        assert not os.path.exists(path)


class TestOracle:
    def test_oracle_suite_passes(self, capsys):
        assert main(["oracle"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 3
        assert "FAIL" not in out


# Run in a fresh interpreter: this test process has loaded scipy.stats itself.
# scipy.stats is only a test oracle. Of scipy.optimize and scipy.special the
# runtime needs only extension modules: the scipy.optimize package would load
# scipy.linalg and scipy.sparse with it, and the scipy.special package runs
# scipy._lib._array_api, which loads numpy.f2py and numpy.testing.
_SCIPY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import matchstudy, matchstudy.cli
from matchstudy.config import config_from_dict
from matchstudy.pipeline import run_pipeline

UNUSED = (
    "scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.special",
    "scipy._lib._array_api", "numpy.f2py", "numpy.testing",
)
EXTENSIONS = {
    "scipy.optimize._lsap", "scipy.special._ufuncs_cxx", "scipy.special._special_ufuncs",
    "scipy.special._gufuncs", "scipy.special._ellip_harm_2", "scipy.special._ufuncs",
}

def loaded():
    return sorted(
        m for m in sys.modules
        if m not in EXTENSIONS and any(m == u or m.startswith(u + ".") for u in UNUSED)
    )

after_import = loaded()
run_pipeline(config_from_dict(json.loads(sys.argv[2])))
after_run = loaded()
# The packages, imported last, take the functions the runtime loaded.
import scipy.optimize, scipy.special
from matchstudy import bart, inference, matching, oracles, propensity, sensitivity
assert scipy.optimize.linear_sum_assignment is matching.linear_sum_assignment
assert scipy.optimize.linear_sum_assignment([[2.0, 1.0], [1.0, 2.0]])[1].tolist() == [1, 0]
held = {
    "expit": (propensity, oracles), "gammaincinv": (bart,), "gammaln": (inference,),
    "logit": (matching,), "ndtr": (bart, inference, oracles, sensitivity), "ndtri": (bart,),
}
for name, modules in held.items():
    for module in modules:
        assert getattr(scipy.special, name) is getattr(module, name), (name, module.__name__)
assert round(float(scipy.special.ndtri(0.975)), 6) == 1.959964
print(json.dumps({"after_import": after_import, "after_run": after_run}))
"""


# Runs every library site that reads distinct values with a plain np.unique
# before: the grid, a sensitivity curve's moments, and a validated BART fit (split
# cuts and the tree check); then a whole MLE-only run, whose report stage
# took score quartiles with np.quantile.
_NUMPY_MA_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import matchstudy
from matchstudy.bart import BartParams, fit_bart_binary
from matchstudy.config import config_from_dict
from matchstudy.inference import cohen_grid
from matchstudy.matching import SetLayout
from matchstudy.pipeline import run_pipeline
from matchstudy.sensitivity import sensitivity_residual

after_import = "numpy.ma" in sys.modules
cohen_grid(1.3)
sensitivity_residual(np.linspace(-1.0, 1.0, 12), SetLayout(np.array([2, 3, 3, 4])), np.linspace(1.0, 3.0, 41))
x = np.round(np.random.default_rng(0).normal(size=(12, 2)), 1)
params = BartParams(num_trees=2, burn_in=2, draws=3)
fit_bart_binary(x, (x[:, 0] > 0).astype(int), params=params, seed=0, validate=True)
after_calls = "numpy.ma" in sys.modules
run_pipeline(config_from_dict(json.loads(sys.argv[2])))
print(json.dumps({"after_import": after_import, "after_calls": after_calls, "after_run": "numpy.ma" in sys.modules}))
"""


# The score pool is imported when it starts: importing the CLI loads no
# multiprocessing, and an MLE-only run, with no sampled fit, forks nothing.
_POOL_PROBE = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import matchstudy.cli
from matchstudy.config import config_from_dict
from matchstudy.pipeline import run_pipeline

after_import = "multiprocessing" in sys.modules

def no_child(*args, **kwargs):
    raise AssertionError("the run started a child process")

os.fork = os.posix_spawn = os.posix_spawnp = no_child
run_pipeline(config_from_dict(json.loads(sys.argv[2])))
print(json.dumps({"after_import": after_import, "after_run": "multiprocessing" in sys.modules}))
"""


class TestImports:
    def test_runtime_never_loads_scipy_stats(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(matchstudy.__file__)))
        out_dir = os.path.join(str(tmp_path), "out")
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_PROBE, src, json.dumps(reduced_config_dict(out_dir))],
            cwd=str(tmp_path),
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {"after_import": [], "after_run": []}
        assert os.path.exists(os.path.join(out_dir, "manifest.txt"))

    def test_unique_value_sites_never_load_numpy_ma(self, tmp_path):
        # numpy 2.4's plain np.unique imports numpy.ma (about 20 ms); the
        # library sites that only want sorted distinct values avoid it
        src = os.path.dirname(os.path.dirname(os.path.abspath(matchstudy.__file__)))
        obj = reduced_config_dict(os.path.join(str(tmp_path), "out"))
        obj.update(comparisons=obj["comparisons"][:1], propensity_methods=["mle"])
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_MA_PROBE, src, json.dumps(obj)],
            cwd=str(tmp_path),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {
            "after_import": False,
            "after_calls": False,
            "after_run": False,
        }
        assert os.path.exists(os.path.join(str(tmp_path), "out", "propensity_quantiles.csv"))

    def test_mle_only_run_starts_no_process(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(matchstudy.__file__)))
        obj = reduced_config_dict(os.path.join(str(tmp_path), "out"))
        obj.update(propensity_methods=["mle"])
        proc = subprocess.run(
            [sys.executable, "-c", _POOL_PROBE, src, json.dumps(obj)],
            cwd=str(tmp_path),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {"after_import": False, "after_run": False}
        assert os.path.exists(os.path.join(str(tmp_path), "out", "manifest.txt"))

    def test_quartiles_equal_np_quantile(self):
        # the report's score quartiles, without np.quantile; scores are
        # probabilities, so rounding to two places makes ties but no -0.0
        rng = np.random.default_rng(0)
        for n in [1, 2, 3, 4, 5, *rng.integers(6, 200, size=200).tolist()]:
            for values in (rng.random(n), np.round(rng.random(n), 2), rng.normal(size=n)):
                want = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
                assert pipeline._quartiles(values).tobytes() == want.tobytes(), n


# Each run gets a fresh interpreter: OpenBLAS reads its thread count from the
# environment when it loads.
_SIMULATE_AND_SCORE = """
import sys
sys.path.insert(0, sys.argv[1])
from matchstudy.cli import build_parser, main
sys.exit(main(["simulate", "--config", sys.argv[2]]) or main(["propensity", "--config", sys.argv[2]]))
"""


class TestBlasThreads:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_bayes_scores_do_not_depend_on_blas_threads(self, tmp_path, seed):
        src = os.path.dirname(os.path.dirname(os.path.abspath(matchstudy.__file__)))
        digests = []
        for threads in ("1", "2"):
            obj = default_config_dict()
            obj.update(output_dir=os.path.join(str(tmp_path), threads), seed=seed, propensity_methods=["bayes"])
            proc = subprocess.run(
                [sys.executable, "-c", _SIMULATE_AND_SCORE, src, write_config(tmp_path, obj, f"{threads}.json")],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                capture_output=True,
                text=True,
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append({k: v for k, v in dir_digest(obj["output_dir"]).items() if k.endswith("_bayes.json")})
        assert len(digests[0]) == 4
        assert digests[0] == digests[1]
