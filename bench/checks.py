"""Correctness checks on one sample's output directory.

The checks read the artifacts as text and recompute what they claim,
without importing the program:

* every file ``manifest.txt`` lists has the sha256 it records;
* per match, the matched subjects plus the ledger rows are exactly the
  comparison's subjects, each once;
* every matched set has a treated subject of the comparison and between 1
  and its propensity interval's k controls of the comparison;
* every p-value in ``inference_*.json`` and ``sensitivity_*.json`` lies in
  [0, 1].

Golden files are not consulted: they pin one scipy's tie-breaking.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def digest(out_dir: str) -> str:
    """One sha256 over the names and contents of every file in the directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(f"{name}\0{_sha256(os.path.join(out_dir, name))}\n".encode())
    return h.hexdigest()


def artifact_bytes(out_dir: str, cohort: str = "cohort.csv") -> int:
    """Bytes of every file the timed stages wrote (all but the cohort)."""
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir) if n != cohort)


def interval(score: float) -> int:
    """Controls sought for a treated score: 1 above 1/3, then k for
    (1/(k+2), 1/(k+1)], down to 15 for [0, 1/16]."""
    return 15 - sum(1 for n in range(16, 2, -1) if 1.0 / n < score)


def _arms(cohort_path: str, config: dict) -> dict[str, tuple[set, set]]:
    columns = {"id": "id", "treatment": "treated", "group": "group", **config.get("columns", {})}
    with open(cohort_path, encoding="utf-8", newline="") as fh:
        rows = [
            (r[columns["id"]], float(r[columns["treatment"]]) == 1.0, r[columns["group"]])
            for r in csv.DictReader(fh)
        ]
    arms = {}
    for comp in config["comparisons"]:
        treated_groups = comp.get("treated_groups")
        control_groups = comp.get("control_groups")
        treated, control = set(), set()
        for sid, z, group in rows:
            is_treated = z if treated_groups is None else (not z and group in treated_groups)
            if is_treated:
                treated.add(sid)
            elif not z and (control_groups is None or group in control_groups):
                control.add(sid)
        arms[comp["name"]] = (treated, control)
    return arms


def _check_match(out_dir: str, name: str, method: str, treated: set, control: set, max_k: int) -> list[str]:
    base = os.path.join(out_dir, f"match_{name}_{method}")
    where = f"match_{name}_{method}"
    with open(os.path.join(out_dir, f"propensity_{name}_{method}.json"), encoding="utf-8") as fh:
        fit = json.load(fh)
    score = dict(zip(fit["ids"], fit["scores"]))
    errors = []
    seen = []
    with open(base + ".sets.txt", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            tid, _, rest = line.strip().partition(": ")
            controls = rest.split(",") if rest else []
            seen.append(tid)
            seen.extend(controls)
            if tid not in treated or tid not in score:
                errors.append(f"{where}: {tid} is not a scored treated subject of the comparison")
            elif not 1 <= len(controls) <= min(interval(score[tid]), max_k):
                k = min(interval(score[tid]), max_k)
                errors.append(f"{where}: set of {tid} has {len(controls)} controls, interval allows 1..{k}")
            if any(c not in control for c in controls):
                errors.append(f"{where}: set of {tid} has a control outside the comparison")
    with open(base + ".ledger.csv", encoding="utf-8", newline="") as fh:
        seen.extend(row["id"] for row in csv.DictReader(fh))
    expected = treated | control
    if len(seen) != len(expected) or set(seen) != expected:
        errors.append(
            f"{where}: matched plus ledger rows are {len(seen)} ({len(set(seen))} distinct), "
            f"comparison has {len(expected)}"
        )
    return errors


def _p_values(obj, path: str = ""):
    """Yield (path, value) for every p-value field: ``p``, ``p_*`` and ``*_p``."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "p" or key.startswith("p_") or key.endswith("_p"):
                # Under separation the attrition check reports no p-value.
                if obj.get("separation") is True and isinstance(value, float) and math.isnan(value):
                    continue
                for v in value if isinstance(value, list) else [value]:
                    yield f"{path}.{key}", v
            else:
                yield from _p_values(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for v in obj:
            yield from _p_values(v, path)


def _check_p_values(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    bad = [
        f"{os.path.basename(path)}{where} = {v!r}"
        for where, v in _p_values(obj)
        if not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0
    ]
    return [f"p-value outside [0, 1]: {b}" for b in bad[:5]]


def _check_manifest(out_dir: str) -> list[str]:
    errors = []
    with open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("sha256 "):
                recorded, name = line[len("sha256 ") :].rstrip("\n").split("  ", 1)
                path = os.path.join(out_dir, name)
                if not os.path.exists(path):
                    errors.append(f"manifest lists missing file {name}")
                elif _sha256(path) != recorded:
                    errors.append(f"manifest sha256 mismatch for {name}")
    return errors


def check_outputs(out_dir: str, config: dict, full_run: bool) -> list[str]:
    """Every failed check as a message; empty when the outputs are correct.

    ``full_run`` marks a run of every stage, which must also leave a
    manifest, inference and sensitivity results.
    """
    errors = []
    try:
        arms = _arms(os.path.join(out_dir, "cohort.csv"), config)
        max_k = config.get("matching", {}).get("max_controls", 15)
        for name, (treated, control) in arms.items():
            for method in config["propensity_methods"]:
                errors += _check_match(out_dir, name, method, treated, control, max_k)
            if full_run:
                for stage in ("inference", "sensitivity"):
                    errors += _check_p_values(os.path.join(out_dir, f"{stage}_{name}.json"))
        if full_run:
            errors += _check_manifest(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return errors
