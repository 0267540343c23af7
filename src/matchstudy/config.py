"""Declarative study configuration.

One JSON file drives the whole pipeline: data location and schema, the four
comparison definitions, estimator list, matching/inference/sensitivity
parameters, and (optionally) the synthetic-cohort recipe used by the
``simulate`` subcommand. Unknown keys are rejected so config typos surface
as validation errors instead of silently taking defaults.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    BINARY,
    CONTINUOUS,
    Columns,
    Covariate,
    CovariateSchema,
    GeneratorConfig,
    OutcomeModel,
    ValidationError,
    finite_number,
    whole_number,
)
from .inference import ADJUSTMENTS, TEST_MODES
from .matching import MatchingParams
from .propensity import METHOD_ORDER


@dataclass(frozen=True)
class OutcomeSpec:
    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, BINARY):
            raise ValidationError(f"outcome {self.name!r}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class ComparisonSpec:
    """One comparison's arm definitions.

    ``treated_groups`` None means the cohort's actual treated arm; a label
    list instead draws the pseudo-treated arm from those control subgroups
    (comparison 4). ``control_groups`` None means every remaining control.
    """

    name: str
    treated_groups: tuple[str, ...] | None = None
    control_groups: tuple[str, ...] | None = None


@dataclass(frozen=True)
class InferenceParams:
    """Inference settings. ``grid`` None means each outcome's ``cohen_grid``;
    a configured grid must hold 0, whose test is the point test."""

    alpha: float = 0.05
    adjustment: str = "ols"
    mode: str = "normal-approx"
    n_draws: int = 100_000
    grid: tuple[float, ...] | None = None

    def __post_init__(self):
        if not (finite_number(self.alpha) and 0.0 < self.alpha < 1.0):
            raise ValidationError("alpha must be a number in (0, 1)")
        if self.adjustment not in ADJUSTMENTS:
            raise ValidationError(f"unknown adjustment {self.adjustment!r}")
        if self.mode not in TEST_MODES:
            raise ValidationError(f"unknown inference mode {self.mode!r}")
        if not (whole_number(self.n_draws) and self.n_draws >= 1):
            raise ValidationError("n_draws must be an integer >= 1")
        if self.grid is not None:
            if not (isinstance(self.grid, tuple) and self.grid and all(map(finite_number, self.grid))):
                raise ValidationError("inference grid must be a non-empty list of finite numbers")
            if 0.0 not in self.grid:
                raise ValidationError("inference grid must hold 0, the point test's shift")


@dataclass(frozen=True)
class SensitivityParams:
    start: float = 1.0
    stop: float = 3.0
    step: float = 0.05

    def __post_init__(self):
        if not all(finite_number(v) for v in (self.start, self.stop, self.step)):
            raise ValidationError("sensitivity start, stop and step must be finite numbers")
        if self.start != 1.0 or self.stop <= self.start or self.step <= 0:
            raise ValidationError("sensitivity grid must start at 1 and increase")
        steps = round((self.stop - self.start) / self.step)
        if steps < 1 or abs(steps * self.step - (self.stop - self.start)) > 1e-9:
            raise ValidationError("sensitivity step must divide stop - start")

    def grid(self) -> np.ndarray:
        count = int(round((self.stop - self.start) / self.step)) + 1
        return np.linspace(self.start, self.stop, count)


@dataclass(frozen=True)
class StudyConfig:
    data: str = "cohort.csv"
    output_dir: str = "out"
    seed: int = 0
    columns: Columns = field(default_factory=Columns)
    covariates: tuple[Covariate, ...] = ()
    primary_outcome: OutcomeSpec = field(default_factory=lambda: OutcomeSpec("y", CONTINUOUS))
    secondary_outcomes: tuple[OutcomeSpec, ...] = ()
    comparisons: tuple[ComparisonSpec, ...] = ()
    propensity_methods: tuple[str, ...] = METHOD_ORDER
    matching: MatchingParams = field(default_factory=MatchingParams)
    inference: InferenceParams = field(default_factory=InferenceParams)
    sensitivity: SensitivityParams = field(default_factory=SensitivityParams)
    equivalence_margin_sd: float = 0.2
    simulate: GeneratorConfig | None = None

    def __post_init__(self):
        if not (whole_number(self.seed) and self.seed >= 0):
            raise ValidationError("seed must be an integer >= 0")
        if not self.covariates:
            raise ValidationError("config lists no covariates")
        if not self.comparisons:
            raise ValidationError("config lists no comparisons")
        for m in self.propensity_methods:
            if m not in METHOD_ORDER:
                raise ValidationError(f"unknown propensity method {m!r}")
        if not self.propensity_methods:
            raise ValidationError("config lists no propensity methods")
        if not (finite_number(self.equivalence_margin_sd) and self.equivalence_margin_sd >= 0):
            raise ValidationError("equivalence_margin_sd must be finite and nonnegative")
        outcome_names = [o.name for o in self.outcome_specs]
        for what, listed in (
            ("comparison", [c.name for c in self.comparisons]),
            ("propensity method", self.propensity_methods),
            ("outcome", outcome_names),
        ):
            repeated = [name for i, name in enumerate(listed) if name in listed[:i]]
            if repeated:
                raise ValidationError(f"{what} {repeated[0]!r} is listed twice")
        covariates, outcomes = {c.name for c in self.covariates}, set(outcome_names)
        for name in outcome_names:
            if name in covariates:
                raise ValidationError(f"outcome {name!r} names a covariate")
        # A real cohort's stratum column may also be a covariate; the recipe's
        # writer would write that column twice.
        for key in ("id", "treatment", "stratum", "group"):
            name = getattr(self.columns, key)
            if name in outcomes:
                raise ValidationError(f"columns: {key} {name!r} names an outcome")
            if name in covariates and (key != "stratum" or self.simulate is not None):
                raise ValidationError(f"columns: {key} {name!r} names a covariate")

    @property
    def schema(self) -> CovariateSchema:
        return CovariateSchema(self.covariates)

    @property
    def outcome_specs(self) -> tuple[OutcomeSpec, ...]:
        return (self.primary_outcome,) + self.secondary_outcomes


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------


def _parse_covariate(obj: dict) -> Covariate:
    _expect_keys(obj, {"name", "kind"}, {"levels"}, "covariate")
    levels = tuple(obj["levels"]) if "levels" in obj else ()
    return Covariate(obj["name"], obj["kind"], levels)


def _parse_outcome(obj: dict) -> OutcomeSpec:
    _expect_keys(obj, {"name", "kind"}, set(), "outcome")
    return OutcomeSpec(obj["name"], obj["kind"])


def _parse_comparison(obj: dict) -> ComparisonSpec:
    _expect_keys(obj, {"name"}, {"treated_groups", "control_groups"}, "comparison")

    def groups(key):
        value = obj.get(key)
        return None if value is None else tuple(value)

    return ComparisonSpec(obj["name"], groups("treated_groups"), groups("control_groups"))


def _field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


def _parse_outcome_model(obj: dict) -> OutcomeModel:
    _expect_keys(obj, {"name"}, _field_names(OutcomeModel) - {"name"}, "simulate outcome")
    kwargs = dict(obj)
    if "coefs" in kwargs:
        kwargs["coefs"] = tuple(kwargs["coefs"])
    return OutcomeModel(**kwargs)


def _parse_simulate(obj: dict) -> GeneratorConfig:
    _expect_keys(obj, {"n"}, _field_names(GeneratorConfig) - {"n"}, "simulate")
    kwargs = dict(obj)
    for key in ("propensity_coefs", "strata", "strata_probs", "control_groups", "control_group_probs"):
        if kwargs.get(key) is not None:
            kwargs[key] = tuple(kwargs[key])
    if "outcomes" in kwargs:
        kwargs["outcomes"] = tuple(_parse_outcome_model(o) for o in kwargs["outcomes"])
    return GeneratorConfig(**kwargs)


def _expect_keys(obj: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object, got {type(obj).__name__}")
    missing = required - obj.keys()
    unknown = obj.keys() - required - optional
    if missing:
        raise ValidationError(f"{where}: missing keys {sorted(missing)}")
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")


def config_from_dict(obj: dict) -> StudyConfig:
    base = default_config_dict()
    _expect_keys(obj, set(), set(base), "config")

    def section(name, parser, default):
        if name not in obj:
            return default
        merged = dataclasses.asdict(default)
        _expect_keys(obj[name], set(), set(merged), name)
        merged.update(obj[name])
        return parser(**merged)

    columns = section("columns", Columns, Columns())
    matching = section("matching", MatchingParams, MatchingParams())
    inference = section("inference", _inference_params, InferenceParams())
    sensitivity = section("sensitivity", SensitivityParams, SensitivityParams())

    value = {**base, **obj}
    margin = value["equivalence_margin_sd"]
    return StudyConfig(
        data=value["data"],
        output_dir=value["output_dir"],
        seed=value["seed"],
        columns=columns,
        covariates=tuple(_parse_covariate(c) for c in value["covariates"]),
        primary_outcome=_parse_outcome(value["primary_outcome"]),
        secondary_outcomes=tuple(_parse_outcome(o) for o in value["secondary_outcomes"]),
        comparisons=tuple(_parse_comparison(c) for c in value["comparisons"]),
        propensity_methods=tuple(value["propensity_methods"]),
        matching=matching,
        inference=inference,
        sensitivity=sensitivity,
        equivalence_margin_sd=float(margin) if finite_number(margin) else margin,
        # An omitted recipe is no recipe: nothing may synthesize the cohort.
        simulate=None if obj.get("simulate") is None else _parse_simulate(obj["simulate"]),
    )


def _inference_params(grid, **rest):
    if isinstance(grid, list):
        grid = tuple(float(g) if finite_number(g) else g for g in grid)
    return InferenceParams(grid=grid, **rest)


def load_config(path: str) -> StudyConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config {path}: invalid JSON ({exc})") from exc
    return config_from_dict(obj)


def default_config_dict() -> dict:
    """The full default configuration, as written by --print-defaults.

    The simulate block and the study block agree, so the simulate and run
    subcommands compose without edits: four continuous plus two binary
    covariates, a continuous primary outcome with a true shift of 0.5, one
    binary and one continuous secondary outcome, two grade-band strata, and
    the two control subgroups that define comparisons 2 through 4.
    """
    return {
        "data": "cohort.csv",
        "output_dir": "out",
        "seed": 0,
        "columns": dataclasses.asdict(Columns()),
        "covariates": [
            {"name": "x1", "kind": CONTINUOUS},
            {"name": "x2", "kind": CONTINUOUS},
            {"name": "x3", "kind": CONTINUOUS},
            {"name": "x4", "kind": CONTINUOUS},
            {"name": "b1", "kind": BINARY},
            {"name": "b2", "kind": BINARY},
        ],
        "primary_outcome": {"name": "y", "kind": CONTINUOUS},
        "secondary_outcomes": [
            {"name": "y_bin", "kind": BINARY},
            {"name": "y_aux", "kind": CONTINUOUS},
        ],
        "comparisons": [
            {"name": "comparison-1", "treated_groups": None, "control_groups": None},
            {"name": "comparison-2", "treated_groups": None, "control_groups": ["sport"]},
            {"name": "comparison-3", "treated_groups": None, "control_groups": ["non-sport"]},
            {"name": "comparison-4", "treated_groups": ["sport"], "control_groups": ["non-sport"]},
        ],
        "propensity_methods": list(METHOD_ORDER),
        "matching": dataclasses.asdict(MatchingParams()),
        "inference": dataclasses.asdict(InferenceParams()),
        "sensitivity": dataclasses.asdict(SensitivityParams()),
        "equivalence_margin_sd": 0.2,
        "simulate": {
            "n": 500,
            "n_continuous": 4,
            "n_binary": 2,
            "propensity_intercept": -0.6,
            "propensity_coefs": [0.5, -0.4, 0.3, 0.0, 0.4, -0.3],
            "outcomes": [
                {"name": "y", "kind": CONTINUOUS, "coefs": [0.4, 0.3, -0.2, 0.1, 0.2, 0.0], "effect": 0.5},
                {"name": "y_bin", "kind": BINARY, "coefs": [0.3, 0.0, 0.2, 0.0, 0.0, 0.1], "effect": 0.0},
                {
                    "name": "y_aux",
                    "kind": CONTINUOUS,
                    "coefs": [0.0, 0.2, 0.0, -0.3, 0.1, 0.0],
                    "effect": 0.2,
                    "missing_rate": 0.03,
                },
            ],
            "strata": ["band-1", "band-2"],
            "strata_probs": [0.55, 0.45],
            "covariate_missing_rate": 0.04,
            "control_groups": ["sport", "non-sport"],
            "control_group_probs": [0.45, 0.55],
            "treated_group_label": "football",
        },
    }


def default_config() -> StudyConfig:
    return config_from_dict(default_config_dict())

