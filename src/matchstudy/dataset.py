"""Cohort ingestion, preprocessing, and synthetic-cohort generation.

Subjects live in an immutable :class:`SubjectTable`: one row per subject with a
binary treatment flag, a stratum label, a covariate matrix with an explicit
missingness mask, and one or more outcome columns (also masked). All
preprocessing steps are pure functions returning new tables, so a pipeline run
can be replayed step by step.
"""
from __future__ import annotations

import csv
import math
import warnings
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

CONTINUOUS = "continuous"
BINARY = "binary"
ORDINAL = "ordinal"

#: Suffix appended to a covariate's name for its missingness indicator column.
MISSING_SUFFIX = "__missing"

_KINDS = (CONTINUOUS, BINARY, ORDINAL)


class SchemaError(ValueError):
    """A column schema is malformed or does not match the data file."""


class ValidationError(ValueError):
    """A data value violates the declared schema."""


def finite_number(value) -> bool:
    """A finite int or float; bools and strings are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    return math.isfinite(value)


def whole_number(value) -> bool:
    """An int, numpy's included; bools and integral floats are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Covariate:
    """Declared covariate column.

    Attributes:
        name: Column name in the data file.
        kind: One of ``continuous``, ``binary``, ``ordinal``.
        levels: For ordinal columns, the allowed numeric codes in order.
    """

    name: str
    kind: str
    levels: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown covariate kind {self.kind!r} for {self.name!r}")
        if self.kind == ORDINAL and not self.levels:
            raise SchemaError(f"ordinal covariate {self.name!r} needs explicit levels")


@dataclass(frozen=True)
class CovariateSchema:
    """Ordered collection of covariate declarations."""

    covariates: tuple[Covariate, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.covariates]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate covariate names in schema")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.covariates)

    def kind_of(self, name: str) -> str:
        for c in self.covariates:
            if c.name == name:
                return c.kind
        raise SchemaError(f"covariate {name!r} not in schema")

    def __contains__(self, name: str) -> bool:
        return any(c.name == name for c in self.covariates)


@dataclass(frozen=True, eq=False)
class SubjectTable:
    """Immutable subject-level study table.

    Attributes:
        ids: Unique subject identifiers, one per row.
        z: Treatment indicator per row (0/1).
        stratum: Stratum label per row (e.g. a grade band).
        covariate_names: Column names for ``covariates``.
        covariates: Float matrix, shape (n, p). Entries under the missing
            mask hold NaN until imputation.
        covariate_missing: Boolean mask, True where the value was missing.
        outcome_names: Column names for ``outcomes``.
        outcomes: Float matrix, shape (n, q), NaN under the missing mask.
        outcome_missing: Boolean mask for outcomes.
        aux: Extra categorical columns (e.g. control-subgroup labels) kept
            out of the covariate set; name -> array of string labels.
    """

    ids: tuple[str, ...]
    z: np.ndarray
    stratum: tuple[str, ...]
    covariate_names: tuple[str, ...]
    covariates: np.ndarray
    covariate_missing: np.ndarray
    outcome_names: tuple[str, ...] = ()
    outcomes: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    outcome_missing: np.ndarray = field(default_factory=lambda: np.empty((0, 0), dtype=bool))
    aux: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.ids)
        if len(set(self.ids)) != n:
            raise ValidationError("subject ids are not unique")
        if self.z.shape != (n,):
            raise ValidationError("treatment vector length mismatch")
        bad = ~np.isin(self.z, (0, 1))
        if bad.any():
            raise ValidationError(f"non-binary treatment at row {int(np.flatnonzero(bad)[0])}")
        if len(self.stratum) != n:
            raise ValidationError("stratum vector length mismatch")
        p = len(self.covariate_names)
        if self.covariates.shape != (n, p) or self.covariate_missing.shape != (n, p):
            raise ValidationError("covariate matrix shape mismatch")
        q = len(self.outcome_names)
        if q and (self.outcomes.shape != (n, q) or self.outcome_missing.shape != (n, q)):
            raise ValidationError("outcome matrix shape mismatch")
        for name, values in self.aux.items():
            if len(values) != n:
                raise ValidationError(f"aux column {name!r} length mismatch")

    @property
    def n(self) -> int:
        return len(self.ids)

    def covariate_index(self, name: str) -> int:
        try:
            return self.covariate_names.index(name)
        except ValueError:
            raise SchemaError(f"covariate {name!r} not in table") from None

    def covariate(self, name: str) -> np.ndarray:
        return self.covariates[:, self.covariate_index(name)]

    def outcome_index(self, name: str) -> int:
        try:
            return self.outcome_names.index(name)
        except ValueError:
            raise SchemaError(f"outcome {name!r} not in table") from None

    def row_of(self, subject_id: str) -> int:
        # Lazily built id -> row lookup; the dataclass is frozen so cache on dict.
        lookup = self.__dict__.get("_row_lookup")
        if lookup is None:
            lookup = {s: i for i, s in enumerate(self.ids)}
            self.__dict__["_row_lookup"] = lookup
        return lookup[subject_id]

    def subset(self, rows: np.ndarray) -> "SubjectTable":
        """New table with the given rows (boolean mask or index array)."""
        rows = np.asarray(rows)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        return SubjectTable(
            ids=tuple(self.ids[i] for i in rows),
            z=self.z[rows].copy(),
            stratum=tuple(self.stratum[i] for i in rows),
            covariate_names=self.covariate_names,
            covariates=self.covariates[rows].copy(),
            covariate_missing=self.covariate_missing[rows].copy(),
            outcome_names=self.outcome_names,
            outcomes=self.outcomes[rows].copy() if self.outcome_names else self.outcomes,
            outcome_missing=self.outcome_missing[rows].copy() if self.outcome_names else self.outcome_missing,
            aux={k: tuple(v[i] for i in rows) for k, v in self.aux.items()},
        )


def id_order(ids: tuple[str, ...]) -> np.ndarray:
    """Row positions that put ``ids`` in id order. Ids compare as Python
    strings, so "s10" sorts before "s2": the order is canonical, not numeric."""
    return np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)


# ---------------------------------------------------------------------------
# Delimited-text ingest / emit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadOptions:
    """Declarative description of a subject-level delimited text file."""

    treatment_column: str
    stratum_column: str
    id_column: str = "id"
    delimiter: str = ","
    missing_token: str = "NA"
    outcome_columns: tuple[str, ...] = ()
    aux_columns: tuple[str, ...] = ()


def _utf8_lines(fh, path: str):
    """The lines of ``fh``, a file opened as UTF-8; bytes that are not UTF-8
    raise ``ValidationError`` naming the file."""
    try:
        yield from fh
    except UnicodeDecodeError as err:
        raise ValidationError(f"{path}: the file is not UTF-8 text ({err.reason})") from None


def load_subjects(path: str, schema: CovariateSchema, options: LoadOptions) -> SubjectTable:
    """Read a delimited UTF-8 text file into a :class:`SubjectTable`.

    The file is decoded as UTF-8 whatever the locale, so the same bytes give
    the same ids everywhere; bytes that are not UTF-8 raise
    ``ValidationError`` naming the file. The file is streamed: each row is
    checked and parsed as it is read, and only what the table keeps outlives
    it. That is the id, the treatment flag, the stratum and aux labels (each
    distinct label one shared string), and the covariate then outcome values
    in one packed float64 buffer with a byte of missing flag per value.

    Cells equal to ``options.missing_token`` become missing flags. A header
    that lacks a declared column or names a column twice, a row with the
    wrong number of fields, a repeated id, a non-binary treatment value, or
    any other numeric cell that does not parse or parses to NaN or an
    infinity raises with the offending row/column named. Rows are checked in
    file order and each row in the order above, so the error raised is the
    first one in the file.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(_utf8_lines(fh, path), delimiter=options.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        col: dict[str, int] = {}
        for i, name in enumerate(header):
            if col.setdefault(name, i) != i:
                raise SchemaError(f"{path}: column {name!r} appears more than once in the header")
        required = (
            [options.id_column, options.treatment_column, options.stratum_column]
            + list(schema.names)
            + list(options.outcome_columns)
            + list(options.aux_columns)
        )
        for name in required:
            if name not in col:
                raise SchemaError(f"{path}: missing required column {name!r}")

        n_fields = len(header)
        id_at, z_at, stratum_at = col[options.id_column], col[options.treatment_column], col[options.stratum_column]
        value_names = schema.names + tuple(options.outcome_columns)
        value_columns = [(col[name], name) for name in value_names]
        missing = options.missing_token
        labels: dict[str, str] = {}  # one shared string per distinct stratum or aux label
        aux: dict[str, list[str]] = {name: [] for name in options.aux_columns}
        aux_columns = [(col[name], aux[name]) for name in options.aux_columns]
        first_row: dict[str, int] = {}  # id -> the row it is on
        z = bytearray()
        stratum: list[str] = []
        values = array("d")  # covariate then outcome values, row after row
        flags = bytearray()  # 1 where the value is missing

        for i, row in enumerate(reader):
            if len(row) != n_fields:
                raise ValidationError(f"{path}: row {i}: expected {n_fields} fields, got {len(row)}")
            subject = row[id_at]
            first = first_row.setdefault(subject, i)
            if first != i:
                raise ValidationError(f"{path}: row {i}: id {subject!r} repeats the id of row {first}")
            z_cell = row[z_at]
            try:
                z_val = float(z_cell)
            except ValueError:
                z_val = -1.0
            if z_val not in (0.0, 1.0):
                raise ValidationError(f"{path}: row {i}: non-binary treatment value {z_cell!r}")
            for j, name in value_columns:
                cell = row[j]
                if cell == missing:
                    values.append(math.nan)
                    flags.append(1)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise ValidationError(f"{path}: row {i}: unparseable value {cell!r} in column {name!r}") from None
                if not math.isfinite(value):
                    raise ValidationError(f"{path}: row {i}: non-finite value {cell!r} in column {name!r}")
                values.append(value)
                flags.append(0)
            z.append(int(z_val))
            stratum.append(labels.setdefault(row[stratum_at], row[stratum_at]))
            for j, column in aux_columns:
                column.append(labels.setdefault(row[j], row[j]))

    n, p = len(first_row), len(schema.names)
    packed = np.frombuffer(values, dtype=np.float64).reshape(n, len(value_names))
    missing_flags = np.frombuffer(flags, dtype=np.bool_).reshape(n, len(value_names))
    return SubjectTable(
        ids=tuple(first_row),
        z=np.frombuffer(z, dtype=np.uint8).astype(np.int64),
        stratum=tuple(stratum),
        covariate_names=schema.names,
        covariates=packed[:, :p].copy(),
        covariate_missing=missing_flags[:, :p].copy(),
        outcome_names=tuple(options.outcome_columns),
        outcomes=packed[:, p:].copy(),
        outcome_missing=missing_flags[:, p:].copy(),
        aux={k: tuple(v) for k, v in aux.items()},
    )


def save_subjects(table: SubjectTable, path: str, options: LoadOptions) -> None:
    """Write a table back to delimited UTF-8 text; inverse of :func:`load_subjects`.

    Finite values are written with ``repr`` so a load/save/load cycle
    round-trips bit-identically; missing entries become the missing token.
    """
    header = (
        [options.id_column, options.treatment_column, options.stratum_column]
        + list(table.covariate_names)
        + list(table.outcome_names)
        + list(table.aux.keys())
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=options.delimiter, lineterminator="\n")
        writer.writerow(header)
        for i in range(table.n):
            row = [table.ids[i], str(int(table.z[i])), table.stratum[i]]
            for j in range(len(table.covariate_names)):
                row.append(options.missing_token if table.covariate_missing[i, j] else repr(float(table.covariates[i, j])))
            for j in range(len(table.outcome_names)):
                row.append(options.missing_token if table.outcome_missing[i, j] else repr(float(table.outcomes[i, j])))
            for values in table.aux.values():
                row.append(values[i])
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------


def scale_covariates(table: SubjectTable, schema: CovariateSchema) -> SubjectTable:
    """Recenter/rescale continuous (and ordinal) covariates to mean 0, sd 0.5.

    x -> (x - mean) / (2 * sd) with the sample sd (ddof=1), computed over
    observed entries. Binary covariates and columns absent from the schema
    (e.g. missingness indicators) are untouched, and so are zero-variance
    columns.
    """
    covs = table.covariates.copy()
    for j, name in enumerate(table.covariate_names):
        if name not in schema or schema.kind_of(name) == BINARY:
            continue
        observed = ~table.covariate_missing[:, j]
        values = covs[observed, j]
        if values.size == 0:
            raise ValidationError(f"covariate {name!r} has no observed values")
        sd = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
        if sd > 0.0:
            covs[observed, j] = (values - float(np.mean(values))) / (2.0 * sd)
    return replace(table, covariates=covs)


def augment_missingness(table: SubjectTable) -> SubjectTable:
    """Impute missing covariates and append per-covariate missingness indicators.

    For each covariate with at least one missing entry, a binary column named
    ``<name>__missing`` is appended and missing values are imputed with the
    pooled mean of the observed values (mode for binary columns, ties broken
    toward 0; a column is binary when every observed value is 0 or 1).
    Idempotent: a table with no missing covariates is returned unchanged.
    """
    if not table.covariate_missing.any():
        return table
    covs = table.covariates.copy()
    new_names: list[str] = []
    new_cols: list[np.ndarray] = []
    for j, name in enumerate(table.covariate_names):
        miss = table.covariate_missing[:, j]
        if not miss.any():
            continue
        observed = covs[~miss, j]
        if observed.size == 0:
            raise ValidationError(f"covariate {name!r} is missing for every subject")
        if np.isin(observed, (0.0, 1.0)).all():
            ones = int(np.count_nonzero(observed == 1.0))
            fill = 1.0 if ones > observed.size - ones else 0.0
        else:
            fill = float(np.mean(observed))
        covs[miss, j] = fill
        new_names.append(name + MISSING_SUFFIX)
        new_cols.append(miss.astype(float))
    covariates = np.column_stack([covs] + new_cols)
    covariate_missing = np.column_stack(
        [np.zeros_like(table.covariate_missing)] + [np.zeros(table.n, dtype=bool) for _ in new_cols]
    )
    return replace(
        table,
        covariate_names=table.covariate_names + tuple(new_names),
        covariates=covariates,
        covariate_missing=covariate_missing,
    )


def missingness_flags(table: SubjectTable) -> np.ndarray:
    """Mask, shape (n, p): subject i has a 1 in missingness indicator j, and
    every 1 there is in one arm, so the propensity model could separate on
    it. A subject with any flag is missingness-determined."""
    indicator = np.array([name.endswith(MISSING_SUFFIX) for name in table.covariate_names], dtype=bool)
    ones = (table.covariates == 1.0) & indicator
    treated = table.z == 1
    return ones & ~(ones[treated].any(axis=0) & ones[~treated].any(axis=0))


@dataclass(frozen=True)
class AttritionResult:
    """Wald test of whether treatment predicts outcome availability."""

    coef: float
    p: float
    separation: bool


def attrition_check(table: SubjectTable, outcome: str) -> AttritionResult:
    """Logistic regression of outcome availability on covariates + treatment.

    Returns the treatment coefficient and its Wald p-value. Requires both
    missing and observed outcomes to be present. Under perfect separation the
    flag is set and p is NaN.
    """
    from . import propensity  # matrix-level fitter; no circular import at module load

    j = table.outcome_index(outcome)
    available = (~table.outcome_missing[:, j]).astype(np.int64)
    if available.all() or not available.any():
        raise ValidationError(f"outcome {outcome!r} is entirely observed or entirely missing")
    x = np.column_stack([table.covariates, table.z.astype(float)])
    fit = propensity.fit_mle(x, available)
    coef = float(fit.beta[-1])
    if not fit.converged:
        return AttritionResult(coef=coef, p=math.nan, separation=True)
    # complete separation: the fitted index classifies availability perfectly,
    # so the true MLE is at infinity even if the gradient went numerically flat
    if fit.scores[available == 1].min() >= fit.scores[available == 0].max():
        return AttritionResult(coef=coef, p=math.nan, separation=True)
    # Wald se from the inverse observed information at the optimum.
    design = np.column_stack([np.ones(table.n), x])
    scores = fit.scores
    w = scores * (1.0 - scores)
    info = design.T @ (design * w[:, None])
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        return AttritionResult(coef=coef, p=math.nan, separation=True)
    se = math.sqrt(max(cov[-1, -1], 0.0))
    if se == 0.0:
        return AttritionResult(coef=coef, p=math.nan, separation=True)
    from ._scipy import ndtr

    p = 2.0 * float(ndtr(-abs(coef) / se))
    return AttritionResult(coef=coef, p=min(p, 1.0), separation=False)


# ---------------------------------------------------------------------------
# Synthetic cohorts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutcomeModel:
    """Generator for one outcome column.

    ``value = intercept + x @ coefs + effect * z + noise`` for continuous
    outcomes; for binary outcomes that linear index feeds a logistic draw.
    """

    name: str
    kind: str = CONTINUOUS
    intercept: float = 0.0
    coefs: tuple[float, ...] = ()
    effect: float = 0.0
    noise_sd: float = 1.0
    missing_rate: float = 0.0


@dataclass(frozen=True)
class GeneratorConfig:
    """Synthetic-cohort recipe; everything downstream of the seed is fixed.

    Covariates are ``n_continuous`` standard normals followed by ``n_binary``
    Bernoulli(0.5) columns. Treatment is logistic in the covariates. Strata
    are drawn independently with the given probabilities. An optional control
    subgroup label (aux column ``group``) supports comparison subsets.
    """

    n: int
    n_continuous: int = 4
    n_binary: int = 2
    propensity_intercept: float = 0.0
    propensity_coefs: tuple[float, ...] = ()
    outcomes: tuple[OutcomeModel, ...] = (OutcomeModel(name="y"),)
    strata: tuple[str, ...] = ("all",)
    strata_probs: tuple[float, ...] | None = None
    covariate_missing_rate: float = 0.0
    control_groups: tuple[str, ...] = ()
    control_group_probs: tuple[float, ...] | None = None
    treated_group_label: str = "treated"

    def __post_init__(self):
        if not (whole_number(self.n) and self.n >= 1):
            raise ValidationError("simulate n must be an integer >= 1")
        if not self.strata:
            raise ValidationError("simulate strata must list at least one label")
        rates = {"covariate_missing_rate": self.covariate_missing_rate}
        rates.update((f"outcome {m.name!r} missing_rate", m.missing_rate) for m in self.outcomes)
        for what, rate in rates.items():
            if not (finite_number(rate) and 0.0 <= rate <= 1.0):
                raise ValidationError(f"simulate {what} must be a number in [0, 1]")
        for key, labels in (("strata_probs", self.strata), ("control_group_probs", self.control_groups)):
            probs = getattr(self, key)
            if probs is not None and not (
                len(probs) == len(labels)
                and all(finite_number(p) and p >= 0 for p in probs)
                and abs(math.fsum(probs) - 1.0) <= 1e-8
            ):
                raise ValidationError(f"simulate {key} must hold one probability >= 0 per label, summing to 1")


@dataclass(frozen=True)
class SyntheticCohort:
    """Generated table plus the ground truth used to create it."""

    table: SubjectTable
    schema: CovariateSchema
    true_propensity: np.ndarray
    true_effects: dict[str, float]
    baseline: dict[str, np.ndarray]  # control-arm potential outcome per subject


def generate_synthetic(config: GeneratorConfig, seed: int) -> SyntheticCohort:
    """Draw a synthetic cohort with known propensities and effects."""
    rng = np.random.default_rng(seed)
    n = config.n
    p = config.n_continuous + config.n_binary
    coefs = np.asarray(config.propensity_coefs if config.propensity_coefs else np.zeros(p), dtype=float)
    if coefs.shape != (p,):
        raise ValidationError(f"propensity_coefs must have length {p}")

    x = np.empty((n, p))
    x[:, : config.n_continuous] = rng.standard_normal((n, config.n_continuous))
    x[:, config.n_continuous :] = rng.integers(0, 2, size=(n, config.n_binary)).astype(float)
    names = tuple(f"x{i + 1}" for i in range(config.n_continuous)) + tuple(
        f"b{i + 1}" for i in range(config.n_binary)
    )
    schema = CovariateSchema(
        tuple(Covariate(name, CONTINUOUS) for name in names[: config.n_continuous])
        + tuple(Covariate(name, BINARY) for name in names[config.n_continuous :])
    )

    from ._scipy import expit

    e = expit(config.propensity_intercept + x @ coefs)
    z = (rng.random(n) < e).astype(np.int64)

    probs = config.strata_probs
    if probs is None:
        probs = tuple(1.0 / len(config.strata) for _ in config.strata)
    stratum_idx = rng.choice(len(config.strata), size=n, p=probs)
    stratum = tuple(config.strata[i] for i in stratum_idx)

    q = len(config.outcomes)
    outs = np.empty((n, q))
    out_miss = np.zeros((n, q), dtype=bool)
    effects: dict[str, float] = {}
    baseline: dict[str, np.ndarray] = {}
    for j, model in enumerate(config.outcomes):
        oc = np.asarray(model.coefs if model.coefs else np.zeros(p), dtype=float)
        if oc.shape != (p,):
            raise ValidationError(f"outcome {model.name!r} coefs must have length {p}")
        index = model.intercept + x @ oc
        if model.kind == BINARY:
            base_p = expit(index)
            treat_p = expit(index + model.effect)
            u = rng.random(n)
            outs[:, j] = np.where(z == 1, u < treat_p, u < base_p).astype(float)
            baseline[model.name] = base_p
        else:
            noise = rng.standard_normal(n) * model.noise_sd
            control_value = index + noise
            outs[:, j] = control_value + model.effect * z
            baseline[model.name] = control_value
        effects[model.name] = model.effect
        if model.missing_rate > 0.0:
            out_miss[:, j] = rng.random(n) < model.missing_rate
            outs[out_miss[:, j], j] = np.nan

    cov_miss = np.zeros((n, p), dtype=bool)
    if config.covariate_missing_rate > 0.0:
        cov_miss = rng.random((n, p)) < config.covariate_missing_rate
    covs = x.copy()
    covs[cov_miss] = np.nan

    aux: dict[str, tuple[str, ...]] = {}
    if config.control_groups:
        gprobs = config.control_group_probs
        if gprobs is None:
            gprobs = tuple(1.0 / len(config.control_groups) for _ in config.control_groups)
        group_idx = rng.choice(len(config.control_groups), size=n, p=gprobs)
        labels = [
            config.treated_group_label if z[i] == 1 else config.control_groups[group_idx[i]] for i in range(n)
        ]
        aux["group"] = tuple(labels)

    width = len(str(n))
    table = SubjectTable(
        ids=tuple(f"s{str(i + 1).zfill(width)}" for i in range(n)),
        z=z,
        stratum=stratum,
        covariate_names=names,
        covariates=covs,
        covariate_missing=cov_miss,
        outcome_names=tuple(m.name for m in config.outcomes),
        outcomes=outs,
        outcome_missing=out_miss,
        aux=aux,
    )
    return SyntheticCohort(
        table=table,
        schema=schema,
        true_propensity=e,
        true_effects=effects,
        baseline=baseline,
    )
