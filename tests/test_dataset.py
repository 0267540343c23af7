import csv
import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchstudy.config import default_config
from matchstudy.dataset import (
    BINARY,
    CONTINUOUS,
    Columns,
    Covariate,
    CovariateSchema,
    GeneratorConfig,
    SchemaError,
    SubjectTable,
    ValidationError,
    attrition_check,
    augment_missingness,
    generate_synthetic,
    load_subjects,
    missingness_flags,
    save_subjects,
    scale_covariates,
)
from matchstudy.propensity import fit_mle
from util import make_table, tables_equal

SCHEMA2 = CovariateSchema((Covariate("x1", CONTINUOUS), Covariate("x2", BINARY)))
OPTS = Columns()


def write_csv(path, text):
    path.write_text(text)
    return str(path)


def reference_load(path, schema, options, outcomes):
    """Row-by-row reading with a check per cell, in the order the loader
    reports errors: field count, repeated id, treatment, covariates,
    outcomes."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    col = {name: i for i, name in enumerate(header)}
    n, p, q = len(rows), len(schema.names), len(outcomes)
    z = np.zeros(n, dtype=np.int64)
    covs, outs = np.full((n, p), np.nan), np.full((n, q), np.nan)
    ids, stratum, group = [], [], []

    def parse(cell, i, name):
        if cell == options.missing_token:
            return math.nan
        try:
            value = float(cell)
        except ValueError:
            raise ValidationError(f"{path}: row {i}: unparseable value {cell!r} in column {name!r}") from None
        if not math.isfinite(value):
            raise ValidationError(f"{path}: row {i}: non-finite value {cell!r} in column {name!r}")
        return value

    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValidationError(f"{path}: row {i}: expected {len(header)} fields, got {len(row)}")
        subject = row[col[options.id]]
        if subject in ids:
            first = ids.index(subject)
            raise ValidationError(f"{path}: row {i}: id {subject!r} repeats the id of row {first}")
        ids.append(subject)
        z_cell = row[col[options.treatment]]
        try:
            z_val = float(z_cell)
        except ValueError:
            z_val = -1.0
        if z_val not in (0.0, 1.0):
            raise ValidationError(f"{path}: row {i}: non-binary treatment value {z_cell!r}")
        z[i] = int(z_val)
        stratum.append(row[col[options.stratum]])
        for j, name in enumerate(schema.names):
            covs[i, j] = parse(row[col[name]], i, name)
        for j, name in enumerate(outcomes):
            outs[i, j] = parse(row[col[name]], i, name)
        if options.group in col:
            group.append(row[col[options.group]])
    return SubjectTable(
        ids=tuple(ids),
        z=z,
        stratum=tuple(stratum),
        covariate_names=schema.names,
        covariates=covs,
        outcome_names=tuple(outcomes),
        outcomes=outs,
        group=tuple(group) if options.group in col else None,
    )


def table_bytes(table):
    arrays = (table.z, table.covariates, table.outcomes)
    return (
        (table.ids, table.stratum, table.covariate_names, table.outcome_names, table.group),
        [(a.dtype.str, a.shape, a.strides, a.tobytes()) for a in arrays],
    )


def outcome_of(load, path, schema, options, outcomes):
    try:
        return table_bytes(load(path, schema, options, outcomes))
    except ValueError as exc:
        return type(exc), str(exc)


#: Cells that parse, the missing token, text that float() reads as NaN or
#: infinity, and text that does not parse.
VALUE_CELLS = ("0.5", "-1e300", "2", " 3 ", "NA", "nan", "-inf", "x", "")
TREATMENT_CELLS = ("0", "1", "1.0", "0", "1", "2", "yes", "nan")


@st.composite
def cohort_files(draw):
    rows = []
    for i in range(draw(st.integers(0, 6))):
        subject = draw(st.sampled_from((i,) * 9 + (0,)))  # now and then the id of row 0 again
        row = [f"s{subject}", draw(st.sampled_from(TREATMENT_CELLS)), draw(st.sampled_from(("a", "b")))]
        row += draw(st.lists(st.sampled_from(VALUE_CELLS), min_size=4, max_size=4))
        row.append(draw(st.sampled_from(("g", "h"))))
        cut = draw(st.sampled_from((None,) * 8 + (-1, 1)))
        if cut == -1:
            row = row[:-1]
        elif cut == 1:
            row.append("extra")
        rows.append(",".join(row))
    return "\n".join(["id,treated,stratum,x1,x2,y,y2,group", *rows]) + "\n"


class TestLoadSubjects:
    def test_parses_clean_file(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            "id,treated,stratum,x1,x2\na,1,s1,0.5,1\nb,0,s1,-0.25,0\nc,0,s2,1.5,1\n",
        )
        table = load_subjects(path, SCHEMA2, OPTS)
        assert table.n == 3
        assert table.ids == ("a", "b", "c")
        assert not np.isnan(table.covariates).any()
        np.testing.assert_array_equal(table.z, [1, 0, 0])
        assert table.covariates[1, 0] == -0.25

    def test_missing_token_sets_flag(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            "id,treated,stratum,x1,x2\na,1,s1,NA,1\nb,0,s1,2.0,0\n",
        )
        table = load_subjects(path, SCHEMA2, OPTS)
        assert np.isnan(table.covariates[0, 0])
        assert not np.isnan(table.covariates[1, 0])

    def test_absent_treatment_column_names_it(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "id,stratum,x1,x2\na,s1,0.5,1\n")
        with pytest.raises(SchemaError, match="treated"):
            load_subjects(path, SCHEMA2, OPTS)

    def test_duplicate_header_name_is_a_schema_error(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "id,treated,stratum,x1,x2,x1\na,1,s1,0.5,1,7\n")
        with pytest.raises(SchemaError, match=r"column 'x1' appears more than once in the header"):
            load_subjects(path, SCHEMA2, OPTS)

    def test_repeated_id_names_both_rows(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "id,treated,stratum,x1,x2\na,1,s1,0.5,1\nb,0,s1,1,0\na,7,s1,?,0\n")
        with pytest.raises(ValidationError, match=r"row 2: id 'a' repeats the id of row 0"):
            load_subjects(path, SCHEMA2, OPTS)

    def test_non_binary_treatment_reports_row(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            "id,treated,stratum,x1,x2\na,1,s1,0.5,1\nb,2,s1,0.5,0\n",
        )
        with pytest.raises(ValidationError, match="row 1"):
            load_subjects(path, SCHEMA2, OPTS)

    def test_save_load_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        table = make_table(
            z=rng.integers(0, 2, 20),
            covariates=rng.normal(size=(20, 2)),
            outcomes=rng.normal(size=(20, 1)),
            outcome_names=("y",),
            group=tuple("gh"[i % 2] for i in range(20)),
        )
        p1 = tmp_path / "a.csv"
        save_subjects(table, str(p1), OPTS)
        loaded = load_subjects(str(p1), SCHEMA2, OPTS, ("y",))
        assert tables_equal(table, loaded)
        p2 = tmp_path / "b.csv"
        save_subjects(loaded, str(p2), OPTS)
        assert p1.read_bytes() == p2.read_bytes()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        cfg = default_config()
        cohort = generate_synthetic(dataclasses.replace(cfg.simulate, n=40), seed=3)
        outcomes = tuple(o.name for o in cfg.outcome_specs)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        save_subjects(cohort.table, str(plain), cfg.columns)
        assert not plain.read_bytes().startswith(b"\xef\xbb\xbf")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        table = load_subjects(str(plain), cfg.schema, cfg.columns, outcomes)
        assert tables_equal(table, cohort.table)
        assert tables_equal(load_subjects(str(marked), cfg.schema, cfg.columns, outcomes), table)

    @given(text=cohort_files())
    @example(text="id,treated,stratum,x1,x2,y,y2,group\ns0,1,a,0.5,x,2,2,g\ns1,2,a,0.5,2,2,2,g\n")
    @example(text="id,treated,stratum,x1,x2,y,y2,group\ns0,1,a,0.5,2,2,2,g\ns1,2,a,x,2,2,2,g\n")
    @example(text="id,treated,stratum,x1,x2,y,y2,group\ns0,1,a,0.5,2,x,2,g\ns1,1,a,2,2,2\n")
    @example(text="id,treated,stratum,x1,x2,y,y2,group\ns0,1,a,NA,nan,NA,-inf,g\ns1,0,b,2,NA,2,2,h\n")
    @example(text="id,treated,stratum,x1,x2,y,y2,group\ns0,1,a,0.5,2,2,2,g\ns1,0,a,1,2,2,2,g\ns0,2,a,x,2,2,2,g\n")
    @settings(max_examples=300, deadline=None)
    def test_same_table_or_error_as_the_row_by_row_reference(self, tmp_path_factory, text):
        path = write_csv(tmp_path_factory.getbasetemp() / "load_subjects_examples.csv", text)
        outcomes = ("y", "y2")
        assert outcome_of(load_subjects, path, SCHEMA2, OPTS, outcomes) == outcome_of(
            reference_load, path, SCHEMA2, OPTS, outcomes
        )

    def test_unparseable_cell_named_by_row_and_column(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "id,treated,stratum,x1,x2\na,1,s1,0.5,1\nb,0,s1,0.5,?\nc,3,s1,0.5,1\n")
        with pytest.raises(ValidationError, match=r"row 1: unparseable value '\?' in column 'x2'"):
            load_subjects(path, SCHEMA2, OPTS)

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e999", "Infinity"])
    @pytest.mark.parametrize("column", ["x2", "y"])
    def test_non_finite_cell_named_by_row_and_column(self, tmp_path, cell, column):
        rows = ["id,treated,stratum,x1,x2,y", "a,1,s1,0.5,1,2", "b,0,s1,0.5,1,2", "c,3,s1,0.5,1,2"]
        rows[2] = rows[2].replace(",1,2", f",{cell},2" if column == "x2" else f",1,{cell}")
        path = write_csv(tmp_path / "t.csv", "\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match=rf"row 1: non-finite value '{cell}' in column '{column}'"):
            load_subjects(path, SCHEMA2, OPTS, ("y",))


class TestLoadMemory:
    def test_traced_peak_is_at_most_four_times_the_file(self, tmp_path):
        # Rows are parsed as they are read, so the load holds the table and
        # little else: no list of every row or of every cell.
        cfg = default_config()
        cohort = generate_synthetic(dataclasses.replace(cfg.simulate, n=2000), seed=7)
        path = str(tmp_path / "cohort.csv")
        save_subjects(cohort.table, path, cfg.columns)
        size = os.path.getsize(path)
        outcomes = tuple(o.name for o in cfg.outcome_specs)
        tracemalloc.start()
        try:
            table = load_subjects(path, cfg.schema, cfg.columns, outcomes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tables_equal(table, cohort.table)
        assert peak <= 4 * size, f"traced peak {peak} bytes for a {size}-byte file"


class TestScaleCovariates:
    def test_two_point_column(self):
        # sample sd of (1, 3) is sqrt(2), so the scaled pair is +-1/(2 sqrt 2)
        table = make_table(z=[0, 1], covariates=[[1.0], [3.0]])
        scaled = scale_covariates(table, CovariateSchema((Covariate("x1", CONTINUOUS),)))
        np.testing.assert_allclose(scaled.covariates[:, 0], [-0.5 / np.sqrt(2), 0.5 / np.sqrt(2)])
        assert abs(scaled.covariates[:, 0].std(ddof=1) - 0.5) < 1e-12

    def test_five_point_column_exact_values(self):
        # mean 2, sample sd sqrt(2.5): scaled values are (-2,-1,0,1,2)/sqrt(10)
        table = make_table(z=[0, 1, 0, 1, 0], covariates=[[0.0], [1.0], [2.0], [3.0], [4.0]])
        scaled = scale_covariates(table, CovariateSchema((Covariate("x1", CONTINUOUS),)))
        expected = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) / np.sqrt(10.0)
        np.testing.assert_allclose(scaled.covariates[:, 0], expected, atol=1e-12)

    def test_constant_column_left_as_it_was(self):
        table = make_table(z=[0, 1, 0], covariates=[[2.0], [2.0], [2.0]])
        scaled = scale_covariates(table, CovariateSchema((Covariate("x1", CONTINUOUS),)))
        np.testing.assert_array_equal(scaled.covariates, table.covariates)

    def test_recomputed_moments_after_transform(self):
        # mean 2, sd sqrt(2.5) variants: verify the post-transform moments
        table = make_table(z=[0, 1, 0, 1, 0], covariates=[[0.0], [1.0], [2.0], [3.0], [4.0]])
        scaled = scale_covariates(table, CovariateSchema((Covariate("x1", CONTINUOUS),)))
        col = scaled.covariates[:, 0]
        assert abs(col.mean()) < 1e-10
        assert abs(col.std(ddof=1) - 0.5) < 1e-10

    def test_binary_columns_untouched(self):
        table = make_table(z=[0, 1, 0], covariates=[[1.0, 1.0], [3.0, 0.0], [5.0, 1.0]])
        scaled = scale_covariates(table, SCHEMA2)
        np.testing.assert_array_equal(scaled.covariates[:, 1], [1.0, 0.0, 1.0])

    @given(st.integers(0, 2**32 - 1), st.integers(3, 40))
    @settings(max_examples=40, deadline=None)
    def test_property_scaled_moments(self, seed, n):
        rng = np.random.default_rng(seed)
        values = rng.normal(loc=rng.normal() * 10, scale=rng.uniform(0.1, 9), size=n)
        table = make_table(z=[i % 2 for i in range(n)], covariates=values)
        scaled = scale_covariates(table, CovariateSchema((Covariate("x1", CONTINUOUS),)))
        col = scaled.covariates[:, 0]
        assert abs(col.mean()) < 1e-10
        assert abs(col.std(ddof=1) - 0.5) < 1e-10


class TestAugmentMissingness:
    def test_mean_imputation_with_indicator(self):
        table = make_table(z=[0, 1, 0], covariates=[[1.0], [np.nan], [3.0]])
        out = augment_missingness(table)
        assert out.covariate_names == ("x1", "x1__missing")
        np.testing.assert_array_equal(out.covariates[:, 0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(out.covariates[:, 1], [0.0, 1.0, 0.0])
        assert not np.isnan(out.covariates).any()

    def test_no_missing_is_identity(self):
        table = make_table(z=[0, 1], covariates=[[1.0], [2.0]])
        assert augment_missingness(table) is table

    def test_binary_mode_imputation(self):
        table = make_table(z=[0, 1, 0, 1], covariates=[[1.0], [1.0], [0.0], [np.nan]])
        out = augment_missingness(table)
        np.testing.assert_array_equal(out.covariates[:, 0], [1.0, 1.0, 0.0, 1.0])
        np.testing.assert_array_equal(out.covariates[:, 1], [0.0, 0.0, 0.0, 1.0])

    def test_binary_mode_tie_goes_to_zero(self):
        table = make_table(z=[0, 1, 0], covariates=[[1.0], [0.0], [np.nan]])
        out = augment_missingness(table)
        assert out.covariates[2, 0] == 0.0

    def test_all_missing_column_errors(self):
        table = make_table(z=[0, 1], covariates=[[np.nan], [np.nan]])
        with pytest.raises(ValidationError, match="x1"):
            augment_missingness(table)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        covs = rng.normal(size=(12, 3))
        covs[rng.random(covs.shape) < 0.25] = np.nan
        if np.isnan(covs).all(axis=0).any():
            covs[0] = 0.0
        table = make_table(z=[i % 2 for i in range(12)], covariates=covs)
        once = augment_missingness(table)
        twice = augment_missingness(once)
        assert tables_equal(once, twice)


class TestDropMissingnessDetermined:
    def _table(self, z, indicator_cols, names):
        covs = np.column_stack([np.asarray(c, dtype=float) for c in indicator_cols])
        return make_table(z=z, covariates=covs, covariate_names=names)

    @staticmethod
    def _flagged(table):
        """(subject id, indicator column) of every flag, subject by subject."""
        return [(table.ids[i], table.covariate_names[j]) for i, j in np.argwhere(missingness_flags(table))]

    def test_all_control_indicator_drops_and_keeps_column(self):
        table = self._table([1, 0, 0, 0], [[0, 1, 1, 0]], ("x1__missing",))
        flags = missingness_flags(table)
        assert flags.shape == (4, 1)
        assert [table.ids[i] for i in np.flatnonzero(~flags.any(axis=1))] == ["s000", "s003"]
        assert self._flagged(table) == [("s001", "x1__missing"), ("s002", "x1__missing")]

    def test_mixed_arms_drop_nobody(self):
        table = self._table([1, 0, 0, 1], [[0, 1, 0, 1]], ("x1__missing",))
        assert not missingness_flags(table).any()

    def test_overlapping_indicators_drop_union_with_pair_ledger(self):
        # 6 subjects; both indicators point only at controls; s2 is flagged by both
        table = self._table(
            [1, 1, 0, 0, 0, 0],
            [[0, 0, 1, 1, 0, 0], [0, 0, 1, 0, 1, 0]],
            ("a__missing", "b__missing"),
        )
        kept = np.flatnonzero(~missingness_flags(table).any(axis=1))
        assert [table.ids[i] for i in kept] == ["s000", "s001", "s005"]
        dropped = self._flagged(table)
        assert set(dropped) == {
            ("s002", "a__missing"),
            ("s003", "a__missing"),
            ("s002", "b__missing"),
            ("s004", "b__missing"),
        }
        assert len(dropped) == 4

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_never_drops_subject_without_missingness(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(15, 2))
        raw[rng.random(raw.shape) < 0.3] = np.nan
        raw[0] = 0.0  # keep both columns partially observed
        table = augment_missingness(make_table(z=rng.integers(0, 2, 15), covariates=raw))
        flagged = {
            table.ids[i]
            for j, name in enumerate(table.covariate_names)
            if name.endswith("__missing")
            for i in np.flatnonzero(table.covariates[:, j] == 1.0)
        }
        assert {sid for sid, _ in self._flagged(table)} <= flagged


class TestAttritionCheck:
    def test_all_observed_is_an_error(self):
        table = make_table(
            z=[0, 1],
            covariates=[[0.0], [1.0]],
            outcomes=[[1.0], [2.0]],
            outcome_names=("y",),
        )
        with pytest.raises(ValidationError):
            attrition_check(table, "y")

    def test_availability_equal_to_treatment_flags_separation(self):
        n = 40
        rng = np.random.default_rng(0)
        z = np.array([0, 1] * (n // 2))
        y = rng.normal(size=(n, 1))
        y[z == 1] = np.nan
        table = make_table(z=z, covariates=rng.normal(size=(n, 2)), outcomes=y, outcome_names=("y",))
        res = attrition_check(table, "y")
        assert res.separation
        assert np.isnan(res.p)

    def test_null_missingness_gives_unremarkable_p(self):
        rng = np.random.default_rng(11)
        n = 2000
        z = rng.integers(0, 2, n)
        y = rng.normal(size=(n, 1))
        y[rng.random(n) < 0.1] = np.nan
        table = make_table(z=z, covariates=rng.normal(size=(n, 3)), outcomes=y, outcome_names=("y",))
        res = attrition_check(table, "y")
        assert not res.separation
        assert res.p > 0.001


class TestGenerateSynthetic:
    def test_same_seed_identical(self):
        cfg = GeneratorConfig(n=200)
        a = generate_synthetic(cfg, seed=3)
        b = generate_synthetic(cfg, seed=3)
        assert tables_equal(a.table, b.table)
        assert a.true_propensity.tolist() == b.true_propensity.tolist()

    def test_emits_truth(self):
        from matchstudy.dataset import OutcomeModel

        cfg = GeneratorConfig(n=100, outcomes=(OutcomeModel(name="y", effect=0.7),))
        cohort = generate_synthetic(cfg, seed=0)
        assert cohort.true_effects["y"] == 0.7
        assert cohort.true_propensity.shape == (100,)
        # additive-effect construction: observed treated outcome = baseline + effect
        table = cohort.table
        treated = table.z == 1
        np.testing.assert_allclose(
            table.outcomes[treated, 0], cohort.baseline["y"][treated] + 0.7
        )

    def test_logistic_model_recovered_at_scale(self):
        coefs = (0.5, -0.4, 0.3, 0.2, 0.4, -0.3)
        cfg = GeneratorConfig(n=10_000, propensity_intercept=-0.3, propensity_coefs=coefs)
        cohort = generate_synthetic(cfg, seed=7)
        table = cohort.table
        fit = fit_mle(table.covariates, table.z)
        # asymptotic covariance = inverse Fisher information at the fit
        design = np.column_stack([np.ones(table.n), table.covariates])
        probs = 1.0 / (1.0 + np.exp(-design @ fit.beta))
        info = design.T @ (design * (probs * (1 - probs))[:, None])
        se = np.sqrt(np.diag(np.linalg.inv(info)))
        truth = np.concatenate([[cfg.propensity_intercept], coefs])
        assert np.all(np.abs(fit.beta - truth) < 3 * se)


class TestSubjectTable:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            make_table(z=[0, 1], covariates=[[0.0], [1.0]], ids=("a", "a"))

    def test_subset_keeps_alignment(self):
        table = make_table(
            z=[0, 1, 0],
            covariates=[[1.0], [2.0], [3.0]],
            outcomes=[[5.0], [6.0], [7.0]],
            outcome_names=("y",),
            group=("g", "h", "g"),
        )
        sub = table.subset(np.array([True, False, True]))
        assert sub.ids == ("s000", "s002")
        assert sub.group == ("g", "g")
        np.testing.assert_array_equal(sub.outcomes[:, 0], [5.0, 7.0])

    def test_row_of_follows_the_ids_of_a_replaced_table(self):
        table = make_table(z=[0, 1], covariates=[[0.0], [1.0]], ids=("a", "b"))
        assert table.row_of("b") == 1
        swapped = dataclasses.replace(table, ids=("b", "a"))
        assert swapped.row_of("b") == 0
        assert table.row_of("b") == 1
