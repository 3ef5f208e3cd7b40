import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lupus import dataprep
from lupus.dataprep import (
    Dataset,
    apply_standardizer,
    clean,
    fit_standardizer,
    load_table,
    pearson_corr_matrix,
    stratified_split,
)
from lupus.errors import ConfigError, DataError


def _row(values):
    return [str(v) for v in values]


def _table(rows):
    return [_row(r) for r in rows]


def _synthetic_rows(n=12, missing=()):
    rng = np.random.default_rng(0)
    rows = []
    for i in range(n):
        features = [round(float(v), 1) for v in rng.uniform(0, 10, 13)]
        target = i % 5
        row = _row(features + [target])
        if i in missing:
            row[11] = "?"
        rows.append(row)
    return rows


class TestLoadTable:
    def test_bundled_file_row_count(self, heart_csv):
        assert len(load_table(heart_csv)) == 303

    def test_header_detected_and_skipped(self, tmp_path):
        path = tmp_path / "with_header.csv"
        path.write_text(
            ",".join(dataprep.COLUMN_NAMES) + "\n"
            + ",".join(["1.0"] * 13) + ",0\n"
        )
        assert load_table(path) == [["1.0"] * 13 + ["0"]]

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(["1.0"] * 14) + "\n" + ",".join(["1.0"] * 13) + "\n")
        with pytest.raises(DataError, match="line 2"):
            load_table(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_table(path)


class TestClean:
    def test_bundled_file_drops_missing_rows(self, heart_csv):
        ds = clean(load_table(heart_csv))
        assert ds.n == 297
        assert np.array_equal(np.bincount(ds.y), [160, 137])

    def test_target_binarization(self):
        ds = clean(_table(_synthetic_rows(10)))
        raw_targets = [i % 5 for i in range(10)]
        assert list(ds.y) == [1 if t > 0 else 0 for t in raw_targets]

    def test_no_missing_is_noop(self):
        rows = _synthetic_rows(8)
        assert clean(_table(rows)).n == 8

    def test_drop_rows_with_missing(self):
        ds = clean(_table(_synthetic_rows(10, missing=(2, 5))))
        assert ds.n == 8

    def test_impute_keeps_rows_and_uses_mode(self):
        rows = [_row([1.0] * 13 + [0]) for _ in range(3)]
        rows += [_row([2.0] * 13 + [1]) for _ in range(2)]
        rows[4][0] = "?"
        ds = clean(rows, impute=True)
        assert ds.n == 5
        assert ds.X[4, 0] == 1.0  # column mode

    def test_impute_mode_counts_values_not_texts(self):
        # 1 four times ("1" twice, "1.0" twice) against "2.0" three times.
        column = ["1", "1", "1.0", "1.0", "2.0", "2.0", "2.0", "?"]
        rows = [_row([v] + [3.0] * 12 + [k % 2]) for k, v in enumerate(column)]
        ds = clean(rows, impute=True)
        assert ds.X[-1, 0] == 1.0

    def test_impute_tie_takes_smallest(self):
        rows = [_row([1.0] * 13 + [0]), _row([2.0] * 13 + [0]), _row([3.0] * 13 + [1])]
        rows[2][5] = "?"
        ds = clean(rows, impute=True)
        assert ds.X[2, 5] == 1.0

    # Row 2 also holding "?" puts "abc" in a row that drop mode removes.
    @pytest.mark.parametrize("missing", [(), (1,)], ids=["complete", "dropped"])
    @pytest.mark.parametrize("impute", [False, True], ids=["drop", "impute"])
    def test_non_numeric_field_errors(self, impute, missing):
        rows = _synthetic_rows(3, missing=missing)
        rows[1][4] = "abc"
        with pytest.raises(DataError, match="row 2: column 'chol': cannot parse 'abc'"):
            clean(_table(rows), impute=impute)

    # float() reads all of these; none is a measurement.
    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-Infinity", "1e999"])
    @pytest.mark.parametrize("impute", [False, True], ids=["drop", "impute"])
    def test_non_finite_field_errors(self, value, impute):
        rows = _synthetic_rows(3)
        rows[1][4] = value
        with pytest.raises(DataError, match=f"row 2: column 'chol': cannot parse '{value}'"):
            clean(_table(rows), impute=impute)

    def test_error_counts_dropped_rows(self):
        rows = _synthetic_rows(4, missing=(0,))
        rows[2][4] = "nan"
        with pytest.raises(DataError, match="row 3: column 'chol'"):
            clean(_table(rows))

    def test_never_invents_values(self, heart_csv):
        raw = load_table(heart_csv)
        ds = clean(raw)
        kept = [row for row in raw if dataprep.MISSING not in row]
        for i in (0, 100, 296):
            assert ds.X[i].tolist() == [float(v) for v in kept[i][:13]]

    def test_bundled_impute_keeps_all_rows(self, heart_csv):
        ds = clean(load_table(heart_csv), impute=True)
        assert ds.n == 303
        assert np.array_equal(np.bincount(ds.y), [164, 139])

    @pytest.mark.parametrize("impute", [False, True])
    def test_records_cleaning_mode(self, heart_csv, impute):
        assert clean(load_table(heart_csv), impute=impute).impute is impute


class TestStandardizer:
    def test_hand_values(self):
        stats = fit_standardizer(np.array([[1.0], [2.0], [3.0]]), ("u",))
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.std[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-9)
        z = apply_standardizer(stats, np.array([[1.0], [2.0], [3.0]]))
        assert z[:, 0] == pytest.approx([-1.224745, 0.0, 1.224745], abs=1e-6)

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0)])
    def test_empty_matrix_rejected(self, shape):
        with pytest.raises(DataError, match="cannot standardize an empty matrix"):
            fit_standardizer(np.empty(shape), ("u", "v"))

    def test_refit_of_standardized_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(3.0, 2.5, size=(40, 4))
        names = ("a", "b", "c", "d")
        z = apply_standardizer(fit_standardizer(x, names), x)
        z2 = apply_standardizer(fit_standardizer(z, names), z)
        assert np.allclose(z, z2, atol=1e-10)

    def test_train_stats_yield_unit_moments(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-5, 20, size=(60, 5))
        z = apply_standardizer(fit_standardizer(x, ("a", "b", "c", "d", "e")), x)
        assert np.all(np.abs(z.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-10)

    def test_constant_column_named(self):
        x = np.column_stack([np.ones(5), np.arange(5.0)])
        with pytest.raises(DataError, match="age"):
            fit_standardizer(x, ("age", "sex"))


class TestStratifiedSplit:
    def test_bundled_counts(self, heart_csv):
        ds = clean(load_table(heart_csv))
        train, test = stratified_split(ds, 0.70, seed=1)
        assert (train.n, test.n) == (208, 89)
        # per-class rounding: 160 -> 112, 137 -> 96
        assert int((train.y == 0).sum()) == 112
        assert int((train.y == 1).sum()) == 96

    def test_per_class_proportion_within_one_sample(self, heart_csv):
        ds = clean(load_table(heart_csv))
        train, _ = stratified_split(ds, 0.70, seed=9)
        for cls in (0, 1):
            total = int((ds.y == cls).sum())
            got = int((train.y == cls).sum())
            assert abs(got - 0.70 * total) <= 1.0

    def test_disjoint_union(self):
        ds = clean(_table(_synthetic_rows(20)))
        train, test = stratified_split(ds, 0.6, seed=5)
        assert train.n + test.n == ds.n
        combined = np.vstack([train.X, test.X])
        original = ds.X[np.lexsort(ds.X.T)]
        assert np.array_equal(combined[np.lexsort(combined.T)], original)

    def test_deterministic_and_seed_sensitive(self):
        ds = clean(_table(_synthetic_rows(30)))
        a1, _ = stratified_split(ds, 0.7, seed=3)
        a2, _ = stratified_split(ds, 0.7, seed=3)
        b, _ = stratified_split(ds, 0.7, seed=4)
        assert np.array_equal(a1.X, a2.X)
        assert not np.array_equal(a1.X, b.X)

    @pytest.mark.parametrize("impute", [False, True])
    def test_parts_keep_every_other_field(self, impute):
        ds = Dataset(X=np.arange(20.0).reshape(10, 2), y=np.arange(10) % 2,
                     feature_names=("a", "b"), impute=impute)
        for part in stratified_split(ds, 0.6, seed=0):
            assert (part.feature_names, part.impute) == (("a", "b"), impute)

    def test_tiny_class_rejected(self):
        ds = Dataset(X=np.arange(8.0).reshape(4, 2), y=np.array([0, 0, 0, 1]),
                     feature_names=("a", "b"))
        with pytest.raises(DataError):
            stratified_split(ds, 0.5, seed=0)

    # 10 rows split into classes of 2 and 8: 0.9 and 0.1 leave the small
    # class out of one part, 0.99 leaves the held-out part empty.
    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 0.9, 0.1, 0.99])
    def test_fraction_validated(self, fraction):
        ds = clean(_table(_synthetic_rows(10)))
        with pytest.raises(ConfigError, match="train_fraction"):
            stratified_split(ds, fraction, seed=0)


class TestPearson:
    def _two_column_ds(self, x, y):
        # The target, the matrix's last column, needs both classes to vary.
        return Dataset(X=np.column_stack([x, y]).astype(float),
                       y=np.arange(len(x)) % 2, feature_names=("u", "v"))

    def test_exact_linear(self):
        m, names = pearson_corr_matrix(self._two_column_ds([1, 2, 3], [2, 4, 6]))
        assert names == ("u", "v", "target")
        assert m[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_exact_negative(self):
        m, _ = pearson_corr_matrix(self._two_column_ds([1, 2, 3], [6, 4, 2]))
        assert m[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value(self):
        m, _ = pearson_corr_matrix(self._two_column_ds([1, 2, 3], [1, 2, 2]))
        assert m[0, 1] == pytest.approx(0.866025, abs=1e-6)
        assert m[1, 2] == pytest.approx(0.5, abs=1e-12)

    def test_matrix_properties_on_bundled(self, heart_csv):
        ds = clean(load_table(heart_csv))
        m, names = pearson_corr_matrix(ds)
        assert m.shape == (14, 14)
        assert names[-1] == "target"
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 1.0)
        assert np.all((m >= -1.0) & (m <= 1.0))

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 13))
        y = rng.integers(0, 2, 50)
        m, _ = pearson_corr_matrix(Dataset(X=x, y=y))
        assert np.allclose(m[:-1, :-1], np.corrcoef(x, rowvar=False), atol=1e-10)
        assert np.allclose(m, np.corrcoef(np.column_stack([x, y]), rowvar=False),
                           atol=1e-10)

    def test_zero_variance_named(self):
        ds = Dataset(X=np.column_stack([np.ones(6), np.arange(6.0)]),
                     y=np.arange(6) % 2, feature_names=("flat", "ramp"))
        with pytest.raises(DataError, match="flat"):
            pearson_corr_matrix(ds)
