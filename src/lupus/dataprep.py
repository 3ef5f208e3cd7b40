"""Ingestion and preparation of the heart-disease table.

The expected file is comma-separated with 14 columns (13 features plus the
0-4 graded target), an optional header line that names them as
``COLUMN_NAMES`` does, and "?" marking missing values.
Cleaning parses every cell once, drops rows carrying "?" (or mode-imputes
them behind a flag) and binarizes the target to presence/absence.
"""

import csv
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import metrics
from .errors import ConfigError, DataError

COLUMN_NAMES = (
    "age", "sex", "cp", "trestbps", "chol", "fbs", "restecg",
    "thalach", "exang", "oldpeak", "slope", "ca", "thal", "target",
)
FEATURE_NAMES = COLUMN_NAMES[:-1]
MISSING = "?"


@dataclass(frozen=True)
class Dataset:
    """Fully numeric feature matrix with binary labels."""

    X: np.ndarray
    y: np.ndarray
    feature_names: Tuple[str, ...] = FEATURE_NAMES

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class StandardizationStats:
    mean: np.ndarray
    std: np.ndarray


def load_table(path) -> list:
    """Parse the CSV file into rows of text fields; missing markers are kept
    verbatim. Line 1 is skipped as a header only when its fields are
    ``COLUMN_NAMES``; any other line 1 is a data row."""
    rows = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if lineno == 1 and tuple(f.strip() for f in row) == COLUMN_NAMES:
                continue
            if len(row) != len(COLUMN_NAMES):
                raise DataError(
                    f"{path}: line {lineno}: expected {len(COLUMN_NAMES)} "
                    f"fields, got {len(row)}"
                )
            rows.append([field.strip() for field in row])
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows


def _parse_value(field: str, row_index: int, col: str) -> float:
    """A cell as a float, NaN for the missing marker."""
    if field == MISSING:
        return math.nan
    try:
        value = float(field)
    except ValueError:
        value = math.nan
    # float() also reads "nan", "inf" and "1e999", which no measurement is.
    if not math.isfinite(value):
        raise DataError(
            f"row {row_index}: column {col!r}: cannot parse {field!r} as a finite number"
        )
    return value


def clean(rows: list, impute: bool = False) -> Dataset:
    """Parse every cell, resolve missing values, binarize the target.

    Rows containing "?" are dropped unless ``impute`` is set, in which case
    each missing cell takes its column's most frequent value (smallest value
    on ties), counted by value. Target values above 0 become 1.
    """
    # Errors name a row by its place among the rows read, dropped ones included.
    table = np.array([[_parse_value(field, i, col) for field, col in zip(row, COLUMN_NAMES)]
                      for i, row in enumerate(rows, start=1)]).reshape(-1, len(COLUMN_NAMES))
    missing = np.isnan(table)
    if impute:
        # An empty table counts as entirely missing in every column.
        for j in np.flatnonzero(missing.any(axis=0) | missing.all(axis=0)):
            present = table[~missing[:, j], j]
            if not present.size:
                raise DataError(f"column {COLUMN_NAMES[j]!r} is entirely missing")
            values, counts = np.unique(present, return_counts=True)
            table[missing[:, j], j] = values[np.argmax(counts)]
    else:
        table = table[~missing.any(axis=1)]
        if not len(table):
            raise DataError("no rows left after dropping missing values")
    return Dataset(X=np.ascontiguousarray(table[:, :-1]), y=(table[:, -1] > 0).astype(int))


def fit_standardizer(X: np.ndarray, feature_names: Sequence[str]) -> StandardizationStats:
    """Column means and population standard deviations of the training rows."""
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        raise DataError("cannot standardize an empty matrix")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    flat = np.nonzero(std == 0)[0]
    if flat.size:
        name = feature_names[int(flat[0])]
        raise ConfigError(f"column {name} has zero variance; cannot standardize")
    return StandardizationStats(mean=mean, std=std)


def apply_standardizer(stats: StandardizationStats, X: np.ndarray) -> np.ndarray:
    return (np.asarray(X, dtype=float) - stats.mean) / stats.std


def stratified_split(ds: Dataset, train_fraction: float, seed: int):
    """Split per class with a seeded shuffle, preserving class proportions.

    Each class contributes round(train_fraction * class_size) rows to the
    training part; rows keep their per-class shuffled order. A fraction that
    leaves a class out of either part is a :class:`ConfigError`.
    """
    metrics.check_unit_interval(train_fraction, "train_fraction", ConfigError)
    classes = np.unique(ds.y)
    rng = np.random.default_rng(seed)
    train_idx = []
    test_idx = []
    for cls in classes:
        members = np.nonzero(ds.y == cls)[0]
        if members.size < 2:
            raise ConfigError(
                f"class {cls} has only {members.size} member(s); cannot split"
            )
        perm = rng.permutation(members)
        k = int(round(train_fraction * members.size))
        if k in (0, members.size):
            raise ConfigError(
                f"train_fraction {train_fraction} leaves class {cls} ({members.size} "
                f"rows) with no {'training' if k == 0 else 'held-out'} row"
            )
        train_idx.append(perm[:k])
        test_idx.append(perm[k:])
    train_idx = np.concatenate(train_idx)
    test_idx = np.concatenate(test_idx)
    make = lambda idx: Dataset(X=ds.X[idx], y=ds.y[idx], feature_names=ds.feature_names)
    return make(train_idx), make(test_idx)


def pearson_corr_matrix(ds: Dataset):
    """Pairwise correlation of the feature columns and the target, last.

    Returns ``(matrix, names)``; the matrix is exactly symmetric with a unit
    diagonal and entries in [-1, 1].
    """
    columns = np.column_stack([ds.X, ds.y.astype(float)])
    names = (*ds.feature_names, COLUMN_NAMES[-1])
    centered = columns - columns.mean(axis=0)
    norms = np.sqrt(np.square(centered).sum(axis=0))
    flat = np.nonzero(norms == 0)[0]
    if flat.size:
        raise ConfigError(
            f"column {names[int(flat[0])]} has zero variance; correlation undefined"
        )
    normalized = centered / norms
    matrix = normalized.T @ normalized
    matrix = np.clip(matrix, -1.0, 1.0)
    np.fill_diagonal(matrix, 1.0)
    return matrix, names
