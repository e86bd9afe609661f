"""Synthetic dataset generation, standardization and CSV round-trip.

All generators are deterministic: the random stream is a PCG64 generator
seeded explicitly, so the same seed produces a bit-identical dataset on
every platform.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from miclust.errors import integer, number
from miclust.metrics import _int_labels


def make_rng(seed) -> np.random.Generator:
    """Return a PCG64 generator; ints are seeds, generators pass through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed))


@dataclass
class DataMatrix:
    """n x d matrix of observations with optional ground-truth labels.

    Labels are for evaluation only; no fitting path reads them.
    """

    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise ValueError(f"values must be a non-empty 2-d matrix, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values contain non-finite entries")
        if self.labels is not None:
            self.labels = _int_labels(self.labels)
            if self.labels.shape != (self.values.shape[0],):
                raise ValueError(
                    f"labels length {self.labels.shape} does not match n={self.values.shape[0]}"
                )

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def make_circles(n: int, noise: float, factor: float, rng=0) -> DataMatrix:
    """Two concentric rings with Gaussian jitter.

    ceil(n/2) points on the unit circle (label 0) and floor(n/2) points on
    the circle of radius `factor` (label 1), angles equally spaced, then
    i.i.d. N(0, noise^2) added per coordinate.
    """
    n = integer("n", n, 2)
    noise = number("noise", noise, "finite and >= 0", lambda v: v >= 0)
    factor = number("factor", factor, "in (0, 1)", lambda v: 0 < v < 1)
    gen = make_rng(rng)
    n_out = (n + 1) // 2
    n_in = n // 2
    t_out = np.linspace(0.0, 2 * math.pi, n_out, endpoint=False)
    t_in = np.linspace(0.0, 2 * math.pi, n_in, endpoint=False)
    outer = np.column_stack([np.cos(t_out), np.sin(t_out)])
    inner = factor * np.column_stack([np.cos(t_in), np.sin(t_in)])
    X = np.vstack([outer, inner])
    X = X + gen.normal(0.0, 1.0, size=X.shape) * noise
    labels = np.concatenate([np.zeros(n_out, dtype=np.int64), np.ones(n_in, dtype=np.int64)])
    return DataMatrix(X, labels)


def make_gaussian_blobs(means, stds, counts, rng=0) -> DataMatrix:
    """Isotropic Gaussian components; labels are the component index."""
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 2 or means.shape[0] < 1:
        raise ValueError(f"means must be a K x d matrix, got shape {means.shape}")
    K = means.shape[0]
    stds = np.broadcast_to(np.asarray(stds, dtype=np.float64), (K,))
    counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), (K,))
    if np.any(stds <= 0):
        raise ValueError("all stds must be positive")
    if np.any(counts < 1):
        raise ValueError("all counts must be >= 1")
    gen = make_rng(rng)
    parts, labels = [], []
    for k in range(K):
        parts.append(means[k] + stds[k] * gen.normal(0.0, 1.0, size=(counts[k], means.shape[1])))
        labels.append(np.full(counts[k], k, dtype=np.int64))
    return DataMatrix(np.vstack(parts), np.concatenate(labels))


def standardize(X: DataMatrix) -> DataMatrix:
    """Center each column and scale to unit population std (divide by n)."""
    mean = X.values.mean(axis=0)
    std = X.values.std(axis=0)
    bad = np.nonzero(std == 0)[0]
    if bad.size:
        raise ValueError(f"column {bad[0]} has zero variance; cannot standardize")
    return DataMatrix((X.values - mean) / std, X.labels)


def write_csv(path, header: list, rows) -> None:
    """Write a header line, then one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(X: DataMatrix, path) -> None:
    """Write a DataMatrix as `f0,...,f{d-1}[,label]` with round-trippable floats."""
    header = [f"f{j}" for j in range(X.d)]
    rows = ([repr(float(v)) for v in row] for row in X.values)
    if X.labels is not None:
        header.append("label")
        rows = (row + [str(int(label))] for row, label in zip(rows, X.labels))
    write_csv(path, header, rows)


def load_csv(path) -> DataMatrix:
    """Read a DataMatrix written by :func:`save_csv`.

    Raises ValueError for an empty or header-only file and for a row whose
    field count differs from the header's.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValueError(f"{path}: empty file, expected a header row")
        has_label = header[-1] == "label"
        d = len(header) - (1 if has_label else 0)
        values, labels = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(row)} fields, expected {len(header)}"
                )
            values.append([float(v) for v in row[:d]])
            if has_label:
                labels.append(int(row[d]))
    if not values:
        raise ValueError(f"{path}: no data rows after the header")
    return DataMatrix(np.asarray(values), np.asarray(labels) if has_label else None)
