"""Kernel functions and Gram matrices for kernel RIM, MMD-GEMINI and spectral affinity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KERNEL_KINDS = ("linear", "rbf")


@dataclass(frozen=True)
class KernelSpec:
    """Choice of kernel; gamma applies to rbf only."""

    kind: str = "rbf"
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        # gamma applies to rbf only, but either kind echoes it in reports, where only a finite one is valid JSON
        if self.gamma is not None and not (0 < self.gamma < np.inf if self.kind == "rbf" else np.isfinite(self.gamma)):
            raise ValueError(f"gamma must be finite, and positive for rbf, got {self.gamma}")

    def resolve(self, X: np.ndarray) -> "KernelSpec":
        """Fill in the default gamma from the data when unset."""
        if self.kind == "rbf" and self.gamma is None:
            return KernelSpec("rbf", default_gamma(X))
        return self

    def to_dict(self) -> dict:
        return {"kind": self.kind, "gamma": self.gamma}

    @staticmethod
    def from_dict(d: dict) -> "KernelSpec":
        return KernelSpec(d.get("kind"), d.get("gamma"))


@dataclass
class KernelMatrix:
    """n x m Gram matrix together with the kernel that produced it."""

    values: np.ndarray
    spec: KernelSpec


def _row_reduce(ufunc, A: np.ndarray) -> np.ndarray:
    """ufunc.reduce(A, axis=1, keepdims=True) bit for bit, by one in-place pass per column of a narrow A.

    From 1 to 7 columns numpy reduces each row left to right, a sum from +0.0 (a row of
    -0.0 sums to +0.0); from 8 on its order is pairwise, so its own reduce runs there.
    """
    if not 0 < A.shape[1] < 8:
        return ufunc.reduce(A, axis=1, keepdims=True)
    columns = iter(A.T)
    out = next(columns) + 0.0 if ufunc is np.add else next(columns).copy()
    for column in columns:
        ufunc(out, column, out=out)
    return out[:, None]


_BLOCK_BYTES = 1 << 18  # per row block of the distance epilogue: about 256 KB, so each block's passes run in cache


def _row_blocks(n: int, m: int):
    """Slices over the rows of an n x m float64 matrix, about _BLOCK_BYTES each."""
    step = max(1, _BLOCK_BYTES // (8 * max(m, 1)))
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _sq_dist_blocks(X: np.ndarray, Y: np.ndarray, finish=lambda rows, block: None) -> np.ndarray:
    """Clamped squared distances in the buffer of one gemm (2X) Y^T, then finish(rows, block) per row block."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    out = np.matmul(2.0 * X, Y.T)
    xx, yy = _row_reduce(np.add, X * X).ravel(), _row_reduce(np.add, Y * Y).ravel()
    for rows in _row_blocks(*out.shape):
        block = out[rows]
        np.subtract(np.add.outer(xx[rows], yy), block, out=block)
        finish(rows, np.maximum(block, 0.0, out=block))
    return out


def pairwise_sq_dist(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances via the norm expansion, clamped at 0."""
    return _sq_dist_blocks(X, Y)


def gram(X: np.ndarray, Y: np.ndarray, spec: KernelSpec) -> KernelMatrix:
    """Gram matrix of the kernel between two sample sets."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    spec = spec.resolve(X)
    if spec.kind == "linear":
        # X @ X.T runs BLAS syrk and X @ Y.T gemm, which differ in the last bit: an equal Y takes X's path
        return KernelMatrix(X @ (X if np.array_equal(X, Y) else Y).T, spec)
    values = _sq_dist_blocks(X, Y, lambda rows, block: np.exp(np.multiply(block, -spec.gamma, out=block), out=block))
    return KernelMatrix(values, spec)


def default_gamma(X: np.ndarray) -> float:
    """Default rbf bandwidth 1 / (d * Var(X)), Var over all matrix entries."""
    X = np.asarray(X, dtype=np.float64)
    var = X.var()
    if var == 0:
        raise ValueError("data has zero variance; cannot derive a default gamma")
    return 1.0 / (X.shape[1] * var)
