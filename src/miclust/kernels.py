"""Kernel functions and Gram matrices for kernel RIM, MMD-GEMINI and spectral affinity."""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from miclust.errors import number

KERNEL_KINDS = ("linear", "rbf")


@dataclass(frozen=True)
class KernelSpec:
    """Choice of kernel; gamma applies to rbf only, but reports echo it for either kind, where it must be finite."""

    kind: str = "rbf"
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        if self.gamma is not None:  # stored as its Python number, so a report serializes it
            rule, ok = "finite, positive for rbf", lambda v: v > 0 or self.kind != "rbf"
            object.__setattr__(self, "gamma", number("gamma", self.gamma, rule, ok))

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


# per row block of every O(n^2) pass: 32 rows at n=4000, where against 256 KB (2 vCPU, 1 BLAS thread, medians of 15
# reps) the epilogues of an rbf gram and a pairwise_sq_dist took 145-169 against 150-153 ms, the silhouette's walk 49
# against 113 ms
_BLOCK_BYTES = 1 << 20
# From this much matrix up, work runs on the pool. Two gemv calls on one BLAS thread, serial against two threads:
# n=500 (1.9 MB) 107 against 193 us, n=700 (3.7 MB) 339 against 248 us, n=1000 647 against 365 us.
_PARALLEL_BYTES = 1 << 22
_POOL = "miclust-kernels"
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _executor():
    """The one thread pool of the O(n^2) layer, made on first use (its import costs each process about 6 ms)."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(_WORKERS, _POOL)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_executor.cache_clear)  # the pool's threads do not survive a fork


def _map(fn, items, nbytes: int) -> list:
    """[fn(item) for item in items] over nbytes of matrix, each call whole on one pool thread, so with the serial bits;
    serially on one core, for under 2 items, below _PARALLEL_BYTES, or on a pool thread (no nested deadlock)."""
    # no caller splits one BLAS call over items (G[rows] @ v differs from G @ v), and fn calls no traced public function
    if _WORKERS < 2 or len(items) < 2 or nbytes < _PARALLEL_BYTES or threading.current_thread().name.startswith(_POOL):
        return [fn(item) for item in items]
    return list(_executor().map(fn, items))


def _for_row_blocks(n: int, m: int, body) -> None:
    """body(rows) per row block of about _BLOCK_BYTES of an n x m float64 matrix, in one run of blocks per worker."""
    step = max(1, _BLOCK_BYTES // (8 * max(m, 1)))
    starts = range(0, n, step)
    runs = [starts[len(starts) * i // _WORKERS:len(starts) * (i + 1) // _WORKERS] for i in range(_WORKERS)]
    _map(lambda run: [body(slice(lo, lo + step)) for lo in run], runs, 8 * n * m)


def _matrices(X, Y) -> tuple:
    """X and Y as matrices in C order whatever the layout given, so the bits depend on the values alone (BLAS sums
    by layout)."""
    X, Y = np.ascontiguousarray(X, dtype=np.float64), np.ascontiguousarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise ValueError(f"need two 2-d sample matrices of equal dimension, got shapes {X.shape} and {Y.shape}")
    return X, Y


def _sq_dist_blocks(X: np.ndarray, Y: np.ndarray, finish=lambda rows, block: None) -> np.ndarray:
    """Clamped squared distances, then finish(rows, block), per row block from that block's own gemm (2X)[rows] Y^T,
    so the bits depend on the row-block partition and never on the worker count."""
    X, Y = _matrices(X, Y)
    X2, out = 2.0 * X, np.empty((len(X), len(Y)))
    xx, yy = _row_reduce(np.add, X * X).ravel(), _row_reduce(np.add, Y * Y).ravel()

    def epilogue(rows):
        block = np.matmul(X2[rows], Y.T, out=out[rows])
        np.subtract(np.add.outer(xx[rows], yy), block, out=block)
        with np.errstate(over="ignore"):  # per thread: an rbf gamma * d^2 past float64 is -inf, and exp(-inf) = 0
            finish(rows, np.maximum(block, 0.0, out=block))

    _for_row_blocks(*out.shape, epilogue)
    return out


def pairwise_sq_dist(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances via the norm expansion, clamped at 0."""
    return _sq_dist_blocks(X, Y)


def gram(X: np.ndarray, Y: np.ndarray, spec: KernelSpec) -> KernelMatrix:
    """Gram matrix of the kernel between two sample sets; its bits depend on their values and spec alone."""
    X, Y = _matrices(X, Y)
    spec = spec.resolve(X)
    if spec.kind == "linear":
        # X @ X.T runs BLAS syrk and X @ Y.T gemm, which differ in the last bit: an equal Y takes X's path
        return KernelMatrix(X @ (X if np.array_equal(X, Y) else Y).T, spec)
    values = _sq_dist_blocks(X, Y, lambda rows, block: np.exp(np.multiply(block, -spec.gamma, out=block), out=block))
    return KernelMatrix(values, spec)


def default_gamma(X: np.ndarray) -> float:
    """Default rbf bandwidth 1 / (d * Var(X)), Var over all matrix entries in C order."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.size == 0:
        raise ValueError(f"data of shape {X.shape} is not a matrix or is empty; cannot derive a default gamma")
    var = X.var()
    if var == 0:
        raise ValueError("data has zero variance; cannot derive a default gamma")
    return float(1.0 / (X.shape[1] * var))
