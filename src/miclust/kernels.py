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
        if self.kind == "rbf" and self.gamma is not None and self.gamma <= 0:
            raise ValueError(f"rbf gamma must be positive, got {self.gamma}")

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


def pairwise_sq_dist(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances via the norm expansion, clamped at 0."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    sq = (X * X).sum(axis=1)[:, None] + (Y * Y).sum(axis=1)[None, :] - 2.0 * X @ Y.T
    return np.maximum(sq, 0.0)


def gram(X: np.ndarray, Y: np.ndarray, spec: KernelSpec) -> KernelMatrix:
    """Gram matrix of the kernel between two sample sets."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    spec = spec.resolve(X)
    if spec.kind == "linear":
        values = X @ Y.T
    else:
        values = np.exp(-spec.gamma * pairwise_sq_dist(X, Y))
    return KernelMatrix(values, spec)


def default_gamma(X: np.ndarray) -> float:
    """Default rbf bandwidth 1 / (d * Var(X)), Var over all matrix entries."""
    X = np.asarray(X, dtype=np.float64)
    var = X.var()
    if var == 0:
        raise ValueError("data has zero variance; cannot derive a default gamma")
    return 1.0 / (X.shape[1] * var)
