"""Classical clustering baselines: Lloyd's K-means, the kernel K-means
partition score, and spectral clustering (Ng-Jordan-Weiss recipe)."""

from __future__ import annotations

import numpy as np

from miclust.data import make_rng
from miclust.errors import NumericError, integer
from miclust.kernels import KernelMatrix, KernelSpec, _row_reduce, gram, pairwise_sq_dist
from miclust.metrics import _int_labels


def _kmeans_pp_init(X: np.ndarray, K: int, gen: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: new centers drawn proportionally to squared distance."""
    n = X.shape[0]
    centers = np.empty((K, X.shape[1]))
    centers[0] = X[gen.integers(n)]
    closest = pairwise_sq_dist(X, centers[:1]).ravel()
    for k in range(1, K):
        total = closest.sum()
        if total == 0:
            centers[k] = X[gen.integers(n)]
        else:
            centers[k] = X[gen.choice(n, p=closest / total)]
        closest = np.minimum(closest, pairwise_sq_dist(X, centers[k : k + 1]).ravel())
    return centers


def _lloyd(X: np.ndarray, centers: np.ndarray, max_iter: int, tol: float):
    rows = np.arange(X.shape[0])
    history = []
    # one distance matrix per step: to the updated centers, it gives the step's inertia and the next assignment
    d2 = pairwise_sq_dist(X, centers)
    for _ in range(max_iter):
        labels = np.argmin(d2, axis=1)
        for k in range(centers.shape[0]):
            mask = labels == k
            if not mask.any():
                # re-seed an empty cluster at the farthest point
                far = int(np.argmax(d2[rows, labels]))
                centers[k] = X[far]
                labels[far] = k
                mask = labels == k
            centers[k] = X[mask].mean(axis=0)
        d2 = pairwise_sq_dist(X, centers)
        history.append(float(d2[rows, labels].sum()))
        if len(history) > 1 and history[-2] - history[-1] <= tol:
            break
    return labels, centers, history[-1], history


def kmeans(X, K: int, n_init: int = 10, max_iter: int = 300, tol: float = 1e-6, rng=0):
    """Best-of-n_init Lloyd iterations with k-means++ seeding.

    Returns (labels, centroids, inertia); ties between restarts resolve to
    the earliest restart.
    """
    X = np.asarray(X, dtype=np.float64)
    K, n_init, max_iter = integer("K", K, 1), integer("n_init", n_init, 1), integer("max_iter", max_iter, 1)
    if K > X.shape[0]:
        raise ValueError(f"K={K} exceeds the number of samples n={X.shape[0]}")
    gen = make_rng(rng)
    best = None
    for _ in range(n_init):
        centers = _kmeans_pp_init(X, K, gen)
        labels, centers, inertia, _ = _lloyd(X, centers.copy(), max_iter, tol)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    return best


def kernel_kmeans_score(labels, K: KernelMatrix) -> float:
    """Partition form of the kernel K-means objective.

    Returns -sum_k (sum_{i,j in C_k} G_ij) / |C_k|; lower is better when
    minimized as written in centroid form.
    """
    labels = _int_labels(labels)
    G = K.values if isinstance(K, KernelMatrix) else np.asarray(K, dtype=np.float64)
    if labels.size == 0:
        raise ValueError("kernel K-means score needs at least one labeled sample")
    if G.shape[0] != labels.shape[0] or G.shape[0] != G.shape[1]:
        raise ValueError("Gram matrix must be n x n on the labeled samples")
    if (labels < 0).any():
        raise ValueError(f"labels must be >= 0, got {labels.min()}")
    score = 0.0
    # serial on purpose: two np.ix_ copies at once raised the n=4000 circles benchmark's peak RSS 317 -> 351 MB
    for k in range(labels.max() + 1):
        mask = labels == k
        size = int(mask.sum())
        if size == 0:
            raise ValueError(f"cluster {k} is empty")
        score -= float(G[np.ix_(mask, mask)].sum()) / size
    return score


def spectral(X, K: int, affinity: KernelSpec | None = None, rng=0) -> np.ndarray:
    """Normalized spectral clustering.

    Affinity Gram with zeroed diagonal, symmetric normalized Laplacian,
    K eigenvectors of smallest eigenvalues, row normalization, then K-means
    on the embedding.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if K > n:
        raise ValueError(f"K={K} exceeds the number of samples n={n}")
    # the default affinity bandwidth is fixed rather than variance-scaled:
    # the graph must be sparse enough that the ring structure separates
    A = gram(X, X, affinity or KernelSpec("rbf", gamma=1.0)).values
    np.fill_diagonal(A, 0.0)
    deg = A.sum(axis=1)
    if np.any(deg <= 0):
        raise ValueError("affinity graph has an isolated vertex (zero degree)")
    inv_sqrt = 1.0 / np.sqrt(deg)
    # L = I - D^-1/2 A D^-1/2, built in the affinity buffer; 0.0 - x keeps underflowed zeros +0.0
    A *= inv_sqrt[:, None]
    A *= inv_sqrt[None, :]
    L = np.subtract(0.0, A, out=A)
    np.fill_diagonal(L, 1.0 + L.diagonal())  # 1 - a_ii, exactly
    try:
        eigvals, eigvecs = np.linalg.eigh(L)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Laplacian eigendecomposition failed: {exc}") from exc
    emb = eigvecs[:, :K]
    norms = np.sqrt(_row_reduce(np.add, emb * emb))  # np.linalg.norm(emb, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    emb = emb / norms
    labels, _, _ = kmeans(emb, K, n_init=10, rng=rng)
    return labels
