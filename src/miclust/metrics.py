"""External and internal clustering evaluation: adjusted Rand index and silhouette."""

from __future__ import annotations

import numpy as np

from miclust.kernels import _row_blocks, _sq_dist_blocks


def contingency(a, b) -> np.ndarray:
    """Count matrix between two labelings over the same samples."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("labelings must be 1-d and of equal length")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def _comb2(x):
    return x * (x - 1) // 2


def ari(a, b) -> float:
    """Adjusted Rand index between two labelings.

    Chance-corrected pair-count agreement; 1.0 for identical partitions up
    to relabeling. When both partitions are a single cluster the denominator
    degenerates and the score is defined as 1.0.
    """
    table = contingency(a, b)
    n = int(table.sum())
    if n < 2:
        raise ValueError("ARI requires at least 2 samples")
    sum_cells = int(_comb2(table).sum())
    sum_rows = int(_comb2(table.sum(axis=1)).sum())
    sum_cols = int(_comb2(table.sum(axis=0)).sum())
    total = int(_comb2(n))
    # integer numerator/denominator keep hand-checkable cases exact
    numer = 2 * (total * sum_cells - sum_rows * sum_cols)
    denom = total * (sum_rows + sum_cols) - 2 * sum_rows * sum_cols
    if denom == 0:
        return 1.0
    return numer / denom


def silhouette(X, labels, precomputed: bool = False):
    """Mean and per-sample silhouette scores.

    X is either an n x d data matrix (Euclidean distance) or, with
    precomputed=True, an n x n distance matrix, so kernel-induced distances
    can be scored directly. Samples in singleton clusters score 0, as do
    samples where both Intra and Outer vanish.
    """
    labels = np.asarray(labels, dtype=np.int64)
    D = np.asarray(X, dtype=np.float64)
    n = labels.size
    if precomputed and D.shape != (n, n):
        raise ValueError("precomputed distance matrix must be n x n")
    uniq, inv = np.unique(labels, return_inverse=True)
    if uniq.size < 2:
        raise ValueError("silhouette requires at least 2 clusters")
    sizes = np.bincount(inv)
    members_of = [np.flatnonzero(inv == j) for j in range(uniq.size)]
    # mean distance from each sample to each cluster, and to the rest of its own, by row blocks of D
    mean_to = np.empty((n, uniq.size))
    intra = np.zeros(n)

    def block_means(rows, block):
        for j, idx in enumerate(members_of):
            members = block[:, idx]
            # a running sum in member order, the order in which the column-major D[:, idx].sum(axis=1) adds
            mean_to[rows, j] = np.cumsum(members, axis=1)[:, -1] / sizes[j]
            own = np.flatnonzero(inv[rows] == j)
            # summed along contiguous rows, exactly as each D[i, idx].sum() would be; singletons score 0 anyway
            intra[rows.start + own] = np.ascontiguousarray(members[own]).sum(axis=1) / max(sizes[j] - 1, 1)

    if precomputed:
        for rows in _row_blocks(n, n):
            block_means(rows, D[rows])
    else:
        _sq_dist_blocks(D, D, lambda rows, block: block_means(rows, np.sqrt(block, out=block)))
    mean_to[np.arange(n), inv] = np.inf
    outer = mean_to.min(axis=1)
    denom = np.maximum(intra, outer)
    scores = np.divide(outer - intra, denom, out=np.zeros(n), where=(sizes[inv] > 1) & (denom > 0))
    return float(scores.mean()), scores
