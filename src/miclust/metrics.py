"""External and internal clustering evaluation: adjusted Rand index and silhouette."""

from __future__ import annotations

import numpy as np

from miclust.errors import labeling, matrix
from miclust.kernels import _for_row_blocks, _matrices, _row_reduce, _sq_dist_rows


def contingency(a, b) -> np.ndarray:
    """Count matrix between two labelings over the same samples."""
    a, b = labeling("a", a), labeling("b", b)
    if a.shape != b.shape:
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
    samples where both Intra and Outer vanish. Non-finite data or
    distances, and sums of distances that overflow float64, raise ValueError.

    The distances of an n x d input are built one row block at a time and
    walked while in cache, so no n x n matrix is held: at most one block of
    about 1 MB per worker. A precomputed D is walked in place.
    """
    labels = labeling("labels", labels)
    n = labels.size
    rule = f"an n x {'n distance' if precomputed else 'd'} matrix, one row per label, n={n}"
    D = matrix("X", X, rule, lambda s: len(s) == 2 and s[0] == n and (s[1] == n or not precomputed))
    uniq, inv = np.unique(labels, return_inverse=True)
    if uniq.size < 2:
        raise ValueError("silhouette requires at least 2 clusters")
    if precomputed:
        distances = D.__getitem__
    else:
        fill = _sq_dist_rows(*_matrices(D, D))  # raises before any O(n^2) work on data whose squared distances overflow

        def distances(rows):
            block = fill(rows, np.empty((rows.stop - rows.start, n)))
            return np.sqrt(block, out=block)

    sizes = np.bincount(inv)
    members_of = [np.flatnonzero(inv == j) for j in range(uniq.size)]
    # mean distance from each sample to each cluster, and to the rest of its own, by row blocks of distances
    mean_to = np.empty((n, uniq.size))
    intra = np.zeros(n)

    def walk(rows):
        block = distances(rows).T
        # numpy's error state belongs to each thread, so each block sets it: a sum that overflows or meets a NaN or
        # inf then raises from the means below, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            for j, idx in enumerate(members_of):
                members = block[idx]  # |C| x rows in C order, whatever D's layout
                # member rows added in member order from -0.0, each sum as cumsum(D[i, idx])[-1] runs it; numpy
                # would sum a one-row block pairwise, so that one takes the cumsum itself
                if members.shape[1] > 1:
                    sums = np.add.reduce(members, axis=0, initial=-0.0)
                else:
                    sums = np.cumsum(members)[-1:]
                mean_to[rows, j] = sums / sizes[j]
                own = np.flatnonzero(inv[rows] == j)
                # summed along contiguous rows, exactly as each D[i, idx].sum() would be; singletons score 0 anyway
                intra[rows.start + own] = np.ascontiguousarray(members[:, own].T).sum(axis=1) / max(sizes[j] - 1, 1)

    _for_row_blocks(n, n, walk)
    # a NaN or inf anywhere in D reaches its row's mean to that entry's cluster, so the O(nK) sums are checked, not D
    if not np.isfinite(mean_to).all():
        raise ValueError("silhouette needs finite distances whose per-cluster sums do not overflow")
    mean_to[np.arange(n), inv] = np.inf
    outer = _row_reduce(np.minimum, mean_to).ravel()
    denom = np.maximum(intra, outer)
    scores = np.divide(outer - intra, denom, out=np.zeros(n), where=(sizes[inv] > 1) & (denom > 0))
    return float(scores.mean()), scores
