"""Tests for the adjusted Rand index and silhouette score."""

import numpy as np
import pytest

from miclust import ari, silhouette
from miclust.data import make_rng
from miclust.kernels import pairwise_sq_dist
from miclust.metrics import contingency


def test_contingency_counts():
    table = contingency([0, 0, 1, 1], [0, 1, 1, 1])
    assert np.array_equal(table, np.array([[1, 1], [0, 2]]))


def test_ari_identity_is_one():
    labels = make_rng(0).integers(0, 4, size=50)
    labels[:4] = [0, 1, 2, 3]
    assert ari(labels, labels) == 1.0


def test_ari_relabeling_invariance():
    gen = make_rng(1)
    a = gen.integers(0, 3, size=40)
    b = gen.integers(0, 3, size=40)
    perm = {0: 2, 1: 0, 2: 1}
    b_renamed = np.array([perm[v] for v in b])
    assert abs(ari(a, b) - ari(a, b_renamed)) < 1e-15


def test_ari_hand_case_is_minus_half():
    assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == -0.5


def test_ari_degenerate_single_clusters():
    assert ari([0, 0, 0], [1, 1, 1]) == 1.0


def test_ari_random_labelings_average_near_zero():
    gen = make_rng(2)
    values = [ari(gen.integers(0, 3, size=100), gen.integers(0, 3, size=100)) for _ in range(100)]
    assert abs(np.mean(values)) < 0.02


def test_ari_validation():
    with pytest.raises(ValueError):
        ari([0], [0])
    with pytest.raises(ValueError):
        ari([0, 1], [0, 1, 2])


def test_silhouette_hand_case():
    X = np.array([[0.0], [0.1], [10.0], [10.1]])
    mean, scores = silhouette(X, [0, 0, 1, 1])
    assert abs(mean - 0.9899997499937521) < 1e-12
    assert abs(scores[0] - 9.95 / 10.05) < 1e-12
    assert abs(scores[1] - 9.85 / 9.95) < 1e-12


def test_silhouette_bounds():
    gen = make_rng(3)
    for _ in range(20):
        X = gen.normal(size=(30, 2))
        labels = gen.integers(0, 3, size=30)
        labels[:3] = [0, 1, 2]
        mean, scores = silhouette(X, labels)
        assert np.all(scores >= -1.0) and np.all(scores <= 1.0)
        assert -1.0 <= mean <= 1.0


def test_silhouette_precomputed_matches_euclidean():
    gen = make_rng(4)
    X = gen.normal(size=(25, 3))
    labels = gen.integers(0, 2, size=25)
    labels[:2] = [0, 1]
    D = np.sqrt(pairwise_sq_dist(X, X))
    direct = silhouette(X, labels)
    via_matrix = silhouette(D, labels, precomputed=True)
    assert abs(direct[0] - via_matrix[0]) < 1e-12
    assert np.allclose(direct[1], via_matrix[1])


def test_silhouette_singleton_scores_zero():
    X = np.array([[0.0], [0.1], [5.0]])
    mean, scores = silhouette(X, [0, 0, 1])
    assert scores[2] == 0.0


def test_silhouette_coincident_points_score_zero():
    X = np.zeros((4, 2))
    mean, scores = silhouette(X, [0, 0, 1, 1])
    assert mean == 0.0


def test_silhouette_validation():
    with pytest.raises(ValueError):
        silhouette(np.zeros((3, 2)), [0, 0, 0])
    with pytest.raises(ValueError):
        silhouette(np.zeros((3, 2)), [0, 1], precomputed=True)


@pytest.mark.parametrize("rows, n_labels", [(10, 8), (8, 10)])
@pytest.mark.parametrize("precomputed", [False, True])
def test_silhouette_rejects_a_row_count_unequal_to_the_labels(monkeypatch, rows, n_labels, precomputed):
    monkeypatch.setattr("miclust.metrics.pairwise_sq_dist", lambda *a: pytest.fail("distances built before the check"))
    X = np.zeros((rows, rows if precomputed else 2))
    with pytest.raises(ValueError, match=f"X has {rows} rows but there are {n_labels} labels"):
        silhouette(X, np.arange(n_labels) % 2, precomputed=precomputed)


def _silhouette_per_sample(D, labels):
    """The per-sample loop `silhouette` is vectorised from, kept as its oracle."""
    labels = np.asarray(labels, dtype=np.int64)
    uniq = np.unique(labels)
    n = labels.size
    masks = {k: labels == k for k in uniq}
    sizes = {k: int(m.sum()) for k, m in masks.items()}
    scores = np.zeros(n)
    mean_to = np.column_stack([D[:, masks[k]].sum(axis=1) / sizes[k] for k in uniq])
    col = {k: j for j, k in enumerate(uniq)}
    for i in range(n):
        k = labels[i]
        if sizes[k] == 1:
            continue
        intra = D[i, masks[k]].sum() / (sizes[k] - 1)
        outer = min(mean_to[i, col[kk]] for kk in uniq if kk != k)
        denom = max(intra, outer)
        if denom > 0:
            scores[i] = (outer - intra) / denom
    return float(scores.mean()), scores


def _silhouette_cases():
    gen = make_rng(5)
    for n_clusters in (3, 4, 5):
        X = gen.normal(size=(600, 3))  # clusters past numpy's 128-element pairwise-sum block
        labels = gen.integers(0, n_clusters, size=600)
        labels[:n_clusters] = np.arange(n_clusters)
        yield pytest.param(X, labels, id=f"k{n_clusters}")
    X = gen.normal(size=(40, 2))
    labels = gen.integers(0, 3, size=40)
    labels[:3] = [0, 1, 2]
    yield pytest.param(X, np.array([7, 42, 1000])[labels], id="ids-7-42-1000")
    X = gen.normal(size=(30, 2))
    labels = gen.integers(0, 2, size=30)
    labels[:4] = [0, 1, 2, 3]  # clusters 2 and 3 are singletons
    yield pytest.param(X, labels, id="singletons")
    X = np.repeat(gen.normal(size=(6, 2)), 5, axis=0)  # every point appears five times
    yield pytest.param(X, np.repeat([0, 1, 2], 10), id="coincident")
    yield pytest.param(np.zeros((12, 2)), np.repeat([3, 9, 5, 1], 3), id="all-coincident")


@pytest.mark.parametrize("X,labels", list(_silhouette_cases()))
def test_silhouette_matches_per_sample_oracle_bit_for_bit(X, labels):
    mean, scores = silhouette(X, labels)
    D = np.sqrt(pairwise_sq_dist(X, X))
    oracle_mean, oracle_scores = _silhouette_per_sample(D, labels)
    assert np.array_equal(scores, oracle_scores)
    assert repr(mean) == repr(oracle_mean)
    via_matrix = silhouette(D, labels, precomputed=True)
    assert np.array_equal(via_matrix[1], oracle_scores)
