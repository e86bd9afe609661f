"""Tests for K-means, the kernel K-means score and spectral clustering."""

import warnings

import numpy as np
import pytest

import miclust.baselines
from miclust import KernelSpec, ari, gram, kernel_kmeans_score, kmeans, spectral
from miclust.baselines import _kmeans_pp_init, _lloyd
from miclust.data import make_circles, make_gaussian_blobs, make_rng, standardize
from miclust.kernels import pairwise_sq_dist


def test_kmeans_separated_blobs_exact():
    dm = make_gaussian_blobs(np.array([[0.0, 0.0], [100.0, 0.0]]), 0.5, 30, 0)
    labels, centers, inertia = kmeans(dm.values, 2, rng=0)
    assert ari(dm.labels, labels) == 1.0
    assert inertia >= 0.0
    got = centers[np.argsort(centers[:, 0])]
    assert np.allclose(got, [[0.0, 0.0], [100.0, 0.0]], atol=0.5)


def test_lloyd_inertia_is_monotone():
    X = make_rng(0).normal(size=(60, 2))
    centers = _kmeans_pp_init(X, 4, make_rng(1))
    _, _, _, history = _lloyd(X, centers.copy(), 100, 0.0)
    assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))


def test_kmeans_no_empty_clusters():
    X = make_rng(2).normal(size=(20, 2))
    labels, _, _ = kmeans(X, 6, n_init=3, rng=0)
    assert set(labels.tolist()) == set(range(6))


def test_kmeans_restarts_take_the_best_inertia():
    X = standardize(make_circles(60, 0.05, 0.3, 0)).values
    _, _, single = kmeans(X, 3, n_init=1, rng=0)
    _, _, many = kmeans(X, 3, n_init=20, rng=0)
    assert many <= single + 1e-12


def test_kmeans_validation():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans(X, 4)
    with pytest.raises(ValueError):
        kmeans(X, 0)
    with pytest.raises(ValueError):
        kmeans(X, 2, n_init=0)


def test_kernel_score_matches_inertia_linear_kernel():
    # with a linear kernel: sum_i ||x_i - c_{k(i)}||^2 = trace(G) + score
    gen = make_rng(3)
    for _ in range(100):
        n = int(gen.integers(4, 25))
        X = gen.normal(size=(n, 2))
        labels = gen.integers(0, 3, size=n)
        labels[:3] = [0, 1, 2]  # keep every cluster populated
        G = gram(X, X, KernelSpec("linear")).values
        score = kernel_kmeans_score(labels, G)
        inertia = 0.0
        for k in range(3):
            C = X[labels == k]
            inertia += ((C - C.mean(axis=0)) ** 2).sum()
        assert abs(inertia - (np.trace(G) + score)) < 1e-9


def test_kernel_score_rejects_empty_cluster():
    with pytest.raises(ValueError):
        kernel_kmeans_score(np.array([0, 0, 2]), np.eye(3))


@pytest.mark.parametrize("labels", [[-1, 0, 0, 1, 1, 0], [-1, -1, -1, -1, -1, -1]])
def test_kernel_score_rejects_negative_labels(labels):
    with pytest.raises(ValueError, match="labels must be >= 0"):
        kernel_kmeans_score(np.array(labels), np.eye(6))


@pytest.mark.parametrize("G", [np.empty((0, 0)), np.eye(3)])
def test_kernel_score_rejects_empty_labels(G):
    with pytest.raises(ValueError, match="at least one labeled sample"):
        kernel_kmeans_score([], G)


def test_kernel_score_rejects_wrong_shape():
    with pytest.raises(ValueError):
        kernel_kmeans_score(np.array([0, 1]), np.eye(3))


def test_spectral_separates_circles():
    dm = standardize(make_circles(200, 0.05, 0.1, 0))
    labels = spectral(dm.values, 2, rng=0)
    assert ari(dm.labels, labels) == 1.0


def test_spectral_respects_custom_affinity():
    dm = make_gaussian_blobs(np.array([[0.0, 0.0], [10.0, 0.0]]), 0.3, 20, 1)
    labels = spectral(dm.values, 2, affinity=KernelSpec("rbf", 0.5), rng=0)
    assert ari(dm.labels, labels) == 1.0


def test_spectral_validation():
    with pytest.raises(ValueError):
        spectral(np.zeros((3, 2)), 4)


def test_kmeans_rejects_max_iter_below_one():
    X = make_rng(0).normal(size=(10, 2))
    with pytest.raises(ValueError, match=r"^max_iter must be an integer from 1 to 2\*\*63 - 1, got int 0"):
        kmeans(X, 2, max_iter=0)
    labels, _, inertia = kmeans(X, 2, n_init=1, max_iter=1)
    assert labels.shape == (10,) and inertia >= 0.0


def _lloyd_two_distances(X, centers, max_iter, tol):
    """`_lloyd` as it was, computing each step's distances to the same centers twice; kept as its oracle."""
    K = centers.shape[0]
    labels = np.zeros(X.shape[0], dtype=np.int64)
    history = []
    for _ in range(max_iter):
        d2 = pairwise_sq_dist(X, centers)
        labels = np.argmin(d2, axis=1)
        for k in range(K):
            mask = labels == k
            if not mask.any():
                far = int(np.argmax(d2[np.arange(X.shape[0]), labels]))
                centers[k] = X[far]
                labels[far] = k
                mask = labels == k
            centers[k] = X[mask].mean(axis=0)
        new_inertia = float(pairwise_sq_dist(X, centers)[np.arange(X.shape[0]), labels].sum())
        if history and history[-1] - new_inertia <= tol:
            history.append(new_inertia)
            break
        history.append(new_inertia)
    return labels, centers, history[-1], history


def _lloyd_cases():
    for seed in range(6):
        gen = make_rng(seed)
        X = gen.normal(size=(int(gen.integers(12, 90)), int(gen.integers(1, 5))))
        for K in range(1, 6):
            yield pytest.param(X, _kmeans_pp_init(X, K, make_rng(seed + 100)), id=f"seed{seed}-k{K}-pp")
            # every center on X[0]: all points go to cluster 0, so clusters 1..K-1 are re-seeded
            yield pytest.param(X, np.repeat(X[:1], K, axis=0), id=f"seed{seed}-k{K}-empty")


@pytest.mark.parametrize("tol", [0.0, 1e-6, 0.5])
@pytest.mark.parametrize("X,centers", list(_lloyd_cases()))
def test_lloyd_matches_the_two_distance_loop_bit_for_bit(X, centers, tol):
    labels, got_centers, inertia, history = _lloyd(X, centers.copy(), 300, tol)
    labels0, centers0, inertia0, history0 = _lloyd_two_distances(X, centers.copy(), 300, tol)
    assert labels.tobytes() == labels0.tobytes()
    assert got_centers.tobytes() == centers0.tobytes()
    assert np.float64(inertia).tobytes() == np.float64(inertia0).tobytes()
    assert np.array(history).tobytes() == np.array(history0).tobytes()


@pytest.mark.parametrize("K", [1, 3, 5])
def test_lloyd_computes_one_distance_matrix_per_step(monkeypatch, K):
    calls = [0]

    def counted(X, Y):
        calls[0] += 1
        return pairwise_sq_dist(X, Y)

    X = make_rng(K).normal(size=(80, 2))
    monkeypatch.setattr(miclust.baselines, "pairwise_sq_dist", counted)
    for centers in (_kmeans_pp_init(X, K, make_rng(1)), np.repeat(X[:1], K, axis=0)):
        calls[0] = 0
        _, _, _, history = _lloyd(X, centers, 300, 0.0)
        assert calls[0] == len(history) + 1  # the first assignment's matrix, then one per step


@pytest.mark.parametrize("labels", [[0.7, 1.2], [0.0, np.nan], [[0, 1]]], ids=["fractions", "nan", "2d"])
def test_kernel_kmeans_score_rejects_labels_a_cast_would_change(labels):
    with pytest.raises(ValueError, match="labels must be 1-d integers"):
        kernel_kmeans_score(labels, np.eye(2))


def test_kernel_kmeans_score_takes_integral_float_labels():
    G = gram(make_rng(4).normal(size=(4, 2)), make_rng(4).normal(size=(4, 2)), KernelSpec("linear"))
    assert kernel_kmeans_score([0.0, 1.0, 1.0, 0.0], G) == kernel_kmeans_score([0, 1, 1, 0], G)


def _gram_with(value, *entries):
    """The 4 x 4 identity with `value` at each of `entries`."""
    G = np.eye(4)
    G[tuple(zip(*entries))] = value
    return G


# a caller's Gram with inf scored -inf, with NaN scored NaN, and inf against -inf, or block sums past float64, warned
@pytest.mark.parametrize(
    "G",
    [_gram_with(np.inf, (0, 1)), _gram_with(np.nan, (0, 1)), _gram_with(np.inf, (0, 1)) - _gram_with(np.inf, (1, 0)),
     np.full((4, 4), 1e308)],
    ids=["inf", "nan", "inf-and-minus-inf", "sums-past-float64"],
)
def test_kernel_kmeans_score_refuses_a_gram_whose_cluster_sums_are_not_finite(G):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^kernel K-means score needs a finite Gram matrix"):
            kernel_kmeans_score([0, 0, 1, 1], G)
