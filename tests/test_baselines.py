"""Tests for K-means, the kernel K-means score and spectral clustering."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import miclust.baselines
from miclust import KernelSpec, ari, gram, kernel_kmeans_score, kmeans, spectral
from miclust.baselines import MAX_RUNS, _block_sum, _kmeans_pp_init, _lloyd, runs
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
    with pytest.raises(ValueError, match=r"^max_iter must be an integer from 1 to 1000000, got int 0"):
        kmeans(X, 2, max_iter=0)
    labels, _, inertia = kmeans(X, 2, n_init=1, max_iter=1)
    assert labels.shape == (10,) and inertia >= 0.0


# kmeans(X, 2, n_init=2**62) on 12 points ran without end: restarts and Lloyd steps stop at one cap
@pytest.mark.parametrize("value", [MAX_RUNS + 1, 2**62, 2**63], ids=["cap+1", "2**62", "2**63"])
@pytest.mark.parametrize("name", ["n_init", "max_iter"])
def test_kmeans_refuses_run_counts_past_the_cap_before_any_work(name, value, monkeypatch):
    monkeypatch.setattr(miclust.baselines, "_kmeans_pp_init", lambda *a: pytest.fail("a restart ran"))
    with pytest.raises(ValueError, match=rf"^{name} must be an integer from 1 to 1000000, got int {value}$"):
        kmeans(make_rng(0).normal(size=(12, 2)), 2, **{name: value})


def test_the_run_cap_itself_is_accepted():
    assert MAX_RUNS == 10**6 and runs("n_init", MAX_RUNS) == MAX_RUNS
    labels, _, _ = kmeans(make_rng(0).normal(size=(12, 2)), 2, n_init=1, max_iter=MAX_RUNS)
    assert labels.shape == (12,)


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


def _gather_score(labels, G):
    """The score as it was: each cluster's |C| x |C| block gathered whole and summed by numpy; kept as its oracle."""
    score = 0.0
    for k in range(labels.max() + 1):
        mask = labels == k
        score -= float(G[np.ix_(mask, mask)].sum()) / int(mask.sum())
    return score


def _same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()  # == and the sign of zero


def _assert_gather_bits(labels, G):
    for k in range(labels.max() + 1):
        mask = labels == k
        idx = np.flatnonzero(mask)
        assert _same_float(_block_sum(G, idx, 0, idx.size**2), float(G[np.ix_(mask, mask)].sum()))
    assert _same_float(kernel_kmeans_score(labels, G), _gather_score(labels, G))


def _sized(*sizes):
    """Labels of clusters of the given sizes, shuffled, so each cluster's members are spread over the Gram's rows."""
    return make_rng(sum(sizes)).permutation(np.repeat(np.arange(len(sizes)), sizes))


def _signed_linear(X):
    """A linear Gram with negative entries and -0.0 entries, some rows of them whole."""
    G = gram(X, X, KernelSpec("linear")).values
    G[make_rng(7).uniform(size=G.shape) < 0.2] = -0.0
    G[::5] = -0.0
    return G


def _strided(G):
    """G's values in a view that strides both axes."""
    n = len(G)
    big = np.full((2 * n, 3 * n), np.nan)
    big[::2, ::3] = G
    return big[::2, ::3]


# the largest m whose m^2 doubles fit one 1 MB leaf is 362 (131044 <= 131072), so 363 splits in two; 375^2 is no
# multiple of 8; from 725 (4.2 MB) the splits go through the pool's rule; clusters of 1 are singletons
LABELINGS = {
    "362-363-375": _sized(362, 363, 375),
    "725-and-singletons": _sized(725, *[1] * 375),
    "1000-100": _sized(1000, 100),
    "singletons": np.arange(1100),
}
GRAMS = {
    "rbf": lambda X: gram(X, X, KernelSpec("rbf")).values,
    "linear-signed": _signed_linear,
    "rbf-f-order": lambda X: np.asfortranarray(gram(X, X, KernelSpec("rbf")).values),
    "linear-signed-strided": lambda X: _strided(_signed_linear(X)),
    "negative-zeros": lambda X: np.full((len(X), len(X)), -0.0),  # each zero block sum keeps the sign numpy gives it
}


@pytest.fixture(scope="module")
def grams():
    X = make_rng(9).normal(size=(1100, 3))
    return {name: build(X) for name, build in GRAMS.items()}


@pytest.mark.parametrize("labels", LABELINGS.values(), ids=LABELINGS)
@pytest.mark.parametrize("kind", GRAMS)
def test_kernel_score_keeps_the_bits_of_the_gathered_blocks(grams, kind, labels):
    _assert_gather_bits(labels, grams[kind])


# a leaf of 1024 bytes holds numpy's largest unsplit run of 128 doubles, so every tree numpy's pairwise sum builds
# from there down is cut into many leaves here
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 90), k=st.integers(1, 4), block=st.sampled_from([1024, 2048, 8192]),
       zeros=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_kernel_score_keeps_the_gather_bits_on_small_leaves(n, k, block, zeros, seed):
    gen = make_rng(seed)
    G = gen.normal(size=(n, n)) * 10.0 ** gen.integers(-3, 4, size=(n, n))
    G[gen.uniform(size=G.shape) < zeros] = -0.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(miclust.baselines, "_BLOCK_BYTES", block)
        _assert_gather_bits(gen.permutation(np.arange(n) % k), G)
