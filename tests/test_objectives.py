"""Tests for the clustering objectives and their responsibility gradients."""

import numpy as np
import pytest

from miclust import KernelSpec, fairness_firmness, gram, mi, mmd_gemini_ova, proportions, rim
from miclust.data import make_rng


def random_responsibilities(gen, n, K):
    return gen.dirichlet(np.ones(K), size=n)


def fd_grad_resp(func, P, h=1e-6):
    """Central finite differences of a scalar objective w.r.t. P."""
    numeric = np.zeros_like(P)
    for i in range(P.shape[0]):
        for j in range(P.shape[1]):
            up, down = P.copy(), P.copy()
            up[i, j] += h
            down[i, j] -= h
            numeric[i, j] = (func(up) - func(down)) / (2 * h)
    return numeric


def test_proportions_trivial_cases():
    assert np.array_equal(proportions(np.full((4, 2), 0.5)), np.array([0.5, 0.5]))
    P = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    assert np.allclose(proportions(P), [1 / 3, 2 / 3])


def test_mi_constant_rows_is_zero():
    P = np.tile(np.array([0.3, 0.7]), (10, 1))
    assert abs(mi(P).value) < 1e-12


def test_mi_balanced_one_hot_is_log2():
    P = np.array([[1.0, 0.0], [0.0, 1.0]] * 5)
    assert abs(mi(P).value - np.log(2.0)) < 1e-9


def test_mi_frozen_value():
    P = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
    assert abs(mi(P).value - 0.2804044820951273) < 1e-12


def test_mi_bounds_on_random_responsibilities():
    gen = make_rng(0)
    for _ in range(200):
        n = int(gen.integers(2, 30))
        K = int(gen.integers(2, 6))
        v = mi(random_responsibilities(gen, n, K)).value
        assert -1e-12 <= v <= min(np.log(K), np.log(n)) + 1e-12


def test_mi_gradient_matches_finite_differences():
    P = random_responsibilities(make_rng(1), 6, 3)
    numeric = fd_grad_resp(lambda Q: mi(Q).value, P)
    assert np.allclose(mi(P).grad_resp, numeric, atol=1e-8)


def test_fairness_firmness_identity():
    gen = make_rng(2)
    for _ in range(100):
        P = random_responsibilities(gen, int(gen.integers(2, 20)), int(gen.integers(2, 5)))
        h_y, h_y_given_x = fairness_firmness(P)
        assert abs((h_y - h_y_given_x) - mi(P).value) < 1e-9


def test_fairness_firmness_uniform_rows():
    P = np.full((6, 4), 0.25)
    h_y, h_y_given_x = fairness_firmness(P)
    assert abs(h_y - np.log(4.0)) < 1e-12
    assert abs(h_y - h_y_given_x) < 1e-12


def test_fairness_firmness_balanced_one_hot():
    P = np.array([[1.0, 0.0], [0.0, 1.0]] * 4)
    h_y, h_y_given_x = fairness_firmness(P)
    assert abs(h_y - np.log(2.0)) < 1e-12
    assert abs(h_y_given_x) < 1e-12


def test_rim_lambda_zero_equals_mi():
    P = random_responsibilities(make_rng(3), 8, 2)
    W = make_rng(4).normal(size=(2, 2))
    out = rim(P, {"W": W}, 0.0)
    assert out.value == mi(P).value
    assert np.allclose(out.grad_params["W"], 0.0)


def test_rim_penalty_and_parameter_gradient():
    P = random_responsibilities(make_rng(5), 8, 2)
    W = make_rng(6).normal(size=(3, 2))
    lam = 0.7
    out = rim(P, {"W": W}, lam)
    assert abs(out.value - (mi(P).value - lam * np.sum(W**2))) < 1e-12
    assert np.allclose(out.grad_params["W"], -2.0 * lam * W)
    with pytest.raises(ValueError):
        rim(P, {"W": W}, -0.1)


def test_mmd_hand_case_one_dimensional_split():
    X = np.array([[-1.0], [1.0]])
    G = gram(X, X, KernelSpec("linear")).values
    P = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert abs(mmd_gemini_ova(P, G).value - 1.0) < 1e-12


def test_mmd_collapsed_cluster_contributes_nothing():
    X = make_rng(7).normal(size=(6, 2))
    G = gram(X, X, KernelSpec("rbf", 0.5)).values
    P = np.zeros((6, 2))
    P[:, 0] = 1.0
    out = mmd_gemini_ova(P, G)
    # cluster 0 equals the data distribution and cluster 1 is empty
    assert abs(out.value) < 1e-9


def test_mmd_gradient_matches_finite_differences():
    gen = make_rng(8)
    X = gen.normal(size=(7, 2))
    G = gram(X, X, KernelSpec("rbf", 0.5)).values
    P = random_responsibilities(gen, 7, 3)
    out = mmd_gemini_ova(P, G)
    numeric = fd_grad_resp(lambda Q: mmd_gemini_ova(Q, G).value, P)
    assert np.allclose(out.grad_resp, numeric, atol=1e-7)


def test_mmd_shape_validation():
    with pytest.raises(ValueError):
        mmd_gemini_ova(np.full((4, 2), 0.5), np.eye(3))


def test_zero_upstream_gradient_maps_to_zero():
    from miclust import LinearModel

    model = LinearModel(make_rng(9).normal(size=(2, 2)), np.zeros(2))
    X = make_rng(10).normal(size=(5, 2))
    grads = model.backward(X, np.zeros((5, 2)))
    assert all(np.allclose(g, 0.0) for g in grads.values())


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
def test_rim_rejects_a_negative_or_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
        rim(np.full((3, 2), 0.5), {"W": np.ones((2, 2))}, lam)


@pytest.mark.parametrize(
    "objective",
    [mi, proportions, fairness_firmness, lambda P: rim(P, {}, 0.1), lambda P: mmd_gemini_ova(P, np.empty((0, 0)))],
    ids=["mi", "proportions", "fairness_firmness", "rim", "mmd_gemini_ova"],
)
def test_an_empty_responsibility_matrix_is_rejected(objective):
    with pytest.raises(ValueError, match=r"^P must be an n x K matrix .*, got ndarray of shape \(0, 2\)"):
        objective(np.empty((0, 2)))


@pytest.mark.parametrize(
    "objective",
    [mi, proportions, fairness_firmness, lambda P: rim(P, {}, 0.1), lambda P: mmd_gemini_ova(P, np.eye(3))],
    ids=["mi", "proportions", "fairness_firmness", "rim", "mmd_gemini_ova"],
)
def test_a_responsibility_matrix_with_no_clusters_is_rejected(objective):
    # mi(np.empty((3, 0))) returned 0.0 with an empty gradient
    with pytest.raises(ValueError, match=r"^P must be an n x K matrix with K >= 1 .*, got ndarray of shape \(3, 0\)"):
        objective(np.empty((3, 0)))
