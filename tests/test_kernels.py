"""Tests for kernel specs, Gram matrices and the default rbf bandwidth."""

import hashlib

import numpy as np
import pytest

from miclust import KernelSpec, default_gamma, gram, make_circles, silhouette, standardize
from miclust.data import make_rng
from miclust.kernels import pairwise_sq_dist


def test_pairwise_sq_dist_hand_case():
    X = np.array([[0.0], [1.0]])
    assert np.array_equal(pairwise_sq_dist(X, X), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_pairwise_sq_dist_never_negative():
    X = make_rng(0).normal(size=(40, 3)) * 1e-8
    assert np.all(pairwise_sq_dist(X, X) >= 0.0)


def test_pairwise_sq_dist_dimension_mismatch():
    with pytest.raises(ValueError):
        pairwise_sq_dist(np.zeros((2, 2)), np.zeros((2, 3)))


def test_linear_gram_identity():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    K = gram(X, X, KernelSpec("linear"))
    assert np.array_equal(K.values, np.eye(2))


def test_rbf_hand_value():
    x = np.array([[0.0, 0.0]])
    y = np.array([[np.sqrt(2.0), 0.0]])
    K = gram(x, y, KernelSpec("rbf", 0.5))
    assert abs(K.values[0, 0] - np.exp(-1.0)) < 1e-12


def test_rbf_gram_symmetric_unit_diagonal():
    X = make_rng(1).normal(size=(15, 2))
    K = gram(X, X, KernelSpec("rbf", 0.7)).values
    assert np.allclose(K, K.T)
    assert np.allclose(np.diag(K), 1.0)
    assert np.all((K > 0) & (K <= 1))


def test_default_gamma_formula():
    X = make_rng(2).normal(size=(30, 4))
    assert abs(default_gamma(X) - 1.0 / (4 * X.var())) < 1e-15


def test_default_gamma_on_standardized_data():
    X = standardize(make_circles(200, 0.05, 0.1, 0)).values
    assert abs(default_gamma(X) - 0.5) < 1e-12


def test_default_gamma_rejects_constant_data():
    with pytest.raises(ValueError):
        default_gamma(np.ones((5, 2)))


@pytest.mark.parametrize("shape", [(0, 2), (3, 0)])
def test_default_gamma_rejects_an_empty_matrix(shape):
    with pytest.raises(ValueError, match=r"empty; cannot derive a default gamma"):
        default_gamma(np.empty(shape))
    with pytest.raises(ValueError, match=r"empty; cannot derive a default gamma"):
        gram(np.empty(shape), np.empty(shape), KernelSpec("rbf"))


def test_resolve_fills_gamma_and_is_idempotent():
    X = make_rng(3).normal(size=(10, 2))
    spec = KernelSpec("rbf").resolve(X)
    assert spec.gamma == default_gamma(X)
    assert spec.resolve(np.zeros((2, 2))) is spec


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("poly")
    with pytest.raises(ValueError):
        KernelSpec("rbf", -1.0)


def test_spec_dict_round_trip():
    spec = KernelSpec("rbf", 0.25)
    assert KernelSpec.from_dict(spec.to_dict()) == spec
    lin = KernelSpec("linear")
    assert KernelSpec.from_dict(lin.to_dict()) == lin


def _sq_dist_three_temporaries(X, Y):
    """The expression `pairwise_sq_dist` computes in place, kept as its oracle."""
    sq = (X * X).sum(axis=1)[:, None] + (Y * Y).sum(axis=1)[None, :] - 2.0 * X @ Y.T
    return np.maximum(sq, 0.0)


def _gram_out_of_place(X, Y, spec):
    """The expression `gram` computes in place, kept as its oracle."""
    spec = spec.resolve(X)
    if spec.kind == "linear":
        return X @ Y.T
    return np.exp(-spec.gamma * _sq_dist_three_temporaries(X, Y))


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a)).hexdigest()


def _pair_cases():
    gen = make_rng(7)
    yield pytest.param(gen.normal(size=(37, 3)), gen.normal(size=(53, 3)), id="n37-m53")
    yield pytest.param(gen.normal(size=(300, 5)), gen.normal(size=(20, 5)), id="n300-m20")
    X = gen.normal(size=(200, 2))
    yield pytest.param(X, X, id="same-array")
    X = standardize(make_circles(4000, 0.05, 0.1, 0)).values
    yield pytest.param(X, X, id="n4000-d2")


@pytest.mark.parametrize("X,Y", list(_pair_cases()))
def test_pairwise_sq_dist_matches_out_of_place_formula_bit_for_bit(X, Y):
    before = (_digest(X), _digest(Y))
    # digests, not both matrices at once, keep the n=4000 case to one n x n result in memory
    assert _digest(pairwise_sq_dist(X, Y)) == _digest(_sq_dist_three_temporaries(X, Y))
    assert (_digest(X), _digest(Y)) == before


@pytest.mark.parametrize(
    "spec", [KernelSpec("rbf"), KernelSpec("rbf", 0.3), KernelSpec("linear")], ids=["rbf", "rbf-0.3", "linear"]
)
@pytest.mark.parametrize("X,Y", list(_pair_cases()))
def test_gram_matches_out_of_place_formula_bit_for_bit(X, Y, spec):
    before = (_digest(X), _digest(Y))
    assert _digest(gram(X, Y, spec).values) == _digest(_gram_out_of_place(X, Y, spec))
    assert (_digest(X), _digest(Y)) == before


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("kind", ["rbf", "linear"])
def test_kernel_spec_rejects_a_non_finite_gamma(kind, gamma):
    with pytest.raises(ValueError, match="gamma must be finite"):
        KernelSpec(kind, gamma)


def test_kernel_spec_gamma_bounds():
    with pytest.raises(ValueError, match="positive for rbf"):
        KernelSpec("rbf", 0.0)
    assert KernelSpec("rbf", 1e300).gamma == 1e300
    assert KernelSpec("linear", 0.0).gamma == 0.0  # ignored by the linear kernel, but finite


def _layouts(X):
    """X as a C-ordered copy, a Fortran-ordered copy and a view strided in both axes."""
    strided = np.zeros((2 * X.shape[0], 2 * X.shape[1]))
    strided[::2, ::2] = X
    return {"C": X.copy(), "F": np.asfortranarray(X), "strided": strided[::2, ::2]}


def _kernel_outputs(X, Y):
    """The bytes of every kernel-layer result on X, with Y as the second sample set of the Grams."""
    specs = [KernelSpec("rbf"), KernelSpec("rbf", 0.3), KernelSpec("linear")]
    labels = (X[:, 0] > 0).astype(np.int64)
    out = [gram(X, Y, spec).values for spec in specs] + [pairwise_sq_dist(X, Y), silhouette(X, labels)[1]]
    return [a.tobytes() for a in out] + [repr(default_gamma(X))]


# a 100x2 array whose variance sums differently in Fortran order, and a d=7 one whose rbf gemm does
@pytest.mark.parametrize("seed,shape", [(100, (100, 2)), (7, (300, 7))], ids=["n100-d2", "n300-d7"])
def test_kernel_layer_depends_on_values_not_layout(seed, shape):
    X = make_rng(seed).normal(size=shape)
    expected = _kernel_outputs(X, X)
    for layout, Y in _layouts(X).items():
        assert _kernel_outputs(Y, Y) == expected, layout
        # an equal copy in another layout against the C array: the case of a kernel head's X_ref in `fit`
        assert _kernel_outputs(Y, X) == expected, layout
        assert _kernel_outputs(X, Y) == expected, layout
