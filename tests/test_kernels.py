"""Tests for kernel specs, Gram matrices and the default rbf bandwidth."""

import hashlib
import re
import warnings

import numpy as np
import pytest

from miclust import (
    DataMatrix,
    KernelSpec,
    TrainConfig,
    default_gamma,
    fit,
    gram,
    init_model,
    kernel_kmeans_score,
    kmeans,
    make_circles,
    silhouette,
    spectral,
    standardize,
)
from miclust.data import load_csv, make_rng, save_csv
from miclust import kernels
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
    message = "^X must be a non-empty n x d matrix to derive a default gamma from, got ndarray of shape "
    message += re.escape(str(shape))
    with pytest.raises(ValueError, match=message):
        default_gamma(np.empty(shape))
    with pytest.raises(ValueError, match=message):
        gram(np.empty(shape), np.empty(shape), KernelSpec("rbf"))


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
def test_default_gamma_rejects_an_input_that_is_not_a_matrix(shape):
    message = "^X must be a non-empty n x d matrix to derive a default gamma from, got ndarray of shape "
    message += re.escape(str(shape))
    with pytest.raises(ValueError, match=message):
        default_gamma(np.ones(shape))


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


@pytest.mark.parametrize("gamma,type_name", [("1", "str"), ([1.0], "list"), (1j, "complex")])
@pytest.mark.parametrize("kind", ["rbf", "linear"])
def test_kernel_spec_names_a_gamma_that_is_not_a_real_number(kind, gamma, type_name):
    with pytest.raises(ValueError, match=f"gamma must be finite, positive for rbf, got {type_name} "):
        KernelSpec(kind, gamma)


@pytest.mark.parametrize("gamma", [10**400, -10**400], ids=["1e400", "-1e400"])
@pytest.mark.parametrize("kind", ["rbf", "linear"])
def test_kernel_spec_rejects_an_integer_gamma_beyond_float64(kind, gamma):
    # such an int compares below inf, and gram then failed with OverflowError converting it
    with pytest.raises(ValueError, match="^gamma must be finite, positive for rbf, got int "):
        KernelSpec(kind, gamma)
    assert KernelSpec(kind, 10**300).gamma == 10**300  # a large int that float64 holds stays valid


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


@pytest.mark.parametrize(
    "shapes", [((3,), (3,)), ((3,), (3, 1)), ((3, 1), (3,)), ((2, 2, 1), (2, 2)), ((3, 2), (3, 1))], ids=str
)
def test_an_input_that_is_not_a_matrix_is_rejected_by_its_shape(shapes):
    X, Y = np.zeros(shapes[0]), np.zeros(shapes[1])
    # Y is read first; X must then be a matrix of Y's width
    name, shape = ("Y", Y.shape) if Y.ndim != 2 else ("X", X.shape)
    for build in (pairwise_sq_dist, lambda X, Y: gram(X, Y, KernelSpec("rbf", 1.0)),
                  lambda X, Y: gram(X, Y, KernelSpec("linear"))):
        with pytest.raises(ValueError, match=f"^{name} must be .*, got ndarray of shape {re.escape(str(shape))}"):
            build(X, Y)


# finite, but 8 * its largest squared row norm is not: every term of the norm expansion could overflow
HUGE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1e200, 1.0]])
# 40 rows alternating +-3e153: 8 max||x||^2 = 1.4e308 bounds one pair, but a sum over many of them overflows
ALTERNATING = np.array([[3e153, 3e153], [-3e153, -3e153]] * 20)
SMALL = make_circles(4, 0.05, 0.3, 0).values
OVERFLOWING = {
    "gram-rbf": lambda X: gram(X, X, KernelSpec("rbf")),
    "gram-rbf-gamma": lambda X: gram(X, X, KernelSpec("rbf", 1.0)),
    "gram-linear": lambda X: gram(X, X, KernelSpec("linear")),
    "gram-Y": lambda X: gram(SMALL, X, KernelSpec("linear")),
    "pairwise_sq_dist": lambda X: pairwise_sq_dist(X, X),
    "default_gamma": default_gamma,
    "kmeans": lambda X: kmeans(X, 2),
    "spectral": lambda X: spectral(X, 2),
    "silhouette": lambda X: silhouette(X, np.arange(len(X)) % 2),
    "kernel_kmeans_score-linear": lambda X: kernel_kmeans_score(np.arange(len(X)) % 2,
                                                                gram(X, X, KernelSpec("linear"))),
    "init_model-kernel": lambda X: init_model("kernel", {"k": 2}, rng=0, X_ref=X),
    "fit-kernel-X_ref": lambda X: fit(init_model("kernel", {"k": 2}, rng=0, X_ref=X, spec=KernelSpec("rbf", 1.0)),
                                      X, TrainConfig(epochs=2, objective="rim")),
    "fit-kernel-X": lambda X: fit(init_model("kernel", {"k": 2}, rng=0, X_ref=SMALL), X, TrainConfig(epochs=2)),
}


@pytest.mark.parametrize("X", [HUGE, ALTERNATING], ids=["1e200-n4", "3e153-n40"])
@pytest.mark.parametrize("name", OVERFLOWING)
def test_data_whose_squared_distances_overflow_fails_alike_everywhere(name, X):
    # each warned of overflow first (in the gemm, the row norms, the variance or a sum), except the silhouette
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^[XY] needs finite data whose squared distances fit in float64$"):
            OVERFLOWING[name](X)


def circles_at_bound(fraction):
    """40 circles points scaled so that 8 n^2 max||x||^2 is `fraction` of float64's largest value."""
    X = make_circles(40, 0.05, 0.3, 0).values
    return X * np.sqrt(fraction / (8 * 40**2 * np.square(X).sum(axis=1).max())) * np.sqrt(np.finfo(np.float64).max)


@pytest.mark.parametrize("fraction", [0.99, 1.01])
def test_load_csv_and_a_build_accept_and_refuse_the_same_data(tmp_path, fraction):
    X = circles_at_bound(fraction)
    save_csv(DataMatrix(X), tmp_path / "edge.csv")
    outcomes = []
    for read in (lambda: load_csv(tmp_path / "edge.csv"), lambda: pairwise_sq_dist(X, X)):
        try:
            read()
            outcomes.append("accepted")
        except ValueError as exc:
            outcomes.append(str(exc).split(" needs ")[1])
    assert outcomes == 2 * ["accepted" if fraction < 1 else "finite data whose squared distances fit in float64"]


def test_every_sum_over_data_inside_the_bound_returns_without_a_warning():
    X = circles_at_bound(0.99)
    labels = np.arange(40) % 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, inertia = kmeans(X, 2)
        mean, _ = silhouette(X, labels)
        score = kernel_kmeans_score(labels, gram(X, X, KernelSpec("linear")))
    assert np.isfinite([inertia, mean, score]).all()


def test_each_build_bounds_and_reduces_each_input_once(monkeypatch):
    # one bound and one norm reduction per input and build; an array passed as both X and Y counts once
    checked, bound = [], kernels._sq_norms
    monkeypatch.setattr(kernels, "_sq_norms", lambda name, A, pairs: checked.append(name) or bound(name, A, pairs))
    X, Y = SMALL, make_circles(3, 0.05, 0.3, 1).values
    builds = {
        "gram-rbf": (lambda: gram(X, X, KernelSpec("rbf")), ["X"]),
        "gram-linear": (lambda: gram(X, Y, KernelSpec("linear")), ["X", "Y"]),
        "pairwise_sq_dist": (lambda: pairwise_sq_dist(X, X), ["X"]),
        "silhouette": (lambda: silhouette(X, [0, 0, 1, 1]), ["X"]),
    }
    for name, (build, expected) in builds.items():
        checked.clear()
        build()
        assert checked == expected, name
