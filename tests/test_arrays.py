"""Tests for the one rule every array and every labeling a caller passes follows."""

import warnings

import numpy as np
import pytest

from miclust import (
    DataMatrix,
    GaussianNoise,
    KernelModel,
    KernelSpec,
    LinearModel,
    MlpModel,
    NonparametricModel,
    Rotation2D,
    TrainConfig,
    ari,
    augment,
    check_gradients,
    default_gamma,
    extract_clusters,
    fairness_firmness,
    fit,
    gram,
    info_nce_loss,
    init_critic,
    init_model,
    kernel_kmeans_score,
    kmeans,
    load_model,
    make_circles,
    make_gaussian_blobs,
    mi,
    mmd_gemini_ova,
    predict,
    proportions,
    rim,
    silhouette,
    spectral,
    train_contrastive,
)
from miclust.kernels import pairwise_sq_dist
from miclust.models import dataset_fingerprint
from miclust.metrics import contingency

N, D = 12, 2
X = make_circles(N, 0.05, 0.3, 0).values
P = np.full((N, 2), 0.5)
LABELS = np.arange(N) % 2
LINEAR, MLP = init_model("linear", {"d": D, "k": 2}), init_model("mlp", {"d": D, "k": 2, "hidden": 3})
KERNEL = init_model("kernel", {"k": 2}, X_ref=X, spec=KernelSpec("rbf", 1.0))
NONPARAMETRIC = init_model("nonparametric", {"k": 2}, X=X)
SPEC = KernelSpec("rbf", 1.0)
ONE_EPOCH = TrainConfig(epochs=1)

# entry point and input -> (the name its error gives the input, the shape of a valid input, whether that shape's last
# axis is fixed by the call, a call that passes the input)
ARRAYS = {
    "fit.X": ("X", (N, D), True, lambda v: fit(init_model("linear", {"d": D, "k": 2}), v, ONE_EPOCH)),
    "predict.X": ("X", (N, D), True, lambda v: predict(LINEAR, v)),
    "check_gradients.X": ("X", (N, D), True, lambda v: check_gradients(LINEAR, "mi", v)),
    "LinearModel.forward.X": ("X", (N, D), True, lambda v: LINEAR.forward(v)),
    "MlpModel.logits.X": ("X", (N, D), True, lambda v: MLP.logits(v)),
    "KernelModel.forward.X": ("X", (N, D), True, lambda v: KERNEL.forward(v)),
    "ClusterModel.backward.dP": ("dP", (N, 2), False, lambda v: MLP.backward(X, v)),
    "ClusterModel.backward_from_logits.dZ": ("dZ", (N, 2), True, lambda v: KERNEL.backward_from_logits(X, v)),
    "NonparametricModel.forward.X": ("X", (N, D), False, lambda v: NONPARAMETRIC.forward(v)),
    "train_contrastive.X": ("X", (N, D), True, lambda v: train_contrastive(init_critic(D), v, Rotation2D(), ONE_EPOCH)),
    "extract_clusters.X": ("X", (N, D), True, lambda v: extract_clusters(MLP, v)),
    "augment-noise.X": ("X", (N, D), False, lambda v: augment(v, GaussianNoise(0.1), 0)),
    "augment-rotation.X": ("X", (N, D), True, lambda v: augment(v, Rotation2D(), 0)),
    "info_nce_loss.Z": ("Z", (N, 2), False, lambda v: info_nce_loss(v, P)),
    "info_nce_loss.Z_aug": ("Z_aug", (N, 2), True, lambda v: info_nce_loss(P, v)),
    "gram.X": ("X", (N, D), True, lambda v: gram(v, X, SPEC)),
    "gram.Y": ("Y", (N, D), False, lambda v: gram(X, v, SPEC)),
    "pairwise_sq_dist.X": ("X", (N, D), True, lambda v: pairwise_sq_dist(v, X)),
    "default_gamma.X": ("X", (N, D), False, default_gamma),
    "mi.P": ("P", (N, 2), False, mi),
    "proportions.P": ("P", (N, 2), False, proportions),
    "fairness_firmness.P": ("P", (N, 2), False, fairness_firmness),
    "rim.P": ("P", (N, 2), False, lambda v: rim(v, {}, 0.1)),
    "rim.weights-W": ("W", (D, 2), False, lambda v: rim(P, {"W": v}, 0.1)),
    "rim.weights-W2": ("W2", (3, 2), False, lambda v: rim(P, {"W1": np.ones((D, 3)), "W2": v}, 0.1)),
    "mmd_gemini_ova.P": ("P", (N, 2), False, lambda v: mmd_gemini_ova(v, np.eye(N))),
    "mmd_gemini_ova.K": ("K", (N, N), True, lambda v: mmd_gemini_ova(P, v)),
    "kmeans.X": ("X", (N, D), False, lambda v: kmeans(v, 2)),
    "spectral.X": ("X", (N, D), False, lambda v: spectral(v, 2)),
    "kernel_kmeans_score.K": ("K", (N, N), True, lambda v: kernel_kmeans_score(LABELS, v)),
    "silhouette.X": ("X", (N, D), False, lambda v: silhouette(v, LABELS)),
    "silhouette-precomputed.X": ("X", (N, N), True, lambda v: silhouette(v, LABELS, precomputed=True)),
    "DataMatrix.values": ("values", (N, D), False, DataMatrix),
    "make_gaussian_blobs.means": ("means", (2, D), False, lambda v: make_gaussian_blobs(v, 1.0, 5)),
    "LinearModel.W": ("W", (D, 2), False, lambda v: LinearModel(v, np.zeros(2))),
    "LinearModel.b": ("b", (2,), True, lambda v: LinearModel(np.zeros((D, 2)), v)),
    "KernelModel.X_ref": ("X_ref", (N, D), False, lambda v: KernelModel(np.zeros((N, 2)), np.zeros(2), v, SPEC)),
    "MlpModel.W1": ("W1", (D, 3), False, lambda v: MlpModel(v, np.zeros(3), np.zeros((3, 2)), np.zeros(2))),
    "MlpModel.b1": ("b1", (3,), True, lambda v: MlpModel(np.zeros((D, 3)), v, np.zeros((3, 2)), np.zeros(2))),
    "MlpModel.W2": ("W2", (3, 2), False, lambda v: MlpModel(np.zeros((D, 3)), np.zeros(3), v, np.zeros(2))),
    "MlpModel.b2": ("b2", (2,), True, lambda v: MlpModel(np.zeros((D, 3)), np.zeros(3), np.zeros((3, 2)), v)),
    "NonparametricModel.L": ("L", (N, 2), False, lambda v: NonparametricModel(v, NONPARAMETRIC.fingerprint)),
    "init_model-kernel.X_ref": ("X_ref", (N, D), False, lambda v: init_model("kernel", {"k": 2}, X_ref=v)),
    "init_model-nonparametric.X": ("X", (N, D), False, lambda v: init_model("nonparametric", {"k": 2}, X=v)),
    "dataset_fingerprint.X": ("X", (N, D), False, dataset_fingerprint),
    "load_model.W": ("W", (D, 2), False, lambda v: load_model({"kind": "linear", "params": {"W": v, "b": [0, 0]}})),
}


def huge(shape):
    """A nested list of that shape whose first entry is a 400-digit integer, past float64 and int64."""
    out = np.zeros(shape, dtype=object)
    out.flat[0] = 10**400
    return out.tolist()


# bad input -> a value of it, given the valid shape; for a matrix, one axis fewer is 1-d and one more is 3-d
BAD_ARRAYS = {
    "fewer-axes": lambda shape: np.ones(shape[:-1]),
    "more-axes": lambda shape: np.ones(shape + (1,)),
    "ragged": lambda shape: [[1.0, 1.0], [1.0]],
    "strings": lambda shape: np.full(shape, "1").tolist(),
    "object": lambda shape: object(),
    "complex": lambda shape: np.ones(shape, dtype=complex),
    "400-digit": huge,
    "width": lambda shape: np.ones(shape[:-1] + (shape[-1] + 1,)),
}


@pytest.mark.parametrize(
    "entry,bad", [(entry, bad) for entry in ARRAYS for bad in BAD_ARRAYS if bad != "width" or ARRAYS[entry][2]]
)
def test_every_array_input_rejects_a_value_outside_the_rule(entry, bad):
    name, shape, _, call = ARRAYS[entry]
    value = BAD_ARRAYS[bad](shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning before the check, such as ComplexWarning, would raise instead
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {type(value).__name__} "):
            call(value)


def test_the_x_level_wrappers_take_a_callers_gradient_by_the_array_rule():
    # backward read .shape off a list dP (AttributeError), and a dZ one row short reached numpy's matmul
    dP = [[0.1, 0.2]] * N
    listed, arrayed = MLP.backward(X, dP), MLP.backward(X, np.array(dP))
    assert all(np.array_equal(listed[name], arrayed[name]) for name in MLP.param_names)
    with pytest.raises(ValueError, match=r"^dZ must be an n x K matrix with n=12, K=2, got ndarray of shape \(11, 2\)"):
        KERNEL.backward_from_logits(X, np.ones((N - 1, 2)))


# entry point and labeling -> (the name its error gives the labeling, a call that passes it for 2 samples)
LABELINGS = {
    "ari.a": ("a", lambda v: ari(v, [0, 1])),
    "ari.b": ("b", lambda v: ari([0, 1], v)),
    "contingency.a": ("a", lambda v: contingency(v, [0, 1])),
    "silhouette.labels": ("labels", lambda v: silhouette(np.eye(2), v)),
    "kernel_kmeans_score.labels": ("labels", lambda v: kernel_kmeans_score(v, np.eye(2))),
    "DataMatrix.labels": ("labels", lambda v: DataMatrix(np.eye(2), v)),
}

BAD_LABELINGS = {
    "2-d": [[0, 1]],
    "ragged": [[0], [1, 0]],
    "strings": ["0", "1"],
    "object": object(),
    "objects": [object(), 1],
    "complex": np.array([0, 1], dtype=complex),
    "400-digit": [10**400, 0],
    "fractions": [0.5, 1.5],
}


@pytest.mark.parametrize("value", BAD_LABELINGS.values(), ids=BAD_LABELINGS)
@pytest.mark.parametrize("entry", LABELINGS)
def test_every_labeling_rejects_a_value_outside_the_rule(entry, value):
    name, call = LABELINGS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be 1-d integers, got {type(value).__name__} "):
            call(value)


@pytest.mark.parametrize(
    "value", [np.ones((3, 2), dtype=np.float32), np.arange(6).reshape(3, 2), [[0, 1], [2, 3], [4, 5.0]],
              np.ones((3, 2), dtype=bool)], ids=["float32", "int64", "list", "bool"]
)
def test_a_real_array_of_any_dtype_converts_as_numpy_would(value):
    out = DataMatrix(value).values
    assert out.dtype == np.float64 and np.array_equal(out, np.asarray(value, dtype=np.float64))


def test_a_float64_array_passes_without_a_copy():
    assert LINEAR.features(X) is X and DataMatrix(X).values is X
    assert LinearModel(LINEAR.W, LINEAR.b).W is LINEAR.W
