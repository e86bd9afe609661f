"""Tests for the softmax heads: forward maps, serialization and init."""

import json

import numpy as np
import pytest

from miclust import KernelSpec, LinearModel, MlpModel, NonparametricModel, init_critic, init_model, load_model
from miclust.data import make_rng
from miclust.models import ClusterModel, KernelModel, dataset_fingerprint, softmax, softmax_backward
from miclust.objectives import mi
from miclust.optim import _objective_fit


def rim_epoch_penalizing(model, X):
    """One RIM epoch at lam=1 on X as (value, gradients), after checking it penalizes exactly the weight_keys: those
    gradients are the lam=0 epoch's minus 2W, and every other gradient is the lam=0 epoch's."""
    value, gradient = _objective_fit(model, X, "rim", 1.0, None)[3]()
    grads, free = gradient(), _objective_fit(model, X, "rim", 0.0, None)[3]()[1]()
    for name, W in model.params.items():
        assert np.array_equal(grads[name], free[name] - 2.0 * W if name in model.weight_keys else free[name]), name
    return value, grads


def test_linear_hand_logits():
    model = LinearModel(np.array([[1.0, -1.0]]), np.zeros(2))
    assert np.array_equal(model.logits(np.array([[2.0]])), np.array([[2.0, -2.0]]))


def test_softmax_rows_sum_to_one():
    Z = make_rng(0).normal(size=(20, 4)) * 10
    P = softmax(Z)
    assert np.allclose(P.sum(axis=1), 1.0)
    assert np.all(P > 0)


def test_softmax_shift_invariance_and_stability():
    Z = np.array([[1000.0, 1001.0], [-1000.0, -999.0]])
    P = softmax(Z)
    assert np.all(np.isfinite(P))
    assert np.allclose(P[0], P[1])


def test_softmax_backward_matches_finite_differences():
    gen = make_rng(2)
    Z = gen.normal(size=(5, 3))
    dP = gen.normal(size=(5, 3))
    analytic = softmax_backward(softmax(Z), dP)
    h = 1e-6
    numeric = np.zeros_like(Z)
    for i in range(Z.shape[0]):
        for j in range(Z.shape[1]):
            up, down = Z.copy(), Z.copy()
            up[i, j] += h
            down[i, j] -= h
            numeric[i, j] = ((softmax(up) * dP).sum() - (softmax(down) * dP).sum()) / (2 * h)
    assert np.allclose(analytic, numeric, atol=1e-7)


@pytest.mark.parametrize(
    "dP, message",
    [
        (np.zeros((6, 2)), r"gradient shape \(6, 2\) does not match responsibilities \(6, 3\)"),
        (np.full((6, 3), np.nan), "gradient w.r.t. responsibilities contains non-finite entries"),
    ],
    ids=["shape", "nan"],
)
def test_backward_rejects_a_bad_responsibility_gradient(dP, message):
    X = make_rng(4).normal(size=(6, 2))
    model = init_model("mlp", {"d": 2, "k": 3, "hidden": 4}, rng=0)
    with pytest.raises(ValueError, match=message):
        model.backward(X, dP)


@pytest.mark.parametrize("kind", ["linear", "kernel", "mlp", "nonparametric"])
def test_forward_is_row_stochastic(kind):
    X = make_rng(3).normal(size=(12, 2))
    kwargs = {}
    if kind == "kernel":
        kwargs["X_ref"] = X
    if kind == "nonparametric":
        kwargs["X"] = X
    model = init_model(kind, {"d": 2, "k": 3, "hidden": 5}, scale=0.5, rng=0, **kwargs)
    P = model.forward(X)
    assert P.shape == (12, 3)
    assert np.allclose(P.sum(axis=1), 1.0)


@pytest.mark.parametrize("kind", ["linear", "kernel", "mlp", "nonparametric"])
def test_init_is_reproducible(kind):
    X = make_rng(4).normal(size=(6, 2))
    kwargs = {"X_ref": X} if kind == "kernel" else {"X": X} if kind == "nonparametric" else {}
    a = init_model(kind, {"d": 2, "k": 2, "hidden": 4}, rng=11, **kwargs)
    b = init_model(kind, {"d": 2, "k": 2, "hidden": 4}, rng=11, **kwargs)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_init_biases_are_zero():
    model = init_model("mlp", {"d": 2, "k": 2, "hidden": 4}, rng=0)
    assert np.array_equal(model.params["b1"], np.zeros(4))
    assert np.array_equal(model.params["b2"], np.zeros(2))


def test_kernel_init_scale_defaults_to_inverse_n_ref():
    X = make_rng(5).normal(size=(50, 2))
    model = init_model("kernel", {"k": 2}, rng=0, X_ref=X)
    # the draw is N(0,1) * 1/n_ref, so the sample std should sit near 0.02
    assert model.params["A"].std() < 3.0 / 50


@pytest.mark.parametrize("kind", ["linear", "kernel", "mlp", "nonparametric"])
def test_json_round_trip(kind):
    X = make_rng(6).normal(size=(7, 2))
    kwargs = {}
    if kind == "kernel":
        kwargs.update(X_ref=X, spec=KernelSpec("rbf", 0.3))
    if kind == "nonparametric":
        kwargs["X"] = X
    model = init_model(kind, {"d": 2, "k": 2, "hidden": 3}, scale=0.2, rng=1, **kwargs)
    back = load_model(model.to_json())
    assert np.allclose(back.forward(X), model.forward(X))
    assert json.loads(back.to_json()) == json.loads(model.to_json())


def test_nonparametric_rejects_unbound_data():
    X = make_rng(7).normal(size=(5, 2))
    model = init_model("nonparametric", {"k": 2}, rng=0, X=X)
    assert np.array_equal(model.logits(X), model.logits(X.copy()))
    with pytest.raises(ValueError, match="does not generalise"):
        model.logits(X + 1e-9)
    with pytest.raises(ValueError, match="does not generalise"):
        model.logits(X[:4])


def test_fingerprint_is_content_addressed():
    X = make_rng(8).normal(size=(4, 2))
    assert dataset_fingerprint(X) == dataset_fingerprint(X.copy())
    assert dataset_fingerprint(X) != dataset_fingerprint(X.T.copy())


def test_weight_norm_excludes_biases():
    # RIM penalizes the weights' squared Frobenius norm, 6 + 6 here, and not the biases of 9
    model = MlpModel(np.ones((2, 3)), np.full(3, 9.0), np.ones((3, 2)), np.full(2, 9.0))
    # both logit columns are equal, so the responsibilities are uniform and MI is 0
    value, _ = rim_epoch_penalizing(model, make_rng(3).normal(size=(4, 2)))
    assert value == -12.0
    assert model.weight_keys == ("W1", "W2")


def test_shape_validation():
    with pytest.raises(ValueError):
        LinearModel(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        MlpModel(np.zeros((2, 3)), np.zeros(3), np.zeros((4, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        NonparametricModel(np.zeros(5), "abc")
    with pytest.raises(ValueError):
        init_model("tree", {"d": 2, "k": 2})
    model = LinearModel(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError, match=r"^X must be an n x 3 matrix, got ndarray of shape \(4, 2\)"):
        model.logits(np.zeros((4, 2)))


@pytest.mark.parametrize("kind", ["linear", "kernel", "mlp", "nonparametric"])
def test_load_model_rejects_non_finite_parameters(kind):
    X = make_rng(9).normal(size=(5, 2))
    kwargs = {"X_ref": X} if kind == "kernel" else {"X": X} if kind == "nonparametric" else {}
    doc = json.loads(init_model(kind, {"d": 2, "k": 2, "hidden": 3}, rng=0, **kwargs).to_json())
    name = next(iter(doc["params"]))
    doc["params"][name][0][0] = float("nan")
    with pytest.raises(ValueError, match="finite"):
        load_model(json.dumps(doc))


@pytest.mark.parametrize("kind", ["linear", "kernel", "mlp", "nonparametric"])
def test_to_json_is_the_json_of_to_dict(kind):
    X = make_rng(9).normal(size=(5, 2))
    kwargs = {"X_ref": X} if kind == "kernel" else {"X": X} if kind == "nonparametric" else {}
    model = init_model(kind, {"d": 2, "k": 2, "hidden": 3}, rng=0, **kwargs)
    doc = model.to_dict()
    assert json.dumps(doc) == model.to_json()
    # plain Python values (numpy 2 reprs its scalars as np.float64(...)), so a fit report holds the document itself
    assert repr(doc) == repr(json.loads(model.to_json()))


def valid_doc(kind):
    X = make_rng(10).normal(size=(5, 2))
    kwargs = {"X_ref": X} if kind == "kernel" else {"X": X} if kind == "nonparametric" else {}
    return json.loads(init_model(kind, {"d": 2, "k": 2, "hidden": 3}, rng=0, **kwargs).to_json())


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


MALFORMED_DOCS = {
    "list": lambda: [valid_doc("linear")],
    "number": lambda: 3,
    "string": lambda: "linear",
    "unknown-kind": lambda: dict(valid_doc("linear"), kind="tree"),
    "missing-kind": lambda: without(valid_doc("linear"), "kind"),
    "kind-not-string": lambda: dict(valid_doc("linear"), kind=["linear"]),
    "missing-params": lambda: {"kind": "linear"},
    "params-not-object": lambda: dict(valid_doc("linear"), params=[[1.0, 2.0]]),
    "missing-param": lambda: dict(valid_doc("mlp"), params=without(valid_doc("mlp")["params"], "b2")),
    "extra-param": lambda: dict(valid_doc("linear"), params=dict(valid_doc("linear")["params"], c=[1.0])),
    "kernel-param-names": lambda: dict(valid_doc("kernel"), params=valid_doc("linear")["params"]),
    "missing-X_ref": lambda: without(valid_doc("kernel"), "X_ref"),
    "missing-kernel": lambda: without(valid_doc("kernel"), "kernel"),
    "param-not-numeric": lambda: dict(valid_doc("linear"), params={"W": {"a": 1.0}, "b": [0.0, 0.0]}),
    "kernel-not-object": lambda: dict(valid_doc("kernel"), kernel="rbf"),
    "gamma-not-number": lambda: dict(valid_doc("kernel"), kernel={"kind": "rbf", "gamma": "wide"}),
    "kernel-without-kind": lambda: dict(valid_doc("kernel"), kernel={"gamma": 1.0}),
    "missing-fingerprint": lambda: without(valid_doc("nonparametric"), "fingerprint"),
    "fingerprint-number": lambda: dict(valid_doc("nonparametric"), fingerprint=5),
    "fingerprint-list": lambda: dict(valid_doc("nonparametric"), fingerprint=[1, 2]),
    "fingerprint-null": lambda: dict(valid_doc("nonparametric"), fingerprint=None),
    "fingerprint-short": lambda: dict(valid_doc("nonparametric"), fingerprint="ab" * 31),
    "fingerprint-not-hex": lambda: dict(valid_doc("nonparametric"), fingerprint="g" * 64),
    "fingerprint-upper-case": lambda: dict(valid_doc("nonparametric"), fingerprint="AB" * 32),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCS))
def test_load_model_rejects_malformed_documents(case):
    doc = MALFORMED_DOCS[case]()
    with pytest.raises(ValueError):
        load_model(doc)
    with pytest.raises(ValueError):
        load_model(json.dumps(doc))


def test_init_model_rejects_an_unknown_kind_before_reading_dims():
    with pytest.raises(ValueError, match=r"unknown model kind 'bogus'; expected one of \['kernel', 'linear'"):
        init_model("bogus", {})


def test_model_classes_bind_the_methods_the_benchmark_tracer_wraps():
    # perfbench/tracing.py patches these names on the classes that define them
    for cls in (LinearModel, KernelModel, MlpModel, NonparametricModel):
        assert "logits" in vars(cls) and "backward_from_logits" in vars(cls), cls.__name__
    assert "forward" in vars(ClusterModel) and "backward" in vars(ClusterModel)


def test_kernel_head_is_a_linear_head_on_kernel_features():
    X = make_rng(11).normal(size=(6, 2))
    model = init_model("kernel", {"k": 3}, scale=0.5, rng=0, X_ref=X, spec=KernelSpec("rbf", 0.7))
    assert isinstance(model, LinearModel)
    F = model.features(X)
    linear = LinearModel(model.params["A"], model.params["b"])
    assert np.array_equal(model.logits(X), linear.logits(F))
    value, _ = rim_epoch_penalizing(model, X)
    assert value == mi(model.forward(X)).value - float(np.sum(model.params["A"] ** 2))
    assert model.weight_keys == ("A",)


# each class's own n_clusters as it was, before ClusterModel read it off the last parameter; kept as the oracle
N_CLUSTERS_AS_IT_WAS = {
    "linear": lambda m: m.W.shape[1],
    "kernel": lambda m: m.W.shape[1],
    "mlp": lambda m: m.W2.shape[1],
    "nonparametric": lambda m: m.L.shape[1],
}


@pytest.mark.parametrize("k", [1, 2, 3, 7])
@pytest.mark.parametrize("kind", sorted(N_CLUSTERS_AS_IT_WAS))
def test_n_clusters_is_the_old_per_class_value(kind, k):
    X = make_rng(k).normal(size=(9, 3))
    model = init_model(kind, {"d": 3, "k": k, "hidden": 4}, rng=0, X_ref=X, X=X)
    assert type(model).n_clusters is ClusterModel.n_clusters
    assert model.n_clusters == N_CLUSTERS_AS_IT_WAS[kind](model) == k
    assert load_model(model.to_json()).n_clusters == k


def test_n_clusters_of_the_contrastive_critic():
    assert init_critic(2, 5, 4, rng=0).n_clusters == 4


def test_a_fingerprint_round_trips_only_as_the_hex_digest_it_is():
    X = make_rng(12).normal(size=(5, 2))
    model = init_model("nonparametric", {"k": 2}, X=X)
    assert load_model(model.to_json()).fingerprint == model.fingerprint == dataset_fingerprint(X)
    with pytest.raises(ValueError, match="64 hex digits"):
        NonparametricModel(model.L, 5)


@pytest.mark.parametrize("kind", ["linear", "kernel", "mlp"])
@pytest.mark.parametrize("shape", [(3,), (), (2, 2, 2)], ids=str)
def test_an_input_that_is_not_a_matrix_is_rejected_by_its_shape(kind, shape):
    X = make_rng(13).normal(size=(6, 2))
    model = init_model(kind, {"d": 2, "k": 2}, X_ref=X)
    bad = np.zeros(shape)
    for call in (model.forward, model.logits, model.features):
        with pytest.raises(ValueError, match="shape"):
            call(bad)


def test_a_nonparametric_model_rejects_the_raveled_training_set():
    X = make_rng(14).normal(size=(5, 1))
    model = init_model("nonparametric", {"k": 2}, X=X)
    with pytest.raises(ValueError, match=r"^X must be an n x d matrix, got ndarray of shape \(5,\)"):
        model.logits(X.ravel())  # the same bytes and row count, but not an n x d matrix


@pytest.mark.parametrize("kind,dims,missing", [
    ("linear", {"k": 2}, "'d' in dims"),
    ("mlp", {"k": 2}, "'d' in dims"),
    ("linear", {"d": 2}, "'k' in dims"),
    ("kernel", {"k": 2}, "'X_ref' as a keyword argument"),
    ("nonparametric", {"k": 2}, "'X' as a keyword argument"),
], ids=["linear-d", "mlp-d", "linear-k", "kernel-X_ref", "nonparametric-X"])
def test_init_model_names_what_it_lacks(kind, dims, missing):
    with pytest.raises(ValueError, match=f"a {kind} model needs {missing}"):
        init_model(kind, dims)
