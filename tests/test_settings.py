"""Tests for the one rule every numeric setting follows, and the one lookup of objective names."""

import warnings

import numpy as np
import pytest

import miclust.optim
from miclust import (
    GaussianNoise,
    KernelSpec,
    Rotation2D,
    TrainConfig,
    check_gradients,
    init_critic,
    init_model,
    kmeans,
    make_circles,
    make_gaussian_blobs,
    rim,
    spectral,
)
from miclust.contrastive import parse_augmentation
from miclust.data import make_rng
from miclust.errors import number

X = make_circles(12, 0.05, 0.3, 0).values
LINEAR = {"d": 2, "k": 2}

# entry point and setting -> (the name its error gives the setting, a call that sets it to a value)
SETTINGS = {
    "TrainConfig.epochs": ("epochs", lambda v: TrainConfig(epochs=v)),
    "TrainConfig.learning_rate": ("learning_rate", lambda v: TrainConfig(learning_rate=v)),
    "TrainConfig.adam_beta1": ("adam_beta1", lambda v: TrainConfig(adam_beta1=v)),
    "TrainConfig.adam_beta2": ("adam_beta2", lambda v: TrainConfig(adam_beta2=v)),
    "TrainConfig.adam_eps": ("adam_eps", lambda v: TrainConfig(adam_eps=v)),
    "TrainConfig.seed": ("seed", lambda v: TrainConfig(seed=v)),
    "TrainConfig.lam": ("lam", lambda v: TrainConfig(lam=v)),
    "KernelSpec.gamma-rbf": ("gamma", lambda v: KernelSpec("rbf", v)),
    "KernelSpec.gamma-linear": ("gamma", lambda v: KernelSpec("linear", v)),
    "GaussianNoise.sigma": ("sigma", lambda v: GaussianNoise(v)),
    "Rotation2D.lo": ("lo", lambda v: Rotation2D(v, 1.0)),
    "Rotation2D.hi": ("hi", lambda v: Rotation2D(0.0, v)),
    "rim.lam": ("lambda", lambda v: rim(np.full((3, 2), 0.5), {"W": np.ones((2, 2))}, v)),
    "make_circles.n": ("n", lambda v: make_circles(v, 0.1, 0.5)),
    "make_circles.noise": ("noise", lambda v: make_circles(20, v, 0.5)),
    "make_circles.factor": ("factor", lambda v: make_circles(20, 0.1, v)),
    "init_model.k": ("k", lambda v: init_model("mlp", {"d": 2, "k": v})),
    "init_model.d": ("d", lambda v: init_model("linear", {"d": v, "k": 2})),
    "init_model.hidden": ("hidden", lambda v: init_model("mlp", {"d": 2, "k": 2, "hidden": v})),
    "init_model.scale": ("scale", lambda v: init_model("mlp", LINEAR, scale=v)),
    "init_critic.d": ("d", lambda v: init_critic(v)),
    "init_critic.hidden": ("hidden", lambda v: init_critic(2, v)),
    "init_critic.k": ("k", lambda v: init_critic(2, 20, v)),
    "kmeans.K": ("K", lambda v: kmeans(X, v)),
    "kmeans.n_init": ("n_init", lambda v: kmeans(X, 2, n_init=v)),
    "kmeans.max_iter": ("max_iter", lambda v: kmeans(X, 2, max_iter=v)),
    "kmeans.tol": ("tol", lambda v: kmeans(X, 2, tol=v)),
    "kmeans.rng": ("seed", lambda v: kmeans(X, 2, rng=v)),
    "make_rng.seed": ("seed", make_rng),
    "spectral.K": ("K", lambda v: spectral(X, v)),
    "make_gaussian_blobs.stds": ("stds", lambda v: make_gaussian_blobs([[0.0, 0.0]], v, 5)),
    "make_gaussian_blobs.counts": ("counts", lambda v: make_gaussian_blobs([[0.0, 0.0]], 1.0, v)),
    "check_gradients.h": ("h", lambda v: check_gradients(init_model("linear", LINEAR), "mi", X, h=v)),
    "check_gradients.tol": ("tol", lambda v: check_gradients(init_model("linear", LINEAR), "mi", X, tol=v)),
    "check_gradients.lam": ("lam", lambda v: check_gradients(init_model("linear", LINEAR), "mi", X, lam=v)),
}

# a bool is no number: TrainConfig(epochs=True) reported "epochs": true, and GaussianNoise(True) described itself as
# noise:True, which parse_augmentation cannot read
BAD_VALUES = {"nan": float("nan"), "inf": float("inf"), "1e400": 10**400, "str": "1", "bool": True}


@pytest.mark.parametrize("value", BAD_VALUES.values(), ids=BAD_VALUES)
@pytest.mark.parametrize("setting", SETTINGS)
def test_every_numeric_setting_rejects_a_value_outside_the_rule(setting, value):
    name, call = SETTINGS[setting]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning before the check would raise instead of the ValueError
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {type(value).__name__} "):
            call(value)


# PCG64 raised "expected non-negative integer", which does not name the seed; kmeans(X, 2, rng="a") raised TypeError
@pytest.mark.parametrize(
    "call", [lambda: TrainConfig(seed=-1), lambda: make_rng(-1), lambda: kmeans(X, 2, rng=-1)],
    ids=["TrainConfig", "make_rng", "kmeans"],
)
def test_a_negative_seed_is_rejected(call):
    with pytest.raises(ValueError, match=r"^seed must be an integer from 0 to 2\*\*63 - 1, got int -1"):
        call()


def test_spectral_rejects_a_fractional_k_before_any_eigendecomposition(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", lambda *a: pytest.fail("the Laplacian was decomposed"))
    with pytest.raises(ValueError, match=r"^K must be an integer from 1 to 2\*\*63 - 1, got float 2.5"):
        spectral(X, 2.5)


@pytest.mark.parametrize(
    "call,message",
    [(lambda: make_gaussian_blobs([[0.0, 0.0]], 1.0, 2.5), "counts must be .*, got float 2.5"),
     (lambda: make_gaussian_blobs([[0.0, 0.0]], 1.0, 10**30), "counts must be .*, got int 10{30}"),
     (lambda: make_gaussian_blobs([[0.0, 0.0], [1.0, 1.0]], [1.0, float("nan")], 5), "stds must be .*, got float nan"),
     (lambda: make_gaussian_blobs([[0.0, 0.0], [1.0, 1.0]], 1.0, [5, 0]), "counts must be .*, got int 0"),
     (lambda: make_gaussian_blobs([[0.0, 0.0], [1.0, 1.0]], [1.0] * 3, 5),
      r"stds must be one value or 2, got list of shape \(3,\)")],
    ids=["fractional-count", "huge-count", "nan-std", "zero-count", "three-stds-for-two-means"],
)
def test_each_blob_component_follows_the_number_rule(call, message):
    # a count of 2.5 made 2 points, 10**30 raised OverflowError, and a NaN std failed only as non-finite values
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


@pytest.mark.parametrize(
    "value,expected",
    [(np.float32(0.1), 0.10000000149011612), (np.int64(3), 3), (np.float64(2.5), 2.5), (3, 3), (0.5, 0.5),
     (10**300, 10**300)],
    ids=["float32", "int64", "float64", "int", "float", "1e300"],
)
def test_a_number_comes_back_as_its_python_number(value, expected):
    out = number("x", value, "real")
    assert type(out) is type(expected) and out == expected


@pytest.mark.parametrize(
    "make",
    [lambda: GaussianNoise(np.float32(0.1)), lambda: Rotation2D(np.float32(0.1), 1.0),
     lambda: Rotation2D(np.float64(-1), np.int8(2))],
    ids=["noise", "rotation", "rotation-float64-int8"],
)
def test_an_augmentation_of_numpy_numbers_constructs_without_a_warning_and_round_trips(make):
    # a float32 compared against the largest float64 warned "overflow encountered in cast"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        aug = make()
    assert parse_augmentation(aug.describe()) == aug


UNKNOWN_OBJECTIVE = r"^objective must be one of \('mi', 'rim', 'mmd-gemini'\), got str 'bogus'"


@pytest.mark.parametrize("call", [lambda: TrainConfig(objective="bogus")], ids=["TrainConfig"])
def test_an_unknown_objective_fails_alike_everywhere(call):
    with pytest.raises(ValueError, match=UNKNOWN_OBJECTIVE):
        call()


def test_check_gradients_rejects_an_unknown_objective_before_any_gram(monkeypatch):
    monkeypatch.setattr(miclust.optim, "gram", lambda *a: pytest.fail("a Gram was built"))
    with pytest.raises(ValueError, match=UNKNOWN_OBJECTIVE):
        check_gradients(init_model("linear", LINEAR), "bogus", X)


# every count and seed: past int64, kmeans(X, 2, n_init=10**300) ran without end and init_critic(2, 10**30) leaked a
# numpy TypeError from np.sqrt
COUNTS = [setting for setting, (name, _) in SETTINGS.items()
          if name in ("epochs", "seed", "n", "k", "d", "hidden", "K", "n_init", "max_iter", "counts")]


@pytest.mark.parametrize("value", [2**63, 10**30], ids=["2**63", "1e30"])
@pytest.mark.parametrize("setting", COUNTS)
def test_every_count_and_seed_rejects_a_value_past_int64(setting, value):
    name, call = SETTINGS[setting]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} must be an integer from \d to 2\*\*63 - 1, got int {value}$"):
            call(value)


def test_the_largest_int64_seed_is_accepted():
    assert TrainConfig(seed=2**63 - 1).seed == 2**63 - 1 and isinstance(make_rng(2**63 - 1), np.random.Generator)
