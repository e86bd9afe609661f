"""Tests for augmentations, the InfoNCE loss and the contrastive trainer."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from miclust import (
    GaussianNoise,
    Rotation2D,
    TrainConfig,
    augment,
    extract_clusters,
    info_nce_loss,
    init_critic,
    train_contrastive,
)
from miclust.contrastive import parse_augmentation
from miclust.data import make_circles, make_rng
from miclust.errors import NumericError


def fd_grad(Z, Z_aug, h=1e-6):
    numeric = np.zeros_like(Z)
    for i in range(Z.shape[0]):
        for j in range(Z.shape[1]):
            up, down = Z.copy(), Z.copy()
            up[i, j] += h
            down[i, j] -= h
            numeric[i, j] = (info_nce_loss(up, Z_aug)[0] - info_nce_loss(down, Z_aug)[0]) / (2 * h)
    return numeric


def test_rotation_pi_flips_the_plane():
    out = augment(np.array([[1.0, 0.0]]), Rotation2D(np.pi, np.pi), rng=0)
    assert np.allclose(out, [[-1.0, 0.0]], atol=1e-12)


def test_rotation_preserves_norms():
    X = make_rng(0).normal(size=(30, 2))
    out = augment(X, Rotation2D(0.0, 2 * np.pi), rng=1)
    assert np.allclose(np.linalg.norm(out, axis=1), np.linalg.norm(X, axis=1))


def test_rotation_requires_two_dimensions():
    with pytest.raises(ValueError, match="d=2"):
        augment(np.zeros((3, 3)), Rotation2D(), rng=0)


def test_noise_sigma_zero_is_identity():
    X = make_rng(2).normal(size=(10, 2))
    assert np.array_equal(augment(X, GaussianNoise(0.0), rng=0), X)


def test_augmentation_validation():
    with pytest.raises(ValueError):
        GaussianNoise(-1.0)
    with pytest.raises(ValueError):
        Rotation2D(2.0, 1.0)
    with pytest.raises(ValueError):
        augment(np.zeros((2, 2)), "flip", rng=0)


def test_augmentation_descriptions():
    assert GaussianNoise(1.0).describe() == "noise:1.0"
    assert Rotation2D(0.0, 1.0).describe() == "rotation:0.0:1.0"


def test_info_nce_closed_form():
    Z = np.eye(2)
    loss, _ = info_nce_loss(Z, Z)
    assert abs(loss - (-2.0 * np.e / (np.e + 1.0))) < 1e-9


def test_info_nce_cosine_rescale_invariance():
    gen = make_rng(3)
    Z = gen.normal(size=(8, 4))
    Z_aug = gen.normal(size=(8, 4))
    base, _ = info_nce_loss(Z, Z_aug)
    scales = gen.uniform(0.5, 3.0, size=(8, 1))
    rescaled, _ = info_nce_loss(Z * scales, Z_aug * gen.uniform(0.5, 3.0, size=(8, 1)))
    assert abs(base - rescaled) < 1e-10


def test_info_nce_gradient_matches_finite_differences():
    gen = make_rng(4)
    Z = gen.normal(size=(5, 3))
    Z_aug = gen.normal(size=(5, 3))
    _, dZ = info_nce_loss(Z, Z_aug)
    assert np.allclose(dZ, fd_grad(Z, Z_aug), atol=1e-7)


def _info_nce_five_temporaries(Z, Z_aug):
    """The five-temporary expression `info_nce_loss` computes in place, kept as its oracle."""
    norms = np.linalg.norm(Z, axis=1, keepdims=True)
    norms_aug = np.linalg.norm(Z_aug, axis=1, keepdims=True)
    Zh = Z / norms
    Zah = Z_aug / norms_aug
    S = Zh @ Zah.T
    e = np.exp(S - S.max(axis=0, keepdims=True))
    T = e / e.sum(axis=0, keepdims=True)
    diag = np.diag(T)
    loss = -float(diag.sum())
    dS = T * diag[None, :]
    dS[np.arange(Z.shape[0]), np.arange(Z.shape[0])] -= diag
    g = dS @ Zah
    dZ = (g - (g * Zh).sum(axis=1, keepdims=True) * Zh) / norms
    return loss, dZ


def _info_nce_cases():
    gen = make_rng(11)
    # from 182 rows on, an n x n temporary passes numpy's 256 KB elision threshold
    for n in (1, 2, 37, 200, 300):
        yield pytest.param(gen.normal(size=(n, 3)), gen.normal(size=(n, 3)), id=f"n{n}")
    Z = gen.normal(size=(60, 4)) * 10.0 ** gen.uniform(-3, 3, size=(60, 1))
    Z_aug = gen.normal(size=(60, 4)) * 10.0 ** gen.uniform(-3, 3, size=(60, 1))
    yield pytest.param(Z, Z_aug, id="rescaled-rows")
    Z = gen.normal(size=(250, 2))
    yield pytest.param(Z, Z, id="same-array")


@pytest.mark.parametrize("Z,Z_aug", list(_info_nce_cases()))
def test_info_nce_matches_reference_formula_bit_for_bit(Z, Z_aug):
    before, before_aug = Z.tobytes(), Z_aug.tobytes()
    loss, dZ = info_nce_loss(Z, Z_aug)
    oracle_loss, oracle_dZ = _info_nce_five_temporaries(Z, Z_aug)
    assert np.float64(loss).tobytes() == np.float64(oracle_loss).tobytes()
    assert dZ.tobytes() == oracle_dZ.tobytes()
    assert Z.tobytes() == before and Z_aug.tobytes() == before_aug


def test_info_nce_allocates_one_n_by_n_buffer():
    n = 400
    gen = make_rng(12)
    Z, Z_aug = gen.normal(size=(n, 2)), gen.normal(size=(n, 2))
    info_nce_loss(Z, Z_aug)
    tracemalloc.start()
    try:
        info_nce_loss(Z, Z_aug)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n x n float64 buffers"


def test_info_nce_validation():
    with pytest.raises(ValueError):
        info_nce_loss(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        info_nce_loss(np.zeros((2, 2)), np.ones((2, 2)))


def test_init_critic_reproducible_and_shaped():
    a = init_critic(2, 20, 2, rng=9)
    b = init_critic(2, 20, 2, rng=9)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert a.params["W1"].shape == (2, 20)
    assert a.params["W2"].shape == (20, 2)
    with pytest.raises(ValueError):
        init_critic(0)


def test_extract_clusters_on_one_hot_logits():
    critic = init_critic(2, 4, 2, rng=0)
    critic.W1[:] = 0.0
    critic.b1[:] = [1.0, 0.0, 0.0, 0.0]
    critic.W2[:] = 0.0
    critic.W2[0, 1] = 1.0
    critic.b2[:] = 0.0
    labels = extract_clusters(critic, np.zeros((5, 2)))
    assert np.array_equal(labels, np.ones(5, dtype=np.int64))


def test_train_contrastive_loss_decreases():
    gen = make_rng(5)
    X = gen.normal(size=(40, 2))
    critic = init_critic(2, 8, 2, rng=0)
    report = train_contrastive(critic, X, GaussianNoise(0.1), TrainConfig(epochs=60, learning_rate=1e-2, seed=0))
    assert len(report.history) == 60
    assert report.history[-1] < report.history[0]
    assert report.config["model"] == "critic"
    assert report.config["augmentation"] == "noise:0.1"


def test_train_contrastive_is_deterministic():
    X = make_rng(6).normal(size=(20, 2))
    outs = []
    for _ in range(2):
        critic = init_critic(2, 6, 2, rng=3)
        cfg = TrainConfig(epochs=15, learning_rate=1e-3, seed=3)
        outs.append(train_contrastive(critic, X, Rotation2D(), cfg).to_json())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("aug", ["noise:0.1", None, object()], ids=["spec-string", "none", "object"])
@pytest.mark.parametrize(
    "call",
    # an X that is no array shows the augmentation is checked before any work; a 0-epoch fit never augments
    [lambda aug: train_contrastive(init_critic(2), object(), aug, TrainConfig(epochs=0)),
     lambda aug: augment(np.zeros((3, 2)), aug, 0)],
    ids=["train_contrastive", "augment"],
)
def test_an_unknown_augmentation_is_named_alike_before_any_work(call, aug):
    # train_contrastive raised AttributeError: 'str' object has no attribute 'describe'
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^unknown augmentation {re.escape(repr(aug))}$"):
            call(aug)


@pytest.mark.parametrize(
    "make",
    [
        lambda: GaussianNoise(float("nan")),
        lambda: GaussianNoise(float("inf")),
        lambda: Rotation2D(float("nan"), float("nan")),
        lambda: Rotation2D(0.0, float("inf")),
    ],
    ids=["noise-nan", "noise-inf", "rotation-nan", "rotation-inf"],
)
def test_augmentations_reject_non_finite_parameters(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("sigma,type_name", [("1", "str"), (None, "NoneType"), ([0.5], "list")])
def test_gaussian_noise_names_a_sigma_that_is_not_a_real_number(sigma, type_name):
    with pytest.raises(ValueError, match=f"sigma must be finite and >= 0, got {type_name} "):
        GaussianNoise(sigma)


@pytest.mark.parametrize("value,type_name", [("1", "str"), (None, "NoneType")])
@pytest.mark.parametrize("field", ["lo", "hi"])
def test_rotation_names_an_angle_that_is_not_a_real_number(field, value, type_name):
    with pytest.raises(ValueError, match=f"^{field} must be a finite angle, got {type_name} "):
        Rotation2D(**{field: value})


def test_gaussian_noise_rejects_an_integer_sigma_beyond_float64():
    # such an int compares below inf, and train_contrastive then failed with OverflowError converting it
    with pytest.raises(ValueError, match="^sigma must be finite and >= 0, got int 1000"):
        GaussianNoise(10**400)
    assert GaussianNoise(10**300).sigma == 10**300


@pytest.mark.parametrize("field,value", [("lo", -10**400), ("hi", 10**400)], ids=["lo", "hi"])
def test_rotation_rejects_an_integer_angle_beyond_float64(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite angle, got int -?1000"):
        Rotation2D(**{field: value})


@pytest.mark.parametrize(
    "aug",
    [GaussianNoise(0.5), GaussianNoise(0.0), GaussianNoise(1 / 3), Rotation2D(), Rotation2D(-0.1, 2.5e-7),
     Rotation2D(1.0, 1.0)],
)
def test_parse_augmentation_inverts_describe(aug):
    assert parse_augmentation(aug.describe()) == aug


@pytest.mark.parametrize("text", ["shear:1", "noise", "noise:1:2", "rotation:0", ""])
def test_parse_augmentation_rejects_a_bad_spec(text):
    with pytest.raises(ValueError, match=r"bad augmentation spec .*; expected noise:SIGMA or rotation:LO:HI"):
        parse_augmentation(text)


@pytest.mark.parametrize("value", [1e200, np.inf, np.nan], ids=["squares-overflow", "inf", "nan"])
@pytest.mark.parametrize("branch", ["clean", "augmented"])
def test_info_nce_rejects_a_row_whose_norm_is_not_finite_without_a_warning(value, branch):
    Z = make_rng(21).normal(size=(6, 2))
    bad = Z.copy()
    bad[3, 1] = value
    args = (bad, Z) if branch == "clean" else (Z, bad)
    with pytest.raises(ValueError, match="norm is not finite"):  # the suite turns a numpy warning into an error
        info_nce_loss(*args)


def test_info_nce_rejects_a_zero_row():
    Z = make_rng(22).normal(size=(4, 3))
    for args in ((np.vstack([Z[:3], np.zeros(3)]), Z), (Z, np.vstack([np.zeros(3), Z[1:]]))):
        with pytest.raises(ValueError, match="zero-norm"):
            info_nce_loss(*args)


@pytest.mark.parametrize("lr", [1e100, 1e300])
def test_a_critic_that_diverges_raises_numeric_error(lr):
    # at 1e100 the clean logits stay finite after one step, but their squares overflow, so InfoNCE has no loss
    X = make_circles(120, 0.05, 0.1, 0).values
    cfg = TrainConfig(epochs=5, learning_rate=lr)
    with pytest.raises(NumericError, match="non-finite at epoch 1"):
        train_contrastive(init_critic(2, 20, 2, rng=0), X, GaussianNoise(0.5), cfg)
