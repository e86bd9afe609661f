"""Tests for augmentations, the InfoNCE loss and the contrastive trainer."""

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
from miclust.data import make_rng


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
