"""Contrastive clustering: augmentations, the diagonal-softmax InfoNCE loss,
and a training loop for a cosine critic.

The critic is a plain MlpModel consumed through its raw logits; there is no
terminal softmax, and the final outputs are not clustering probabilities.
Clusters are extracted as the per-sample argmax of the critic outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from miclust.data import make_rng
from miclust.errors import integer, number
from miclust.kernels import _row_reduce
from miclust.models import MlpModel
from miclust.optim import FitReport, TrainConfig, _as_values, _train


@dataclass(frozen=True)
class GaussianNoise:
    """Adds i.i.d. N(0, sigma^2) per entry."""

    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", number("sigma", self.sigma, "finite and >= 0", lambda v: v >= 0))

    def describe(self) -> str:
        return f"noise:{self.sigma}"


@dataclass(frozen=True)
class Rotation2D:
    """Rotates the whole batch about the origin by one shared random angle."""

    lo: float = 0.0
    hi: float = 2 * np.pi

    def __post_init__(self):
        for name in ("lo", "hi"):
            object.__setattr__(self, name, number(name, getattr(self, name), "a finite angle"))
        if self.lo > self.hi:
            raise ValueError(f"angle range is empty: [{self.lo}, {self.hi}]")

    def describe(self) -> str:
        return f"rotation:{self.lo}:{self.hi}"


def parse_augmentation(text: str):
    """The augmentation a `describe()` string names: noise:SIGMA or rotation:LO:HI."""
    parts = text.split(":")
    if parts[0] == "noise" and len(parts) == 2:
        return GaussianNoise(float(parts[1]))
    if parts[0] == "rotation" and len(parts) == 3:
        return Rotation2D(float(parts[1]), float(parts[2]))
    raise ValueError(f"bad augmentation spec {text!r}; expected noise:SIGMA or rotation:LO:HI")


def init_critic(d: int, hidden: int = 20, k: int = 2, rng=0) -> MlpModel:
    """Default critic initialization.

    Weights and biases are drawn uniformly from +-1.5/sqrt(fan-in). The
    InfoNCE loss is invariant to rotations of the output space, so the
    orientation the representation settles into is fixed by the init; a
    uniform draw with nonzero biases spreads those orientations well, where
    zero-bias gaussian inits concentrate them near the axes.
    """
    d, hidden, k = integer("d", d, 1), integer("hidden", hidden, 1), integer("k", k, 1)
    gen = make_rng(rng)
    b1 = 1.5 / np.sqrt(d)
    b2 = 1.5 / np.sqrt(hidden)
    return MlpModel(
        gen.uniform(-b1, b1, (d, hidden)),
        gen.uniform(-b1, b1, hidden),
        gen.uniform(-b2, b2, (hidden, k)),
        gen.uniform(-b2, b2, k),
    )


def augment(X: np.ndarray, aug, rng) -> np.ndarray:
    """Apply one random draw of the augmentation to every row."""
    X = np.asarray(X, dtype=np.float64)
    gen = make_rng(rng)
    if isinstance(aug, GaussianNoise):
        return X + aug.sigma * gen.normal(0.0, 1.0, size=X.shape)
    if isinstance(aug, Rotation2D):
        if X.shape[1] != 2:
            raise ValueError(f"rotation2d requires d=2, got d={X.shape[1]}")
        theta = gen.uniform(aug.lo, aug.hi)
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        return X @ rot.T
    raise ValueError(f"unknown augmentation {aug!r}")


def info_nce_loss(Z: np.ndarray, Z_aug: np.ndarray):
    """Diagonal-softmax InfoNCE on cosine similarities.

    Rows of both representation matrices are l2-normalized, similarities
    S = Zhat @ Zhat_aug^T are softmaxed down each column, and the loss is
    the negated sum of the diagonal. The gradient flows through Z only;
    Z_aug is treated as a constant (stop-gradient on the augmented branch).

    Each call works in one n x n buffer, overwritten from similarities to
    softmax to similarity gradient. The operation order is fixed, so the
    loss and gradient stay bit-identical to the five-temporary expression.
    """
    Z = np.asarray(Z, dtype=np.float64)
    Z_aug = np.asarray(Z_aug, dtype=np.float64)
    if Z.shape != Z_aug.shape:
        raise ValueError(f"shape mismatch: {Z.shape} vs {Z_aug.shape}")
    # l2 row norms as np.linalg.norm(axis=1) computes them; a square that overflows makes its norm inf, raised below
    with np.errstate(over="ignore"):
        norms = np.sqrt(_row_reduce(np.add, Z * Z))
        norms_aug = np.sqrt(_row_reduce(np.add, Z_aug * Z_aug))
    if not (norms.max() < np.inf and norms_aug.max() < np.inf):  # a NaN fails the comparison too
        raise ValueError("representation row whose norm is not finite; cosine similarity undefined")
    if not (norms.min() > 0 and norms_aug.min() > 0):
        raise ValueError("zero-norm representation row; cosine similarity undefined")
    Zh = Z / norms
    Zah = Z_aug / norms_aug
    T = Zh @ Zah.T
    # softmax down each column; the diagonal is copied out before T is overwritten
    T -= T.max(axis=0, keepdims=True)
    np.exp(T, out=T)
    T /= T.sum(axis=0, keepdims=True)
    diag = T.diagonal().copy()
    loss = -float(diag.sum())
    # d loss / d S_ij = T_ij * T_jj - delta_ij * T_jj, overwriting T
    T *= diag[None, :]
    T.ravel()[:: Z.shape[0] + 1] -= diag  # the diagonal through a strided view of the C-order buffer
    g = T @ Zah
    # back through the row normalization of Z
    return loss, (g - _row_reduce(np.add, g * Zh) * Zh) / norms


def train_contrastive(critic: MlpModel, X, aug, cfg: TrainConfig) -> FitReport:
    """Contrastive training loop: one augmentation draw per epoch,
    stop-gradient on the augmented branch, full-batch Adam on the loss.

    The clean branch's features are built once; each epoch runs the critic's
    head on them once and backpropagates over the intermediates it kept.
    """
    values = _as_values(X)
    gen = make_rng(cfg.seed)
    F = critic.features(values)

    def epoch():
        Z_aug = critic.logits(augment(values, aug, gen))
        Z, saved = critic.head(F)
        try:
            loss, dZ = info_nce_loss(Z, Z_aug)
        except ValueError:  # a critic that diverged has clean logits whose squares are not finite, and no loss
            if np.isfinite(Z * Z).all():
                raise
            return np.nan, None
        return loss, lambda: critic.head_backward(F, saved, -dZ)  # ascend the negated loss

    config = dict(cfg.to_dict(), model="critic", augmentation=aug.describe())
    return _train(critic, cfg, epoch, lambda: critic.head(F)[0], config)


def extract_clusters(critic: MlpModel, X) -> np.ndarray:
    """Per-row argmax of the raw critic outputs; ties go to the lowest index."""
    return np.argmax(critic.logits(_as_values(X)), axis=1)
