"""Full-batch Adam gradient ascent, fit reports, and a finite-difference checker."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from miclust.data import DataMatrix
from miclust.errors import NumericError, integer, matrix, number
from miclust.kernels import KernelMatrix, KernelSpec, gram
from miclust.models import ClusterModel, KernelModel, softmax, softmax_backward
from miclust.objectives import mi, mmd_gemini_ova, rim

# name -> (whether it trains against the training-set Gram, evaluator (P, weights, lam, G) -> ObjectiveValue)
OBJECTIVES = {
    "mi": (False, lambda P, weights, lam, G: mi(P)),
    "rim": (False, lambda P, weights, lam, G: rim(P, weights, lam)),
    "mmd-gemini": (True, lambda P, weights, lam, G: mmd_gemini_ova(P, G)),
}


def _objective(name) -> tuple:
    """The OBJECTIVES entry of `name`; any other name raises ValueError."""
    if isinstance(name, str) and name in OBJECTIVES:
        return OBJECTIVES[name]
    raise ValueError(f"objective must be one of {tuple(OBJECTIVES)}, got {type(name).__name__} {name!r}")


@dataclass
class TrainConfig:
    """Hyperparameters of one training run. Defaults follow the circles setups."""

    epochs: int = 1000
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    objective: str = "mi"
    lam: float = 0.0
    kernel: KernelSpec | None = None

    def __post_init__(self):
        self.epochs = integer("epochs", self.epochs, 0)
        self.learning_rate = number("learning_rate", self.learning_rate, "positive and finite", lambda v: v > 0)
        self.adam_beta1 = number("adam_beta1", self.adam_beta1, "in (0, 1)", lambda v: 0 < v < 1)
        self.adam_beta2 = number("adam_beta2", self.adam_beta2, "in (0, 1)", lambda v: 0 < v < 1)
        self.adam_eps = number("adam_eps", self.adam_eps, "positive and finite", lambda v: v > 0)
        self.seed = integer("seed", self.seed, 0)
        _objective(self.objective)
        self.lam = number("lam", self.lam, "finite and >= 0", lambda v: v >= 0)
        if not isinstance(self.kernel, KernelSpec | None):
            raise ValueError(f"kernel must be a KernelSpec or None, got {type(self.kernel).__name__} {self.kernel!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FitReport:
    """Training history, final model, labels, metrics and the echoed config."""

    history: list
    final_model: dict
    labels: list
    config: dict
    metrics: dict = field(default_factory=dict)
    gram: KernelMatrix | None = None

    def to_json(self) -> str:
        # gram, the fit's kernel matrix on its training samples, is kept only for scoring
        return json.dumps(
            {
                "config": self.config,
                "history": self.history,
                "labels": self.labels,
                "metrics": self.metrics,
                "model": self.final_model,
            }
        )


class Adam:
    """Adam over a dict of named parameter arrays, stepping in ascent direction, on flat moment vectors."""

    def __init__(self, params: dict, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        sizes = [p.size for p in params.values()]
        self.m, self.v, self._g, self._update = (np.zeros(sum(sizes)) for _ in range(4))
        parts = np.split(self._update, np.cumsum(sizes)[:-1])  # each parameter's view of the flat update
        self._views = [(p, part.reshape(p.shape)) for p, part in zip(params.values(), parts)]

    def step(self, grads: dict) -> None:
        for k, p in self.params.items():
            if np.shape(grads[k]) != p.shape:
                raise ValueError(f"gradient of {k!r} has shape {np.shape(grads[k])}, its parameter {p.shape}")
        self.t += 1
        g = np.concatenate([grads[k] for k in self.params], axis=None, out=self._g)
        m, v, step = self.m, self.v, self._update
        # m = beta1 * m + (1 - beta1) * g and v = beta2 * v + (1 - beta2) * g**2
        m *= self.beta1
        m += np.multiply(g, 1 - self.beta1, out=step)
        v *= self.beta2
        v += np.multiply(np.square(g, out=g), 1 - self.beta2, out=g)
        # step = lr * m_hat / (sqrt(v_hat) + eps), with the bias-corrected moments
        np.divide(m, 1 - self.beta1**self.t, out=step)
        step *= self.lr
        g = np.sqrt(np.divide(v, 1 - self.beta2**self.t, out=g), out=g)
        g += self.eps
        step /= g
        for p, update in self._views:
            p += update


def _as_values(X) -> np.ndarray:
    return X.values if isinstance(X, DataMatrix) else matrix("X", X, "an n x d matrix")


def _objective_fit(model: ClusterModel, X, objective: str, lam: float, kernel: KernelSpec | None):
    """One fit's setup, reading the objective's OBJECTIVES row once: (G, held, F, epoch).

    G is the training Gram (rbf by default) if the row trains against one. A kernel head whose X_ref equals X under
    G's kernel takes G as its features F, so the n x n is built once, and `held`, the matrix a report hands on, is G
    or that head's features. Each `epoch()` runs the head and a softmax once and returns (value, gradient), where
    `gradient()` runs the softmax Jacobian and the head's backward once over the kept intermediates.
    """
    needs_gram, evaluate = _objective(objective)
    values = _as_values(X)
    G = gram(values, values, kernel or KernelSpec("rbf")) if needs_gram else None
    head_on_values = isinstance(model, KernelModel) and np.array_equal(model.X_ref, values)
    F = G.values if head_on_values and G is not None and model.spec == G.spec else model.features(values)
    held = G if G is not None or not head_on_values else KernelMatrix(F, model.spec)
    # Adam and the gradient check change these arrays in place, so one dict serves every epoch
    weights = {name: getattr(model, name) for name in model.weight_keys}

    def epoch():
        Z, saved = model.head(F)
        P = softmax(Z)
        obj = evaluate(P, weights, lam, G)

        def gradient():
            grads = model.head_backward(F, saved, softmax_backward(P, obj.grad_resp))
            for name, extra in obj.grad_params.items():
                grads[name] = grads[name] + extra
            return grads

        return obj.value, gradient

    return G, held, F, epoch


def _train(model: ClusterModel, cfg: TrainConfig, epoch, scores, config: dict) -> FitReport:
    """The Adam ascent loop that `fit` and `train_contrastive` share.

    `epoch()` returns (value, gradient) at the current parameters; the value
    is checked before `gradient()` runs, so a non-finite objective raises
    NumericError, as do non-finite final `scores()`, whose argmax are the
    labels; so a fit that diverges fails with no numpy warning.
    """
    opt = Adam(model.params, cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for e in range(cfg.epochs):
            value, gradient = epoch()
            if not math.isfinite(value):
                raise NumericError(f"objective became non-finite at epoch {e}: {value}")
            history.append(value)
            opt.step(gradient())
        if not np.isfinite(S := scores()).all():
            raise NumericError("the trained model's scores are not finite")
    return FitReport(history, model.to_dict(), np.argmax(S, axis=1).tolist(), config)


def fit(model: ClusterModel, X, cfg: TrainConfig) -> FitReport:
    """Full-batch Adam ascent of the configured objective.

    The model's features of X are built once; each epoch runs the head
    once and backpropagates over the intermediates it kept. Deterministic
    given (model init, cfg); raises NumericError when the objective turns
    non-finite.
    """
    G, held, F, epoch = _objective_fit(model, X, cfg.objective, cfg.lam, cfg.kernel)
    # echo the kernel the fit trained against, not one it was handed and never used
    config = dict(cfg.to_dict(), model=model.kind, kernel=G.spec.to_dict() if G is not None else None)
    return replace(_train(model, cfg, epoch, lambda: softmax(model.head(F)[0]), config), gram=held)


def predict(model: ClusterModel, X) -> np.ndarray:
    """Argmax cluster per sample; ties break toward the lowest index."""
    return np.argmax(model.forward(_as_values(X)), axis=1)


@dataclass
class GradCheckReport:
    max_rel_err: float
    per_param: dict
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def check_gradients(
    model: ClusterModel,
    objective: str,
    X,
    h: float = 1e-5,
    tol: float = 1e-4,
    lam: float = 0.0,
    kernel: KernelSpec | None = None,
) -> GradCheckReport:
    """Central finite differences over every parameter of the model.

    Intended for small n; cost is two objective evaluations per scalar
    parameter.
    """
    h, tol = (number(name, value, "positive and finite", lambda v: v > 0) for name, value in (("h", h), ("tol", tol)))
    lam = number("lam", lam, "finite and >= 0", lambda v: v >= 0)
    epoch = _objective_fit(model, X, objective, lam, kernel)[3]
    analytic = epoch()[1]()

    max_rel = 0.0
    per_param = {}
    for name, arr in model.params.items():
        numeric = np.zeros(arr.shape)
        for i in range(arr.size):
            orig = arr.flat[i]
            arr.flat[i] = orig + h
            up = epoch()[0]
            arr.flat[i] = orig - h
            down = epoch()[0]
            arr.flat[i] = orig
            numeric.flat[i] = (up - down) / (2 * h)
        a = np.asarray(analytic[name], dtype=np.float64)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
        rel = float(np.max(np.abs(a - numeric) / denom)) if a.size else 0.0
        per_param[name] = rel
        max_rel = max(max_rel, rel)
    return GradCheckReport(max_rel, per_param, tol)
