"""Discriminative clustering models p(y|x) with exact analytic gradients.

A model maps an n x d matrix to n x K logits in two stages, which with
`head_backward` are its whole training interface: `features` maps X to the
fixed, parameter-free input of the head (built once per fit), and `head`
maps features to logits, keeping the intermediates `head_backward` reuses.
Each training epoch runs `head` once and `head_backward` once; a clustering
objective puts `softmax`/`softmax_backward` between them, and the contrastive
critic uses the raw logits. The public `forward`/`backward` and `logits`/
`backward_from_logits` take X and rebuild the features on each call, for
prediction, the boundary grid, the critic's augmented branch and the tests.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np

from miclust.data import make_rng
from miclust.errors import integer, matrix, number
from miclust.kernels import KernelSpec, _row_reduce, gram


def softmax(Z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction."""
    e = np.exp(Z - _row_reduce(np.maximum, Z))
    return e / _row_reduce(np.add, e)


def softmax_backward(P: np.ndarray, dP: np.ndarray) -> np.ndarray:
    """Map a gradient w.r.t. softmax outputs to one w.r.t. logits; a dP not finite or not of P's shape raises."""
    if dP.shape != P.shape:
        raise ValueError(f"gradient shape {dP.shape} does not match responsibilities {P.shape}")
    if not np.isfinite(dP).all():
        raise ValueError("gradient w.r.t. responsibilities contains non-finite entries")
    return P * (dP - _row_reduce(np.add, dP * P))


def _check_finite(*arrays: np.ndarray) -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("parameters must be finite")


class ClusterModel:
    """Subclasses provide `features`, `head` and `head_backward`; the X-level wrappers are shared."""

    kind = "abstract"
    # parameter names, in constructor order; RIM penalizes the Frobenius norm of the weight_keys
    param_names: tuple = ()
    weight_keys: tuple = ()
    # document keys besides kind and params, passed to the constructor after the parameters
    extra_keys: tuple = ()

    @property
    def params(self) -> dict:
        return {name: getattr(self, name) for name in self.param_names}

    def features(self, X: np.ndarray) -> np.ndarray:
        """Validate X and map it to the parameter-free input of the head; by default X itself, an n x d matrix whose
        d is the first parameter's row count."""
        d = getattr(self, self.param_names[0]).shape[0]
        return matrix("X", X, f"an n x {d} matrix", lambda s: len(s) == 2 and s[1] == d)

    def head(self, F: np.ndarray) -> tuple:
        """Logits of features F, plus the intermediates `head_backward` reuses."""
        raise NotImplementedError

    def head_backward(self, F: np.ndarray, saved, dZ: np.ndarray) -> dict:
        """Parameter gradients from a logit gradient, given the head's intermediates."""
        raise NotImplementedError

    def forward(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.head(self.features(X))[0])

    def backward(self, X: np.ndarray, dP: np.ndarray) -> dict:
        F = self.features(X)
        dP = matrix("dP", dP, "an n x K matrix")  # softmax_backward checks its shape against the responsibilities
        Z, saved = self.head(F)
        return self.head_backward(F, saved, softmax_backward(softmax(Z), dP))

    def __init_subclass__(cls):
        # perfbench/tracing.py wraps these two by name on the class that defines them, so each subclass binds both
        cls.logits = ClusterModel.logits
        cls.backward_from_logits = ClusterModel.backward_from_logits

    def logits(self, X: np.ndarray) -> np.ndarray:
        return self.head(self.features(X))[0]

    def backward_from_logits(self, X: np.ndarray, dZ: np.ndarray) -> dict:
        F = self.features(X)
        shape = (len(F), self.n_clusters)
        dZ = matrix("dZ", dZ, f"an n x K matrix with n={shape[0]}, K={shape[1]}", lambda s: s == shape)
        return self.head_backward(F, self.head(F)[1], dZ)

    @property
    def n_clusters(self) -> int:
        """K, the last axis of the last parameter (b, b2 or L)."""
        return getattr(self, self.param_names[-1]).shape[-1]

    def _extra_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.extra_keys}

    @classmethod
    def _from_doc(cls, params: list, doc: dict) -> "ClusterModel":
        return cls(*params, *(doc[key] for key in cls.extra_keys))

    def to_dict(self) -> dict:
        """The model document: kind, params as nested lists, then the kind's extra keys."""
        return {"kind": self.kind, "params": {k: v.tolist() for k, v in self.params.items()}, **self._extra_dict()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


class LinearModel(ClusterModel):
    """Logistic regression on the head's features: softmax(F W + b), with F = X."""

    kind = "linear"
    param_names = ("W", "b")
    weight_keys = ("W",)

    def __init__(self, W: np.ndarray, b: np.ndarray):
        self.W = matrix(self.weight_keys[0], W, "a d x K matrix")
        K = self.W.shape[1]
        self.b = matrix("b", b, f"a vector of length K={K}", lambda s: s == (K,))
        _check_finite(self.W, self.b)

    def head(self, F):
        return F @ self.W + self.b, None

    def head_backward(self, F, saved, dZ):
        return {self.weight_keys[0]: F.T @ dZ, "b": dZ.sum(axis=0)}


class KernelModel(LinearModel):
    """Kernel RIM head: the linear head on the features kappa(X, X_ref), softmax(kappa A + b)."""

    kind = "kernel"
    param_names = ("A", "b")
    weight_keys = ("A",)
    extra_keys = ("X_ref", "kernel")

    def __init__(self, A: np.ndarray, b: np.ndarray, X_ref: np.ndarray, spec: KernelSpec):
        super().__init__(A, b)
        n_ref = len(self.W)  # one row per row of A
        self.X_ref = matrix("X_ref", X_ref, f"an n_ref x d matrix, n_ref={n_ref}",
                            lambda s: len(s) == 2 and s[0] == n_ref)
        _check_finite(self.X_ref)
        self.spec = spec.resolve(self.X_ref)

    @property
    def A(self):
        return self.W

    def features(self, X):
        return gram(X, self.X_ref, self.spec).values

    def _extra_dict(self):
        return {"X_ref": self.X_ref.tolist(), "kernel": self.spec.to_dict()}

    @classmethod
    def _from_doc(cls, params, doc):
        if not isinstance(doc["kernel"], dict):
            raise ValueError("kernel model document needs a 'kernel' object")
        return cls(*params, doc["X_ref"], KernelSpec.from_dict(doc["kernel"]))


class MlpModel(ClusterModel):
    """One-hidden-layer rectifier network: softmax(W2^T relu(W1^T x + b1) + b2)."""

    kind = "mlp"
    param_names = ("W1", "b1", "W2", "b2")
    weight_keys = ("W1", "W2")

    def __init__(self, W1, b1, W2, b2):
        self.W1 = matrix("W1", W1, "a d x H matrix")
        H = self.W1.shape[1]
        self.b1 = matrix("b1", b1, f"a vector of length H={H}", lambda s: s == (H,))
        self.W2 = matrix("W2", W2, f"an H x K matrix with H={H}", lambda s: len(s) == 2 and s[0] == H)
        K = self.W2.shape[1]
        self.b2 = matrix("b2", b2, f"a vector of length K={K}", lambda s: s == (K,))
        _check_finite(self.W1, self.b1, self.W2, self.b2)

    def head(self, F):
        pre = F @ self.W1 + self.b1
        H = np.maximum(pre, 0.0)
        return H @ self.W2 + self.b2, (pre, H)

    def head_backward(self, F, saved, dZ):
        pre, H = saved
        dH = (dZ @ self.W2.T) * (pre > 0)
        return {
            "W1": F.T @ dH,
            "b1": dH.sum(axis=0),
            "W2": H.T @ dZ,
            "b2": dZ.sum(axis=0),
        }


def dataset_fingerprint(X: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(matrix("X", X, "an n x d matrix")).tobytes()).hexdigest()


class NonparametricModel(ClusterModel):
    """Free per-sample logit table, defined only on the bound training set.

    Its features are the bound X itself, checked against the fingerprint;
    the head ignores them and returns the table.
    """

    kind = "nonparametric"
    param_names = ("L",)
    extra_keys = ("fingerprint",)

    def __init__(self, L: np.ndarray, fingerprint: str):
        self.L = matrix("L", L, "an n x K matrix")
        _check_finite(self.L)
        if not (isinstance(fingerprint, str) and re.fullmatch("[0-9a-f]{64}", fingerprint)):
            raise ValueError(f"fingerprint must be the 64 hex digits dataset_fingerprint writes, got {fingerprint!r}")
        self.fingerprint = fingerprint

    def features(self, X):
        X = matrix("X", X, "an n x d matrix")
        if len(X) != len(self.L) or dataset_fingerprint(X) != self.fingerprint:
            raise ValueError("nonparametric model does not generalise: X is not the bound training set")
        return X

    def head(self, F):
        return self.L.copy(), None

    def head_backward(self, F, saved, dZ):
        return {"L": dZ.copy()}


MODEL_KINDS = {cls.kind: cls for cls in (LinearModel, KernelModel, MlpModel, NonparametricModel)}


def init_model(kind: str, dims: dict, scale: float | None = None, rng=0, **kwargs) -> ClusterModel:
    """Random initialization: weights i.i.d. N(0, scale^2), biases 0.

    Default scale is 1/sqrt(fan-in) per weight matrix, except the kernel
    model which defaults to 1/n_ref. `dims` carries the
    model-specific sizes: d, k, hidden (mlp).

    Extra keyword arguments:
      kernel: X_ref and spec for the kernel model.
      X: bound training set for the nonparametric model.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {sorted(MODEL_KINDS)}")

    def need(source: dict, key: str):
        if key not in source:
            raise ValueError(f"a {kind} model needs {key!r} {'in dims' if source is dims else 'as a keyword argument'}")
        return source[key]

    gen = make_rng(rng)
    K = integer("k", need(dims, "k"), 1)
    scale = None if scale is None else number("scale", scale, "finite and >= 0", lambda v: v >= 0)

    def draw(shape, fan_in):
        return gen.normal(0.0, 1.0, size=shape) * (scale if scale is not None else 1.0 / math.sqrt(fan_in))

    if kind == "linear":
        d = integer("d", need(dims, "d"), 1)
        return LinearModel(draw((d, K), d), np.zeros(K))
    if kind == "kernel":
        X_ref = matrix("X_ref", need(kwargs, "X_ref"), "an n_ref x d matrix")
        spec = kwargs.get("spec") or KernelSpec("rbf")
        n_ref = len(X_ref)
        # kernel features are O(1) each and there are n_ref of them, so the
        # logits need a much smaller init than 1/sqrt(n_ref) to start near the
        # uniform responsibilities that gradient ascent escapes cleanly: the
        # default scale is 1/n_ref, i.e. a fan-in of n_ref**2
        return KernelModel(draw((n_ref, K), n_ref**2), np.zeros(K), X_ref, spec)
    if kind == "mlp":
        d, H = integer("d", need(dims, "d"), 1), integer("hidden", dims.get("hidden", 20), 1)
        return MlpModel(draw((d, H), d), np.zeros(H), draw((H, K), H), np.zeros(K))
    X = matrix("X", need(kwargs, "X"), "an n x d matrix")  # nonparametric, the one kind left
    return NonparametricModel(draw((len(X), K), 1), dataset_fingerprint(X))


def load_model(doc) -> ClusterModel:
    """Rebuild a model from its JSON document (string or parsed dict).

    Raises ValueError when the document is not a model of a known kind with
    exactly that kind's parameters and extra keys.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    kind = doc.get("kind")
    cls = MODEL_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {sorted(MODEL_KINDS)}")
    params = doc.get("params")
    if not isinstance(params, dict):
        raise ValueError(f"{cls.kind} model document needs a 'params' object")
    if set(params) != set(cls.param_names):
        raise ValueError(f"{cls.kind} model needs params {list(cls.param_names)}, got {sorted(params)}")
    missing = [key for key in cls.extra_keys if key not in doc]
    if missing:
        raise ValueError(f"{cls.kind} model document lacks {missing}")
    return cls._from_doc([params[name] for name in cls.param_names], doc)
