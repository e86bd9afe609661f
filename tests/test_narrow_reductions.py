"""The training epoch's narrow-array fast paths against the numpy expressions they replace.

`kernels._row_reduce` stands in for `A.max/min/sum(axis=1, keepdims=True)` on
n x K arrays, `Adam` keeps one flat moment vector over all parameters, and the
objectives take column means as `sum / n`. Each must give the bytes of the
expression it replaced, which is kept here as its oracle.
"""

import numpy as np
import pytest
from test_contrastive import _info_nce_five_temporaries

from miclust import KernelSpec, gram, info_nce_loss, init_model
from miclust.data import make_rng
from miclust.kernels import _row_reduce
from miclust.models import softmax, softmax_backward
from miclust.objectives import fairness_firmness, mi, mmd_gemini_ova, proportions
from miclust.optim import Adam

REDUCTIONS = {
    "max": (np.maximum, lambda A: A.max(axis=1, keepdims=True)),
    "min": (np.minimum, lambda A: A.min(axis=1, keepdims=True)),
    "sum": (np.add, lambda A: A.sum(axis=1, keepdims=True)),
}


def _narrow(n, K, seed):
    """Magnitudes spread over e^-8..e^8, signed zeros everywhere, infinities, and an all -0.0 row."""
    gen = make_rng(seed)
    A = gen.normal(size=(n, K)) * np.exp(gen.uniform(-8.0, 8.0, size=(n, K)))
    zeros = gen.random((n, K)) < 0.2
    A[zeros] = np.where(gen.random(zeros.sum()) < 0.5, 0.0, -0.0)
    A[0] = -0.0
    if n > 3:
        A[1] = np.where(np.arange(K) % 2 == 0, -0.0, 0.0)
        A[2, 0], A[3, -1] = np.inf, -np.inf
    return A


def _layouts(A):
    yield "C", A
    yield "F", np.asfortranarray(A)
    yield "strided-columns", np.repeat(A, 2, axis=1)[:, ::2]
    yield "strided-rows", np.repeat(A, 2, axis=0)[::2]


@pytest.mark.parametrize("n", [1, 7, 200, 4001])
@pytest.mark.parametrize("K", range(1, 13))
@pytest.mark.parametrize("name", list(REDUCTIONS))
def test_row_reduce_is_numpys_reduction_byte_for_byte(name, K, n):
    ufunc, numpy_reduction = REDUCTIONS[name]
    A = _narrow(n, K, seed=100 * K + n)
    for layout, view in _layouts(A):
        before = view.tobytes()
        out = _row_reduce(ufunc, view)
        expected = numpy_reduction(view)
        assert out.shape == expected.shape and out.dtype == expected.dtype, layout
        assert out.tobytes() == expected.tobytes(), layout
        assert view.tobytes() == before, layout


@pytest.mark.parametrize("name", list(REDUCTIONS))
def test_row_reduce_of_no_columns_is_numpys(name):
    ufunc, numpy_reduction = REDUCTIONS[name]
    A = np.zeros((5, 0))
    if name == "sum":
        assert _row_reduce(ufunc, A).tobytes() == numpy_reduction(A).tobytes()
        assert _row_reduce(ufunc, A).shape == (5, 1)
    else:
        with pytest.raises(ValueError):
            _row_reduce(ufunc, A)


def _responsibilities(n, K, seed):
    gen = make_rng(seed)
    Z = gen.normal(size=(n, K)) * np.exp(gen.uniform(-3.0, 3.0, size=(n, 1)))
    e = np.exp(Z - Z.max(axis=1, keepdims=True))
    return Z, e / e.sum(axis=1, keepdims=True)


SHAPES = [(1, 1), (7, 2), (200, 3), (201, 7), (64, 8), (33, 12)]


@pytest.mark.parametrize("n,K", SHAPES, ids=str)
def test_softmax_layer_is_the_reduce_expression_byte_for_byte(n, K):
    Z, P = _responsibilities(n, K, seed=n * K)
    dP = make_rng(n + K).normal(size=(n, K))
    assert softmax(Z).tobytes() == P.tobytes()
    assert softmax_backward(P, dP).tobytes() == (P * (dP - (dP * P).sum(axis=1, keepdims=True))).tobytes()


@pytest.mark.parametrize("n,K", SHAPES, ids=str)
def test_objectives_take_column_means_as_numpys_mean(n, K):
    _, P = _responsibilities(n, K, seed=7 * n + K)
    P[0, 0] = 0.0  # an exact zero, floored inside the logs
    pbar = P.mean(axis=0)
    log_ratio = np.log(np.maximum(P, 1e-300)) - np.log(np.maximum(pbar, 1e-300))
    obj = mi(P)
    assert np.float64(obj.value).tobytes() == np.float64((P * log_ratio).sum() / n).tobytes()
    assert obj.grad_resp.tobytes() == (log_ratio / n).tobytes()
    assert proportions(P).tobytes() == pbar.tobytes()
    h_marginal = float(-(pbar * np.log(np.maximum(pbar, 1e-300))).sum())
    assert fairness_firmness(P)[0] == h_marginal


def _mmd_gemini_ova_mean(P, G):
    """`mmd_gemini_ova` with its proportions taken by `P.mean(axis=0)`, kept as its oracle."""
    n, nk = P.shape
    pbar = P.mean(axis=0)
    value, grad = 0.0, np.zeros_like(P)
    for k in range(nk):
        if pbar[k] < 1e-12:
            continue
        alpha = P[:, k] / (n * pbar[k])
        v = alpha - np.full(n, 1.0 / n)
        Gv = G @ v
        q = float(v @ Gv)
        if q < 1e-18:
            continue
        mmd = np.sqrt(q)
        value += pbar[k] * mmd
        grad[:, k] = mmd / n + (Gv - float(Gv @ alpha)) / (n * mmd)
    return float(value), grad


@pytest.mark.parametrize("n,K", [(7, 2), (200, 3), (201, 7), (64, 8)], ids=str)
def test_mmd_gemini_ova_is_the_mean_expression_byte_for_byte(n, K):
    _, P = _responsibilities(n, K, seed=n + 11 * K)
    X = make_rng(n).normal(size=(n, 2))
    G = gram(X, X, KernelSpec("rbf", 0.5)).values
    obj = mmd_gemini_ova(P, G)
    value, grad = _mmd_gemini_ova_mean(P, G)
    assert np.float64(obj.value).tobytes() == np.float64(value).tobytes()
    assert obj.grad_resp.tobytes() == grad.tobytes()


@pytest.mark.parametrize("K", [1, 2, 7, 8, 12])
def test_info_nce_is_the_norm_expression_byte_for_byte(K):
    gen = make_rng(40 + K)
    Z = gen.normal(size=(150, K)) * np.exp(gen.uniform(-8.0, 8.0, size=(150, K)))
    Z_aug = gen.normal(size=(150, K))
    loss, dZ = info_nce_loss(Z, Z_aug)
    oracle_loss, oracle_dZ = _info_nce_five_temporaries(Z, Z_aug)
    assert np.float64(loss).tobytes() == np.float64(oracle_loss).tobytes()
    assert dZ.tobytes() == oracle_dZ.tobytes()


class PerParameterAdam:
    """Adam as one update per named array, kept as the flat Adam's oracle."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps, self.t = params, lr, beta1, beta2, eps, 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads):
        self.t += 1
        for k, p in self.params.items():
            g = grads[k]
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g**2
            m_hat = self.m[k] / (1 - self.beta1**self.t)
            v_hat = self.v[k] / (1 - self.beta2**self.t)
            p += self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@pytest.mark.parametrize("hyper", [{}, {"beta1": 0.5, "beta2": 0.9, "eps": 1e-3}], ids=["default", "custom"])
def test_flat_adam_matches_the_per_parameter_loop_after_every_step(hyper):
    flat_model = init_model("mlp", {"d": 2, "k": 3, "hidden": 20}, rng=5)
    loop_model = init_model("mlp", {"d": 2, "k": 3, "hidden": 20}, rng=5)
    flat, loop = Adam(flat_model.params, 1e-2, **hyper), PerParameterAdam(loop_model.params, 1e-2, **hyper)
    gen = make_rng(6)
    for step in range(300):
        # gradient scales drift over e^-8..e^8, with exact zeros and signed zeros mixed in
        grads = {}
        for k, p in flat_model.params.items():
            g = gen.normal(size=p.shape) * np.exp(gen.uniform(-8.0, 8.0))
            g[gen.random(p.shape) < 0.1] = -0.0 if step % 2 else 0.0
            grads[k] = g
        flat.step(grads)
        loop.step({k: g.copy() for k, g in grads.items()})
        for k in flat_model.params:
            assert flat_model.params[k].tobytes() == loop_model.params[k].tobytes(), (step, k)


def test_adam_updates_the_caller_arrays_in_place():
    model = init_model("mlp", {"d": 2, "k": 3, "hidden": 4}, rng=0)
    arrays = {k: id(v) for k, v in model.params.items()}
    before = {k: v.copy() for k, v in model.params.items()}
    Adam(model.params, 0.1).step({k: np.ones_like(v) for k, v in model.params.items()})
    assert {k: id(v) for k, v in model.params.items()} == arrays
    assert all(not np.array_equal(model.params[k], before[k]) for k in before)


BAD_GRADIENTS = {"row": lambda g: g[0], "leading-axis": lambda g: g[None], "flat": np.ravel, "scalar": lambda g: 1.0}


@pytest.mark.parametrize("bad", list(BAD_GRADIENTS.values()), ids=list(BAD_GRADIENTS))
def test_adam_rejects_a_gradient_shaped_unlike_its_parameter(bad):
    model = init_model("linear", {"d": 2, "k": 3}, rng=0)
    before = {k: v.copy() for k, v in model.params.items()}
    opt = Adam(model.params, 0.1)
    grads = {k: np.ones_like(v) for k, v in model.params.items()}
    grads["W"] = bad(grads["W"])
    with pytest.raises(ValueError, match="'W'"):
        opt.step(grads)
    assert opt.t == 0
    assert all(np.array_equal(model.params[k], before[k]) for k in before)


@pytest.mark.parametrize("n,d", [(100, 2), (300, 7)])
def test_linear_gram_of_an_equal_copy_is_the_gram_of_the_array_itself(n, d):
    X = make_rng(n + d).normal(size=(n, d))
    same = gram(X, X, KernelSpec("linear")).values
    assert gram(X, X.copy(), KernelSpec("linear")).values.tobytes() == same.tobytes()
    assert gram(X.copy(), X, KernelSpec("linear")).values.tobytes() == same.tobytes()
    Y = X.copy()
    Y[-1, -1] += 1.0  # unequal arrays still get the general product
    assert np.array_equal(gram(X, Y, KernelSpec("linear")).values, X @ Y.T)
