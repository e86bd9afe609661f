"""Differentiable clustering objectives over responsibility matrices.

All objectives are written to be *maximized*; the trainer negates them for
descent-form optimizers. Gradients are exact, including the dependence of
the Monte-Carlo cluster proportions on the responsibilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from miclust.errors import matrix, nonempty, number
from miclust.kernels import KernelMatrix, _map

# floor inside logs so that the 0*log(0) := 0 convention is numerically safe
_LOG_FLOOR = 1e-300
# clusters with smaller estimated proportion contribute nothing to MMD-GEMINI
_PROP_EPS = 1e-12
# below this value the MMD square root uses the 0 subgradient
_SQRT_EPS = 1e-18


@dataclass
class ObjectiveValue:
    """Objective value with its gradient w.r.t. the responsibilities.

    `grad_params` carries direct parameter gradients for penalties that act
    on the weights themselves (RIM's l2 term); empty for pure responsibility
    objectives.
    """

    value: float
    grad_resp: np.ndarray
    grad_params: dict = field(default_factory=dict)


def _check_resp(P: np.ndarray) -> np.ndarray:
    return matrix("P", P, "an n x K matrix with K >= 1 and n >= 1", nonempty)


def proportions(P: np.ndarray) -> np.ndarray:
    """Monte-Carlo cluster proportions: column means of the responsibilities."""
    P = _check_resp(P)
    return P.sum(axis=0) / P.shape[0]


def mi(P: np.ndarray) -> ObjectiveValue:
    """Monte-Carlo mutual information (1/n) sum_ik P_ik log(P_ik / pbar_k).

    The gradient reduces to (1/n) log(P_ik / pbar_k): the terms coming from
    the dependence of pbar on P cancel exactly.
    """
    P = _check_resp(P)
    n = P.shape[0]
    pbar = P.sum(axis=0) / n
    log_ratio = np.log(np.maximum(P, _LOG_FLOOR)) - np.log(np.maximum(pbar, _LOG_FLOOR))
    value = float((P * log_ratio).sum() / n)
    return ObjectiveValue(value, log_ratio / n)


def fairness_firmness(P: np.ndarray) -> tuple[float, float]:
    """Marginal entropy H(y) (fairness) and conditional entropy H(y|x) (firmness).

    MI = H(y) - H(y|x); a good clustering is fair (high H(y)) but firm
    (low H(y|x)).
    """
    P = _check_resp(P)
    pbar = P.sum(axis=0) / P.shape[0]
    h_marginal = float(-(pbar * np.log(np.maximum(pbar, _LOG_FLOOR))).sum())
    h_conditional = float(-(P * np.log(np.maximum(P, _LOG_FLOOR))).sum() / P.shape[0])
    return h_marginal, h_conditional


def rim(P: np.ndarray, weights: dict, lam: float) -> ObjectiveValue:
    """Regularised mutual information: MI minus lam * sum of squared weights.

    `weights` maps parameter names to weight matrices; biases must not be
    included. The returned `grad_params` holds -2*lam*W per entry.
    """
    lam = number("lambda", lam, "finite and >= 0", lambda v: v >= 0)
    base = mi(P)
    weights = {name: matrix(name, W, "a weight matrix") for name, W in weights.items()}
    penalty = sum(float(np.square(W).sum()) for W in weights.values())
    grad_params = {name: -2.0 * lam * W for name, W in weights.items()}
    return ObjectiveValue(base.value - lam * penalty, base.grad_resp, grad_params)


def mmd_gemini_ova(P: np.ndarray, K: KernelMatrix) -> ObjectiveValue:
    """One-vs-all MMD-GEMINI: sum_k pbar_k * MMD(cluster-k conditional || data).

    The cluster conditional is the importance-weighted empirical measure
    alpha_k,i = P_ik / (n pbar_k); the data measure is uniform beta_i = 1/n;
    MMD_k = sqrt((alpha_k - beta)^T Gram (alpha_k - beta)).
    """
    P = _check_resp(P)
    n, nk = P.shape
    G = matrix("K", K.values if isinstance(K, KernelMatrix) else K, "an n x n Gram matrix, n = P's rows",
               lambda s: s == (n, n))
    pbar = P.sum(axis=0) / n
    beta = np.full(n, 1.0 / n)
    value = 0.0
    grad = np.zeros_like(P)
    active = [k for k in range(nk) if pbar[k] >= _PROP_EPS]
    alphas = [P[:, k] / (n * pbar[k]) for k in active]
    vs = [alpha - beta for alpha in alphas]
    # one whole G @ v per cluster, concurrently when G is large; the rest runs in k order
    Gvs = _map(G.__matmul__, vs, G.nbytes)
    for k, alpha, v, Gv in zip(active, alphas, vs, Gvs):
        q = float(v @ Gv)
        if q < _SQRT_EPS:
            # collapsed cluster conditional: MMD 0 with 0 subgradient
            continue
        mmd = np.sqrt(q)
        value += pbar[k] * mmd
        # d value / dP_jk = mmd/n + (Gv_j - Gv.alpha) / (n * mmd)
        grad[:, k] = mmd / n + (Gv - float(Gv @ alpha)) / (n * mmd)
    return ObjectiveValue(float(value), grad)
