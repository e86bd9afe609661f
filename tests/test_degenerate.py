"""Degenerate inputs under each objective: a finite report or a ValueError, never a numeric failure.

Covered: duplicate and all-identical points, more clusters than samples,
rbf bandwidths of 1e-300 and 1e300, and a responsibility matrix collapsed
onto one cluster.
"""

import numpy as np
import pytest

import miclust as mc
from miclust.optim import OBJECTIVES

KINDS = ("linear", "kernel", "mlp")
X_CIRCLES = mc.make_circles(12, 0.05, 0.3, 0).values


def _collapse(model):
    """Push the output bias of cluster 0 so far up that every responsibility is exactly one-hot."""
    getattr(model, model.param_names[-1])[0] = 800.0


CASES = {
    "duplicate-points": dict(X=np.repeat(X_CIRCLES[:4], 3, axis=0)),
    "identical-points": dict(X=np.ones((8, 2))),
    "k-greater-than-n": dict(X=X_CIRCLES[:3], k=5),
    "gamma-1e-300": dict(X=X_CIRCLES, gamma=1e-300),
    "gamma-1e300": dict(X=X_CIRCLES, gamma=1e300),
    "collapsed-responsibilities": dict(X=X_CIRCLES, prepare=_collapse),
}


def _fit(kind, objective, X, k=2, gamma=None, prepare=None):
    spec = mc.KernelSpec("rbf", gamma)
    model = mc.init_model(kind, {"d": X.shape[1], "k": k, "hidden": 4}, rng=0, X_ref=X, spec=spec)
    if prepare is not None:
        prepare(model)
    cfg = mc.TrainConfig(
        epochs=20,
        learning_rate=1e-2,
        objective=objective,
        lam=0.1 if objective == "rim" else 0.0,
        kernel=spec,
    )
    return mc.fit(model, X, cfg), k


@pytest.mark.parametrize("objective", list(OBJECTIVES))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_degenerate_input_gives_finite_report_or_value_error(case, kind, objective):
    inputs = CASES[case]
    # identical points have zero variance, so there is no default rbf bandwidth
    # for the kernel head's features or for an objective's training Gram
    if case == "identical-points" and (kind == "kernel" or OBJECTIVES[objective][0]):
        with pytest.raises(ValueError, match="zero variance"):
            _fit(kind, objective, **inputs)
        return
    report, k = _fit(kind, objective, **inputs)
    assert len(report.history) == 20 and np.all(np.isfinite(report.history))
    for values in report.final_model["params"].values():
        assert np.all(np.isfinite(np.asarray(values, dtype=np.float64)))
    assert len(report.labels) == inputs["X"].shape[0]
    assert all(0 <= label < k for label in report.labels)
    if case == "collapsed-responsibilities":
        # every gradient through an exactly one-hot softmax vanishes, so the fit stays collapsed
        assert set(report.labels) == {0}


@pytest.mark.parametrize("objective", list(OBJECTIVES))
def test_collapsed_responsibilities_score_zero_with_finite_gradient(objective):
    P = np.zeros((10, 3))
    P[:, 1] = 1.0
    G = mc.gram(X_CIRCLES[:10], X_CIRCLES[:10], mc.KernelSpec("rbf", 1.0))
    # no weights, as for a nonparametric model, so RIM's penalty adds nothing
    value = OBJECTIVES[objective][1](P, {}, 0.1, G)
    assert value.value == 0.0
    assert np.all(np.isfinite(value.grad_resp))
