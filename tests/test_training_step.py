"""The one-pass training step against the per-epoch public-API loop.

`fit`, `train_contrastive` and `check_gradients` build each fit's features
once and let backward reuse the forward's intermediates. The reference loops
here call the public `forward`/`backward` (or `logits`/`backward_from_logits`)
every epoch, rebuilding everything from X, and must give byte-identical
reports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import miclust as mc
import miclust.models
import miclust.objectives
import miclust.optim
from miclust import FitReport, TrainConfig
from miclust.data import make_rng
from miclust.optim import Adam, _objective_epoch, _train, evaluate_objective, training_gram

SRC = Path(__file__).resolve().parents[1] / "src"


def reference_fit(model, X, cfg: TrainConfig) -> str:
    """The per-epoch loop over the public forward/backward, as a report JSON."""
    G = training_gram(X, cfg.objective, cfg.kernel)
    opt = Adam(model.params, cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    history = []
    for _ in range(cfg.epochs):
        obj = evaluate_objective(model, model.forward(X), cfg.objective, cfg.lam, G)
        history.append(obj.value)
        grads = model.backward(X, obj.grad_resp)
        for name, extra in obj.grad_params.items():
            grads[name] = grads[name] + extra
        opt.step(grads)
    config = dict(cfg.to_dict(), model=model.kind)
    if G is not None:
        config["kernel"] = G.spec.to_dict()
    labels = mc.predict(model, X).tolist()
    return FitReport(history, json.loads(model.to_json()), labels, config, 0.0).to_json()


def reference_contrastive(critic, X, aug, cfg: TrainConfig) -> str:
    """The per-epoch contrastive loop over the public logits/backward_from_logits."""
    gen = make_rng(cfg.seed)
    opt = Adam(critic.params, cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    history = []
    for _ in range(cfg.epochs):
        X_aug = mc.augment(X, aug, gen)
        loss, dZ = mc.info_nce_loss(critic.logits(X), critic.logits(X_aug))
        history.append(loss)
        opt.step(critic.backward_from_logits(X, -dZ))
    config = dict(cfg.to_dict(), model="critic", augmentation=aug.describe())
    labels = mc.extract_clusters(critic, X).tolist()
    return FitReport(history, json.loads(critic.to_json()), labels, config, 0.0).to_json()


@pytest.fixture(scope="module")
def circles():
    return mc.standardize(mc.make_circles(40, 0.05, 0.1, 0))


def make_model(kind, X, seed):
    kwargs = {"X_ref": X} if kind == "kernel" else {"X": X} if kind == "nonparametric" else {}
    return mc.init_model(kind, {"d": 2, "k": 3, "hidden": 6}, rng=seed, **kwargs)


@pytest.mark.parametrize("kind", ["linear", "kernel", "mlp", "nonparametric"])
@pytest.mark.parametrize("objective", list(miclust.optim.OBJECTIVES))
def test_fit_matches_per_epoch_reference(circles, kind, objective):
    cfg = TrainConfig(epochs=40, learning_rate=1e-2, seed=3, objective=objective, lam=0.05)
    fast = mc.fit(make_model(kind, circles.values, 3), circles.values, cfg).to_json()
    assert fast == reference_fit(make_model(kind, circles.values, 3), circles.values, cfg)


@pytest.mark.parametrize("aug", [mc.Rotation2D(0.0, 2 * np.pi), mc.GaussianNoise(0.5)], ids=["rotation", "noise"])
def test_train_contrastive_matches_per_epoch_reference(circles, aug):
    cfg = TrainConfig(epochs=60, learning_rate=1e-3, seed=2)
    fast = mc.train_contrastive(mc.init_critic(2, 8, 2, rng=2), circles.values, aug, cfg).to_json()
    assert fast == reference_contrastive(mc.init_critic(2, 8, 2, rng=2), circles.values, aug, cfg)


def counting(monkeypatch, module, name):
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def counting_methods(monkeypatch, cls, *names):
    """Count calls of the named methods on a model class, as the instances of that class make them."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(cls, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return counts


@pytest.mark.parametrize("kind", ["linear", "kernel", "mlp", "nonparametric"])
@pytest.mark.parametrize("objective", list(miclust.optim.OBJECTIVES))
def test_each_fit_epoch_runs_head_and_head_backward_once(monkeypatch, circles, kind, objective):
    model = make_model(kind, circles.values, 0)
    counts = counting_methods(monkeypatch, type(model), "head", "head_backward", "forward", "backward", "logits")
    mc.fit(model, circles.values, TrainConfig(epochs=7, learning_rate=1e-2, objective=objective, lam=0.05))
    # one head per epoch plus one for the final labels; the X-level wrappers are not used
    assert counts == {"head": 8, "head_backward": 7, "forward": 0, "backward": 0, "logits": 0}
    assert not hasattr(model, "step") and not hasattr(model, "step_backward")


@pytest.mark.parametrize("objective", list(miclust.optim.OBJECTIVES))
def test_check_gradients_runs_head_backward_once(monkeypatch, circles, objective):
    model = make_model("mlp", circles.values, 0)
    counts = counting_methods(monkeypatch, type(model), "head", "head_backward")
    mc.check_gradients(model, objective, circles.values, lam=0.05)
    # the analytic epoch, then two value-only epochs per scalar parameter
    n_scalars = sum(p.size for p in model.params.values())
    assert counts == {"head": 1 + 2 * n_scalars, "head_backward": 1}


def test_each_contrastive_epoch_runs_one_trained_head_and_head_backward(monkeypatch, circles):
    critic = mc.init_critic(2, 8, 2, rng=2)
    counts = counting_methods(monkeypatch, type(critic), "head", "head_backward", "logits")
    mc.train_contrastive(critic, circles.values, mc.GaussianNoise(0.5), TrainConfig(epochs=7, seed=2))
    # per epoch: the trained branch's head and head_backward, and the stop-gradient
    # augmented branch through `logits` (one more head, never backpropagated); then the labels' head
    assert counts == {"head": 7 + 7 + 1, "head_backward": 7, "logits": 7}


def test_fit_rejects_a_non_finite_responsibility_gradient(monkeypatch, circles):
    def finite_value_nan_gradient(model, P, lam, G):
        return miclust.objectives.ObjectiveValue(0.5, np.full_like(P, np.nan), {})

    monkeypatch.setitem(miclust.optim.OBJECTIVES, "mi", (False, finite_value_nan_gradient))
    model = make_model("linear", circles.values, 0)
    with pytest.raises(ValueError, match="gradient w.r.t. responsibilities contains non-finite entries"):
        mc.fit(model, circles.values, TrainConfig(epochs=3, objective="mi"))


def test_kernel_rim_builds_its_gram_once_per_fit(monkeypatch):
    c = mc.standardize(mc.make_circles(200, 0.05, 0.1, 0))
    model = mc.init_model("kernel", {"k": 2}, rng=0, X_ref=c.values)
    calls = counting(monkeypatch, miclust.models, "gram")
    optim_calls = counting(monkeypatch, miclust.optim, "gram")
    mc.fit(model, c.values, TrainConfig(epochs=1000, seed=0, objective="rim"))
    assert calls[0] + optim_calls[0] <= 2


def two_gram_fit(model, X, cfg: TrainConfig) -> str:
    """`fit` as it was before a kernel head could share the training Gram: both built."""
    G = training_gram(X, cfg.objective, cfg.kernel)
    F = model.features(X)
    config = dict(cfg.to_dict(), model=model.kind, kernel=G.spec.to_dict())
    epoch = _objective_epoch(model, F, cfg.objective, cfg.lam, G)
    return _train(model, cfg, epoch, lambda: mc.models.softmax(model.head(F)[0]), config).to_json()


@pytest.mark.parametrize("spec", [mc.KernelSpec("rbf"), mc.KernelSpec("linear")], ids=["rbf", "linear"])
def test_kernel_mmd_gemini_fit_shares_its_features_as_the_training_gram(monkeypatch, spec):
    # gram(X, Y) gives the same bits for every Y equal to X (an equal linear Y takes X's syrk path), so a head
    # whose X_ref is only an equal copy of X shares the training Gram too
    X = mc.standardize(mc.make_circles(100, 0.05, 0.1, 0)).values
    cfg = TrainConfig(epochs=200, learning_rate=1e-2, seed=4, objective="mmd-gemini", kernel=spec)
    for X_ref, grams in ((X, 1), (X.copy(), 1)):
        expected = two_gram_fit(mc.init_model("kernel", {"k": 2}, rng=4, X_ref=X_ref, spec=spec), X, cfg)
        calls = counting(monkeypatch, miclust.models, "gram")
        optim_calls = counting(monkeypatch, miclust.optim, "gram")
        report = mc.fit(mc.init_model("kernel", {"k": 2}, rng=4, X_ref=X_ref, spec=spec), X, cfg)
        monkeypatch.undo()
        assert calls[0] + optim_calls[0] == grams
        assert report.to_json() == expected


def test_kernel_fit_shares_the_training_gram_with_an_equal_x_ref_in_another_layout(monkeypatch):
    # kernel matrices depend on values only, so a Fortran-ordered X_ref gives the Gram of the C-ordered one
    X = make_rng(5).normal(size=(120, 7))
    spec = mc.KernelSpec("rbf", 0.3)
    cfg = TrainConfig(epochs=50, learning_rate=1e-2, seed=4, objective="mmd-gemini", kernel=spec)
    expected = two_gram_fit(mc.init_model("kernel", {"k": 2}, rng=4, X_ref=np.asfortranarray(X), spec=spec), X, cfg)
    c_ordered = mc.fit(mc.init_model("kernel", {"k": 2}, rng=4, X_ref=X, spec=spec), X, cfg).to_json()
    calls = counting(monkeypatch, miclust.models, "gram")
    optim_calls = counting(monkeypatch, miclust.optim, "gram")
    report = mc.fit(mc.init_model("kernel", {"k": 2}, rng=4, X_ref=np.asfortranarray(X), spec=spec), X, cfg)
    monkeypatch.undo()
    assert calls[0] + optim_calls[0] == 1
    assert report.to_json() == expected == c_ordered


def test_nonparametric_fit_checks_its_binding_once(monkeypatch, circles):
    calls = counting(monkeypatch, miclust.models, "dataset_fingerprint")
    model = mc.init_model("nonparametric", {"k": 2}, rng=0, X=circles.values)
    mc.fit(model, circles.values, TrainConfig(epochs=1000, objective="mi"))
    assert calls[0] <= 2


BLAS_SCRIPT = """
import hashlib
import miclust as mc
from miclust import TrainConfig
c = mc.standardize(mc.make_circles(200, 0.05, 0.1, 0))
X = c.values
reports = [
    mc.fit(mc.init_model("kernel", {"k": 2}, rng=1, X_ref=X), X, TrainConfig(epochs=300, seed=1, objective="rim")),
    mc.fit(mc.init_model("mlp", {"d": 2, "k": 2, "hidden": 20}, rng=1), X,
           TrainConfig(epochs=300, seed=1, objective="mmd-gemini")),
    mc.train_contrastive(mc.init_critic(2, 20, 2, rng=1), X, mc.Rotation2D(0.0, 6.2832),
                         TrainConfig(epochs=300, learning_rate=1e-4, seed=1)),
]
for r in reports:
    print(hashlib.sha256(r.to_json().encode()).hexdigest())
"""


def test_reports_do_not_depend_on_blas_thread_count():
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_SCRIPT], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 3
    assert digests[0] == digests[1]
