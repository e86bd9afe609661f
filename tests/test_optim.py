"""Tests for the Adam trainer, fit reports and the gradient checker."""

import numpy as np
import pytest

from miclust import KernelSpec, TrainConfig, check_gradients, fit, init_model, predict
from miclust.data import make_circles, make_rng, standardize
from miclust.errors import NumericError
from miclust.optim import OBJECTIVES, Adam


def small_data(seed=0, n=12):
    return standardize(make_circles(n, 0.05, 0.3, seed))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(adam_beta1=1.0)
    with pytest.raises(ValueError):
        TrainConfig(adam_eps=0.0)
    with pytest.raises(ValueError):
        TrainConfig(objective="entropy")
    with pytest.raises(ValueError):
        TrainConfig(lam=-1.0)


def test_adam_first_step_has_unit_scale():
    # after one step every coordinate moves by ~lr in the gradient direction
    params = {"w": np.zeros(3)}
    opt = Adam(params, lr=0.1)
    opt.step({"w": np.array([4.0, -2.0, 1.0])})
    assert np.allclose(params["w"], [0.1, -0.1, 0.1], atol=1e-6)


def test_adam_accumulates_in_place():
    params = {"w": np.zeros(1)}
    opt = Adam(params, lr=0.5)
    for _ in range(10):
        opt.step({"w": np.array([1.0])})
    assert params["w"][0] > 1.0


def test_fit_increases_the_objective():
    X = small_data()
    model = init_model("linear", {"d": 2, "k": 2}, rng=0)
    report = fit(model, X.values, TrainConfig(epochs=50, objective="mi"))
    assert len(report.history) == 50
    assert report.history[-1] > report.history[0]


def test_fit_zero_epochs_returns_initial_labels():
    X = small_data()
    model = init_model("linear", {"d": 2, "k": 2}, rng=0)
    before = predict(model, X.values)
    report = fit(model, X.values, TrainConfig(epochs=0))
    assert report.history == []
    assert np.array_equal(np.asarray(report.labels), before)


def test_fit_report_json_is_deterministic():
    X = small_data()
    reports = []
    for _ in range(2):
        model = init_model("linear", {"d": 2, "k": 2}, rng=5)
        reports.append(fit(model, X.values, TrainConfig(epochs=20, seed=5)).to_json())
    assert reports[0] == reports[1]


def test_fit_echoes_config_and_model_kind():
    X = small_data()
    model = init_model("mlp", {"d": 2, "k": 2, "hidden": 4}, rng=0)
    cfg = TrainConfig(epochs=5, objective="mmd-gemini", kernel=KernelSpec("rbf", 0.5))
    report = fit(model, X.values, cfg)
    assert report.config["model"] == "mlp"
    assert report.config["objective"] == "mmd-gemini"
    assert report.config["kernel"] == {"kind": "rbf", "gamma": 0.5}


def test_fit_echoes_no_kernel_when_the_objective_uses_none():
    X = small_data()
    model = init_model("mlp", {"d": 2, "k": 2, "hidden": 4}, rng=0)
    report = fit(model, X.values, TrainConfig(epochs=5, objective="mi", kernel=KernelSpec("rbf", 0.5)))
    assert report.config["kernel"] is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_raises_numeric_error_on_nonfinite_objective():
    X = small_data()
    model = init_model("linear", {"d": 2, "k": 2}, rng=0)
    model.W[0, 0] = 1e308
    model.W[0, 1] = -1e308
    with pytest.raises((NumericError, ValueError)):
        fit(model, X.values, TrainConfig(epochs=5, objective="rim", lam=1.0))


@pytest.mark.parametrize(
    "kind,objective,lam,lr,epochs",
    [("linear", "rim", 0.1, 1e300, 5), ("mlp", "mi", 0.0, 1e300, 5), ("mlp", "mmd-gemini", 0.0, 1e300, 5),
     ("mlp", "mi", 0.0, 1e160, 1)],
    ids=["linear-rim", "mlp-mi", "mlp-mmd", "mlp-mi-one-step"],
)
def test_a_fit_that_diverges_raises_numeric_error_without_a_warning(kind, objective, lam, lr, epochs):
    # the suite turns a numpy warning into an error; the one-step fit's responsibilities are all NaN, not labels
    X = make_circles(120, 0.05, 0.1, 0).values
    model = init_model(kind, {"d": 2, "k": 2, "hidden": 20}, rng=0)
    with pytest.raises(NumericError, match="non-finite|not finite"):
        fit(model, X, TrainConfig(epochs=epochs, learning_rate=lr, objective=objective, lam=lam))


def test_predict_breaks_ties_toward_lowest_index():
    model = init_model("linear", {"d": 2, "k": 3}, scale=0.0, rng=0)
    labels = predict(model, np.zeros((4, 2)))
    assert np.array_equal(labels, np.zeros(4, dtype=np.int64))


@pytest.mark.parametrize("kind", ["linear", "kernel", "mlp", "nonparametric"])
@pytest.mark.parametrize("objective", list(OBJECTIVES))
def test_gradient_check_every_model_objective_pair(kind, objective):
    X = small_data(seed=1)
    kwargs = {}
    if kind == "kernel":
        kwargs["X_ref"] = X.values
    if kind == "nonparametric":
        kwargs["X"] = X.values
    model = init_model(kind, {"d": 2, "k": 2, "hidden": 4}, scale=0.3, rng=2, **kwargs)
    tol = 1e-4 if objective == "mmd-gemini" else 1e-5
    report = check_gradients(model, objective, X.values, tol=tol, lam=0.1)
    assert report.passed, f"{kind}/{objective}: max rel err {report.max_rel_err}"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["learning_rate", "adam_eps", "lam"])
def test_train_config_rejects_non_finite_settings(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("epochs,type_name", [(2.5, "float"), ("3", "str"), (None, "NoneType"), (3.0, "float")])
def test_train_config_names_the_type_of_epochs_that_are_not_an_integer(epochs, type_name):
    with pytest.raises(ValueError, match=rf"epochs must be an integer from 0 to 2\*\*63 - 1, got {type_name}"):
        TrainConfig(epochs=epochs)


@pytest.mark.parametrize(
    "field,value,type_name",
    [("lam", "1", "str"), ("learning_rate", "1", "str"), ("adam_beta1", None, "NoneType"), ("seed", "x", "str"),
     ("seed", 1.0, "float"), ("objective", 1, "int"), ("kernel", "rbf", "str")],
)
def test_train_config_names_a_field_of_the_wrong_type(field, value, type_name):
    # each raised a TypeError on its first comparison, or was accepted and failed later in fit
    with pytest.raises(ValueError, match=f"^{field} must be .*, got {type_name} "):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field", ["learning_rate", "adam_eps", "lam"])
def test_train_config_rejects_an_integer_beyond_float64(field):
    # such an int compares below inf, and fit then failed with OverflowError converting it
    with pytest.raises(ValueError, match=f"^{field} must be .*finite.*, got int 1000"):
        TrainConfig(**{field: 10**400})
    assert getattr(TrainConfig(**{field: 10**300}), field) == 10**300


def test_train_config_takes_any_integer_epochs_and_reports_them():
    cfg = TrainConfig(epochs=np.int64(3), objective="rim")
    assert type(cfg.epochs) is int and cfg.epochs == 3
    data = standardize(make_circles(20, 0.05, 0.1, 0))
    report = fit(init_model("linear", {"d": 2, "k": 2}), data.values, cfg)
    assert len(report.history) == 3 and '"epochs": 3' in report.to_json()
    with pytest.raises(ValueError, match=r"epochs must be an integer from 0 to 2\*\*63 - 1, got int -1"):
        TrainConfig(epochs=-1)


# per case, from a number maker num(numpy_type, value): the model kind, its extra init arguments and its config fields
NUMPY_SCALAR_CASES = {
    "seed": lambda num: ("linear", {}, {"seed": num(np.int64, 3)}),
    "lam": lambda num: ("linear", {}, {"lam": num(np.float32, 0.5), "objective": "rim"}),
    "training-gamma": lambda num: ("mlp", {}, {"objective": "mmd-gemini",
                                               "kernel": KernelSpec("rbf", num(np.float32, 0.5))}),
    "head-gamma": lambda num: ("kernel", {"spec": KernelSpec("rbf", num(np.float32, 0.5))}, {}),
}


@pytest.mark.parametrize("case", list(NUMPY_SCALAR_CASES))
def test_a_numpy_number_setting_reports_as_its_python_number(case):
    values = small_data().values

    def documents(num):
        kind, init_kwargs, cfg_kwargs = NUMPY_SCALAR_CASES[case](num)
        model = init_model(kind, {"d": 2, "k": 2, "hidden": 4}, rng=1, X_ref=values, **init_kwargs)
        return fit(model, values, TrainConfig(epochs=3, **cfg_kwargs)).to_json(), model.to_json()

    assert documents(lambda numpy_type, value: numpy_type(value)) == documents(lambda numpy_type, value: value)
