"""End-to-end tests of the command line interface, exit codes and file formats."""

import argparse
import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import miclust as mc
import miclust.baselines
import miclust.cli
import miclust.contrastive
import miclust.models
import miclust.optim
from miclust.cli import main
from miclust.data import load_csv


@pytest.fixture
def circles_csv(tmp_path):
    path = tmp_path / "circles.csv"
    code = main(
        [
            "generate",
            "circles",
            "--n", "60",
            "--noise", "0.05",
            "--factor", "0.1",
            "--seed", "0",
            "--standardize",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


def test_generate_circles_csv_format(circles_csv):
    with open(circles_csv, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["f0", "f1", "label"]
    dm = load_csv(circles_csv)
    assert dm.n == 60
    assert np.allclose(dm.values.mean(axis=0), 0.0, atol=1e-12)


def test_generate_blobs(tmp_path):
    path = tmp_path / "blobs.csv"
    code = main(
        ["generate", "blobs", "--means", "0,0;8,0", "--std", "0.5", "--count", "10", "--out", str(path)]
    )
    assert code == 0
    assert load_csv(path).n == 20


def test_fit_kmeans_writes_report_and_labels(tmp_path, circles_csv):
    out = tmp_path / "run"
    code = main(["fit", "--model", "kmeans", "--data", str(circles_csv), "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["model"] == "kmeans"
    assert "ari" in report["metrics"]
    with open(out / "labels.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "label"]
    assert len(rows) == 61


def test_fit_linear_rim_with_history(tmp_path, circles_csv):
    out = tmp_path / "run"
    code = main(
        [
            "fit",
            "--model", "linear-rim",
            "--data", str(circles_csv),
            "--epochs", "20",
            "--out-dir", str(out),
            "--history-csv",
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["objective"] == "rim"
    assert report["config"]["lam"] == 0.1  # default penalty for the linear model
    assert len(report["history"]) == 20
    with open(out / "history.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "value"]
    assert len(rows) == 21


def test_fit_is_deterministic_across_runs(tmp_path, circles_csv):
    texts = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            ["fit", "--model", "mlp", "--objective", "mi", "--data", str(circles_csv),
             "--epochs", "15", "--seed", "3", "--out-dir", str(out)]
        )
        assert code == 0
        texts.append((out / "report.json").read_text())
    assert texts[0] == texts[1]


def test_boundary_constant_model_gives_half(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"kind": "linear", "params": {"W": [[0.0, 0.0], [0.0, 0.0]], "b": [0.0, 0.0]}}))
    out = tmp_path / "grid.csv"
    code = main(["boundary", "--model", str(model_path), "--resolution", "5", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "x1", "p_cluster2"]
    assert len(rows) == 26
    assert all(float(r[2]) == 0.5 for r in rows[1:])


def test_boundary_rejects_nonparametric(tmp_path, circles_csv):
    out = tmp_path / "run"
    main(["fit", "--model", "nonparametric", "--objective", "mi", "--data", str(circles_csv),
          "--epochs", "5", "--out-dir", str(out)])
    code = main(["boundary", "--model", str(out / "report.json"), "--out", str(tmp_path / "g.csv")])
    assert code == 2


# the kernel each run's kernel K-means score must use, written out by hand: the kernel it trained
# against, else its kernel head's own, else linear; an unset rbf gamma resolves on the data as in the fit
SCORE_KERNEL_CASES = {
    "kernel-rim": (["fit", "--model", "kernel-rim"], mc.KernelSpec("rbf")),
    "kernel-linear": (["fit", "--model", "kernel", "--kernel", "linear"], mc.KernelSpec("linear")),
    "kernel-gamma": (["fit", "--model", "kernel", "--gamma", "0.7"], mc.KernelSpec("rbf", 0.7)),
    "kernel-mmd": (["fit", "--model", "kernel", "--objective", "mmd-gemini"], mc.KernelSpec("rbf")),
    "mlp-mmd-gamma": (["fit", "--model", "mlp", "--objective", "mmd-gemini", "--gamma", "2.0"],
                      mc.KernelSpec("rbf", 2.0)),
    "mlp-mi": (["fit", "--model", "mlp"], mc.KernelSpec("linear")),
    "spectral-gamma": (["fit", "--model", "spectral", "--gamma", "3.0"], mc.KernelSpec("rbf", 3.0)),
    "kmeans": (["fit", "--model", "kmeans"], mc.KernelSpec("linear")),
    "contrastive": (["contrastive", "--aug", "noise:0.5"], mc.KernelSpec("linear")),
}


@pytest.mark.parametrize("case", list(SCORE_KERNEL_CASES))
def test_kernel_kmeans_score_uses_the_fits_kernel(tmp_path, circles_csv, case):
    argv, expected = SCORE_KERNEL_CASES[case]
    out = tmp_path / "run"
    assert main([*argv, "--data", str(circles_csv), "--epochs", "5", "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    X = load_csv(circles_csv).values
    score = mc.kernel_kmeans_score(report["labels"], mc.gram(X, X, expected))
    assert report["metrics"]["kernel_kmeans_score"] == score


def _count_gram_calls(monkeypatch):
    calls = []
    for module in (miclust.cli, miclust.optim, miclust.models):
        def counted(*args, _gram=module.gram, **kwargs):
            calls.append(1)
            return _gram(*args, **kwargs)

        monkeypatch.setattr(module, "gram", counted)
    return calls


# fits whose kernel K-means score uses the kernel matrix the fit already built on the same samples
HELD_GRAM_CASES = {
    "kernel-rim": ["--model", "kernel-rim"],
    "kernel-mmd": ["--model", "kernel", "--objective", "mmd-gemini"],
    "mlp-mmd": ["--model", "mlp", "--objective", "mmd-gemini"],
}


@pytest.mark.parametrize("case", list(HELD_GRAM_CASES))
def test_fit_scores_with_the_gram_it_trained_with(tmp_path, circles_csv, case, monkeypatch):
    argv = ["fit", *HELD_GRAM_CASES[case], "--data", str(circles_csv), "--epochs", "5", "--out-dir"]
    with monkeypatch.context() as patch:
        # the reference run hands no matrix on, so the score rebuilds its Gram
        def fit_handing_on_nothing(*args, _fit=miclust.cli.fit, **kwargs):
            report = _fit(*args, **kwargs)
            report.gram = None
            return report

        patch.setattr(miclust.cli, "fit", fit_handing_on_nothing)
        rebuilt = _count_gram_calls(patch)
        assert main([*argv, str(tmp_path / "rebuilt")]) == 0
    held = _count_gram_calls(monkeypatch)
    assert main([*argv, str(tmp_path / "held")]) == 0
    assert (len(held), len(rebuilt)) == (1, 2)
    assert (tmp_path / "held" / "report.json").read_bytes() == (tmp_path / "rebuilt" / "report.json").read_bytes()


def test_boundary_critic_grid(tmp_path, circles_csv):
    out = tmp_path / "con"
    code = main(["contrastive", "--data", str(circles_csv), "--aug", "noise:0.5",
                 "--epochs", "5", "--out-dir", str(out)])
    assert code == 0
    grid = tmp_path / "critic.csv"
    code = main(["boundary", "--model", str(out / "report.json"), "--critic",
                 "--resolution", "4", "--out", str(grid)])
    assert code == 0
    with open(grid, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "x1", "argmax_value"]
    assert set(r[2] for r in rows[1:]) <= {"0", "1"}


def test_sweep_csv_sorted(tmp_path, circles_csv):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--model", "kmeans", "--data", str(circles_csv),
                 "--k-range", "2:3", "--seeds", "1,0", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(int(r["k"]), int(r["seed"])) for r in rows] == [(2, 0), (2, 1), (3, 0), (3, 1)]
    assert all(1 <= int(r["used_clusters"]) <= int(r["k"]) for r in rows)


SWEEP_MMD = ["--model", "mlp", "--objective", "mmd-gemini", "--epochs", "5"]


def test_sweep_builds_one_gram_per_fit(tmp_path, circles_csv, monkeypatch):
    calls = _count_gram_calls(monkeypatch)
    code = main(["sweep", *SWEEP_MMD, "--data", str(circles_csv), "--k-range", "2:4", "--seeds", "0,1",
                 "--out", str(tmp_path / "sweep.csv")])
    assert code == 0
    assert len(calls) == 6  # one training Gram per fit; the sweep scores no kernel K-means


def test_sweep_rows_score_each_fits_labels(tmp_path, circles_csv):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *SWEEP_MMD, "--data", str(circles_csv), "--k-range", "2:3", "--seeds", "1,0",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    X = load_csv(circles_csv)
    for row in rows:
        run = tmp_path / f"fit-{row['k']}-{row['seed']}"
        assert main(["fit", *SWEEP_MMD, "--data", str(circles_csv), "--k", row["k"], "--seed", row["seed"],
                     "--out-dir", str(run)]) == 0
        labels = json.loads((run / "report.json").read_text())["labels"]
        assert float(row["ari"]) == mc.ari(X.labels, labels)
        try:
            assert float(row["silhouette"]) == mc.silhouette(X.values, labels)[0]
        except ValueError:  # one cluster used: the silhouette is undefined and the cell empty
            assert row["silhouette"] == ""


def test_sweep_lets_each_fits_training_gram_go_before_scoring(tmp_path):
    # each fit's held training Gram is unused by the sweep, so the peak stays near the one n x n matrix of a fit
    n = 1000
    data = tmp_path / "circles.csv"
    assert main(["generate", "circles", "--n", str(n), "--standardize", "--out", str(data)]) == 0
    tracemalloc.start()
    try:
        code = main(["sweep", "--model", "mlp", "--objective", "mmd-gemini", "--k-range", "2:3", "--seeds", "0",
                     "--epochs", "2", "--data", str(data), "--out", str(tmp_path / "sweep.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1.5 * n * n * 8


def test_config_file_provides_defaults(tmp_path, circles_csv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 7\nmodel = linear\n")
    out = tmp_path / "run"
    code = main(["fit", "--config", str(cfg), "--data", str(circles_csv),
                 "--objective", "mi", "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["epochs"] == 7


def test_usage_error_exit_code():
    assert main(["fit", "--model", "kmeans"]) == 2  # missing required flags
    assert main(["generate", "circles"]) == 2  # missing output path


def test_value_error_exit_code(tmp_path, circles_csv):
    assert main(["contrastive", "--data", str(circles_csv), "--aug", "shear:1",
                 "--out-dir", str(tmp_path)]) == 2


def test_io_error_exit_code(tmp_path):
    assert main(["fit", "--model", "kmeans", "--data", str(tmp_path / "missing.csv"),
                 "--out-dir", str(tmp_path)]) == 4
    assert main(["fit", "--config", str(tmp_path / "missing.cfg"), "--model", "kmeans"]) == 4


def run_cli(*argv):
    """Run the CLI as a user does, in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-m", "miclust.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize(
    "content",
    ["", "f0,f1,label\n", "f0,f1,label\n0.1,0.2,0\n0.3,1\n"],
    ids=["empty", "header-only", "ragged"],
)
def test_bad_csv_exits_2_without_traceback(tmp_path, content):
    data = tmp_path / "bad.csv"
    data.write_text(content)
    proc = run_cli("fit", "--model", "kmeans", "--data", str(data), "--out-dir", str(tmp_path / "run"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_config_without_path_exits_2_without_traceback():
    proc = run_cli("fit", "--config")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_boundary_zero_resolution_exits_2_without_traceback(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"kind": "linear", "params": {"W": [[0.0, 0.0], [0.0, 0.0]], "b": [0.0, 0.0]}}))
    out = tmp_path / "grid.csv"
    proc = run_cli("boundary", "--model", str(model_path), "--resolution", "0", "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,W,message",
    [(["--critic"], [[0.0, 0.0], [0.0, 0.0]], "--critic expects an mlp"),
     ([], [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "does not match model d=3")],
    ids=["critic-on-linear", "d3-model"],
)
def test_boundary_failure_leaves_no_grid_file(tmp_path, flags, W, message):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"kind": "linear", "params": {"W": W, "b": [0.0, 0.0]}}))
    out = tmp_path / "grid.csv"
    proc = run_cli("boundary", "--model", str(model_path), *flags, "--resolution", "3", "--out", str(out))
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [{"kind": "linear"}, [1, 2],
     {"config": {"model": "spectral"}, "labels": [0, 1], "model": {"kind": "spectral"}},
     {"config": {"model": "kmeans"}, "labels": [0, 1],
      "model": {"kind": "kmeans", "centroids": [[0.0, 0.0], [1.0, 1.0]], "inertia": 0.5}}],
    ids=["no-params", "list", "spectral-report", "kmeans-report"],
)
def test_boundary_malformed_model_exits_2_without_traceback(tmp_path, doc):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    proc = run_cli("boundary", "--model", str(model_path), "--resolution", "3", "--out", str(tmp_path / "grid.csv"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_boundary_one_cluster_model_exits_2_without_traceback(tmp_path, circles_csv):
    out = tmp_path / "run"
    assert main(["fit", "--model", "linear", "--k", "1", "--data", str(circles_csv),
                 "--epochs", "3", "--out-dir", str(out)]) == 0
    grid = tmp_path / "grid.csv"
    proc = run_cli("boundary", "--model", str(out / "report.json"), "--resolution", "3", "--out", str(grid))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "k >= 2" in proc.stderr
    assert not grid.exists()


@pytest.mark.parametrize("value", ["true", "false"])
def test_config_file_sets_store_true_flag_of_generate(tmp_path, value):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"n = 30\nstandardize = {value}\n")
    from_config = tmp_path / "config.csv"
    assert main(["generate", "--config", str(cfg), "circles", "--out", str(from_config)]) == 0
    from_flags = tmp_path / "flags.csv"
    flags = ["--standardize"] if value == "true" else []
    assert main(["generate", "circles", "--n", "30", *flags, "--out", str(from_flags)]) == 0
    assert from_config.read_bytes() == from_flags.read_bytes()


def test_config_file_sets_store_true_flag_of_fit(tmp_path, circles_csv):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("model = mlp\nepochs = 4\nhistory_csv = true\n")
    out = tmp_path / "run"
    assert main(["fit", "--config", str(cfg), "--data", str(circles_csv), "--out-dir", str(out)]) == 0
    with open(out / "history.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 5


NON_FINITE_FIT_FLAGS = [["--reg", "nan"], ["--reg", "inf"], ["--lr", "nan"], ["--lr", "inf"], ["--gamma", "nan"],
                        ["--gamma", "inf"], ["--kernel", "linear", "--gamma", "nan"]]


# each run ends in its output flag; the baselines validate the flags they do not use as a trained model does
NON_FINITE_RUNS = {
    "fit-mlp": ["fit", "--model", "mlp", "--objective", "mmd-gemini", "--out-dir"],
    "fit-kmeans": ["fit", "--model", "kmeans", "--out-dir"],
    "fit-spectral": ["fit", "--model", "spectral", "--out-dir"],
    "sweep-kmeans": ["sweep", "--model", "kmeans", "--out"],
}


@pytest.mark.parametrize("flags", NON_FINITE_FIT_FLAGS, ids=lambda f: "".join(f))
@pytest.mark.parametrize("run", NON_FINITE_RUNS.values(), ids=NON_FINITE_RUNS)
def test_fit_rejects_non_finite_settings_before_training(tmp_path, circles_csv, run, flags, monkeypatch, capsys):
    monkeypatch.setattr(miclust.cli, "fit", lambda *a: pytest.fail("training started"))
    for baseline in ("kmeans", "spectral"):
        monkeypatch.setattr(miclust.baselines, baseline, lambda *a, **k: pytest.fail("training started"))
    out = tmp_path / "run"
    code = main([*run, str(out), "--data", str(circles_csv), "--epochs", "3", *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# flags that a model id does not use are still checked, never silently ignored
IGNORED_FLAG_RUNS = {
    "kmeans-hidden-0": ["--model", "kmeans", "--hidden", "0"],
    "mlp-n-init-0": ["--model", "mlp", "--n-init", "0"],
    "linear-n-init--5": ["--model", "linear", "--n-init", "-5"],
    "kmeans-objective": ["--model", "kmeans", "--objective", "mmd-gemini"],
    "spectral-objective": ["--model", "spectral", "--objective", "rim"],
    # a -rim id spells out its objective, so any other --objective contradicts it
    "linear-rim-objective": ["--model", "linear-rim", "--objective", "mmd-gemini"],
    "kernel-rim-objective": ["--model", "kernel-rim", "--objective", "mi"],
}


@pytest.mark.parametrize("command", ["fit", "sweep"])
@pytest.mark.parametrize("flags", IGNORED_FLAG_RUNS.values(), ids=IGNORED_FLAG_RUNS)
def test_flags_a_model_does_not_use_are_still_validated(tmp_path, circles_csv, command, flags, monkeypatch, capsys):
    monkeypatch.setattr(miclust.cli, "fit", lambda *a: pytest.fail("training started"))
    for baseline in ("kmeans", "spectral"):
        monkeypatch.setattr(miclust.baselines, baseline, lambda *a, **k: pytest.fail("training started"))
    out = tmp_path / "run"
    code = main([command, *flags, "--data", str(circles_csv), "--epochs", "3",
                 "--out-dir" if command == "fit" else "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("model", ["linear-rim", "kernel-rim"])
def test_a_rim_id_accepts_the_objective_it_spells_out(tmp_path, circles_csv, model):
    out = tmp_path / "run"
    assert main(["fit", "--model", model, "--objective", "rim", "--data", str(circles_csv), "--epochs", "3",
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["objective"] == "rim"


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_contrastive_rejects_a_non_finite_learning_rate(tmp_path, circles_csv, lr, monkeypatch):
    monkeypatch.setattr(miclust.contrastive, "train_contrastive", lambda *a: pytest.fail("training started"))
    out = tmp_path / "run"
    assert main(["contrastive", "--data", str(circles_csv), "--aug", "noise:0.1", "--epochs", "3",
                 "--lr", lr, "--out-dir", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--xmin", "--xmax", "--ymin", "--ymax"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_boundary_rejects_non_finite_bounds(tmp_path, flag, value, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"kind": "linear", "params": {"W": [[0.0, 0.0], [0.0, 0.0]], "b": [0.0, 0.0]}}))
    out = tmp_path / "grid.csv"
    bound = f"{flag}={value}"  # one token, since argparse takes a bare -inf for an option
    assert main(["boundary", "--model", str(model_path), "--resolution", "3", bound, "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def _model_rule_as_it_was(model, objective, reg):
    """The `--model` id rules as they were, in three expressions; kept as the oracle of `_run_model`."""
    if objective is None:
        objective = "rim" if model in ("linear", "linear-rim", "kernel", "kernel-rim") else "mi"
    kind = {"linear-rim": "linear", "kernel-rim": "kernel"}.get(model, model)
    if reg is None:
        reg = 0.1 if (objective == "rim" and kind == "linear") else 0.0
    return kind, objective, reg


TRAINED_IDS = [m for m in miclust.cli.MODEL_IDS if m not in ("kmeans", "spectral")]
ID_FLAGS = [[], *(["--objective", o] for o in miclust.optim.OBJECTIVES), ["--reg", "0.3"],
            ["--objective", "rim", "--reg", "0.2"]]


@pytest.mark.parametrize("flags", ID_FLAGS, ids=lambda f: "".join(f) or "defaults")
@pytest.mark.parametrize("model_id", TRAINED_IDS)
def test_model_id_rule_gives_the_old_report(tmp_path, circles_csv, model_id, flags):
    out = tmp_path / "run"
    code = main(["fit", "--model", model_id, "--data", str(circles_csv), "--epochs", "5", "--out-dir", str(out),
                 *flags])
    given = dict(zip(flags[::2], flags[1::2]))
    if model_id.endswith("-rim") and given.get("--objective", "rim") != "rim":
        # the old rule let --objective override the objective a -rim id spells out; now the pair is rejected
        assert (code, out.exists()) == (2, False)
        return
    assert code == 0
    got = json.loads((out / "report.json").read_text())
    reg = float(given["--reg"]) if "--reg" in given else None
    kind, objective, reg = _model_rule_as_it_was(model_id, given.get("--objective"), reg)
    X = load_csv(circles_csv).values
    spec = mc.KernelSpec("rbf")
    model = mc.init_model(kind, {"d": 2, "k": 2, "hidden": 20}, rng=0, X_ref=X, spec=spec, X=X)
    report = mc.fit(model, X, mc.TrainConfig(epochs=5, seed=0, objective=objective, lam=reg, kernel=spec))
    expected = json.loads(report.to_json())
    assert got["config"] == expected["config"]
    assert (got["model"], got["labels"], got["history"]) == (expected["model"], expected["labels"], expected["history"])


def _parser_as_it_was() -> argparse.ArgumentParser:
    """The CLI's argument parser as it was before the `--model` id rule moved into one line; the help oracle."""
    parser = argparse.ArgumentParser(prog="miclust", description=miclust.cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset CSV")
    gen.add_argument("dataset", choices=["circles", "blobs"])
    gen.add_argument("--n", type=int, default=200)
    gen.add_argument("--noise", type=float, default=0.05)
    gen.add_argument("--factor", type=float, default=0.1)
    gen.add_argument("--means", default="0,0")
    gen.add_argument("--std", type=float, default=1.0)
    gen.add_argument("--count", type=int, default=50)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--standardize", action="store_true")
    gen.add_argument("--out", required=True)

    def add_fit_flags(p):
        p.add_argument("--model", choices=("kmeans", "spectral", "linear", "linear-rim", "kernel", "kernel-rim", "mlp",
                                           "nonparametric"), required=True)
        p.add_argument("--objective", choices=["mi", "rim", "mmd-gemini"], default=None)
        p.add_argument("--data", required=True)
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--kernel", choices=["linear", "rbf"], default="rbf")
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--reg", type=float, default=None)
        p.add_argument("--hidden", type=int, default=20)
        p.add_argument("--epochs", type=int, default=1000)
        p.add_argument("--lr", type=float, default=1e-3)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--n-init", type=int, default=10)

    fitp = sub.add_parser("fit", help="fit a clustering model and write a report")
    add_fit_flags(fitp)
    fitp.add_argument("--out-dir", required=True)
    fitp.add_argument("--history-csv", action="store_true", help="also write history.csv (epoch,value)")

    bnd = sub.add_parser("boundary", help="export a decision-boundary grid CSV")
    bnd.add_argument("--model", required=True, help="model JSON file (or report model section)")
    bnd.add_argument("--critic", action="store_true", help="treat the model as a contrastive critic")
    bnd.add_argument("--xmin", type=float, default=-3.0)
    bnd.add_argument("--xmax", type=float, default=3.0)
    bnd.add_argument("--ymin", type=float, default=-3.0)
    bnd.add_argument("--ymax", type=float, default=3.0)
    bnd.add_argument("--resolution", type=int, default=100)
    bnd.add_argument("--out", required=True)

    swp = sub.add_parser("sweep", help="run fits across a cluster-count grid and seeds")
    add_fit_flags(swp)
    swp.add_argument("--k-range", default="2:6", help="inclusive range LO:HI")
    swp.add_argument("--seeds", default="0")
    swp.add_argument("--out", required=True)

    con = sub.add_parser("contrastive", help="train the contrastive InfoNCE critic")
    con.add_argument("--data", required=True)
    con.add_argument("--aug", required=True, help="rotation:LO:HI or noise:SIGMA")
    con.add_argument("--k", type=int, default=2)
    con.add_argument("--hidden", type=int, default=20)
    con.add_argument("--epochs", type=int, default=5000)
    con.add_argument("--lr", type=float, default=1e-4)
    con.add_argument("--seed", type=int, default=0)
    con.add_argument("--out-dir", required=True)
    return parser


@pytest.mark.parametrize("command", [[], ["generate"], ["fit"], ["boundary"], ["sweep"], ["contrastive"]],
                         ids=lambda c: c[0] if c else "miclust")
def test_help_text_is_unchanged(command, capsys):
    with pytest.raises(SystemExit):
        _parser_as_it_was().parse_args([*command, "--help"])
    expected = capsys.readouterr().out
    assert main([*command, "--help"]) == 0
    assert capsys.readouterr().out == expected
