"""End-to-end tests of the command line interface, exit codes and file formats."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


@pytest.mark.parametrize("doc", [{"kind": "linear"}, [1, 2]], ids=["no-params", "list"])
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
