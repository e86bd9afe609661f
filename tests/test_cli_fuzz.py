"""Property test of the CLI's exit-code contract on generated commands.

Every command, valid or not, must return 0, 2 (usage), 3 (numeric) or 4
(I/O) from `main` and never let an exception escape. Sizes stay at 50 or
below, so no example allocates much memory.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import miclust.optim
from miclust.cli import main


def values(valid, invalid):
    """Flag values, six times likelier valid than not, so most commands run past parsing."""
    return st.sampled_from(valid * 6 + invalid)


# sizes and counts stay at 50 or below
SMALL = values(["1", "2", "3", "7", "50"], ["0", "-1", "-3", "x", "", "2.5", "nan"])
REAL = values(
    ["0.5", "1", "3", "1e-3", "0.05"], ["0", "-0.5", "-1", "1e308", "-1e308", "nan", "inf", "-inf", "abc", "", "1,2"]
)
SEED = values(["0", "1", "7"], ["-1", "x", "", "18446744073709551616"])
MEANS = values(["0,0", "0,0;5,5", "−1,0;2,2", "0;4"], ["0,0;5", "a,b", "", ";", "1e308,0;-1e308,0", "nan,0"])
AUG = values(
    ["noise:0.5", "rotation:0:6.28", "noise:0"],
    ["noise:-1", "noise:x", "noise", "noise:inf", "noise:1e308", "rotation:1:0", "rotation:nan:nan", "rotation:0",
     "shear:1", ""],
)
K_RANGE = values(["1:3", "2:2", "2:4"], ["3:1", "0:2", "-1:1", "a:b", "2", "2:", "1:2:3", ""])
SEEDS = values(["0", "0,1", "3,3"], ["-1", "1,,2", "a", ""])
MODEL_IDS = values(
    ["kmeans", "spectral", "linear", "linear-rim", "kernel", "kernel-rim", "mlp", "nonparametric"], ["tree"]
)
OBJECTIVES = values(list(miclust.optim.OBJECTIVES), ["entropy"])
KERNELS = values(["linear", "rbf"], ["poly"])


def command(inputs, out):
    """Strategy of one argv: a command name, its flags (some missing) and their values."""
    data = values(inputs["data"][:2], inputs["data"][2:])
    out_file = values(out["file"][:1], out["file"][1:])
    out_dir = values(out["dir"][:1], out["dir"][1:])
    fit_flags = {
        "--objective": OBJECTIVES,
        "--k": SMALL,
        "--kernel": KERNELS,
        "--gamma": REAL,
        "--reg": REAL,
        "--hidden": SMALL,
        "--lr": REAL,
        "--seed": SEED,
        "--n-init": SMALL,
    }
    # (required flags, optional flags) per command
    flags = {
        "generate": (
            {"--out": out_file},
            {"--n": SMALL, "--noise": REAL, "--factor": REAL, "--means": MEANS, "--std": REAL,
             "--count": SMALL, "--seed": SEED, "--standardize": st.just(None)},
        ),
        "fit": (
            {"--model": MODEL_IDS, "--data": data, "--epochs": SMALL, "--out-dir": out_dir},
            dict(fit_flags, **{"--history-csv": st.just(None)}),
        ),
        "sweep": (
            {"--model": MODEL_IDS, "--data": data, "--epochs": SMALL, "--out": out_file},
            dict(fit_flags, **{"--k-range": K_RANGE, "--seeds": SEEDS}),
        ),
        "boundary": (
            {"--model": values(inputs["model"][:3], inputs["model"][3:]), "--resolution": SMALL, "--out": out_file},
            {"--critic": st.just(None), "--xmin": REAL, "--xmax": REAL, "--ymin": REAL, "--ymax": REAL},
        ),
        "contrastive": (
            {"--data": data, "--aug": AUG, "--epochs": SMALL, "--out-dir": out_dir},
            {"--k": SMALL, "--hidden": SMALL, "--lr": REAL, "--seed": SEED},
        ),
    }

    def build(name):
        required, optional = flags[name]
        positional = values([["circles"], ["blobs"]], [["moons"], []]) if name == "generate" else st.just([])
        config = values([[]] * 3, [["--config", path] for path in inputs["config"]] + [["--config"]])

        def argv(parts):
            head, flag_values, tail = parts
            flat = [part for flag, v in flag_values.items() for part in ([flag] if v is None else [flag, v])]
            return [name, *head, *flat, *tail]

        return st.tuples(positional, st.fixed_dictionaries(required, optional=optional), config).map(argv)

    return st.sampled_from(sorted(flags)).flatmap(build)


@pytest.fixture
def inputs(tmp_path):
    """Valid, malformed and missing input files, plus the models that fits write."""
    d = tmp_path / "in"
    d.mkdir()
    circles = d / "circles.csv"
    assert main(["generate", "circles", "--n", "40", "--standardize", "--out", str(circles)]) == 0
    one_d = d / "one_d.csv"
    assert main(["generate", "blobs", "--means", "0;4", "--count", "10", "--out", str(one_d)]) == 0
    texts = {"empty.csv": "", "ragged.csv": "f0,f1\n1,2\n3\n", "words.csv": "f0,f1\na,b\n",
             "constant.csv": "f0,f1\n1,1\n1,1\n1,1\n", "bad.json": "{not json", "list.json": "[1, 2]",
             "no_params.json": '{"kind": "linear"}', "odd.cfg": "epochs 3\n= 2\n",
             # a 400-digit integer parameter, past float64, exited 1 with an OverflowError traceback
             "huge.json": '{"kind": "linear", "params": {"W": [[1%s, 0], [0, 1]], "b": [0, 0]}}' % ("0" * 399),
             # a value whose squared distances overflow warned in every fit, or exited 0 reporting an infinite score
             "huge.csv": "f0,f1\n0,0\n1,0\n0,1\n1e200,1\n",
             "ok.cfg": "epochs = 2\nseed = 1\nstandardize = true\n"}
    for name, text in texts.items():
        (d / name).write_text(text)
    models = {}
    for name, argv in {
        "linear": ["fit", "--model", "linear", "--epochs", "2"],
        "kernel": ["fit", "--model", "kernel", "--epochs", "2"],
        "one_cluster": ["fit", "--model", "mlp", "--k", "1", "--epochs", "2"],
        "nonparametric": ["fit", "--model", "nonparametric", "--epochs", "2"],
        "kmeans": ["fit", "--model", "kmeans"],
        "critic": ["contrastive", "--aug", "noise:0.5", "--epochs", "2"],
    }.items():
        assert main([*argv, "--data", str(circles), "--out-dir", str(d / name)]) == 0
        models[name] = str(d / name / "report.json")
    models["model_only"] = str(d / "model_only.json")
    (d / "model_only.json").write_text(json.dumps(json.loads((d / "linear" / "report.json").read_text())["model"]))
    missing = str(d / "missing.csv")
    return {
        "data": [str(circles), str(one_d), missing, str(d)] + [str(d / n) for n in texts if n.endswith(".csv")],
        "model": list(models.values()) + [str(d / n) for n in texts if n.endswith(".json")] + [missing],
        "config": [str(d / "ok.cfg"), str(d / "odd.cfg"), missing],
        "files": {name: str(d / name) for name in texts},
    }


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
@example(data=(["fit", "--model", "kernel", "--gamma", "1e308", "--epochs", "2"], 0))
@example(data=(["fit", "--model", "linear", "--lr", "1e300", "--epochs", "5"], 3))
@example(data=(["contrastive", "--aug", "noise:0.5", "--lr", "1e100", "--epochs", "5"], 3))
@example(data=(["boundary", "--model", "huge.json", "--resolution", "3"], 2))
@example(data=(["fit", "--model", "mlp", "--data", "huge.csv", "--epochs", "2"], 2))
def test_cli_exit_code_contract(tmp_path, inputs, data):
    # the suite turns a numpy warning into an error, so no command may warn either
    out = {
        "file": [str(tmp_path / "out.csv"), str(tmp_path / "no" / "such" / "dir.csv"), str(tmp_path)],
        "dir": [str(tmp_path / "run"), str(tmp_path / "in" / "circles.csv")],
    }
    if isinstance(data, tuple):  # an explicit example: a command, its flags naming input files, and its exit code
        argv, code = [inputs["files"].get(part, part) for part in data[0]], data[1]
        fits = ["--out-dir", out["dir"][0]] + ([] if "--data" in argv else ["--data", inputs["data"][0]])
        argv += ["--out", out["file"][0]] if argv[0] == "boundary" else fits
        assert main(argv) == code
    else:
        assert main(data.draw(command(inputs, out), label="argv")) in (0, 2, 3, 4)
