"""The benchmark's workloads.

A workload generates its inputs from the run seed once, in `setup`, then
runs rounds of operations back to back in one closed loop. Round r is a fixed
list of operations whose init seeds derive from (seed, r mod cycle), so a
round that comes round again repeats a computation already made and must give
byte-identical outputs. The library only ever receives generated arrays, or
CSV files for the CLI.

Why each workload exists (the layer each stresses and what it bypasses) is
written down in perfbench/README.md.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import miclust as mc
import miclust.cli
import miclust.data
from miclust import KernelSpec, TrainConfig

# blob centres of the paper's balanced-failure setup: >= 10 sigma apart
BLOB_MEANS = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])


@dataclass
class Outcome:
    """What one operation produced, as far as the output check needs it."""

    digest: str
    epochs: int = 0
    labels: list | None = None
    k: int | None = None
    history: list | None = None
    aris: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def init_seed(seed: int, r: int, j: int = 0) -> int:
    """Init seed of operation variant j in round r; distinct across run seeds."""
    return 1000 * seed + 10 * r + j


def _circles(n: int, seed: int) -> mc.DataMatrix:
    return mc.standardize(mc.make_circles(n, 0.05, 0.1, seed))


def _fit(model, data: mc.DataMatrix, cfg: TrainConfig) -> Outcome:
    report = mc.fit(model, data.values, cfg)
    return Outcome(
        digest=sha256(report.to_json()),
        epochs=cfg.epochs,
        labels=report.labels,
        k=model.n_clusters,
        history=report.history,
        aris=[mc.ari(data.labels, report.labels)],
    )


def _labels_outcome(data: mc.DataMatrix, labels, k: int, extra: str = "") -> Outcome:
    labels = np.asarray(labels)
    return Outcome(
        digest=sha256(labels.astype(np.int64).tobytes() + extra.encode()),
        labels=labels.tolist(),
        k=k,
        aris=[mc.ari(data.labels, labels)],
    )


class Workload:
    """Base class: `setup` builds inputs; `ops(r)` lists round r's operations."""

    name = "abstract"
    cycle = 1  # number of distinct rounds before they repeat
    calibration = "small"  # the calibration.py kernel that resembles this workload's work

    def __init__(self, seed: int, tiny: bool, workdir: Path | None = None):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir

    def setup_inputs(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        self.setup_inputs()
        self.warm_up()

    def warm_up(self) -> None:
        """Run round 0 of the tiny variant so first-call costs leave the timed section."""
        warm = type(self)(self.seed, True, self.workdir)
        warm.setup_inputs()
        for _, op in warm.ops(0):
            op()

    def ops(self, r: int) -> list:
        """(name, zero-argument callable returning an Outcome) per operation."""
        raise NotImplementedError


class Bands(Workload):
    """The paper's reproduction configurations at their paper epoch counts."""

    name = "bands-n200"
    cycle = 4

    def setup_inputs(self):
        n, count = (30, 10) if self.tiny else (200, 50)
        self.epochs = 5 if self.tiny else 1000
        self.circles = _circles(n, self.seed)
        self.blobs = mc.standardize(mc.make_gaussian_blobs(BLOB_MEANS, 0.5, count, self.seed))

    def ops(self, r):
        s = init_seed(self.seed, r)
        c, b, e = self.circles, self.blobs, self.epochs

        def kmeans():
            labels, _, inertia = mc.kmeans(c.values, 2, n_init=10, rng=s)
            return _labels_outcome(c, labels, 2, repr(inertia))

        def spectral():
            return _labels_outcome(c, mc.spectral(c.values, 2, rng=s), 2)

        def linear_rim():
            model = mc.init_model("linear", {"d": 2, "k": 2}, rng=s)
            return _fit(model, c, TrainConfig(epochs=e, seed=s, objective="rim", lam=0.1))

        def kernel_rim():
            model = mc.init_model("kernel", {"k": 2}, rng=s, X_ref=c.values)
            return _fit(model, c, TrainConfig(epochs=e, seed=s, objective="rim", lam=0.0))

        def mlp(objective):
            model = mc.init_model("mlp", {"d": 2, "k": 2, "hidden": 20}, rng=s)
            return _fit(model, c, TrainConfig(epochs=e, seed=s, objective=objective))

        def nonparametric_mi():
            model = mc.init_model("nonparametric", {"k": 3}, scale=0.1, rng=s, X=b.values)
            return _fit(model, b, TrainConfig(epochs=2 * e, seed=s, objective="mi"))

        def nonparametric_mmd():
            model = mc.init_model("nonparametric", {"k": 3}, rng=s, X=b.values)
            return _fit(model, b, TrainConfig(epochs=e, learning_rate=1e-2, seed=s, objective="mmd-gemini"))

        return [
            ("kmeans", kmeans),
            ("spectral", spectral),
            ("linear_rim", linear_rim),
            ("kernel_rim", kernel_rim),
            ("mlp_mi", lambda: mlp("mi")),
            ("mlp_mmd_gemini", lambda: mlp("mmd-gemini")),
            ("nonparametric_mi", nonparametric_mi),
            ("nonparametric_mmd_gemini", nonparametric_mmd),
        ]


class Contrastive(Workload):
    """`train_contrastive` at the paper setup; even rounds rotate, odd rounds add noise."""

    name = "contrastive-n200"
    cycle = 4

    def setup_inputs(self):
        self.circles = _circles(30 if self.tiny else 200, self.seed)
        self.epochs = 5 if self.tiny else 5000

    def ops(self, r):
        s = init_seed(self.seed, r // 2)
        aug = mc.Rotation2D(0.0, 2 * np.pi) if r % 2 == 0 else mc.GaussianNoise(1.0)

        def train():
            critic = mc.init_critic(2, 20, 2, rng=s)
            cfg = TrainConfig(epochs=self.epochs, learning_rate=1e-4, seed=s)
            report = mc.train_contrastive(critic, self.circles.values, aug, cfg)
            return Outcome(
                digest=sha256(report.to_json()),
                epochs=cfg.epochs,
                labels=report.labels,
                k=2,
                history=report.history,
                aris=[mc.ari(self.circles.labels, report.labels)],
            )

        return [("rotation" if r % 2 == 0 else "noise", train)]


class CirclesLarge(Workload):
    """One short fit per O(n^2) path at n=4000, plus the metrics on the true labels."""

    name = "circles-n4000"
    cycle = 2
    calibration = "large"

    def setup_inputs(self):
        self.circles = _circles(60 if self.tiny else 4000, self.seed)
        # sized so one round takes about 2.5 s on a 2-core machine
        self.kernel_epochs, self.mmd_epochs, self.np_epochs = (2, 3, 5) if self.tiny else (1, 20, 200)

    def ops(self, r):
        s = init_seed(self.seed, r)
        c = self.circles

        def kernel_rim():
            model = mc.init_model("kernel", {"k": 2}, rng=s, X_ref=c.values)
            return _fit(model, c, TrainConfig(epochs=self.kernel_epochs, seed=s, objective="rim", lam=0.0))

        def mlp_mmd():
            model = mc.init_model("mlp", {"d": 2, "k": 2, "hidden": 20}, rng=s)
            return _fit(model, c, TrainConfig(epochs=self.mmd_epochs, seed=s, objective="mmd-gemini"))

        def nonparametric_mi():
            model = mc.init_model("nonparametric", {"k": 2}, rng=s, X=c.values)
            return _fit(model, c, TrainConfig(epochs=self.np_epochs, seed=s, objective="mi"))

        def scores():
            # scored on the true labels, which always have both clusters, so
            # the cost does not depend on what the short fits produced
            G = mc.gram(c.values, c.values, KernelSpec("rbf"))
            sil, _ = mc.silhouette(c.values, c.labels)
            score = mc.kernel_kmeans_score(c.labels, G)
            return Outcome(digest=sha256(f"{sil!r} {score!r}"))

        return [
            ("kernel_rim", kernel_rim),
            ("mlp_mmd_gemini", mlp_mmd),
            ("nonparametric_mi", nonparametric_mi),
            ("scores", scores),
        ]


class Cli(Workload):
    """The CLI as a user scripts it, one subprocess per command.

    With `in_process` set (the traced run), the same argument lists go to
    `miclust.cli.main` in this process instead.
    """

    name = "cli-n1000"
    cycle = 2
    calibration = "command"
    in_process = False

    def setup(self):
        self.setup_inputs()
        # warm the interpreter and file cache the first command would pay for
        self._run(["generate", "circles", "--n", "10", "--out", str(self.workdir / "warm.csv")])

    def setup_inputs(self):
        self.n = 40 if self.tiny else 1000
        self.fit_epochs, self.mmd_epochs, self.sweep_epochs, self.con_epochs = (
            (3, 3, 3, 3) if self.tiny else (20, 200, 60, 50)
        )
        self.resolution = 10 if self.tiny else 100
        # the library's own CSV of the dataset, which `generate` must reproduce
        self.expected_csv = self.workdir / "expected.csv"
        miclust.data.save_csv(_circles(self.n, self.seed), self.expected_csv)

    def _run(self, argv: list) -> None:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = miclust.cli.main(argv)
            stderr = err.getvalue()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "miclust.cli", *argv], capture_output=True, text=True, timeout=120
            )
            code, stderr = proc.returncode, proc.stderr
        if code != 0:
            raise RuntimeError(f"miclust {argv[0]} exited {code}: {stderr.strip()[-300:]}")

    def ops(self, r):
        d = self.workdir
        s = init_seed(self.seed, r)
        data = str(d / "data.csv")

        def generate():
            self._run(
                ["generate", "circles", "--n", str(self.n), "--noise", "0.05", "--factor", "0.1",
                 "--seed", str(self.seed), "--standardize", "--out", data]
            )
            written = Path(data).read_bytes()
            problems = [] if written == self.expected_csv.read_bytes() else ["generated CSV differs from save_csv"]
            return Outcome(digest=sha256(written), problems=problems)

        def fit(name, extra, epochs):
            out = d / name
            self._run(["fit", *extra, "--data", data, "--seed", str(s), "--out-dir", str(out)])
            return _report_outcome(out, epochs)

        def boundary(name):
            grid = d / f"{name}_grid.csv"
            self._run(["boundary", "--model", str(d / name / "report.json"),
                       "--resolution", str(self.resolution), "--out", str(grid)])
            text = grid.read_bytes()
            rows = text.count(b"\n") - 1
            problems = [] if rows == self.resolution**2 else [f"boundary grid has {rows} rows"]
            return Outcome(digest=sha256(text), problems=problems)

        def sweep():
            out = d / "sweep.csv"
            self._run(["sweep", "--model", "mlp", "--objective", "mmd-gemini", "--data", data,
                       "--k-range", "2:4", "--seeds", f"{s},{init_seed(self.seed, r, 1)}",
                       "--epochs", str(self.sweep_epochs), "--out", str(out)])
            text = out.read_bytes()
            rows = list(csv.DictReader(io.StringIO(text.decode())))
            problems = [f"sweep wrote {len(rows)} rows, expected 6"] if len(rows) != 6 else []
            problems += [f"non-finite objective at k={row['k']}" for row in rows if not math.isfinite(float(row["objective"]))]
            problems += [f"{row['used_clusters']} clusters used of k={row['k']}" for row in rows
                         if not 1 <= int(row["used_clusters"]) <= int(row["k"])]
            return Outcome(digest=sha256(text), epochs=6 * self.sweep_epochs, aris=[float(row["ari"]) for row in rows],
                           problems=problems)

        def contrastive():
            out = d / "con"
            self._run(["contrastive", "--data", data, "--aug", "rotation:0:6.2832", "--epochs", str(self.con_epochs),
                       "--seed", str(s), "--out-dir", str(out)])
            return _report_outcome(out, self.con_epochs)

        return [
            ("generate", generate),
            ("fit_kernel_rim", lambda: fit("krim", ["--model", "kernel-rim", "--epochs", str(self.fit_epochs)],
                                           self.fit_epochs)),
            ("fit_mlp_mmd_gemini", lambda: fit("mmd", ["--model", "mlp", "--objective", "mmd-gemini",
                                                       "--epochs", str(self.mmd_epochs)], self.mmd_epochs)),
            ("boundary_kernel_rim", lambda: boundary("krim")),
            ("boundary_mlp_mmd_gemini", lambda: boundary("mmd")),
            ("sweep", sweep),
            ("contrastive", contrastive),
            ("fit_kmeans", lambda: fit("km", ["--model", "kmeans"], 0)),
            ("fit_spectral", lambda: fit("sp", ["--model", "spectral"], 0)),
        ]


def _report_outcome(out_dir: Path, epochs: int) -> Outcome:
    """Outcome of a CLI command that wrote report.json; every command here uses the default --k 2."""
    text = (out_dir / "report.json").read_bytes()
    report = json.loads(text)
    ari = report["metrics"].get("ari")
    return Outcome(
        digest=sha256(text),
        epochs=epochs,
        labels=report["labels"],
        k=2,
        history=report["history"],
        aris=[ari] if ari is not None else [],
    )


WORKLOADS = {w.name: w for w in (Bands, Contrastive, CirclesLarge, Cli)}
