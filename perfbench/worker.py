"""One workload process: set up, run timed rounds, check every output.

Started by run.py with the BLAS thread count and PYTHONPATH already set in
its environment. Prints one JSON line; run.py turns it into the result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibration
import miclust
from tracing import Tracer
from workloads import WORKLOADS, Cli

HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 3  # enough for a median round time
# calibration kernel runs before each round; they take 5-20% of the run
CALIBRATIONS_PER_ROUND = 3


def _openblas_info() -> dict:
    """Runtime OpenBLAS core and thread count, read from the library numpy loaded."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                corename = getattr(lib, f"{prefix}_get_corename{suffix}")
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            corename.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            return {"blas_core": corename().decode(), "blas_threads": threads()}
    return {"blas_core": None, "blas_threads": None}


def environment() -> dict:
    """Versions and BLAS settings, so results stay comparable across commits."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": os.cpu_count(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    env.update(_openblas_info())
    return env


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _startup_s(reps: int = 3) -> float:
    """Median wall time of starting Python and importing the CLI module."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import miclust.cli"], check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Run:
    """Runs rounds and applies the output check to every operation."""

    def __init__(self, workload, reference: dict | None):
        self.workload = workload
        self.reference = reference
        self.seen: dict[str, str] = {}  # op id -> digest of its first run
        self.attempted = 0
        self.failures: list[str] = []
        self.aris: list[float] = []
        self.cpu_s = 0.0  # CPU time of the rounds, this process and its children

    def round(self, i: int) -> tuple[float, int]:
        """Run round i; returns its wall time and the gradient epochs it ran."""
        r = i % self.workload.cycle
        cpu_start = _cpu_s()
        start = time.perf_counter()
        outcomes = []
        for name, op in self.workload.ops(r):
            try:
                outcomes.append((f"r{r}.{name}", op(), None))
            except Exception as exc:  # an operation that raises counts as failed
                outcomes.append((f"r{r}.{name}", None, f"{type(exc).__name__}: {exc}"))
        wall = time.perf_counter() - start
        self.cpu_s += _cpu_s() - cpu_start
        epochs = 0
        for op_id, outcome, error in outcomes:
            self.attempted += 1
            problems = [error] if error else self.check(op_id, outcome)
            if problems:
                self.failures.append(f"round {i} {op_id}: {'; '.join(problems)}")
            if outcome is not None:
                epochs += outcome.epochs
                self.aris += outcome.aris
        return wall, epochs

    def check(self, op_id: str, out) -> list[str]:
        problems = list(out.problems)
        if out.history is not None and not all(math.isfinite(v) for v in out.history):
            problems.append("history has a non-finite value")
        if out.labels is not None and not all(0 <= lab < out.k for lab in out.labels):
            problems.append(f"labels outside 0..{out.k - 1}")
        first = self.seen.setdefault(op_id, out.digest)
        if first != out.digest:
            problems.append("output differs from the same round's earlier run")
        if self.reference is not None and self.reference.get(op_id) != out.digest:
            problems.append("output differs from the recorded reference")
        return problems


def _reference_for(workload, env: dict) -> tuple[dict | None, str]:
    """Reference digests apply at the recorded seed, full size, same numeric stack."""
    ref = json.loads((HERE / "reference.json").read_text())
    if workload.seed != ref["seed"] or workload.tiny:
        return None, f"not applicable: only the full-size seed {ref['seed']} has a reference"
    keys = ("numpy", "blas_version", "blas_core", "blas_threads")
    if any(ref["env"].get(k) != env.get(k) for k in keys):
        return None, "skipped: reference was recorded under a different numpy/BLAS build, core or thread count"
    return ref["digests"][workload.name], "checked"


def _timed_rounds(run: Run, seconds: float, kernel: str) -> tuple[list, list]:
    """Closed loop: start another round while it is expected to end within the budget.

    Returns (wall time, epochs) per round, and the times of the calibration
    kernel runs made before each round.
    """
    rounds, cals = [], []
    start = time.perf_counter()
    while True:
        cals += [calibration.measure(kernel) for _ in range(CALIBRATIONS_PER_ROUND)]
        rounds.append(run.round(len(rounds)))
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(w for w, _ in rounds) > seconds:
            return rounds, cals


def _at_reference_speed(rounds: list, cals: list, kernel: str) -> tuple[float, float, float]:
    """Mean round wall time and epochs per second at the reference host speed, and the speed.

    The host's speed switches between fast and slow spells within seconds, so
    a short kernel's fastest run finds a fast spell that a long round never
    does. Means over the interleaved rounds and kernel runs see the same mix
    of spells instead, and the mix cancels in their ratio.
    """
    speed = calibration.REFERENCE_S[kernel] / statistics.fmean(cals)
    walls = [w for w, _ in rounds]
    return statistics.fmean(walls) * speed, sum(e for _, e in rounds) / sum(walls) / speed, speed


def _layer_metrics(tracer: Tracer, rounds: int, epochs: int) -> dict:
    """Per-layer numbers per round of the traced section."""
    out = {}
    for name, stats in tracer.stats.items():
        if name.startswith("cli."):
            out[f"{name}.wall_s"] = stats.total_s / rounds
        else:
            out[f"{name}.calls"] = stats.calls / rounds
            out[f"{name}.self_s"] = stats.self_s / rounds
    out["kernels.gram.mb"] = tracer.stats["kernels.gram"].out_bytes / 1e6 / rounds
    out["kernels.gram_per_epoch"] = out["kernels.gram.calls"] * rounds / epochs
    out["models.forward_per_epoch"] = out["models.forward.calls"] * rounds / epochs
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--mode", choices=("run", "setup", "record"), default="run")
    args = parser.parse_args(argv)

    src = HERE.parent / "src"
    if Path(miclust.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"miclust was imported from {miclust.__file__}, not from {src}")
    workload = WORKLOADS[args.workload](args.seed, args.tiny, args.workdir)
    workload.setup()
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    env = environment()
    if args.mode == "record":
        run = Run(workload, None)
        for r in range(workload.cycle):
            run.round(r)
        print(json.dumps({"env": env, "digests": run.seen, "failures": run.failures}))
        return 0

    reference, reference_status = _reference_for(workload, env)
    run = Run(workload, reference)
    result = {"ready": ready, "env": dict(env, reference_check=reference_status)}
    if args.trace:
        result["layers"] = {"cli.startup_s": _startup_s()}
        # the CLI runs in this process so the wrappers see it; the untraced
        # rounds do too, so the overhead compares like with like
        workload.in_process = True
        # half the time untraced, half traced; the traced rounds restart at
        # round 0, so each must reproduce the untraced round's digests
        untraced, untraced_cals = _timed_rounds(run, args.seconds / 2, workload.calibration)
        cpu0 = run.cpu_s
        with Tracer() as tracer:
            # the kernel runs call no miclust code, so they add no spans
            rounds, cals = _timed_rounds(run, args.seconds / 2, workload.calibration)
        n = len(rounds)
        result["layers"].update(_layer_metrics(tracer, n, sum(e for _, e in rounds)))
        result["layers"]["proc.cpu_s"] = (run.cpu_s - cpu0) / n
        # both sides taken as wall_s is taken
        traced_wall = _at_reference_speed(rounds, cals, workload.calibration)[0]
        untraced_wall = _at_reference_speed(untraced, untraced_cals, workload.calibration)[0]
        result["layers"]["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    else:
        rounds, cals = _timed_rounds(run, args.seconds, workload.calibration)
        wall, epochs_per_s, speed = _at_reference_speed(rounds, cals, workload.calibration)
        usage = resource.RUSAGE_CHILDREN if isinstance(workload, Cli) else resource.RUSAGE_SELF
        result["e2e"] = {
            "wall_s": wall,
            "epochs_per_s": epochs_per_s,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        }
        result.update(rounds=[w for w, _ in rounds], calibrations=cals, speed=speed)
    result.update(
        attempted=run.attempted,
        failed=len(run.failures),
        failures=run.failures[:20],
        ari_mean=statistics.fmean(run.aris) if run.aris else None,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
