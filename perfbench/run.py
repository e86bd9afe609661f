"""miclust benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload bands-n200 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each

Run from the repository root. The metric names, units and bounds live in
BENCHMARK.json at the root; perfbench/README.md explains the workloads.
The last line of output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, from a separate
run with every layer wrapped in timers.

This file uses only the standard library: it sets the workload processes'
environment (BLAS threads, PYTHONPATH) before numpy is ever imported.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0  # the seed perfbench/reference.json is recorded at
# One BLAS thread: a single closed-loop caller on a shared 2-core machine. A
# second thread left wall time unchanged on the bands round, cost 8-16% more
# CPU, and now and then added ~0.4 s of thread wake-up to a spectral call.
BLAS_THREADS = "1"
SETUP_SAMPLES = 5  # setup_s is the median over this many processes
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args: list, deadline: float) -> dict:
    """Run worker.py to completion; returns its JSON line and its spawn time."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_worker_env(),
        start_new_session=True,  # its own group, so a timeout also ends CLI children
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["spawned"] = spawned
    return result


@contextlib.contextmanager
def _workdir():
    """A scratch directory inside the checkout for the CLI workload's files."""
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=base))
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run is still using it


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool, deadline: float) -> dict:
    with _workdir() as workdir:
        common = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
        if tiny:
            common.append("--tiny")
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe = _worker([*common, "--seconds", "0", "--mode", "setup"], deadline)
                setups.append(probe["ready"] - probe["spawned"])
        result = _worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
        setups.append(result["ready"] - result["spawned"])
        if not trace:
            # at the reference host speed, like the other times (calibration.py)
            result["e2e"]["setup_s"] = statistics.median(setups) * result["speed"]
        result.update(workload=name, seed=seed, seconds=seconds, trace=trace, tiny=tiny, setups=setups)
        result["failed_frac"] = result["failed"] / result["attempted"]
        return result


def _select(measured: dict, specs: list) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {s["name"]: {"value": measured[s["name"]], "unit": s["unit"]} for s in specs}


def _print_table(result: dict, metrics: dict) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  seconds={result['seconds']}  trace={result['trace']}")
    print("env: " + json.dumps(result["env"], sort_keys=True))
    if "rounds" in result:
        walls, cals = result["rounds"], result["calibrations"]
        setups = ", ".join(f"{s:.3f}" for s in result["setups"])
        print(f"rounds: {len(walls)}, {min(walls):.3f}-{max(walls):.3f} s; setups: {setups} s")
        print(f"calibration: {min(cals):.4f}-{max(cals):.4f} s; host speed {result['speed']:.4f} of reference,"
              " times below are at reference speed")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':40s} {result['failed_frac']:>14.6g} ratio ({result['failed']} of {result['attempted']} operations)")
    ari = result["ari_mean"]
    print(f"  {'ari_mean':40s} {ari if ari is None else format(ari, '>14.6g')} ratio")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def record_reference(names: list, deadline: float) -> None:
    """Rewrite reference.json from every distinct round at the default seed."""
    doc = {"env": None, "seed": DEFAULT_SEED, "digests": {}}
    for name in names:
        with _workdir() as workdir:
            out = _worker(["--workload", name, "--seed", str(DEFAULT_SEED), "--seconds", "0",
                           "--workdir", str(workdir), "--mode", "record"], deadline)
        if out["failures"]:
            raise BenchError(f"{name}: operations failed while recording: {out['failures']}")
        doc["env"] = out["env"]
        doc["digests"][name] = out["digests"]
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'reference.json'}")


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"benchmark error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*workloads, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="timed section length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--record-reference", action="store_true",
                        help="re-record the default-seed output digests in perfbench/reference.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        if not (ROOT / "src" / "miclust" / "__init__.py").is_file():
            raise BenchError(f"no miclust sources under {ROOT / 'src'}; run from a checkout of the repository")
        if args.record_reference:
            # recording runs the contrastive rounds at 5000 epochs: allow it time
            record_reference(workloads, time.monotonic() + 600)
            return 0
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = workloads if args.workload == "all" else (args.workload,)
        deadline = time.monotonic() + DEADLINE_S * len(names)
        metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
        results, combined = [], {}
        for name in names:
            result = run_workload(name, args.seed, seconds, args.trace, args.tiny, deadline)
            metrics = _select(result["layers"] if args.trace else result["e2e"], metric_specs)
            result["metrics"] = metrics
            _print_table(result, metrics)
            results.append(result)
            for metric, m in metrics.items():
                combined[metric if len(names) == 1 else f"{name}.{metric}"] = m
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
