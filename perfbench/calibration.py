"""Host-speed calibration: fixed numpy kernels timed between rounds.

The machines the benchmark runs on are shared, and their speed drifts by
itself: a slow spell makes everything 1.3-1.7x slower for seconds to
minutes, CPU time included, so runs of the same code differ by 30% or
more. Each workload therefore also times a fixed kernel that resembles its
own work and never calls miclust, before every round. The reference time
below over the run's mean kernel time gives the host's speed during the
run, and the time metrics are reported at the reference speed (see
worker.py).

    python3 perfbench/calibration.py      # the `command` kernel's child process

Nothing here depends on the run seed or on miclust, so a change to miclust
cannot move these times; a numpy or BLAS change can, and shows in the
environment record.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Typical time of each kernel in a fast spell on the host the bounds were
# set on: 2 vCPUs reporting OpenBLAS core SkylakeX, numpy 2.4.6, one BLAS
# thread. They only fix the scale the times are reported at.
REFERENCE_S = {"small": 0.072, "large": 0.165, "command": 0.305}

_RNG = np.random.default_rng(0)
_X_SMALL = _RNG.normal(size=(200, 2))
_W1, _W2 = _RNG.normal(size=(2, 20)), _RNG.normal(size=(20, 2))


def small(epochs: int = 1600) -> None:
    """Forward and backward passes of a 2-20-2 tanh MLP at n=200: many tiny numpy calls."""
    X, W1, W2 = _X_SMALL, _W1, _W2
    for _ in range(epochs):
        H = np.tanh(X @ W1)
        Z = H @ W2
        Z -= Z.max(axis=1, keepdims=True)
        P = np.exp(Z)
        P /= P.sum(axis=1, keepdims=True)
        dH = (P @ W2.T) * (1.0 - H * H)
        (H.T @ P).sum()
        (X.T @ dH).sum()


def large(n: int = 4000) -> None:
    """An n x n RBF Gram in place, one matvec and column sums: memory-bound BLAS work."""
    X = np.random.default_rng(1).normal(size=(n, 2))
    sq = (X * X).sum(axis=1)
    D = X @ X.T
    D *= -2.0
    D += sq[:, None]
    D += sq[None, :]
    D *= -0.5
    np.exp(D, out=D)
    (D @ np.ones(n)).sum()
    D.sum(axis=0)


def command() -> None:
    """A child Python process that imports numpy and does n=1000 work, then `large`.

    A CLI command is a process start-up followed by O(n^2) work; the child
    alone tracked the cli rounds less well (8-12% spread over 20-25 s
    windows) than the child plus `large` (5-7%).
    """
    # no timeout: waiting with one polls in growing sleeps, which would
    # round the time; run.py's deadline ends a hung child with its group
    subprocess.run([sys.executable, str(Path(__file__).resolve())], check=True)
    large()


KERNELS = {"small": small, "large": large, "command": command}


def measure(kind: str) -> float:
    """Wall time of one run of the named kernel."""
    kernel = KERNELS[kind]
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


if __name__ == "__main__":
    small(100)
    large(1000)
