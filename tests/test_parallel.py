"""The O(n^2) layer on the kernel thread pool against its serial path, byte for byte.

`kernels._map` runs whole calls on the pool: runs of row blocks of the
distance build of `gram`, `pairwise_sq_dist` and the silhouette, each block
its own gemm `(2X)[rows] Y^T` and epilogue, runs of row blocks of the
silhouette's per-cluster walk over its distances, and one `G @ v` per
MMD-GEMINI cluster. Every row-block pass goes through
`kernels._for_row_blocks`, which hands `_map` the size of its n x m matrix,
and `_map` alone decides whether the calls go on the pool. The row blocks
are the same on any number of workers, so the bits are too. Here the worker
count is set to 1, 2 and 3 and the size floor to 0, so that small inputs run
on the pool, with uneven runs of blocks, a one-row last block and empty
inputs.
"""

import os
import signal
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import miclust as mc
from miclust import KernelSpec, TrainConfig, gram, kernels, silhouette
from miclust.kernels import pairwise_sq_dist
from miclust.objectives import mmd_gemini_ova

SIZES = [0, 1, 801, 1023]  # 801 and 1023 rows split 5 and 8 row blocks of 1 MB unevenly over 2 or 3 workers
WORKERS = [1, 2, 3]


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _data(n, seed=0):
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, 2))
    labels = np.arange(n) % 3
    P = gen.random((n, 3)) + 1e-3
    return X, labels, P / P.sum(axis=1, keepdims=True)


def _outputs(n):
    """Every output of the layer at size n, as arrays."""
    X, labels, P = _data(n)
    out = {
        "rbf": gram(X, X, KernelSpec("rbf", 0.5)).values,
        "linear": gram(X, X, KernelSpec("linear")).values,
        "sq_dist": pairwise_sq_dist(X, X[: n // 2 + 1]),
    }
    if n >= 3:
        out["silhouette"] = silhouette(X, labels)[1]
        out["silhouette_precomputed"] = silhouette(np.sqrt(pairwise_sq_dist(X, X)), labels, precomputed=True)[1]
    if n >= 1:
        value = mmd_gemini_ova(P, gram(X, X, KernelSpec("rbf"))) if n > 1 else mmd_gemini_ova(P, np.ones((1, 1)))
        out["mmd_value"], out["mmd_grad"] = np.float64(value.value), value.grad_resp
    return out


def _serial(monkeypatch, fn):
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_WORKERS", 1)
        patch.setattr(kernels, "_executor", lambda: pytest.fail("the serial path made a pool"))
        return fn()


def _threaded(monkeypatch, workers, fn):
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_WORKERS", workers)
        patch.setattr(kernels, "_PARALLEL_BYTES", 0)
        return fn()


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("n", SIZES)
def test_every_output_of_the_layer_keeps_its_serial_bits(monkeypatch, n, workers):
    serial = _serial(monkeypatch, lambda: _outputs(n))
    threaded = _threaded(monkeypatch, workers, lambda: _outputs(n))
    assert serial.keys() == threaded.keys()
    for name in serial:
        assert _same_bytes(serial[name], threaded[name]), name


@pytest.mark.parametrize("workers", WORKERS)
def test_mlp_mmd_gemini_fit_keeps_its_serial_report(monkeypatch, workers):
    data = mc.standardize(mc.make_circles(801, 0.05, 0.1, 3))

    def report():
        model = mc.init_model("mlp", {"d": 2, "k": 3, "hidden": 8}, rng=5)
        return mc.fit(model, data.values, TrainConfig(epochs=5, seed=5, objective="mmd-gemini")).to_json()

    assert _serial(monkeypatch, report) == _threaded(monkeypatch, workers, report)


def test_the_pool_runs_the_blocks_off_the_calling_thread(monkeypatch):
    X = _data(801)[0]
    threads = set()
    _threaded(monkeypatch, 2, lambda: kernels._sq_dist_blocks(*kernels._matrices(X, X), lambda rows, block: threads.add(
        threading.current_thread().name)))
    assert threads and all(name.startswith("miclust") for name in threads)


def test_gram_from_four_user_threads_at_once(monkeypatch):
    X = _data(1023)[0]
    spec = KernelSpec("rbf", 0.5)
    expected = _serial(monkeypatch, lambda: gram(X, X, spec).values)
    results, start = [None] * 4, threading.Barrier(4)

    def call(i):
        start.wait()
        results[i] = gram(X, X, spec).values

    interval = sys.getswitchinterval()
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_WORKERS", 2)
        patch.setattr(kernels, "_PARALLEL_BYTES", 0)
        threads = [threading.Thread(target=call, args=(i,), daemon=True) for i in range(4)]
        sys.setswitchinterval(1e-6)  # more threads than cores, switching often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(_same_bytes(values, expected) for values in results)


def test_a_nested_call_runs_serially_in_its_worker(monkeypatch):
    X = _data(801)[0]
    expected = _serial(monkeypatch, lambda: gram(X, X, KernelSpec("rbf", 0.5)).values)
    inner = []

    def nested():
        inner.append(gram(X, X, KernelSpec("rbf", 0.5)).values)

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_WORKERS", 2)
        patch.setattr(kernels, "_PARALLEL_BYTES", 0)
        # both workers run a gram; were it to wait on the pool itself, no worker would be left to serve it
        thread = threading.Thread(target=kernels._map, args=(lambda task: task(), [nested, nested], 8 * 801 * 801),
                                  daemon=True)
        thread.start()
        thread.join(timeout=60)
    assert not thread.is_alive(), "a nested call deadlocked"
    assert len(inner) == 2 and all(_same_bytes(values, expected) for values in inner)


def test_below_the_size_floor_no_pool_is_made(monkeypatch):
    # n=700 holds 3.9 MB per n x n matrix, under the 4 MiB floor
    X, labels, P = _data(700)
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    monkeypatch.setattr(kernels, "_executor", lambda: pytest.fail("a pool was made below the size floor"))
    G = gram(X, X, KernelSpec("rbf"))
    mmd_gemini_ova(P, G)
    silhouette(X, labels)
    silhouette(np.sqrt(pairwise_sq_dist(X, X)), labels, precomputed=True)


def test_silhouette_walks_its_distances_with_the_worker_count_of_gram(monkeypatch):
    # one row-block walker for every n x n pass: the distance epilogue and the per-cluster walk alike
    X, labels, _ = _data(801)
    D = np.sqrt(pairwise_sq_dist(X, X))
    walks = []  # the runs of blocks of each pass that goes on the pool, one per worker
    executor = kernels._executor

    class Recording:
        def map(self, fn, runs):
            walks.append(len(runs))
            return executor().map(fn, runs)

    monkeypatch.setattr(kernels, "_WORKERS", 2)
    monkeypatch.setattr(kernels, "_PARALLEL_BYTES", 0)
    monkeypatch.setattr(kernels, "_executor", Recording)
    gram(X, X, KernelSpec("rbf", 0.5))
    assert walks == [2]
    silhouette(X, labels)
    assert walks[1:] == [2]  # one walk, each block's distances and sqrt built in it
    silhouette(D, labels, precomputed=True)
    assert walks[2:] == [2]  # the walk alone


@pytest.mark.parametrize("workers", WORKERS)
def test_silhouette_on_the_pool_keeps_its_serial_bits_to_a_one_row_last_block(monkeypatch, workers):
    X, labels, _ = _data(1141)
    assert 1141 % (kernels._BLOCK_BYTES // (8 * 1141)) == 1  # 10 row blocks of 114 rows, then one of 1 row
    D = np.sqrt(pairwise_sq_dist(X, X))

    def scores():
        return silhouette(X, labels), silhouette(D, labels, precomputed=True)

    serial, threaded = _serial(monkeypatch, scores), _threaded(monkeypatch, workers, scores)
    for (mean, per_sample), (mean_d, per_sample_d) in (serial, threaded):
        # the distances built block by block in the walk are those of the whole matrix, bit for bit
        assert _same_bytes(per_sample, per_sample_d) and _same_bytes(mean, mean_d)
    assert all(_same_bytes(a[1], b[1]) for a, b in zip(serial, threaded))


def test_a_non_square_build_on_the_pool_keeps_its_serial_bits_to_a_one_row_last_block(monkeypatch):
    gen = np.random.default_rng(6)
    X, Y = gen.normal(size=(787, 2)), gen.normal(size=(500, 2))
    assert 787 % (kernels._BLOCK_BYTES // (8 * 500)) == 1  # 3 row blocks of 262 rows, then one of 1 row

    def build():
        return pairwise_sq_dist(X, Y), gram(X, Y, KernelSpec("rbf", 0.5)).values

    serial, threaded = _serial(monkeypatch, build), _threaded(monkeypatch, 2, build)
    assert all(_same_bytes(a, b) for a, b in zip(serial, threaded))


def test_silhouette_sums_that_overflow_on_a_pool_thread_raise_without_a_warning(monkeypatch):
    # numpy's error state belongs to each thread, so the walk sets it in every block it runs
    labels = np.arange(801) % 3
    D = np.full((801, 801), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sums do not overflow"):
            _threaded(monkeypatch, 2, lambda: silhouette(D, labels, precomputed=True))


@pytest.mark.parametrize("workers", [1, 2])
def test_rbf_gram_whose_exponent_overflows_is_its_zero_one_matrix_without_a_warning(monkeypatch, workers):
    # gamma * d^2 past float64 is -inf, whose exp 0 is the kernel's value; each thread sets its own error state
    X = np.random.default_rng(5).integers(-20, 20, size=(801, 2)).astype(float)  # exact distances, with duplicates
    G = _threaded(monkeypatch, workers, lambda: gram(X, X, KernelSpec("rbf", 1e308)).values)
    assert np.array_equal(G, (X[:, None] == X[None]).all(axis=2))


def test_importing_the_cli_loads_no_thread_pool_module():
    # the pool's module costs each process a few ms, so only a computation that uses the pool imports it
    code = "import sys, miclust.cli; sys.exit('concurrent.futures' in sys.modules)"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def test_the_pool_has_one_worker_per_core_of_the_affinity():
    # under `taskset -c 0` this is 1, and every call of this file's serial path runs as it would there
    expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert kernels._WORKERS == expected


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_makes_its_own_pool(monkeypatch):
    X = _data(801)[0]
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    monkeypatch.setattr(kernels, "_PARALLEL_BYTES", 0)
    expected = gram(X, X, KernelSpec("rbf", 0.5)).values  # the parent's pool exists from here on
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # forking a threaded process warns from Python 3.12
        pid = os.fork()
    if pid == 0:
        signal.alarm(60)  # a child stuck on the parent's dead pool dies instead of hanging the suite
        os._exit(0 if _same_bytes(gram(X, X, KernelSpec("rbf", 0.5)).values, expected) else 1)
    assert os.waitpid(pid, 0)[1] == 0
