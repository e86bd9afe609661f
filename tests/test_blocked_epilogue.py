"""The O(n^2) distance layer against the out-of-place formulas it replaced, across block edges.

`pairwise_sq_dist`, the rbf `gram` and `silhouette` build their distances in
row blocks of `kernels._BLOCK_BYTES`, each block from its own gemm
`(2X)[rows] Y^T` written into the output, and the silhouette then walks its
distances in row blocks of the same size. A gemm over a row block need not
give the last bits of the whole-matrix gemm, so the out-of-place oracle
takes its gemm over the same row blocks. That size is shrunk here so that
small inputs reach every edge: a single block, a short last block, a
one-row last block, one row per block and clusters whose members straddle
block edges. The linear and kernel heads' weight gradient is pinned
to the column-major product `F^T dZ`, whose bits a row-major `(dZ^T F)^T`
does not keep at every K.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from miclust import KernelSpec, gram, init_model, make_circles, silhouette, standardize
from miclust import kernels, metrics
from miclust.data import make_rng
from miclust.kernels import pairwise_sq_dist


def _sq_dist_out_of_place(X, Y, step=None):
    """The norm expansion out of place, its gemm 2X[rows] @ Y^T run alone on each row block: by default the layer's,
    or of `step` rows."""
    step = step or max(1, kernels._BLOCK_BYTES // (8 * max(len(Y), 1)))
    sq = np.add.outer((X * X).sum(axis=1), (Y * Y).sum(axis=1))
    for lo in range(0, len(X), step):
        sq[lo:lo + step] -= 2.0 * X[lo:lo + step] @ Y.T
    return np.maximum(sq, 0.0, out=sq)


def _gram_out_of_place(X, Y, spec):
    spec = spec.resolve(X)
    if spec.kind == "linear":
        return X @ Y.T
    values = _sq_dist_out_of_place(X, Y)
    values *= -spec.gamma
    return np.exp(values, out=values)


def _silhouette_out_of_place(D, labels):
    """Silhouette from a full distance matrix through whole-matrix gathers per cluster."""
    labels = np.asarray(labels, dtype=np.int64)
    uniq, inv = np.unique(labels, return_inverse=True)
    n = labels.size
    sizes = np.bincount(inv)
    mean_to = np.empty((n, uniq.size))
    intra = np.zeros(n)
    for j, k in enumerate(uniq):
        mask = labels == k
        mean_to[:, j] = D[:, mask].sum(axis=1) / sizes[j]
        if sizes[j] > 1:
            idx = np.flatnonzero(mask)
            intra[idx] = np.ascontiguousarray(D[np.ix_(idx, idx)]).sum(axis=1) / (sizes[j] - 1)
    mean_to[np.arange(n), inv] = np.inf
    outer = mean_to.min(axis=1)
    denom = np.maximum(intra, outer)
    scores = np.divide(outer - intra, denom, out=np.zeros(n), where=(sizes[inv] > 1) & (denom > 0))
    return float(scores.mean()), scores


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# block sizes in bytes: the default, 40 rows of m=3 (so n=37 fits one block and n=101 ends on a
# short block), and 16 bytes, less than one row of every case (one row per block)
BLOCKS = {"default": kernels._BLOCK_BYTES, "rows-of-40": 8 * 3 * 40, "one-row": 16}


def _pairs():
    gen = make_rng(11)
    X = gen.normal(size=(101, 3))
    yield pytest.param(X[:37], gen.normal(size=(3, 3)), id="n37-m3")
    yield pytest.param(X, gen.normal(size=(3, 3)), id="n101-m3")
    yield pytest.param(X, gen.normal(size=(64, 3)), id="n101-m64")
    yield pytest.param(X, X, id="same-array")
    Y = gen.normal(size=(50, 7))
    yield pytest.param(Y, Y[::2], id="strided-m25-d7")


@pytest.mark.parametrize("block", list(BLOCKS.values()), ids=list(BLOCKS))
@pytest.mark.parametrize("X,Y", list(_pairs()))
def test_pairwise_sq_dist_is_the_out_of_place_formula_at_every_block_size(X, Y, block, monkeypatch):
    monkeypatch.setattr(kernels, "_BLOCK_BYTES", block)
    assert _same_bytes(pairwise_sq_dist(X, Y), _sq_dist_out_of_place(X, Y))


SPECS = {"rbf": KernelSpec("rbf"), "rbf-0.3": KernelSpec("rbf", 0.3), "linear": KernelSpec("linear")}


@pytest.mark.parametrize("spec", list(SPECS.values()), ids=list(SPECS))
@pytest.mark.parametrize("block", list(BLOCKS.values()), ids=list(BLOCKS))
@pytest.mark.parametrize("X,Y", list(_pairs()))
def test_gram_is_the_out_of_place_formula_at_every_block_size(X, Y, block, spec, monkeypatch):
    monkeypatch.setattr(kernels, "_BLOCK_BYTES", block)
    K = gram(X, Y, spec)
    assert _same_bytes(K.values, _gram_out_of_place(X, Y, spec))
    assert K.spec == spec.resolve(X)


@pytest.mark.parametrize("shapes", [((0, 3), (5, 3)), ((5, 3), (0, 3)), ((0, 3), (0, 3))], ids=str)
def test_empty_inputs_keep_their_shapes(shapes):
    X, Y = np.zeros(shapes[0]), np.ones(shapes[1])
    expected = (shapes[0][0], shapes[1][0])
    assert pairwise_sq_dist(X, Y).shape == expected
    assert _same_bytes(pairwise_sq_dist(X, Y), _sq_dist_out_of_place(X, Y))
    for spec in (KernelSpec("rbf", 0.3), KernelSpec("linear")):
        assert _same_bytes(gram(X, Y, spec).values, _gram_out_of_place(X, Y, spec))


def _assert_whole_matrix_bits(X, Y, labels=None, spec=KernelSpec("rbf")):
    """pairwise_sq_dist, the rbf gram and, on X against itself, the silhouette keep the bits of
    max(xx + yy^T - (2X) Y^T, 0) with one gemm over the whole matrix, as the layer computed it before blocking."""
    sq = _sq_dist_out_of_place(X, Y, step=len(X))
    assert _same_bytes(pairwise_sq_dist(X, Y), sq)
    if labels is not None:
        expected_mean, expected = silhouette(np.sqrt(sq), labels, precomputed=True)
        mean, scores = silhouette(X, labels)
        assert _same_bytes(scores, expected) and repr(mean) == repr(expected_mean)
    np.exp(np.multiply(sq, -spec.resolve(X).gamma, out=sq), out=sq)
    assert _same_bytes(gram(X, Y, spec).values, sq)


# standardized circles at n=150 and at the sizes the benchmark's digests and the acceptance bands use (200, 1000,
# 4000): at these n a gemm per row block of the default size gives the whole gemm's bits, so those digests hold; at
# n=2047, for one, it does not
@pytest.mark.parametrize("n", [150, 200, 1000, 4000])
def test_benchmark_circles_keep_the_bits_of_the_whole_matrix_gemm(n):
    circles = standardize(make_circles(n, 0.05, 0.1, 0))
    _assert_whole_matrix_bits(circles.values, circles.values, circles.labels)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 400), m=st.integers(1, 400), d=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_one_block_keeps_the_bits_of_the_whole_matrix_gemm(n, m, d, seed):
    # where 8 n m <= _BLOCK_BYTES, the one row block's gemm is the whole gemm
    m = min(m, kernels._BLOCK_BYTES // (8 * n))
    gen = make_rng(seed)
    X, Y = gen.normal(size=(n, d)), gen.normal(size=(m, d))
    _assert_whole_matrix_bits(X, Y, spec=KernelSpec("rbf", 0.5))
    if n >= 2 and 8 * n * n <= kernels._BLOCK_BYTES:
        _assert_whole_matrix_bits(X, X, np.arange(n) % 2, KernelSpec("rbf", 0.5))


def _labelings():
    gen = make_rng(12)
    X = gen.normal(size=(101, 3))
    labels = gen.integers(0, 3, size=101)
    labels[:3] = [0, 1, 2]
    yield pytest.param(X, labels, id="k3-random")  # every block holds members of every cluster
    yield pytest.param(X, np.repeat([4, 9], [50, 51]), id="k2-contiguous")  # one cluster edge inside a block
    labels = gen.integers(0, 2, size=101)
    labels[:4] = [0, 1, 2, 3]
    yield pytest.param(X, labels, id="singletons")
    X = gen.normal(size=(300, 2))  # rows past numpy's 128-element pairwise-sum block
    labels = gen.integers(0, 4, size=300)
    labels[:4] = [0, 1, 2, 3]
    yield pytest.param(X, labels, id="k4-n300")
    # about 150 members per cluster, each cluster more than 128 members inside one block of the walk
    yield pytest.param(X, gen.integers(0, 2, size=300), id="k2-n300")


# 40 rows of n=101 (a short last block of 21), 4 rows (a one-row last block), 3 rows (a last block of 2) and
# one row per block, for the distance epilogue and the silhouette's walk alike
SILHOUETTE_BLOCKS = {"default": None, "rows-of-40": 8 * 101 * 40, "rows-of-4": 8 * 101 * 4,
                     "rows-of-3": 8 * 101 * 3, "one-row": 16}


@pytest.mark.parametrize("block", list(SILHOUETTE_BLOCKS.values()), ids=list(SILHOUETTE_BLOCKS))
@pytest.mark.parametrize("X,labels", list(_labelings()))
def test_silhouette_is_the_out_of_place_formula_at_every_block_size(X, labels, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", block)
    D = np.sqrt(_sq_dist_out_of_place(X, X))
    expected_mean, expected = _silhouette_out_of_place(D, labels)
    mean, scores = silhouette(X, labels)
    assert _same_bytes(scores, expected) and repr(mean) == repr(expected_mean)
    # precomputed, in every layout: C order, Fortran order, and strided views of a larger buffer
    gen = make_rng(13)
    D = D + gen.uniform(0.0, 1e-3, size=D.shape)  # not symmetric, so a transposed read would show
    D[gen.uniform(size=D.shape) < 0.1] = -0.0  # signed zeros; the test below checks the signs of their means
    expected_mean, expected = _silhouette_out_of_place(D, labels)
    n = labels.size
    big = np.zeros((2 * n, 3 * n))
    big[::2, ::3] = D
    for layout in (D, np.asfortranarray(D), big[::2, ::3], np.asfortranarray(big)[::2, ::3]):
        mean, scores = silhouette(layout, labels, precomputed=True)
        assert _same_bytes(scores, expected) and repr(mean) == repr(expected_mean)


@pytest.mark.parametrize("block", list(SILHOUETTE_BLOCKS.values()), ids=list(SILHOUETTE_BLOCKS))
@pytest.mark.parametrize("X,labels", list(_labelings()))
def test_silhouette_means_are_running_sums_in_member_order(X, labels, block, monkeypatch):
    # the sign of a zero mean never reaches a score, so the means are read where they meet the minimum
    _, inv = np.unique(labels, return_inverse=True)
    sizes = np.bincount(inv)
    D = np.sqrt(_sq_dist_out_of_place(X, X))
    D[make_rng(17).uniform(size=D.shape) < 0.3] = -0.0
    D[:, inv == sizes.argmin()] = -0.0  # every row's sum over the smallest cluster is -0.0
    expected = np.column_stack([np.cumsum(D[:, inv == j], axis=1)[:, -1] / sizes[j] for j in range(sizes.size)])
    expected[np.arange(labels.size), inv] = np.inf
    seen = []
    monkeypatch.setattr(metrics, "_row_reduce", lambda ufunc, A: seen.append(A.copy()) or kernels._row_reduce(ufunc, A))
    if block is not None:
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", block)
    silhouette(D, labels, precomputed=True)
    assert len(seen) == 1 and _same_bytes(seen[0], expected)


N_PEAK = 2000


def _peak_in_n2_doubles(call):
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * N_PEAK**2)


@pytest.fixture(scope="module")
def circles_2000():
    return standardize(make_circles(N_PEAK, 0.05, 0.1, 0))


@pytest.mark.parametrize("name", ["pairwise_sq_dist", "gram", "silhouette"])
def test_one_n_by_n_buffer_per_build(name, circles_2000):
    X, labels = circles_2000.values, circles_2000.labels
    call = {
        "pairwise_sq_dist": lambda: pairwise_sq_dist(X, X),
        "gram": lambda: gram(X, X, KernelSpec("rbf")),
        "silhouette": lambda: silhouette(X, labels),
    }[name]
    call()  # first-call allocations stay out of the measured peak
    # the silhouette builds and walks one row block of distances at a time, holding no n x n
    assert _peak_in_n2_doubles(call) < (0.25 if name == "silhouette" else 1.2)


def _head_cases():
    gen = make_rng(14)
    for n in (1, 2, 200, 801, 1023):
        X = gen.normal(size=(n, 2))
        yield pytest.param("linear", X, X, id=f"linear-n{n}")
        yield pytest.param("kernel", X, gram(X, X, KernelSpec("rbf")).values, id=f"kernel-n{n}")


# from K = 12 with 300 or more feature columns, (dZ^T F)^T gave other last bits on one OpenBLAS 0.3.31 thread
@pytest.mark.parametrize("k", [1, 2, 3, 5, 12, 20])
@pytest.mark.parametrize("kind,X,F", list(_head_cases()))
def test_head_backward_is_the_column_major_product(kind, X, F, k):
    model = init_model(kind, {"d": 2, "k": k}, rng=15, X_ref=X)
    dZ = make_rng(16).normal(size=(len(X), k))
    grads = model.head_backward(F, model.head(F)[1], dZ)
    assert _same_bytes(np.ascontiguousarray(grads[model.weight_keys[0]]), F.T @ dZ)
    assert _same_bytes(grads["b"], dZ.sum(axis=0))
