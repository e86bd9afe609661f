"""Acceptance suite: reproduction bands on the concentric-circles benchmark.

Each test prints one PASS/FAIL line so the whole gate can be read at a
glance. Bands are evaluated over seeds 0..9 on standardized circles
(n=200, noise=0.05, factor=0.1); per-seed values are deterministic.
"""

import time

import numpy as np
import pytest

import miclust as mc
from miclust import KernelSpec, TrainConfig

SEEDS = range(10)


_REPORTER = None


@pytest.fixture(autouse=True)
def grab_terminal_reporter(request):
    # the terminal reporter writes through pytest's output capture, so the
    # PASS/FAIL lines always show
    global _REPORTER
    _REPORTER = request.config.pluginmanager.getplugin("terminalreporter")
    yield


def announce(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}: {detail}"
    if _REPORTER is not None:
        _REPORTER.write_line(line)
    else:
        print(line, flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def circles():
    return mc.standardize(mc.make_circles(200, 0.05, 0.1, 0))


@pytest.fixture(scope="module")
def blobs():
    means = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])  # >= 10 sigma apart
    return mc.standardize(mc.make_gaussian_blobs(means, 0.5, 50, 0))


def test_kmeans_baseline_band(circles):
    start = time.perf_counter()
    aris = []
    for seed in SEEDS:
        labels, _, _ = mc.kmeans(circles.values, 2, n_init=10, rng=seed)
        aris.append(mc.ari(circles.labels, labels))
    med = float(np.median(aris))
    announce(
        "kmeans on circles",
        med <= 0.35,
        f"median ARI {med:.3f} <= 0.35 ({time.perf_counter() - start:.1f}s)",
    )


def test_linear_rim_band(circles):
    start = time.perf_counter()
    aris = []
    for seed in SEEDS:
        model = mc.init_model("linear", {"d": 2, "k": 2}, rng=seed)
        cfg = TrainConfig(epochs=1000, learning_rate=1e-3, seed=seed, objective="rim", lam=0.1)
        report = mc.fit(model, circles.values, cfg)
        aris.append(mc.ari(circles.labels, report.labels))
    med = float(np.median(np.abs(aris)))
    announce(
        "linear RIM on circles",
        med <= 0.10,
        f"median |ARI| {med:.3f} <= 0.10 ({time.perf_counter() - start:.1f}s)",
    )


def test_kernel_rim_band(circles):
    start = time.perf_counter()
    perfect = 0
    for seed in SEEDS:
        model = mc.init_model("kernel", {"k": 2}, rng=seed, X_ref=circles.values)
        cfg = TrainConfig(epochs=1000, learning_rate=1e-3, seed=seed, objective="rim", lam=0.0)
        report = mc.fit(model, circles.values, cfg)
        perfect += mc.ari(circles.labels, report.labels) == 1.0
    announce(
        "kernel RIM on circles",
        perfect >= 8,
        f"ARI=1.0 in {perfect}/10 seeds (need >= 8) ({time.perf_counter() - start:.1f}s)",
    )


def test_spectral_band(circles):
    start = time.perf_counter()
    perfect = 0
    for seed in SEEDS:
        labels = mc.spectral(circles.values, 2, rng=seed)
        perfect += mc.ari(circles.labels, labels) == 1.0
    announce(
        "spectral clustering on circles",
        perfect >= 8,
        f"ARI=1.0 in {perfect}/10 seeds (need >= 8) ({time.perf_counter() - start:.1f}s)",
    )


def test_mlp_objectives_band(circles):
    start = time.perf_counter()
    mi_aris, mmd_perfect = [], 0
    for seed in SEEDS:
        model = mc.init_model("mlp", {"d": 2, "k": 2, "hidden": 20}, rng=seed)
        cfg = TrainConfig(epochs=1000, learning_rate=1e-3, seed=seed, objective="mi")
        report = mc.fit(model, circles.values, cfg)
        mi_aris.append(mc.ari(circles.labels, report.labels))

        model = mc.init_model("mlp", {"d": 2, "k": 2, "hidden": 20}, rng=seed)
        cfg = TrainConfig(epochs=1000, learning_rate=1e-3, seed=seed, objective="mmd-gemini")
        report = mc.fit(model, circles.values, cfg)
        mmd_perfect += mc.ari(circles.labels, report.labels) == 1.0
    med = float(np.median(mi_aris))
    announce(
        "mlp MI vs mlp MMD-GEMINI on circles",
        med <= 0.5 and mmd_perfect >= 8,
        f"MI median ARI {med:.3f} <= 0.5; MMD ARI=1.0 in {mmd_perfect}/10 seeds "
        f"(need >= 8) ({time.perf_counter() - start:.1f}s)",
    )


def test_blobs_balanced_failure_band(blobs):
    start = time.perf_counter()
    mi_ok, mmd_ok = 0, 0
    for seed in SEEDS:
        model = mc.init_model("nonparametric", {"k": 3}, scale=0.1, rng=seed, X=blobs.values)
        cfg = TrainConfig(epochs=2000, learning_rate=1e-3, seed=seed, objective="mi")
        report = mc.fit(model, blobs.values, cfg)
        a = mc.ari(blobs.labels, report.labels)
        sizes = np.bincount(report.labels, minlength=3)
        # MI splits the data into near-equal thirds that ignore the components
        mi_ok += a < 0.2 and np.all(np.abs(sizes - 50) <= 5)

        model = mc.init_model("nonparametric", {"k": 3}, rng=seed, X=blobs.values)
        cfg = TrainConfig(epochs=1000, learning_rate=1e-2, seed=seed, objective="mmd-gemini")
        report = mc.fit(model, blobs.values, cfg)
        mmd_ok += mc.ari(blobs.labels, report.labels) >= 0.9
    announce(
        "nonparametric MI vs MMD-GEMINI on 3 blobs",
        mi_ok == 10 and mmd_ok == 10,
        f"MI balanced-but-wrong in {mi_ok}/10 seeds; MMD ARI>=0.9 in {mmd_ok}/10 seeds "
        f"({time.perf_counter() - start:.1f}s)",
    )


def test_contrastive_augmentation_contrast(circles):
    start = time.perf_counter()
    rotation_perfect, noise_low = 0, 0
    for seed in SEEDS:
        critic = mc.init_critic(2, 20, 2, rng=seed)
        cfg = TrainConfig(epochs=5000, learning_rate=1e-4, seed=seed)
        report = mc.train_contrastive(critic, circles.values, mc.Rotation2D(0.0, 2 * np.pi), cfg)
        rotation_perfect += mc.ari(circles.labels, report.labels) == 1.0

        critic = mc.init_critic(2, 20, 2, rng=seed)
        report = mc.train_contrastive(critic, circles.values, mc.GaussianNoise(1.0), cfg)
        noise_low += mc.ari(circles.labels, report.labels) < 0.5
    announce(
        "contrastive rotation vs noise on circles",
        rotation_perfect >= 6 and noise_low >= 8,
        f"rotation ARI=1.0 in {rotation_perfect}/10 (need >= 6); noise ARI<0.5 in "
        f"{noise_low}/10 (need >= 8) ({time.perf_counter() - start:.1f}s)",
    )


def test_property_suite(circles):
    start = time.perf_counter()
    try:
        _run_property_checks(circles)
    except AssertionError as exc:
        announce("property suite", False, str(exc))
    announce("property suite", True, f"all properties hold ({time.perf_counter() - start:.1f}s)")


def _run_property_checks(circles):
    from miclust.data import make_rng

    gen = make_rng(0)

    # MI bounds on random responsibilities plus the two pinned endpoints
    for _ in range(1000):
        n = int(gen.integers(2, 40))
        K = int(gen.integers(2, 6))
        v = mc.mi(gen.dirichlet(np.ones(K), size=n)).value
        assert -1e-12 <= v <= min(np.log(K), np.log(n)) + 1e-12
    assert abs(mc.mi(np.array([[1.0, 0.0], [0.0, 1.0]] * 8)).value - np.log(2.0)) < 1e-9
    assert abs(mc.mi(np.tile([0.4, 0.6], (12, 1))).value) < 1e-12

    # fairness minus firmness equals MI
    for _ in range(100):
        P = gen.dirichlet(np.ones(3), size=int(gen.integers(2, 25)))
        h_y, h_y_x = mc.fairness_firmness(P)
        assert abs((h_y - h_y_x) - mc.mi(P).value) < 1e-9

    # analytic gradients agree with finite differences for every pairing
    small = mc.standardize(mc.make_circles(12, 0.05, 0.3, 1))
    for kind in ("linear", "kernel", "mlp", "nonparametric"):
        kwargs = {}
        if kind == "kernel":
            kwargs["X_ref"] = small.values
        if kind == "nonparametric":
            kwargs["X"] = small.values
        for objective, (needs_gram, _) in mc.optim.OBJECTIVES.items():
            model = mc.init_model(kind, {"d": 2, "k": 2, "hidden": 4}, scale=0.3, rng=2, **kwargs)
            tol = 1e-4 if needs_gram else 1e-5
            rep = mc.check_gradients(model, objective, small.values, tol=tol, lam=0.1)
            assert rep.passed, f"{kind}/{objective}: {rep.max_rel_err}"

    # kernel K-means score matches centroid inertia under a linear kernel
    for _ in range(100):
        n = int(gen.integers(4, 25))
        X = gen.normal(size=(n, 2))
        labels = gen.integers(0, 3, size=n)
        labels[:3] = [0, 1, 2]
        G = mc.gram(X, X, KernelSpec("linear")).values
        inertia = sum(((X[labels == k] - X[labels == k].mean(axis=0)) ** 2).sum() for k in range(3))
        assert abs(inertia - (np.trace(G) + mc.kernel_kmeans_score(labels, G))) < 1e-9

    # ARI pinned values and behaviour under relabeling / random labels
    ident = gen.integers(0, 4, size=50)
    ident[:4] = [0, 1, 2, 3]
    assert mc.ari(ident, ident) == 1.0
    assert mc.ari([0, 0, 1, 1], [0, 1, 0, 1]) == -0.5
    b = gen.integers(0, 3, size=40)
    assert abs(mc.ari(ident[:40], b) - mc.ari(ident[:40], (b + 1) % 3)) < 1e-15
    rand = [mc.ari(gen.integers(0, 3, size=100), gen.integers(0, 3, size=100)) for _ in range(100)]
    assert abs(float(np.mean(rand))) < 0.02

    # silhouette bounds and the two-pair hand case (exact value 0.98999975,
    # which rounds to 0.9900)
    for _ in range(20):
        X = gen.normal(size=(30, 2))
        labels = gen.integers(0, 3, size=30)
        labels[:3] = [0, 1, 2]
        mean, scores = mc.silhouette(X, labels)
        assert np.all((scores >= -1.0) & (scores <= 1.0))
    hand, _ = mc.silhouette(np.array([[0.0], [0.1], [10.0], [10.1]]), [0, 0, 1, 1])
    assert abs(hand - 0.9899997499937521) < 1e-12

    # InfoNCE closed form and cosine rescale invariance
    loss, _ = mc.info_nce_loss(np.eye(2), np.eye(2))
    assert abs(loss - (-2.0 * np.e / (np.e + 1.0))) < 1e-9
    Z = gen.normal(size=(8, 4))
    Za = gen.normal(size=(8, 4))
    base, _ = mc.info_nce_loss(Z, Za)
    scaled, _ = mc.info_nce_loss(Z * gen.uniform(0.5, 3.0, size=(8, 1)), Za * gen.uniform(0.5, 3.0, size=(8, 1)))
    assert abs(base - scaled) < 1e-10

    # identical seeds give byte-identical serialized reports
    jsons = []
    for _ in range(2):
        model = mc.init_model("linear", {"d": 2, "k": 2}, rng=7)
        jsons.append(mc.fit(model, circles.values, TrainConfig(epochs=25, seed=7)).to_json())
    assert jsons[0] == jsons[1]
