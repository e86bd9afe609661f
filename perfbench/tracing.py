"""Per-layer tracing from outside the library.

The benchmark times miclust's layers without editing them: it replaces each
public function with a timing wrapper at every module that binds it by name
(`optim` imports `gram`, `mi`, `rim` and `mmd_gemini_ova`; the package root
re-exports nearly everything), and wraps the model-class methods and
`Adam.step` on their classes. Spans nest; a span's self time is its duration
minus the durations of the spans it caused. Only per-name aggregates are
kept, so memory does not grow with the number of calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function, span name): free functions, patched wherever bound
FUNCTIONS = [
    ("miclust.kernels", "gram", "kernels.gram"),
    ("miclust.models", "dataset_fingerprint", "models.fingerprint"),
    ("miclust.objectives", "mi", "objectives.mi"),
    ("miclust.objectives", "rim", "objectives.rim"),
    ("miclust.objectives", "mmd_gemini_ova", "objectives.mmd_gemini_ova"),
    ("miclust.optim", "fit", "optim.fit"),
    ("miclust.optim", "predict", "optim.predict"),
    ("miclust.contrastive", "augment", "contrastive.augment"),
    ("miclust.contrastive", "info_nce_loss", "contrastive.info_nce_loss"),
    ("miclust.contrastive", "train_contrastive", "contrastive.train"),
    ("miclust.baselines", "kmeans", "baselines.kmeans"),
    ("miclust.baselines", "spectral", "baselines.spectral"),
    ("miclust.baselines", "kernel_kmeans_score", "baselines.kernel_kmeans_score"),
    ("miclust.metrics", "silhouette", "metrics.silhouette"),
    ("miclust.metrics", "ari", "metrics.ari"),
    ("miclust.data", "make_circles", "data.make_circles"),
    ("miclust.data", "load_csv", "data.load_csv"),
    ("miclust.data", "save_csv", "data.save_csv"),
    ("miclust.cli", "cmd_generate", "cli.generate"),
    ("miclust.cli", "cmd_fit", "cli.fit"),
    ("miclust.cli", "cmd_boundary", "cli.boundary"),
    ("miclust.cli", "cmd_sweep", "cli.sweep"),
    ("miclust.cli", "cmd_contrastive", "cli.contrastive"),
]

# (module, class, method, span name): methods, patched on the class that defines them
METHODS = [
    ("miclust.models", "ClusterModel", "forward", "models.forward"),
    ("miclust.models", "ClusterModel", "backward", "models.backward"),
    ("miclust.models", "LinearModel", "logits", "models.logits"),
    ("miclust.models", "KernelModel", "logits", "models.logits"),
    ("miclust.models", "MlpModel", "logits", "models.logits"),
    ("miclust.models", "NonparametricModel", "logits", "models.logits"),
    ("miclust.models", "LinearModel", "backward_from_logits", "models.backward_from_logits"),
    ("miclust.models", "KernelModel", "backward_from_logits", "models.backward_from_logits"),
    ("miclust.models", "MlpModel", "backward_from_logits", "models.backward_from_logits"),
    ("miclust.models", "NonparametricModel", "backward_from_logits", "models.backward_from_logits"),
    ("miclust.optim", "Adam", "step", "optim.adam_step"),
]


class SpanStats:
    """Aggregate of every span with one name."""

    __slots__ = ("calls", "total_s", "self_s", "out_bytes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.out_bytes = 0


class Tracer:
    """Collects span aggregates while installed; restores the library on exit.

    Use as a context manager around the traced calls::

        with Tracer() as tracer:
            mc.fit(...)
        tracer.stats["kernels.gram"].calls
    """

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        counts_bytes = name == "kernels.gram"  # the bytes of Gram output computed
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - children[0]
            if counts_bytes:
                stats.out_bytes += result.values.nbytes
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for mod_name, _, _ in FUNCTIONS:
            importlib.import_module(mod_name)
        modules = [m for n, m in sorted(sys.modules.items()) if n == "miclust" or n.startswith("miclust.")]
        for mod_name, fn_name, span in FUNCTIONS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapped = self._wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)
        for mod_name, cls_name, method, span in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._patch(cls, method, self._wrap(span, vars(cls)[method]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0
