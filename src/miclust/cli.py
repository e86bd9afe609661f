"""Command-line front end: dataset generation, fitting, boundary grids,
hyperparameter sweeps, and contrastive training.

Exit codes: 0 success, 2 usage error, 3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from miclust import baselines, contrastive as contrastive_mod, data as data_mod, metrics as metrics_mod
from miclust.errors import NumericError, integer, number
from miclust.kernels import KERNEL_KINDS, KernelSpec, gram
from miclust.models import MlpModel, init_model, load_model
from miclust.optim import OBJECTIVES, FitReport, TrainConfig, fit

MODEL_IDS = ("kmeans", "spectral", "linear", "linear-rim", "kernel", "kernel-rim", "mlp", "nonparametric")


def _parse_means(text: str) -> np.ndarray:
    text = text.replace("−", "-")  # tolerate unicode minus
    return np.asarray([[float(v) for v in part.split(",")] for part in text.split(";")])


def _load_config_file(path: str) -> list[str]:
    """Turn `key = value` lines into leading CLI flags (explicit flags win).

    A value of `true` sets the bare flag, as for `--standardize`; `false` leaves it out.
    """
    extra = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        flag, value = f"--{key.strip().replace('_', '-')}", value.strip()
        if value == "true":
            extra.append(flag)
        elif value != "false":
            extra += [flag, value]
    return extra


def _scores(X: data_mod.DataMatrix, report: FitReport) -> dict:
    """The ARI of the report's labels against X's (when it has them) and their silhouette (None when undefined)."""
    report.gram = None  # the fit's held n x n is let go before the silhouette builds its own
    out = {}
    if X.labels is not None:
        out["ari"] = metrics_mod.ari(X.labels, report.labels)
    try:
        out["silhouette"] = metrics_mod.silhouette(X.values, report.labels)[0]
    except ValueError:
        out["silhouette"] = None
    return out


def _write_report(out_dir: Path, report: FitReport, X: data_mod.DataMatrix) -> None:
    """Score the report's labels, write report.json into out_dir and print the metrics."""
    try:
        # kernel K-means scores with the kernel the fit trained against, else the kernel head's own, else linear; a
        # fit's held matrix on X is under exactly that kernel, so it saves a rebuild
        kernel = report.config.get("kernel") or report.final_model.get("kernel")
        spec = KernelSpec.from_dict(kernel) if kernel else KernelSpec("linear")
        score = baselines.kernel_kmeans_score(report.labels, report.gram or gram(X.values, X.values, spec))
    except ValueError:
        score = None
    report.metrics = dict(_scores(X, report), kernel_kmeans_score=score)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json())
    for name, value in sorted(report.metrics.items()):
        print(f"{name}: {value}")


def cmd_generate(args) -> int:
    if args.dataset == "circles":
        dm = data_mod.make_circles(args.n, args.noise, args.factor, args.seed)
    else:
        means = _parse_means(args.means)
        dm = data_mod.make_gaussian_blobs(means, args.std, args.count, args.seed)
    if args.standardize:
        dm = data_mod.standardize(dm)
    data_mod.save_csv(dm, args.out)
    print(f"wrote {dm.n} rows to {args.out}")
    return 0


def _run_model(args, X: data_mod.DataMatrix):
    """Run the `--model` id on X and return its report."""
    spec = KernelSpec(args.kernel, args.gamma)
    # an id names a model kind, with "-rim" spelling out the objective its kind defaults to
    kind = args.model.removesuffix("-rim")
    # checked for every id, so no flag is silently ignored by the ids it does not apply to
    integer("--hidden", args.hidden, 1), integer("--n-init", args.n_init, 1)
    if args.objective is not None and kind in ("kmeans", "spectral"):
        raise ValueError(f"--objective does not apply to --model {kind}, a baseline with no training objective")
    if args.objective not in (None, "rim") and args.model.endswith("-rim"):
        raise ValueError(f"--model {args.model} trains rim; it contradicts --objective {args.objective}")
    objective = args.objective or ("rim" if kind in ("linear", "kernel") else "mi")
    reg = args.reg
    if reg is None:
        # an unregularized linear model drifts to huge weights and an
        # arbitrary cut; the kernel model is well behaved without a penalty
        reg = 0.1 if (objective == "rim" and kind == "linear") else 0.0
    # built for every id, so the baselines reject the same flags as the trained models
    cfg = TrainConfig(epochs=args.epochs, learning_rate=args.lr, seed=args.seed, objective=objective, lam=reg,
                      kernel=spec)
    if kind == "kmeans":
        labels, centroids, inertia = baselines.kmeans(X.values, args.k, n_init=args.n_init, rng=args.seed)
        final = {"kind": "kmeans", "centroids": centroids.tolist(), "inertia": inertia}
        config = {"model": "kmeans", "k": args.k, "n_init": args.n_init, "seed": args.seed}
        return FitReport([], final, labels.tolist(), config)
    if kind == "spectral":
        labels = baselines.spectral(X.values, args.k, spec, rng=args.seed)
        config = {"model": "spectral", "k": args.k, "seed": args.seed, "kernel": spec.resolve(X.values).to_dict()}
        return FitReport([], {"kind": "spectral"}, labels.tolist(), config)
    dims = {"d": X.d, "k": args.k, "hidden": args.hidden}
    model = init_model(kind, dims, rng=args.seed, X_ref=X.values, spec=spec, X=X.values)
    return fit(model, X.values, cfg)


def cmd_fit(args) -> int:
    X = data_mod.load_csv(args.data)
    report = _run_model(args, X)
    out_dir = Path(args.out_dir)
    _write_report(out_dir, report, X)
    data_mod.write_csv(out_dir / "labels.csv", ["index", "label"], enumerate(report.labels))
    if args.history_csv:
        history = ((e, repr(v)) for e, v in enumerate(report.history))
        data_mod.write_csv(out_dir / "history.csv", ["epoch", "value"], history)
    return 0


def cmd_boundary(args) -> int:
    doc = json.loads(Path(args.model).read_text())
    if isinstance(doc, dict) and "kind" not in doc and "model" in doc:
        doc = doc["model"]  # accept a full report.json too
    integer("--resolution", args.resolution, 1)
    for bound in ("xmin", "xmax", "ymin", "ymax"):
        number(f"--{bound}", getattr(args, bound), "finite")
    model = load_model(doc)
    if not args.critic and model.n_clusters < 2:
        raise ValueError(f"boundary exports p(cluster 2), so it needs a model with k >= 2, got k={model.n_clusters}")
    xs = np.linspace(args.xmin, args.xmax, args.resolution)
    ys = np.linspace(args.ymin, args.ymax, args.resolution)
    gx, gy = np.meshgrid(xs, ys)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    # compute the whole column before opening --out, so a failure leaves no file
    if args.critic:
        if not isinstance(model, MlpModel):
            raise ValueError("--critic expects an mlp critic model")
        name, column = "argmax_value", [int(v) for v in contrastive_mod.extract_clusters(model, grid)]
    else:
        name, column = "p_cluster2", [repr(float(p)) for p in model.forward(grid)[:, 1]]
    data_mod.write_csv(args.out, ["x0", "x1", name], ([repr(x0), repr(x1), v] for (x0, x1), v in zip(grid, column)))
    print(f"wrote {grid.shape[0]} grid rows to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    X = data_mod.load_csv(args.data)
    k_lo, _, k_hi = args.k_range.partition(":")
    ks = list(range(int(k_lo), int(k_hi) + 1))
    seeds = sorted(int(s) for s in args.seeds.split(","))
    if not ks or not seeds:
        raise ValueError("empty sweep grid")
    rows = []
    for k in ks:
        for seed in seeds:
            report = _run_model(argparse.Namespace(**dict(vars(args), k=k, seed=seed)), X)
            # k-means reports no history; its objective is the negated inertia
            objective_value = report.history[-1] if report.history else -report.final_model.get("inertia", float("nan"))
            scores = _scores(X, report)
            shares = np.bincount(report.labels, minlength=k) / len(report.labels)
            used = int((shares > 1.0 / (10 * k)).sum())
            rows.append([args.model, k, seed, scores.get("ari"), scores["silhouette"], objective_value, used])
    data_mod.write_csv(args.out, ["model", "k", "seed", "ari", "silhouette", "objective", "used_clusters"], rows)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def cmd_contrastive(args) -> int:
    X = data_mod.load_csv(args.data)
    aug = contrastive_mod.parse_augmentation(args.aug)
    critic = contrastive_mod.init_critic(X.d, args.hidden, args.k, rng=args.seed)
    cfg = TrainConfig(epochs=args.epochs, learning_rate=args.lr, seed=args.seed)
    report = contrastive_mod.train_contrastive(critic, X.values, aug, cfg)
    _write_report(Path(args.out_dir), report, X)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="miclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset CSV")
    gen.add_argument("dataset", choices=["circles", "blobs"])
    gen.add_argument("--n", type=int, default=200)
    gen.add_argument("--noise", type=float, default=0.05)
    gen.add_argument("--factor", type=float, default=0.1)
    gen.add_argument("--means", default="0,0")
    gen.add_argument("--std", type=float, default=1.0)
    gen.add_argument("--count", type=int, default=50)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--standardize", action="store_true")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    def add_fit_flags(p):
        p.add_argument("--model", choices=MODEL_IDS, required=True)
        p.add_argument("--objective", choices=list(OBJECTIVES), default=None)
        p.add_argument("--data", required=True)
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--kernel", choices=KERNEL_KINDS, default="rbf")
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--reg", type=float, default=None)
        p.add_argument("--hidden", type=int, default=20)
        p.add_argument("--epochs", type=int, default=1000)
        p.add_argument("--lr", type=float, default=1e-3)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--n-init", type=int, default=10)

    fitp = sub.add_parser("fit", help="fit a clustering model and write a report")
    add_fit_flags(fitp)
    fitp.add_argument("--out-dir", required=True)
    fitp.add_argument("--history-csv", action="store_true", help="also write history.csv (epoch,value)")
    fitp.set_defaults(func=cmd_fit)

    bnd = sub.add_parser("boundary", help="export a decision-boundary grid CSV")
    bnd.add_argument("--model", required=True, help="model JSON file (or report model section)")
    bnd.add_argument("--critic", action="store_true", help="treat the model as a contrastive critic")
    bnd.add_argument("--xmin", type=float, default=-3.0)
    bnd.add_argument("--xmax", type=float, default=3.0)
    bnd.add_argument("--ymin", type=float, default=-3.0)
    bnd.add_argument("--ymax", type=float, default=3.0)
    bnd.add_argument("--resolution", type=int, default=100)
    bnd.add_argument("--out", required=True)
    bnd.set_defaults(func=cmd_boundary)

    swp = sub.add_parser("sweep", help="run fits across a cluster-count grid and seeds")
    add_fit_flags(swp)
    swp.add_argument("--k-range", default="2:6", help="inclusive range LO:HI")
    swp.add_argument("--seeds", default="0")
    swp.add_argument("--out", required=True)
    swp.set_defaults(func=cmd_sweep)

    con = sub.add_parser("contrastive", help="train the contrastive InfoNCE critic")
    con.add_argument("--data", required=True)
    con.add_argument("--aug", required=True, help="rotation:LO:HI or noise:SIGMA")
    con.add_argument("--k", type=int, default=2)
    con.add_argument("--hidden", type=int, default=20)
    con.add_argument("--epochs", type=int, default=5000)
    con.add_argument("--lr", type=float, default=1e-4)
    con.add_argument("--seed", type=int, default=0)
    con.add_argument("--out-dir", required=True)
    con.set_defaults(func=cmd_contrastive)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a config file provides flag defaults; explicit flags override
    if "--config" in argv:
        i = argv.index("--config")
        if i + 1 == len(argv):
            print("error: --config expects a file path", file=sys.stderr)
            return 2
        path = argv[i + 1]
        argv = argv[:i] + argv[i + 2 :]
        try:
            extra = _load_config_file(path)
        except OSError as exc:
            print(f"error: cannot read config file: {exc}", file=sys.stderr)
            return 4
        argv = argv[:1] + extra + argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
