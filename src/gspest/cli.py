"""Command line front end.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure
(singular moments, unstable filter, infeasible perturbation, a score that is
not finite).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .errors import (
    ConfigError,
    GspestError,
    PerturbationInfeasibleError,
    SingularMomentsError,
    UnstableFilterError,
)
from .estimators import estimator_from_json, estimator_to_json
from .graphs import (
    PERTURB_MODES,
    build_laplacian,
    perturb,
    read_edge_list,
    write_edge_list,
)
from .harness import (
    FAMILIES,
    ExperimentConfig,
    _check_lpi_order,
    _config_grid,
    _finite_score,
    build_model,
    evaluate_mse,
    experiment_a,
    experiment_b,
    fit_by_label,
    measure_runtime,
)
from .moments import compute_moments, read_training_csv, stream_moments, write_training_csv
from .rng import derive

# FloatingPointError: a score that is not finite
_NUMERICAL = (
    SingularMomentsError, UnstableFilterError, PerturbationInfeasibleError, FloatingPointError
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; reserve 2 for numerical failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(args) -> ExperimentConfig:
    config = (
        ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    )
    if args.seed is not None:
        # replace re-runs the config's validation on the new seed
        config = replace(config, seed=args.seed)
    return config


def _cmd_graph(args) -> int:
    config = _load_config(args)
    if args.graph_cmd == "build":
        graph = _config_grid(config).graph()
        sg = build_laplacian(graph)
        write_edge_list(graph, args.out)
        print(
            f"wrote {args.out}: {graph.n_vertices} vertices, "
            f"{len(graph.edges)} edges, connectivity eigenvalue "
            f"{sg.eigenvalues[1]:.6g}"
        )
        return 0
    # perturb
    graph = read_edge_list(args.graph) if args.graph else _config_grid(config).graph()
    new_graph, _ = perturb(graph, args.count, args.mode, config.seed)
    write_edge_list(new_graph, args.out)
    print(
        f"wrote {args.out}: {new_graph.n_vertices} vertices, "
        f"{len(new_graph.edges)} edges ({args.mode} x{args.count})"
    )
    return 0


def _dataset_paths(prefix):
    return f"{prefix}-x.csv", f"{prefix}-g.csv"


def _cmd_dataset(args) -> int:
    config = _load_config(args)
    model = build_model(config)
    count = args.count if args.count is not None else config.training_size
    x_path, g_path = _dataset_paths(args.out)
    write_training_csv(model, count, derive(config.seed, "train", count), x_path, g_path)
    print(
        f"wrote {x_path} and {g_path}: {count} samples on "
        f"{model.sg.n_vertices} vertices"
    )
    return 0


_FIT_NAMES = {f.cli_name: f.label for f in FAMILIES}


def _moments_for(args, config, model):
    if args.dataset:
        x_path, g_path = _dataset_paths(args.dataset)
        try:
            ts = read_training_csv(model.sg, x_path, g_path, model.mean_x)
        except ValueError as exc:  # misshapen, non-numeric or non-finite CSVs
            raise ConfigError(f"bad dataset {args.dataset}: {exc}") from exc
        return compute_moments(ts, model.sigma2)
    count = config.training_size
    return stream_moments(model, count, derive(config.seed, "train", count))


def _cmd_fit(args) -> int:
    config = _load_config(args)
    model = build_model(config)
    label = _FIT_NAMES[args.filter]
    _check_lpi_order(config, (label,), model)
    m = _moments_for(args, config, model)
    est = fit_by_label(label, m, config)
    with open(args.out, "w") as fh:
        fh.write(estimator_to_json(est))
    converged = getattr(est, "converged", True)
    print(f"wrote {args.out}: {label}" + ("" if converged else " (not converged)"))
    return 0


def _cmd_eval(args) -> int:
    config = _load_config(args)
    model = build_model(config)
    with open(args.estimator) as fh:
        text = fh.read()
    try:
        est = estimator_from_json(text, model.sg)
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers bad JSON
        raise ConfigError(f"bad estimator {args.estimator}: {exc!r}") from exc
    mse, stderr = evaluate_mse(
        est, model, config.trials, derive(config.seed, "test", 0, 0)
    )
    if not _finite_score(mse, stderr):
        raise FloatingPointError(f"{est.label} scores mse {mse} stderr {stderr}, not finite")
    print(f"{est.label}: mse {mse:.6g} stderr {stderr:.3g} ({config.trials} trials)")
    return 0


def _cmd_experiment(args) -> int:
    config = _load_config(args)
    report = experiment_a(config) if args.which == "a" else experiment_b(config)
    report.write_csv(args.out)
    n_fail = sum(r.status != "ok" for r in report.rows)
    print(f"wrote {args.out}: {len(report.rows)} rows" + (
        f" ({n_fail} failed)" if n_fail else ""
    ))
    return 0


def _cmd_runtime(args) -> int:
    config = _load_config(args)
    report = measure_runtime(config)
    report.write_csv(args.out)
    for r in report.rows:
        if r.param == "median-fit" and np.isfinite(r.wall_ms):
            print(f"{r.estimator}: {r.wall_ms:.3f} ms median fit, mse {r.mse:.6g}")
        elif r.param == "median-fit":
            print(f"{r.estimator}: failed ({r.status})")
    return 0


def _count_at_least(minimum):
    def count(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return value

    return count


def _add_common(p):
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--seed", type=int, help="override config seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gspest", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_graph = sub.add_parser("graph", help="build or perturb a weighted graph")
    gsub = p_graph.add_subparsers(dest="graph_cmd", required=True)
    g_build = gsub.add_parser("build", help="write the configured grid's edge list")
    g_build.add_argument("--out", required=True)
    _add_common(g_build)
    g_pert = gsub.add_parser("perturb", help="write a perturbed edge list")
    g_pert.add_argument("--graph", help="input edge list CSV (default: config grid)")
    g_pert.add_argument(
        "--mode",
        required=True,
        choices=PERTURB_MODES,
    )
    g_pert.add_argument("--count", type=_count_at_least(0), required=True)
    g_pert.add_argument("--out", required=True)
    _add_common(g_pert)

    p_data = sub.add_parser("dataset", help="generate training data")
    dsub = p_data.add_subparsers(dest="dataset_cmd", required=True)
    d_gen = dsub.add_parser("generate", help="write a seeded training CSV pair")
    d_gen.add_argument(
        "--count", type=_count_at_least(2), help="sample count (default: config)"
    )
    d_gen.add_argument("--out", required=True, help="path prefix (-x.csv, -g.csv)")
    _add_common(d_gen)

    p_fit = sub.add_parser("fit", help="fit an estimator, write it as JSON")
    p_fit.add_argument(
        "--filter", required=True, choices=sorted(_FIT_NAMES),
        help="estimator family",
    )
    p_fit.add_argument(
        "--dataset", help="training CSV pair prefix (default: seeded draws)"
    )
    p_fit.add_argument("--out", required=True)
    _add_common(p_fit)

    p_eval = sub.add_parser("eval", help="score a fitted estimator JSON")
    p_eval.add_argument("--estimator", required=True)
    _add_common(p_eval)

    p_exp = sub.add_parser("experiment", help="run an experiment protocol")
    p_exp.add_argument("which", choices=["a", "b"])
    p_exp.add_argument("--out", required=True)
    _add_common(p_exp)

    p_rt = sub.add_parser("runtime", help="time estimator fits")
    p_rt.add_argument("--out", required=True)
    _add_common(p_rt)

    return parser


_HANDLERS = {
    "graph": _cmd_graph,
    "dataset": _cmd_dataset,
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "experiment": _cmd_experiment,
    "runtime": _cmd_runtime,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.cmd](args)
    except _NUMERICAL as exc:
        print(f"gspest: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (GspestError, OSError) as exc:
        print(f"gspest: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
