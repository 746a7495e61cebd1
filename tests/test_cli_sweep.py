"""A seeded sweep of every ``gspest`` subcommand over small random grids.

Each case draws a connected grid of 3 to 12 buses, filter orders around its
bus count, a perturbation mode with counts up to its edge count and, in some
cases, a config value of 1e308 or one that is not finite, then runs every
subcommand on it in process. Whatever the input, a command exits 0, 1 (usage
or configuration error) or 2 (numerical failure); a failure says so on a
``gspest:`` line, never in a traceback or a raw numpy ``RuntimeWarning``; an
edge list it writes reads back; a report it writes has the rows its config
implies, and every row is either scored, with finite values, or failed, with
``nan`` values.
"""

import json
import math
import warnings

import pytest

from gspest.cli import main
from gspest.graphs import PERTURB_MODES, read_edge_list
from gspest.harness import FAMILIES
from gspest.rng import generator
from tests.test_harness import write_grid_csv
from tests.test_models import random_grid

CASES = 24
# (key, value) written into every fourth case's config; json writes the
# values that are not finite as NaN, Infinity and -Infinity, and reads them
SPECIAL = (("beta", 1e308), ("sigma2", 1e308), ("mu", 1e308), ("beta", math.nan),
           ("sigma2", math.inf), ("mu", -math.inf))


def run(capsys, *argv):
    """Run one command; check its exit code, its messages and that it raised
    no ``RuntimeWarning``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    raw = [f"{w.filename}:{w.lineno}: {w.message}" for w in caught
           if issubclass(w.category, RuntimeWarning)]
    assert not raw, (argv, raw)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code:
        assert any(line.startswith("gspest: ") for line in err.splitlines()), (argv, err)
    return code


def check_report(path, rows):
    lines = path.read_text().splitlines()
    assert lines[0] == "estimator,scenario,param,value,mse,stderr,wall_ms"
    assert len(lines) - 1 == rows, path
    for line in lines[1:]:
        scores = [float(v) for v in line.split(",")[4:]]
        scored = not math.isnan(scores[0])
        assert [math.isfinite(v) for v in scores] == [scored] * 3, line


def sweep_config(rng, case, path, n, n_edges):
    """The config of one case: small sizes, orders around ``n`` (an lpi
    order of ``n``, a config error, in every eighth case), counts up to
    ``n_edges``, and one entry of :data:`SPECIAL` in every fourth case."""
    def around():
        return max(0, n + int(rng.integers(-3, 2)))

    config = dict(
        grid=str(path), seed=case, trials=int(rng.integers(2, 40)),
        p_values=sorted({int(p) for p in rng.integers(2, 3 * n, size=2)}),
        training_size=int(rng.integers(2, 3 * n)),
        lpi_order=n if case % 8 == 5 else max(0, n - int(rng.integers(1, 4))),
        arma_num_order=around(), arma_den_order=int(rng.integers(0, 2)),
        lr_num_order=around(), lr_den_order=int(rng.integers(0, 2)),
        reduced_fraction=float(rng.uniform(0.05, 1.0)),
        perturb_mode=PERTURB_MODES[case % len(PERTURB_MODES)],
        perturb_counts=sorted({int(c) for c in rng.integers(0, n_edges + 1, size=2)} | {n_edges}),
        perturb_repetitions=1, runtime_repeats=1, runtime_targets=[1.0],
    )
    if case % 4 == 3:
        key, value = SPECIAL[case // 4]
        config[key] = value
    return config


@pytest.mark.parametrize("case", range(CASES))
def test_every_command_exits_cleanly(tmp_path, capsys, case):
    rng = generator(case, "cli-sweep")
    n = int(rng.integers(3, 13))
    grid = random_grid(rng, n, extra=float(rng.uniform(0.0, 0.6)))
    n_edges = grid.graph().n_edges
    write_grid_csv(grid, tmp_path / "grid.csv")
    config = sweep_config(rng, case, tmp_path / "grid.csv", n, n_edges)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    families = len(FAMILIES)

    # every edge list the commands write reads back as --graph
    graph = tmp_path / "graph.csv"
    if run(capsys, "graph", "build", "--config", cfg, "--out", graph) == 0:
        for mode in PERTURB_MODES:
            count = int(rng.integers(0, n_edges + 1))
            out = tmp_path / f"{mode}.csv"
            argv = ("graph", "perturb", "--graph", graph, "--mode", mode, "--count", count)
            if run(capsys, *argv, "--config", cfg, "--out", out) == 0:
                read_edge_list(out)

    run(capsys, "dataset", "generate", "--config", cfg, "--count", 2 + case,
        "--out", tmp_path / "train")
    family = FAMILIES[case % families]
    est = tmp_path / "est.json"
    dataset = ("--dataset", tmp_path / "train") if case % 2 else ()
    if run(capsys, "fit", "--filter", family.cli_name, *dataset, "--config", cfg,
           "--out", est) == 0:
        run(capsys, "eval", "--estimator", est, "--config", cfg)

    reports = {
        ("experiment", "a"): len(config["p_values"]) * families + 1,
        ("experiment", "b"): len(config["perturb_counts"]) * families,
        ("runtime",): families,  # and a target row per family that was scored
    }
    for argv, rows in reports.items():
        out = tmp_path / "report.csv"
        out.unlink(missing_ok=True)
        if run(capsys, *argv, "--config", cfg, "--out", out) == 0:
            if argv == ("runtime",):
                lines = [line.split(",") for line in out.read_text().splitlines()[1:]]
                fits = [row for row in lines if row[2] == "median-fit"]
                assert len(fits) == families
                rows += sum(not math.isnan(float(row[4])) for row in fits)
            check_report(out, rows)
