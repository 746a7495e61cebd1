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


def sweep_case(tmp_path, case):
    """The seeded rng of one case, after drawing its grid (written to
    ``tmp_path/grid.csv``) and config, the grid's edge count and the config."""
    rng = generator(case, "cli-sweep")
    n = int(rng.integers(3, 13))
    grid = random_grid(rng, n, extra=float(rng.uniform(0.0, 0.6)))
    n_edges = grid.graph().n_edges
    write_grid_csv(grid, tmp_path / "grid.csv")
    return rng, n_edges, sweep_config(rng, case, tmp_path / "grid.csv", n, n_edges)


@pytest.mark.parametrize("case", range(CASES))
def test_every_command_exits_cleanly(tmp_path, capsys, case):
    rng, n_edges, config = sweep_case(tmp_path, case)
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


def test_rational_searches_stop_at_their_dimension_budget(tmp_path, monkeypatch):
    # case 6 with two denominator coefficients, on a budget of 5 iterations
    # per coefficient that no search meets: every search that does not
    # converge stops at 5 n iterations or 20 n evaluations (the default 200 per
    # coefficient ended the case's unconverged arma search at 400 iterations,
    # where a flat budget ran 2,000)
    from gspest import estimators
    from gspest.harness import ExperimentConfig, experiment_a

    assert estimators._ITER_PER_COEFF == 200
    _, _, config = sweep_case(tmp_path, 6)
    config.update(arma_den_order=2, lr_den_order=2)
    searches, minimize = [], estimators.minimize

    def spy(fun, simplex, **options):
        result = minimize(fun, simplex, **options)
        searches.append((simplex.shape[1], result))
        return result

    monkeypatch.setattr(estimators, "minimize", spy)
    monkeypatch.setattr(estimators, "_ITER_PER_COEFF", 5)
    experiment_a(ExperimentConfig(**config))
    assert searches and all(r.nit <= 5 * n and r.nfev <= 20 * n for n, r in searches)
    assert all(not r.success and (r.nit == 5 * n or r.nfev == 20 * n) for n, r in searches)


def test_an_unconverged_search_is_a_scored_row_of_its_own(tmp_path, capsys, monkeypatch):
    # the same case on the same forced budget: every rational search ends
    # unconverged, in experiment a, in the fits runtime times and in the
    # retunes experiment b scores, and each is a scored row of that status
    from gspest import estimators
    from gspest.harness import ExperimentConfig, experiment_a, experiment_b, measure_runtime

    monkeypatch.setattr(estimators, "_ITER_PER_COEFF", 5)
    _, _, config = sweep_case(tmp_path, 6)
    config.update(arma_den_order=2, lr_den_order=2)
    config = ExperimentConfig(**config)
    rational = ("arma-gsp", "lr-arma-gsp")

    def unconverged(rows):
        rows = [r for r in rows if r.status == "unconverged"]
        assert all(math.isfinite(v) for r in rows for v in (r.mse, r.stderr, r.wall_ms))
        return sorted({(r.estimator, r.param) for r in rows})

    rows = experiment_a(config).rows
    assert unconverged(rows) == [("arma-gsp", "P"), ("lr-arma-gsp", "P")]
    assert all(r.status == "unconverged" for r in rows if r.estimator in rational)
    runtime = measure_runtime(config).rows
    assert unconverged(runtime) == [(name, "median-fit") for name in rational]
    assert [r.param for r in runtime if r.estimator == "lr-arma-gsp"] == ["median-fit", "target-mse"]
    assert unconverged(experiment_b(config).rows) == [
        (name, f"{config.perturb_mode}/rep0") for name in rational]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config.__dict__, "estimators": ["arma-gsp"]}))
    assert main(["experiment", "a", "--config", str(path), "--out", str(tmp_path / "a.csv")]) == 0
    assert capsys.readouterr().out.endswith(" 2 rows (1 unconverged)\n")
