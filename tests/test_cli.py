import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gspest.cli import main
from gspest.estimators import estimator_from_json
from gspest.graphs import PERTURB_MODES, build_laplacian, perturb, read_edge_list
from gspest.harness import FAMILIES
from gspest.models import bundled_ieee118, perturb_grid
from gspest.moments import read_training_csv
from gspest.rng import generator
from tests.test_graphs import edges_of
from tests.test_harness import small_config, write_grid_csv
from tests.test_models import random_grid


def write_small_config(directory):
    """Write :func:`small_config` (its grid CSV in ``directory``) as
    ``directory/config.json`` and return that path as a string."""
    import dataclasses

    doc = {
        k: list(v) if isinstance(v, tuple) else v
        for k, v in dataclasses.asdict(small_config(directory)).items()
    }
    path = directory / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def config_path(tmp_path):
    return write_small_config(tmp_path)


def _config_sg(config_path):
    from gspest.harness import ExperimentConfig, build_model

    return build_model(ExperimentConfig.from_file(config_path)).sg


def test_entry_point_runs():
    proc = subprocess.run(
        ["gspest", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "graph" in proc.stdout and "experiment" in proc.stdout


# run in a fresh process: which of scipy's heavier modules are loaded after
# `import gspest.cli`, then after an arma fit, an lr-arma fit and `experiment a`
LAZY_IMPORT_PROBE = """
import json, sys
import gspest.cli

def loaded():
    return [m for m in ("scipy.optimize", "scipy.linalg", "scipy.special",
                        "scipy.sparse.csgraph", "scipy.sparse.linalg") if m in sys.modules]

config, out = sys.argv[1:]
steps = {"import": [0, loaded()]}
for name, args in (("arma", ["fit", "--filter", "arma"]),
                   ("lrarma", ["fit", "--filter", "lrarma"]),
                   ("experiment a", ["experiment", "a"])):
    code = gspest.cli.main(args + ["--config", config, "--out", f"{out}/{name}.out"])
    steps[name] = [code, loaded()]
print(json.dumps(steps))
"""


@pytest.fixture(scope="module")
def lazy_import_probe(tmp_path_factory):
    work = tmp_path_factory.mktemp("probe")
    config = write_small_config(work)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(root / "src"), str(root))))
    run = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT_PROBE, config, str(work)],
        cwd=root, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(run.stdout.splitlines()[-1])


def test_import_loads_neither_scipy_optimize_nor_csgraph(lazy_import_probe):
    assert lazy_import_probe["import"] == [0, []]


def test_rational_fits_never_load_scipy_optimize(lazy_import_probe):
    assert lazy_import_probe == {
        "import": [0, []], "arma": [0, []], "lrarma": [0, []], "experiment a": [0, []],
    }


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["graph", "build", "--out", "x.csv", "--frobnicate"])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    out = tmp_path / "g.csv"
    not_utf8 = tmp_path / "utf16.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    for config in (tmp_path / "no.json", not_utf8):
        code = main(["graph", "build", "--out", str(out), "--config", str(config)])
        assert code == 1
        assert f"gspest: error: cannot read config {config}" in capsys.readouterr().err


@pytest.mark.parametrize("table", ["branch", "edge-list"])
def test_table_that_is_not_utf8_is_usage_error(tmp_path, config_path, capsys, table):
    out = tmp_path / "new.csv"
    if table == "branch":  # the config's grid
        path = tmp_path / "grid.csv"
        argv = ["graph", "build", "--config", config_path, "--out", str(out)]
    else:
        path = tmp_path / "graph.csv"
        argv = ["graph", "perturb", "--graph", str(path), "--mode", "remove-edges",
                "--count", "1", "--out", str(out)]
    path.write_bytes("from,to,weight\n0,1,1.0\n".encode("utf-16"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"gspest: error: cannot read {table} table")
    assert not out.exists()


def test_graph_build_writes_edge_list(tmp_path, config_path, capsys):
    out = tmp_path / "graph.csv"
    assert main(["graph", "build", "--out", str(out), "--config", config_path]) == 0
    assert "12 vertices" in capsys.readouterr().out
    graph = read_edge_list(out)
    assert graph.n_vertices == 12
    assert build_laplacian(graph).is_connected()


def test_graph_perturb_round_trip(tmp_path, config_path):
    base = tmp_path / "base.csv"
    main(["graph", "build", "--out", str(base), "--config", config_path])
    out = tmp_path / "more.csv"
    code = main(
        [
            "graph", "perturb", "--graph", str(base), "--mode", "add-edges",
            "--count", "2", "--out", str(out), "--config", config_path,
        ]
    )
    assert code == 0
    before = read_edge_list(base)
    after = read_edge_list(out)
    assert after.n_edges == before.n_edges + 2
    assert after.n_vertices == before.n_vertices


@pytest.mark.parametrize("row", ["0,1,abc", "0,x,1.0", "0.5,1,1.0"])
def test_graph_perturb_unparseable_edge_row_is_usage_error(tmp_path, capsys, row):
    graph = tmp_path / "graph.csv"
    graph.write_text(f"from,to,weight\n0,1,1.0\n{row}\n")
    out = tmp_path / "new.csv"
    argv = ["graph", "perturb", "--graph", str(graph), "--mode", "remove-edges",
            "--count", "1", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"gspest: error: unparseable edge-list row {row.split(',')}" in err
    assert "Traceback" not in err and not out.exists()


def test_graph_perturb_vertices(tmp_path, config_path):
    out = tmp_path / "grown.csv"
    code = main(
        [
            "graph", "perturb", "--mode", "add-vertices", "--count", "1",
            "--out", str(out), "--config", config_path, "--seed", "3",
        ]
    )
    assert code == 0
    assert read_edge_list(out).n_vertices == 13


def test_graph_perturb_never_leaves_one_vertex(tmp_path, capsys):
    # one vertex would be written as a header-only edge list, which --graph
    # rejects; such a removal is infeasible, as removing every vertex is
    graph = tmp_path / "path.csv"
    graph.write_text("from,to,weight\n0,1,1.0\n1,2,1.0\n")
    out = tmp_path / "new.csv"
    argv = ["graph", "perturb", "--graph", str(graph), "--mode", "remove-vertices",
            "--out", str(out), "--count"]
    assert main(argv + ["2"]) == 2
    err = capsys.readouterr().err
    assert "gspest: numerical failure: removing 2 of 3 vertices leaves fewer than two" in err
    assert not out.exists()
    assert main(argv + ["1"]) == 0
    assert read_edge_list(out).n_vertices == 2


@pytest.mark.parametrize("mode", PERTURB_MODES)
def test_graph_perturb_routes_agree(tmp_path, mode):
    """The command, graphs.perturb and perturb_grid draw the same edges from
    the bundled grid for one seed."""
    out = tmp_path / "new.csv"
    argv = ["graph", "perturb", "--mode", mode, "--count", "3", "--seed", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    grid = bundled_ieee118()
    graph, _ = perturb(grid.graph(), 3, mode, 5)
    for other in (read_edge_list(out), perturb_grid(grid, 3, mode, 5)[0].graph()):
        assert other.n_vertices == graph.n_vertices
        assert repr(edges_of(other)) == repr(edges_of(graph))


def test_dataset_fit_eval_flow(tmp_path, config_path, capsys):
    prefix = tmp_path / "train"
    code = main(
        ["dataset", "generate", "--count", "50", "--out", str(prefix),
         "--config", config_path]
    )
    assert code == 0
    x_path, g_path = f"{prefix}-x.csv", f"{prefix}-g.csv"
    from gspest.harness import ExperimentConfig, build_model

    model = build_model(ExperimentConfig.from_file(config_path))
    ts = read_training_csv(model.sg, x_path, g_path)
    assert ts.count == 50

    est_path = tmp_path / "est.json"
    code = main(
        ["fit", "--filter", "lpi", "--dataset", str(prefix), "--out", str(est_path),
         "--config", config_path]
    )
    assert code == 0
    est = estimator_from_json(est_path.read_text(), model.sg)
    assert est.label == "lpi-gsp"
    assert est.spec.kind == "lpi"

    capsys.readouterr()
    code = main(["eval", "--estimator", str(est_path), "--config", config_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "lpi-gsp" in out and "mse" in out


def _bad_estimator(tmp_path, config_path, case):
    """Bytes of an estimator file that does not fit the config's graph."""
    if case == "not-an-estimator":
        return b'{"a": 1}'
    if case == "not-utf8":
        return b"\xff\xfe{}"
    est_path = tmp_path / "est.json"
    family = {"linear-short": "lmmse", "filter-not-object": "lpi"}.get(case, "gsp")
    main(["fit", "--filter", family, "--out", str(est_path), "--config", config_path])
    text = est_path.read_text()
    if case == "truncated":
        return text[: len(text) // 2].encode()
    doc = json.loads(text)
    if case == "filter-not-object":
        doc["filter"] = "lpi"
        return json.dumps(doc).encode()
    # one vertex short of the config's graph
    for key in ("x_mean", "y_center", "response"):
        if key in doc:
            doc[key] = doc[key][:-1]
    if "gain" in doc:
        doc["gain"] = [row[:-1] for row in doc["gain"][:-1]]
    return json.dumps(doc).encode()


@pytest.mark.parametrize(
    "case", ["not-an-estimator", "truncated", "linear-short", "spectral-short",
             "not-utf8", "filter-not-object"]
)
def test_eval_bad_estimator_is_usage_error(tmp_path, config_path, capsys, case):
    est_path = tmp_path / "bad.json"
    est_path.write_bytes(_bad_estimator(tmp_path, config_path, case))
    capsys.readouterr()
    code = main(["eval", "--estimator", str(est_path), "--config", config_path])
    assert code == 1
    assert "gspest: error: bad estimator" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "case", ["narrow", "ragged", "unpaired", "non-finite-x", "non-finite-g", "empty"]
)
def test_fit_bad_dataset_is_usage_error(tmp_path, config_path, capsys, case):
    prefix = tmp_path / "train"
    main(["dataset", "generate", "--count", "20", "--out", str(prefix),
          "--config", config_path])
    x_path, g_path = tmp_path / "train-x.csv", tmp_path / "train-g.csv"
    x = np.loadtxt(x_path, delimiter=",")
    if case == "narrow":  # both files one vertex short of the config's graph
        for path in (x_path, g_path):
            np.savetxt(path, np.loadtxt(path, delimiter=",")[:, :-1], delimiter=",")
    elif case == "ragged":  # one row one value short
        x_path.write_text("\n".join(x_path.read_text().splitlines()[:-1] + ["1,2"]))
    elif case == "unpaired":  # x and g of different lengths
        np.savetxt(x_path, x[:-1], delimiter=",")
    elif case == "empty":  # two empty files
        for path in (x_path, g_path):
            path.write_text("")
    else:  # one nan in x or g
        path = x_path if case.endswith("x") else g_path
        values = np.loadtxt(path, delimiter=",")
        values[7, 3] = np.nan
        np.savetxt(path, values, delimiter=",")
    for family in ("gsp", "lmmse", "lpi"):
        capsys.readouterr()
        out = tmp_path / "est.json"
        code = main(["fit", "--filter", family, "--dataset", str(prefix),
                     "--out", str(out), "--config", config_path])
        assert code == 1
        assert f"gspest: error: bad dataset {prefix}: " in capsys.readouterr().err
        assert not out.exists()


def test_eval_reads_a_fit_written_with_its_gain(tmp_path, config_path, capsys):
    # fitted estimators used to be written with their dense gain
    est_path = tmp_path / "est.json"
    main(["fit", "--filter", "lpi", "--out", str(est_path), "--config", config_path])
    est = estimator_from_json(est_path.read_text(), _config_sg(config_path))
    doc = json.loads(est_path.read_text())
    doc["gain"] = est.dense.gain.tolist()
    doc["fitted_response"] = doc.pop("response")
    old_path = tmp_path / "old.json"
    old_path.write_text(json.dumps(doc))
    capsys.readouterr()
    for path in (est_path, old_path):
        assert main(["eval", "--estimator", str(path), "--config", config_path]) == 0
    new_out, old_out = capsys.readouterr().out.splitlines()
    assert new_out.startswith("lpi-gsp: mse ")
    assert float(new_out.split()[2]) == pytest.approx(float(old_out.split()[2]), rel=1e-12)


def test_dataset_generate_streams_the_same_bytes(tmp_path, config_path, monkeypatch):
    # 200 rows are written as nine near-equal draws of at most 24 rows; the
    # reference is the materialised set written in one np.savetxt call
    import gspest.moments as mod
    from gspest.harness import ExperimentConfig, build_model
    from gspest.moments import generate
    from gspest.rng import derive

    monkeypatch.setattr(mod, "_CHUNK", 24)
    prefix = tmp_path / "streamed"
    code = main(
        ["dataset", "generate", "--count", "200", "--out", str(prefix),
         "--config", config_path]
    )
    assert code == 0
    config = ExperimentConfig.from_file(config_path)
    model = build_model(config)
    ts = generate(model, 200, derive(config.seed, "train", 200))
    for part, rows in (("x", ts.x), ("g", ts.g)):
        want = tmp_path / f"want-{part}.csv"
        np.savetxt(want, rows, fmt="%.17g", delimiter=",")
        assert (tmp_path / f"streamed-{part}.csv").read_bytes() == want.read_bytes()


def test_fit_from_seeded_draws(tmp_path, config_path):
    est_path = tmp_path / "gsp.json"
    code = main(
        ["fit", "--filter", "gsp", "--out", str(est_path), "--config", config_path]
    )
    assert code == 0
    assert "gain" not in json.loads(est_path.read_text())
    est = estimator_from_json(est_path.read_text(), _config_sg(config_path))
    assert est.label == "gsp-lmmse"
    assert est.response.shape == (12,)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.cli_name)
def test_fit_filter_names_write_their_family(tmp_path, config_path, family):
    est_path = tmp_path / "est.json"
    code = main([
        "fit", "--filter", family.cli_name, "--out", str(est_path),
        "--config", config_path,
    ])
    assert code == 0
    est = estimator_from_json(est_path.read_text(), _config_sg(config_path))
    assert est.label == family.label


def test_fit_filter_names_are_stable():
    assert sorted(f.cli_name for f in FAMILIES) == [
        "almmse", "arma", "dlmmse", "gsp", "lmmse", "lpi", "lrarma",
    ]


@pytest.mark.parametrize("argv", [
    ["dataset", "generate", "--count", "1"],
    ["dataset", "generate", "--count", "0"],
    ["graph", "perturb", "--mode", "add-edges", "--count", "-1"],
], ids=["generate-1", "generate-0", "perturb-minus-1"])
def test_bad_counts_are_usage_errors(tmp_path, config_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out), "--config", config_path])
    assert exc.value.code == 1
    assert "--count: must be at least" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_fit_singular_exits_two(tmp_path, capsys):
    grid = random_grid(generator(8, "cli-grid"), 10, extra=0.5)
    grid_path = tmp_path / "grid.csv"
    write_grid_csv(grid, grid_path)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"grid": str(grid_path), "sigma2": 0.0, "training_size": 4})
    )
    est_path = tmp_path / "est.json"
    code = main(
        ["fit", "--filter", "lmmse", "--out", str(est_path), "--config", str(config)]
    )
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


# a triangle 1-2-3 and a pendant bus 4 on bus 3
TRIANGLE_AND_PENDANT = (
    "from,to,conductance,susceptance\n1,2,1,10\n2,3,1,8\n1,3,1,12\n3,4,1,9\n"
)


@pytest.mark.parametrize("argv", [
    ["experiment", "a"], ["experiment", "b"], ["runtime"], ["fit", "--filter", "lpi"],
], ids=" ".join)
def test_lpi_order_above_the_grid_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    # the default lpi_order 6 on a 4-bus grid: exit 1 before any training draw
    from gspest import cli, harness

    def no_training(*args):
        raise AssertionError("training pass reached")

    monkeypatch.setattr(harness, "stream_moments", no_training)
    monkeypatch.setattr(cli, "stream_moments", no_training)
    grid_path = tmp_path / "grid.csv"
    grid_path.write_text(TRIANGLE_AND_PENDANT)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": str(grid_path)}))
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out), "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "gspest: error: lpi_order 6 must be below the grid's 4 vertices" in err
    assert not out.exists()


def test_lpi_order_is_not_checked_without_lpi(tmp_path):
    grid_path = tmp_path / "grid.csv"
    grid_path.write_text(TRIANGLE_AND_PENDANT)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": str(grid_path), "training_size": 20}))
    out = tmp_path / "est.json"
    assert main(["fit", "--filter", "gsp", "--out", str(out), "--config", str(config)]) == 0


def test_experiment_b_records_infeasible_perturbations(tmp_path):
    # one triangle edge can go; a second removal would cut the graph
    from gspest.harness import ESTIMATOR_LABELS, ExperimentConfig, experiment_b

    grid_path = tmp_path / "grid.csv"
    grid_path.write_text(TRIANGLE_AND_PENDANT)
    doc = dict(
        grid=str(grid_path), trials=64, training_size=40, lpi_order=2,
        arma_num_order=1, arma_den_order=1, lr_num_order=1, lr_den_order=0,
        perturb_mode="remove-edges", perturb_counts=[1, 2], perturb_repetitions=2,
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "exp-b.csv"
    assert main(["experiment", "b", "--out", str(out), "--config", str(config)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 2 * len(ESTIMATOR_LABELS)
    rows = experiment_b(ExperimentConfig.from_file(config)).rows
    assert {r.status for r in rows if r.value == 1} == {"ok"}
    infeasible = [r for r in rows if r.value == 2]
    assert [(r.estimator, r.rep) for r in infeasible] == [
        (label, rep) for rep in range(2) for label in ESTIMATOR_LABELS
    ]
    assert all(r.status == "infeasible" and np.isnan(r.mse) for r in infeasible)
    assert all((cells[4] == "nan") == (cells[3] == "2")
               for cells in (line.split(",") for line in lines[1:]))


def test_experiment_a_csv(tmp_path, config_path, capsys):
    out = tmp_path / "exp-a.csv"
    code = main(["experiment", "a", "--out", str(out), "--config", config_path])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "estimator,scenario,param,value,mse,stderr,wall_ms"
    assert len(lines) == 1 + 2 * 7 + 1  # two P values x seven estimators + P-infinity
    assert "rows" in capsys.readouterr().out


def test_experiment_b_csv(tmp_path, config_path):
    out = tmp_path / "exp-b.csv"
    code = main(["experiment", "b", "--out", str(out), "--config", config_path])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 2 * 7  # counts x reps x estimators


def test_runtime_csv(tmp_path, config_path, capsys):
    out = tmp_path / "runtime.csv"
    code = main(["runtime", "--out", str(out), "--config", config_path])
    assert code == 0
    text = capsys.readouterr().out
    assert "median fit" in text
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 7


def test_seed_override_changes_dataset(tmp_path, config_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    for prefix, seed in ((a, None), (b, "123"), (c, "123")):
        argv = ["dataset", "generate", "--count", "20", "--out", str(prefix),
                "--config", config_path]
        if seed:
            argv += ["--seed", seed]
        assert main(argv) == 0
    xa = np.loadtxt(f"{a}-x.csv", delimiter=",")
    xb = np.loadtxt(f"{b}-x.csv", delimiter=",")
    xc = np.loadtxt(f"{c}-x.csv", delimiter=",")
    assert not np.array_equal(xa, xb)
    assert np.array_equal(xb, xc)


def test_negative_seed_is_config_error(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert main(["graph", "build", "--out", str(out), "--seed", "-1"]) == 1
    assert "seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("beta", float("nan")), ("sigma2", float("inf")), ("mu", float("inf")),
], ids=["beta-nan", "sigma2-inf", "mu-inf"])
def test_non_finite_config_values_are_config_errors(tmp_path, config_path, capsys, field, value):
    # json reads NaN and Infinity; both end in a usage error, not a traceback
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**json.loads(Path(config_path).read_text()), field: value}))
    for argv in (["experiment", "a"], ["fit", "--filter", "lpi"]):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out), "--config", str(config)]) == 1
        assert f"gspest: error: {field} must be finite" in capsys.readouterr().err
        assert not out.exists()


def test_eval_non_finite_score_is_numerical_failure(tmp_path, capsys):
    # a gsp-lmmse fitted on the default config scores inf on a model whose
    # prior variances are finite (beta / lambda_1 = 3.4e307) but whose
    # squared errors overflow: exit 2 and no score line
    est_path = tmp_path / "est.json"
    assert main(["fit", "--filter", "gsp", "--out", str(est_path)]) == 0
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"beta": 1e307, "trials": 50}))
    capsys.readouterr()
    with np.errstate(all="ignore"):
        code = main(["eval", "--estimator", str(est_path), "--config", str(config)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("gspest: numerical failure: gsp-lmmse scores mse inf")


@pytest.mark.parametrize("field", ["beta", "sigma2", "mu"])
def test_huge_config_values_end_without_a_traceback(tmp_path, capsys, field):
    # overflowing moments are singular rows, not a crash: a non-finite matrix,
    # or one whose eigenvalues do not converge, has condition number inf
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({field: 1e308, "trials": 50}))
    out = tmp_path / "a.csv"
    argv = ["experiment", "a", "--out", str(out), "--config", str(config)]
    if field == "beta":
        # beta / lambda overflows on the bundled grid (lambda_1 = 0.30): a
        # config error before any draw, so no arithmetic overflows
        with np.errstate(all="raise"):
            assert main(argv) == 1
        assert "gspest: error: prior variance beta / lambda overflows" in capsys.readouterr().err
        assert not out.exists()
        return
    with np.errstate(all="ignore"):
        assert main(argv) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 36


@pytest.mark.parametrize("argv", [
    ["experiment", "a", "--out", "{tmp}/a.csv"],
    ["experiment", "b", "--out", "{tmp}/b.csv"],
    ["runtime", "--out", "{tmp}/r.csv"],
    ["fit", "--filter", "gsp", "--out", "{tmp}/est.json"],
    ["eval", "--estimator", "{tmp}/est.json"],
    ["dataset", "generate", "--out", "{tmp}/train"],
], ids=["experiment-a", "experiment-b", "runtime", "fit", "eval", "dataset-generate"])
def test_non_finite_prior_stops_every_command_before_any_draw(tmp_path, capsys, argv):
    # under raised floating-point errors, a draw on an inf variance would
    # end in exit 2; the prior check ends every command first, with exit 1
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"beta": 1e308}))
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--config", str(config)]
    with np.errstate(all="raise"):
        assert main(argv) == 1
    assert capsys.readouterr().err.startswith(
        "gspest: error: prior variance beta / lambda overflows at 1 of 118 frequencies"
    )
    assert list(tmp_path.iterdir()) == [config]


def test_bundled_grid_is_default(tmp_path):
    out = tmp_path / "ieee.csv"
    assert main(["graph", "build", "--out", str(out)]) == 0
    assert read_edge_list(out).n_vertices == 118
