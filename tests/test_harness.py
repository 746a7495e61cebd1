import csv
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from gspest.errors import ConfigError, InvalidGraphError
from gspest.estimators import (
    LinearEstimator,
    SpectralEstimator,
    almmse,
    fit_arma,
    fit_lpi,
    gsp_lmmse,
    sample_lmmse,
)
from gspest.filters import FilterSpec, filter_matrix
from gspest.graphs import build_laplacian, gft
from gspest.harness import (
    ESTIMATOR_LABELS,
    ExperimentConfig,
    MseReport,
    MseRow,
    build_model,
    draw_test_set,
    evaluate_mse,
    experiment_a,
    experiment_b,
    fit_by_label,
    measure_runtime,
    squared_errors,
)
from gspest.models import ac_measurement_model, bundled_ieee118, linear_filter_model
from gspest.moments import SampleMoments, compute_moments, generate, stream_moments
from gspest.rng import generator
from tests.test_graphs import random_connected_graph
from tests.test_models import random_grid


def write_grid_csv(grid, path):
    lines = ["from,to,conductance,susceptance"]
    for i, j, g, b in grid.branch_values():
        lines.append(f"{i + 1},{j + 1},{g!r},{b!r}")
    path.write_text("\n".join(lines) + "\n")


def small_config(tmp_path, **overrides):
    grid = random_grid(generator(7, "harness-grid"), 12, extra=0.8)
    path = tmp_path / "grid.csv"
    write_grid_csv(grid, path)
    base = dict(
        grid=str(path),
        trials=64,
        p_values=(24, 60),
        training_size=40,
        lpi_order=4,
        arma_num_order=2,
        arma_den_order=1,
        lr_num_order=1,
        lr_den_order=1,
        reduced_fraction=0.4,
        perturb_counts=(0, 1),
        perturb_repetitions=2,
        runtime_repeats=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def read_report_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


# -------------------------------------------------------------------- config


def test_config_defaults_are_valid():
    config = ExperimentConfig()
    assert config.grid == "ieee118"
    assert config.estimators == ESTIMATOR_LABELS
    assert ExperimentConfig.from_json("{}") == config


def test_config_json_overrides():
    config = ExperimentConfig.from_json(
        '{"trials": 100, "p_values": [10, 20], "estimators": ["almmse"]}'
    )
    assert config.trials == 100
    assert config.p_values == (10, 20)
    assert config.estimators == ("almmse",)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json('{"trails": 100}')


def test_config_rejects_bad_values():
    for doc in (
        '{"trials": 1}',
        '{"estimators": ["nope"]}',
        '{"perturb_mode": "scramble"}',
        '{"reduced_fraction": 0.0}',
        '{"mu": -1.0}',
        '{"beta": 0.0}',
        '{"p_values": [1]}',
        '{"seed": -3}',
        '{"trials": "many"}',
        '{"trials": 100.5}',
        '{"lpi_order": 2.5}',
        '{"p_values": [59.9]}',
        '{"perturb_counts": [1, 2.5]}',
        '{"seed": true}',
        # a string for a list field, read char by char, is not the list it names
        '{"runtime_targets": "12"}',
        '{"estimators": "gsp-lmmse"}',
        '{"p_values": "59"}',
        # json reads NaN and Infinity; a target row needs a finite target
        '{"runtime_targets": [NaN]}',
        '{"runtime_targets": [1.0, Infinity]}',
        # each value of a type its field does not take
        '{"grid": 0}',
        '{"grid": 5}',
        '{"p_values": 59}',
        '{"beta": "3"}',
        '{"beta": true}',
        '{"estimators": 5}',
        '{"runtime_targets": ["a"]}',
        '{"mu": [1]}',
        '{"reduced_fraction": "x"}',
        '{"perturb_mode": 3}',
        "[1, 2]",
        "not json",
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(doc)


@pytest.mark.parametrize("doc, message", [
    ('{"runtime_targets": "12"}', "runtime_targets: '12' is a string, not a list"),
    ('{"estimators": "gsp-lmmse"}', "estimators: 'gsp-lmmse' is a string, not a list"),
    ('{"runtime_targets": [-Infinity]}', "runtime_targets must be finite"),
    ('{"grid": 0}', "grid: 0 is not a string"),
    ('{"grid": 5}', "grid: 5 is not a string"),
    ('{"p_values": 59}', "p_values: 59 is not a list"),
    ('{"beta": "3"}', "beta: '3' is not a number"),
    ('{"beta": true}', "beta: True is not a number"),
    ('{"estimators": 5}', "estimators: 5 is not a list"),
    ('{"runtime_targets": ["a"]}', "runtime_targets: 'a' is not a number"),
    ('{"mu": [1]}', r"mu: \[1\] is not a number"),
    ('{"reduced_fraction": "x"}', "reduced_fraction: 'x' is not a number"),
    ('{"perturb_mode": 3}', "perturb_mode: 3 is not a string"),
    pytest.param('{"beta": 1%s}' % ("0" * 400), "beta must be finite", id="int-beyond-float"),
])
def test_config_errors_name_the_field(doc, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_json(doc)


def test_config_reads_integral_floats_as_ints():
    config = ExperimentConfig.from_json('{"p_values": [59.0], "trials": 100.0}')
    assert config.p_values == (59,) and config.trials == 100
    assert all(type(v) is int for v in (*config.p_values, config.trials, config.seed))


def test_config_reads_ints_as_floats():
    config = ExperimentConfig.from_json('{"beta": 3, "runtime_targets": [1, 2.5]}')
    assert config.beta == 3.0 and config.runtime_targets == (1.0, 2.5)
    assert all(type(v) is float for v in (config.beta, *config.runtime_targets, config.mu))


def test_config_from_file(tmp_path):
    p = tmp_path / "config.json"
    p.write_text('{"trials": 55}')
    assert ExperimentConfig.from_file(p).trials == 55
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(tmp_path / "missing.json")


# ----------------------------------------------------------- building blocks


def test_build_model_from_grid_file(tmp_path):
    config = small_config(tmp_path)
    model = build_model(config)
    assert model.sg.n_vertices == 12
    assert model.label == "ac-power"


def test_draw_test_set_seeding(tmp_path):
    model = build_model(small_config(tmp_path))
    x1, y1 = draw_test_set(model, 16, seed=5)
    x2, y2 = draw_test_set(model, 16, seed=5)
    assert np.array_equal(x1, x2)
    assert np.array_equal(y1, y2)
    x3, y3 = draw_test_set(model, 16, seed=6)
    assert not np.array_equal(x1, x3)
    # measurements are forward values plus noise, so they differ from the
    # noiseless forward map
    assert not np.allclose(y1, np.asarray(model.forward(x1)), atol=1e-6)


def test_cutoff_keeps_the_floor_of_the_fraction():
    from gspest.harness import _cutoff

    sg = build_laplacian(random_connected_graph(generator(4, "reduce"), 20))
    m = SampleMoments.from_covariances(sg, np.zeros(20), np.zeros(20), np.eye(20), np.eye(20))
    for fraction, kept in ((0.3, 6), (0.01, 1), (1.0, 20)):
        assert _cutoff(m, ExperimentConfig(reduced_fraction=fraction)) == kept


def test_fit_by_label_rejects_unknown(tmp_path):
    config = small_config(tmp_path)
    model = build_model(config)
    ts = generate(model, 30, seed=1)
    m = compute_moments(ts, model.sigma2)
    with pytest.raises(ConfigError):
        fit_by_label("wiener", m, config)


def test_stderr_scales_with_trials(tmp_path):
    config = small_config(tmp_path)
    model = build_model(config)
    ts = generate(model, 60, seed=2)
    m = compute_moments(ts, model.sigma2)
    est = fit_by_label("gsp-lmmse", m, config)
    _, se_small = evaluate_mse(est, model, 200, seed=3)
    _, se_big = evaluate_mse(est, model, 3200, seed=3)
    ratio = se_small / se_big
    assert 2.8 < ratio < 5.7  # sqrt(16) = 4 with sampling slack


@pytest.mark.parametrize("trials", [2, 255, 256, 511, 512, 1000])
def test_draw_test_set_is_the_concatenated_blocks(trials):
    # one definition of the test set: every protocol scores these blocks, of
    # 256 to 511 rows or one below 256, whose streams run on from block to
    # block, so the noise is one whole draw and the states differ from one
    # only by the rounding of a shorter product with the eigenvectors
    from gspest.harness import _test_blocks
    from gspest.rng import derive

    model = ac_measurement_model(random_grid(generator(10, "blocks"), 23))
    blocks = list(_test_blocks(model, trials, 6))
    sizes = [len(b.x) for b in blocks]
    assert sum(sizes) == trials
    assert all(256 <= k <= 511 for k in sizes) or sizes == [trials] and trials < 256
    x, y = draw_test_set(model, trials, 6)
    assert x.tobytes() == np.concatenate([b.x for b in blocks]).tobytes()
    assert y.tobytes() == np.concatenate([b.y for b in blocks]).tobytes()
    w = model.sample_noise(trials, derive(6, "test-w"))
    whole_x = model.sample_x(trials, derive(6, "test-x"))
    assert np.max(np.abs(x - whole_x)) <= 1e-14 * np.max(np.abs(whole_x))
    assert y.tobytes() == (np.asarray(model.forward(x)) + w).tobytes()


def test_draw_test_set_adds_the_forward_values_into_the_noise():
    # y is formed in the noise draw's buffer, with the bits of forward(x) + w,
    # and a forward map's own buffer is never written
    from gspest.models import MeasurementModel
    from gspest.rng import derive

    ac = ac_measurement_model(random_grid(generator(8, "draws"), 11))
    fixed = generator(9, "draws").standard_normal((50, 11))
    fixed.flags.writeable = False
    for model in (
        ac,
        MeasurementModel(ac.prior, 0.3, lambda x: x),
        MeasurementModel(ac.prior, 0.3, lambda x: fixed),
    ):
        x, y = draw_test_set(model, 50, seed=4)
        want_x = model.sample_x(50, derive(4, "test-x"))
        w = model.sample_noise(50, derive(4, "test-w"))
        assert x.tobytes() == want_x.tobytes()
        assert y.tobytes() == (np.asarray(model.forward(want_x)) + w).tobytes()


# -------------------------------------------------------------- experiment a


def test_experiment_a_report_layout(tmp_path):
    config = small_config(tmp_path)
    report = experiment_a(config)
    expected = len(config.p_values) * len(config.estimators) + 1
    assert len(report.rows) == expected
    for row in report.rows[:-1]:
        assert row.scenario == "experiment-a"
        assert row.param == "P"
        assert row.value in config.p_values
        assert row.status == "ok"
        assert math.isfinite(row.mse) and row.mse > 0
        assert row.stderr > 0
        assert row.wall_ms >= 0
    tail = report.rows[-1]
    assert tail.estimator == "sample-lmmse"
    assert tail.param == "P-infinity"
    assert tail.value == math.inf
    assert tail.status == "ok" and math.isfinite(tail.mse)


def test_experiment_a_deterministic_modulo_wall(tmp_path):
    config = small_config(tmp_path, trials=32, p_values=(24,))
    a = experiment_a(config)
    b = experiment_a(config)

    def strip(report):
        return [
            (r.estimator, r.scenario, r.param, r.value, r.mse, r.stderr, r.status)
            for r in report.rows
        ]

    assert strip(a) == strip(b)


def test_experiment_a_almmse_ignores_training_size(tmp_path):
    config = small_config(tmp_path)
    report = experiment_a(config)
    vals = [r.mse for r in report.rows if r.estimator == "almmse"]
    assert len(vals) == len(config.p_values)
    assert all(v == vals[0] for v in vals)


def test_experiment_a_singular_rows_are_nan(tmp_path):
    # noiseless moments at P < N leave the sample covariance rank-deficient
    config = small_config(
        tmp_path, sigma2=0.0, p_values=(6,),
        estimators=("sample-lmmse", "gsp-lmmse", "almmse"),
    )
    report = experiment_a(config)
    by_label = {r.estimator: r for r in report.rows if r.param == "P"}
    assert by_label["sample-lmmse"].status == "singular"
    assert math.isnan(by_label["sample-lmmse"].mse)
    assert by_label["almmse"].status == "ok"


def assert_no_ok_row_is_non_finite(rows):
    for r in rows:
        finite = math.isfinite(r.mse) and math.isfinite(r.stderr)
        assert (r.status == "ok") == finite or r.status == "unreachable", r
        # a failed fit or score keeps no fit time
        assert r.status in ("ok", "unreachable") or math.isnan(r.wall_ms), r
    assert "non-finite" in {r.status for r in rows}


def test_experiment_a_non_finite_scores_are_typed_rows(tmp_path):
    # beta = 1e308 overflows the prior draws, so the scores are not finite
    with np.errstate(all="ignore"):
        report = experiment_a(small_config(tmp_path, beta=1e308, trials=32))
    assert_no_ok_row_is_non_finite(report.rows)


def whole_test_set(model, trials, seed):
    """The seeded test set of ``model`` as one :class:`harness._Draws`: its
    blocks' states, measurements and state spectra, concatenated."""
    from gspest.harness import _Draws, _test_blocks

    blocks = list(_test_blocks(model, trials, seed))
    return _Draws(model.sg, *(np.concatenate([getattr(b, k) for b in blocks])
                              for k in ("x", "y", "x_freq")))


def rows_drawn_first(config):
    """Experiment A's rows as the protocol once made them: the whole test set
    drawn first, then each training size fitted and scored in turn."""
    from gspest import harness
    from gspest.moments import population_moments
    from gspest.rng import derive

    grid = harness._config_grid(config)
    model = ac_measurement_model(grid, config.beta, config.sigma2)
    draws = whole_test_set(model, config.trials, derive(config.seed, "test", 0, 0))

    def scored(fit):
        row, est = fit
        if est is None:
            return row
        err = draws.errors(est)
        mse, stderr = float(err.mean()), float(err.std(ddof=1) / np.sqrt(len(err)))
        if not (math.isfinite(mse) and math.isfinite(stderr)):
            return replace(row, status="non-finite", wall_ms=math.nan)
        return replace(row, mse=mse, stderr=stderr)

    rows = []
    for p in config.p_values:
        m = stream_moments(model, p, derive(config.seed, "train", p))
        for label in config.estimators:
            rows.append(scored(harness._attempt(
                MseRow(label, "experiment-a", "P", float(p)),
                lambda: fit_by_label(label, m, config),
            )))
    m = population_moments(grid, model.prior, model.sigma2)
    rows.append(scored(harness._attempt(
        MseRow("sample-lmmse", "experiment-a", "P-infinity", math.inf),
        lambda: sample_lmmse(m),
    )))
    return rows


def without_wall_ms(rows):
    def text(r):
        return [format(v, ".17g") for v in (r.value, r.mse, r.stderr)]

    return [(r.estimator, r.scenario, r.param, *text(r), r.status) for r in rows]


@pytest.mark.parametrize("overrides, status", [
    pytest.param(dict(p_values=(118, 59, 118)), None, id="repeated-sizes"),
    # noiseless moments at P < N leave the sample covariance rank-deficient
    pytest.param(dict(sigma2=0.0, p_values=(24, 6, 24)), "singular", id="singular"),
    # beta = 1e308 overflows the prior draws, so the scores are not finite
    pytest.param(dict(beta=1e308, trials=32), "non-finite", id="non-finite"),
])
def test_experiment_a_fits_every_size_before_drawing(tmp_path, monkeypatch, overrides, status):
    from gspest import harness

    config = small_config(tmp_path, **overrides)
    with np.errstate(all="ignore"):
        want = rows_drawn_first(config)
        calls = []
        for name in ("stream_moments", "population_moments", "_test_blocks"):
            def logged(*args, _name=name, _fn=getattr(harness, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(harness, name, logged)
        got = experiment_a(config).rows
    # one pass over the test set's blocks, after every fit
    assert calls[-1] == "_test_blocks" and calls.count("_test_blocks") == 1
    assert calls.count("stream_moments") == len(set(config.p_values))
    assert without_wall_ms(got) == without_wall_ms(want)
    if status is not None:
        assert status in {r.status for r in got}
    for r in got:
        assert math.isfinite(r.wall_ms) == (r.status == "ok"), r


def test_experiment_a_peak_memory_is_the_training_pass():
    # fitted first and scored a block at a time, the test set adds nothing to
    # the largest training pass but the fits held meanwhile: one N x N gain
    # per training size and one for P-infinity (a margin of two); the whole
    # test set, x, y and their two spectra, would alone take more
    import tracemalloc

    from gspest.rng import derive

    config = ExperimentConfig()
    model = build_model(config)
    n, largest = model.sg.n_vertices, max(config.p_values)
    peaks = []
    for run in (
        lambda: stream_moments(model, largest, derive(config.seed, "train", largest)),
        lambda: experiment_a(config),
    ):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    training, peak = peaks
    assert peak <= training + 2 * (len(config.p_values) + 1) * n * n * 8
    assert peak < 4 * config.trials * n * 8


# -------------------------------------------------------------- experiment b


def test_experiment_b_layout(tmp_path):
    config = small_config(tmp_path)
    report = experiment_b(config)
    expected = (
        len(config.perturb_counts)
        * config.perturb_repetitions
        * len(config.estimators)
    )
    assert len(report.rows) == expected
    for row in report.rows:
        assert row.scenario == "experiment-b"
        assert row.param == f"{config.perturb_mode}/rep{row.rep}"
        assert row.value in (0.0, 1.0)
        assert math.isfinite(row.mse)


def test_experiment_b_singular_rows_have_nan_wall(tmp_path):
    # noiseless moments at P < N leave the sample covariance rank-deficient
    config = small_config(
        tmp_path, sigma2=0.0, training_size=6, perturb_counts=(1,),
        estimators=("sample-lmmse", "almmse"),
    )
    by_label = {r.estimator: r for r in experiment_b(config).rows if r.rep == 0}
    assert by_label["sample-lmmse"].status == "singular"
    assert math.isnan(by_label["sample-lmmse"].wall_ms)
    assert math.isfinite(by_label["almmse"].wall_ms)


def test_unstable_filters_are_recorded_per_row(tmp_path, monkeypatch):
    # an arma fit and every retune end on a vanishing denominator
    from gspest import harness
    from gspest.errors import UnstableFilterError

    def unstable(*args, **kwargs):
        raise UnstableFilterError("rational denominator vanishes on the spectrum")

    arma = replace(harness._BY_LABEL["arma-gsp"], fit=unstable)
    monkeypatch.setitem(harness._BY_LABEL, "arma-gsp", arma)
    monkeypatch.setattr(harness, "update_for_topology", unstable)
    config = small_config(tmp_path, perturb_counts=(1,), perturb_repetitions=1)
    rows = (
        experiment_a(config).rows
        + experiment_b(config).rows
        + measure_runtime(config).rows
    )
    retuned = ("lpi-gsp", "arma-gsp", "lr-arma-gsp")
    for r in rows:
        if r.estimator == "arma-gsp" or (
            r.scenario == "experiment-b" and r.estimator in retuned
        ):
            assert r.status == "unstable", (r.scenario, r.estimator)
            assert all(math.isnan(v) for v in (r.mse, r.stderr, r.wall_ms))
        else:
            assert r.status == "ok", (r.scenario, r.estimator)
            assert math.isfinite(r.mse) and math.isfinite(r.wall_ms)


def test_family_table_reaches_estimators_by_module_name(tmp_path, monkeypatch):
    # the perfbench tracer rebinds these names in the harness namespace; a
    # table that held the function objects would bypass the rebinding
    from gspest import harness

    names = (
        "sample_lmmse", "sample_diag_lmmse", "gsp_lmmse", "fit_lpi", "fit_arma",
        "fit_lr_arma", "almmse",
    )
    calls = []
    for name in names:
        monkeypatch.setattr(harness, name, lambda *a, name=name: calls.append(name))
    config = small_config(tmp_path)
    # a stand-in for the moments: the lr-arma cutoff and almmse read its graph
    m = SimpleNamespace(sg=build_model(config).sg)
    for family in harness.FAMILIES:
        fit_by_label(family.label, m, config)
    assert sorted(calls) == sorted(names)


SPECTRAL = ("gsp-lmmse", "lpi-gsp", "arma-gsp", "lr-arma-gsp", "almmse")


def test_parseval_scores_match_squared_errors(tmp_path):
    config = small_config(tmp_path)
    model = build_model(config)
    m = stream_moments(model, 60, 2)
    draws = whole_test_set(model, 300, 4)
    x_freq, y_freq = draws.x_freq.copy(), draws.y_freq.copy()
    v = model.sg.eigenvectors
    for label in SPECTRAL:
        est = fit_by_label(label, m, config)
        assert isinstance(est, SpectralEstimator), label
        want = squared_errors(est.dense, draws.x, draws.y)
        got = draws.errors(est)
        assert np.max(np.abs(got - want) / want) <= 1e-12, label
        # the in-place scoring keeps the bits of the out-of-place expressions
        est_freq = (y_freq - est.y_center @ v) * est.response + est.x_mean @ v
        assert np.array_equal(est.frequency_estimate(y_freq), est_freq), label
        diff = est_freq - x_freq
        assert np.array_equal(got, np.sum(diff * diff, axis=-1)), label
    assert draws.y_freq is draws.y_freq
    assert np.array_equal(draws.x_freq, x_freq)  # scoring never writes into them
    assert np.array_equal(draws.y_freq, y_freq)
    # an estimator fitted on another graph is scored in the vertex domain
    other = replace(est, sg=build_laplacian(model.sg.graph))
    assert np.array_equal(draws.errors(other), squared_errors(other, draws.x, draws.y))


def scoring_cases(sg, trials, seed):
    """Draws on ``sg`` and one estimator per scoring path: a dense and a
    diagonal linear one, and a spectral one on and off the draws' graph."""
    from gspest.harness import _Draws

    rng = generator(seed, "scoring", trials)
    n = sg.n_vertices
    x = rng.standard_normal((trials, n))
    draws = _Draws(sg, x, rng.standard_normal((trials, n)), gft(sg, x))
    mean, center = rng.standard_normal(n), rng.standard_normal(n)
    spectral = SpectralEstimator("on-graph", sg, rng.uniform(0.1, 1.0, n), mean, center)
    return draws, {
        "dense": LinearEstimator("dense", mean, rng.standard_normal((n, n)) / n, center),
        "diagonal": LinearEstimator("diagonal", mean, rng.uniform(0.1, 1.0, n), center),
        "on-graph": spectral,
        "off-graph": replace(spectral, sg=build_laplacian(sg.graph)),
    }


@pytest.mark.parametrize("trials", [2, 255, 256, 257, 1000])
def test_row_blocked_scores_match_the_whole_set(trials):
    # a block of 256 to 511 rows takes the whole set's BLAS path (a single
    # row would take gemv), so the streamed blocks' scores, each block with
    # its own transform of y, keep the bits of the whole set's
    from gspest.harness import _blocks, _Draws

    sg = build_laplacian(bundled_ieee118().graph())
    draws, cases = scoring_cases(sg, trials, seed=41)
    blocks = [_Draws(sg, draws.x[rows], draws.y[rows], draws.x_freq[rows])
              for rows in _blocks(trials)]
    for name, est in cases.items():
        streamed = np.concatenate([block.errors(est) for block in blocks])
        assert streamed.tobytes() == draws.errors(est).tobytes(), name


def test_each_scored_block_transforms_only_its_measurements(monkeypatch):
    # the states' spectrum is the one each block was drawn from: scoring a
    # spectral estimator takes one transform per block (of y), where
    # transforming x as well took two
    from gspest import harness

    model = ac_measurement_model(random_grid(generator(12, "spectrum"), 17))
    transform, calls = harness.gft, []
    monkeypatch.setattr(harness, "gft", lambda sg, s: calls.append(len(s)) or transform(sg, s))
    evaluate_mse(almmse(model.sg, 3.0, 0.05), model, 600, 5)
    assert calls == [300, 300]
    # within the orthonormality bound 1e-10 of build_laplacian: each entry
    # of x V - x_freq = x_freq (V^T V - I) is at most that times a row's sum
    for block in harness._test_blocks(model, 600, 5):
        gap = np.abs(transform(model.sg, block.x) - block.x_freq)
        assert np.all(gap <= 1e-10 * np.abs(block.x_freq).sum(axis=1, keepdims=True))


def test_scoring_peak_does_not_grow_with_trials():
    # the test set is drawn, transformed and scored a block at a time, so a
    # scenario's traced peak at 8,000 trials is that at 1,000 within one
    # block of rows, and below one whole 8,000-row array
    import tracemalloc

    from gspest.harness import _scored_rows

    model = ac_measurement_model(random_grid(generator(43, "scoring"), 470))
    sg, n = model.sg, model.sg.n_vertices
    _, cases = scoring_cases(sg, 2, seed=43)
    fitted = [(MseRow(name, "s", "p", 0.0), est) for name, est in cases.items()]
    peaks = {}
    for trials in (1000, 8000):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rows = _scored_rows(fitted, model, trials, 5)
            peaks[trials] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert all(r.status == "ok" for r in rows)
    assert abs(peaks[8000] - peaks[1000]) <= 511 * n * 8
    assert peaks[8000] < 8000 * n * 8


@pytest.mark.parametrize("protocol", [experiment_a, experiment_b, measure_runtime])
def test_protocol_scores_are_squared_errors_on_the_test_set(tmp_path, monkeypatch, protocol):
    # 700 trials are two blocks; each row's score is its estimator's
    # squared_errors on draw_test_set of the model, trials and seed it was
    # scored with, to the rounding of the frequency domain and of shorter
    # products
    from gspest import harness

    config = small_config(
        tmp_path, trials=700, p_values=(24, 60), perturb_counts=(1,), perturb_repetitions=2,
    )
    calls = []
    scored_rows = harness._scored_rows

    def spy(fitted, model, trials, seed):
        rows = scored_rows(fitted, model, trials, seed)
        calls.append((fitted, draw_test_set(model, trials, seed), rows))
        return rows

    monkeypatch.setattr(harness, "_scored_rows", spy)
    report = protocol(config)
    assert [r for _, _, rows in calls for r in rows] == report.rows
    scored = 0
    for fitted, (x, y), rows in calls:
        for (_, est), row in zip(fitted, rows):
            assert row.status == "ok", row
            err = squared_errors(est, x, y)
            mse, stderr = err.mean(), err.std(ddof=1) / np.sqrt(len(err))
            assert abs(row.mse - mse) <= 1e-12 * mse, row
            assert abs(row.stderr - stderr) <= 1e-12 * stderr, row
            scored += 1
    assert scored >= len(config.estimators)


def test_spectral_families_build_no_dense_gain(tmp_path, monkeypatch):
    from gspest import estimators

    built = []
    dense = estimators._filter_operator
    monkeypatch.setattr(
        estimators, "_filter_operator", lambda v, h: built.append(v.shape) or dense(v, h)
    )
    config = small_config(tmp_path, perturb_counts=(1, 2), perturb_repetitions=2)
    experiment_a(config)
    measure_runtime(config)
    for mode in ("add-edges", "remove-edges"):
        experiment_b(replace(config, perturb_mode=mode))
    assert built == []
    # on vertex modes the stale gsp-lmmse is remapped through its gain,
    # built once for all four perturbations
    for mode in ("add-vertices", "remove-vertices"):
        experiment_b(replace(config, perturb_mode=mode))
    assert built == [(12, 12), (12, 12)]


def test_experiment_b_reads_grid_once(tmp_path, monkeypatch):
    from gspest import harness

    calls = []
    load_grid = harness.load_grid
    monkeypatch.setattr(
        harness, "load_grid", lambda path: calls.append(path) or load_grid(path)
    )
    config = small_config(tmp_path, perturb_counts=(1,), perturb_repetitions=1)
    experiment_b(config)
    assert calls == [config.grid]


def test_experiment_b_frees_training_moments_before_perturbing(tmp_path, monkeypatch):
    import weakref

    from gspest import harness

    refs, alive = [], []
    stream, perturb = harness.stream_moments, harness.perturb_grid

    def traced_stream(*args):
        m = stream(*args)
        refs.append(weakref.ref(m))
        return m

    def traced_perturb(*args):
        alive.append(refs[0]() is not None)
        return perturb(*args)

    monkeypatch.setattr(harness, "stream_moments", traced_stream)
    monkeypatch.setattr(harness, "perturb_grid", traced_perturb)
    experiment_b(small_config(tmp_path, perturb_counts=(1,), perturb_repetitions=2))
    assert len(refs) == 1 and alive == [False, False]


def test_experiment_b_holds_one_perturbed_eigenbasis(tmp_path, monkeypatch):
    import weakref

    from gspest import harness

    bases, alive = [], []
    model = harness.ac_measurement_model

    def traced_model(*args):
        # which earlier perturbed graphs' eigenbases are still alive
        alive.append([k for k, ref in enumerate(bases[1:]) if ref() is not None])
        m = model(*args)
        bases.append(weakref.ref(m.sg))
        return m

    monkeypatch.setattr(harness, "ac_measurement_model", traced_model)
    experiment_b(small_config(tmp_path, perturb_counts=(1, 2), perturb_repetitions=2))
    assert len(bases) == 5 and alive == [[]] * 5


@pytest.mark.parametrize("mode", ["add-edges", "remove-vertices"])
def test_experiment_b_builds_no_model_beside_the_base_eigenbasis(tmp_path, monkeypatch, mode):
    # retunes read the base spectrum and stale gains, never the base
    # eigenvectors: no earlier model's basis may be alive at a build
    import gc
    import weakref

    from gspest import harness

    bases, alive = [], []
    model = harness._ac_model

    def traced_model(*args):
        gc.collect()
        alive.append([k for k, ref in enumerate(bases) if ref() is not None])
        m = model(*args)
        bases.append(weakref.ref(m.sg.eigenvectors))
        return m

    monkeypatch.setattr(harness, "_ac_model", traced_model)
    experiment_b(small_config(
        tmp_path, perturb_mode=mode, perturb_counts=(1, 2), perturb_repetitions=2
    ))
    assert len(bases) == 5 and alive == [[]] * 5


@pytest.mark.parametrize("overrides", [
    dict(estimators=()),
    # noiseless moments at P < N: the one base fit is singular
    dict(estimators=("sample-lmmse",), sigma2=0.0, training_size=6),
])
def test_experiment_b_draws_nothing_that_no_estimator_scores(tmp_path, monkeypatch, overrides):
    from gspest import harness

    calls = []
    stream, blocks = harness.stream_moments, harness._test_blocks
    monkeypatch.setattr(harness, "stream_moments", lambda *a: calls.append("train") or stream(*a))
    monkeypatch.setattr(harness, "_test_blocks", lambda *a: calls.append("test") or blocks(*a))
    report = experiment_b(small_config(tmp_path, **overrides))
    named = bool(overrides["estimators"])
    assert calls == ["train"] * named
    assert [r.status for r in report.rows] == ["singular"] * 4 * named
    experiment_a(small_config(tmp_path, estimators=()))  # scores its P-infinity row only
    assert calls == ["train"] * named + ["test"]


@pytest.mark.parametrize("protocol", [experiment_b, measure_runtime])
def test_no_estimators_build_the_base_model_and_nothing_else(tmp_path, monkeypatch, protocol):
    from gspest import harness

    calls = []
    model, stream = harness._ac_model, harness.stream_moments
    monkeypatch.setattr(harness, "_ac_model", lambda *a: calls.append("model") or model(*a))
    monkeypatch.setattr(harness, "stream_moments", lambda *a: calls.append("train") or stream(*a))
    assert protocol(small_config(tmp_path, estimators=())).rows == []
    assert calls == ["model"]
    # the grid and the base model are still checked: a bad grid or an
    # overflowing prior is an error, not an empty report
    bad = tmp_path / "bad.csv"
    bad.write_text("from,to,conductance,susceptance\n1,2,0.1,0.0\n")
    with pytest.raises(InvalidGraphError):
        protocol(small_config(tmp_path, estimators=(), grid=str(bad)))
    with pytest.raises(ConfigError, match="overflows"):
        protocol(small_config(tmp_path, estimators=(), grid="ieee118", beta=1e308))


def test_experiment_b_releases_the_heap_before_each_model(tmp_path, monkeypatch):
    from gspest import harness

    harness._release_heap()  # a no-op where the C library has no malloc_trim
    events = []
    model = harness.ac_measurement_model
    monkeypatch.setattr(harness, "_release_heap", lambda: events.append("release"))
    monkeypatch.setattr(
        harness, "ac_measurement_model", lambda *a: events.append("model") or model(*a)
    )
    experiment_b(small_config(tmp_path, perturb_counts=(1, 2), perturb_repetitions=2))
    assert events == ["release", "model"] * 5


def test_experiment_b_zero_perturbation_matches_experiment_a(tmp_path):
    # training size in p_values, shared test stream at (count=0, rep=0):
    # the no-op perturbation must reproduce experiment a's rows exactly
    config = small_config(
        tmp_path, p_values=(40,), perturb_counts=(0,), perturb_repetitions=1
    )
    rows_a = {
        r.estimator: r.mse
        for r in experiment_a(config).rows
        if r.param == "P" and r.value == 40.0
    }
    rows_b = {r.estimator: r.mse for r in experiment_b(config).rows}
    assert rows_a == rows_b


def test_experiment_b_vertex_modes_resize(tmp_path):
    for mode, n_want in (("add-vertices", 13), ("remove-vertices", 11)):
        config = small_config(
            tmp_path,
            perturb_mode=mode,
            perturb_counts=(1,),
            perturb_repetitions=1,
            trials=32,
        )
        report = experiment_b(config)
        assert len(report.rows) == len(config.estimators)
        for row in report.rows:
            assert math.isfinite(row.mse) and row.mse > 0, row.estimator


# ------------------------------------------------------------------- runtime


def test_measure_runtime_rows(tmp_path):
    config = small_config(tmp_path, runtime_targets=(1e12, 1e-15))
    report = measure_runtime(config)
    per_label = len(config.runtime_targets) + 1
    assert len(report.rows) == per_label * len(config.estimators)
    for label in config.estimators:
        rows = [r for r in report.rows if r.estimator == label]
        median = rows[0]
        assert median.param == "median-fit"
        assert median.wall_ms >= 0 and math.isfinite(median.wall_ms)
        loose, strict = rows[1], rows[2]
        assert loose.param == "target-mse" and loose.value == 1e12
        assert loose.status == "ok"
        assert strict.value == 1e-15 and strict.status == "unreachable"


def test_measure_runtime_times_and_scores_the_family_fits(tmp_path, monkeypatch):
    # runtime_repeats fits of each family's own fit function, counted through
    # the names the family table reaches, and the last one timed is scored
    from gspest import harness

    names = ("sample_lmmse", "sample_diag_lmmse", "gsp_lmmse", "fit_lpi", "fit_arma",
             "fit_lr_arma", "almmse")
    calls, built = {name: 0 for name in names}, []

    def counted(name, fit):
        def call(*args):
            calls[name] += 1
            built.append(fit(*args))
            return built[-1]
        return call

    for name in names:
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    scored, scored_rows = [], harness._scored_rows

    def spy(fitted, *args):
        scored.extend(est for _, est in fitted)
        return scored_rows(fitted, *args)

    monkeypatch.setattr(harness, "_scored_rows", spy)
    config = small_config(tmp_path, runtime_repeats=3)
    report = measure_runtime(config)
    assert calls == {name: 3 for name in names}
    assert [id(est) for est in scored] == [id(est) for est in built[2::3]]
    assert all(r.status == "ok" and math.isfinite(r.mse) for r in report.rows)


def test_measure_runtime_non_finite_scores_are_typed_rows(tmp_path):
    config = small_config(tmp_path, beta=1e308, trials=32, runtime_targets=(1.0,))
    with np.errstate(all="ignore"):
        report = measure_runtime(config)
    assert_no_ok_row_is_non_finite(report.rows)
    assert all(r.param == "median-fit" for r in report.rows if r.status == "non-finite")


# ----------------------------------------------------------------- reporting


def test_write_csv_layout(tmp_path):
    report = MseReport()
    report.add(MseRow("almmse", "experiment-a", "P", 10.0, 1.5, 0.25, 3.5))
    report.add(
        MseRow(
            "sample-lmmse", "experiment-a", "P", 10.0,
            float("nan"), float("nan"), 0.1, status="singular",
        )
    )
    out = tmp_path / "report.csv"
    report.write_csv(out)
    header, rows = read_report_csv(out)
    assert header == ["estimator", "scenario", "param", "value", "mse", "stderr", "wall_ms"]
    assert rows[0][:3] == ["almmse", "experiment-a", "P"]
    assert float(rows[0][4]) == 1.5
    assert math.isnan(float(rows[1][4]))
    assert math.isnan(float(rows[1][5]))


def test_csv_values_round_trip_17g(tmp_path):
    value = 1.0 / 3.0
    report = MseReport()
    report.add(MseRow("almmse", "s", "p", value, value * 7, value / 13, 0.0))
    out = tmp_path / "r.csv"
    report.write_csv(out)
    _, rows = read_report_csv(out)
    assert float(rows[0][3]) == value
    assert float(rows[0][4]) == value * 7
    assert float(rows[0][5]) == value / 13


def test_constant_estimator_mse_is_prior_trace(tmp_path):
    config = small_config(tmp_path)
    model = build_model(config)
    sg = model.sg
    n = sg.n_vertices
    constant = LinearEstimator("constant", np.zeros(n), np.zeros((n, n)), np.zeros(n))
    mse, stderr = evaluate_mse(constant, model, 10_000, seed=3)
    want = config.beta * np.sum(1.0 / sg.eigenvalues[1:])
    assert abs(mse - want) < 3 * stderr


def test_exact_moment_mse_ordering():
    # unconstrained <= spectral ratio <= each fitted filter <= constant
    # fallback, on common draws, when the moments are exact
    rng = generator(21, "ordering")
    sg = build_laplacian(random_connected_graph(rng, 12))
    spec = FilterSpec.linear([1.0, 0.4, -0.03])
    model = linear_filter_model(sg, spec, beta=3.0, sigma2=0.05)
    fmat = filter_matrix(spec, sg)
    cx = model.prior.covariance()
    n = sg.n_vertices
    m = SampleMoments.from_covariances(
        sg,
        np.zeros(n),
        np.zeros(n),
        cx @ fmat.T,
        fmat @ cx @ fmat.T + 0.05 * np.eye(n),
    )
    lmmse = sample_lmmse(m)
    gsp = gsp_lmmse(m)
    fitted = (fit_lpi(m, 4, 1e-8), fit_arma(m, 2, 2, 1e-8))
    constant = LinearEstimator("constant", np.zeros(n), np.zeros((n, n)), np.zeros(n))
    x, y = draw_test_set(model, 4000, seed=9)
    err = {est.label: squared_errors(est, x, y) for est in (lmmse, gsp, constant, *fitted)}

    def no_worse(better, worse):
        diff = err[worse] - err[better]
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        assert diff.mean() > -3 * se, (better, worse)

    no_worse("sample-lmmse", "gsp-lmmse")
    for fit in fitted:
        no_worse("gsp-lmmse", fit.label)
        no_worse(fit.label, "constant")
