import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gspest.errors import DisconnectedGraphError, InvalidGraphError
from gspest.estimators import gsp_lmmse, sample_lmmse
from gspest.filters import FilterSpec, filter_matrix
from gspest.graphs import SpectralGraph, build_laplacian
from gspest.models import (
    AcGridModel,
    MeasurementModel,
    SmoothPrior,
    _branch_terms,
    ac_measurement_model,
    ac_power,
    bundled_ieee118,
    linear_filter_model,
    load_grid,
    perturb_grid,
    sample_prior,
)
from gspest.moments import SampleMoments, population_moments, stream_moments
from gspest.rng import generator
from tests.test_graphs import edges_of, graph_of, random_connected_graph


def table_grid(n, branches, voltage=None):
    """The grid with the branches ``{(i, j): (conductance, susceptance)}``,
    ``i < j``, as a table sorted by ``(i, j)``."""
    rows = sorted((int(i), int(j), float(g), float(b)) for (i, j), (g, b) in branches.items())
    return AcGridModel(n, *(np.array(c) for c in zip(*rows)), voltage)


def dense_admittance(grid):
    """The symmetric, zero-diagonal N×N branch conductance and susceptance
    matrices of a grid's table: the reference the table is checked against."""
    g, b = np.zeros((grid.n_buses,) * 2), np.zeros((grid.n_buses,) * 2)
    g[grid.i, grid.j] = g[grid.j, grid.i] = grid.conductance
    b[grid.i, grid.j] = b[grid.j, grid.i] = grid.susceptance
    return g, b


def random_grid(rng, n, extra=0.5):
    """Random connected AC grid; susceptances are the graph weights."""
    graph = random_connected_graph(rng, n, extra=extra)
    i, j, w = graph.i, graph.j, graph.weight
    b = w * rng.uniform(5.0, 40.0)
    return AcGridModel(n, i, j, rng.uniform(0.5, 5.0, len(w)), b)


def tiled_grid(k=8, seed=0):
    """``k`` copies of the bundled grid, every branch value scaled by a seeded
    factor in [0.99, 1.01], chained by three purely reactive ties per pair of
    neighbouring copies, with seeded non-unit bus voltages."""
    base = bundled_ieee118()
    n = base.n_buses
    rng = generator(seed, "tiled-grid", k)
    branches = {}
    for c in range(k):
        g, b = (v * rng.uniform(0.99, 1.01, len(v)) for v in (base.conductance, base.susceptance))
        branches.update(zip(zip(base.i + c * n, base.j + c * n), zip(g, b)))
    for c in range(k - 1):
        f, t = c * n + rng.integers(n, size=3), (c + 1) * n + rng.integers(n, size=3)
        branches.update(zip(zip(f, t), ((0.0, b) for b in rng.uniform(5.0, 40.0, 3))))
    return table_grid(k * n, branches, rng.uniform(0.95, 1.05, k * n))


def star_grid(n=300, seed=0):
    """One hub bus, bus 0, on every branch to ``n - 1`` leaves, with seeded
    conductances, susceptances and non-unit bus voltages: the largest degree
    a grid on ``n`` buses can have."""
    rng = generator(seed, "star-grid", n)
    g, b = rng.uniform(0.5, 5.0, n - 1), rng.uniform(5.0, 40.0, n - 1)
    return AcGridModel(n, np.zeros(n - 1, dtype=int), np.arange(1, n), g, b,
                       rng.uniform(0.95, 1.05, n))


# --------------------------------------------------------------------- prior


def test_smooth_prior_variances():
    sg = build_laplacian(random_connected_graph(generator(41, "prior"), 10))
    prior = SmoothPrior(sg, beta=3.0)
    var = prior.frequency_variances
    assert var[0] == 0.0
    assert np.allclose(var[1:], 3.0 / sg.eigenvalues[1:], atol=1e-15)
    cov = prior.covariance()
    v = sg.eigenvectors
    assert np.max(np.abs(v.T @ cov @ v - np.diag(var))) < 1e-10


def test_prior_samples_orthogonal_to_constant():
    sg = build_laplacian(random_connected_graph(generator(42, "prior"), 8))
    x = sample_prior(SmoothPrior(sg, 3.0), 500, seed=1)
    v1 = sg.eigenvectors[:, 0]
    assert np.max(np.abs(x @ v1)) < 1e-10


def test_prior_dirichlet_energy():
    # E[x^T L x] = sum over positive frequencies of beta = beta * (n - 1)
    rng = generator(43, "prior")
    sg = build_laplacian(random_connected_graph(rng, 12))
    beta = 3.0
    x = sample_prior(SmoothPrior(sg, beta), 100_000, seed=7)
    energy = np.einsum("ij,jk,ik->i", x, sg.laplacian, x)
    want = beta * (sg.n_vertices - 1)
    assert abs(energy.mean() - want) < 0.05 * want


@pytest.mark.parametrize("beta", [0.0, -1.0, np.nan, np.inf])
def test_prior_beta_must_be_positive_and_finite(beta):
    sg = build_laplacian(random_connected_graph(generator(45, "prior"), 6))
    with pytest.raises(ValueError, match="beta must be positive"):
        SmoothPrior(sg, beta)
    with pytest.raises(ValueError, match="beta must be positive"):
        ac_measurement_model(bundled_ieee118(), beta)
    # a huge finite beta is a valid prior while every beta / lambda is
    # finite; where one overflows (lambda_1 = 0.47 here) it is a ValueError,
    # not a FloatingPointError or a warning
    with np.errstate(all="raise"):
        assert SmoothPrior(sg, 1e307).beta == 1e307
        with pytest.raises(ValueError, match="beta / lambda overflows at 1 of 6"):
            SmoothPrior(sg, 1e308)


def test_prior_draws_scale_in_place_bit_for_bit():
    # the normals are scaled in their own buffer: same bits as out of place
    from gspest.models import _draw_prior

    for sg in (
        build_laplacian(random_connected_graph(generator(46, "prior"), 7)),
        build_laplacian(bundled_ieee118().graph()),
    ):
        prior, n = SmoothPrior(sg, 3.0), sg.n_vertices
        for count, seed in ((1, 0), (2000, 5)):
            z = generator(seed, "prior").standard_normal((count, n))
            want = (z * np.sqrt(prior.frequency_variances)) @ sg.eigenvectors.T
            assert sample_prior(prior, count, seed).tobytes() == want.tobytes()
        # successive draws on one generator scale their own normals alone
        rng, ref = generator(9, "prior"), generator(9, "prior")
        for count in (3, 250):
            z = ref.standard_normal((count, n))
            want = (z * np.sqrt(prior.frequency_variances)) @ sg.eigenvectors.T
            assert _draw_prior(prior, rng, count).tobytes() == want.tobytes()


def test_prior_sample_covariance_converges():
    rng = generator(44, "prior")
    sg = build_laplacian(random_connected_graph(rng, 6))
    prior = SmoothPrior(sg, 2.0)
    x = sample_prior(prior, 100_000, seed=3)
    emp = x.T @ x / x.shape[0]
    want = prior.covariance()
    assert np.max(np.abs(emp - want)) < 0.05 * np.abs(want).max()


def test_from_variances_validation():
    sg = build_laplacian(random_connected_graph(generator(45, "prior"), 5))
    with pytest.raises(ValueError):
        SmoothPrior.from_variances(sg, np.ones(4))
    with pytest.raises(ValueError):
        SmoothPrior.from_variances(sg, -np.ones(5))
    with pytest.raises(ValueError):
        SmoothPrior(sg, beta=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_from_variances_rejects_non_finite(bad):
    sg = build_laplacian(random_connected_graph(generator(45, "prior"), 5))
    with pytest.raises(ValueError, match="finite non-negative variance"):
        SmoothPrior.from_variances(sg, [bad, 1.0, 1.0, 1.0, 1.0])


# --------------------------------------------------------------------- noise


def white_noise_model(n, sigma2, seed=47):
    sg = build_laplacian(random_connected_graph(generator(seed, "noise"), n))
    return MeasurementModel(SmoothPrior(sg, 1.0), sigma2, lambda x: x)


def test_white_noise_moments():
    w = white_noise_model(6, 0.25).sample_noise(200_000, seed=2)
    assert np.abs(w.mean(axis=0)).max() < 0.01
    emp = w.T @ w / w.shape[0]
    assert np.max(np.abs(emp - 0.25 * np.eye(6))) < 0.01


def test_noise_draws_match_the_dense_diagonal_formula():
    # the scalar draw, scaled in place, is bit for bit the out-of-place draw
    # and the draw from the covariance sigma2 I
    for n, sigma2 in ((1, 0.05), (6, 0.25), (9, 0.0), (9, 1e-300), (5, 3e300), (118, 0.05)):
        model = white_noise_model(n, sigma2)
        for count, seed in ((1, 0), (300, 7), (2000, 3)):
            z = generator(seed, "noise").standard_normal((count, n))
            got = model.sample_noise(count, seed)
            assert got.tobytes() == (z * np.sqrt(sigma2)).tobytes()
            assert np.array_equal(got, z * np.sqrt(np.diag(sigma2 * np.eye(n))))


def test_measurement_model_rejects_bad_noise_variance():
    sg = build_laplacian(random_connected_graph(generator(56, "model"), 6))
    for sigma2 in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma2 must be finite and non-negative"):
            MeasurementModel(SmoothPrior(sg, 1.0), sigma2, lambda x: x)
    assert MeasurementModel(SmoothPrior(sg, 1.0), 0, lambda x: x).sigma2 == 0.0


# ------------------------------------------------------------------ AC model


def test_ac_power_translation_invariant():
    rng = generator(48, "ac")
    grid = random_grid(rng, 9)
    x = rng.standard_normal(9)
    for c in (1.0, -3.7, 100.0):
        assert np.max(np.abs(ac_power(grid, x + c) - ac_power(grid, x))) < 1e-12


def test_ac_power_zero_with_no_conductance():
    rng = generator(49, "ac")
    grid = random_grid(rng, 6)
    reactive = replace(grid, conductance=np.zeros_like(grid.conductance))
    assert np.max(np.abs(ac_power(reactive, np.zeros(6)))) == 0.0


def test_ac_jacobian_at_zero_is_laplacian():
    # with no conductance and unit voltages, d g / d x at 0 equals L
    rng = generator(50, "ac")
    grid = random_grid(rng, 8)
    reactive = replace(grid, conductance=np.zeros_like(grid.conductance))
    lap = build_laplacian(reactive.graph()).laplacian
    n = 8
    h = 1e-6
    jac = np.zeros((n, n))
    for m in range(n):
        e = np.zeros(n)
        e[m] = h
        jac[:, m] = (ac_power(reactive, e) - ac_power(reactive, -e)) / (2 * h)
    assert np.max(np.abs(jac - lap)) < 1e-6 * max(np.abs(lap).max(), 1.0)


def test_ac_linearization_residual_shrinks():
    rng = generator(51, "ac")
    grid = random_grid(rng, 8)
    reactive = replace(grid, conductance=np.zeros_like(grid.conductance))
    lap = build_laplacian(reactive.graph()).laplacian
    direction = rng.standard_normal(8)
    direction /= np.linalg.norm(direction)
    resid = []
    for scale in (1e-2, 1e-3):
        x = scale * direction
        lin = lap @ x
        resid.append(np.linalg.norm(ac_power(reactive, x) - lin) / np.linalg.norm(lin))
    # quadratic nonlinearity: one decade in amplitude is one decade in ratio
    assert resid[1] < 0.2 * resid[0]


def test_ac_power_batched():
    rng = generator(52, "ac")
    grid = random_grid(rng, 7)
    x = rng.standard_normal((4, 7))
    out = ac_power(grid, x)
    assert out.shape == (4, 7)
    for i in range(4):
        assert np.allclose(out[i], ac_power(grid, x[i]), atol=1e-14)


def loop_ac_power(grid, x):
    """The docstring formula one branch at a time, and per entry the scale
    ``sum_m u_n u_m (|G_nm| + |B_nm|)`` its rounding is relative to."""
    rows = np.atleast_2d(x)
    u = grid.voltage
    p, scale = np.zeros_like(rows), np.zeros_like(rows)
    for i, j, g, b in grid.branch_values():
        for n, m in ((i, j), (j, i)):
            d = rows[:, n] - rows[:, m]
            p[:, n] += u[n] * u[m] * (g * np.cos(d) + b * np.sin(d))
            scale[:, n] += u[n] * u[m] * (abs(g) + abs(b))
    return p, scale


def bundled_with_voltages():
    grid = bundled_ieee118()
    v = generator(54, "ac-voltage").uniform(0.95, 1.05, grid.n_buses)
    return replace(grid, voltage=v)


@pytest.mark.parametrize("make", [bundled_with_voltages, tiled_grid, star_grid])
def test_ac_power_matches_branch_loop(make):
    grid = make()
    assert np.any(grid.conductance) and np.any(grid.voltage != 1.0)
    x = 2.0 * generator(55, "ac-loop").standard_normal((6, grid.n_buses))
    for phases in (x, x[3]):
        got = ac_power(grid, phases)
        want, scale = loop_ac_power(grid, phases)
        assert got.shape == phases.shape
        assert np.all(np.abs(np.atleast_2d(got) - want) <= 1e-13 * scale)


@pytest.mark.parametrize("make", [bundled_with_voltages, tiled_grid, star_grid])
def test_ac_power_rows_do_not_depend_on_the_batch(make):
    # every output is summed in the same order whatever the batch, so a
    # batch is bitwise the stack of its rows and of any split of them
    grid = make()
    rng = generator(56, "ac-batch")
    x = 2.0 * rng.standard_normal((37, grid.n_buses))
    out = ac_power(grid, x)
    assert out.flags.c_contiguous
    assert np.array_equal(out, np.stack([ac_power(grid, row) for row in x]))
    for cut in (1, 16, 36):
        parts = (ac_power(grid, x[:cut]), ac_power(grid, x[cut:]))
        assert np.array_equal(out, np.concatenate(parts))


def test_ac_power_bits_do_not_depend_on_blas_threads():
    root = Path(__file__).resolve().parents[1]
    code = (
        "import hashlib; from gspest.models import ac_power; "
        "from gspest.rng import generator; from tests.test_models import tiled_grid; "
        "grid = tiled_grid(); x = generator(57, 'ac-threads').standard_normal((300, grid.n_buses)); "
        "print(hashlib.sha256(ac_power(grid, x).tobytes()).hexdigest())"
    )
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join((str(root / "src"), str(root))))
        run = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        digests.add(run.stdout.strip())
    assert len(digests) == 1


def test_ac_power_on_a_grid_with_no_branches():
    # the lone bus injects 0, for one phase vector and for a batch, and the
    # model's draws and streamed moments go through
    grid = AcGridModel(1, [], [], [], [])
    assert ac_power(grid, np.array([0.3])).tolist() == [0.0]
    assert ac_power(grid, np.ones((4, 1))).tolist() == [[0.0]] * 4
    model = ac_measurement_model(grid, sigma2=0.05)
    assert model.forward(model.sample_x(3, seed=0)).tolist() == [[0.0]] * 3
    streamed = stream_moments(model, 10, seed=0)
    exact = population_moments(grid, model.prior, model.sigma2)
    for m in (streamed, exact):
        assert m.y_mean.tolist() == [0.0] and m.y_cov.tolist() == [[0.05]]


def test_ac_power_rejects_misshapen_phases():
    grid = bundled_ieee118()
    for shape in ((2, 118, 118), (2, 3, 118), (2, 118, 5), (1, 1, 118), (117,), (3, 119), ()):
        with pytest.raises(ValueError, match="^phases must be 1-D or 2-D with 118 entries per row$"):
            ac_power(grid, np.zeros(shape))
    assert ac_power(grid, np.zeros((0, 118))).shape == (0, 118)


def half_angle_cos_sin(x):
    # g cos x + b sin x at (g, b) = (1, 0) and (0, 1)
    def term(g, b):
        out = np.empty((2 * len(x), x.shape[1]))
        _branch_terms(0.5 * x, g, b, out, np.empty(x.shape))
        return out[:len(x)]

    return term(1.0, 0.0), term(0.0, 1.0)


def test_half_angle_cos_sin_match_numpy():
    eps = np.finfo(float).eps
    rng = generator(58, "half-angle")
    scales = (1e-3, 0.1, 1.0, np.pi, 10.0, 1e3, 1e8, 1e16, 1e50, 1e100, 1e200, 1e300)
    seeded = [s * rng.uniform(-1.0, 1.0, (50, 200)) for s in scales]
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310] + [k * np.pi / 2 for k in range(-8, 9)])
    for x in seeded + [special.reshape(-1, 1), special.reshape(1, -1)]:
        c, s = half_angle_cos_sin(x)
        assert np.all(np.abs(c - np.cos(x)) <= 4 * eps)
        assert np.all(np.abs(s - np.sin(x)) <= 4 * eps)
    c, s = half_angle_cos_sin(np.array([[0.0, -0.0]]))
    assert np.array_equal(c, [[1.0, 1.0]]) and np.array_equal(s, [[0.0, 0.0]])


def test_ac_power_non_finite_phases_give_nan():
    # a non-finite phase makes its bus and every neighbour nan, as the branch
    # loop does; the other rows keep their bits
    grid = bundled_with_voltages()
    x = 2.0 * generator(59, "ac-non-finite").standard_normal((5, grid.n_buses))
    x[1, 7], x[2, 40], x[3, 90] = np.inf, -np.inf, np.nan
    x[4] = np.nan
    with np.errstate(invalid="ignore"):
        got = ac_power(grid, x)
        want, _ = loop_ac_power(grid, x)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.all(np.isnan(got[4])) and np.isnan(got[1:4]).any(axis=1).all()
    assert np.array_equal(got[0], ac_power(grid, x[0]))


# a valid three-bus table: branches with and without conductance
TABLE = dict(n_buses=3, i=[0, 0, 1], j=[1, 2, 2], conductance=[1.0, 0.0, 2.0],
             susceptance=[5.0, 4.0, 3.0], voltage=[1.0, 1.02, 0.98])


def test_grid_table_is_its_branches():
    grid = AcGridModel(**TABLE)
    assert grid.branch_values() == ((0, 1, 1.0, 5.0), (0, 2, 0.0, 4.0), (1, 2, 2.0, 3.0))
    assert edges_of(grid.graph()) == ((0, 1, 5.0), (0, 2, 4.0), (1, 2, 3.0))
    assert np.array_equal(grid.voltage, TABLE["voltage"])
    # the graph is built once, and its edge table is the grid's branch columns
    graph = grid.graph()
    assert grid.graph() is graph
    assert grid.i is graph.i and grid.j is graph.j and grid.susceptance is graph.weight


@pytest.mark.parametrize("change, message", [
    (dict(n_buses=0), "graph needs at least one vertex"),
    (dict(j=[1, 2]), "need 1-D edge columns of one length"),
    (dict(susceptance=[5.0, 4.0]), "need 1-D edge columns of one length"),
    (dict(i=[0, 1, 1], j=[1, 1, 2]), "self loop at vertex 1"),
    (dict(i=[0, 2, 1], j=[1, 0, 2]), "branches must come sorted by \\(i, j\\) with i < j$"),
    (dict(i=[-1, 0, 1]), "edge \\(-1,1\\) out of range"),
    (dict(j=[1, 2, 3]), "edge \\(1,3\\) out of range"),
    (dict(i=[0, 1, 0], j=[1, 2, 2]), "branches must come sorted by \\(i, j\\) with i < j$"),
    (dict(i=[0, 0, 0], j=[1, 1, 2]), "duplicate edge \\(0,1\\)"),
    (dict(conductance=[1.0, 0.0]), "need one conductance per branch"),
    (dict(conductance=[np.nan, 0.0, 2.0]), "branch \\(0,1\\) has conductance nan"),
    (dict(susceptance=[5.0, -np.inf, 3.0]), "edge \\(0,2\\) has invalid weight -inf"),
    (dict(susceptance=[5.0, -0.0, 3.0]), "branch \\(0,2\\) has conductance 0.0 and susceptance -0"),
    (dict(voltage=[1.0, np.nan, 1.0]), "voltage magnitudes must be finite and positive"),
    (dict(voltage=[1.0, np.inf, 1.0]), "voltage magnitudes must be finite and positive"),
    (dict(voltage=[1.0, 0.0, 1.0]), "voltage magnitudes must be finite and positive"),
    (dict(voltage=[1.0, 1.0]), "voltage magnitudes must be finite and positive"),
], ids=["no-bus", "short-j", "short-susceptance", "self-loop", "i-above-j", "negative-i",
        "j-out-of-range", "unsorted", "duplicate", "short-conductance", "nan-conductance",
        "inf-susceptance",
        "no-admittance", "nan-voltage", "inf-voltage", "zero-voltage", "short-voltage"])
def test_grid_table_validation(change, message):
    with pytest.raises(InvalidGraphError, match=message):
        AcGridModel(**{**TABLE, **change})


@pytest.mark.parametrize("g, b", [
    (-0.1, 2.0), (np.nan, 2.0), (np.inf, 2.0),
    (0.1, 0.0), (0.1, -2.0), (0.1, np.inf), (0.1, np.nan),
], ids=["negative-g", "nan-g", "inf-g", "zero-b", "negative-b", "inf-b", "nan-b"])
def test_grid_and_branch_csv_share_the_branch_rule(tmp_path, g, b):
    # finite conductance >= 0 and finite susceptance > 0 on every branch; the
    # path 1-2-3's second branch (0-based (1,2)) breaks the rule
    with pytest.raises(InvalidGraphError, match="\\(1,2\\) has"):
        AcGridModel(3, [0, 1], [1, 2], [0.1, g], [2.0, b])
    path = tmp_path / "branches.csv"
    path.write_text(f"from,to,conductance,susceptance\n1,2,0.1,2.0\n2,3,{g!r},{b!r}\n")
    with pytest.raises(InvalidGraphError, match="\\(1,2\\) has"):
        load_grid(path)


# -------------------------------------------------------------- bundled grid


def test_bundled_grid_facts():
    grid = bundled_ieee118()
    assert grid.n_buses == 118
    assert len(grid.branch_values()) == 179
    sg = build_laplacian(grid.graph())
    assert sg.is_connected()
    assert sg.eigenvalues[1] == pytest.approx(0.295313, abs=1e-4)
    assert sg.eigenvalues[-1] == pytest.approx(578.605, rel=1e-4)
    # total prior power at beta = 3
    power = 3.0 * np.sum(1.0 / sg.eigenvalues[1:])
    assert power == pytest.approx(39.773, rel=1e-3)


def test_load_grid_round_trip(tmp_path):
    rng = generator(53, "io")
    grid = random_grid(rng, 10)
    path = tmp_path / "branches.csv"
    lines = ["from,to,conductance,susceptance"]
    for i, j, g, b in grid.branch_values():
        lines.append(f"{i + 1},{j + 1},{g!r},{b!r}")
    path.write_text("\n".join(lines) + "\n")
    back = load_grid(path)
    for name in ("i", "j", "conductance", "susceptance", "voltage"):
        assert np.array_equal(getattr(back, name), getattr(grid, name))


def test_load_grid_rejects_bad_input(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(InvalidGraphError):
        load_grid(p)
    p.write_text("from,to,conductance,susceptance\n1,2,0.1,1.0\n1,2,0.1,2.0\n")
    with pytest.raises(InvalidGraphError, match="duplicate edge \\(0,1\\)"):
        load_grid(p)
    # the same pair in both orientations, a self loop, a bus below 1
    for rows, message in [("1,2,0.1,1.0\n2,1,0.1,2.0", "duplicate edge \\(0,1\\)"),
                          ("1,2,0.1,1.0\n2,2,0.1,2.0", "self loop at vertex 1"),
                          ("1,2,0.1,1.0\n0,2,0.1,2.0", "edge \\(-1,1\\) out of range")]:
        p.write_text(f"from,to,conductance,susceptance\n{rows}\n")
        with pytest.raises(InvalidGraphError, match=message):
            load_grid(p)
    # two disconnected pairs
    p.write_text(
        "from,to,conductance,susceptance\n1,2,0.1,1.0\n3,4,0.1,2.0\n"
    )
    with pytest.raises(DisconnectedGraphError):
        load_grid(p)


def test_load_grid_rejects_too_few_branches_before_building(tmp_path, monkeypatch):
    # 3 branches cannot connect 3,000,000 buses: rejected before the grid's
    # per-bus arrays are allocated
    from gspest import models

    def unbuilt(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(models, "AcGridModel", unbuilt)
    p = tmp_path / "sparse.csv"
    p.write_text("from,to,conductance,susceptance\n1,2,0.1,1.0\n2,3,0.1,2.0\n3,3000000,0.1,1.5\n")
    with pytest.raises(DisconnectedGraphError, match="3000000 buses, 3 branches"):
        load_grid(p)


# -------------------------------------------------------- measurement models


def test_ac_measurement_model_shapes():
    rng = generator(54, "model")
    model = ac_measurement_model(random_grid(rng, 9), beta=3.0, sigma2=0.05)
    x = model.sample_x(11, seed=5)
    assert x.shape == (11, 9)
    g = model.forward(x)
    assert np.asarray(g).shape == (11, 9)
    assert np.array_equal(model.mean_x, np.zeros(9))
    assert model.sg is model.prior.sg


def test_linear_filter_model_forward_is_filter():
    rng = generator(55, "model")
    sg = build_laplacian(random_connected_graph(rng, 8))
    spec = FilterSpec.linear([1.0, 0.2])
    model = linear_filter_model(sg, spec, sigma2=0.01)
    from gspest.filters import filter_matrix

    mat = filter_matrix(spec, sg)
    x = rng.standard_normal((3, 8))
    assert np.max(np.abs(model.forward(x) - x @ mat.T)) < 1e-12


def test_linear_filter_model_rejects_a_prior_on_another_graph():
    rng = generator(57, "model")
    sg = build_laplacian(random_connected_graph(rng, 8))
    other = build_laplacian(random_connected_graph(rng, 8))
    spec = FilterSpec.linear([1.0, 0.2])
    with pytest.raises(ValueError, match="another graph"):
        linear_filter_model(sg, spec, prior=SmoothPrior(other, 1.0))
    # a prior on a rebuilt copy of the same graph is on the same graph
    copy = build_laplacian(sg.graph)
    assert linear_filter_model(sg, spec, prior=SmoothPrior(copy, 1.0)).sg is copy


def test_linear_filter_model_compares_graphs_without_laplacians(monkeypatch):
    rng = generator(58, "model")
    graph = random_connected_graph(rng, 8)
    sg = build_laplacian(graph)
    spec = FilterSpec.linear([1.0, 0.2])

    def no_laplacian(self):
        raise AssertionError("a dense Laplacian was built")

    monkeypatch.setattr(SpectralGraph, "laplacian", property(no_laplacian))
    assert linear_filter_model(sg, spec, prior=SmoothPrior(sg, 1.0)).sg is sg
    # zero-weight edges leave the Laplacian, so the graph, as it is
    edges = edges_of(graph)
    absent = next((i, j) for i in range(8) for j in range(i + 1, 8)
                  if (i, j) not in {e[:2] for e in edges})
    padded = graph_of(8, edges + ((*absent, 0.0),))
    prior = SmoothPrior(build_laplacian(padded), 1.0)
    assert linear_filter_model(sg, spec, prior=prior).sg is prior.sg
    # one changed weight is another graph
    i, j, w = edges[0]
    moved = graph_of(8, ((i, j, 2 * w),) + edges[1:])
    with pytest.raises(ValueError, match="another graph"):
        linear_filter_model(sg, spec, prior=SmoothPrior(build_laplacian(moved), 1.0))


# --------------------------------------------------------- grid perturbation


def test_perturb_grid_add_edges_reactive():
    rng = generator(57, "perturb")
    grid = random_grid(rng, 12)
    new, old = perturb_grid(grid, 3, "add-edges", seed=4)
    assert np.array_equal(old, np.arange(12))
    assert len(new.branch_values()) == len(grid.branch_values()) + 3
    old = {(i, j) for i, j, _, _ in grid.branch_values()}
    for i, j, g, b in new.branch_values():
        if (i, j) not in old:
            assert g == 0.0, "added branches are purely reactive"
            assert b > 0


def test_perturb_grid_keeps_old_branch_values():
    rng = generator(58, "perturb")
    grid = random_grid(rng, 10)
    new, _ = perturb_grid(grid, 2, "add-edges", seed=1)
    old = {(i, j): (g, b) for i, j, g, b in grid.branch_values()}
    for i, j, g, b in new.branch_values():
        if (i, j) in old:
            assert (g, b) == old[(i, j)]


def test_perturb_grid_add_vertices():
    rng = generator(59, "perturb")
    grid = random_grid(rng, 10)
    new, old = perturb_grid(grid, 2, "add-vertices", seed=3)
    assert new.n_buses == 12
    assert np.array_equal(old, [*range(10), -1, -1])
    assert np.array_equal(new.voltage[:10], grid.voltage)
    assert np.all(new.voltage[10:] == 1.0)
    sg = build_laplacian(new.graph())
    assert sg.is_connected()


def test_perturb_grid_remove_vertices():
    rng = generator(60, "perturb")
    grid = random_grid(rng, 12, extra=1.0)
    new, old = perturb_grid(grid, 2, "remove-vertices", seed=6)
    assert new.n_buses == 10
    assert len(old) == 10 and old[0] >= 0 and np.all(np.diff(old) > 0)
    before = {(i, j): (g, b) for i, j, g, b in grid.branch_values()}
    for i, j, g, b in new.branch_values():
        assert before[old[i], old[j]] == (g, b)
    assert np.array_equal(new.voltage, grid.voltage[old])


def test_perturb_grid_remove_edges():
    rng = generator(61, "perturb")
    grid = random_grid(rng, 12, extra=1.0)
    new, _ = perturb_grid(grid, 2, "remove-edges", seed=2)
    assert len(new.branch_values()) == len(grid.branch_values()) - 2
    assert build_laplacian(new.graph()).is_connected()


def test_perturb_grid_bad_mode():
    rng = generator(62, "perturb")
    with pytest.raises(ValueError):
        perturb_grid(random_grid(rng, 6), 1, "shuffle", seed=0)


# ---------------------------------------------- spectral against full LMMSE


def linear_filter_moments(sg, prior_cov, operator, sigma2):
    """Exact moments of ``y = H x + w``: ``C H^T`` and ``H C H^T + sigma2 I``."""
    n = sg.n_vertices
    return SampleMoments.from_covariances(
        sg, np.zeros(n), np.zeros(n), prior_cov @ operator.T,
        operator @ prior_cov @ operator.T + sigma2 * np.eye(n),
    )


def relative_gain_gap(m):
    full = sample_lmmse(m).gain
    return np.linalg.norm(gsp_lmmse(m).dense.gain - full) / np.linalg.norm(full)


def test_linear_filter_gains_coincide():
    # a graph filter of a prior with independent frequencies and white noise
    # meets the conditions under which the spectral gain is the full LMMSE gain
    sg = build_laplacian(random_connected_graph(generator(63, "audit"), 8))
    operator = filter_matrix(FilterSpec.linear([1.0, 0.4, 0.05]), sg)
    m = linear_filter_moments(sg, SmoothPrior(sg, 3.0).covariance(), operator, 0.02)
    assert np.abs(gsp_lmmse(m).dense.gain - sample_lmmse(m).gain).max() < 1e-10


def test_ac_model_gains_differ():
    # the AC map mixes graph frequencies: V^T C_xy V is not diagonal
    grid = bundled_ieee118()
    model = ac_measurement_model(grid)
    m = population_moments(grid, model.prior, model.sigma2)
    v = model.sg.eigenvectors
    spectral = v.T @ m.cross_cov @ v
    off = spectral - np.diag(np.diag(spectral))
    assert 0.05 < np.linalg.norm(off) / np.linalg.norm(spectral) < 0.09  # 0.068
    assert relative_gain_gap(m) > 0.05  # 0.11


def test_coupled_prior_gains_differ():
    # a linear graph filter, but the prior correlates frequencies 1 and 2
    sg = build_laplacian(random_connected_graph(generator(65, "audit"), 8))
    operator = filter_matrix(FilterSpec.linear([1.0, 0.4, 0.05]), sg)
    var = SmoothPrior(sg, 3.0).frequency_variances
    spectral = np.diag(var)
    spectral[1, 2] = spectral[2, 1] = 0.9 * np.sqrt(var[1] * var[2])
    prior_cov = sg.eigenvectors @ spectral @ sg.eigenvectors.T
    assert relative_gain_gap(linear_filter_moments(sg, prior_cov, operator, 0.02)) > 1e-3
    independent = sg.eigenvectors @ np.diag(var) @ sg.eigenvectors.T
    assert relative_gain_gap(linear_filter_moments(sg, independent, operator, 0.02)) < 1e-12
