import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gspest.errors import DisconnectedGraphError, InvalidGraphError
from gspest.filters import FilterSpec
from gspest.graphs import build_laplacian
from gspest.models import (
    AcGridModel,
    NoiseModel,
    SmoothPrior,
    _cos_sin,
    _symmetric,
    ac_measurement_model,
    ac_power,
    audit_model_structure,
    bundled_ieee118,
    linear_filter_model,
    load_grid,
    perturb_grid,
    sample_prior,
)
from gspest.rng import generator
from tests.test_graphs import random_connected_graph


def random_grid(rng, n, extra=0.5):
    """Random connected AC grid; susceptances are the graph weights."""
    graph = random_connected_graph(rng, n, extra=extra)
    b = graph.adjacency() * rng.uniform(5.0, 40.0)
    g = np.where(b > 0, rng.uniform(0.5, 5.0, b.shape), 0.0)
    g = np.triu(g, 1)
    g = g + g.T
    return AcGridModel(g, b, np.ones(n))


def tiled_grid(k=8, seed=0):
    """``k`` copies of the bundled grid, every branch value scaled by a seeded
    factor in [0.99, 1.01], chained by three purely reactive ties per pair of
    neighbouring copies, with seeded non-unit bus voltages."""
    base = bundled_ieee118()
    n = base.n_buses
    rng = generator(seed, "tiled-grid", k)
    g, b = np.zeros((k * n, k * n)), np.zeros((k * n, k * n))
    for c in range(k):
        block = slice(c * n, (c + 1) * n)
        for dst, src in ((g, base.conductance), (b, base.susceptance)):
            s = np.triu(rng.uniform(0.99, 1.01, (n, n)), 1)
            dst[block, block] = src * (s + s.T)
    for c in range(k - 1):
        f, t = c * n + rng.integers(n, size=3), (c + 1) * n + rng.integers(n, size=3)
        b[f, t] = b[t, f] = rng.uniform(5.0, 40.0, 3)
    return AcGridModel(g, b, rng.uniform(0.95, 1.05, k * n))


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


# --------------------------------------------------------------------- noise


def test_white_noise_moments():
    noise = NoiseModel.white(0.25, 6)
    w = noise.sample(200_000, seed=2)
    assert np.abs(w.mean(axis=0)).max() < 0.01
    emp = w.T @ w / w.shape[0]
    assert np.max(np.abs(emp - 0.25 * np.eye(6))) < 0.01


def test_colored_noise_sampling():
    rng = generator(46, "noise")
    a = rng.standard_normal((5, 5))
    cov = a @ a.T + 0.1 * np.eye(5)
    noise = NoiseModel(cov)
    w = noise.sample(300_000, seed=4)
    emp = w.T @ w / w.shape[0]
    assert np.max(np.abs(emp - cov)) < 0.05 * np.abs(cov).max()


@pytest.mark.filterwarnings("ignore:One of rtol or atol is not valid")
def test_exact_checks_agree_with_allclose():
    # the symmetry and diagonal checks compare exactly, with the accept and
    # reject answers of the allclose expressions they replaced
    rng = generator(48, "exact-checks")
    specials = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-13, 1e308, -1e308)
    for trial in range(400):
        m = np.diag(rng.uniform(0.5, 2.0, 5))
        if trial % 2:
            a = rng.standard_normal((5, 5))
            m += a + a.T
        for _ in range(trial % 4):
            i, j = rng.integers(5, size=2)
            pick = rng.integers(len(specials) + 2)
            if pick < len(specials):
                m[i, j] = specials[pick]
            else:
                m[i, j] += (1e-12, 1e-9)[pick - len(specials)] * (1 + m[i, j])
        scale = np.abs(m).max()
        tol = 1e-12 * max(1.0, scale)
        for t in (0.0, tol):
            assert _symmetric(m, t) == np.allclose(m, m.T, rtol=0, atol=t)
        try:
            noise = NoiseModel(m)
        except ValueError:
            assert not np.allclose(m, m.T, rtol=0, atol=tol)
            continue
        assert np.allclose(m, m.T, rtol=0, atol=tol)
        want = np.allclose(m, np.diag(np.diag(m)), rtol=0, atol=0)
        assert noise._diagonal == want


def scanned_noise_checks(m):
    """The reject message and diagonal flag of the checks that scanned every
    covariance for symmetry before deciding whether it is diagonal."""
    if not _symmetric(m, 1e-12 * max(1.0, m.max(), -m.min())):
        return "covariance must be symmetric", None
    return None, not (np.count_nonzero(m) - np.count_nonzero(m.diagonal()))


def test_diagonal_first_checks_agree_with_the_full_scan():
    # a covariance known to be diagonal skips the symmetry scan, with the
    # same answers on special values on and off the diagonal
    rng = generator(49, "diagonal-first")
    specials = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e-13, 1e308, -1e308)
    cases = [NoiseModel.white(s, n).covariance for s in (0.0, 0.05, 1e308) for n in (1, 4)]
    for trial in range(600):
        n = 1 + trial % 5
        m = np.diag(rng.choice(specials + (0.5, 2.0), n))
        if trial % 3 and n > 1:
            i, j = rng.choice(n, 2, replace=False)
            m[i, j] = specials[rng.integers(len(specials))]
            if trial % 3 == 2:
                m[j, i] = m[i, j]
        cases += [m, m.T, np.asfortranarray(m), np.kron(m, np.ones((2, 2)))[::2, ::2]]
    seen = set()
    for m in cases:
        message, diagonal = scanned_noise_checks(m)
        try:
            noise = NoiseModel(m)
        except ValueError as exc:
            assert str(exc) == message
            seen.add("rejected")
            continue
        assert message is None and noise._diagonal == diagonal
        seen.add(("diagonal", diagonal))
    assert seen == {"rejected", ("diagonal", True), ("diagonal", False)}
    for s in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^covariance must be symmetric$"), \
                np.errstate(invalid="ignore"):
            NoiseModel.white(s, 3)


def test_noise_frequency_covariance_white_is_diagonal():
    sg = build_laplacian(random_connected_graph(generator(47, "noise"), 7))
    nfc = NoiseModel.white(0.05, 7).frequency_covariance(sg)
    assert np.max(np.abs(nfc - 0.05 * np.eye(7))) < 1e-12


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
    reactive = AcGridModel(np.zeros_like(grid.conductance), grid.susceptance, grid.voltage)
    assert np.max(np.abs(ac_power(reactive, np.zeros(6)))) == 0.0


def test_ac_jacobian_at_zero_is_laplacian():
    # with no conductance and unit voltages, d g / d x at 0 equals L
    rng = generator(50, "ac")
    grid = random_grid(rng, 8)
    reactive = AcGridModel(np.zeros_like(grid.conductance), grid.susceptance, grid.voltage)
    lap = reactive.laplacian()
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
    reactive = AcGridModel(np.zeros_like(grid.conductance), grid.susceptance, grid.voltage)
    lap = reactive.laplacian()
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
    return AcGridModel(grid.conductance, grid.susceptance, v)


@pytest.mark.parametrize("make", [bundled_with_voltages, tiled_grid])
def test_ac_power_matches_branch_loop(make):
    grid = make()
    assert np.any(grid.conductance) and np.any(grid.voltage != 1.0)
    x = 2.0 * generator(55, "ac-loop").standard_normal((6, grid.n_buses))
    for phases in (x, x[3]):
        got = ac_power(grid, phases)
        want, scale = loop_ac_power(grid, phases)
        assert got.shape == phases.shape
        assert np.all(np.abs(np.atleast_2d(got) - want) <= 1e-13 * scale)


@pytest.mark.parametrize("make", [bundled_with_voltages, tiled_grid])
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


def test_ac_power_rejects_misshapen_phases():
    grid = bundled_ieee118()
    for shape in ((2, 118, 118), (2, 3, 118), (2, 118, 5), (1, 1, 118), (117,), (3, 119), ()):
        with pytest.raises(ValueError, match="^phases must be 1-D or 2-D with 118 entries per row$"):
            ac_power(grid, np.zeros(shape))
    assert ac_power(grid, np.zeros((0, 118))).shape == (0, 118)


def half_angle_cos_sin(x):
    out, den = np.empty((2 * len(x), x.shape[1])), np.empty(x.shape)
    _cos_sin(x, out, den)
    return out[:len(x)], out[len(x):]


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
    assert np.array_equal(c, [[1.0, 1.0]]) and np.array_equal(np.signbit(s), [[False, True]])


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


def dense_grid_error(g, b):
    """The message of the dense checks the one-scan validation replaced."""
    for name, m in (("conductance", g), ("susceptance", b)):
        if not _symmetric(m, 0.0):
            return f"{name} matrix must be symmetric"
        if np.any(np.diag(m) != 0):
            return f"{name} matrix must have zero diagonal"
    return None


def test_grid_checks_agree_with_dense_checks():
    rng = generator(58, "grid-checks")
    specials = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, 2.5)
    outcomes = set()
    for trial in range(600):
        grid = random_grid(rng, 5)
        g, b = grid.conductance.copy(), grid.susceptance.copy()
        for _ in range(trial % 4):
            m = (g, b)[rng.integers(2)]
            i, j = rng.integers(5, size=2)
            m[i, j] = specials[rng.integers(len(specials))]
            if rng.integers(2):
                m[j, i] = m[i, j]
        want = dense_grid_error(g, b)
        outcomes.add(want)
        if want is None:
            AcGridModel(g, b)
        else:
            with pytest.raises(InvalidGraphError, match=f"^{want}$"):
                AcGridModel(g, b)
    assert len(outcomes) == 5


def test_grid_validation():
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InvalidGraphError):
        AcGridModel(np.zeros((2, 2)), b, np.array([1.0, 0.0]))  # zero voltage
    bad = b.copy()
    bad[0, 0] = 1.0
    with pytest.raises(InvalidGraphError):
        AcGridModel(np.zeros((2, 2)), bad, np.ones(2))  # diagonal entry
    with pytest.raises(InvalidGraphError):
        AcGridModel(np.zeros((3, 3)), b, np.ones(2))  # shape mismatch


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
    assert np.allclose(back.conductance, grid.conductance, atol=1e-15)
    assert np.allclose(back.susceptance, grid.susceptance, atol=1e-15)


def test_load_grid_rejects_bad_input(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(InvalidGraphError):
        load_grid(p)
    p.write_text("from,to,conductance,susceptance\n1,2,0.1,1.0\n1,2,0.1,2.0\n")
    with pytest.raises(InvalidGraphError):
        load_grid(p)
    # two disconnected pairs
    p.write_text(
        "from,to,conductance,susceptance\n1,2,0.1,1.0\n3,4,0.1,2.0\n"
    )
    with pytest.raises(DisconnectedGraphError):
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


def test_measurement_model_dimension_check():
    rng = generator(56, "model")
    sg = build_laplacian(random_connected_graph(rng, 6))
    sg2 = build_laplacian(random_connected_graph(rng, 7))
    from gspest.models import MeasurementModel

    with pytest.raises(ValueError):
        MeasurementModel(SmoothPrior(sg2, 1.0), NoiseModel.white(0.1, sg.n_vertices), lambda x: x)


# --------------------------------------------------------- grid perturbation


def test_perturb_grid_add_edges_reactive():
    rng = generator(57, "perturb")
    grid = random_grid(rng, 12)
    new, vmap = perturb_grid(grid, 3, "add-edges", seed=4)
    assert vmap == {i: i for i in range(12)}
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
    new, vmap = perturb_grid(grid, 2, "add-vertices", seed=3)
    assert new.n_buses == 12
    assert vmap == {i: i for i in range(10)}
    assert np.array_equal(new.voltage[:10], grid.voltage)
    assert np.all(new.voltage[10:] == 1.0)
    sg = build_laplacian(new.graph())
    assert sg.is_connected()


def test_perturb_grid_remove_vertices():
    rng = generator(60, "perturb")
    grid = random_grid(rng, 12, extra=1.0)
    new, vmap = perturb_grid(grid, 2, "remove-vertices", seed=6)
    assert new.n_buses == 10
    assert len(vmap) == 10
    inv = {n: o for o, n in vmap.items()}
    for i, j, g, b in new.branch_values():
        oi, oj = inv[i], inv[j]
        assert grid.susceptance[oi, oj] == b
        assert grid.conductance[oi, oj] == g
    assert np.array_equal(new.voltage, grid.voltage[sorted(vmap)])


def test_perturb_grid_remove_edges():
    rng = generator(61, "perturb")
    grid = random_grid(rng, 12, extra=1.0)
    new, vmap = perturb_grid(grid, 2, "remove-edges", seed=2)
    assert len(new.branch_values()) == len(grid.branch_values()) - 2
    assert build_laplacian(new.graph()).is_connected()


def test_perturb_grid_bad_mode():
    rng = generator(62, "perturb")
    with pytest.raises(ValueError):
        perturb_grid(random_grid(rng, 6), 1, "shuffle", seed=0)


# ------------------------------------------------------------ structure audit


def test_audit_linear_filter_model_all_hold():
    rng = generator(63, "audit")
    sg = build_laplacian(random_connected_graph(rng, 8))
    model = linear_filter_model(sg, FilterSpec.linear([1.0, 0.4, 0.05]), sigma2=0.02)
    flags = audit_model_structure(model, count=20_000, seed=1)
    assert all(flags.values()), flags


def test_audit_ac_model_pattern():
    # the AC grid keeps the spectral prior and white noise structure but the
    # forward map is neither separable per frequency nor a linear filter
    rng = generator(64, "audit")
    model = ac_measurement_model(random_grid(rng, 10))
    flags = audit_model_structure(model, count=50_000, seed=2)
    assert flags["independent_input_spectrum"]
    assert flags["diagonal_noise_spectrum"]
    assert flags["diagonal_input_spectrum"]
    assert not flags["separable_frequency_map"]
    assert not flags["linear_graph_filter"]


def test_audit_coupled_input_detected():
    # correlate two frequency coefficients through a shared factor
    rng = generator(65, "audit")
    sg = build_laplacian(random_connected_graph(rng, 6))
    var = np.concatenate([[0.0], np.full(5, 1.0)])
    prior = SmoothPrior.from_variances(sg, var)
    model = linear_filter_model(sg, FilterSpec.linear([1.0]), prior=prior, sigma2=0.01)

    def coupled_sample(count, seed):
        rng2 = generator(seed, "prior")
        z = rng2.standard_normal((count, 6))
        z[:, 2] = z[:, 1]  # perfectly correlated pair
        return (z * np.sqrt(var)) @ sg.eigenvectors.T

    object.__setattr__(model, "sample_x", coupled_sample)
    flags = audit_model_structure(model, count=20_000, seed=3)
    assert not flags["diagonal_input_spectrum"]
