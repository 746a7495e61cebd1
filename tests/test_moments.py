from dataclasses import replace

import numpy as np
import pytest

from gspest.errors import SingularMomentsError
from gspest.filters import FilterSpec, filter_matrix
from gspest.graphs import build_laplacian, gft
from gspest.models import (
    AcGridModel,
    SmoothPrior,
    ac_measurement_model,
    linear_filter_model,
)
from gspest.moments import (
    SampleMoments,
    TrainingSet,
    compute_moments,
    generate,
    population_moments,
    read_training_csv,
    require_positive_freq_var,
    stream_moments,
)
from gspest.rng import generator
from tests.test_graphs import random_connected_graph
from tests.test_models import dense_admittance, random_grid

MOMENT_ARRAYS = (
    "x_mean", "y_mean", "cross_cov", "y_cov", "freq_cross_diag", "freq_var_diag",
)


def small_model(seed, n=8, sigma2=0.05):
    rng = generator(seed, "moments-model")
    sg = build_laplacian(random_connected_graph(rng, n))
    spec = FilterSpec.linear([1.0, 0.3, -0.02])
    return linear_filter_model(sg, spec, beta=2.0, sigma2=sigma2), sg


def naive_moments(ts, sigma2):
    """Two-pass reference implementation, everything at once, with the white
    noise as the dense covariance ``sigma2 I``."""
    noise_cov = sigma2 * np.eye(ts.sg.n_vertices)
    x = ts.x
    g = ts.g
    xc = x - x.mean(axis=0)
    gc = g - g.mean(axis=0)
    p = ts.count
    cross = xc.T @ gc / p
    ycov = gc.T @ gc / p + noise_cov
    v = ts.sg.eigenvectors
    xt = xc @ v
    gt = gc @ v
    fnoise = np.diag(v.T @ noise_cov @ v)
    fcross = np.sum(xt * gt, axis=0) / p
    fvar = np.sum(gt * gt, axis=0) / p + fnoise
    return g.mean(axis=0), cross, ycov, fcross, fvar


def test_one_pass_matches_two_pass():
    model, sg = small_model(1)
    noise = model.sigma2
    for p in (3, 100, 1000):
        ts = generate(model, p, seed=p)
        m = compute_moments(ts, noise)
        y_mean, cross, ycov, fcross, fvar = naive_moments(ts, noise)
        assert np.max(np.abs(m.y_mean - y_mean)) < 1e-10
        assert np.max(np.abs(m.cross_cov - cross)) < 1e-10
        assert np.max(np.abs(m.y_cov - ycov)) < 1e-10
        assert np.max(np.abs(m.freq_cross_diag - fcross)) < 1e-10
        assert np.max(np.abs(m.freq_var_diag - fvar)) < 1e-10


def test_block_boundary_crossing():
    # counts straddling the accumulation chunk size must agree with naive
    import gspest.moments as mod

    model, sg = small_model(2, n=4)
    noise = model.sigma2
    old = mod._CHUNK
    try:
        mod._CHUNK = 64
        for p in (63, 64, 65, 200):
            ts = generate(model, p, seed=p)
            m = compute_moments(ts, noise)
            _, cross, ycov, fcross, fvar = naive_moments(ts, noise)
            assert np.max(np.abs(m.cross_cov - cross)) < 1e-10
            assert np.max(np.abs(m.y_cov - ycov)) < 1e-10
            assert np.max(np.abs(m.freq_cross_diag - fcross)) < 1e-12
            assert np.max(np.abs(m.freq_var_diag - fvar)) < 1e-12
    finally:
        mod._CHUNK = old


def test_frequency_diagonals_equal_projected_covariances():
    # the Hadamard accumulation and diag(V^T C V) are two routes to the
    # same quantity
    model, sg = small_model(3)
    ts = generate(model, 500, seed=9)
    m = compute_moments(ts, model.sigma2)
    v = sg.eigenvectors
    assert np.max(np.abs(m.freq_cross_diag - np.diag(v.T @ m.cross_cov @ v))) < 1e-12
    assert np.max(np.abs(m.freq_var_diag - np.diag(v.T @ m.y_cov @ v))) < 1e-12


def test_from_covariances_reproduces_accumulated_diagonals():
    # the moment pass and from_covariances share one diag(V^T C V) formula
    model, sg = small_model(3)
    for m in (
        compute_moments(generate(model, 500, seed=9), model.sigma2),
        stream_moments(model, 5000, seed=10),
    ):
        back = SampleMoments.from_covariances(
            sg, m.x_mean, m.y_mean, m.cross_cov, m.y_cov, m.count
        )
        for name in MOMENT_ARRAYS:
            assert np.array_equal(getattr(back, name), getattr(m, name)), name
        assert back.count == m.count


def test_moments_converge_to_analytic():
    # linear filter + white noise: C_xy = C_x F^T, C_y = F C_x F^T + s I
    model, sg = small_model(4, sigma2=0.04)
    spec = FilterSpec.linear([1.0, 0.3, -0.02])
    f = filter_matrix(spec, sg)
    cx = model.prior.covariance()
    cross_true = cx @ f.T
    ycov_true = f @ cx @ f.T + model.sigma2 * np.eye(8)
    ts = generate(model, 200_000, seed=5)
    m = compute_moments(ts, model.sigma2)
    scale = np.abs(cross_true).max()
    assert np.max(np.abs(m.cross_cov - cross_true)) < 0.02 * scale
    assert np.max(np.abs(m.y_cov - ycov_true)) < 0.02 * np.abs(ycov_true).max()
    assert np.max(np.abs(m.y_mean)) < 0.02


def test_prior_variance_recovery():
    model, sg = small_model(5)
    ts = generate(model, 100_000, seed=6)
    xt = gft(sg, ts.x)
    emp = xt.var(axis=0)
    want = model.prior.frequency_variances
    pos = want > 0
    assert np.max(np.abs(emp[pos] - want[pos]) / want[pos]) < 0.05
    assert np.max(np.abs(emp[~pos])) < 1e-20


def test_freq_var_positive_at_tiny_count():
    # two distinct samples of a full-support input leave every frequency
    # with nonzero spread almost surely, before any noise term is added;
    # the default prior's pinned zero frequency needs the noise term
    model, sg = small_model(6)
    full = linear_filter_model(
        sg,
        FilterSpec.linear([1.0, 0.3, -0.02]),
        prior=SmoothPrior.from_variances(sg, np.full(8, 1.0)),
        sigma2=0.05,
    )
    for seed in range(1000):
        ts = generate(full, 2, seed=seed)
        m = compute_moments(ts, 0.0)
        assert np.all(m.freq_var_diag > 0)
    ts = generate(model, 2, seed=0)
    m = compute_moments(ts, model.sigma2)
    assert np.all(m.freq_var_diag > 0)
    require_positive_freq_var(m)


def test_identical_inputs_leave_only_noise():
    model, sg = small_model(10)
    rng = generator(10, "flat-inputs")
    x = np.tile(rng.standard_normal(8), (12, 1))
    g = np.asarray(model.forward(x))
    noise = model.sigma2 * np.eye(8)
    m = compute_moments(TrainingSet(sg, x, g, model.mean_x), model.sigma2)
    assert np.array_equal(m.cross_cov, np.zeros((8, 8)))
    assert np.array_equal(m.y_cov, noise)
    v = sg.eigenvectors
    assert np.max(np.abs(m.freq_var_diag - np.diag(v.T @ noise @ v))) < 1e-15
    assert np.array_equal(m.y_mean, g[0])


def test_require_positive_freq_var_raises():
    model, sg = small_model(7)
    ts = generate(model, 50, seed=1)
    # constant measurements with no noise -> exactly zero variance diagonal
    flat = TrainingSet(sg, ts.x, np.ones_like(ts.g), ts.x_mean)
    m = compute_moments(flat, 0.0)
    with pytest.raises(SingularMomentsError):
        require_positive_freq_var(m)


def test_require_positive_freq_var_rejects_nan():
    model, sg = small_model(7)
    m = compute_moments(generate(model, 50, seed=1), model.sigma2)
    y_cov = m.y_cov.copy()
    y_cov[3, 3] = np.nan
    bad = SampleMoments.from_covariances(sg, m.x_mean, m.y_mean, m.cross_cov, y_cov)
    with pytest.raises(SingularMomentsError):
        require_positive_freq_var(bad)


def test_generate_validates():
    model, sg = small_model(8)
    with pytest.raises(ValueError):
        generate(model, 1, seed=0)


def test_training_set_validation():
    model, sg = small_model(9)
    with pytest.raises(ValueError):
        TrainingSet(sg, np.zeros((4, 8)), np.zeros((4, 7)), np.zeros(8))
    with pytest.raises(ValueError):
        TrainingSet(sg, np.zeros((1, 8)), np.zeros((1, 8)), np.zeros(8))


def test_bit_exact_regeneration():
    model, sg = small_model(10)
    a = generate(model, 64, seed=123)
    b = generate(model, 64, seed=123)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.g, b.g)
    c = generate(model, 64, seed=124)
    assert not np.array_equal(a.x, c.x)


def test_csv_round_trip(tmp_path):
    model, sg = small_model(11)
    ts = generate(model, 40, seed=3)
    xp = tmp_path / "t-x.csv"
    gp = tmp_path / "t-g.csv"
    ts.write_csv(xp, gp)
    back = read_training_csv(sg, xp, gp, ts.x_mean)
    assert np.array_equal(back.x, ts.x), "%.17g text round trip is exact"
    assert np.array_equal(back.g, ts.g)
    m1 = compute_moments(ts, model.sigma2)
    m2 = compute_moments(back, model.sigma2)
    assert np.array_equal(m1.cross_cov, m2.cross_cov)


def test_read_training_csv_default_mean(tmp_path):
    model, sg = small_model(12)
    ts = generate(model, 10, seed=4)
    xp = tmp_path / "d-x.csv"
    gp = tmp_path / "d-g.csv"
    ts.write_csv(xp, gp)
    back = read_training_csv(sg, xp, gp)
    assert np.array_equal(back.x_mean, np.zeros(8))


def test_from_covariances_diagonals():
    rng = generator(14, "cov")
    sg = build_laplacian(random_connected_graph(rng, 6))
    a = rng.standard_normal((6, 6))
    cx = a @ a.T + np.eye(6)
    cross = cx * 0.7
    ycov = cx + 0.1 * np.eye(6)
    m = SampleMoments.from_covariances(sg, np.zeros(6), np.zeros(6), cross, ycov)
    v = sg.eigenvectors
    assert np.allclose(m.freq_cross_diag, np.diag(v.T @ cross @ v), atol=1e-14)
    assert np.allclose(m.freq_var_diag, np.diag(v.T @ ycov @ v), atol=1e-14)
    assert m.count == 0


def test_compute_moments_rejects_bad_noise_shape():
    # the noise is one variance; a covariance matrix of any size is refused
    model, sg = small_model(16)
    ts = generate(model, 10, seed=1)
    for cov in (np.zeros((4, 4)), 0.05 * np.eye(8)):
        with pytest.raises(ValueError):
            compute_moments(ts, cov)


def test_colored_noise_enters_frequency_diagonal():
    # a caller with coloured noise folds its covariance into y_cov and
    # builds the moments with from_covariances
    model, sg = small_model(17)
    ts = generate(model, 100, seed=7)
    rng = generator(17, "noise")
    a = rng.standard_normal((8, 8))
    cov = a @ a.T + 0.5 * np.eye(8)
    m0 = compute_moments(ts, 0.0)
    m1 = SampleMoments.from_covariances(
        sg, m0.x_mean, m0.y_mean, m0.cross_cov, m0.y_cov + cov, m0.count
    )
    v = sg.eigenvectors
    add = np.diag(v.T @ cov @ v)
    assert np.allclose(m1.freq_var_diag - m0.freq_var_diag, add, atol=1e-12)
    assert np.allclose(m1.y_cov - m0.y_cov, cov, atol=1e-12)
    # cross moments never see the noise
    assert np.array_equal(m1.cross_cov, m0.cross_cov)
    assert np.array_equal(m1.freq_cross_diag, m0.freq_cross_diag)


def test_large_offset_cancellation():
    # shifting g by a huge constant must not destroy the covariances
    model, sg = small_model(18)
    ts = generate(model, 500, seed=11)
    shifted = TrainingSet(sg, ts.x, ts.g + 1e8, ts.x_mean)
    noise = model.sigma2
    m0 = compute_moments(ts, noise)
    m1 = compute_moments(shifted, noise)
    scale = np.abs(m0.cross_cov).max()
    assert np.max(np.abs(m1.cross_cov - m0.cross_cov)) < 1e-7 * scale
    assert np.max(np.abs(m1.y_mean - (m0.y_mean + 1e8))) < 1.0


# ------------------------------------------------------------------ streaming


def materialised_moments(model, count, seed):
    return compute_moments(generate(model, count, seed), model.sigma2)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def out_of_place_moments(ts, sigma2):
    """The chunked pass of ``compute_moments`` finished out of place: each
    covariance as ``ss / p - outer(...)``, then ``sigma2`` on the diagonal,
    and each frequency diagonal as ``sum(V * (C V))``."""
    from gspest.moments import _chunk_bounds

    n, v = ts.sg.n_vertices, ts.sg.eigenvectors
    sums, ss_xg, ss_gg = np.zeros((2, n)), np.zeros((n, n)), np.zeros((n, n))
    for start, stop in _chunk_bounds(ts.count):
        dx, dg = ts.x[start:stop] - ts.x[0], ts.g[start:stop] - ts.g[0]
        sums += dx.sum(axis=0), dg.sum(axis=0)
        ss_xg += dx.T @ dg
        ss_gg += dg.T @ dg
    mean_dx, mean_dg = sums / ts.count
    cross = ss_xg / ts.count - np.outer(mean_dx, mean_dg)
    y_cov = ss_gg / ts.count - np.outer(mean_dg, mean_dg)
    y_cov.flat[::n + 1] += sigma2
    freq = [np.sum(v * (c @ v), axis=0) for c in (cross, y_cov)]
    return ts.g[0] + mean_dg, cross, y_cov, *freq


@pytest.fixture(params=[24, 8192], ids=["chunked-blocks", "whole-blocks"])
def small_blocks(request, monkeypatch):
    # draws and accumulation steps of at most 24 rows, or one of the whole set
    import gspest.moments as mod

    monkeypatch.setattr(mod, "_CHUNK", request.param)


@pytest.mark.parametrize("kind", ["ac-power", "linear-filter"])
def test_stream_moments_bitwise_equal_materialised(small_blocks, kind):
    if kind == "ac-power":
        model = ac_measurement_model(random_grid(generator(20, "stream"), 9))
    else:
        model, _ = small_model(20)
    # 73 = 3 * 24 + 1 would leave a one-row draw if chunks were cut naively
    for count in (2, 63, 64, 65, 73, 200, 1000):
        want = materialised_moments(model, count, seed=count)
        got = stream_moments(model, count, seed=count)
        assert got.count == want.count == count
        for name in MOMENT_ARRAYS:
            assert same_bits(getattr(got, name), getattr(want, name)), (count, name)
        # the covariances finished in their accumulators keep the bits of
        # the out-of-place formulas
        ref = out_of_place_moments(generate(model, count, seed=count), model.sigma2)
        for name, r in zip(MOMENT_ARRAYS[1:], ref):
            assert same_bits(getattr(got, name), r), (count, name)


@pytest.mark.parametrize("kind", ["ac-power", "linear-filter"])
def test_noise_on_the_diagonal_matches_the_dense_covariance(kind):
    # adding sigma2 to the diagonal of y_cov gives the bits of adding the
    # dense sigma2 I, and so the same frequency diagonal
    from dataclasses import replace

    from gspest.moments import _freq_diag

    if kind == "ac-power":
        model = ac_measurement_model(random_grid(generator(23, "dense"), 9), sigma2=0.07)
    else:
        model, _ = small_model(23, sigma2=0.07)
    n, v = model.sg.n_vertices, model.sg.eigenvectors
    quiet = replace(model, sigma2=0.0)
    for count in (2, 59, 500, 3000):
        ts = generate(model, count, seed=count)
        for got, bare in (
            (compute_moments(ts, model.sigma2), compute_moments(ts, 0.0)),
            (stream_moments(model, count, count), stream_moments(quiet, count, count)),
        ):
            y_cov = bare.y_cov + model.sigma2 * np.eye(n)
            assert same_bits(got.y_cov, y_cov), count
            assert same_bits(got.freq_var_diag, _freq_diag(v, y_cov)), count
            for name in ("x_mean", "y_mean", "cross_cov", "freq_cross_diag"):
                assert same_bits(getattr(got, name), getattr(bare, name)), (count, name)


def test_stream_moments_validates_count():
    model, _ = small_model(21)
    with pytest.raises(ValueError):
        stream_moments(model, 1, seed=0)


def test_stream_moments_memory_is_per_block():
    # the materialised x and g pair alone would take 2 * count * N * 8 bytes;
    # one chunk holds the normals, the draw, its forward values and a few
    # product temporaries of _CHUNK * N doubles each
    import tracemalloc

    import gspest.moments as mod

    model, sg = small_model(22)
    count = 64 * mod._CHUNK
    tracemalloc.start()
    try:
        m = stream_moments(model, count, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.count == count
    assert peak < 2 * count * sg.n_vertices * 8 / 4
    assert peak < 8 * mod._CHUNK * sg.n_vertices * 8


def test_accumulate_holds_one_chunk_at_a_time(monkeypatch):
    # every earlier chunk, its draw and its forward values, is released
    # before the next draw, by the pass and by the chunk generator
    import weakref

    import gspest.moments as mod

    monkeypatch.setattr(mod, "_CHUNK", 24)
    model = ac_measurement_model(random_grid(generator(23, "stream"), 9))
    refs, alive = [], []
    draw, forward = mod._draw_prior, model.forward

    def traced_draw(*args):
        alive.append(sum(ref() is not None for ref in refs))
        x = draw(*args)
        refs.append(weakref.ref(x))
        return x

    def traced_forward(x):
        g = forward(x)
        refs.append(weakref.ref(g))
        return g

    monkeypatch.setattr(mod, "_draw_prior", traced_draw)
    m = stream_moments(replace(model, forward=traced_forward), 100, seed=3)
    assert m.count == 100 and len(refs) == 10
    assert alive == [0] * 5


def test_experiment_a_streamed_matches_materialised(small_blocks, tmp_path, monkeypatch):
    # p_values 24 and 60 span one and three chunks of at most 24 rows
    from gspest import harness
    from tests.test_harness import small_config

    config = small_config(tmp_path)
    streamed, materialised = tmp_path / "streamed.csv", tmp_path / "materialised.csv"
    harness.experiment_a(config).write_csv(streamed)
    monkeypatch.setattr(harness, "stream_moments", materialised_moments)
    harness.experiment_a(config).write_csv(materialised)

    def without_wall_ms(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    assert without_wall_ms(streamed) == without_wall_ms(materialised)


# -------------------------------------------------------- population moments


def test_population_moments_of_a_two_bus_grid():
    # one branch: d = x_0 - x_1 has variance beta / b under the smooth prior
    g, b, beta, sigma2 = 1.5, 12.0, 3.0, 0.05
    u = np.array([1.02, 0.97])
    grid = AcGridModel(2, [0], [1], [g], [b], u)
    prior = SmoothPrior(build_laplacian(grid.graph()), beta)
    m = population_moments(grid, prior, sigma2)
    var_d = beta / b
    gu, bu = g * u.prod(), b * u.prod()
    assert m.y_mean == pytest.approx(np.full(2, gu * np.exp(-var_d / 2)), abs=1e-12)
    y00 = (gu**2 * (0.5 * (1 + np.exp(-2 * var_d)) - np.exp(-var_d))
           + bu**2 * 0.5 * (1 - np.exp(-2 * var_d)) + sigma2)
    assert m.y_cov[0, 0] == pytest.approx(y00, abs=1e-12)
    # Stein's lemma: E[x_0 b sin d] = Cov(x_0, d) b E cos d, Cov(x_0, d) = var_d / 2
    assert m.cross_cov[0, 0] == pytest.approx(var_d / 2 * bu * np.exp(-var_d / 2), abs=1e-12)
    assert np.array_equal(m.x_mean, np.zeros(2))


def directed_moments(grid, prior, sigma2):
    """Reference: the closed form summed over the directed terms ``(n, m)``
    of the dense admittance, each a bus's ``G cos d + B sin d`` with
    ``d = x_n - x_m``."""
    n = grid.n_buses
    uu = np.outer(grid.voltage, grid.voltage)
    gmat, bmat = dense_admittance(grid)
    i, j = np.nonzero(bmat)
    g, b = (gmat * uu)[i, j], (bmat * uu)[i, j]
    at_bus = np.zeros((n, len(i)))
    at_bus[i, np.arange(len(i))] = 1.0
    c = prior.covariance()
    c_xd = c[:, i] - c[:, j]
    c_dd = c_xd[i] - c_xd[j]
    v = np.diag(c_dd)
    e = np.exp(-v / 2)
    k_plus = np.exp(-(v[:, None] + v) / 2 + c_dd)
    k_minus = np.exp(-(v[:, None] + v) / 2 - c_dd)
    terms = (np.outer(g, g) * ((k_plus + k_minus) / 2 - np.outer(e, e))
             + np.outer(b, b) * (k_plus - k_minus) / 2)
    return (at_bus @ (g * e), c_xd @ (b * e * at_bus).T,
            at_bus @ terms @ at_bus.T + sigma2 * np.eye(n))


def test_population_moments_match_the_directed_terms():
    rng = generator(90, "exact-moments")
    base = random_grid(rng, 10, extra=1.0)
    grid = replace(base, voltage=rng.uniform(0.9, 1.1, 10))
    prior = SmoothPrior(build_laplacian(grid.graph()), 3.0)
    m = population_moments(grid, prior, 0.05)
    for got, want in zip((m.y_mean, m.cross_cov, m.y_cov), directed_moments(grid, prior, 0.05)):
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_stream_moments_converge_to_population_moments():
    # Monte Carlo error shrinks like 1 / sqrt(P): 16x the rows, 4x less error
    grid = random_grid(generator(91, "exact-moments"), 8)
    model = ac_measurement_model(grid)
    exact = population_moments(grid, model.prior, model.sigma2).y_cov

    def error(count, seed):
        m = stream_moments(model, count, seed)
        return np.linalg.norm(m.y_cov - exact) / np.linalg.norm(exact)

    ratios = [error(2000, seed) / error(32000, seed) for seed in range(3)]
    assert 2.8 < np.exp(np.mean(np.log(ratios))) < 5.7
