import numpy as np
import pytest

from gspest.errors import SingularMomentsError
from gspest.filters import FilterSpec, filter_matrix
from gspest.graphs import build_laplacian, gft
from gspest.models import (
    NoiseModel,
    SmoothPrior,
    ac_measurement_model,
    linear_filter_model,
)
from gspest.moments import (
    SampleMoments,
    TrainingSet,
    compute_moments,
    generate,
    read_training_csv,
    require_positive_freq_var,
    stream_moments,
)
from gspest.rng import generator
from tests.test_graphs import random_connected_graph
from tests.test_models import random_grid

MOMENT_ARRAYS = (
    "x_mean", "y_mean", "cross_cov", "y_cov", "freq_cross_diag", "freq_var_diag",
    "noise_cov",
)


def small_model(seed, n=8, sigma2=0.05):
    rng = generator(seed, "moments-model")
    sg = build_laplacian(random_connected_graph(rng, n))
    spec = FilterSpec.linear([1.0, 0.3, -0.02])
    return linear_filter_model(sg, spec, beta=2.0, sigma2=sigma2), sg


def naive_moments(ts, noise_cov):
    """Two-pass reference implementation, everything at once."""
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
    noise = model.noise.covariance
    for p in (3, 100, 1000):
        ts = generate(model, sg, p, seed=p)
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
    noise = model.noise.covariance
    old = mod._CHUNK
    try:
        mod._CHUNK = 64
        for p in (63, 64, 65, 200):
            ts = generate(model, sg, p, seed=p)
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
    ts = generate(model, sg, 500, seed=9)
    m = compute_moments(ts, model.noise.covariance)
    v = sg.eigenvectors
    assert np.max(np.abs(m.freq_cross_diag - np.diag(v.T @ m.cross_cov @ v))) < 1e-12
    assert np.max(np.abs(m.freq_var_diag - np.diag(v.T @ m.y_cov @ v))) < 1e-12


def test_from_covariances_reproduces_accumulated_diagonals():
    # the moment pass and from_covariances share one diag(V^T C V) formula
    model, sg = small_model(3)
    for m in (
        compute_moments(generate(model, sg, 500, seed=9), model.noise.covariance),
        stream_moments(model, 5000, seed=10),
    ):
        back = SampleMoments.from_covariances(
            sg, m.x_mean, m.y_mean, m.cross_cov, m.y_cov, m.noise_cov, m.count
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
    ycov_true = f @ cx @ f.T + model.noise.covariance
    ts = generate(model, sg, 200_000, seed=5)
    m = compute_moments(ts, model.noise.covariance)
    scale = np.abs(cross_true).max()
    assert np.max(np.abs(m.cross_cov - cross_true)) < 0.02 * scale
    assert np.max(np.abs(m.y_cov - ycov_true)) < 0.02 * np.abs(ycov_true).max()
    assert np.max(np.abs(m.y_mean)) < 0.02


def test_prior_variance_recovery():
    model, sg = small_model(5)
    ts = generate(model, sg, 100_000, seed=6)
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
    zero_noise = np.zeros((8, 8))
    for seed in range(1000):
        ts = generate(full, sg, 2, seed=seed)
        m = compute_moments(ts, zero_noise)
        assert np.all(m.freq_var_diag > 0)
    ts = generate(model, sg, 2, seed=0)
    m = compute_moments(ts, model.noise.covariance)
    assert np.all(m.freq_var_diag > 0)
    require_positive_freq_var(m)


def test_identical_inputs_leave_only_noise():
    model, sg = small_model(10)
    rng = generator(10, "flat-inputs")
    x = np.tile(rng.standard_normal(8), (12, 1))
    g = np.asarray(model.forward(x))
    noise = model.noise.covariance
    m = compute_moments(TrainingSet(sg, x, g, model.mean_x), noise)
    assert np.array_equal(m.cross_cov, np.zeros((8, 8)))
    assert np.array_equal(m.y_cov, noise)
    v = sg.eigenvectors
    assert np.max(np.abs(m.freq_var_diag - np.diag(v.T @ noise @ v))) < 1e-15
    assert np.array_equal(m.y_mean, g[0])


def test_require_positive_freq_var_raises():
    model, sg = small_model(7)
    ts = generate(model, sg, 50, seed=1)
    # constant measurements with no noise -> exactly zero variance diagonal
    flat = TrainingSet(sg, ts.x, np.ones_like(ts.g), ts.x_mean)
    m = compute_moments(flat, np.zeros((8, 8)))
    with pytest.raises(SingularMomentsError):
        require_positive_freq_var(m)


def test_generate_validates():
    model, sg = small_model(8)
    other = build_laplacian(random_connected_graph(generator(99, "other"), 8))
    with pytest.raises(ValueError):
        generate(model, other, 10, seed=0)
    with pytest.raises(ValueError):
        generate(model, sg, 1, seed=0)


def test_training_set_validation():
    model, sg = small_model(9)
    with pytest.raises(ValueError):
        TrainingSet(sg, np.zeros((4, 8)), np.zeros((4, 7)), np.zeros(8))
    with pytest.raises(ValueError):
        TrainingSet(sg, np.zeros((1, 8)), np.zeros((1, 8)), np.zeros(8))


def test_bit_exact_regeneration():
    model, sg = small_model(10)
    a = generate(model, sg, 64, seed=123)
    b = generate(model, sg, 64, seed=123)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.g, b.g)
    c = generate(model, sg, 64, seed=124)
    assert not np.array_equal(a.x, c.x)


def test_csv_round_trip(tmp_path):
    model, sg = small_model(11)
    ts = generate(model, sg, 40, seed=3)
    xp = tmp_path / "t-x.csv"
    gp = tmp_path / "t-g.csv"
    ts.write_csv(xp, gp)
    back = read_training_csv(sg, xp, gp, ts.x_mean)
    assert np.array_equal(back.x, ts.x), "%.17g text round trip is exact"
    assert np.array_equal(back.g, ts.g)
    m1 = compute_moments(ts, model.noise.covariance)
    m2 = compute_moments(back, model.noise.covariance)
    assert np.array_equal(m1.cross_cov, m2.cross_cov)


def test_read_training_csv_default_mean(tmp_path):
    model, sg = small_model(12)
    ts = generate(model, sg, 10, seed=4)
    xp = tmp_path / "d-x.csv"
    gp = tmp_path / "d-g.csv"
    ts.write_csv(xp, gp)
    back = read_training_csv(sg, xp, gp)
    assert np.array_equal(back.x_mean, np.zeros(8))


def test_sample_moments_json_round_trip():
    model, sg = small_model(13)
    ts = generate(model, sg, 200, seed=8)
    m = compute_moments(ts, model.noise.covariance)
    back = SampleMoments.from_json(m.to_json(), sg)
    assert back.count == m.count
    for name in (
        "x_mean",
        "y_mean",
        "cross_cov",
        "y_cov",
        "freq_cross_diag",
        "freq_var_diag",
        "noise_cov",
    ):
        assert np.array_equal(getattr(back, name), getattr(m, name)), name


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
    assert np.array_equal(m.noise_cov, np.zeros((6, 6)))


def test_noise_model_accepted_directly():
    model, sg = small_model(15)
    ts = generate(model, sg, 100, seed=2)
    a = compute_moments(ts, model.noise)
    b = compute_moments(ts, model.noise.covariance)
    assert np.array_equal(a.y_cov, b.y_cov)


def test_compute_moments_rejects_bad_noise_shape():
    model, sg = small_model(16)
    ts = generate(model, sg, 10, seed=1)
    with pytest.raises(ValueError):
        compute_moments(ts, np.zeros((4, 4)))


def test_colored_noise_enters_frequency_diagonal():
    model, sg = small_model(17)
    ts = generate(model, sg, 100, seed=7)
    rng = generator(17, "noise")
    a = rng.standard_normal((8, 8))
    cov = a @ a.T + 0.5 * np.eye(8)
    m0 = compute_moments(ts, np.zeros((8, 8)))
    m1 = compute_moments(ts, cov)
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
    ts = generate(model, sg, 500, seed=11)
    shifted = TrainingSet(sg, ts.x, ts.g + 1e8, ts.x_mean)
    noise = model.noise.covariance
    m0 = compute_moments(ts, noise)
    m1 = compute_moments(shifted, noise)
    scale = np.abs(m0.cross_cov).max()
    assert np.max(np.abs(m1.cross_cov - m0.cross_cov)) < 1e-7 * scale
    assert np.max(np.abs(m1.y_mean - (m0.y_mean + 1e8))) < 1.0


# ------------------------------------------------------------------ streaming


def materialised_moments(model, count, seed):
    return compute_moments(
        generate(model, model.sg, count, seed), model.noise.covariance
    )


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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


def test_experiment_a_streamed_matches_materialised(small_blocks, tmp_path, monkeypatch):
    # p_infinity = 200 spans nine chunks of at most 24 rows, or one whole chunk
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
