"""Acceptance gate: one ordered test per shipped guarantee.

The first eight are property checks with exact or near-exact oracles on
small graphs; the last five reproduce the headline behaviour of the
estimator family on the bundled 118-bus grid (beta = 3, sigma2 = 0.05,
2000 paired trials, seed 0). Tolerances here are part of the contract;
do not loosen them to make a failing build green.
"""

import time
from dataclasses import replace
from functools import lru_cache

import numpy as np

from gspest.errors import SingularMomentsError
from gspest.estimators import (
    LinearEstimator,
    fit_arma,
    fit_lpi,
    gsp_lmmse,
    gsp_response,
    remap_estimator,
    sample_lmmse,
    update_for_topology,
)
from gspest.filters import (
    FilterSpec,
    apply_filter,
    filter_matrix,
    lpi_basis,
    lpi_basis_from_eigenvalues,
    numerical_rank,
    response_at,
    vandermonde,
)
from gspest.graphs import build_laplacian, gft
from gspest.harness import ExperimentConfig, draw_test_set, measure_runtime, squared_errors
from gspest.models import (
    MeasurementModel,
    SmoothPrior,
    ac_measurement_model,
    ac_power,
    bundled_ieee118,
    linear_filter_model,
    perturb_grid,
    sample_prior,
)
from gspest.moments import SampleMoments, compute_moments, generate
from gspest.rng import derive, generator
from tests.test_graphs import random_connected_graph
from tests.test_models import random_grid

SEED = 0
TRIALS = 2000
BETA = 3.0
SIGMA2 = 0.05
MU = 1e-6  # fit regularization for the grid-scale comparisons
LPI_ORDER = 6
ARMA_ORDERS = (3, 3)


@lru_cache(maxsize=1)
def grid_model():
    grid = bundled_ieee118()
    return grid, ac_measurement_model(grid, BETA, SIGMA2)


@lru_cache(maxsize=None)
def grid_moments(p):
    _, model = grid_model()
    ts = generate(model, p, derive(SEED, "train", p))
    return compute_moments(ts, model.sigma2)


@lru_cache(maxsize=1)
def grid_test_set():
    _, model = grid_model()
    return draw_test_set(model, TRIALS, derive(SEED, "test", 0, 0))


def paired_t(err_worse, err_better):
    """t statistic of the paired improvement err_worse - err_better."""
    diff = np.asarray(err_worse) - np.asarray(err_better)
    return float(diff.mean() / (diff.std(ddof=1) / np.sqrt(diff.size)))


# --------------------------------------------------------------------------
# 1. spectral decomposition invariants on random graphs


def test_01_spectral_invariants_on_random_graphs():
    t0 = time.perf_counter()
    rng = generator(SEED, "accept-graphs")
    for _ in range(50):
        n = int(rng.integers(5, 31))
        sg = build_laplacian(random_connected_graph(rng, n))
        lam, v = sg.eigenvalues, sg.eigenvectors
        resid = np.linalg.norm(sg.laplacian - (v * lam) @ v.T) / np.linalg.norm(
            sg.laplacian
        )
        assert resid < 1e-10
        x = rng.standard_normal((1000, n))
        gap = np.abs(
            np.linalg.norm(gft(sg, x), axis=1) - np.linalg.norm(x, axis=1)
        )
        assert gap.max() < 1e-10
    assert time.perf_counter() - t0 < 5.0


# --------------------------------------------------------------------------
# 2. filter families: explicit operator vs frequency-domain application


def test_02_filter_operator_vs_frequency_route():
    t0 = time.perf_counter()
    rng = generator(SEED, "accept-filters")
    for _ in range(20):
        n = int(rng.integers(4, 13))
        sg = build_laplacian(random_connected_graph(rng, n))
        lap = sg.laplacian
        pinv = np.linalg.pinv(lap)
        taps = rng.uniform(-1.0, 1.0, 4)
        num = rng.uniform(-1.0, 1.0, 3)
        a_tail = rng.uniform(0.0, 0.5, 2) / np.array(
            [sg.eigenvalues[-1], sg.eigenvalues[-1] ** 2]
        )
        den = np.concatenate([[1.0], a_tail])
        kept = int(rng.integers(1, n + 1))

        num_mat = sum(num[q] * np.linalg.matrix_power(lap, q) for q in range(3))
        den_mat = np.eye(n) + sum(
            a_tail[r] * np.linalg.matrix_power(lap, r + 1) for r in range(2)
        )
        arma_mat = np.linalg.solve(den_mat, num_mat)
        proj = sg.eigenvectors[:, :kept] @ sg.eigenvectors[:, :kept].T
        cases = [
            (
                FilterSpec.lpi(taps),
                taps[0] * np.eye(n)
                + sum(taps[k] * np.linalg.matrix_power(pinv, k) for k in range(1, 4)),
            ),
            (FilterSpec.linear(num), num_mat),
            (FilterSpec.arma(num, den), arma_mat),
            (FilterSpec.lr_arma(num, den, kept), proj @ arma_mat @ proj),
        ]
        x = rng.standard_normal((5, n))
        for spec, mat in cases:
            got = apply_filter(spec, sg, x)
            assert np.max(np.abs(got - x @ mat.T)) < 1e-8, spec.kind
    assert time.perf_counter() - t0 < 5.0


# --------------------------------------------------------------------------
# 3. the quadratic fit objective and its weighted-least-squares form


def _fit_objectives(dvec, dvar):
    def j_mse(resp):
        return float(dvar @ resp**2 - 2.0 * dvec @ resp)

    def j_wls(resp):
        return float(dvar @ (resp - dvec / dvar) ** 2)

    return j_mse, j_wls


def test_03_objective_forms_share_gradients_and_argmin():
    t0 = time.perf_counter()
    rng = generator(SEED, "accept-objective")
    sg = build_laplacian(random_connected_graph(rng, 10))
    model = linear_filter_model(sg, FilterSpec.linear([1.0, 0.3]), sigma2=SIGMA2)
    ts = generate(model, 300, seed=3)
    m = compute_moments(ts, model.sigma2)
    dvec, dvar = m.freq_cross_diag, m.freq_var_diag
    j_mse, j_wls = _fit_objectives(dvec, dvar)
    basis = lpi_basis(sg, 3)
    lam = sg.eigenvalues
    zero_tol = sg.zero_tolerance()

    def check_gradients(point, response_of):
        k = point.size
        g1 = np.empty(k)
        g2 = np.empty(k)
        for i in range(k):
            h = 1e-4 * (1.0 + abs(point[i]))
            up, down = point.copy(), point.copy()
            up[i] += h
            down[i] -= h
            g1[i] = (j_mse(response_of(up)) - j_mse(response_of(down))) / (2 * h)
            g2[i] = (j_wls(response_of(up)) - j_wls(response_of(down))) / (2 * h)
        scale = max(np.abs(g1).max(), np.abs(g2).max(), 1e-8)
        assert np.max(np.abs(g1 - g2)) / scale < 1e-5

    for _ in range(100):
        check_gradients(rng.uniform(-2.0, 2.0, 4), lambda a: basis @ a)
    for _ in range(30):
        num = rng.uniform(-1.0, 1.0, 3)
        a_tail = rng.uniform(0.0, 0.3, 2) / np.array([lam[-1], lam[-1] ** 2])
        point = np.concatenate([num, a_tail])

        def rational(p):
            spec = FilterSpec.arma(p[:3], np.concatenate([[1.0], p[3:]]))
            return response_at(spec, lam, zero_tol)

        check_gradients(point, rational)

    argmin_mse = np.linalg.solve(basis.T @ (dvar[:, None] * basis), basis.T @ dvec)
    sqrt_w = np.sqrt(dvar)
    argmin_wls, *_ = np.linalg.lstsq(
        sqrt_w[:, None] * basis, sqrt_w * (dvec / dvar), rcond=None
    )
    assert np.max(np.abs(argmin_mse - argmin_wls)) < 1e-7
    assert time.perf_counter() - t0 < 30.0


# --------------------------------------------------------------------------
# 4. when the spectral estimator coincides with the unconstrained one,
#    and that the AC power model breaks the coincidence


def _gain_gap(m):
    a = sample_lmmse(m).gain
    b = gsp_lmmse(m).dense.gain
    return float(np.max(np.abs(a - b))), float(
        np.linalg.norm(a - b) / np.linalg.norm(a)
    )


def test_04_coincidence_on_structured_models_fails_on_ac():
    t0 = time.perf_counter()
    rng = generator(SEED, "accept-coincide")
    sg = build_laplacian(random_connected_graph(rng, 8))
    v = sg.eigenvectors

    # (a) covariances diagonal in the frequency basis, directly
    d = rng.uniform(-1.0, 1.0, 8)
    big = rng.uniform(0.5, 2.0, 8)
    m = SampleMoments.from_covariances(
        sg, np.zeros(8), np.zeros(8), (v * d) @ v.T, (v * big) @ v.T
    )
    assert _gain_gap(m)[0] < 1e-6

    # (b) separable nonlinear map, independent frequency inputs, white
    # noise: per-frequency odd cubic, second moments in closed form
    s = rng.uniform(0.4, 1.5, 8)
    a = rng.uniform(0.5, 1.5, 8)
    b = rng.uniform(-0.25, 0.25, 8)
    d = a * s + 3.0 * b * s**2
    big = a**2 * s + 6.0 * a * b * s**2 + 15.0 * b**2 * s**3 + SIGMA2
    m = SampleMoments.from_covariances(
        sg, np.zeros(8), np.zeros(8), (v * d) @ v.T, (v * big) @ v.T
    )
    assert _gain_gap(m)[0] < 1e-6
    # those closed forms are the true moments of the sampled model, and
    # the cross-frequency second moments vanish
    prior = SmoothPrior.from_variances(sg, s)
    model = MeasurementModel(
        prior,
        SIGMA2,
        lambda x: ((x @ v) * a + ((x @ v) ** 3) * b) @ v.T,
        label="separable-cubic",
    )
    ts = generate(model, 200_000, seed=11)
    ms = compute_moments(ts, model.sigma2)
    freq_cross = v.T @ ms.cross_cov @ v
    assert np.max(np.abs(np.diag(freq_cross) - d)) < 0.05 * np.abs(d).max()
    off = freq_cross - np.diag(np.diag(freq_cross))
    assert np.max(np.abs(off)) < 0.05 * np.abs(d).max()

    # (c) linear graph filter observed in white noise, full-matrix route
    spec = FilterSpec.linear([0.8, 0.3, -0.02])
    model = linear_filter_model(sg, spec, beta=BETA, sigma2=SIGMA2)
    fmat = filter_matrix(spec, sg)
    cx = model.prior.covariance()
    m = SampleMoments.from_covariances(
        sg,
        np.zeros(8),
        np.zeros(8),
        cx @ fmat.T,
        fmat @ cx @ fmat.T + SIGMA2 * np.eye(8),
    )
    assert _gain_gap(m)[0] < 1e-6

    # the AC power map is neither a graph filter nor separable: the same
    # comparison must fail by a wide margin
    ac = ac_measurement_model(random_grid(generator(SEED, "accept-ac"), 16), BETA, SIGMA2)
    ts = generate(ac, 100_000, seed=4)
    m = compute_moments(ts, ac.sigma2)
    _, rel = _gain_gap(m)
    assert rel > 0.05
    assert time.perf_counter() - t0 < 60.0


# --------------------------------------------------------------------------
# 5. fit bases have full rank on distinct spectra, deficient on repeats


def test_05_basis_rank_on_distinct_and_repeated_spectra():
    t0 = time.perf_counter()
    rng = generator(SEED, "accept-rank")
    k_order, q_order, r_order = 4, 3, 2
    for _ in range(50):
        lam = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 10.0, 11))])
        basis = lpi_basis_from_eigenvalues(lam, k_order, 1e-12)
        assert numerical_rank(basis) == k_order + 1
        a_tail = rng.uniform(0.0, 0.2, r_order)
        den = vandermonde(lam, r_order) @ np.concatenate([[1.0], a_tail])
        mat = vandermonde(lam, q_order) / den[:, None]
        assert numerical_rank(mat) == q_order + 1

    # three distinct values tiled over twelve entries: rank collapses to 3
    lam = np.sort(np.tile([0.0, 1.0, 4.0], 4))
    basis = lpi_basis_from_eigenvalues(lam, k_order, 1e-12)
    assert numerical_rank(basis) == 3 < k_order + 1
    den = vandermonde(lam, r_order) @ np.array([1.0, 0.1, 0.01])
    mat = vandermonde(lam, q_order) / den[:, None]
    assert numerical_rank(mat) == 3 < q_order + 1
    assert time.perf_counter() - t0 < 5.0


# --------------------------------------------------------------------------
# 6. the per-frequency gain ratio is an empirical MSE minimum


def test_06_spectral_gain_is_empirical_minimum():
    t0 = time.perf_counter()
    rng = generator(SEED, "accept-minimum")
    sg = build_laplacian(random_connected_graph(rng, 8))
    # all-positive frequency variances and a response bounded away from
    # zero keep every +-10% perturbation meaningful
    prior = SmoothPrior.from_variances(sg, rng.uniform(0.5, 1.5, 8))
    model = linear_filter_model(
        sg, FilterSpec.linear([2.0, 0.5]), prior=prior, sigma2=SIGMA2
    )
    p = 100_000
    ts = generate(model, p, seed=5)
    m = compute_moments(ts, model.sigma2)
    base = gsp_lmmse(m)
    resp = gsp_response(m)

    # the moment quadratic grows away from the ratio in both directions
    for k in range(8):
        quad = lambda f: m.freq_var_diag[k] * f**2 - 2 * m.freq_cross_diag[k] * f
        eps = 0.1 * abs(resp[k])
        assert quad(resp[k] + eps) >= quad(resp[k])
        assert quad(resp[k] - eps) >= quad(resp[k])

    x, y = draw_test_set(model, p, seed=6)
    err_base = squared_errors(base, x, y)
    v = sg.eigenvectors
    for k in range(8):
        for scale in (0.9, 1.1):
            bent = resp.copy()
            bent[k] *= scale
            est = LinearEstimator("bent", base.x_mean, (v * bent) @ v.T, base.y_center)
            t_stat = paired_t(squared_errors(est, x, y), err_base)
            assert t_stat > 3.0, (k, scale, t_stat)
    assert time.perf_counter() - t0 < 120.0


# --------------------------------------------------------------------------
# 7. AC power flow: linearization anchor and phase-shift invariance


def test_07_ac_power_jacobian_and_invariance():
    t0 = time.perf_counter()
    rng = generator(SEED, "accept-ac-jac")
    grid = random_grid(rng, 10)
    reactive = replace(grid, conductance=np.zeros_like(grid.conductance))
    lap = build_laplacian(reactive.graph()).laplacian
    h = 1e-6
    jac = np.empty((10, 10))
    for j in range(10):
        e = np.zeros(10)
        e[j] = h
        jac[:, j] = (ac_power(reactive, e) - ac_power(reactive, -e)) / (2 * h)
    assert np.max(np.abs(jac - lap)) < 1e-6 * max(1.0, np.abs(lap).max())

    x = rng.standard_normal(10)
    for c in (1.0, -2.5, 40.0):
        assert np.max(np.abs(ac_power(grid, x + c) - ac_power(grid, x))) < 1e-12
    assert time.perf_counter() - t0 < 1.0


# --------------------------------------------------------------------------
# 8. smooth prior puts the advertised energy on the graph


def test_08_prior_dirichlet_energy():
    t0 = time.perf_counter()
    _, model = grid_model()
    sg = model.sg
    x = sample_prior(model.prior, 100_000, seed=7)
    energy = np.einsum("ij,jk,ik->i", x, sg.laplacian, x).mean()
    want = BETA * (sg.n_vertices - 1)
    assert abs(energy - want) < 0.05 * want
    assert time.perf_counter() - t0 < 10.0


# --------------------------------------------------------------------------
# 9. small training sets: spectral estimators beat the unconstrained fit;
#    large training sets: the two converge


def test_09_spectral_advantage_small_p_convergence_large_p():
    _, model = grid_model()
    sg = model.sg
    x_test, y_test = grid_test_set()
    for p in (59, 118):
        m = grid_moments(p)
        try:
            base = sample_lmmse(m)
        except SingularMomentsError:
            continue  # a degenerate unconstrained fit also satisfies the claim
        err_base = squared_errors(base, x_test, y_test)
        for est in (
            gsp_lmmse(m),
            fit_lpi(m, LPI_ORDER, MU),
            fit_arma(m, *ARMA_ORDERS, MU),
        ):
            err = squared_errors(est, x_test, y_test)
            assert err.mean() < err_base.mean(), (p, est.label)
            t_stat = paired_t(err_base, err)
            assert t_stat > 3.0, (p, est.label, t_stat)

    m = grid_moments(100_000)
    mse_gsp = squared_errors(gsp_lmmse(m), x_test, y_test).mean()
    mse_lmmse = squared_errors(sample_lmmse(m), x_test, y_test).mean()
    assert abs(mse_gsp - mse_lmmse) < 0.05 * mse_lmmse


# --------------------------------------------------------------------------
# 10. at moderate training size the fitted filters match the ratio gain


def test_10_fitted_filters_track_spectral_gain():
    _, model = grid_model()
    sg = model.sg
    x_test, y_test = grid_test_set()
    m = grid_moments(500)
    mse_gsp = squared_errors(gsp_lmmse(m), x_test, y_test).mean()
    for fit in (fit_lpi(m, LPI_ORDER, MU), fit_arma(m, *ARMA_ORDERS, MU)):
        mse = squared_errors(fit, x_test, y_test).mean()
        assert abs(mse - mse_gsp) <= 0.02 * mse_gsp, (fit.label, mse, mse_gsp)


# --------------------------------------------------------------------------
# 11. edge additions: refreshed filters beat the stale unconstrained fit


def test_11_updated_filters_beat_stale_lmmse_after_edge_additions():
    grid, model = grid_model()
    sg = model.sg
    m = grid_moments(500)
    stale = sample_lmmse(m)
    fits = (fit_lpi(m, LPI_ORDER, MU), fit_arma(m, *ARMA_ORDERS, MU))
    count = 7
    diffs = {fit.label: [] for fit in fits}
    for rep in range(20):
        new_grid, _ = perturb_grid(
            grid, count, "add-edges", derive(SEED, "perturb", count, rep)
        )
        new_model = ac_measurement_model(new_grid, BETA, SIGMA2)
        x, y = draw_test_set(new_model, TRIALS, derive(SEED, "test", count, rep))
        err_stale = squared_errors(stale, x, y)
        for fit in fits:
            upd = update_for_topology(fit, new_model.sg)
            diffs[fit.label].append(err_stale - squared_errors(upd, x, y))
    for label, chunks in diffs.items():
        diff = np.concatenate(chunks)
        t_stat = float(diff.mean() / (diff.std(ddof=1) / np.sqrt(diff.size)))
        assert diff.mean() > 0, label
        assert t_stat > 3.0, (label, t_stat)


# --------------------------------------------------------------------------
# 12. vertex additions: refreshed filters beat both zero-padded stale fits


def test_12_updated_filters_beat_stale_fits_after_vertex_additions():
    grid, model = grid_model()
    sg = model.sg
    m = grid_moments(500)
    stale_lmmse = sample_lmmse(m)
    stale_gsp = gsp_lmmse(m)
    fits = (fit_lpi(m, LPI_ORDER, MU), fit_arma(m, *ARMA_ORDERS, MU))
    for count in (1, 4):
        diffs = {
            (fit.label, base): []
            for fit in fits
            for base in ("sample-lmmse", "gsp-lmmse")
        }
        for rep in range(20):
            new_grid, old = perturb_grid(
                grid, count, "add-vertices", derive(SEED, "perturb", count, rep)
            )
            new_model = ac_measurement_model(new_grid, BETA, SIGMA2)
            x, y = draw_test_set(new_model, TRIALS, derive(SEED, "test", count, rep))
            err_base = {
                "sample-lmmse": squared_errors(
                    remap_estimator(stale_lmmse, old), x, y
                ),
                "gsp-lmmse": squared_errors(
                    remap_estimator(stale_gsp, old), x, y
                ),
            }
            for fit in fits:
                upd = update_for_topology(fit, new_model.sg, old)
                err_upd = squared_errors(upd, x, y)
                for base, err in err_base.items():
                    diffs[(fit.label, base)].append(err - err_upd)
        for key, chunks in diffs.items():
            diff = np.concatenate(chunks)
            t_stat = float(diff.mean() / (diff.std(ddof=1) / np.sqrt(diff.size)))
            assert diff.mean() > 0, (count, key)
            assert t_stat > 2.0, (count, key, t_stat)


# --------------------------------------------------------------------------
# 13. whole-fit cost ordering on the bundled grid


def test_13_fit_time_ordering():
    config = ExperimentConfig(
        estimators=("gsp-lmmse", "lpi-gsp", "arma-gsp", "lr-arma-gsp"),
        training_size=500,
        runtime_repeats=10,
        mu=MU,
        trials=TRIALS,
        seed=SEED,
    )
    report = measure_runtime(config)
    med = {r.estimator: r.wall_ms for r in report.rows if r.param == "median-fit"}
    assert med["arma-gsp"] > med["lr-arma-gsp"], med
    assert med["lr-arma-gsp"] > med["lpi-gsp"], med
    assert med["lpi-gsp"] > med["gsp-lmmse"], med
