import json
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize

from gspest import estimators
from gspest.errors import SingularMomentsError, UnstableFilterError
from gspest.estimators import (
    COND_LIMIT,
    LinearEstimator,
    SpectralEstimator,
    _symmetric_cond,
    almmse,
    arma_coefficients,
    estimator_from_json,
    estimator_to_json,
    fit_arma,
    fit_lpi,
    fit_lr_arma,
    gsp_lmmse,
    gsp_response,
    lpi_coefficients,
    lr_arma_coefficients,
    remap_estimator,
    sample_diag_lmmse,
    sample_lmmse,
    update_for_topology,
)
from gspest.filters import (
    FilterSpec,
    filter_matrix,
    lpi_basis,
    response_at,
    vandermonde,
)
from gspest.graphs import (
    build_laplacian,
    perturb_edges,
    perturb_vertices,
)
from gspest.models import (
    ac_measurement_model,
    bundled_ieee118,
    linear_filter_model,
    perturb_grid,
)
from gspest.moments import SampleMoments, compute_moments, generate, stream_moments
from gspest.rng import generator
from tests.test_graphs import old_indices, random_connected_graph


def random_sg(seed, n=10):
    return build_laplacian(random_connected_graph(generator(seed, "est-graph"), n))


def moments_from_diags(sg, d, big_d, x_mean=None, y_mean=None):
    """Moments whose covariances are graph filters with the given frequency
    diagonals (cross: d, measurement: big_d)."""
    v = sg.eigenvectors
    n = sg.n_vertices
    cross = (v * d) @ v.T
    ycov = (v * big_d) @ v.T
    return SampleMoments.from_covariances(
        sg,
        np.zeros(n) if x_mean is None else x_mean,
        np.zeros(n) if y_mean is None else y_mean,
        cross,
        ycov,
    )


def sampled_moments(seed, n=8, count=400, sigma2=0.05):
    sg = random_sg(seed, n)
    model = linear_filter_model(sg, FilterSpec.linear([1.0, 0.3, -0.02]), sigma2=sigma2)
    ts = generate(model, count, seed=seed)
    return compute_moments(ts, model.sigma2), sg, model


# ------------------------------------------------------------- affine basics


def test_estimators_pass_through_base_point():
    m, sg, model = sampled_moments(1)
    for est in (
        sample_lmmse(m),
        sample_diag_lmmse(m),
        gsp_lmmse(m),
        fit_lpi(m, order=3),
        fit_arma(m, num_order=2, den_order=1),
        fit_lr_arma(m, 5, num_order=1, den_order=1),
    ):
        out = est.estimate(m.y_mean)
        assert np.max(np.abs(out - m.x_mean)) < 1e-10, est.label


def test_estimate_shapes_and_validation():
    m, sg, _ = sampled_moments(2)
    est = gsp_lmmse(m)
    y1 = np.ones(8)
    out1 = est.estimate(y1)
    assert out1.shape == (8,)
    y2 = np.ones((5, 8))
    out2 = est.estimate(y2)
    assert out2.shape == (5, 8)
    assert np.allclose(out2[0], out1, atol=1e-14)
    with pytest.raises(ValueError):
        est.estimate(np.ones(7))


def test_linear_estimator_validates_shapes():
    with pytest.raises(ValueError):
        LinearEstimator("x", np.zeros(3), np.zeros((2, 3)), np.zeros(3))


def test_zero_cross_covariance_means_constant_estimate():
    sg = random_sg(3)
    rng = generator(3, "xmean")
    x_mean = rng.standard_normal(10)
    m = moments_from_diags(sg, np.zeros(10), np.linspace(0.5, 2.0, 10), x_mean=x_mean)
    for builder in (sample_lmmse, sample_diag_lmmse, gsp_lmmse):
        est = builder(m)
        y = rng.standard_normal((6, 10))
        assert np.max(np.abs(est.estimate(y) - x_mean)) < 1e-12, est.label


# --------------------------------------------------------------- coincidence


def test_diag_lmmse_equals_lmmse_on_diagonal_covariances():
    rng = generator(4, "diag")
    n = 9
    sg = random_sg(4, n)
    cross = np.diag(rng.uniform(-1.0, 1.0, n))
    ycov = np.diag(rng.uniform(0.5, 2.0, n))
    m = SampleMoments.from_covariances(sg, np.zeros(n), np.zeros(n), cross, ycov)
    a = sample_lmmse(m)
    b = sample_diag_lmmse(m)
    assert b.gain.shape == (n,)
    assert np.max(np.abs(a.gain - np.diag(b.gain))) < 1e-12


def test_gsp_equals_lmmse_on_diagonal_frequency_moments():
    rng = generator(5, "freq-diag")
    n = 12
    sg = random_sg(5, n)
    d = rng.uniform(-1.0, 1.0, n)
    big_d = rng.uniform(0.5, 2.0, n)
    m = moments_from_diags(sg, d, big_d)
    a = sample_lmmse(m)
    b = gsp_lmmse(m)
    assert np.max(np.abs(a.gain - b.dense.gain)) < 1e-8
    assert np.max(np.abs(np.diag(sg.eigenvectors.T @ b.dense.gain @ sg.eigenvectors) - d / big_d)) < 1e-12


def test_wiener_gain_from_exact_moments():
    # linear filter + smooth prior + white noise: per-frequency gain is
    # f c / (f^2 c + sigma^2)
    sg = random_sg(6, 10)
    spec = FilterSpec.linear([0.9, 0.25, -0.01])
    model = linear_filter_model(sg, spec, beta=2.0, sigma2=0.04)
    fmat = filter_matrix(spec, sg)
    cx = model.prior.covariance()
    m = SampleMoments.from_covariances(
        sg,
        np.zeros(10),
        np.zeros(10),
        cx @ fmat.T,
        fmat @ cx @ fmat.T + model.sigma2 * np.eye(10),
    )
    f = response_at(spec, sg.eigenvalues, sg.zero_tolerance())
    c = model.prior.frequency_variances
    want = f * c / (f**2 * c + 0.04)
    assert np.max(np.abs(gsp_response(m) - want)) < 1e-12


def test_wiener_gain_sampled_convergence():
    sg = random_sg(7, 10)
    spec = FilterSpec.linear([0.9, 0.25, -0.01])
    model = linear_filter_model(sg, spec, beta=2.0, sigma2=0.04)
    ts = generate(model, 200_000, seed=1)
    m = compute_moments(ts, model.sigma2)
    f = response_at(spec, sg.eigenvalues, sg.zero_tolerance())
    c = model.prior.frequency_variances
    want = f * c / (f**2 * c + 0.04)
    assert np.max(np.abs(gsp_response(m) - want)) < 0.02


# ----------------------------------------------------------------- LPI fits


def test_lpi_recovers_representable_response():
    sg = random_sg(8, 10)
    rng = generator(8, "lpi")
    taps = rng.uniform(-1.0, 1.0, 4)
    resp = lpi_basis(sg, 3) @ taps
    big_d = rng.uniform(0.5, 2.0, 10)
    m = moments_from_diags(sg, resp * big_d, big_d)
    got = lpi_coefficients(m, order=3, mu=0.0)
    assert np.max(np.abs(got - taps)) < 1e-8
    fit = fit_lpi(m, order=3, mu=0.0)
    assert np.max(np.abs(fit.response - resp)) < 1e-8
    assert fit.spec.kind == "lpi"
    assert fit.mu == 0.0


def test_lpi_closed_form_matches_iterative_solve():
    m, sg, _ = sampled_moments(9, n=10, count=300)
    order, mu = 3, 1e-3
    taps = lpi_coefficients(m, order=order, mu=mu)

    basis = lpi_basis(sg, order)
    dvec = m.freq_cross_diag
    dvar = m.freq_var_diag
    from gspest.estimators import default_lpi_regularizer

    reg = default_lpi_regularizer(sg, order)

    def objective(h):
        r = basis @ h
        return float(dvar @ r**2 - 2.0 * dvec @ r + mu * h @ reg @ h)

    def grad(h):
        r = basis @ h
        return 2.0 * basis.T @ (dvar * r - dvec) + 2.0 * mu * reg @ h

    res = optimize.minimize(objective, np.zeros(order + 1), jac=grad, method="BFGS",
                            options={"gtol": 1e-14, "maxiter": 2000})
    assert np.max(np.abs(res.x - taps)) < 1e-7


def test_lpi_heavy_regularization_shrinks_taps():
    m, sg, _ = sampled_moments(10)
    taps = lpi_coefficients(m, order=4, mu=1e12)
    assert np.max(np.abs(taps)) < 1e-6


def test_lpi_response_at_zero_is_first_tap():
    m, sg, _ = sampled_moments(11)
    fit = fit_lpi(m, order=3)
    assert fit.response[0] == fit.spec.taps[0]


# ---------------------------------------------------------------- ARMA fits


def test_arma_den_order_zero_is_polynomial_least_squares():
    m, sg, _ = sampled_moments(13, n=9)
    mu = 1e-3
    numer, denom, converged = arma_coefficients(m, num_order=3, den_order=0, mu=mu)
    assert np.array_equal(denom, np.ones(1))
    assert converged
    phi = vandermonde(sg.eigenvalues, 3)
    want = np.linalg.solve(
        phi.T @ (m.freq_var_diag[:, None] * phi) + mu * np.eye(4),
        phi.T @ m.freq_cross_diag,
    )
    assert np.max(np.abs(numer - want)) < 1e-10
    fit = fit_arma(m, num_order=3, den_order=0, mu=mu)
    assert fit.spec.kind == "linear"


@pytest.mark.parametrize("cutoff, den_order", [(None, 2), (6, 1)], ids=["arma", "lr-arma"])
def test_rational_numerator_is_stacked_least_squares_for_its_denominator(cutoff, den_order):
    # the profiled numerator is the regularized weighted least-squares fit
    # for the denominator the search returns
    m, sg, _ = sampled_moments(14, n=10)
    mu = 1e-3
    if cutoff is None:
        numer, denom, _ = arma_coefficients(m, 2, den_order, mu)
    else:
        numer, denom, _ = lr_arma_coefficients(m, cutoff, 2, den_order, mu)
    assert np.all(denom[1:] != 0.0)  # the search left the polynomial start
    band = slice(cutoff)
    lam = sg.eigenvalues[band]
    scaled = vandermonde(lam, 2) / (vandermonde(lam, den_order) @ denom)[:, None]
    sqrt_w = np.sqrt(m.freq_var_diag[band])
    rows = np.vstack([sqrt_w[:, None] * scaled, np.sqrt(mu) * np.eye(3)])
    target = np.concatenate([m.freq_cross_diag[band] / sqrt_w, np.zeros(3)])
    want, *_ = np.linalg.lstsq(rows, target, rcond=None)
    assert np.max(np.abs(numer - want)) < 1e-8


# Seeded objectives for the search oracle: smooth, curved, with an infinite
# or a NaN region next to the start, with plateaus (ties), and constant.
def _search_objectives(rng, n):
    a, c = rng.standard_normal((n, n)), rng.standard_normal(n)
    q = a @ a.T + 0.1 * np.eye(n)

    def quadratic(x):
        return float((x - c) @ q @ (x - c))

    def rosenbrock(x):
        return float(np.sum(100 * (x[1:] - x[:-1] ** 2) ** 2) + (1 - x[0]) ** 2)

    return {
        "quadratic": quadratic,
        "rosenbrock": rosenbrock,
        "inf-region": lambda x: np.inf if x[0] > 0.05 else quadratic(x),
        "nan-region": lambda x: np.nan if x.sum() > 0.3 else rosenbrock(x),
        "ties": lambda x: float(np.round(np.abs(x - c).sum(), 1)),
        "constant": lambda x: 1.0,
    }


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf, in both
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_search_takes_the_steps_of_scipys_nelder_mead(n):
    def bits(v):
        return np.asarray(v, dtype=float).tobytes()

    exits = set()
    for seed in range(4):
        rng = generator(seed, "search")
        for name, fun in _search_objectives(rng, n).items():
            # the fits' budget, an iteration cap and an evaluation cap
            for maxiter, maxfev in ((2000, 8000), (7, 8000), (2000, 11)):
                simplex = 0.5 * rng.standard_normal(n) + np.vstack(
                    [np.zeros(n), 0.1 * np.eye(n)])
                want = optimize.minimize(
                    fun, simplex[0], method="Nelder-Mead",
                    options={"maxiter": maxiter, "maxfev": maxfev, "xatol": 1e-8,
                             "fatol": 1e-10, "initial_simplex": simplex},
                )
                got = estimators.minimize(fun, simplex, maxiter=maxiter, maxfev=maxfev,
                                          xatol=1e-8, fatol=1e-10)
                case = (seed, name, maxiter, maxfev)
                assert bits(got.x) == bits(want.x), case
                assert bits(got.fun) == bits(want.fun), case
                assert (got.nit, got.nfev, got.success) == (
                    want.nit, want.nfev, want.success), case
                exits.add("converged" if got.success else
                          "maxfev" if got.nfev == maxfev else "maxiter")
    assert exits == {"converged", "maxiter", "maxfev"}


def test_arma_search_ending_on_a_vanishing_denominator_is_unstable(monkeypatch):
    m, sg, _ = sampled_moments(15, n=8)
    # the search returns a tail whose denominator 1 + a lam vanishes at an
    # interior eigenvalue
    tail = np.array([-1.0 / sg.eigenvalues[4]])
    monkeypatch.setattr(
        estimators, "minimize", lambda *a, **k: SimpleNamespace(x=tail, success=True)
    )
    with pytest.raises(UnstableFilterError, match="vanishing denominator"):
        arma_coefficients(m, num_order=1, den_order=1)


def test_arma_recovers_representable_response():
    sg = random_sg(16, 12)
    rng = generator(16, "arma")
    lam = sg.eigenvalues
    num = np.array([0.8, 0.3, -0.01])
    den = np.array([1.0, 0.5, 0.05])
    resp = (vandermonde(lam, 2) @ num) / (vandermonde(lam, 2) @ den)
    big_d = rng.uniform(0.5, 2.0, 12)
    m = moments_from_diags(sg, resp * big_d, big_d)
    numer, denom, converged = arma_coefficients(m, num_order=2, den_order=2, mu=0.0)
    assert converged
    got = (vandermonde(lam, 2) @ numer) / (vandermonde(lam, 2) @ denom)
    assert np.max(np.abs(got - resp)) < 1e-5


def test_fit_arma_estimator_structure():
    m, sg, _ = sampled_moments(17)
    fit = fit_arma(m, num_order=2, den_order=1, mu=1e-3)
    assert isinstance(fit, SpectralEstimator)
    assert fit.spec.kind == "arma"
    assert fit.spec.denominator[0] == 1.0
    want = response_at(fit.spec, sg.eigenvalues, sg.zero_tolerance())
    assert np.array_equal(fit.response, want)
    v = sg.eigenvectors
    assert np.max(np.abs(fit.dense.gain - (v * want) @ v.T)) < 1e-14


# ------------------------------------------------------------- LR-ARMA fits


def test_lr_arma_with_full_band_matches_arma():
    m, sg, _ = sampled_moments(18, n=9)
    a = fit_arma(m, num_order=2, den_order=2, mu=1e-3)
    b = fit_lr_arma(m, 9, num_order=2, den_order=2, mu=1e-3)
    assert np.array_equal(a.spec.numerator, b.spec.numerator)
    assert np.array_equal(a.spec.denominator, b.spec.denominator)
    assert np.max(np.abs(a.response - b.response)) < 1e-14


def test_lr_arma_recovers_bandlimited_response():
    sg = random_sg(19, 12)
    rng = generator(19, "lr")
    lam = sg.eigenvalues
    kept = 5
    num = np.array([0.7, 0.2])
    den = np.array([1.0, 0.3])
    resp = np.zeros(12)
    resp[:kept] = (vandermonde(lam[:kept], 1) @ num) / (vandermonde(lam[:kept], 1) @ den)
    big_d = rng.uniform(0.5, 2.0, 12)
    m = moments_from_diags(sg, resp * big_d, big_d)
    fit = fit_lr_arma(m, kept, num_order=1, den_order=1, mu=0.0)
    assert np.max(np.abs(fit.response - resp)) < 1e-5


def test_lr_arma_cutoff_must_be_a_frequency_count():
    m, sg, _ = sampled_moments(21, n=8)
    for cutoff in (0, 9):
        with pytest.raises(ValueError, match="out of range"):
            fit_lr_arma(m, cutoff, num_order=1, den_order=1)


def test_lr_arma_structural_zeros_above_cutoff():
    m, sg, _ = sampled_moments(20, n=10)
    kept = 4
    fit = fit_lr_arma(m, kept, num_order=1, den_order=1)
    assert np.all(fit.response[kept:] == 0.0)
    # the gain annihilates every high-frequency eigenvector
    high = sg.eigenvectors[:, kept:]
    assert np.max(np.abs(fit.dense.gain @ high)) < 1e-12
    assert fit.spec.cutoff == kept


# -------------------------------------------------------- training-free base


def test_almmse_annihilates_constant():
    sg = random_sg(21, 9)
    est = almmse(sg, beta=3.0, sigma2=0.05)
    assert np.max(np.abs(est.dense.gain @ np.ones(9))) < 1e-12
    assert np.max(np.abs(est.estimate(np.zeros(9)))) == 0.0


def test_almmse_vanishes_with_large_noise():
    sg = random_sg(22, 8)
    est = almmse(sg, beta=3.0, sigma2=1e12)
    assert np.max(np.abs(est.dense.gain)) < 1e-9


def test_almmse_noiseless_limit_inverts_laplacian():
    # sigma2 = 0 turns the gain into the pseudo-inverse, so L x is mapped
    # back to x minus its mean
    sg = random_sg(23, 10)
    est = almmse(sg, beta=3.0, sigma2=0.0)
    rng = generator(23, "x")
    x = rng.standard_normal(10)
    got = est.estimate(sg.laplacian @ x)
    assert np.max(np.abs(got - (x - x.mean()))) < 1e-8


def test_almmse_gain_formula():
    sg = random_sg(24, 8)
    beta, sigma2 = 2.5, 0.1
    est = almmse(sg, beta, sigma2)
    lam = sg.eigenvalues
    resp = np.where(lam > sg.zero_tolerance(), beta / (beta * lam + sigma2), 0.0)
    v = sg.eigenvectors
    assert np.max(np.abs(est.dense.gain - (v * resp) @ v.T)) < 1e-14


def test_almmse_keeps_its_response_where_beta_lambda_overflows():
    # beta = 1e307 is a valid prior on the bundled grid (beta / lambda_1 =
    # 3.4e307), but beta * lambda overflows for lambda above about 18: the
    # response there is 1 / (lambda + sigma2 / beta), not 0, with no warning
    sg = build_laplacian(bundled_ieee118().graph())
    lam = sg.eigenvalues
    pos = lam > sg.zero_tolerance()
    assert np.sum(lam > 18.0) > 50
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        resp = almmse(sg, 1e307, 0.05).response
    assert np.all(resp[pos] > 0)
    assert np.allclose(resp[pos], 1.0 / (lam[pos] + 0.05 / 1e307), rtol=1e-15, atol=0)
    # where beta * lambda is finite, the response keeps the bits of the formula
    assert np.array_equal(almmse(sg, 3.0, 0.05).response[pos], 3.0 / (3.0 * lam[pos] + 0.05))


# ----------------------------------------------------------- topology updates


def test_update_on_same_graph_changes_nothing():
    m, sg, _ = sampled_moments(25)
    fit = fit_lpi(m, order=3)
    upd = update_for_topology(fit, sg)
    assert upd.sg is sg
    assert np.array_equal(upd.response, fit.response)
    assert np.array_equal(upd.dense.gain, fit.dense.gain)
    assert np.array_equal(upd.y_center, fit.y_center)
    assert np.array_equal(upd.x_mean, fit.x_mean)
    assert upd.spec is fit.spec


def test_update_after_edge_change_reevaluates_response():
    m, sg, model = sampled_moments(26, n=10)
    fit = fit_arma(m, num_order=2, den_order=1)
    g2 = perturb_edges(model.sg.graph, 2, "add", seed=5)
    sg2 = build_laplacian(g2)
    upd = update_for_topology(fit, sg2)
    resp2 = response_at(fit.spec, sg2.eigenvalues, sg2.zero_tolerance())
    v2 = sg2.eigenvectors
    assert np.max(np.abs(upd.dense.gain - (v2 * resp2) @ v2.T)) < 1e-14
    assert np.array_equal(upd.y_center, fit.y_center)
    assert np.array_equal(upd.spec.numerator, fit.spec.numerator)


def test_a_fit_on_a_spectrum_only_view_retunes_alike_and_transforms_nothing():
    # experiment b keeps its base spectral fits on their graph with no
    # eigenbasis: what a retune reads is there, and every transform raises
    from gspest.graphs import gft, igft

    m, sg, model = sampled_moments(26, n=10)
    view = replace(sg, eigenvectors=None)
    assert view.n_vertices == 10 and view.is_connected()
    assert view.zero_tolerance() == sg.zero_tolerance()
    sg2 = build_laplacian(perturb_edges(model.sg.graph, 2, "add", seed=5))
    for fit in (fit_lpi(m, order=3), fit_arma(m, 2, 1), fit_lr_arma(m, 4, 1, 1)):
        on_view = replace(fit, sg=view)
        assert np.array_equal(on_view.response, fit.response)
        for a, b in ((fit, sg2), (fit, sg), (on_view, sg2), (on_view, view)):
            assert np.array_equal(update_for_topology(a, b).response,
                                  update_for_topology(fit, b).response)
    x = np.ones((3, 10))
    est = replace(gsp_lmmse(m), sg=view)
    for transform in (lambda: gft(view, x), lambda: igft(view, x), lambda: est.dense,
                      lambda: est.estimate(x), lambda: filter_matrix(fit.spec, view)):
        with pytest.raises((AttributeError, TypeError, ValueError)):  # None is no array
            transform()


def test_update_needs_a_fitted_filter():
    m, sg, _ = sampled_moments(29, n=8)
    for est in (gsp_lmmse(m), almmse(sg, 3.0, 0.05)):
        message = f"^{est.label} has no filter to re-evaluate$"
        with pytest.raises(ValueError, match=message):
            update_for_topology(est, sg)


def test_update_requires_map_on_size_change():
    m, sg, model = sampled_moments(27, n=8)
    fit = fit_lpi(m, order=2)
    from gspest.graphs import perturb_vertices

    g2, old = perturb_vertices(model.sg.graph, 1, "add", seed=2)
    sg2 = build_laplacian(g2)
    with pytest.raises(ValueError):
        update_for_topology(fit, sg2)
    upd = update_for_topology(fit, sg2, old)
    assert upd.y_center.shape == (9,)
    assert np.array_equal(upd.y_center[:8], fit.y_center)
    assert upd.y_center[8] == 0.0
    assert upd.x_mean[8] == 0.0


def test_update_after_vertex_removal_restricts_center():
    m, sg, model = sampled_moments(28, n=10)
    fit = fit_lpi(m, order=2)
    from gspest.graphs import perturb_vertices

    g2, old = perturb_vertices(model.sg.graph, 2, "remove", seed=7)
    sg2 = build_laplacian(g2)
    upd = update_for_topology(fit, sg2, old)
    assert upd.y_center.shape == (8,)
    for new, before in enumerate(old):
        assert upd.y_center[new] == fit.y_center[before]


def test_remap_estimator_submatrix_semantics():
    m, sg, _ = sampled_moments(29, n=8)
    est = sample_lmmse(m)
    old = np.array([0, 2, 3, 5, 6, 7])  # vertices 1 and 4 removed
    out = remap_estimator(est, old)
    for a_new, a_old in enumerate(old):
        for b_new, b_old in enumerate(old):
            assert out.gain[a_new, b_new] == est.gain[a_old, b_old]
    assert out.label == est.label


def test_remap_estimator_zero_pads_added_vertices():
    m, sg, _ = sampled_moments(30, n=6)
    est = gsp_lmmse(m)
    out = remap_estimator(est, np.array([*range(6), -1, -1]))
    assert np.array_equal(out.gain[:6, :6], est.dense.gain)
    assert np.all(out.gain[6:, :] == 0.0)
    assert np.all(out.gain[:, 6:] == 0.0)
    assert np.all(out.y_center[6:] == 0.0)
    assert np.all(out.x_mean[6:] == 0.0)


# ------------------------------------------- frequency domain against dense


def _assert_matches_dense_gain(est, y):
    v = est.sg.eigenvectors
    want = est.x_mean + (y - est.y_center) @ ((v * est.response) @ v.T).T
    got = est.estimate(y)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), est.label


def _check_spectral_families(m, sg, perturbed, rng):
    """Every spectral family on ``sg`` and, refitted or retuned, on each
    ``(graph, vertex_map)`` of ``perturbed``, against its dense gain."""
    def y_on(g):
        return rng.standard_normal((6, g.n_vertices))

    fits = (
        gsp_lmmse(m),
        fit_lpi(m, order=3),
        fit_arma(m, num_order=2, den_order=1),
        fit_lr_arma(m, sg.n_vertices // 2, num_order=1, den_order=1),
        almmse(sg, beta=3.0, sigma2=0.05),
    )
    for est in fits:
        assert isinstance(est, SpectralEstimator)
        _assert_matches_dense_gain(est, y_on(sg))
    for graph, vmap in perturbed:
        sg2 = build_laplacian(graph)
        y2 = y_on(sg2)
        for fit in fits[1:4]:
            _assert_matches_dense_gain(update_for_topology(fit, sg2, vmap), y2)
        _assert_matches_dense_gain(almmse(sg2, beta=3.0, sigma2=0.05), y2)
        if vmap is None:  # gsp-lmmse's response on the new eigenbasis
            _assert_matches_dense_gain(replace(fits[0], sg=sg2), y2)


@pytest.mark.parametrize("seed", range(4))
def test_spectral_families_match_dense_gain_on_random_graphs(seed):
    m, sg, _ = sampled_moments(40 + seed, n=8 + 5 * seed)
    rng = generator(seed, "dense-check")
    perturbed = (
        (perturb_edges(sg.graph, 3, "add", seed), None),
        (perturb_edges(sg.graph, 2, "remove", seed), None),
        perturb_vertices(sg.graph, 2, "add", seed),
        perturb_vertices(sg.graph, 2, "remove", seed),
    )
    _check_spectral_families(m, sg, perturbed, rng)


def test_spectral_families_match_dense_gain_on_ieee118():
    grid = bundled_ieee118()
    model = ac_measurement_model(grid, 3.0, 0.05)
    m = stream_moments(model, 300, 7)
    perturbed = []
    for mode in ("add-edges", "remove-vertices"):
        new_grid, vmap = perturb_grid(grid, 4, mode, 11)
        perturbed.append((new_grid.graph(), vmap if mode.endswith("vertices") else None))
    _check_spectral_families(m, model.sg, perturbed, generator(8, "ieee-y"))


def test_spectral_estimator_validates_sizes():
    m, sg, _ = sampled_moments(41, n=6)
    with pytest.raises(ValueError):
        SpectralEstimator("x", sg, np.ones(5), np.zeros(6), np.zeros(6))
    with pytest.raises(ValueError):
        SpectralEstimator("x", sg, np.ones(6), np.zeros(6), np.zeros(7))


def test_remapped_spectral_estimator_builds_its_gain_once():
    m, sg, _ = sampled_moments(42, n=8)
    est = gsp_lmmse(m)
    a = remap_estimator(est, np.array([*range(8), -1]))
    b = remap_estimator(est, np.arange(1, 8))
    assert est.dense is est.dense
    assert np.array_equal(a.gain[:8, :8], est.dense.gain)
    assert np.array_equal(b.gain[:7, :7], est.dense.gain[1:, 1:])


# ------------------------------------------------------------- serialization


def test_linear_estimator_json_round_trip():
    m, sg, _ = sampled_moments(31)
    est = sample_lmmse(m)
    back = estimator_from_json(estimator_to_json(est))
    assert isinstance(back, LinearEstimator)
    assert back.label == est.label
    assert np.array_equal(back.gain, est.gain)
    assert np.array_equal(back.x_mean, est.x_mean)
    assert np.array_equal(back.y_center, est.y_center)


def test_fitted_estimator_json_round_trip():
    m, sg, _ = sampled_moments(32)
    for fit in (
        fit_lpi(m, order=3, mu=1e-4),
        fit_arma(m, num_order=2, den_order=1),
        fit_lr_arma(m, 4, num_order=1, den_order=1),
    ):
        back = estimator_from_json(estimator_to_json(fit), sg)
        assert isinstance(back, SpectralEstimator)
        assert back.spec.kind == fit.spec.kind
        assert np.array_equal(back.response, fit.response)
        assert np.array_equal(back.dense.gain, fit.dense.gain)
        assert back.mu == fit.mu
        assert back.converged == fit.converged
        if fit.spec.kind == "lpi":
            assert np.array_equal(back.spec.taps, fit.spec.taps)
        else:
            assert np.array_equal(back.spec.numerator, fit.spec.numerator)
            assert np.array_equal(back.spec.denominator, fit.spec.denominator)
    doc = json.loads(estimator_to_json(fit_lpi(m, order=2)))
    assert set(doc) == {
        "label", "x_mean", "y_center", "filter", "response", "mu", "converged",
    }


def test_estimators_without_a_gain_need_their_graph():
    m, sg, _ = sampled_moments(43)
    for est in (gsp_lmmse(m), almmse(sg, 3.0, 0.05)):
        text = estimator_to_json(est)
        assert "gain" not in json.loads(text)
        with pytest.raises(ValueError):
            estimator_from_json(text)
        back = estimator_from_json(text, sg)
        assert back.spec is None and back.label == est.label
        assert np.array_equal(back.response, est.response)
    with pytest.raises(ValueError):
        estimator_from_json(estimator_to_json(gsp_lmmse(m)), random_sg(44, 9))


def test_json_with_a_gain_loads_as_linear_estimator():
    # a fitted estimator as written when fits stored their dense gain
    m, sg, _ = sampled_moments(45)
    fit = fit_lpi(m, order=2)
    doc = json.loads(estimator_to_json(fit))
    doc["gain"] = fit.dense.gain.tolist()
    doc["fitted_response"] = doc.pop("response")
    back = estimator_from_json(json.dumps(doc))
    assert isinstance(back, LinearEstimator)
    assert np.array_equal(back.gain, fit.dense.gain)
    y = generator(45, "y").standard_normal((5, 8))
    assert np.max(np.abs(back.estimate(y) - fit.estimate(y))) < 1e-12


# ------------------------------------------------------------ singular input


def test_sample_lmmse_rejects_singular_covariance():
    sg = random_sg(33, 6)
    u = np.ones(6)
    m = SampleMoments.from_covariances(
        sg, np.zeros(6), np.zeros(6), np.eye(6), np.outer(u, u)
    )
    with pytest.raises(SingularMomentsError):
        sample_lmmse(m)


def test_condition_number_threshold():
    sg = random_sg(34, 6)

    def with_floor(eps):
        big_d = np.concatenate([[eps], np.ones(5)])
        return moments_from_diags(sg, np.full(6, 0.5), big_d)

    sample_lmmse(with_floor(10.0 / COND_LIMIT))
    with pytest.raises(SingularMomentsError):
        sample_lmmse(with_floor(0.1 / COND_LIMIT))


def test_symmetric_condition_number_matches_svd():
    rng = generator(46, "cond")
    q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
    for lam in (
        np.linspace(1.0, 5.0, 9),
        np.geomspace(1e-9, 2.0, 9),
        np.concatenate([[-3.0, -1e-4], np.linspace(0.5, 2.0, 7)]),
    ):
        a = (q * lam) @ q.T
        a = (a + a.T) / 2
        want = np.linalg.cond(a)
        assert abs(_symmetric_cond(a) - want) <= 1e-6 * want
    u = np.ones(9)
    assert _symmetric_cond(np.outer(u, u)) >= COND_LIMIT
    assert _symmetric_cond(np.zeros((3, 3))) == np.inf


def test_diag_lmmse_rejects_nonpositive_variance():
    sg = random_sg(35, 5)
    ycov = np.diag([1.0, 1.0, 0.0, 1.0, 1.0])
    m = SampleMoments.from_covariances(
        sg, np.zeros(5), np.zeros(5), np.eye(5), ycov
    )
    with pytest.raises(SingularMomentsError):
        sample_diag_lmmse(m)


def test_diag_lmmse_rejects_nan_variance():
    sg = random_sg(35, 5)
    ycov = np.diag([1.0, 1.0, np.nan, 1.0, 1.0])
    m = SampleMoments.from_covariances(sg, np.zeros(5), np.zeros(5), np.eye(5), ycov)
    with pytest.raises(SingularMomentsError):
        sample_diag_lmmse(m)


def test_diag_lmmse_gain_is_diagonal():
    m, sg, _ = sampled_moments(36)
    est = sample_diag_lmmse(m)
    # one gain per vertex: the gain is a vector, with no off-diagonal entries
    assert est.gain.shape == (sg.n_vertices,)
    want = np.diag(m.cross_cov) / np.diag(m.y_cov)
    assert np.allclose(est.gain, want, atol=1e-15)


def _dense_diagonal(est):
    """``est`` with its per-vertex gain as the N x N diagonal matrix."""
    return LinearEstimator(est.label, est.x_mean, np.diag(est.gain), est.y_center)


def test_diag_lmmse_vector_gain_estimates_like_dense_diagonal():
    m, sg, _ = sampled_moments(37, n=11)
    est = sample_diag_lmmse(m)
    dense = _dense_diagonal(est)
    rng = generator(37, "diag-y")
    for y in (rng.standard_normal(11), rng.standard_normal((7, 11)) * 1e3):
        assert np.array_equal(est.estimate(y), dense.estimate(y))


def test_linear_estimator_gain_shapes():
    x, y = np.zeros(4), np.zeros(4)
    for gain in (np.ones(4), np.ones((4, 4))):
        assert LinearEstimator("g", x, gain, y).gain.shape == gain.shape
    for gain, y_center in ((np.ones(3), y), (np.ones(4), np.zeros(5)), (np.ones((4, 3)), y)):
        with pytest.raises(ValueError):
            LinearEstimator("g", x, gain, y_center)


def _carry_reference(values, vertex_map, n_new):
    """The carry as two fancy indexes over the sorted old vertices."""
    olds = sorted(vertex_map)
    news = [vertex_map[o] for o in olds]
    out = np.zeros((n_new,) * values.ndim)
    out[np.ix_(*[news] * values.ndim)] = values[np.ix_(*[olds] * values.ndim)]
    return out


@pytest.mark.parametrize("vertex_map, n_new", [
    ({0: 0, 2: 1, 3: 2, 5: 3, 6: 4}, 5),  # vertices 1 and 4 removed
    ({i: i for i in range(7)}, 9),  # two vertices added
    ({i: i for i in range(7)}, 7),
])
def test_carry_matches_two_index_reference(vertex_map, n_new):
    rng = generator(38, "carry")
    for values in (rng.standard_normal(7), rng.standard_normal((7, 7))):
        got = estimators._carry(values, old_indices(vertex_map, n_new))
        assert np.array_equal(got, _carry_reference(values, vertex_map, n_new))


@pytest.mark.parametrize(
    "mode", ["add-edges", "remove-edges", "add-vertices", "remove-vertices"]
)
def test_remapped_vector_gain_is_diagonal_of_dense_remap(mode):
    from gspest.graphs import perturb

    m, sg, _ = sampled_moments(39, n=10)
    est = sample_diag_lmmse(m)
    graph, old = perturb(sg.graph, 2, mode, 39)
    out = remap_estimator(est, old)
    want = remap_estimator(_dense_diagonal(est), old)
    assert out.gain.shape == (graph.n_vertices,)
    assert np.array_equal(np.diag(out.gain), want.gain)
    assert np.array_equal(out.x_mean, want.x_mean)
    assert np.array_equal(out.y_center, want.y_center)


def test_dense_diagonal_gain_json_loads_and_scores_identically():
    # sample-dlmmse files written by earlier versions hold the N x N diagonal
    m, sg, model = sampled_moments(40, n=9)
    est = sample_diag_lmmse(m)
    doc = json.loads(estimator_to_json(est))
    assert doc["gain"] == est.gain.tolist()
    doc["gain"] = np.diag(est.gain).tolist()
    old = estimator_from_json(json.dumps(doc), sg)
    assert old.gain.shape == (9, 9)
    from gspest.harness import evaluate_mse

    y = generator(40, "diag-json").standard_normal((5, 9))
    assert np.array_equal(old.estimate(y), est.estimate(y))
    assert evaluate_mse(old, model, 50, 3) == evaluate_mse(est, model, 50, 3)


def test_exact_linear_gaussian_moments_match_training_free_gain():
    # y = Lx + w with the smooth prior has analytic moments whose LMMSE
    # gain is exactly the training-free spectral gain
    rng = generator(31, "gaussian-identity")
    sg = build_laplacian(random_connected_graph(rng, 9))
    beta, sigma2 = 2.5, 0.07
    n = sg.n_vertices
    lap = sg.laplacian
    cx = beta * np.linalg.pinv(lap)
    m = SampleMoments.from_covariances(
        sg,
        np.zeros(n),
        np.zeros(n),
        cx @ lap.T,
        lap @ cx @ lap.T + sigma2 * np.eye(n),
    )
    want = almmse(sg, beta, sigma2).dense.gain
    assert np.max(np.abs(sample_lmmse(m).gain - want)) < 1e-8
    assert np.max(np.abs(gsp_lmmse(m).dense.gain - want)) < 1e-8
