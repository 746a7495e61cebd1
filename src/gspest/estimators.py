"""Linear and spectral estimators of graph signals from noisy measurements.

All estimators here are affine maps ``xhat = x_mean + A (y - y_center)``.
The unconstrained sample estimator inverts the full measurement covariance;
the spectral family constrains ``A`` to be a graph filter
``V diag(h) V^T``, which needs only the per-frequency moment diagonals. The
per-frequency gain that minimizes the mean squared error is the ratio of the
cross diagonal to the variance diagonal; parametric filters (``lpi``,
``arma``, ``linear``, ``lr-arma``) are fitted to the same objective, which
for any filter family reduces to variance-weighted least squares against
that ratio.

Coefficient fits: the pseudo-inverse polynomial fit is a regularized normal
equation (with a least-squares fallback when ill-conditioned); rational fits
profile out the numerator (closed form given the denominator) and search the
denominator coefficients with Nelder-Mead. Denominators that vanish on the
spectrum are rejected inside the search by giving them an infinite
objective.

The rational search settings are fixed: both coefficient vectors are
penalized by ``mu`` times their squared norm (identity regularizers), the
denominator tail starts at zero (the polynomial filter) with an initial
simplex of side 0.1, and Nelder-Mead stops after 2000 iterations or 8000
objective evaluations, or once the simplex spans less than 1e-10 in
objective value and 1e-8 in coefficients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from .errors import SingularMomentsError, UnstableFilterError
from .filters import (
    FilterSpec,
    denominator_tolerance,
    response_at,
    spec_from_json,
    spec_to_json,
    vandermonde,
    lpi_basis,
)
from .graphs import ReducedSpectrum, SpectralGraph, _filter_operator
from .moments import SampleMoments, require_positive_freq_var

# Condition-number ceiling for direct solves of moment systems.
COND_LIMIT = 1e12
# Nelder-Mead settings of the rational fits (see the module docstring).
_MAX_ITER = 2000
_F_TOL = 1e-10
_SIMPLEX_STEP = 0.1


@dataclass(frozen=True)
class LinearEstimator:
    """Affine estimator ``xhat = x_mean + gain @ (y - y_center)``."""

    label: str
    x_mean: np.ndarray = field(repr=False)
    gain: np.ndarray = field(repr=False)
    y_center: np.ndarray = field(repr=False)

    def __post_init__(self):
        x_mean = np.asarray(self.x_mean, dtype=float)
        gain = np.asarray(self.gain, dtype=float)
        y_center = np.asarray(self.y_center, dtype=float)
        if gain.ndim != 2 or gain.shape != (x_mean.size, y_center.size):
            raise ValueError("gain shape must be (len(x_mean), len(y_center))")
        object.__setattr__(self, "x_mean", x_mean)
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "y_center", y_center)

    def estimate(self, y: np.ndarray) -> np.ndarray:
        """Estimate from one measurement vector or rows of them."""
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != self.y_center.size:
            raise ValueError("measurement length mismatch")
        return self.x_mean + (y - self.y_center) @ self.gain.T


@dataclass(frozen=True)
class FittedGspEstimator:
    """A spectral estimator whose frequency response comes from a fitted
    parametric filter; behaves like its ``base`` affine estimator."""

    base: LinearEstimator
    spec: FilterSpec
    fitted_response: np.ndarray = field(repr=False)
    mu: float = 0.0
    converged: bool = True

    @property
    def label(self) -> str:
        return self.base.label

    def estimate(self, y: np.ndarray) -> np.ndarray:
        return self.base.estimate(y)


def _spectral_estimator(
    m: SampleMoments, response: np.ndarray, label: str
) -> LinearEstimator:
    gain = _filter_operator(m.sg.eigenvectors, response)
    return LinearEstimator(label, m.x_mean, gain, m.y_mean)


def sample_lmmse(m: SampleMoments, label: str = "sample-lmmse") -> LinearEstimator:
    """Unconstrained affine estimator from the full sample covariances.

    Raises SingularMomentsError when the measurement covariance is too
    ill-conditioned for a direct solve; no pseudo-inverse is substituted.
    """
    cond = np.linalg.cond(m.y_cov)
    if not np.isfinite(cond) or cond >= COND_LIMIT:
        raise SingularMomentsError(
            f"measurement covariance condition number {cond:.3e} exceeds "
            f"{COND_LIMIT:.0e}"
        )
    gain = np.linalg.solve(m.y_cov, m.cross_cov.T).T
    return LinearEstimator(label, m.x_mean, gain, m.y_mean)


def sample_diag_lmmse(m: SampleMoments, label: str = "sample-dlmmse") -> LinearEstimator:
    """Vertex-domain diagonal variant: per-vertex gains only."""
    var = np.diag(m.y_cov)
    if np.any(var <= 0):
        raise SingularMomentsError("non-positive vertex variance")
    gain = np.diag(np.diag(m.cross_cov) / var)
    return LinearEstimator(label, m.x_mean, gain, m.y_mean)


def gsp_response(m: SampleMoments) -> np.ndarray:
    """Per-frequency MSE-optimal gain: cross diagonal over variance diagonal."""
    require_positive_freq_var(m)
    return m.freq_cross_diag / m.freq_var_diag


def gsp_lmmse(m: SampleMoments, label: str = "gsp-lmmse") -> LinearEstimator:
    """Spectral estimator with the nonparametric per-frequency gain."""
    return _spectral_estimator(m, gsp_response(m), label)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    d = np.diag(mat)
    if np.array_equal(mat, np.diag(d)):
        if np.any(d < 0):
            raise ValueError("regularizer must be positive semidefinite")
        return np.diag(np.sqrt(d))
    w, u = np.linalg.eigh(mat)
    if np.any(w < -1e-12 * max(w.max(), 1.0)):
        raise ValueError("regularizer must be positive semidefinite")
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T


def default_lpi_regularizer(sg: SpectralGraph, order: int) -> np.ndarray:
    """Diagonal penalty growing as powers of the largest eigenvalue, damping
    high pseudo-inverse powers."""
    lam_max = float(sg.eigenvalues[-1])
    powers = np.empty(order + 1)
    powers[0] = 1.0
    for k in range(1, order + 1):
        powers[k] = powers[k - 1] * lam_max
    return np.diag(powers)


def lpi_coefficients(
    m: SampleMoments,
    sg: SpectralGraph,
    order: int = 6,
    mu: float = 1e-3,
    reg: np.ndarray | None = None,
) -> np.ndarray:
    """Pseudo-inverse polynomial taps by regularized weighted least squares
    against the per-frequency optimal gain.

    Closed form: solve ``(B^T D B + mu R) taps = B^T d`` with ``B`` the
    inverse-power basis, ``D``/``d`` the moment diagonals. Falls back to a
    stacked least-squares solve of the same quadratic program when the
    normal matrix is ill-conditioned.
    """
    require_positive_freq_var(m)
    basis = lpi_basis(sg, order)
    reg = default_lpi_regularizer(sg, order) if reg is None else np.asarray(reg, float)
    if reg.shape != (order + 1, order + 1):
        raise ValueError("regularizer has wrong shape")
    dvec = m.freq_cross_diag
    dvar = m.freq_var_diag
    normal = basis.T @ (dvar[:, None] * basis) + mu * reg
    rhs = basis.T @ dvec
    cond = np.linalg.cond(normal)
    if np.isfinite(cond) and cond < COND_LIMIT:
        return np.linalg.solve(normal, rhs)
    sqrt_w = np.sqrt(dvar)
    rows = np.vstack([sqrt_w[:, None] * basis, np.sqrt(mu) * _psd_sqrt(reg)])
    target = np.concatenate([dvec / sqrt_w, np.zeros(order + 1)])
    taps, *_ = np.linalg.lstsq(rows, target, rcond=None)
    return taps


def fit_lpi(
    m: SampleMoments,
    sg: SpectralGraph,
    order: int = 6,
    mu: float = 1e-3,
    reg: np.ndarray | None = None,
    label: str = "lpi-gsp",
) -> FittedGspEstimator:
    """Spectral estimator with :func:`lpi_coefficients` taps."""
    taps = lpi_coefficients(m, sg, order, mu, reg)
    resp = lpi_basis(sg, order) @ taps
    return FittedGspEstimator(
        _spectral_estimator(m, resp, label), FilterSpec.lpi(taps), resp, mu
    )


def _profiled_numerator(
    a_tail: np.ndarray,
    phi_num: np.ndarray,
    phi_den: np.ndarray,
    dvec: np.ndarray,
    dvar: np.ndarray,
    mu: float,
    num_reg: np.ndarray,
    lam_max: float,
):
    """Closed-form numerator coefficients for a fixed denominator tail, and
    the profiled objective value. Returns (value, coeffs) or (inf, None) when
    the denominator vanishes on the spectrum or the inner solve fails."""
    den_coeffs = np.concatenate([[1.0], a_tail])
    den = phi_den @ den_coeffs
    if np.any(np.abs(den) <= denominator_tolerance(den_coeffs, lam_max)):
        return np.inf, None
    scaled = phi_num / den[:, None]
    gram = scaled.T @ (dvar[:, None] * scaled) + mu * num_reg
    rhs = scaled.T @ dvec
    try:
        coeffs = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.inf, None
    if not np.all(np.isfinite(coeffs)):
        return np.inf, None
    value = -float(rhs @ coeffs)
    return value, coeffs


def _fit_rational(
    eigenvalues: np.ndarray,
    dvec: np.ndarray,
    dvar: np.ndarray,
    num_order: int,
    den_order: int,
    mu: float,
):
    lam = np.asarray(eigenvalues, dtype=float)
    lam_max = float(np.max(lam))
    phi_num = vandermonde(lam, num_order)
    phi_den = vandermonde(lam, den_order)
    num_reg = np.eye(num_order + 1)

    if den_order == 0:
        value, coeffs = _profiled_numerator(
            np.empty(0), phi_num, phi_den, dvec, dvar, mu, num_reg, lam_max
        )
        if coeffs is None:
            raise SingularMomentsError("numerator fit is singular")
        return coeffs, np.ones(1), True

    x0 = np.zeros(den_order)

    def objective(a_tail: np.ndarray) -> float:
        value, _ = _profiled_numerator(
            a_tail, phi_num, phi_den, dvec, dvar, mu, num_reg, lam_max
        )
        if not np.isfinite(value):
            return np.inf
        return value + mu * float(a_tail @ a_tail)

    simplex = np.vstack([x0, x0 + _SIMPLEX_STEP * np.eye(den_order)])
    result = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={
            "maxiter": _MAX_ITER,
            "maxfev": 4 * _MAX_ITER,
            "fatol": _F_TOL,
            "xatol": 1e-8,
            "initial_simplex": simplex,
        },
    )
    a_tail = result.x
    _, coeffs = _profiled_numerator(
        a_tail, phi_num, phi_den, dvec, dvar, mu, num_reg, lam_max
    )
    if coeffs is None:
        raise UnstableFilterError("rational fit ended on a vanishing denominator")
    return coeffs, np.concatenate([[1.0], a_tail]), bool(result.success)


def arma_coefficients(
    m: SampleMoments,
    sg: SpectralGraph,
    num_order: int = 3,
    den_order: int = 3,
    mu: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Rational response coefficients fitted to the per-frequency optimal
    gain: (numerator, denominator, converged).

    The numerator is profiled out in closed form for each candidate
    denominator tail, and the tail is searched by Nelder-Mead starting from
    the all-zero (polynomial) filter. ``den_order=0`` is the closed-form
    polynomial fit.
    """
    require_positive_freq_var(m)
    return _fit_rational(
        sg.eigenvalues, m.freq_cross_diag, m.freq_var_diag, num_order, den_order, mu
    )


def fit_arma(
    m: SampleMoments,
    sg: SpectralGraph,
    num_order: int = 3,
    den_order: int = 3,
    mu: float = 1e-3,
    label: str = "arma-gsp",
) -> FittedGspEstimator:
    """Spectral estimator with :func:`arma_coefficients` (kind ``linear``
    when ``den_order=0``)."""
    numer, denom, converged = arma_coefficients(m, sg, num_order, den_order, mu)
    if den_order == 0:
        spec = FilterSpec.linear(numer)
    else:
        spec = FilterSpec.arma(numer, denom)
    resp = response_at(spec, sg.eigenvalues, sg.zero_tolerance())
    return FittedGspEstimator(
        _spectral_estimator(m, resp, label), spec, resp, mu, converged
    )


def lr_arma_coefficients(
    m: SampleMoments,
    reduced: ReducedSpectrum,
    num_order: int = 2,
    den_order: int = 2,
    mu: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Rational coefficients fitted over the kept low frequencies only."""
    require_positive_freq_var(m)
    kept = reduced.n_kept
    return _fit_rational(
        reduced.eigenvalues,
        m.freq_cross_diag[:kept],
        m.freq_var_diag[:kept],
        num_order,
        den_order,
        mu,
    )


def fit_lr_arma(
    m: SampleMoments,
    reduced: ReducedSpectrum,
    num_order: int = 2,
    den_order: int = 2,
    mu: float = 1e-3,
    label: str = "lr-arma-gsp",
) -> FittedGspEstimator:
    """Spectral estimator whose response is the reduced rational fit below
    the cutoff and identically zero above it."""
    numer, denom, converged = lr_arma_coefficients(m, reduced, num_order, den_order, mu)
    spec = FilterSpec.lr_arma(numer, denom, reduced.n_kept)
    sg = reduced.parent
    resp = response_at(spec, sg.eigenvalues, sg.zero_tolerance())
    return FittedGspEstimator(
        _spectral_estimator(m, resp, label), spec, resp, mu, converged
    )


def almmse(
    sg: SpectralGraph, beta: float, sigma2: float, label: str = "almmse"
) -> LinearEstimator:
    """Training-free baseline: the exact MMSE estimator of the linearized
    measurement model (identity graph filter) under the smooth prior, applied
    around zero."""
    lam = sg.eigenvalues
    pos = lam > sg.zero_tolerance()
    resp = np.zeros_like(lam)
    resp[pos] = beta / (beta * lam[pos] + sigma2)
    gain = _filter_operator(sg.eigenvectors, resp)
    n = sg.n_vertices
    return LinearEstimator(label, np.zeros(n), gain, np.zeros(n))


def _carry(values: np.ndarray, vertex_map: dict[int, int], n_new: int) -> np.ndarray:
    """A per-vertex vector, or a matrix over vertex pairs, on the ``n_new``
    vertices of a changed graph: entries of surviving vertices carry over,
    entries of added vertices are 0."""
    olds = sorted(vertex_map)
    news = [vertex_map[o] for o in olds]
    out = np.zeros((n_new,) * values.ndim)
    out[np.ix_(*[news] * values.ndim)] = values[np.ix_(*[olds] * values.ndim)]
    return out


def update_for_topology(
    fit: FittedGspEstimator,
    new_sg: SpectralGraph,
    vertex_map: dict[int, int] | None = None,
) -> FittedGspEstimator:
    """Re-evaluate a fitted filter's response on a new spectrum without new
    training data.

    The stored coefficients define a scalar response that is evaluated at the
    new eigenvalues; the measurement center carries over (restricted to
    survivors / zero at added vertices when ``vertex_map`` is given), as does
    the prior mean.
    """
    resp = response_at(fit.spec, new_sg.eigenvalues, new_sg.zero_tolerance())
    gain = _filter_operator(new_sg.eigenvectors, resp)
    n_new = new_sg.n_vertices
    if vertex_map is None:
        if fit.base.y_center.size != n_new:
            raise ValueError("vertex_map required when the vertex set changes")
        x_mean, y_center = fit.base.x_mean, fit.base.y_center
    else:
        x_mean = _carry(fit.base.x_mean, vertex_map, n_new)
        y_center = _carry(fit.base.y_center, vertex_map, n_new)
    base = LinearEstimator(fit.base.label, x_mean, gain, y_center)
    return replace(fit, base=base, fitted_response=resp)


def remap_estimator(
    est: LinearEstimator, vertex_map: dict[int, int], n_new: int
) -> LinearEstimator:
    """Carry a stale estimator onto a changed vertex set: gain entries are
    kept where both endpoints survive and zero elsewhere (so removed vertices
    are dropped and added vertices are estimated by the prior mean, here 0)."""
    x_mean, gain, y_center = (
        _carry(a, vertex_map, n_new) for a in (est.x_mean, est.gain, est.y_center)
    )
    return LinearEstimator(est.label, x_mean, gain, y_center)


def estimator_to_json(est) -> str:
    """Serialize a LinearEstimator or FittedGspEstimator."""
    if isinstance(est, FittedGspEstimator):
        doc = {
            "label": est.base.label,
            "x_mean": est.base.x_mean.tolist(),
            "gain": est.base.gain.tolist(),
            "y_center": est.base.y_center.tolist(),
            "filter": json.loads(spec_to_json(est.spec)),
            "fitted_response": est.fitted_response.tolist(),
            "mu": est.mu,
            "converged": est.converged,
        }
    else:
        doc = {
            "label": est.label,
            "x_mean": est.x_mean.tolist(),
            "gain": est.gain.tolist(),
            "y_center": est.y_center.tolist(),
        }
    return json.dumps(doc)


def estimator_from_json(text: str):
    """Inverse of :func:`estimator_to_json`; round trips bit-exactly."""
    doc = json.loads(text)
    base = LinearEstimator(
        doc["label"],
        np.asarray(doc["x_mean"], float),
        np.asarray(doc["gain"], float),
        np.asarray(doc["y_center"], float),
    )
    if "filter" not in doc:
        return base
    return FittedGspEstimator(
        base,
        spec_from_json(json.dumps(doc["filter"])),
        np.asarray(doc["fitted_response"], float),
        float(doc["mu"]),
        bool(doc["converged"]),
    )
