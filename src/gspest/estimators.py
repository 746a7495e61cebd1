"""Linear and spectral estimators of graph signals from noisy measurements.

All estimators here are affine maps ``xhat = x_mean + A (y - y_center)``.
The unconstrained sample estimators store ``A`` as an N x N gain; the
spectral family constrains ``A`` to be a graph filter ``V diag(h) V^T``,
which needs only the per-frequency moment diagonals, and stores only ``h``
(:class:`SpectralEstimator`, applied in the frequency domain). The
per-frequency gain that minimizes the mean squared error is the ratio of the
cross diagonal to the variance diagonal; parametric filters (``lpi``,
``arma``, ``linear``, ``lr-arma``) are fitted to the same objective, which
for any filter family reduces to variance-weighted least squares against
that ratio. A fitted filter's response is always ``filters.response`` of its
``spec`` on the graph, when it is fitted and when
:func:`update_for_topology` re-evaluates it on a changed graph.

JSON: a :class:`LinearEstimator` is written with its ``gain`` (per-vertex
for ``sample-dlmmse``), a spectral estimator with its ``response`` (no
``gain``, no graph: reading it takes the graph it was fitted on). Any
document with a ``gain``, also a fitted or a dense diagonal ``sample-dlmmse``
one written by earlier versions, loads as a :class:`LinearEstimator`.

Coefficient fits: each family has one solve path. The pseudo-inverse
polynomial fit is one stacked least-squares solve of its regularized
weighted problem. Rational fits profile out the numerator (variable
projection: a closed-form regularized solve given the denominator) and
search the denominator coefficients with Nelder-Mead; the polynomial case
(no denominator) is the profile at the empty tail, without a search.
Denominators that vanish on the spectrum are rejected inside the search by
giving them an infinite objective. The search is this module's
:func:`minimize`, which takes the steps of SciPy's Nelder-Mead bit for bit,
so no fit needs SciPy.

The rational search settings are fixed: both coefficient vectors are
penalized by ``mu`` times their squared norm (identity regularizers), the
denominator tail starts at zero (the polynomial filter) with an initial
simplex of side 0.1, and Nelder-Mead stops after ``200 n`` iterations
(SciPy's default for ``n`` denominator coefficients) or ``800 n`` objective
evaluations, or once the simplex spans at most 1e-10 in objective value and
1e-8 in coefficients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import SingularMomentsError, UnstableFilterError
from .filters import (
    FilterSpec,
    denominator_tolerance,
    response,
    spec_from_json,
    spec_to_json,
    vandermonde,
    lpi_basis,
)
from .graphs import SpectralGraph, _filter_operator, gft, igft
from .moments import SampleMoments, require_positive_freq_var

# Condition-number ceiling for direct solves of moment systems.
COND_LIMIT = 1e12
# Nelder-Mead settings of the rational fits (see the module docstring).
_ITER_PER_COEFF = 200
_F_TOL = 1e-10
_SIMPLEX_STEP = 0.1


class SearchResult(NamedTuple):
    """End of a :func:`minimize` search: the best vertex ``x``, its value
    ``fun``, the iteration and evaluation counts, and whether it stopped on
    the tolerances rather than on a budget."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool


class _BudgetSpent(Exception):
    pass


def minimize(
    fun, simplex, *, maxiter: int, maxfev: int, xatol: float, fatol: float
) -> SearchResult:
    """Nelder-Mead (Nelder and Mead, Comput. J. 1965) from the given
    ``(n + 1, n)`` initial simplex, with reflection 1, expansion 2 and
    contraction and shrink 1/2.

    It takes the steps of SciPy's ``optimize.minimize(method="Nelder-Mead")``
    with the same ``initial_simplex`` and options, in the same floating-point
    order, so both end on the same bits: ``fun`` gets a copy of each vertex,
    an evaluation past ``maxfev`` ends the iteration it falls in, and the
    search stops once the simplex spans at most ``xatol`` in every coordinate
    and ``fatol`` in value. Returns a :class:`SearchResult`.
    """
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return fun(np.copy(x))

    def by_value(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # sorted twice, as SciPy does: argsort need not keep tied entries in place
    sim, fsim = by_value(*by_value(sim, fsim))
    nit = 1
    while nfev < maxfev and nit < maxiter:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                # contract outside the reflection, or inside toward the worst
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            nit += 1
        except _BudgetSpent:
            pass
        sim, fsim = by_value(sim, fsim)
    success = nfev < maxfev and nit < maxiter
    return SearchResult(sim[0], np.min(fsim), nit, nfev, success)


@dataclass(frozen=True)
class LinearEstimator:
    """Affine estimator ``xhat = x_mean + gain @ (y - y_center)``; a 1-D
    ``gain`` is a diagonal one, applied as ``gain * (y - y_center)``."""

    label: str
    x_mean: np.ndarray = field(repr=False)
    gain: np.ndarray = field(repr=False)
    y_center: np.ndarray = field(repr=False)

    def __post_init__(self):
        x_mean = np.asarray(self.x_mean, dtype=float)
        gain = np.asarray(self.gain, dtype=float)
        y_center = np.asarray(self.y_center, dtype=float)
        diagonal = gain.ndim == 1 and x_mean.size == y_center.size
        if gain.shape != ((x_mean.size,) if diagonal else (x_mean.size, y_center.size)):
            raise ValueError("gain must be (len(x_mean), len(y_center)) or its diagonal")
        object.__setattr__(self, "x_mean", x_mean)
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "y_center", y_center)

    def estimate(self, y: np.ndarray) -> np.ndarray:
        """Estimate from one measurement vector or rows of them."""
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != self.y_center.size:
            raise ValueError("measurement length mismatch")
        out = y - self.y_center
        out = np.multiply(out, self.gain, out=out) if self.gain.ndim == 1 else out @ self.gain.T
        return np.add(out, self.x_mean, out=out)


@dataclass(frozen=True)
class SpectralEstimator:
    """Graph filter ``xhat = x_mean + V diag(response) V^T (y - y_center)``
    on the eigenbasis ``V`` of ``sg``. A fitted filter family also keeps its
    ``spec`` (None for gsp-lmmse and almmse), ``mu`` and ``converged``."""

    label: str
    sg: SpectralGraph = field(repr=False)
    response: np.ndarray = field(repr=False)
    x_mean: np.ndarray = field(repr=False)
    y_center: np.ndarray = field(repr=False)
    spec: FilterSpec | None = None
    mu: float = 0.0
    converged: bool = True

    def __post_init__(self):
        n = self.sg.n_vertices
        for name in ("response", "x_mean", "y_center"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != (n,):
                raise ValueError(f"{name} has shape {value.shape}, not ({n},)")
            object.__setattr__(self, name, value)

    @cached_property
    def _frequency_offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """``(y_center V, x_mean V)``, made on first use only."""
        v = self.sg.eigenvectors
        return self.y_center @ v, self.x_mean @ v

    def frequency_estimate(self, y_freq: np.ndarray) -> np.ndarray:
        """Graph Fourier coefficients ``xhat V`` of the estimate from those
        of the measurements, ``y V``, in a new array."""
        y_center_freq, x_mean_freq = self._frequency_offsets
        out = y_freq - y_center_freq
        np.multiply(out, self.response, out=out)
        return np.add(out, x_mean_freq, out=out)

    def estimate(self, y: np.ndarray) -> np.ndarray:
        """Estimate from one measurement vector or rows of them."""
        return igft(self.sg, self.frequency_estimate(gft(self.sg, y)))

    @cached_property
    def dense(self) -> LinearEstimator:
        """The same estimator with its N x N gain, built on first use only."""
        gain = _filter_operator(self.sg.eigenvectors, self.response)
        return LinearEstimator(self.label, self.x_mean, gain, self.y_center)


def _symmetric_cond(a: np.ndarray) -> float:
    """2-norm condition number of a symmetric matrix from its eigenvalues
    (what ``np.linalg.cond`` gets from an SVD); inf when singular, when an
    entry is not finite, or when the eigenvalues do not converge."""
    if not np.isfinite(a).all():
        return np.inf
    try:
        mags = np.abs(np.linalg.eigvalsh(a))
    except np.linalg.LinAlgError:
        return np.inf
    return float(mags.max() / mags.min()) if mags.min() > 0 else np.inf


def sample_lmmse(m: SampleMoments) -> LinearEstimator:
    """Unconstrained affine estimator from the full sample covariances.

    Raises SingularMomentsError when the measurement covariance is too
    ill-conditioned for a direct solve; no pseudo-inverse is substituted.
    """
    cond = _symmetric_cond(m.y_cov)
    if not np.isfinite(cond) or cond >= COND_LIMIT:
        raise SingularMomentsError(
            f"measurement covariance condition number {cond:.3e} exceeds "
            f"{COND_LIMIT:.0e}"
        )
    gain = np.linalg.solve(m.y_cov, m.cross_cov.T).T
    return LinearEstimator("sample-lmmse", m.x_mean, gain, m.y_mean)


def sample_diag_lmmse(m: SampleMoments) -> LinearEstimator:
    """Vertex-domain diagonal variant: one gain per vertex, kept as a vector."""
    var = np.diag(m.y_cov)
    if not (var > 0).all():
        raise SingularMomentsError("vertex variance is not positive")
    gain = np.diag(m.cross_cov) / var
    return LinearEstimator("sample-dlmmse", m.x_mean, gain, m.y_mean)


def gsp_response(m: SampleMoments) -> np.ndarray:
    """Per-frequency MSE-optimal gain: cross diagonal over variance diagonal."""
    require_positive_freq_var(m)
    return m.freq_cross_diag / m.freq_var_diag


def gsp_lmmse(m: SampleMoments) -> SpectralEstimator:
    """Spectral estimator with the nonparametric per-frequency gain."""
    return SpectralEstimator("gsp-lmmse", m.sg, gsp_response(m), m.x_mean, m.y_mean)


def _filtered(
    label: str, m: SampleMoments, spec: FilterSpec, mu: float, converged: bool
) -> SpectralEstimator:
    """The spectral estimator of a fitted ``spec`` on the moments' graph."""
    return SpectralEstimator(
        label, m.sg, response(spec, m.sg), m.x_mean, m.y_mean, spec, mu, converged
    )


def default_lpi_regularizer(sg: SpectralGraph, order: int) -> np.ndarray:
    """Diagonal penalty growing as powers of the largest eigenvalue, damping
    high pseudo-inverse powers."""
    lam_max = float(sg.eigenvalues[-1])
    powers = np.empty(order + 1)
    powers[0] = 1.0
    for k in range(1, order + 1):
        powers[k] = powers[k - 1] * lam_max
    return np.diag(powers)


def lpi_coefficients(m: SampleMoments, order: int = 6, mu: float = 1e-3) -> np.ndarray:
    """Pseudo-inverse polynomial taps by regularized weighted least squares
    against the per-frequency optimal gain on the moments' graph.

    One stacked least-squares solve of ``[sqrt(D) B; sqrt(mu R)] taps ~
    [d / sqrt(D); 0]``, with ``B`` the inverse-power basis, ``D``/``d`` the
    moment diagonals and ``R`` the :func:`default_lpi_regularizer`. It never
    forms the normal matrix ``B^T D B + mu R``, whose condition number
    reaches 1e12 on the bundled grid. SingularMomentsError when the system
    is not finite.
    """
    require_positive_freq_var(m)
    basis = lpi_basis(m.sg, order)
    reg = default_lpi_regularizer(m.sg, order)
    sqrt_w = np.sqrt(m.freq_var_diag)
    # the regularizer is diagonal, so its square root is elementwise
    rows = np.vstack([sqrt_w[:, None] * basis, np.sqrt(mu) * np.sqrt(reg)])
    target = np.concatenate([m.freq_cross_diag / sqrt_w, np.zeros(order + 1)])
    if not (np.isfinite(rows).all() and np.isfinite(target).all()):
        raise SingularMomentsError("LPI least-squares system is not finite")
    taps, *_ = np.linalg.lstsq(rows, target, rcond=None)
    return taps


def fit_lpi(m: SampleMoments, order: int = 6, mu: float = 1e-3) -> SpectralEstimator:
    """Spectral estimator with :func:`lpi_coefficients` taps."""
    taps = lpi_coefficients(m, order, mu)
    return _filtered("lpi-gsp", m, FilterSpec.lpi(taps), mu, True)


def _fit_rational(eigenvalues, dvec, dvar, num_order: int, den_order: int, mu: float):
    lam = np.asarray(eigenvalues, dtype=float)
    lam_max = float(np.max(lam))
    phi_num = vandermonde(lam, num_order)
    phi_den = vandermonde(lam, den_order)

    def profile(a_tail: np.ndarray):
        """The closed-form numerator for a fixed denominator tail and the
        penalized objective there (inf when not finite): (value, coeffs), or
        (inf, None) when the denominator vanishes on the spectrum or the
        inner solve fails."""
        den_coeffs = np.concatenate([[1.0], a_tail])
        den = phi_den @ den_coeffs
        if np.any(np.abs(den) <= denominator_tolerance(den_coeffs, lam_max)):
            return np.inf, None
        scaled = phi_num / den[:, None]
        gram = scaled.T @ (dvar[:, None] * scaled)
        gram.flat[:: num_order + 2] += mu  # the numerator penalty mu I
        rhs = scaled.T @ dvec
        try:
            coeffs = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            return np.inf, None
        if not np.all(np.isfinite(coeffs)):
            return np.inf, None
        value = -float(rhs @ coeffs) + mu * float(a_tail @ a_tail)
        return (value if np.isfinite(value) else np.inf), coeffs

    a_tail, converged = np.zeros(den_order), True
    # an overflowing profile is inf, and the search's stop test may take inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        if den_order > 0:
            simplex = np.vstack([a_tail, a_tail + _SIMPLEX_STEP * np.eye(den_order)])
            maxiter = _ITER_PER_COEFF * den_order
            result = minimize(
                lambda tail: profile(tail)[0], simplex,
                maxiter=maxiter, maxfev=4 * maxiter, xatol=1e-8, fatol=_F_TOL,
            )
            a_tail, converged = result.x, bool(result.success)
        _, coeffs = profile(a_tail)
    if coeffs is None and den_order == 0:
        raise SingularMomentsError("numerator fit is singular")
    if coeffs is None:
        raise UnstableFilterError("rational fit ended on a vanishing denominator")
    return coeffs, np.concatenate([[1.0], a_tail]), converged


def arma_coefficients(
    m: SampleMoments,
    num_order: int = 3,
    den_order: int = 3,
    mu: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Rational response coefficients fitted to the per-frequency optimal
    gain on the moments' graph: (numerator, denominator, converged).

    The numerator is profiled out in closed form for each candidate
    denominator tail, and the tail is searched by Nelder-Mead starting from
    the all-zero (polynomial) filter. ``den_order=0`` is the closed-form
    polynomial fit.
    """
    require_positive_freq_var(m)
    return _fit_rational(
        m.sg.eigenvalues, m.freq_cross_diag, m.freq_var_diag, num_order, den_order, mu
    )


def fit_arma(
    m: SampleMoments, num_order: int = 3, den_order: int = 3, mu: float = 1e-3
) -> SpectralEstimator:
    """Spectral estimator with :func:`arma_coefficients` (kind ``linear``
    when ``den_order=0``)."""
    numer, denom, converged = arma_coefficients(m, num_order, den_order, mu)
    if den_order == 0:
        spec = FilterSpec.linear(numer)
    else:
        spec = FilterSpec.arma(numer, denom)
    return _filtered("arma-gsp", m, spec, mu, converged)


def lr_arma_coefficients(
    m: SampleMoments,
    cutoff: int,
    num_order: int = 2,
    den_order: int = 2,
    mu: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Rational coefficients fitted over the lowest ``cutoff`` frequencies of
    the moments' graph only."""
    if not 1 <= cutoff <= m.sg.n_vertices:
        raise ValueError(f"cutoff {cutoff} out of range")
    require_positive_freq_var(m)
    return _fit_rational(
        m.sg.eigenvalues[:cutoff], m.freq_cross_diag[:cutoff], m.freq_var_diag[:cutoff],
        num_order, den_order, mu,
    )


def fit_lr_arma(
    m: SampleMoments,
    cutoff: int,
    num_order: int = 2,
    den_order: int = 2,
    mu: float = 1e-3,
) -> SpectralEstimator:
    """Spectral estimator whose response is the reduced rational fit below
    the cutoff and identically zero above it."""
    numer, denom, converged = lr_arma_coefficients(m, cutoff, num_order, den_order, mu)
    spec = FilterSpec.lr_arma(numer, denom, cutoff)
    return _filtered("lr-arma-gsp", m, spec, mu, converged)


def almmse(sg: SpectralGraph, beta: float, sigma2: float) -> SpectralEstimator:
    """Training-free baseline: the exact MMSE estimator of the linearized
    measurement model (identity graph filter) under the smooth prior, applied
    around zero."""
    lam = sg.eigenvalues
    pos = lam > sg.zero_tolerance()
    resp = np.zeros_like(lam)
    with np.errstate(over="ignore"):  # a valid beta (beta / lam finite) may overflow beta * lam
        den = beta * lam[pos] + sigma2
    resp[pos] = np.where(np.isfinite(den), beta / den, 1.0 / (lam[pos] + sigma2 / beta))
    n = sg.n_vertices
    return SpectralEstimator("almmse", sg, resp, np.zeros(n), np.zeros(n))


def _carry(values: np.ndarray, old: np.ndarray) -> np.ndarray:
    """A per-vertex vector, or a matrix over vertex pairs, on the vertices of
    a changed graph, given the old index of each (-1 if added): entries of
    surviving vertices carry over, entries of added vertices are 0."""
    out = values[np.ix_(*[old] * values.ndim)]
    out[old < 0] = out[..., old < 0] = 0.0  # rows, then the columns of a matrix
    return out


def update_for_topology(
    fit: SpectralEstimator,
    new_sg: SpectralGraph,
    vertex_map: np.ndarray | None = None,
) -> SpectralEstimator:
    """Re-evaluate a fitted filter's response on a new spectrum without new
    training data.

    The stored coefficients define a scalar response that is evaluated at the
    new eigenvalues; the measurement center carries over (restricted to
    survivors / zero at added vertices when ``vertex_map``, the old index of
    each new vertex or -1, is given), as does the prior mean.
    """
    if fit.spec is None:
        raise ValueError(f"{fit.label} has no filter to re-evaluate")
    resp = response(fit.spec, new_sg)
    if vertex_map is None:
        if fit.y_center.size != new_sg.n_vertices:
            raise ValueError("vertex_map required when the vertex set changes")
        x_mean, y_center = fit.x_mean, fit.y_center
    else:
        x_mean, y_center = (_carry(a, vertex_map) for a in (fit.x_mean, fit.y_center))
    return replace(fit, sg=new_sg, response=resp, x_mean=x_mean, y_center=y_center)


def remap_estimator(
    est: LinearEstimator | SpectralEstimator, vertex_map: np.ndarray
) -> LinearEstimator:
    """Carry a stale estimator onto a changed vertex set, given the old index
    of each new vertex (-1 if added): gain entries are kept where both
    endpoints survive and zero elsewhere (so removed vertices are dropped and
    added vertices are estimated by the prior mean, here 0). A per-vertex
    gain stays a vector; a spectral estimator uses ``dense``."""
    if isinstance(est, SpectralEstimator):
        est = est.dense
    x_mean, gain, y_center = (_carry(a, vertex_map) for a in (est.x_mean, est.gain, est.y_center))
    return LinearEstimator(est.label, x_mean, gain, y_center)


def estimator_to_json(est: LinearEstimator | SpectralEstimator) -> str:
    """Serialize an estimator (see the module docstring)."""
    doc = {"label": est.label, "x_mean": est.x_mean.tolist(),
           "y_center": est.y_center.tolist()}
    if isinstance(est, LinearEstimator):
        doc["gain"] = est.gain.tolist()
        return json.dumps(doc)
    doc.update(response=est.response.tolist(), mu=est.mu, converged=est.converged)
    if est.spec is not None:
        doc["filter"] = json.loads(spec_to_json(est.spec))
    return json.dumps(doc)


def estimator_from_json(text: str, sg: SpectralGraph | None = None):
    """Inverse of :func:`estimator_to_json`; round trips bit-exactly. A
    spectral estimator is rebuilt on ``sg``; given ``sg``, a linear one must
    have its vertex count. Raises KeyError for a missing field and ValueError
    for any other bad document."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("an estimator must be a JSON object")
    label = doc["label"]
    x_mean, y_center = (np.asarray(doc[k], float) for k in ("x_mean", "y_center"))
    if "gain" in doc:
        if sg is not None and not x_mean.size == y_center.size == sg.n_vertices:
            raise ValueError(f"estimator is not on the graph's {sg.n_vertices} vertices")
        return LinearEstimator(label, x_mean, np.asarray(doc["gain"], float), y_center)
    if sg is None:
        raise ValueError("a spectral estimator needs the graph it was fitted on")
    spec = spec_from_json(json.dumps(doc["filter"])) if "filter" in doc else None
    return SpectralEstimator(
        label, sg, np.asarray(doc["response"], float), x_mean, y_center, spec,
        float(doc["mu"]), bool(doc["converged"]),
    )
