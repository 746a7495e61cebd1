"""Training sets and sample moments for estimator construction.

Training data are pairs of prior draws and their noiseless forward values;
measurement noise never enters the samples. It is white with a known variance
``sigma2``, so it is added analytically, in place, to the diagonal of the
measurement covariance; no noise matrix is built. Moments are accumulated in
one chunked pass, centered on the first sample to limit cancellation, and
finished in their accumulators; the result must match the naive two-pass
formulas to high precision.

:func:`stream_moments` is the same pass fed one freshly drawn chunk of at
most ``_CHUNK`` rows at a time: O(chunk * N) memory instead of
O(count * N), and moments bitwise equal to ``compute_moments(generate(...))``,
which cuts the materialised set at the same chunk boundaries.

The frequency-domain diagonals are extracted from the finished vertex-domain
covariances as ``diag(V^T C V)`` (:func:`_freq_diag`), once per pass, rather
than accumulated from per-row graph transforms; the tests check them against
the naive Hadamard sums of centered GFT coefficients.

:func:`population_moments` gives the AC model's moments exactly, in closed
form, with no draws: the limit that the sample moments converge to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import SingularMomentsError
from .graphs import SpectralGraph
from .models import AcGridModel, MeasurementModel, SmoothPrior, _draw_prior
from .rng import generator

# Most rows per prior draw, forward map and accumulation step; moving the
# chunk boundaries changes the rounding of the moments.
_CHUNK = 2048


@dataclass(frozen=True)
class TrainingSet:
    """Prior draws ``x`` with noiseless forward values ``g`` (rows aligned).

    Regenerable bit-exactly from (model, seed, count); carries the model's
    known prior mean, which the estimators use as their base point (second
    moments are sample-mean centered and never see it).
    """

    sg: SpectralGraph
    x: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    x_mean: np.ndarray = field(repr=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        g = np.asarray(self.g, dtype=float)
        n = self.sg.n_vertices
        if x.ndim != 2 or x.shape != g.shape or x.shape[1] != n:
            raise ValueError("x and g must be aligned (count, n_vertices) arrays")
        if x.shape[0] < 2:
            raise ValueError("need at least two samples")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "x_mean", np.asarray(self.x_mean, dtype=float))

    @property
    def count(self) -> int:
        return self.x.shape[0]

    def write_csv(self, x_path, g_path) -> None:
        """Write the pair as plain numeric CSVs (%.17g, count rows)."""
        _write_csv_pair(x_path, g_path, [(self.x, self.g)])


def _write_csv_pair(x_path, g_path, chunks) -> None:
    with open(x_path, "w") as fx, open(g_path, "w") as fg:
        for x, g in chunks:
            np.savetxt(fx, x, fmt="%.17g", delimiter=",")
            np.savetxt(fg, g, fmt="%.17g", delimiter=",")


def _read_rows(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        # loadtxt only warns on a file with no data lines (blank or comments)
        if not any(line.partition("#")[0].strip() for line in fh):
            raise ValueError(f"no rows in {path}")
        fh.seek(0)
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def read_training_csv(
    sg: SpectralGraph, x_path, g_path, x_mean: np.ndarray | None = None
) -> TrainingSet:
    """Read back a CSV pair written by :meth:`TrainingSet.write_csv`;
    ``ValueError`` if a file has no rows or is not UTF-8, or a value is not
    finite."""
    x, g = (_read_rows(path) for path in (x_path, g_path))
    if not (np.isfinite(x).all() and np.isfinite(g).all()):
        raise ValueError("training data must be finite")
    mean = np.zeros(sg.n_vertices) if x_mean is None else x_mean
    return TrainingSet(sg, x, g, mean)


def generate(model: MeasurementModel, count: int, seed: int) -> TrainingSet:
    """Draw ``count`` prior samples on the model's graph and push them
    through the forward map; ``TrainingSet`` rejects fewer than two."""
    x = model.sample_x(count, seed)
    g = model.forward(x)
    return TrainingSet(model.sg, x, np.asarray(g, dtype=float), model.mean_x)


def _chunk_bounds(count: int):
    """``(start, stop)`` of near-equal chunks of at most ``_CHUNK`` rows.

    None is short: BLAS multiplies a few rows on another path (gemv for one
    row), which rounds differently from the product of the whole set.
    """
    pieces = -(-count // _CHUNK)
    edges = [i * count // pieces for i in range(pieces + 1)]
    return zip(edges[:-1], edges[1:])


def _training_chunks(model: MeasurementModel, count: int, seed: int):
    """``generate(model, count, seed)`` as ``(x, g)`` chunks cut at
    :func:`_chunk_bounds`, bit for bit: each chunk is drawn and pushed
    through the forward map only when the previous one has been consumed and
    released."""
    if count < 2:
        raise ValueError("need at least two samples")
    rng = generator(seed, "prior")
    for start, stop in _chunk_bounds(count):
        x = _draw_prior(model.prior, rng, stop - start)
        yield x, np.asarray(model.forward(x), dtype=float)
        del x


def write_training_csv(model: MeasurementModel, count: int, seed: int, x_path, g_path) -> None:
    """Write ``generate(model, count, seed)`` one draw chunk at a time; the
    files are byte-identical to :meth:`TrainingSet.write_csv`."""
    _write_csv_pair(x_path, g_path, _training_chunks(model, count, seed))


@dataclass(frozen=True)
class SampleMoments:
    """First and second sample moments with analytic noise folded in.

    ``cross_cov``/``y_cov`` are the vertex-domain matrices; the frequency
    diagonals are their GFT counterparts ``diag(V^T C V)``. The white-noise
    variance ``sigma2`` is in every diagonal entry of ``y_cov`` and so in
    every entry of ``freq_var_diag``; it is not kept on its own.
    """

    sg: SpectralGraph
    count: int
    x_mean: np.ndarray = field(repr=False)
    y_mean: np.ndarray = field(repr=False)
    cross_cov: np.ndarray = field(repr=False)
    y_cov: np.ndarray = field(repr=False)
    freq_cross_diag: np.ndarray = field(repr=False)
    freq_var_diag: np.ndarray = field(repr=False)

    @classmethod
    def from_covariances(
        cls,
        sg: SpectralGraph,
        x_mean: np.ndarray,
        y_mean: np.ndarray,
        cross_cov: np.ndarray,
        y_cov: np.ndarray,
        count: int = 0,
    ) -> "SampleMoments":
        """Build a moments object from externally supplied (e.g. analytic)
        covariances; ``y_cov`` must already include any noise term."""
        cross_cov, y_cov = np.asarray(cross_cov, float), np.asarray(y_cov, float)
        return cls(
            sg,
            count,
            np.asarray(x_mean, float),
            np.asarray(y_mean, float),
            cross_cov,
            y_cov,
            _freq_diag(sg.eigenvectors, cross_cov),
            _freq_diag(sg.eigenvectors, y_cov),
        )


def compute_moments(ts: TrainingSet, sigma2: float) -> SampleMoments:
    """Sample moments of a training set with the noise term added analytically.

    ``sigma2`` is the variance of the white measurement noise; it is added
    to the diagonal of ``y_cov``. Second moments center both ``x`` and ``g``
    on their sample means; the known prior mean never enters them and
    survives only as the estimator base point.
    """
    chunks = (
        (ts.x[start:stop].copy(), ts.g[start:stop].copy())
        for start, stop in _chunk_bounds(ts.count)
    )
    return _accumulate(ts.sg, ts.x_mean, sigma2, chunks)


def stream_moments(model: MeasurementModel, count: int, seed: int) -> SampleMoments:
    """``compute_moments(generate(model, count, seed), model.sigma2)``,
    bitwise, without ever holding the training set: each chunk is drawn,
    pushed through the forward map and accumulated before the next."""
    chunks = _training_chunks(model, count, seed)
    return _accumulate(model.sg, model.mean_x, model.sigma2, chunks)


def _freq_diag(v: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """``diag(V^T C V)``, the graph-frequency diagonal of ``C``, in O(N^3)."""
    prod = cov @ v
    return np.sum(np.multiply(prod, v, out=prod), axis=0)


def _accumulate(sg, x_mean, sigma2, chunks) -> SampleMoments:
    """One moment pass over ``(x, g)`` row chunks, centered on the first row.
    The chunks are scratch: they are centered in place and released before
    the next one is drawn."""
    n = sg.n_vertices

    p = 0
    sum_dx = np.zeros(n)
    sum_dg = np.zeros(n)
    ss_xg = np.zeros((n, n))
    ss_gg = np.zeros((n, n))
    for x, g in chunks:
        if p == 0:
            x_ref, g_ref = x[0].copy(), g[0].copy()
        dx = np.subtract(x, x_ref, out=x)
        dg = np.subtract(g, g_ref, out=g)
        p += len(dx)
        sum_dx += dx.sum(axis=0)
        sum_dg += dg.sum(axis=0)
        ss_xg += dx.T @ dg
        ss_gg += dg.T @ dg
        del x, g, dx, dg

    mean_dx = sum_dx / p
    mean_dg = sum_dg / p
    for ss, mean in ((ss_xg, mean_dx), (ss_gg, mean_dg)):
        ss /= p
        ss -= np.outer(mean, mean_dg)
    ss_gg.flat[::n + 1] += sigma2
    return SampleMoments.from_covariances(
        sg, np.array(x_mean, dtype=float), g_ref + mean_dg, ss_xg, ss_gg, p
    )


def population_moments(grid: AcGridModel, prior: SmoothPrior, sigma2: float) -> SampleMoments:
    """Exact moments of ``ac_power(grid, x) + w`` for ``x`` drawn from the
    zero-mean Gaussian ``prior`` and white ``w`` of variance ``sigma2``.

    Over the branches ``s = (i, j)`` with phase differences ``d = D x``
    (signed incidence ``D``), injections are ``|D|^T (g cos d) + D^T (b sin d)``
    with ``g``, ``b`` scaled by ``u_i u_j``. The Gaussian characteristic
    function ``E cos z = exp(-Var z / 2)`` gives ``E cos(d_s -+ d_t)`` as
    ``K+-``; Stein's lemma gives ``E[x sin d_s] = Cov(x, d_s) E cos d_s``.
    Each ``K+-`` is one ``exp``, which stays finite where split factors
    would overflow.
    """
    i, j = grid.i, grid.j
    t, n = len(i), grid.n_buses
    uu = grid.voltage[i] * grid.voltage[j]
    g, b = grid.conductance * uu, grid.susceptance * uu
    rows = np.tile(np.arange(t), 2)
    d = sparse.csr_array((np.repeat([1.0, -1.0], t), (rows, np.concatenate((i, j)))), (t, n))
    d_abs = abs(d)
    c = prior.covariance()
    c_xd = c[:, i] - c[:, j]  # Cov(x, d) = C D^T
    c_dd = c_xd[i] - c_xd[j]  # Cov(d) = D C D^T
    v = np.diag(c_dd)
    e = np.exp(-0.5 * v)
    half = -0.5 * (v[:, None] + v)
    k_plus, k_minus = np.exp(half + c_dd), np.exp(half - c_dd)
    cos_cov = np.outer(g, g) * (0.5 * (k_plus + k_minus) - np.outer(e, e))
    sin_cov = np.outer(b, b) * (0.5 * (k_plus - k_minus))
    y_cov = d_abs.T @ (d_abs.T @ cos_cov).T + d.T @ (d.T @ sin_cov).T
    y_cov.flat[::n + 1] += sigma2
    cross_cov = (d.T @ (c_xd * (b * e)).T).T
    return SampleMoments.from_covariances(prior.sg, prior.mean, d_abs.T @ (g * e), cross_cov, y_cov)


def require_positive_freq_var(m: SampleMoments) -> None:
    """Spectral estimators divide by the frequency variances; reject zeros
    and NaN."""
    if not (m.freq_var_diag > 0).all():
        bad = int(np.argmin(m.freq_var_diag))
        raise SingularMomentsError(
            f"frequency variance {m.freq_var_diag[bad]:.3e} at index {bad} "
            "is not positive"
        )
