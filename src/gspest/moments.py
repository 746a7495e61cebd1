"""Training sets and sample moments for estimator construction.

Training data are pairs of prior draws and their noiseless forward values;
measurement noise never enters the samples and is instead added analytically
to the second moments (its covariance is known). Moments are accumulated in
one chunked pass, centered on the first sample to limit cancellation; the
result must match the naive two-pass formulas to high precision.

:func:`stream_moments` is the same pass fed one freshly drawn chunk of at
most ``_CHUNK`` rows at a time: O(chunk * N) memory instead of
O(count * N), and moments bitwise equal to ``compute_moments(generate(...))``,
which cuts the materialised set at the same chunk boundaries.

The frequency-domain diagonals are extracted from the finished vertex-domain
covariances as ``diag(V^T C V)`` (:func:`_freq_diag`), once per pass, rather
than accumulated from per-row graph transforms; the tests check them against
the naive Hadamard sums of centered GFT coefficients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import SingularMomentsError
from .graphs import SpectralGraph
from .models import MeasurementModel, NoiseModel, _draw_prior
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
    seed: int = 0

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


def read_training_csv(
    sg: SpectralGraph, x_path, g_path, x_mean: np.ndarray | None = None
) -> TrainingSet:
    """Read back a CSV pair written by :meth:`TrainingSet.write_csv`."""
    x = np.loadtxt(x_path, delimiter=",", ndmin=2)
    g = np.loadtxt(g_path, delimiter=",", ndmin=2)
    mean = np.zeros(sg.n_vertices) if x_mean is None else x_mean
    return TrainingSet(sg, x, g, mean)


def generate(
    model: MeasurementModel, sg: SpectralGraph, count: int, seed: int
) -> TrainingSet:
    """Draw ``count`` prior samples and push them through the forward map."""
    if sg is not model.sg and not np.array_equal(sg.laplacian, model.sg.laplacian):
        raise ValueError("sg does not match the model's graph")
    if count < 2:
        raise ValueError("need at least two samples")
    x = model.sample_x(count, seed)
    g = model.forward(x)
    return TrainingSet(sg, x, np.asarray(g, dtype=float), model.mean_x, seed=seed)


def _chunk_bounds(count: int):
    """``(start, stop)`` of near-equal chunks of at most ``_CHUNK`` rows.

    None is short: BLAS multiplies a few rows on another path (gemv for one
    row), which rounds differently from the product of the whole set.
    """
    pieces = -(-count // _CHUNK)
    edges = [i * count // pieces for i in range(pieces + 1)]
    return zip(edges[:-1], edges[1:])


def _training_chunks(model: MeasurementModel, count: int, seed: int):
    """``generate(model, model.sg, count, seed)`` as ``(x, g)`` chunks cut at
    :func:`_chunk_bounds`, bit for bit: each chunk is drawn and pushed
    through the forward map only when the previous one has been consumed."""
    if count < 2:
        raise ValueError("need at least two samples")
    rng = generator(seed, "prior")
    for start, stop in _chunk_bounds(count):
        x = _draw_prior(model.prior, rng, stop - start)
        yield x, np.asarray(model.forward(x), dtype=float)


def write_training_csv(model: MeasurementModel, count: int, seed: int, x_path, g_path) -> None:
    """Write ``generate(model, model.sg, count, seed)`` one draw chunk at a
    time; the files are byte-identical to :meth:`TrainingSet.write_csv`."""
    _write_csv_pair(x_path, g_path, _training_chunks(model, count, seed))


@dataclass(frozen=True)
class SampleMoments:
    """First and second sample moments with analytic noise folded in.

    ``cross_cov``/``y_cov`` are the vertex-domain matrices; the frequency
    diagonals are their GFT counterparts ``diag(V^T C V)``. ``y_cov`` and
    ``freq_var_diag`` both include the noise contribution.
    """

    sg: SpectralGraph
    count: int
    x_mean: np.ndarray = field(repr=False)
    y_mean: np.ndarray = field(repr=False)
    cross_cov: np.ndarray = field(repr=False)
    y_cov: np.ndarray = field(repr=False)
    freq_cross_diag: np.ndarray = field(repr=False)
    freq_var_diag: np.ndarray = field(repr=False)
    noise_cov: np.ndarray = field(repr=False)

    @classmethod
    def from_covariances(
        cls,
        sg: SpectralGraph,
        x_mean: np.ndarray,
        y_mean: np.ndarray,
        cross_cov: np.ndarray,
        y_cov: np.ndarray,
        noise_cov: np.ndarray | None = None,
        count: int = 0,
    ) -> "SampleMoments":
        """Build a moments object from externally supplied (e.g. analytic)
        covariances; ``y_cov`` must already include any noise term."""
        n = sg.n_vertices
        noise = np.zeros((n, n)) if noise_cov is None else np.asarray(noise_cov, float)
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
            noise,
        )

    def to_json(self) -> str:
        # every field after sg and count is an array
        arrays = {f.name: getattr(self, f.name).tolist() for f in fields(self)[2:]}
        return json.dumps({"count": int(self.count), **arrays})

    @classmethod
    def from_json(cls, text: str, sg: SpectralGraph) -> "SampleMoments":
        doc = json.loads(text)
        arrays = {f.name: np.asarray(doc[f.name], float) for f in fields(cls)[2:]}
        return cls(sg, int(doc["count"]), **arrays)


def compute_moments(ts: TrainingSet, noise_cov) -> SampleMoments:
    """Sample moments of a training set with the noise term added analytically.

    ``noise_cov`` is the measurement-noise covariance matrix (or a
    NoiseModel). Second moments center both ``x`` and ``g`` on their sample
    means; the known prior mean never enters them and survives only as the
    estimator base point.
    """
    chunks = (
        (ts.x[start:stop].copy(), ts.g[start:stop].copy())
        for start, stop in _chunk_bounds(ts.count)
    )
    return _accumulate(ts.sg, ts.x_mean, noise_cov, chunks)


def stream_moments(model: MeasurementModel, count: int, seed: int) -> SampleMoments:
    """``compute_moments(generate(model, model.sg, count, seed), model.noise)``,
    bitwise, without ever holding the training set: each chunk is drawn,
    pushed through the forward map and accumulated before the next."""
    chunks = _training_chunks(model, count, seed)
    return _accumulate(model.sg, model.mean_x, model.noise, chunks)


def _freq_diag(v: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """``diag(V^T C V)``, the graph-frequency diagonal of ``C``, in O(N^3)."""
    return np.sum(v * (cov @ v), axis=0)


def _accumulate(sg, x_mean, noise_cov, chunks) -> SampleMoments:
    """One moment pass over ``(x, g)`` row chunks, centered on the first row.
    The chunks are scratch: they are centered in place."""
    if isinstance(noise_cov, NoiseModel):
        noise_cov = noise_cov.covariance
    noise_cov = np.asarray(noise_cov, dtype=float)
    n = sg.n_vertices
    if noise_cov.shape != (n, n):
        raise ValueError("noise covariance has wrong shape")

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

    mean_dx = sum_dx / p
    mean_dg = sum_dg / p
    return SampleMoments.from_covariances(
        sg,
        np.array(x_mean, dtype=float),
        g_ref + mean_dg,
        ss_xg / p - np.outer(mean_dx, mean_dg),
        ss_gg / p - np.outer(mean_dg, mean_dg) + noise_cov,
        noise_cov,
        p,
    )


def require_positive_freq_var(m: SampleMoments) -> None:
    """Spectral estimators divide by the frequency variances; reject zeros."""
    if np.any(m.freq_var_diag <= 0):
        bad = int(np.argmin(m.freq_var_diag))
        raise SingularMomentsError(
            f"frequency variance {m.freq_var_diag[bad]:.3e} at index {bad} "
            "is not positive"
        )
