"""Measurement models: AC power flow, linear graph filters, priors, noise.

A measurement model bundles a zero-mean Gaussian prior on a spectral graph,
independent across its graph frequencies, the variance ``sigma2`` of its
additive white Gaussian noise, and the (possibly nonlinear) forward map from
state to noiseless measurements. White noise ``sigma2 I`` is diagonal in every
orthonormal basis, so it is kept as that one scalar, never as a matrix. The
grid model follows the per-unit AC power-flow equations over branch
conductances/susceptances with the graph Laplacian built from the branch
susceptance matrix. Its Laplacian, its connectivity check and its topology
perturbations are those of :mod:`gspest.graphs`. One checked scan of a grid finds
its branches and the sparse stacked admittance that :func:`ac_power` multiplies
by. :func:`ac_power` takes the cosines and sines of the phases from one
``tan`` by the half-angle identity, because numpy runs float64 ``tan`` on SIMD
kernels where it runs ``cos`` and ``sin`` as scalar libm calls.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable

import numpy as np
from scipy import sparse

from .errors import DisconnectedGraphError, InvalidGraphError
from .graphs import (
    SpectralGraph,
    WeightedGraph,
    _filter_operator,
    _laplacian,
    _stays_connected,
    build_laplacian,
    perturb,
)
from .rng import generator


@dataclass(frozen=True)
class SmoothPrior:
    """Zero-mean Gaussian prior with independent graph-frequency components.

    The default construction ``SmoothPrior(sg, beta)`` puts variance
    ``beta / lam_n`` on each positive-eigenvalue frequency and pins the
    zero-frequency coefficient to exactly 0, favouring signals that vary
    slowly over the graph. ``from_variances`` builds the same kind of prior
    with an arbitrary per-frequency variance profile.
    """

    sg: SpectralGraph
    beta: float | None = None
    frequency_variances: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.frequency_variances is None:
            if self.beta is None or self.beta <= 0:
                raise ValueError("beta must be positive")
            lam = self.sg.eigenvalues
            var = np.zeros_like(lam)
            pos = lam > self.sg.zero_tolerance()
            var[pos] = float(self.beta) / lam[pos]
            object.__setattr__(self, "frequency_variances", var)
        else:
            var = np.asarray(self.frequency_variances, dtype=float)
            if var.shape != (self.sg.n_vertices,) or np.any(var < 0):
                raise ValueError("need one non-negative variance per frequency")
            object.__setattr__(self, "frequency_variances", var)

    @classmethod
    def from_variances(cls, sg: SpectralGraph, variances) -> "SmoothPrior":
        return cls(sg, beta=None, frequency_variances=np.asarray(variances, dtype=float))

    @property
    def mean(self) -> np.ndarray:
        return np.zeros(self.sg.n_vertices)

    def covariance(self) -> np.ndarray:
        return _filter_operator(self.sg.eigenvectors, self.frequency_variances)


def sample_prior(prior: SmoothPrior, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` signals (rows) from the prior."""
    if count < 1:
        raise ValueError("count must be positive")
    return _draw_prior(prior, generator(seed, "prior"), count)


def _draw_prior(prior: SmoothPrior, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` prior draws from ``rng``; successive calls on one generator
    use the same normals as one larger call."""
    z = rng.standard_normal((count, prior.sg.n_vertices))
    return (z * np.sqrt(prior.frequency_variances)) @ prior.sg.eigenvectors.T


@dataclass(frozen=True)
class AcGridModel:
    """Per-unit AC grid: symmetric branch conductance/susceptance matrices
    (zero diagonal, entries only on branches) and bus voltage magnitudes.

    The graph Laplacian is built from the susceptance matrix:
    ``L = diag(B 1) - B``.
    """

    conductance: np.ndarray = field(repr=False)
    susceptance: np.ndarray = field(repr=False)
    voltage: np.ndarray = field(repr=False, default=None)
    # from one scan: i < j branches (row-major), sparse [[G, -B], [B, G]] * u_n u_m
    _branches: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    _stacked: sparse.csr_array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.conductance, dtype=float)
        b = np.asarray(self.susceptance, dtype=float)
        if g.shape != b.shape or g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise InvalidGraphError("conductance/susceptance must be square, same shape")
        # one row-major scan of both patterns; m is symmetric iff equal to m.T on it
        i, j = np.divmod(np.flatnonzero((g != 0.0) | (b != 0.0)), g.shape[0])
        for name, m in (("conductance", g), ("susceptance", b)):
            if not np.array_equal(m[i, j], m[j, i]):
                raise InvalidGraphError(f"{name} matrix must be symmetric")
            if np.any(np.diag(m) != 0):
                raise InvalidGraphError(f"{name} matrix must have zero diagonal")
        v = np.ones(g.shape[0]) if self.voltage is None else np.asarray(self.voltage, dtype=float)
        if v.shape != (g.shape[0],) or np.any(v <= 0):
            raise InvalidGraphError("voltage magnitudes must be positive, one per bus")
        object.__setattr__(self, "conductance", g)
        object.__setattr__(self, "susceptance", b)
        object.__setattr__(self, "voltage", v)
        object.__setattr__(self, "_branches", (i[i < j], j[i < j]))
        n, gij, bij = len(v), g[i, j], b[i, j]
        at = np.concatenate((i, i, i + n, i + n)), np.concatenate((j, j + n, j, j + n))
        data = np.concatenate((gij, -bij, bij, gij)) * np.tile(v[i] * v[j], 4)
        object.__setattr__(self, "_stacked", sparse.csr_array((data, at), (2 * n, 2 * n)))

    @property
    def n_buses(self) -> int:
        return self.susceptance.shape[0]

    def laplacian(self) -> np.ndarray:
        return _laplacian(self.susceptance)

    def graph(self) -> WeightedGraph:
        """Susceptance-weighted graph over the branches."""
        i, j = self._branches
        on = self.susceptance[i, j] != 0.0
        return WeightedGraph(self.n_buses, tuple(zip(i[on], j[on], self.susceptance[i[on], j[on]])))

    def branch_values(self) -> tuple[tuple[int, int, float, float], ...]:
        """(i, j, conductance, susceptance) per branch, 0-based, sorted by (i, j)."""
        i, j = self._branches
        return tuple(zip(i.tolist(), j.tolist(), self.conductance[i, j].tolist(),
                         self.susceptance[i, j].tolist()))


def _cos_sin(x: np.ndarray, out: np.ndarray, den: np.ndarray) -> None:
    """Write ``cos x`` over ``sin x`` to ``out`` from one ``tan`` by the
    half-angle identity: with ``t = tan(x / 2)``, ``cos x = (1 - t²) / (1 + t²)``
    and ``sin x = 2t / (1 + t²)``. ``den``, shaped like ``x``, takes ``1 + t²``."""
    c, s = out[:len(x)], out[len(x):]
    np.multiply(x, 0.5, out=s)
    np.tan(s, out=s)
    np.square(s, out=c)
    np.add(c, 1.0, out=den)
    np.subtract(1.0, c, out=c)
    c /= den
    s += s
    s /= den


def ac_power(model: AcGridModel, x: np.ndarray) -> np.ndarray:
    """Active power injections for phase vector(s) ``x`` (radians), 1-D or 2-D.

    ``p_n = sum_m u_n u_m (G_nm cos(x_n - x_m) + B_nm sin(x_n - x_m))`` over
    branches; invariant under adding a constant to all phases. With a column
    ``cs = [cos x; sin x]`` per row and ``S`` the sparse ``[[G, -B], [B, G]]``
    scaled by ``u_n u_m``, it is ``q[:N] + q[N:]`` for ``q = cs * (S @ cs)``:
    O(branches) per row, no BLAS, each entry summed in one fixed order.

    ``cs`` comes from one ``tan`` by the half-angle identity, within a few
    eps of ``np.cos``/``np.sin``: numpy runs float64 ``tan`` on a SIMD
    kernel where the CPU has AVX-512 but ``cos`` and ``sin`` as scalar libm
    calls, so this is several times faster, and its bits follow numpy's
    ``tan`` dispatch (SIMD on AVX-512, libm elsewhere).
    """
    phases = np.asarray(x, dtype=float)
    n = model.n_buses
    if phases.ndim not in (1, 2) or phases.shape[-1] != n:
        raise ValueError(f"phases must be 1-D or 2-D with {n} entries per row")
    # 2**15 phases per block of rows keep its cs and S @ cs in a core's cache
    rows, step = phases.reshape(-1, n), max(1, (1 << 15) // n)
    out = np.empty(rows.shape)
    den = np.empty((n, min(step, len(rows))))
    for a in range(0, len(rows), step):
        block = rows[a:a + step].T
        cs = np.empty((2 * n, block.shape[1]))
        _cos_sin(block, cs, den[:, :block.shape[1]])
        r = model._stacked @ cs
        r *= cs
        np.add(r[:n], r[n:], out=out[a:a + step].T)
    return out[0] if phases.ndim == 1 else out


def load_grid(path) -> AcGridModel:
    """Read a branch CSV ``from,to,conductance,susceptance`` (1-based buses).

    Duplicate branches and disconnected networks are rejected; bus count is
    the largest index seen.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expect = ["from", "to", "conductance", "susceptance"]
        if header is None or [h.strip().lower() for h in header] != expect:
            raise InvalidGraphError(f"bad branch header in {path}: {header}")
        for raw in reader:
            if not raw:
                continue
            if len(raw) != 4:
                raise InvalidGraphError(f"bad branch row {raw}")
            try:
                f, t = int(raw[0]), int(raw[1])
                g, b = float(raw[2]), float(raw[3])
            except ValueError as exc:
                raise InvalidGraphError(f"unparseable branch row {raw}") from exc
            rows.append((f, t, g, b))
    if not rows:
        raise InvalidGraphError(f"no branches in {path}")
    n = max(max(f, t) for f, t, _, _ in rows)
    gmat = np.zeros((n, n))
    bmat = np.zeros((n, n))
    seen = set()
    for f, t, g, b in rows:
        if f == t or f < 1 or t < 1:
            raise InvalidGraphError(f"bad bus pair ({f},{t})")
        if not (np.isfinite(g) and np.isfinite(b)) or g < 0 or b <= 0:
            raise InvalidGraphError(f"bad admittance on branch ({f},{t})")
        key = (min(f, t) - 1, max(f, t) - 1)
        if key in seen:
            raise InvalidGraphError(f"duplicate branch ({f},{t})")
        seen.add(key)
        i, j = key
        gmat[i, j] = gmat[j, i] = g
        bmat[i, j] = bmat[j, i] = b
    grid = AcGridModel(gmat, bmat)
    if not _stays_connected(grid.graph()):
        raise DisconnectedGraphError(f"network in {path} is not connected")
    return grid


def bundled_ieee118() -> AcGridModel:
    """The packaged IEEE 118-bus grid (see tools/make_ieee118_csv.py)."""
    ref = resources.files("gspest").joinpath("data/ieee118_branches.csv")
    with resources.as_file(ref) as path:
        return load_grid(path)


@dataclass(frozen=True)
class MeasurementModel:
    """Forward map plus generating distributions for one estimation problem,
    on the graph of its prior: the prior and white noise of variance
    ``sigma2`` at every vertex."""

    prior: SmoothPrior
    sigma2: float
    forward: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    label: str = "model"

    def __post_init__(self):
        sigma2 = float(self.sigma2)
        if not 0.0 <= sigma2 < np.inf:
            raise ValueError(f"sigma2 must be finite and non-negative, got {sigma2!r}")
        object.__setattr__(self, "sigma2", sigma2)

    @property
    def sg(self) -> SpectralGraph:
        return self.prior.sg

    @property
    def mean_x(self) -> np.ndarray:
        return self.prior.mean

    def sample_x(self, count: int, seed: int) -> np.ndarray:
        return sample_prior(self.prior, count, seed)

    def sample_noise(self, count: int, seed: int) -> np.ndarray:
        """``count`` rows of measurement noise."""
        rng = generator(seed, "noise")
        return rng.standard_normal((count, self.sg.n_vertices)) * np.sqrt(self.sigma2)


def ac_measurement_model(
    grid: AcGridModel, beta: float = 3.0, sigma2: float = 0.05
) -> MeasurementModel:
    """AC power measurements of smooth phase signals with white noise."""
    prior = SmoothPrior(build_laplacian(grid.graph()), beta)
    return MeasurementModel(prior, sigma2, lambda x: ac_power(grid, x), label="ac-power")


def linear_filter_model(
    sg: SpectralGraph,
    spec,
    prior: SmoothPrior | None = None,
    beta: float = 3.0,
    sigma2: float = 0.05,
) -> MeasurementModel:
    """Measurements through a linear graph filter on ``sg`` (see
    gspest.filters) with white noise; a given ``prior`` must be on ``sg``."""
    from .filters import filter_matrix

    if prior is None:
        prior = SmoothPrior(sg, beta)
    elif not np.array_equal(prior.sg.laplacian, sg.laplacian):
        raise ValueError("prior is on another graph than the filter")
    operator = filter_matrix(spec, sg)
    return MeasurementModel(
        prior, sigma2, lambda x: np.asarray(x) @ operator.T, label="linear-filter",
    )


def perturb_grid(
    grid: AcGridModel,
    count: int,
    mode: str,
    seed: int,
) -> tuple[AcGridModel, dict[int, int]]:
    """Randomly change the grid topology: :func:`gspest.graphs.perturb` of
    the susceptance graph, mirrored onto the branch list.

    mode is one of :data:`gspest.graphs.PERTURB_MODES`. Added branches draw
    susceptance from the empirical susceptance range (the graph-weight rule)
    and are purely reactive (conductance 0), so a new bus's expected
    injection stays 0 and matches the zero-centering the topology-updated
    estimators use. Returns the new grid and the old->new vertex map
    (identity except for vertex modes).
    """
    new_graph, vmap = perturb(grid.graph(), count, mode, seed)

    # old index of each new bus; a bus added by the perturbation has none
    # (-1), so it gets unit voltage and its branches get no conductance
    n_new = new_graph.n_vertices
    old = np.full(n_new, -1)
    old[list(vmap.values())] = list(vmap.keys())
    gmat = np.zeros((n_new, n_new))
    bmat = np.zeros((n_new, n_new))
    i, j, w = new_graph._columns()
    bmat[i, j] = bmat[j, i] = w
    kept = (old[i] >= 0) & (old[j] >= 0)
    i, j = i[kept], j[kept]
    gmat[i, j] = gmat[j, i] = grid.conductance[old[i], old[j]]
    voltage = np.where(old >= 0, grid.voltage[old], 1.0)
    return AcGridModel(gmat, bmat, voltage), vmap

