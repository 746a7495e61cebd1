"""Measurement models: AC power flow, linear graph filters, priors, noise.

A measurement model bundles a zero-mean Gaussian prior on a spectral graph,
independent across its graph frequencies, the variance ``sigma2`` of its
additive white Gaussian noise, and the (possibly nonlinear) forward map from
state to noiseless measurements. White noise ``sigma2 I`` is diagonal in every
orthonormal basis, so it is kept as that one scalar, never as a matrix. The
grid model follows the per-unit AC power-flow equations over branch
conductances/susceptances with the graph Laplacian of the susceptance-weighted
branch graph. Its Laplacian, its connectivity check and its topology
perturbations are those of :mod:`gspest.graphs`. A grid is that graph, built
once, plus a conductance per branch and a voltage per bus, and nothing else:
:func:`ac_power` sums branch terms over the graph's edge table, never an
admittance matrix: each bus adds its branch ends in end order from 0, by
``np.bincount``.
:func:`ac_power` takes the cosines and sines of the phase differences from
one ``tan`` by the half-angle identity, because numpy runs float64 ``tan`` on
SIMD kernels where it runs ``cos`` and ``sin`` as scalar libm calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from typing import Callable

import numpy as np

from .errors import DisconnectedGraphError, InvalidGraphError
from .graphs import (
    SpectralGraph,
    WeightedGraph,
    _end_sums,
    _filter_operator,
    _read_table,
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
    with an arbitrary per-frequency variance profile. Either way, a variance
    that is not finite is a ``ValueError``: ``beta / lam_n`` overflows for a
    huge finite ``beta`` and a small ``lam_n``.
    """

    sg: SpectralGraph
    beta: float | None = None
    frequency_variances: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.frequency_variances is None:
            if self.beta is None or not 0 < self.beta < np.inf:
                raise ValueError("beta must be positive and finite")
            lam = self.sg.eigenvalues
            var = np.zeros_like(lam)
            pos = lam > self.sg.zero_tolerance()
            with np.errstate(over="ignore"):
                var[pos] = float(self.beta) / lam[pos]
            if not np.all(var < np.inf):
                raise ValueError(
                    f"prior variance beta / lambda overflows at {np.sum(var == np.inf)} of "
                    f"{len(var)} frequencies (beta = {self.beta!r})"
                )
        else:
            var = np.asarray(self.frequency_variances, dtype=float)
            if var.shape != (self.sg.n_vertices,) or not np.all((0.0 <= var) & (var < np.inf)):
                raise ValueError("need one finite non-negative variance per frequency")
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
    return _draw_spectrum(prior, rng, count) @ prior.sg.eigenvectors.T


def _draw_spectrum(prior: SmoothPrior, rng: np.random.Generator, count: int) -> np.ndarray:
    """The spectra ``z * sqrt(variances)`` that :func:`_draw_prior` synthesizes."""
    z = rng.standard_normal((count, prior.sg.n_vertices))
    z *= np.sqrt(prior.frequency_variances)
    return z


@dataclass(frozen=True)
class AcGridModel:
    """Per-unit AC grid: its susceptance-weighted :meth:`graph` on ``n_buses``
    buses, whose edge table is the grid's ``i``, ``j`` and ``susceptance``
    columns and must be given in its order (``i < j``, sorted by ``(i, j)``),
    plus one conductance per branch and one voltage magnitude per bus. Every
    branch has a finite conductance >= 0 and a finite susceptance > 0, as
    MATPOWER's branch data does, so every branch is an edge. No N×N matrix is
    stored or built.
    """

    n_buses: int
    i: np.ndarray = field(repr=False)
    j: np.ndarray = field(repr=False)
    conductance: np.ndarray = field(repr=False)
    susceptance: np.ndarray = field(repr=False)
    voltage: np.ndarray = field(repr=False, default=None)
    _graph: WeightedGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        graph = WeightedGraph(self.n_buses, self.i, self.j, self.susceptance)
        n, i, j, b = graph.n_vertices, graph.i, graph.j, graph.weight
        if not (np.array_equal(i, self.i) and np.array_equal(j, self.j)):
            raise InvalidGraphError("branches must come sorted by (i, j) with i < j")
        g = np.asarray(self.conductance, dtype=float)
        if g.shape != b.shape:
            raise InvalidGraphError("need one conductance per branch")
        bad = ~((0.0 <= g) & (g < np.inf) & (b > 0.0))
        if bad.any():
            k = int(np.argmax(bad))
            raise InvalidGraphError(
                f"branch ({i[k]},{j[k]}) has conductance {g[k]} and susceptance {b[k]}: "
                "need finite conductance >= 0 and finite susceptance > 0"
            )
        v = np.ones(n) if self.voltage is None else np.asarray(self.voltage, dtype=float)
        if v.shape != (n,) or not np.all((0.0 < v) & (v < np.inf)):
            raise InvalidGraphError("voltage magnitudes must be finite and positive, one per bus")
        names = ("n_buses", "i", "j", "conductance", "susceptance", "voltage", "_graph")
        for name, value in zip(names, (n, i, j, g, b, v, graph)):
            object.__setattr__(self, name, value)

    def graph(self) -> WeightedGraph:
        """The susceptance-weighted graph over the branches, built once."""
        return self._graph

    def branch_values(self) -> tuple[tuple[int, int, float, float], ...]:
        """(i, j, conductance, susceptance) per branch, 0-based, sorted by (i, j)."""
        columns = (self.i, self.j, self.conductance, self.susceptance)
        return tuple(zip(*(c.tolist() for c in columns)))


def _branch_terms(h: np.ndarray, g: np.ndarray, b: np.ndarray, out: np.ndarray,
                  den: np.ndarray) -> None:
    """Write ``g cos d ± b sin d`` to ``out``'s halves from the half angles
    ``h = d / 2`` by one ``tan``: with ``t = tan(d / 2)`` and ``q = 2 / (1 + t²)``,
    ``cos d = q - 1`` and ``sin d = t q``. ``h`` and ``den`` are scratch."""
    np.tan(h, out=h)
    np.square(h, out=den)
    den += 1.0
    np.divide(2.0, den, out=den)
    h *= den
    den -= 1.0
    den *= g
    h *= b
    np.add(den, h, out=out[:len(h)])
    np.subtract(den, h, out=out[len(h):])


def ac_power(model: AcGridModel, x: np.ndarray) -> np.ndarray:
    """Active power injections for phase vector(s) ``x`` (radians), 1-D or 2-D.

    ``p_n = sum_m u_n u_m (G_nm cos(x_n - x_m) + B_nm sin(x_n - x_m))`` over
    branches; invariant under adding a constant to all phases. Branch
    ``(i, j)`` with ``d = x_i - x_j`` gives ``g cos d + b sin d`` to bus ``i``
    and ``g cos d - b sin d`` to bus ``j`` (``g``, ``b`` scaled by ``u_i u_j``),
    as MATPOWER writes them, and each bus adds its branch ends in end order
    from 0, by ``np.bincount``: O(branches) per row, no BLAS. The cosines and
    sines come from one ``tan``, within a few eps of ``np.cos``/``np.sin``:
    numpy runs float64 ``tan`` on a SIMD kernel where the CPU has AVX-512 but
    ``cos`` and ``sin`` as scalar libm calls, so this is several times
    faster, and its bits follow numpy's ``tan`` dispatch (SIMD on AVX-512,
    libm elsewhere).
    """
    phases = np.asarray(x, dtype=float)
    n = model.n_buses
    if phases.ndim not in (1, 2) or phases.shape[-1] != n:
        raise ValueError(f"phases must be 1-D or 2-D with {n} entries per row")
    i, j, t = model.i, model.j, model.i.size
    uu = model.voltage[i] * model.voltage[j]
    # 2**14 branch phases, and at least 32 rows, per block keep its scratch in cache
    rows, step = phases.reshape(-1, n), max(32, (1 << 14) // max(t, 1))
    out = np.empty(rows.shape)
    for a in range(0, len(rows), step):
        block = rows[a:a + step]
        if a == 0 or len(block) < step:  # per-call buffers; g and b as whole
            # columns, as numpy loops slowly over short rows of a broadcast
            g, b = (np.repeat(v * uu, len(block)).reshape(t, len(block))
                    for v in (model.conductance, model.susceptance))
            half, h, den = np.empty(block.T.shape), np.empty_like(g), np.empty_like(g)
            ends = np.empty((2 * t, len(block)))
        np.multiply(block.T, 0.5, out=half)
        np.take(half, i, axis=0, out=h, mode="clip")
        h -= np.take(half, j, axis=0, out=den, mode="clip")
        _branch_terms(h, g, b, ends, den)
        out[a:a + step] = _end_sums(model._graph, ends).T
    return out[0] if phases.ndim == 1 else out


def load_grid(path) -> AcGridModel:
    """Read a branch CSV ``from,to,conductance,susceptance`` (UTF-8, 1-based
    buses) into a grid on as many buses as the largest index. A table that
    does not parse or has no branches is an :class:`InvalidGraphError`; a
    network with fewer than ``n - 1`` branches on ``n`` buses is disconnected
    and rejected before its grid is built; the grid rejects bad branches
    (0-based in messages).
    """
    f, t, g, b = _read_table(path, ["from", "to", "conductance", "susceptance"], "branch")
    n = int(max(f.max(), t.max()))
    if n > f.size + 1:
        raise DisconnectedGraphError(
            f"network in {path} is not connected: {n} buses, {f.size} branches"
        )
    # 0-based columns sorted by (i, j); the grid checks every branch
    i, j = np.minimum(f, t) - 1, np.maximum(f, t) - 1
    order = np.lexsort((j, i))
    grid = AcGridModel(n, i[order], j[order], g[order], b[order])
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
        return self._draw_noise(generator(seed, "noise"), count)

    def _draw_noise(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` noise rows from ``rng``; successive calls on one
        generator use the same normals as one larger call."""
        w = rng.standard_normal((count, self.sg.n_vertices))
        w *= np.sqrt(self.sigma2)
        return w


def ac_measurement_model(
    grid: AcGridModel, beta: float = 3.0, sigma2: float = 0.05
) -> MeasurementModel:
    """AC power measurements of smooth phase signals with white noise."""
    prior = SmoothPrior(build_laplacian(grid.graph()), beta)
    return MeasurementModel(prior, sigma2, lambda x: ac_power(grid, x), label="ac-power")


def _same_laplacian(a: WeightedGraph, b: WeightedGraph) -> bool:
    """Whether two graphs have equal Laplacians: the same vertex count and
    the same positive-weight edges (a zero-weight edge adds nothing)."""
    def positive(g):
        on = g.weight > 0
        return np.stack((g.i[on], g.j[on], g.weight[on]))

    return a.n_vertices == b.n_vertices and np.array_equal(positive(a), positive(b))


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
    elif prior.sg is not sg and not _same_laplacian(prior.sg.graph, sg.graph):
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
) -> tuple[AcGridModel, np.ndarray]:
    """Randomly change the grid topology: :func:`gspest.graphs.perturb` of
    the susceptance graph, mirrored onto the branch list.

    mode is one of :data:`gspest.graphs.PERTURB_MODES`. Added branches draw
    susceptance from the empirical susceptance range (the graph-weight rule)
    and are purely reactive (conductance 0), so a new bus's expected
    injection stays 0 and matches the zero-centering the topology-updated
    estimators use. Every branch is an edge, so the new graph's edges are the
    new branches. Returns the new grid and the old index of each new bus (-1
    if added), as :func:`gspest.graphs.perturb` does.
    """
    new_graph, old = perturb(grid.graph(), count, mode, seed)
    # each branch's old pair key, negative where a bus is new (-1), which
    # gets unit voltage and no conductance; the sentinel n * n is above every
    # key, so a lookup that finds no old branch gets 0
    n, i, j = grid.n_buses, new_graph.i, new_graph.j
    want = np.minimum(old[i], old[j]) * n + np.maximum(old[i], old[j])
    keys = np.append(grid.i * n + grid.j, n * n)
    at = np.searchsorted(keys, want)
    g = np.where(keys[at] == want, np.append(grid.conductance, 0.0)[at], 0.0)
    voltage = np.where(old >= 0, grid.voltage[old], 1.0)
    return AcGridModel(new_graph.n_vertices, i, j, g, new_graph.weight, voltage), old
