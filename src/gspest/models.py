"""Measurement models: AC power flow, linear graph filters, priors, noise.

A measurement model bundles a zero-mean Gaussian prior on a spectral graph,
independent across its graph frequencies, the variance ``sigma2`` of its
additive white Gaussian noise, and the (possibly nonlinear) forward map from
state to noiseless measurements. White noise ``sigma2 I`` is diagonal in every
orthonormal basis, so it is kept as that one scalar, never as a matrix. The
grid model follows the per-unit AC power-flow equations over branch
conductances/susceptances with the graph Laplacian of the susceptance-weighted
branch graph. Its Laplacian, its connectivity check and its topology
perturbations are those of :mod:`gspest.graphs`. A grid is its branch table,
the sorted branch list MATPOWER keeps, and builds from it only the sparse
stacked admittance that :func:`ac_power` multiplies by, never an N×N matrix.
:func:`ac_power` takes the cosines and sines of the phases from one ``tan`` by
the half-angle identity, because numpy runs float64 ``tan`` on SIMD kernels
where it runs ``cos`` and ``sin`` as scalar libm calls.
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
    """Per-unit AC grid as its branch table: ``n_buses`` buses, one row per
    branch (0-based ends ``i < j``, sorted by ``(i, j)``, at most one per bus
    pair) with its conductance and susceptance, and one voltage magnitude per
    bus.

    The graph Laplacian is that of the susceptance-weighted :meth:`graph`.
    No N×N matrix is stored or built.
    """

    n_buses: int
    i: np.ndarray = field(repr=False)
    j: np.ndarray = field(repr=False)
    conductance: np.ndarray = field(repr=False)
    susceptance: np.ndarray = field(repr=False)
    voltage: np.ndarray = field(repr=False, default=None)
    # sparse [[G, -B], [B, G]] * u_n u_m over both directions of every branch
    _stacked: sparse.csr_array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = int(self.n_buses)
        i, j = (np.asarray(a, dtype=np.intp) for a in (self.i, self.j))
        g, b = (np.asarray(a, dtype=float) for a in (self.conductance, self.susceptance))
        if n < 1 or i.ndim != 1 or not i.shape == j.shape == g.shape == b.shape:
            raise InvalidGraphError("need a bus and 1-D branch columns of one length")
        if not (np.all((0 <= i) & (i < j) & (j < n)) and np.all(np.diff(i * n + j) > 0)):
            raise InvalidGraphError(f"need 0 <= i < j < {n}, sorted by (i, j), one branch per pair")
        if not np.all(np.isfinite(g) & np.isfinite(b) & ((g != 0.0) | (b != 0.0))):
            raise InvalidGraphError("branch admittances must be finite, not both zero")
        v = np.ones(n) if self.voltage is None else np.asarray(self.voltage, dtype=float)
        if v.shape != (n,) or not np.all((0.0 < v) & (v < np.inf)):
            raise InvalidGraphError("voltage magnitudes must be finite and positive, one per bus")
        for name, value in zip(("n_buses", "i", "j", "conductance", "susceptance", "voltage"),
                               (n, i, j, g, b, v)):
            object.__setattr__(self, name, value)
        # both directions of every branch in row-major order
        rows, cols = np.concatenate((i, j)), np.concatenate((j, i))
        order = np.lexsort((cols, rows))
        r, c, gd, bd = rows[order], cols[order], np.tile(g, 2)[order], np.tile(b, 2)[order]
        at = np.concatenate((r, r, r + n, r + n)), np.concatenate((c, c + n, c, c + n))
        data = np.concatenate((gd, -bd, bd, gd)) * np.tile(v[r] * v[c], 4)
        object.__setattr__(self, "_stacked", sparse.csr_array((data, at), (2 * n, 2 * n)))

    def graph(self) -> WeightedGraph:
        """Susceptance-weighted graph over the branches with a susceptance."""
        on = self.susceptance != 0.0
        return WeightedGraph(self.n_buses, self.i[on], self.j[on], self.susceptance[on])

    def branch_values(self) -> tuple[tuple[int, int, float, float], ...]:
        """(i, j, conductance, susceptance) per branch, 0-based, sorted by (i, j)."""
        columns = (self.i, self.j, self.conductance, self.susceptance)
        return tuple(zip(*(c.tolist() for c in columns)))


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
    branches = {}
    for f, t, g, b in rows:
        if f == t or f < 1 or t < 1:
            raise InvalidGraphError(f"bad bus pair ({f},{t})")
        if not (np.isfinite(g) and np.isfinite(b)) or g < 0 or b <= 0:
            raise InvalidGraphError(f"bad admittance on branch ({f},{t})")
        key = (min(f, t) - 1, max(f, t) - 1)
        if key in branches:
            raise InvalidGraphError(f"duplicate branch ({f},{t})")
        branches[key] = g, b
    # the table's columns i, j, conductance, susceptance, sorted by (i, j)
    grid = AcGridModel(n, *zip(*(key + gb for key, gb in sorted(branches.items()))))
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
    estimators use. A conductance-only branch, no edge of that graph, is
    kept while both its buses survive. Returns the new grid and the old index
    of each new bus (-1 if added), as :func:`gspest.graphs.perturb` does.
    """
    new_graph, old = perturb(grid.graph(), count, mode, seed)

    # a bus added by the perturbation has no old index (-1), so it gets unit
    # voltage and its branches get no conductance
    n, n_new = grid.n_buses, new_graph.n_vertices
    new = np.full(n, -1)
    new[old[old >= 0]] = np.flatnonzero(old >= 0)
    i, j, b = new_graph.i, new_graph.j, new_graph.weight
    # merge in each surviving conductance-only branch whose pair gained no
    # edge; vertex maps keep the surviving buses in order, so i < j holds
    ci, cj = new[grid.i], new[grid.j]
    lone = (grid.susceptance == 0) & (ci >= 0) & (cj >= 0) & ~np.isin(ci * n_new + cj, i * n_new + j)
    i, j, b = (np.concatenate(p) for p in ((i, ci[lone]), (j, cj[lone]), (b, np.zeros(lone.sum()))))
    order = np.argsort(i * n_new + j)
    i, j, b = i[order], j[order], b[order]
    # each branch's old pair key, negative where a bus is new; the sentinel
    # n * n is above every key, so a lookup that finds no old branch gets 0
    want = np.minimum(old[i], old[j]) * n + np.maximum(old[i], old[j])
    keys = np.append(grid.i * n + grid.j, n * n)
    at = np.searchsorted(keys, want)
    g = np.where(keys[at] == want, np.append(grid.conductance, 0.0)[at], 0.0)
    voltage = np.where(old >= 0, grid.voltage[old], 1.0)
    return AcGridModel(n_new, i, j, g, b, voltage), old

