"""Weighted graphs, Laplacian spectra, and the graph Fourier transform.

A graph here is undirected with non-negative edge weights, no self loops and
at most one edge per vertex pair. Its combinatorial Laplacian is
``L = diag(W 1) - W`` where ``W`` is the weighted adjacency matrix. The
eigendecomposition ``L = V diag(lam) V^T`` (eigenvalues ascending, so
``lam[0] == 0``) defines the graph Fourier transform: analysis is ``V^T x``,
synthesis is ``V xt``.

Eigenvectors are canonicalized so repeated builds of the same graph give
bit-identical bases: within each group of equal eigenvalues the basis is
re-derived by Gram-Schmidt (a QR, re-orthogonalized once) of the canonical
unit vectors projected onto the eigenspace (in index order), and every
eigenvector is signed so its largest-magnitude entry (lowest index on ties)
is positive.

This module makes every topology decision of the package: the Laplacian
above, connectivity (second eigenvalue above :data:`CONNECTIVITY_TOL`), and
the seeded perturbations, which :func:`perturb` selects from a mode string in
:data:`PERTURB_MODES`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .errors import InvalidGraphError, PerturbationInfeasibleError
from .rng import generator

# Relative tolerance for treating an eigenvalue as zero (scaled by lam[-1]).
ZERO_EIGENVALUE_RTOL = 1e-9
# Smallest second eigenvalue accepted as "connected" / "well connected".
CONNECTIVITY_TOL = 1e-6
# Retry budget per edge/vertex for constrained perturbations.
MAX_PERTURB_RETRIES = 100
# Existing vertices each added vertex is joined to.
K_ATTACH = 2
# The ``mode`` values of :func:`perturb`.
PERTURB_MODES = ("add-edges", "remove-edges", "add-vertices", "remove-vertices")
# Relative tolerance for grouping equal eigenvalues before canonicalization.
_DEGENERACY_RTOL = 1e-8


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph on vertices ``0..n_vertices-1``.

    Edges are stored canonically as ``(i, j, weight)`` with ``i < j``, sorted,
    at most one edge per pair, weights non-negative and finite.
    """

    n_vertices: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n_vertices < 1:
            raise InvalidGraphError("graph needs at least one vertex")
        canon = []
        seen = set()
        for i, j, w in self.edges:
            i, j, w = int(i), int(j), float(w)
            if i == j:
                raise InvalidGraphError(f"self loop at vertex {i}")
            if not (0 <= i < self.n_vertices and 0 <= j < self.n_vertices):
                raise InvalidGraphError(f"edge ({i},{j}) out of range")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise InvalidGraphError(f"duplicate edge ({i},{j})")
            if not np.isfinite(w) or w < 0:
                raise InvalidGraphError(f"edge ({i},{j}) has invalid weight {w}")
            seen.add((i, j))
            canon.append((i, j, w))
        canon.sort()
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> np.ndarray:
        """Dense symmetric weight matrix with zero diagonal."""
        w = np.zeros((self.n_vertices, self.n_vertices))
        for i, j, wt in self.edges:
            w[i, j] = wt
            w[j, i] = wt
        return w

    def weight_range(self) -> tuple[float, float]:
        """(min, max) over existing edge weights; requires at least one edge."""
        if not self.edges:
            raise InvalidGraphError("graph has no edges")
        ws = [w for _, _, w in self.edges]
        return min(ws), max(ws)


@dataclass(frozen=True)
class SpectralGraph:
    """A graph together with its Laplacian eigendecomposition.

    Attributes
    ----------
    graph : WeightedGraph
    laplacian : ndarray, shape (n, n)
    eigenvalues : ndarray, shape (n,)
        Ascending; ``eigenvalues[0]`` is zero up to :func:`zero_tolerance`.
    eigenvectors : ndarray, shape (n, n)
        Columns are the canonicalized orthonormal eigenvectors.
    """

    graph: WeightedGraph
    laplacian: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    def zero_tolerance(self) -> float:
        """Absolute threshold below which an eigenvalue counts as zero."""
        lam_max = float(self.eigenvalues[-1])
        return ZERO_EIGENVALUE_RTOL * max(lam_max, 1.0)

    def is_connected(self) -> bool:
        return _connected_spectrum(self.eigenvalues)


@dataclass(frozen=True)
class ReducedSpectrum:
    """The first ``n_kept`` frequencies of a spectral graph.

    ``reduced_laplacian`` is the rank-deficient matrix assembled from the kept
    eigenpairs only; ``projector`` is the orthogonal projector onto their
    span (the zeroth matrix power under the reduced convention).
    """

    parent: SpectralGraph
    n_kept: int

    def __post_init__(self):
        if not (1 <= self.n_kept <= self.parent.n_vertices):
            raise ValueError(f"n_kept {self.n_kept} out of range")

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.parent.eigenvalues[: self.n_kept]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self.parent.eigenvectors[:, : self.n_kept]

    def reduced_laplacian(self) -> np.ndarray:
        return _filter_operator(self.eigenvectors, self.eigenvalues)

    def projector(self) -> np.ndarray:
        v = self.eigenvectors
        return v @ v.T


def _filter_operator(eigenvectors: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Dense graph filter ``V diag(response) V^T`` on eigenvector columns
    ``V``. Private, so that perfbench traces its time to the caller."""
    return (eigenvectors * response) @ eigenvectors.T


def _canonical_sign(vec: np.ndarray) -> np.ndarray:
    # largest |entry| must be positive; entries within rounding of the max
    # count as tied and the lowest index wins, so the rule is stable under
    # eps-level input jitter
    mags = np.abs(vec)
    idx = int(np.argmax(mags >= (1.0 - 1e-8) * mags.max()))
    if vec[idx] < 0:
        return -vec
    return vec


def _positive_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram-Schmidt basis of the columns of ``a`` and their residual
    norms, from a QR factorization."""
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * np.sign(d), np.abs(d)


def _eigenspace_basis(block: np.ndarray) -> np.ndarray:
    """Basis of the span of the orthonormal columns ``block``: Gram-Schmidt
    of the projected unit vectors in index order, skipping each whose
    residual is at most 1e-8. Row ``k`` of ``block`` holds the coordinates of
    the projection of unit vector ``k``. A QR stays orthonormal where
    Gram-Schmidt of nearly dependent vectors does not, and a second one
    removes the rounding of ``block`` ("twice is enough", Giraud, Langou &
    Rozloznik 2005)."""
    size = block.shape[1]
    # a row no longer than 1e-8 has a residual no longer than that either
    cand = np.flatnonzero(np.linalg.norm(block, axis=1) > 1e-8)
    while cand.size >= size:
        q, resid = _positive_qr(block[cand[:size]].T)
        weak = np.flatnonzero(resid <= 1e-8)
        if not weak.size:
            return _positive_qr(block @ q)[0]
        # later candidates were measured against the skipped one: redo them
        cand = np.delete(cand, weak[0])
    raise InvalidGraphError("degenerate eigenspace canonicalization failed")


def _canonicalize_eigenvectors(eigvals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Deterministic basis per eigenspace (:func:`_eigenspace_basis`), then
    the sign rule."""
    n = vecs.shape[0]
    scale = max(float(eigvals[-1]) - float(eigvals[0]), 1.0)
    out = vecs.copy()
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and eigvals[stop] - eigvals[start] <= _DEGENERACY_RTOL * scale:
            stop += 1
        if stop - start > 1:
            out[:, start:stop] = _eigenspace_basis(vecs[:, start:stop])
        start = stop
    for k in range(n):
        out[:, k] = _canonical_sign(out[:, k])
    return out


def _connected_spectrum(eigenvalues: np.ndarray) -> bool:
    """Whether an ascending Laplacian spectrum has its second eigenvalue
    above :data:`CONNECTIVITY_TOL` (a single vertex counts as connected)."""
    return eigenvalues.size < 2 or float(eigenvalues[1]) > CONNECTIVITY_TOL


def _laplacian(w: np.ndarray) -> np.ndarray:
    """``diag(W 1) - W`` for a dense symmetric weight matrix ``W``."""
    return np.diag(w.sum(axis=1)) - w


def build_laplacian(graph: WeightedGraph) -> SpectralGraph:
    """Build ``L = diag(W 1) - W`` and its canonical eigendecomposition.

    The orthonormality residual ``max|V^T V - I|`` must not exceed 1e-10 and
    the eigenpair residual ``max|L v - lam v|`` must not exceed 1e-8 relative
    to the spectral scale; both are enforced here, not just tested.
    """
    lap = _laplacian(graph.adjacency())
    eigvals, vecs = np.linalg.eigh(lap)
    vecs = _canonicalize_eigenvectors(eigvals, vecs)

    n = graph.n_vertices
    ortho = np.max(np.abs(vecs.T @ vecs - np.eye(n)))
    if ortho > 1e-10:
        raise InvalidGraphError(f"eigenvector basis not orthonormal ({ortho:.2e})")
    scale = max(float(eigvals[-1]), 1.0)
    resid = np.max(np.abs(lap @ vecs - vecs * eigvals))
    if resid > 1e-8 * scale:
        raise InvalidGraphError(f"eigenpair residual too large ({resid:.2e})")

    sg = SpectralGraph(graph, lap, eigvals, vecs)
    if abs(float(eigvals[0])) > sg.zero_tolerance():
        raise InvalidGraphError(
            f"smallest eigenvalue {eigvals[0]:.3e} is not numerically zero"
        )
    return sg


def gft(sg: SpectralGraph, signal: np.ndarray) -> np.ndarray:
    """Analysis transform ``V^T x``; accepts a vector or rows of vectors."""
    x = np.asarray(signal, dtype=float)
    if x.shape[-1] != sg.n_vertices:
        raise ValueError("signal length does not match graph order")
    return x @ sg.eigenvectors


def igft(sg: SpectralGraph, coeffs: np.ndarray) -> np.ndarray:
    """Synthesis transform ``V xt``; inverse of :func:`gft`."""
    xt = np.asarray(coeffs, dtype=float)
    if xt.shape[-1] != sg.n_vertices:
        raise ValueError("coefficient length does not match graph order")
    return xt @ sg.eigenvectors.T


def reduce_spectrum(sg: SpectralGraph, size: int | float) -> ReducedSpectrum:
    """Keep the lowest frequencies: an int is a count, a float in (0, 1] is a
    fraction mapped to ``floor(fraction * n)`` (at least 1)."""
    if isinstance(size, (bool,)):
        raise TypeError("size must be int count or float fraction")
    if isinstance(size, (int, np.integer)):
        n_kept = int(size)
    elif isinstance(size, (float, np.floating)):
        if not 0.0 < size <= 1.0:
            raise ValueError("fractional size must be in (0, 1]")
        n_kept = max(1, int(np.floor(size * sg.n_vertices)))
    else:
        raise TypeError("size must be int count or float fraction")
    return ReducedSpectrum(sg, n_kept)


def _stays_connected(graph: WeightedGraph) -> bool:
    """:func:`_connected_spectrum` of the graph's Laplacian. A graph whose
    nonzero-weight edges do not connect it has a zero second eigenvalue, so
    it is rejected before any eigendecomposition."""
    w = graph.adjacency()
    # the sparse copy keeps only the nonzero weights
    if connected_components(csr_array(w), directed=False, return_labels=False) > 1:
        return False
    return _connected_spectrum(np.linalg.eigvalsh(_laplacian(w)))


def _absent_pairs(graph: WeightedGraph) -> np.ndarray:
    """Flat indices ``i * n + j`` of the pairs ``i < j`` that are not in
    ``graph.edges`` (an edge of weight 0 is present), in lexicographic order."""
    n = graph.n_vertices
    absent = np.triu(np.ones((n, n), dtype=bool), 1)
    for i, j, _ in graph.edges:
        absent[i, j] = False
    return np.flatnonzero(absent)


def _perturb_rng(stream: str, count: int, mode: str, seed: int) -> np.random.Generator:
    """The seeded stream of ``count`` "add" or "remove" steps."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if mode not in ("add", "remove"):
        raise ValueError(f"unknown perturbation mode {mode!r}")
    return generator(seed, stream, ("add", "remove").index(mode))


def perturb_edges(
    graph: WeightedGraph,
    count: int,
    mode: str,
    seed: int,
) -> WeightedGraph:
    """Add or remove ``count`` edges at random.

    mode "add": one ``integers`` draw indexes the absent pairs ``i < j`` in
    lexicographic ``(i, j)`` order (a seeded contract), then the weight is
    uniform over the existing weight range. Adding edges can only raise the
    algebraic connectivity. mode "remove": edges drawn uniformly; a removal
    that leaves the second eigenvalue at or below :data:`CONNECTIVITY_TOL` is
    rejected and redrawn, up to :data:`MAX_PERTURB_RETRIES` attempts per edge.
    """
    rng = _perturb_rng("perturb-edges", count, mode, seed)
    current = graph
    for k in range(count):
        if mode == "add":
            absent = _absent_pairs(current)
            if not absent.size:
                raise PerturbationInfeasibleError("graph is complete, cannot add")
            lo, hi = current.weight_range()
            i, j = divmod(int(absent[rng.integers(absent.size)]), current.n_vertices)
            w = float(rng.uniform(lo, hi))
            current = WeightedGraph(
                current.n_vertices, current.edges + ((i, j, w),)
            )
        else:
            placed = False
            for _ in range(MAX_PERTURB_RETRIES):
                pick = int(rng.integers(current.n_edges))
                kept = tuple(e for m, e in enumerate(current.edges) if m != pick)
                cand = WeightedGraph(current.n_vertices, kept)
                if _stays_connected(cand):
                    current = cand
                    placed = True
                    break
            if not placed:
                raise PerturbationInfeasibleError(
                    f"no removable edge keeps the graph connected (step {k + 1})"
                )
    return current


def perturb_vertices(
    graph: WeightedGraph,
    count: int,
    mode: str,
    seed: int,
) -> tuple[WeightedGraph, dict[int, int]]:
    """Add or remove ``count`` vertices at random.

    Returns the new graph and a map old-index -> new-index for surviving
    vertices (removed vertices are absent from the map; added vertices get
    fresh indices appended after the old ones).

    mode "add": each new vertex attaches to :data:`K_ATTACH` distinct uniformly
    chosen existing vertices with weights uniform over the existing weight
    range. mode "remove": vertex subsets are redrawn until the induced graph
    stays connected, up to :data:`MAX_PERTURB_RETRIES` attempts per vertex.
    """
    rng = _perturb_rng("perturb-vertices", count, mode, seed)
    n = graph.n_vertices
    if mode == "add":
        edges = list(graph.edges)
        # weight_range needs an edge, so the K_ATTACH = 2 targets exist
        lo, hi = graph.weight_range()
        for m in range(count):
            new = n + m
            targets = rng.choice(new, size=K_ATTACH, replace=False)
            for t in sorted(int(t) for t in targets):
                edges.append((t, new, float(rng.uniform(lo, hi))))
        out = WeightedGraph(n + count, tuple(edges))
        return out, {i: i for i in range(n)}

    if count >= n:
        raise PerturbationInfeasibleError("cannot remove all vertices")
    for _ in range(MAX_PERTURB_RETRIES * max(count, 1)):
        drop = set(int(v) for v in rng.choice(n, size=count, replace=False))
        keep = [v for v in range(n) if v not in drop]
        remap = {old: new for new, old in enumerate(keep)}
        edges = tuple(
            (remap[i], remap[j], w)
            for i, j, w in graph.edges
            if i not in drop and j not in drop
        )
        cand = WeightedGraph(len(keep), edges)
        if _stays_connected(cand):
            return cand, remap
    raise PerturbationInfeasibleError(
        "no vertex subset keeps the graph connected within the retry budget"
    )


def perturb(
    graph: WeightedGraph, count: int, mode: str, seed: int
) -> tuple[WeightedGraph, dict[int, int]]:
    """Apply ``count`` steps of one of :data:`PERTURB_MODES`.

    ``"add-edges"``/``"remove-edges"`` run :func:`perturb_edges` and
    ``"add-vertices"``/``"remove-vertices"`` :func:`perturb_vertices`, with
    the same seed. Returns the new graph and the old->new vertex map, which
    is the identity on the edge modes.
    """
    if mode not in PERTURB_MODES:
        raise ValueError(f"unknown perturbation mode {mode!r}")
    kind, what = mode.split("-")
    if what == "edges":
        vmap = {i: i for i in range(graph.n_vertices)}
        return perturb_edges(graph, count, kind, seed), vmap
    return perturb_vertices(graph, count, kind, seed)


def write_edge_list(graph: WeightedGraph, path) -> None:
    """Write edges as CSV ``from,to,weight`` (0-based, %.17g weights)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from", "to", "weight"])
        for i, j, w in graph.edges:
            writer.writerow([i, j, format(w, ".17g")])


def read_edge_list(path, n_vertices: int | None = None) -> WeightedGraph:
    """Read a ``from,to,weight`` CSV written by :func:`write_edge_list`.

    Vertex count defaults to ``max index + 1``; pass ``n_vertices`` to keep
    trailing isolated vertices.
    """
    edges = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["from", "to", "weight"]:
            raise InvalidGraphError(f"bad edge-list header in {path}: {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise InvalidGraphError(f"bad edge-list row {row}")
            edges.append((int(row[0]), int(row[1]), float(row[2])))
    n = max((max(i, j) for i, j, _ in edges), default=-1) + 1
    if n_vertices is not None:
        if n_vertices < n:
            raise InvalidGraphError("n_vertices smaller than max edge index")
        n = n_vertices
    if n == 0:
        raise InvalidGraphError(f"empty edge list in {path}")
    return WeightedGraph(n, tuple(edges))
