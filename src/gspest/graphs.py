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
:data:`PERTURB_MODES`. Connectivity is decided by the components of the
positive-weight edges, then by ``lam[1] >= 4 w_min / (n (n - 1))`` (Mohar 1991,
"Eigenvalues, diameter, and mean distance in graphs": ``4 / (n diam)`` when
unweighted), and by ``eigvalsh`` only where that bound is <= the tolerance.

:func:`build_laplacian` holds at most two N x N arrays at once, with the bits
of the out-of-place formulas: ``L`` in the adjacency's buffer, then ``eigh``'s
eigenvectors, canonicalized in place, beside ``L`` or one check's product.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array

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
# Eigenvector columns per block of the sign rule and the eigenpair residual.
_COLUMN_BLOCK = 128


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
        n = self.n_vertices
        e = np.array(self.edges, dtype=float).reshape(len(self.edges), 3)
        ends, w = np.trunc(e[:, :2]), e[:, 2]
        lo, hi = ends.min(axis=1), ends.max(axis=1)
        # the first edge of each pair, in pair order; a pair key collides
        # only with an out-of-range pair, which is reported first anyway
        order = np.unique(lo * n + hi, return_index=True)[1]
        dup = np.bincount(order, minlength=len(e)) == 0
        in_range = np.all((ends >= 0) & (ends < n), axis=1)
        faults = (lo == hi, ~in_range, dup, ~np.isfinite(w) | (w < 0))
        bad = np.any(faults, axis=0)
        if bad.any():  # the first bad edge in input order, checks in order
            k = int(np.argmax(bad))
            i, j, a, b = map(int, (*ends[k], lo[k], hi[k]))
            raise InvalidGraphError(next(m for f, m in zip(faults, (
                f"self loop at vertex {i}", f"edge ({i},{j}) out of range",
                f"duplicate edge ({a},{b})", f"edge ({a},{b}) has invalid weight {float(w[k])}",
            )) if f[k]))
        canon = lo[order].astype(int), hi[order].astype(int), w[order]
        object.__setattr__(self, "edges", tuple(zip(*(c.tolist() for c in canon))))

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges as arrays ``(i, j, weight)``, in their sorted order."""
        e = np.array(self.edges, dtype=float).reshape(-1, 3)
        return e[:, 0].astype(np.intp), e[:, 1].astype(np.intp), e[:, 2]

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> np.ndarray:
        """Dense symmetric weight matrix with zero diagonal."""
        w = np.zeros((self.n_vertices, self.n_vertices))
        i, j, wt = self._columns()
        w[i, j] = w[j, i] = wt
        return w

    def weight_range(self) -> tuple[float, float]:
        """(min, max) over existing edge weights; requires at least one edge."""
        if not self.edges:
            raise InvalidGraphError("graph has no edges")
        ws = self._columns()[2]
        return float(ws.min()), float(ws.max())


@dataclass(frozen=True)
class SpectralGraph:
    """A graph together with its Laplacian eigendecomposition.

    Attributes
    ----------
    graph : WeightedGraph
    eigenvalues : ndarray, shape (n,)
        Ascending; ``eigenvalues[0]`` is zero up to :func:`zero_tolerance`.
    eigenvectors : ndarray, shape (n, n)
        Columns are the canonicalized orthonormal eigenvectors.
    laplacian : ndarray, shape (n, n)
        ``diag(W 1) - W`` of ``graph``; not stored, rebuilt on each access.
    """

    graph: WeightedGraph
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def laplacian(self) -> np.ndarray:
        return _laplacian(self.graph.adjacency())

    def zero_tolerance(self) -> float:
        """Absolute threshold below which an eigenvalue counts as zero."""
        lam_max = float(self.eigenvalues[-1])
        return ZERO_EIGENVALUE_RTOL * max(lam_max, 1.0)

    def is_connected(self) -> bool:
        return _connected_spectrum(self.eigenvalues)


def _filter_operator(eigenvectors: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Dense graph filter ``V diag(response) V^T`` on eigenvector columns
    ``V``. Private, so that perfbench traces its time to the caller."""
    return (eigenvectors * response) @ eigenvectors.T


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
    the sign rule, both in place in ``vecs``, which is returned."""
    n = vecs.shape[0]
    scale = max(float(eigvals[-1]) - float(eigvals[0]), 1.0)
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and eigvals[stop] - eigvals[start] <= _DEGENERACY_RTOL * scale:
            stop += 1
        if stop - start > 1:
            vecs[:, start:stop] = _eigenspace_basis(vecs[:, start:stop])
        start = stop
    # the sign rule, a block of columns at a time: the largest |entry| is
    # made positive; entries within rounding of the max count as tied and the
    # lowest index wins, so the rule is stable under eps-level input jitter
    for lo in range(0, n, _COLUMN_BLOCK):
        cols = vecs[:, lo:lo + _COLUMN_BLOCK]
        mags = np.abs(cols)
        lead = np.argmax(mags >= (1.0 - 1e-8) * mags.max(axis=0), axis=0)
        flip = cols[lead, np.arange(cols.shape[1])] < 0
        cols[:, flip] = -cols[:, flip]
    return vecs


def _connected_spectrum(eigenvalues: np.ndarray) -> bool:
    """Whether an ascending Laplacian spectrum has its second eigenvalue
    above :data:`CONNECTIVITY_TOL` (a single vertex counts as connected)."""
    return eigenvalues.size < 2 or float(eigenvalues[1]) > CONNECTIVITY_TOL


def _laplacian(w: np.ndarray) -> np.ndarray:
    """``diag(W 1) - W``, in the buffer of ``W`` (dense, symmetric, zero diagonal)."""
    degree = w.sum(axis=1)
    np.subtract(0.0, w, out=w)
    w.flat[::len(w) + 1] = degree
    return w


def build_laplacian(graph: WeightedGraph) -> SpectralGraph:
    """Build ``L = diag(W 1) - W`` and its canonical eigendecomposition.

    The orthonormality residual ``max|V^T V - I|`` must not exceed 1e-10 and
    the eigenpair residual ``max|L v - lam v|`` must not exceed 1e-8 relative
    to the spectral scale; both are enforced here, not just tested.
    """
    lap = _laplacian(graph.adjacency())
    eigvals, vecs = np.linalg.eigh(lap)
    lap = csr_array(lap)
    _canonicalize_eigenvectors(eigvals, vecs)

    n = graph.n_vertices
    gram = vecs.T @ vecs
    gram.flat[::n + 1] -= 1.0
    ortho = np.abs(gram, out=gram).max()
    del gram
    if ortho > 1e-10:
        raise InvalidGraphError(f"eigenvector basis not orthonormal ({ortho:.2e})")
    scale = max(float(eigvals[-1]), 1.0)
    cuts = range(_COLUMN_BLOCK, n, _COLUMN_BLOCK)
    resid = np.max([np.abs(lap @ v - v * lam).max()
                    for v, lam in zip(np.split(vecs, cuts, axis=1), np.split(eigvals, cuts))])
    if resid > 1e-8 * scale:
        raise InvalidGraphError(f"eigenpair residual too large ({resid:.2e})")

    sg = SpectralGraph(graph, eigvals, vecs)
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


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The smallest vertex of each vertex's component, for the edges
    ``(i[k], j[k])`` on vertices ``0..n-1``.

    A union-find in array steps: every edge joining two trees hooks the
    larger root under the smaller (so ``root[v] <= v`` stays a forest), and
    pointer jumping then takes every vertex to its root.
    """
    root = np.arange(n)
    while not np.array_equal(ri := root[i], rj := root[j]):
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        while not np.array_equal(up := root[root], root):
            root = up
    return root


def _stays_connected(graph: WeightedGraph) -> bool:
    """:func:`_connected_spectrum` of the graph's Laplacian, by the rule in
    the module docstring (``w_min`` is the smallest positive weight)."""
    n = graph.n_vertices
    i, j, w = graph._columns()
    pos = w > 0
    if _components(n, i[pos], j[pos]).any():
        return False
    if n < 2 or 4.0 * w[pos].min() / (n * (n - 1)) > CONNECTIVITY_TOL:
        return True
    return _connected_spectrum(np.linalg.eigvalsh(_laplacian(graph.adjacency())))


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
    current, n = graph, graph.n_vertices
    for k in range(count):
        if mode == "add":
            i, j, _ = current._columns()
            # pairs i < j in lexicographic order: row r starts at start[r], and
            # gaps[m] absent pairs (weight-0 edges are present) precede edge m
            start = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2
            gaps = start[i] + (j - i - 1) - np.arange(i.size)
            n_absent = n * (n - 1) // 2 - i.size
            if not n_absent:
                raise PerturbationInfeasibleError("graph is complete, cannot add")
            lo, hi = current.weight_range()
            pick = int(rng.integers(n_absent))
            t = pick + int(np.searchsorted(gaps, pick, "right"))
            i = int(np.searchsorted(start, t, "right")) - 1
            j = t - int(start[i]) + i + 1
            w = float(rng.uniform(lo, hi))
            current = WeightedGraph(n, current.edges + ((i, j, w),))
        else:
            placed = False
            for _ in range(MAX_PERTURB_RETRIES):
                pick = int(rng.integers(current.n_edges))
                cand = WeightedGraph(n, current.edges[:pick] + current.edges[pick + 1:])
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
        return WeightedGraph(n + count, tuple(edges)), {i: i for i in range(n)}

    if count >= n:
        raise PerturbationInfeasibleError("cannot remove all vertices")
    i, j, w = graph._columns()
    for _ in range(MAX_PERTURB_RETRIES * max(count, 1)):
        alive = np.ones(n, dtype=bool)
        alive[rng.choice(n, size=count, replace=False)] = False
        new = np.cumsum(alive) - 1
        kept = alive[i] & alive[j]
        edges = zip(new[i[kept]].tolist(), new[j[kept]].tolist(), w[kept].tolist())
        cand = WeightedGraph(n - count, tuple(edges))
        if _stays_connected(cand):
            return cand, dict(zip(np.flatnonzero(alive).tolist(), range(n - count)))
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


def read_edge_list(path) -> WeightedGraph:
    """Read a ``from,to,weight`` CSV written by :func:`write_edge_list`; the
    vertex count is ``max index + 1``."""
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
            try:
                edges.append((int(row[0]), int(row[1]), float(row[2])))
            except ValueError as exc:
                raise InvalidGraphError(f"unparseable edge-list row {row}") from exc
    n = max((max(i, j) for i, j, _ in edges), default=-1) + 1
    if n == 0:
        raise InvalidGraphError(f"empty edge list in {path}")
    return WeightedGraph(n, tuple(edges))
