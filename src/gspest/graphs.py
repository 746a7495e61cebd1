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
Every other product with the graph's Laplacian or incidence is a sum over its
edge table (:func:`_end_sums`), never a matrix.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DisconnectedGraphError, InvalidGraphError, PerturbationInfeasibleError
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
    """Undirected weighted graph on vertices ``0..n_vertices-1`` as its edge
    table: one row per edge, ends ``i < j``, sorted by ``(i, j)``, at most one
    edge per pair, weights non-negative and finite. The columns given may be
    in any order and orientation; they are checked and stored canonically.
    """

    n_vertices: int
    i: np.ndarray = field(repr=False)
    j: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = int(self.n_vertices)
        if n < 1:
            raise InvalidGraphError("graph needs at least one vertex")
        i, j = (np.asarray(a, dtype=np.intp) for a in (self.i, self.j))
        w = np.asarray(self.weight, dtype=float)
        if i.ndim != 1 or not i.shape == j.shape == w.shape:
            raise InvalidGraphError("need 1-D edge columns of one length")
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        # the first edge of each pair, in pair order; a pair key collides
        # only with an out-of-range pair, which is reported first anyway
        order = np.unique(lo * n + hi, return_index=True)[1]
        dup = np.bincount(order, minlength=len(w)) == 0
        in_range = (i >= 0) & (i < n) & (j >= 0) & (j < n)
        faults = (lo == hi, ~in_range, dup, ~np.isfinite(w) | (w < 0))
        bad = np.any(faults, axis=0)
        if bad.any():  # the first bad edge in input order, checks in order
            k = int(np.argmax(bad))
            a, b = int(lo[k]), int(hi[k])
            raise InvalidGraphError(next(m for f, m in zip(faults, (
                f"self loop at vertex {a}", f"edge ({i[k]},{j[k]}) out of range",
                f"duplicate edge ({a},{b})", f"edge ({a},{b}) has invalid weight {float(w[k])}",
            )) if f[k]))
        for name, value in zip(("n_vertices", "i", "j", "weight"),
                               (n, lo[order], hi[order], w[order])):
            object.__setattr__(self, name, value)

    @property
    def n_edges(self) -> int:
        return self.i.size

    @cached_property
    def _incidence(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The 2T edge ends (``k`` edge k's ``i`` end, ``T + k`` its ``j`` end)
        grouped by vertex: ``rank[v]``, the place of ``v`` by degree, highest
        first, and ``slots[s]``, the s-th end of each vertex of degree > s."""
        ends = np.concatenate((self.i, self.j))
        degree = np.bincount(ends, minlength=self.n_vertices)
        rank = np.argsort(np.argsort(-degree, kind="stable"))
        grouped, by_rank = np.argsort(rank[ends], kind="stable"), -np.sort(-degree)
        start = np.cumsum(by_rank) - by_rank
        return rank, tuple(grouped[start[:np.count_nonzero(degree > s)] + s]
                           for s in range(degree.max(initial=0)))

    def adjacency(self) -> np.ndarray:
        """Dense symmetric weight matrix with zero diagonal."""
        w = np.zeros((self.n_vertices, self.n_vertices))
        w[self.i, self.j] = w[self.j, self.i] = self.weight
        return w

    def weight_range(self) -> tuple[float, float]:
        """(min, max) over existing edge weights; requires at least one edge."""
        if not self.n_edges:
            raise InvalidGraphError("graph has no edges")
        return float(self.weight.min()), float(self.weight.max())


@dataclass(frozen=True)
class SpectralGraph:
    """A graph together with its Laplacian eigendecomposition.

    Attributes
    ----------
    graph : WeightedGraph
    eigenvalues : ndarray, shape (n,)
        Ascending; ``eigenvalues[0]`` is zero up to :func:`zero_tolerance`.
    eigenvectors : ndarray, shape (n, n), or None
        Columns are the canonicalized orthonormal eigenvectors; None in a
        spectrum-only view, on which every transform (``gft``, ``igft``, a
        filter operator) raises, as None is no array.
    laplacian : ndarray, shape (n, n)
        ``diag(W 1) - W`` of ``graph``; not stored, rebuilt on each access.
    """

    graph: WeightedGraph
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray | None = field(repr=False)

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


def _end_sums(graph: WeightedGraph, ends: np.ndarray) -> np.ndarray:
    """Row ``v`` the sum of the rows of ``ends``, one per edge end as in
    :attr:`WeightedGraph._incidence`, at vertex ``v``, in one fixed order."""
    rank, slots = graph._incidence
    acc = np.zeros((graph.n_vertices,) + ends.shape[1:])
    part = np.empty_like(acc)
    for s in slots:
        acc[:len(s)] += np.take(ends, s, axis=0, out=part[:len(s)], mode="clip")
    return np.take(acc, rank, axis=0, out=part, mode="clip")


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
    eigvals, vecs = np.linalg.eigh(_laplacian(graph.adjacency()))
    _canonicalize_eigenvectors(eigvals, vecs)

    n = graph.n_vertices
    gram = vecs.T @ vecs
    gram.flat[::n + 1] -= 1.0
    ortho = np.abs(gram, out=gram).max()
    del gram
    if ortho > 1e-10:
        raise InvalidGraphError(f"eigenvector basis not orthonormal ({ortho:.2e})")
    scale = max(float(eigvals[-1]), 1.0)
    # L v from the edges, w (v_i - v_j) at each i end and its negative at
    # each j end, on as many columns at a time as keep it N x 128 in size
    i, j, maxima = graph.i, graph.j, []
    step = max(1, _COLUMN_BLOCK * n // max(graph.n_edges, 1))
    for lo in range(0, n, step):
        v, lam = vecs[:, lo:lo + step], eigvals[lo:lo + step]
        f = (v[i] - v[j]) * graph.weight[:, None]
        maxima.append(np.abs(_end_sums(graph, np.concatenate((f, -f))) - v * lam).max())
    resid = np.max(maxima)
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
    n, i, j, w = graph.n_vertices, graph.i, graph.j, graph.weight
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
        i, j, w = current.i, current.j, current.weight
        if mode == "add":
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
            a = int(np.searchsorted(start, t, "right")) - 1
            b = t - int(start[a]) + a + 1
            current = WeightedGraph(n, np.append(i, a), np.append(j, b),
                                    np.append(w, rng.uniform(lo, hi)))
        else:
            for _ in range(MAX_PERTURB_RETRIES):
                keep = np.arange(i.size) != rng.integers(i.size)
                current = WeightedGraph(n, i[keep], j[keep], w[keep])
                if _stays_connected(current):
                    break
            else:
                raise PerturbationInfeasibleError(
                    f"no removable edge keeps the graph connected (step {k + 1})"
                )
    return current


def perturb_vertices(
    graph: WeightedGraph,
    count: int,
    mode: str,
    seed: int,
) -> tuple[WeightedGraph, np.ndarray]:
    """Add or remove ``count`` vertices at random.

    Returns the new graph and the old index of each of its vertices: the
    survivors keep their order, and an added vertex, appended after the old
    ones, has -1.

    mode "add": each new vertex attaches to :data:`K_ATTACH` distinct uniformly
    chosen existing vertices with weights uniform over the existing weight
    range. mode "remove": vertex subsets are redrawn until the induced graph
    stays connected, up to :data:`MAX_PERTURB_RETRIES` attempts per vertex; a
    removal that would leave fewer than two vertices is infeasible.
    """
    rng = _perturb_rng("perturb-vertices", count, mode, seed)
    n, i, j, w = graph.n_vertices, graph.i, graph.j, graph.weight
    if mode == "add":
        # weight_range needs an edge, so the K_ATTACH = 2 targets exist
        lo, hi = graph.weight_range()
        rows = [(t, new, rng.uniform(lo, hi)) for new in range(n, n + count)
                for t in np.sort(rng.choice(new, size=K_ATTACH, replace=False))]
        a, b, extra = np.reshape(rows, (-1, 3)).T
        old = np.concatenate((np.arange(n), np.full(count, -1)))
        return WeightedGraph(n + count, *map(np.append, (i, j, w), (a, b, extra))), old

    if count and n - count < 2:
        raise PerturbationInfeasibleError(f"removing {count} of {n} vertices leaves fewer than two")
    for _ in range(MAX_PERTURB_RETRIES * max(count, 1)):
        alive = np.ones(n, dtype=bool)
        alive[rng.choice(n, size=count, replace=False)] = False
        new = np.cumsum(alive) - 1
        kept = alive[i] & alive[j]
        cand = WeightedGraph(n - count, new[i[kept]], new[j[kept]], w[kept])
        if _stays_connected(cand):
            return cand, np.flatnonzero(alive)
    raise PerturbationInfeasibleError(
        "no vertex subset keeps the graph connected within the retry budget"
    )


def perturb(
    graph: WeightedGraph, count: int, mode: str, seed: int
) -> tuple[WeightedGraph, np.ndarray]:
    """Apply ``count`` steps of one of :data:`PERTURB_MODES`.

    ``"add-edges"``/``"remove-edges"`` run :func:`perturb_edges` and
    ``"add-vertices"``/``"remove-vertices"`` :func:`perturb_vertices`, with
    the same seed. Returns the new graph and the old index of each new
    vertex (-1 if added), ``arange(n)`` on the edge modes.
    """
    if mode not in PERTURB_MODES:
        raise ValueError(f"unknown perturbation mode {mode!r}")
    kind, what = mode.split("-")
    if what == "edges":
        return perturb_edges(graph, count, kind, seed), np.arange(graph.n_vertices)
    return perturb_vertices(graph, count, kind, seed)


def write_edge_list(graph: WeightedGraph, path) -> None:
    """Write edges as CSV ``from,to,weight`` (0-based, %.17g weights)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from", "to", "weight"])
        for i, j, w in zip(graph.i.tolist(), graph.j.tolist(), graph.weight.tolist()):
            writer.writerow([i, j, format(w, ".17g")])


def _read_table(path, header: list[str], what: str) -> list[np.ndarray]:
    """The columns of a UTF-8 CSV table with ``header`` (case and spaces
    ignored): two integer columns, then floats; blank rows are skipped. A bad
    header or row, a value that does not parse, text that is not UTF-8 or a
    table with no rows is an :class:`InvalidGraphError` naming the ``what``
    table."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            head = next(reader, None)
            if head is None or [h.strip().lower() for h in head] != header:
                raise InvalidGraphError(f"bad {what} header in {path}: {head}")
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise InvalidGraphError(f"bad {what} row {row}")
                try:
                    rows.append((int(row[0]), int(row[1]), *map(float, row[2:])))
                except ValueError as exc:
                    raise InvalidGraphError(f"unparseable {what} row {row}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InvalidGraphError(f"cannot read {what} table {path}: {exc}") from exc
    if not rows:
        raise InvalidGraphError(f"no {what} rows in {path}")
    return [np.array(c) for c in zip(*rows)]


def read_edge_list(path) -> WeightedGraph:
    """Read a ``from,to,weight`` CSV (UTF-8, 0-based vertices) as written by
    :func:`write_edge_list`; the vertex count is ``max index + 1``. A table
    that does not parse, or has no edges, is an :class:`InvalidGraphError`;
    a graph that is not connected is a :class:`DisconnectedGraphError`, and
    one with more vertices than edges + 1 is rejected before it is built."""
    i, j, w = _read_table(path, ["from", "to", "weight"], "edge-list")
    n = int(max(i.max(), j.max())) + 1
    if n > i.size + 1:
        raise DisconnectedGraphError(
            f"graph in {path} is not connected: {n} vertices, {i.size} edges")
    graph = WeightedGraph(n, i, j, w)
    if not _stays_connected(graph):
        raise DisconnectedGraphError(f"graph in {path} is not connected")
    return graph
