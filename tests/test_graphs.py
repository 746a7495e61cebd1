import numpy as np
import pytest

from gspest.errors import InvalidGraphError, PerturbationInfeasibleError
from gspest.graphs import (
    SpectralGraph,
    WeightedGraph,
    _canonicalize_eigenvectors,
    _end_sums,
    build_laplacian,
    gft,
    igft,
    perturb,
    perturb_edges,
    perturb_vertices,
    read_edge_list,
    write_edge_list,
)
from gspest.models import bundled_ieee118
from gspest.rng import generator


def random_connected_graph(rng, n, extra=0.3):
    """Random spanning tree plus a fraction of extra edges, weights in (0, 2]."""
    edges = []
    for v in range(1, n):
        u = int(rng.integers(v))
        edges.append((u, v, float(rng.uniform(0.1, 2.0))))
    present = {(min(i, j), max(i, j)) for i, j, _ in edges}
    n_extra = int(extra * n)
    while n_extra > 0:
        i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        if (i, j) not in present:
            present.add((i, j))
            edges.append((i, j, float(rng.uniform(0.1, 2.0))))
            n_extra -= 1
    return graph_of(n, edges)


def graph_of(n, edges=()):
    """The graph on ``n`` vertices with the ``(i, j, weight)`` triples
    ``edges``, in any order and orientation."""
    edges = tuple(edges)
    return WeightedGraph(n, *(zip(*edges) if edges else ((), (), ())))


def edges_of(graph):
    """The canonical ``(i, j, weight)`` triples of ``graph``, as Python ints
    and floats, in its stored order."""
    return tuple(zip(graph.i.tolist(), graph.j.tolist(), graph.weight.tolist()))


def old_indices(vmap, n_new):
    """A vertex map ``{old: new}`` as the old index of each new vertex, -1 if
    added."""
    old = np.full(n_new, -1)
    old[list(vmap.values())] = list(vmap)
    return old


def vertex_map(old):
    """The sorted ``(old, new)`` pairs of the old index of each new vertex."""
    return sorted((o, k) for k, o in enumerate(old.tolist()) if o >= 0)


PATH3 = graph_of(3, ((0, 1, 1.0), (1, 2, 1.0)))
TRIANGLE = graph_of(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))


# ---------------------------------------------------------------- structure


def test_edges_canonicalized_and_sorted():
    g = graph_of(3, ((2, 1, 1.0), (1, 0, 2.0)))
    assert edges_of(g) == ((0, 1, 2.0), (1, 2, 1.0))
    assert (g.i.dtype, g.j.dtype, g.weight.dtype) == (np.intp, np.intp, np.float64)


def test_invalid_graphs_rejected():
    with pytest.raises(InvalidGraphError):
        graph_of(2, ((0, 0, 1.0),))  # self loop
    with pytest.raises(InvalidGraphError):
        graph_of(2, ((0, 1, 1.0), (1, 0, 2.0)))  # duplicate pair
    with pytest.raises(InvalidGraphError):
        graph_of(2, ((0, 2, 1.0),))  # out of range
    with pytest.raises(InvalidGraphError):
        graph_of(2, ((0, 1, -1.0),))  # negative weight
    with pytest.raises(InvalidGraphError):
        graph_of(0)


def test_adjacency_symmetric_zero_diagonal():
    adj = TRIANGLE.adjacency()
    assert np.array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 0)
    assert adj[0, 1] == 1.0


# ------------------------------------------------------------ decomposition


def test_end_sums_add_each_vertex_ends_in_end_order():
    # end k is edge k's i end and end T + k its j end; each vertex's sum
    # starts from 0.0 and adds its ends in that order, so a lone -0.0 end
    # (the last j end, a leaf of the star) sums to +0.0
    rng = generator(16, "end-sums")
    star = graph_of(40, ((0, v, float(v)) for v in range(1, 40)))
    complete = graph_of(12, ((a, b, 1.0) for a in range(12) for b in range(a + 1, 12)))
    for graph in (graph_of(1), star, complete, bundled_ieee118().graph()):
        at = np.concatenate((graph.i, graph.j)).tolist()
        for shape in ((), (1,), (37,)):
            ends = rng.standard_normal((len(at),) + shape)
            ends[-1:] = -0.0
            want = np.zeros((graph.n_vertices,) + shape)
            for k, v in enumerate(at):
                want[v] += ends[k]
            got = _end_sums(graph, ends)
            assert got.dtype == float and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_path3_spectrum():
    sg = build_laplacian(PATH3)
    assert np.allclose(sg.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)
    assert sg.is_connected()


def test_triangle_spectrum():
    sg = build_laplacian(TRIANGLE)
    assert np.allclose(sg.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)


def test_single_edge_weight_two():
    sg = build_laplacian(graph_of(2, ((0, 1, 2.0),)))
    assert np.allclose(sg.eigenvalues, [0.0, 4.0], atol=1e-12)


def test_spectral_invariants_random_graphs():
    # acceptance criterion 1 material: orthonormality and EVD residual
    rng = generator(404, "graphs")
    for _ in range(50):
        n = int(rng.integers(3, 31))
        sg = build_laplacian(random_connected_graph(rng, n))
        v = sg.eigenvectors
        assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-10
        lap = sg.laplacian
        resid = lap @ v - v * sg.eigenvalues
        assert np.max(np.abs(resid)) < 1e-8 * max(np.abs(lap).max(), 1.0)
        assert abs(sg.eigenvalues[0]) <= sg.zero_tolerance()
        assert np.all(np.diff(sg.eigenvalues) >= -1e-12)
        recon = (v * sg.eigenvalues) @ v.T
        assert np.linalg.norm(recon - lap) < 1e-10 * max(np.linalg.norm(lap), 1.0)


def test_spectral_graph_stores_no_laplacian():
    import dataclasses

    assert [f.name for f in dataclasses.fields(SpectralGraph)] == [
        "graph", "eigenvalues", "eigenvectors",
    ]
    g = random_connected_graph(generator(13, "graphs"), 9)
    w = g.adjacency()
    assert np.array_equal(build_laplacian(g).laplacian, np.diag(w.sum(axis=1)) - w)


def test_rebuild_bit_identical():
    rng = generator(11, "graphs")
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(4, 20)))
        a = build_laplacian(g)
        b = build_laplacian(g)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_sign_rule_largest_entry_positive():
    rng = generator(12, "graphs")
    for _ in range(20):
        sg = build_laplacian(random_connected_graph(rng, int(rng.integers(3, 15))))
        for k in range(sg.n_vertices):
            col = sg.eigenvectors[:, k]
            idx = np.argmax(np.abs(np.abs(col) - np.abs(col).max()) < 1e-12)
            assert col[idx] > 0, f"column {k} sign rule violated"


def test_degenerate_eigenspace_deterministic():
    # K3 has a repeated eigenvalue; representation must not depend on
    # numerical jitter of the input weights
    sg1 = build_laplacian(TRIANGLE)
    jit = graph_of(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0 + 1e-15)))
    sg2 = build_laplacian(jit)
    assert np.max(np.abs(sg1.eigenvectors - sg2.eigenvectors)) < 1e-6


def _canonical_sign(vec):
    """The per-column sign rule that ``_canonicalize_eigenvectors`` applies
    to blocks of columns at once: the largest |entry| (lowest index among
    entries within 1e-8 of the max) is made positive."""
    mags = np.abs(vec)
    idx = int(np.argmax(mags >= (1.0 - 1e-8) * mags.max()))
    if vec[idx] < 0:
        return -vec
    return vec


def _gram_schmidt_canonicalization(eigvals, vecs):
    """The Gram-Schmidt loop that ``_canonicalize_eigenvectors`` replaced,
    kept as the reference for graphs whose clusters it handled."""
    n = vecs.shape[0]
    scale = max(float(eigvals[-1]) - float(eigvals[0]), 1.0)
    out = vecs.copy()
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and eigvals[stop] - eigvals[start] <= 1e-8 * scale:
            stop += 1
        if stop - start > 1:
            block = vecs[:, start:stop]
            proj = block @ block.T
            basis = []
            for k in range(n):
                cand = proj[:, k].copy()
                for b in basis:
                    cand -= (b @ cand) * b
                nrm = np.linalg.norm(cand)
                if nrm > 1e-8:
                    basis.append(cand / nrm)
                    if len(basis) == stop - start:
                        break
            out[:, start:stop] = np.column_stack(basis)
        start = stop
    for k in range(n):
        out[:, k] = _canonical_sign(out[:, k])
    return out


def _cycle(n):
    return graph_of(n, ((i, (i + 1) % n, 1.0) for i in range(n)))


@pytest.mark.parametrize("graph", [
    _cycle(8),
    _cycle(13),
    graph_of(9, ((0, i, 1.5) for i in range(1, 9))),
    graph_of(7, ((i, j, 1.0) for i in range(7) for j in range(i + 1, 7))),
    graph_of(16, (
        (u, u ^ (1 << b), 1.0) for u in range(16) for b in range(4) if u < u ^ (1 << b)
    )),
    # twins 0, 1 and 2, 3: unit vector 1 projects onto minus unit vector 0
    graph_of(4, ((0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0))),
], ids=["cycle8", "cycle13", "star9", "complete7", "hypercube4", "twins4"])
def test_eigenspace_basis_matches_gram_schmidt(graph):
    w = graph.adjacency()
    lam, vecs = np.linalg.eigh(np.diag(w.sum(axis=1)) - w)
    assert np.sum(np.diff(lam) < 1e-8 * lam[-1]) > 0  # has a repeated eigenvalue
    got = _canonicalize_eigenvectors(lam, vecs.copy())  # works in place
    want = _gram_schmidt_canonicalization(lam, vecs)
    assert np.max(np.abs(got - want)) < 1e-12


# (from, to, susceptance) of the ties between neighbouring copies, 1-based
_TIES = (
    (8, 151, 75.9581616803578), (28, 133, 213.26739302898395),
    (57, 149, 183.3167203177813), (205, 249, 144.10791647681546),
    (220, 311, 135.76791915595305), (233, 282, 188.11417811277093),
    (265, 442, 219.62514228010778), (290, 454, 235.21582872574),
    (293, 418, 62.365516049366256),
)


def exact_copies(copies):
    """``copies`` exact copies of the bundled grid joined by those of
    ``_TIES`` that stay inside them (the bundled grid itself for 1)."""
    base = bundled_ieee118().graph()
    n = base.n_vertices
    edges = [(i + c * n, j + c * n, w) for c in range(copies) for i, j, w in edges_of(base)]
    ties = [(f - 1, t - 1, w) for f, t, w in _TIES if t <= copies * n]
    return graph_of(copies * n, edges + ties)


def test_exact_copies_of_a_grid_decompose():
    # four identical copies of the bundled grid joined by a few ties have
    # clusters of eigenvalues within 1e-8 of each other; Gram-Schmidt left
    # that basis 1.7e-9 away from orthonormal, and the build was rejected
    graph = exact_copies(4)
    sg = build_laplacian(graph)
    lam, v = sg.eigenvalues, sg.eigenvectors
    assert np.sum(np.diff(lam) <= 1e-8 * lam[-1]) > 0
    assert np.max(np.abs(v.T @ v - np.eye(graph.n_vertices))) <= 1e-10
    assert sg.is_connected()
    assert np.array_equal(build_laplacian(graph).eigenvectors, v)


@pytest.mark.parametrize("copies", [1, 4])
def test_build_matches_the_out_of_place_reference(copies):
    # the dense Laplacian, eigh and canonicalization of a copy, bit for bit
    graph = exact_copies(copies)
    w = graph.adjacency()
    lap = np.diag(w.sum(axis=1)) - w
    lam, vecs = np.linalg.eigh(lap)
    want = _canonicalize_eigenvectors(lam, vecs.copy())
    sg = build_laplacian(graph)
    for got, ref in ((sg.laplacian, lap), (sg.eigenvalues, lam), (sg.eigenvectors, want)):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    assert sg.eigenvectors.flags.c_contiguous


def test_build_laplacian_peak_memory():
    # the adjacency becomes the Laplacian in place, eigh's eigenvectors are
    # canonicalized in place and each check holds at most one N x N array:
    # about 2.0 N^2 doubles at the peak (the Laplacian and eigh's output),
    # where the out-of-place steps held 4.0
    import tracemalloc

    graph = random_connected_graph(generator(15, "memory"), 470)
    n = graph.n_vertices
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_laplacian(graph)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * n * n * 8


def test_zero_eigenvector_is_constant_vector():
    sg = build_laplacian(PATH3)
    v1 = sg.eigenvectors[:, 0]
    assert np.allclose(v1, 1.0 / np.sqrt(3.0), atol=1e-12)


def test_disconnected_graph_flagged():
    g = graph_of(4, ((0, 1, 1.0), (2, 3, 1.0)))
    sg = build_laplacian(g)
    assert not sg.is_connected()


# ------------------------------------------------------------------- GFT


def test_gft_round_trip_and_parseval():
    rng = generator(2, "gft")
    sg = build_laplacian(random_connected_graph(rng, 12))
    for _ in range(100):
        x = rng.standard_normal(12)
        xt = gft(sg, x)
        assert np.max(np.abs(igft(sg, xt) - x)) < 1e-12
        assert abs(np.linalg.norm(xt) - np.linalg.norm(x)) < 1e-12
        coeffs = rng.standard_normal(12)
        assert np.max(np.abs(gft(sg, igft(sg, coeffs)) - coeffs)) < 1e-12


def test_gft_batched_rows():
    rng = generator(3, "gft")
    sg = build_laplacian(random_connected_graph(rng, 8))
    x = rng.standard_normal((5, 8))
    xt = gft(sg, x)
    assert xt.shape == (5, 8)
    for i in range(5):
        assert np.allclose(xt[i], gft(sg, x[i]), atol=1e-15)


def test_gft_of_eigenvector_is_unit_coordinate():
    sg = build_laplacian(PATH3)
    xt = gft(sg, sg.eigenvectors[:, 1])
    assert np.allclose(xt, [0.0, 1.0, 0.0], atol=1e-12)


# --------------------------------------------------------- perturbations


def test_add_edges_grows_and_stays_connected():
    rng = generator(6, "perturb")
    g = random_connected_graph(rng, 15)
    lo, hi = g.weight_range()
    for seed in range(20):
        out = perturb_edges(g, 3, "add", seed)
        assert out.n_edges == g.n_edges + 3
        assert out.n_vertices == g.n_vertices
        assert build_laplacian(out).is_connected()
        new = set(edges_of(out)) - set(edges_of(g))
        for _, _, w in new:
            assert lo <= w <= hi


def test_add_edges_deterministic():
    rng = generator(7, "perturb")
    g = random_connected_graph(rng, 10)
    assert edges_of(perturb_edges(g, 2, "add", 9)) == edges_of(perturb_edges(g, 2, "add", 9))


def test_remove_edges_keeps_connectivity():
    rng = generator(8, "perturb")
    g = random_connected_graph(rng, 12, extra=1.0)
    for seed in range(20):
        out = perturb_edges(g, 2, "remove", seed)
        assert out.n_edges == g.n_edges - 2
        assert build_laplacian(out).is_connected()


def test_remove_edges_rejects_bridges():
    # dumbbell: two triangles joined by one bridge; the bridge must survive
    edges = (
        (0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
        (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0),
        (2, 3, 1.0),
    )
    g = graph_of(6, edges)
    for seed in range(30):
        out = perturb_edges(g, 1, "remove", seed)
        assert (2, 3, 1.0) in edges_of(out), f"seed {seed} removed the bridge"
        assert build_laplacian(out).is_connected()


def test_remove_edges_infeasible_on_tree():
    g = PATH3
    with pytest.raises(PerturbationInfeasibleError):
        perturb_edges(g, 1, "remove", 0)


def test_add_edges_infeasible_on_complete():
    with pytest.raises(PerturbationInfeasibleError):
        perturb_edges(TRIANGLE, 1, "add", 0)


def test_zero_count_is_identity():
    g = random_connected_graph(generator(9, "perturb"), 8)
    assert edges_of(perturb_edges(g, 0, "add", 3)) == edges_of(g)
    for mode in ("add", "remove"):
        out, old = perturb_vertices(g, 0, mode, 3)
        assert edges_of(out) == edges_of(g)
        assert np.array_equal(old, np.arange(8))


def test_add_vertices_attachment():
    rng = generator(10, "perturb")
    g = random_connected_graph(rng, 9)
    out, old = perturb_vertices(g, 2, "add", 5)
    assert out.n_vertices == 11
    assert np.array_equal(old, [*range(9), -1, -1])
    assert out.n_edges == g.n_edges + 4
    assert build_laplacian(out).is_connected()
    # old edges unchanged
    assert set(edges_of(g)) <= set(edges_of(out))
    for i, j, _ in set(edges_of(out)) - set(edges_of(g)):
        assert max(i, j) >= 9


def test_remove_vertices_map_and_connectivity():
    rng = generator(11, "perturb")
    g = random_connected_graph(rng, 12, extra=1.0)
    for seed in range(10):
        out, old = perturb_vertices(g, 3, "remove", seed)
        assert out.n_vertices == 9
        # the survivors' old indices, in order
        assert len(old) == 9 and old[0] >= 0 and np.all(np.diff(old) > 0) and old[-1] < 12
        assert build_laplacian(out).is_connected()
        # surviving edges keep their weights under the remap
        adj = g.adjacency()
        for i, j, w in edges_of(out):
            assert adj[old[i], old[j]] == w


def test_remove_vertices_infeasible():
    with pytest.raises(PerturbationInfeasibleError):
        perturb_vertices(PATH3, 3, "remove", 0)


def test_removal_leaving_one_vertex_is_infeasible():
    # a single vertex has an empty edge list, which read_edge_list rejects
    with pytest.raises(PerturbationInfeasibleError, match="fewer than two"):
        perturb_vertices(PATH3, 2, "remove", 0)
    assert perturb_vertices(PATH3, 1, "remove", 0)[0].n_vertices == 2


@pytest.mark.parametrize(
    "call, mode",
    [(perturb_edges, "bogus"), (perturb_vertices, "bogus"), (perturb, "bogus"),
     (perturb, "add"), (perturb, "add-vertex")],
)
def test_unknown_perturbation_mode_is_a_value_error(call, mode):
    with pytest.raises(ValueError, match=repr(mode)):
        call(PATH3, 1, mode, 0)


# ------------------------------------------------------------------ I/O


def test_edge_list_round_trip(tmp_path):
    rng = generator(13, "io")
    g = random_connected_graph(rng, 14)
    path = tmp_path / "graph.csv"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back.n_vertices == g.n_vertices
    assert edges_of(back) == edges_of(g)
    header = path.read_text().splitlines()[0]
    assert header == "from,to,weight"


@pytest.mark.parametrize("data, message", [
    (b"", "bad edge-list header in .*: None"),
    (b"from,to\n0,1\n", "bad edge-list header"),
    (b"from,to,weight\n0,1\n", "bad edge-list row \\['0', '1'\\]"),
    (b"from,to,weight\n0,1,x\n", "unparseable edge-list row \\['0', '1', 'x'\\]"),
    (b"from,to,weight\n\n\n", "no edge-list rows in "),
    ("from,to,weight\n0,1,1.0\n".encode("utf-16"), "cannot read edge-list table .*utf-8"),
    (b"from,to,weight\n0,1,1" + b"0" * 200_000 + b"\n", "cannot read edge-list table .*limit"),
], ids=["empty", "header", "width", "value", "no-rows", "utf-16", "long-field"])
def test_edge_list_faults_are_invalid_graph_errors(tmp_path, data, message):
    path = tmp_path / "graph.csv"
    path.write_bytes(data)
    with pytest.raises(InvalidGraphError, match=message):
        read_edge_list(path)
