"""The array-based topology-refresh path against the loop code it replaced.

The reference functions below are the earlier loop implementations, kept in
behaviour (the grid ones read its branch table row by row) so that the
vectorized versions are checked pair for pair and draw for draw. They keep a
graph as a tuple of canonical ``(i, j, weight)`` triples and a vertex map as a
dict old -> new, and the array results are compared with those converted.
"""

import hashlib
import re

import numpy as np
import pytest

from gspest import graphs
from gspest.errors import InvalidGraphError, PerturbationInfeasibleError
from gspest.graphs import (
    _canonicalize_eigenvectors,
    build_laplacian,
    perturb,
    perturb_edges,
    perturb_vertices,
)
from gspest.models import bundled_ieee118, perturb_grid
from gspest.rng import generator
from tests.test_graphs import (
    _canonical_sign,
    edges_of,
    exact_copies,
    graph_of,
    old_indices,
    random_connected_graph,
    vertex_map,
)
from tests.test_models import dense_admittance, random_grid, table_grid, tiled_grid


def loop_canonical_edges(n, edges):
    """The edge checks and canonical order, one edge at a time."""
    canon = []
    seen = set()
    for i, j, w in edges:
        i, j, w = int(i), int(j), float(w)
        if i == j:
            raise InvalidGraphError(f"self loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
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
    return tuple(canon)


def loop_canonicalize(eigvals, vecs):
    """Eigenspace bases, then the sign rule one column at a time."""
    n = vecs.shape[0]
    scale = max(float(eigvals[-1]) - float(eigvals[0]), 1.0)
    out = vecs.copy()
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and eigvals[stop] - eigvals[start] <= 1e-8 * scale:
            stop += 1
        if stop - start > 1:
            out[:, start:stop] = graphs._eigenspace_basis(vecs[:, start:stop])
        start = stop
    for k in range(n):
        out[:, k] = _canonical_sign(out[:, k])
    return out


def loop_branch_values(grid):
    return tuple(
        (int(i), int(j), float(g), float(b))
        for i, j, g, b in zip(grid.i, grid.j, grid.conductance, grid.susceptance)
    )


def loop_graph(grid):
    """The canonical triples of the grid's susceptance graph."""
    edges = tuple((i, j, b) for i, j, _, b in loop_branch_values(grid) if b != 0.0)
    return loop_canonical_edges(grid.n_buses, edges)


def loop_absent_pairs(n, edges):
    present = {(i, j) for i, j, _ in edges}
    return [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in present]


def loop_weight_range(edges):
    weights = [w for _, _, w in edges]
    return min(weights), max(weights)


def loop_add_edges(graph, count, seed):
    rng = generator(seed, "perturb-edges", 0)
    n, edges = graph.n_vertices, edges_of(graph)
    for _ in range(count):
        absent = loop_absent_pairs(n, edges)
        if not absent:
            raise PerturbationInfeasibleError("graph is complete, cannot add")
        lo, hi = loop_weight_range(edges)
        i, j = absent[int(rng.integers(len(absent)))]
        w = float(rng.uniform(lo, hi))
        edges = loop_canonical_edges(n, edges + ((i, j, w),))
    return edges


def loop_remove_edges(graph, count, seed):
    rng = generator(seed, "perturb-edges", 1)
    n, edges = graph.n_vertices, edges_of(graph)
    for _ in range(count):
        for _ in range(graphs.MAX_PERTURB_RETRIES):
            pick = int(rng.integers(len(edges)))
            cand = edges[:pick] + edges[pick + 1:]
            if graphs._stays_connected(graph_of(n, cand)):
                edges = cand
                break
        else:
            raise PerturbationInfeasibleError("no removable edge keeps the graph connected")
    return edges


def loop_perturb_vertices(graph, count, kind, seed):
    rng = generator(seed, "perturb-vertices", ("add", "remove").index(kind))
    n, edges = graph.n_vertices, edges_of(graph)
    if kind == "add":
        lo, hi = loop_weight_range(edges)
        for new in range(n, n + count):
            targets = rng.choice(new, size=graphs.K_ATTACH, replace=False)
            for t in sorted(int(t) for t in targets):
                edges += ((t, new, float(rng.uniform(lo, hi))),)
        return loop_canonical_edges(n + count, edges), {i: i for i in range(n)}
    for _ in range(graphs.MAX_PERTURB_RETRIES * max(count, 1)):
        alive = np.ones(n, dtype=bool)
        alive[rng.choice(n, size=count, replace=False)] = False
        vmap = dict(zip(np.flatnonzero(alive).tolist(), range(n - count)))
        kept = tuple((vmap[i], vmap[j], w) for i, j, w in edges if i in vmap and j in vmap)
        cand = loop_canonical_edges(n - count, kept)
        if graphs._stays_connected(graph_of(n - count, cand)):
            return cand, vmap
    raise PerturbationInfeasibleError("no vertex subset keeps the graph connected")


def loop_perturb(graph, count, mode, seed):
    """The new graph's triples and the vertex map old -> new of one of
    :data:`gspest.graphs.PERTURB_MODES`."""
    kind, what = mode.split("-")
    if what == "edges":
        step = loop_add_edges if kind == "add" else loop_remove_edges
        return step(graph, count, seed), {i: i for i in range(graph.n_vertices)}
    return loop_perturb_vertices(graph, count, kind, seed)


def loop_perturb_grid(grid, count, mode, seed):
    """Branch rows rebuilt edge by edge, conductances looked up in a dict
    keyed on old branch tuples, then each conductance-only branch whose buses
    survive and whose pair gained no edge added back."""
    new_edges, vmap = loop_perturb(graph_of(grid.n_buses, loop_graph(grid)), count, mode, seed)
    cond = {(i, j): g for i, j, g, _ in loop_branch_values(grid)}
    inverse = {new: old for old, new in vmap.items()}
    rows = []
    for i, j, w in new_edges:
        oi, oj = inverse.get(i), inverse.get(j)
        g = 0.0
        if oi is not None and oj is not None and (min(oi, oj), max(oi, oj)) in cond:
            g = cond[(min(oi, oj), max(oi, oj))]
        rows.append((i, j, g, w))
    pairs = {(i, j) for i, j, _, _ in rows}
    for i, j, g, b in loop_branch_values(grid):
        if b == 0.0 and i in vmap and j in vmap and (vmap[i], vmap[j]) not in pairs:
            rows.append((vmap[i], vmap[j], g, b))
    return tuple(sorted(rows)), vmap


def conductance_only_grid():
    grid = random_grid(generator(3, "refresh-grid"), 30)
    branches = {(i, j): (g, b) for i, j, g, b in grid.branch_values()}
    key = next((i, j) for i in range(30) for j in range(i + 1, 30) if (i, j) not in branches)
    branches[key] = (0.7, 0.0)
    return table_grid(30, branches)


def random_grid_40():
    return random_grid(generator(4, "refresh-grid"), 40)


def tiled_grid_4():
    return tiled_grid(4)


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# ------------------------------------------------------- grid -> graph/branches


@pytest.mark.parametrize("make", [bundled_ieee118, conductance_only_grid])
def test_graph_and_branch_values_match_loops(make):
    grid = make()
    graph = grid.graph()
    assert graph.n_vertices == grid.n_buses
    assert repr(edges_of(graph)) == repr(loop_graph(grid))
    assert grid.branch_values() == loop_branch_values(grid)
    for value in grid.branch_values()[0]:
        assert type(value) in (int, float)


@pytest.mark.parametrize("make", [bundled_ieee118, tiled_grid, conductance_only_grid])
def test_stored_branches_match_dense_scans(make):
    # the reference: upper-triangle scans of the dense branch matrices, and
    # the stacked admittance built from those matrices
    grid = make()
    g, b = dense_admittance(grid)
    i, j = np.nonzero(np.triu(b != 0.0, 1))
    graph = grid.graph()
    assert np.array_equal(graph.i, i) and np.array_equal(graph.j, j)
    assert graph.weight.tobytes() == b[i, j].tobytes()
    i, j = np.nonzero(np.triu((b != 0.0) | (g != 0.0), 1))
    want = tuple(zip(i.tolist(), j.tolist(), g[i, j].tolist(), b[i, j].tolist()))
    assert grid.branch_values() == want
    uu = np.tile(np.outer(grid.voltage, grid.voltage), (2, 2))
    assert np.array_equal(grid._stacked.toarray(), np.block([[g, -b], [b, g]]) * uu)


def test_conductance_only_branch_is_a_branch_but_not_an_edge():
    grid = conductance_only_grid()
    assert len(grid.branch_values()) == grid.graph().n_edges + 1


@pytest.mark.parametrize(
    "mode", ["add-edges", "remove-edges", "add-vertices", "remove-vertices"]
)
def test_perturb_grid_matches_loop_rebuild(mode):
    for make in (bundled_ieee118, conductance_only_grid, random_grid_40, tiled_grid_4):
        grid = make()
        for seed in range(3):
            new_grid, old = perturb_grid(grid, 4, mode, seed)
            rows, vmap = loop_perturb_grid(grid, 4, mode, seed)
            assert old.dtype == np.intp
            assert old.tolist() == old_indices(vmap, new_grid.n_buses).tolist()
            assert repr(new_grid.branch_values()) == repr(rows)


@pytest.mark.parametrize("mode", graphs.PERTURB_MODES)
def test_perturb_matches_loop_triples_and_maps(mode):
    # the columns and the old indices against the loop's triples and dict,
    # bit for bit, on seeded random graphs and a tiled grid's graph
    rng = generator(6, "refresh-perturb")
    cases = [random_connected_graph(rng, int(rng.integers(3, 60)), extra=0.5) for _ in range(6)]
    cases.append(tiled_grid_4().graph())
    for graph in cases:
        count = min(4, graph.n_vertices - 2)
        for seed in range(2):
            try:
                edges, vmap = loop_perturb(graph, count, mode, seed)
            except PerturbationInfeasibleError:
                with pytest.raises(PerturbationInfeasibleError):
                    perturb(graph, count, mode, seed)
                continue
            new, old = perturb(graph, count, mode, seed)
            assert new.n_vertices == len(old)
            assert (new.i.dtype, new.j.dtype, new.weight.dtype) == (np.intp, np.intp, np.float64)
            assert repr(edges_of(new)) == repr(edges)
            assert old.tolist() == old_indices(vmap, new.n_vertices).tolist()


@pytest.mark.parametrize("mode", graphs.PERTURB_MODES)
def test_perturb_grid_keeps_conductance_only_branches(mode):
    # such a branch is no edge of the perturbed susceptance graph
    grid = conductance_only_grid()
    lone = [(i, j, g) for i, j, g, b in grid.branch_values() if b == 0.0]
    carried = 0
    for seed in range(3):
        new_grid, old = perturb_grid(grid, 1, mode, seed)
        rows = {(i, j): (g, b) for i, j, g, b in new_grid.branch_values()}
        vmap = dict(vertex_map(old))
        kept = [(vmap[i], vmap[j], g) for i, j, g in lone if i in vmap and j in vmap]
        for i, j, g in kept:
            assert rows[(i, j)] == (g, 0.0)
        assert len(rows) == new_grid.graph().n_edges + len(kept)
        carried += len(kept)
    assert carried


def test_perturb_grid_merges_an_edge_added_on_a_conductance_only_pair():
    # (0, 2) is the one absent pair of the susceptance path 0-1-2
    grid = table_grid(3, {(0, 1): (0.1, 2.0), (1, 2): (0.2, 3.0), (0, 2): (0.7, 0.0)})
    new_grid, _ = perturb_grid(grid, 1, "add-edges", 0)
    assert len(new_grid.branch_values()) == 3
    (_, _, g, b), = [row for row in new_grid.branch_values() if row[:2] == (0, 2)]
    assert g == 0.7 and 2.0 <= b <= 3.0


# ------------------------------------------------------------ add-edges draw


def test_add_edges_draw_matches_absent_pair_list():
    g = random_connected_graph(generator(5, "refresh"), 40)
    for seed in range(5):
        assert repr(edges_of(perturb_edges(g, 6, "add", seed))) == repr(loop_add_edges(g, 6, seed))


def test_add_edges_treats_zero_weight_edge_as_present():
    g = graph_of(5, ((0, 1, 1.0), (1, 2, 0.0), (2, 3, 2.0), (3, 4, 1.5)))
    for seed in range(20):
        out = edges_of(perturb_edges(g, 3, "add", seed))
        assert out == loop_add_edges(g, 3, seed)
        assert [e for e in out if e[:2] == (1, 2)] == [(1, 2, 0.0)]


def test_add_edges_one_short_of_complete():
    n = 7
    edges = tuple(
        (i, j, 1.0 + i + j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) != (2, 5)
    )
    g = graph_of(n, edges)
    for seed in range(3):
        out = perturb_edges(g, 1, "add", seed)
        assert edges_of(out) == loop_add_edges(g, 1, seed)
        assert out.n_edges == n * (n - 1) // 2
        with pytest.raises(PerturbationInfeasibleError):
            perturb_edges(g, 2, "add", seed)


def test_add_edges_on_complete_graph_raises():
    g = graph_of(4, ((i, j, 1.0) for i in range(4) for j in range(i + 1, 4)))
    with pytest.raises(PerturbationInfeasibleError):
        perturb_edges(g, 1, "add", 0)
    with pytest.raises(PerturbationInfeasibleError):
        loop_add_edges(g, 1, 0)


# ------------------------------------------------------ connectivity pre-check


def test_connectivity_precheck_agrees_with_lambda2():
    rng = generator(9, "refresh")
    g = random_connected_graph(rng, 25)
    # weights in (1e-6, 2e-5): the bound 4 w_min / (n (n - 1)) is at most
    # 1.4e-7, so every connected removal falls back to eigvalsh
    faint = graph_of(25, ((i, j, w * 1e-5) for i, j, w in edges_of(g)))
    outcomes = set()
    for graph in (g, faint):
        edges = edges_of(graph)
        for pick in range(graph.n_edges):
            cand = graph_of(25, edges[:pick] + edges[pick + 1:])
            lap = np.diag(cand.adjacency().sum(axis=1)) - cand.adjacency()
            lam2 = np.linalg.eigvalsh(lap)[1]
            stays = graphs._stays_connected(cand)
            assert stays == (lam2 > graphs.CONNECTIVITY_TOL)
            w_min = cand.weight[cand.weight > 0].min()
            certified = 4 * w_min / (25 * 24) > graphs.CONNECTIVITY_TOL
            outcomes.add((certified, lam2 > 1e-12, stays))
    # split, certified, and both answers of the eigvalsh fallback
    assert {(True, False, False), (True, True, True),
            (False, True, True), (False, True, False)} <= outcomes


def test_connectivity_precheck_skips_eigvalsh_when_split(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    # held together only by a zero-weight edge, so lambda_2 is 0
    split = graph_of(4, ((0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0)))
    assert not graphs._stays_connected(split)
    assert calls == []
    # certified by the bound 4 w_min / (n (n - 1)) > CONNECTIVITY_TOL
    assert graphs._stays_connected(graph_of(1))
    assert graphs._stays_connected(graph_of(3, ((0, 1, 1.0), (1, 2, 1.0))))
    assert calls == []
    # connected, with the bound at or below the tolerance: eigvalsh decides
    # (a 3-path of weight w has lambda_2 = w and the bound 2 w / 3)
    faint = graph_of(3, ((0, 1, 1e-9), (1, 2, 1e-9)))
    assert not graphs._stays_connected(faint)
    assert calls == [1]
    weak = graph_of(3, ((0, 1, 1.2e-6), (1, 2, 1.2e-6)))
    assert graphs._stays_connected(weak)
    assert calls == [1, 1]


def _scipy_components(graph):
    """Each vertex's smallest component member by scipy's csgraph, on the
    positive-weight edges, and the component count."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    n, i, j, w = graph.n_vertices, graph.i, graph.j, graph.weight
    pos = w > 0
    count, labels = connected_components(
        csr_array((w[pos], (i[pos], j[pos])), shape=(n, n)), directed=False
    )
    smallest = np.full(count, n)
    np.minimum.at(smallest, labels, np.arange(n))
    return smallest[labels], count


def _relabelled(rng, n, edges):
    perm = rng.permutation(n)
    return graph_of(n, ((int(perm[i]), int(perm[j]), w) for i, j, w in edges))


def test_components_agree_with_scipy_csgraph():
    rng = generator(17, "components")
    cases = [graph_of(1), graph_of(2), graph_of(2, ((0, 1, 1.0),)), graph_of(2, ((0, 1, 0.0),))]
    for _ in range(40):
        n = int(rng.integers(3, 40))
        g = random_connected_graph(rng, n)
        cases.append(_relabelled(rng, n, edges_of(g)))  # connected
        zeroed = tuple((i, j, w * (rng.random() < 0.7)) for i, j, w in edges_of(g))
        cases.append(_relabelled(rng, n, zeroed))  # zero-weight edges
        h = random_connected_graph(rng, int(rng.integers(1, 10)))
        pieces = edges_of(g) + tuple((i + n, j + n, w) for i, j, w in edges_of(h))
        isolated = int(rng.integers(0, 4))
        total = n + h.n_vertices + isolated
        cases.append(_relabelled(rng, total, pieces))  # two pieces, isolated vertices
        path = tuple((k, k + 1, 1.0) for k in range(n - 1))
        cases.append(_relabelled(rng, n, path))  # long chains of hooks
    counts = set()
    for g in cases:
        i, j, w = g.i, g.j, g.weight
        pos = w > 0
        expected, count = _scipy_components(g)
        assert np.array_equal(graphs._components(g.n_vertices, i[pos], j[pos]), expected)
        if count > 1:
            assert not graphs._stays_connected(g)
        counts.add(min(count, 3))
    assert counts == {1, 2, 3}


# ------------------------------------------------------------ the sign rule


def test_sign_rule_matches_per_column_reference():
    rng = generator(31, "sign-rule")
    n = 300  # more than two column blocks
    distinct = np.arange(n, dtype=float)
    bases = [np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(3)]
    bases.append(-np.abs(rng.standard_normal((n, n))))  # all-negative columns
    ties = rng.standard_normal((n, n))
    for k in range(n):
        top = int(np.argmax(np.abs(ties[:, k])))
        m = abs(ties[top, k])
        near = (k * 7) % n if (k * 7) % n != top else (top + 1) % n
        # at, just inside and just outside the 1e-8 tie threshold, either sign
        gap = ((1.0 - 1e-8) * m, (1.0 - 5e-9) * m, (1.0 - 2e-8) * m)[k % 3]
        ties[near, k] = gap * (-1.0) ** (k // 3)
        ties[top, k] = m * (-1.0) ** (k // 6)
    bases.append(ties)
    for v in bases:
        want = np.column_stack([_canonical_sign(v[:, k]) for k in range(n)])
        assert np.array_equal(_canonicalize_eigenvectors(distinct, v), want)
    # jitter-free tilings: eigenspace clusters, then the sign rule
    w = exact_copies(4).adjacency()
    lam, vecs = np.linalg.eigh(np.diag(w.sum(axis=1)) - w)
    assert np.sum(np.diff(lam) <= 1e-8 * lam[-1]) > 0
    # canonicalization works in place, so each call gets its own copy
    got = _canonicalize_eigenvectors(lam, vecs.copy())
    assert np.array_equal(got, loop_canonicalize(lam, vecs))
    assert np.array_equal(_canonicalize_eigenvectors(np.arange(4.0 * 118), vecs.copy()),
                          np.column_stack([_canonical_sign(c) for c in vecs.T]))


# ---------------------------------------------------- edge checks and order


def test_first_bad_edge_raises_the_loop_message():
    rng = generator(32, "edge-faults")
    n = 6
    good = [(0, 1, 1.0), (2, 1, 0.5), (3, 4, 0.0), (5, 4, 2.0)]
    faults = [
        (3, 3, 1.0),            # self loop
        (2, 6, 1.0),            # out of range
        (-1, 0, 1.0),           # out of range, negative
        (7, 7, 1.0),            # self loop, out of range
        (1, 0, 3.0),            # duplicate of (0, 1)
        (4, 5, -1.0),           # duplicate and negative weight
        (0, 5, -0.5),           # negative weight
        (2, 5, float("nan")),   # NaN weight
        (5, 3, float("inf")),   # infinite weight
    ]
    for trial in range(200):
        picked = [faults[k] for k in rng.choice(len(faults), size=1 + trial % 4)]
        edges = good + picked
        order = rng.permutation(len(edges))
        edges = tuple(edges[k] for k in order)
        with pytest.raises(InvalidGraphError) as want:
            loop_canonical_edges(n, edges)
        with pytest.raises(InvalidGraphError, match=f"^{re.escape(str(want.value))}$"):
            graph_of(n, edges)


def test_canonical_edges_unchanged():
    rng = generator(33, "edge-order")
    for graph in (PINNED, bundled_ieee118().graph()):
        flipped = [(j, i, w) if k % 2 else (i, j, w)
                   for k, (i, j, w) in enumerate(edges_of(graph))]
        edges = tuple(flipped[k] for k in rng.permutation(len(flipped)))
        assert repr(edges_of(graph_of(graph.n_vertices, edges))) == repr(
            loop_canonical_edges(graph.n_vertices, edges)
        )
    assert digest(edges_of(PINNED)) == (
        "e6f6bc88db81efd1ebbf5a5a5a0c0a665093ec980d6be1304915dc5e466a661e"
    )
    assert digest(edges_of(bundled_ieee118().graph())) == (
        "38d0ab93b7c2c363b568bae76fa606246c070ab50e574853b57d84d6bac661ab"
    )


# ------------------------------------------------------ eigenpair residual


@pytest.mark.parametrize("angle, rejected", [(1e-4, True), (1e-9, False)])
def test_eigenpair_residual_check_not_loosened(monkeypatch, angle, rejected):
    graph = random_connected_graph(generator(34, "residual"), 40)
    eigh = np.linalg.eigh

    def rotated(a):
        # an orthonormal basis whose columns 5 and 6 are mixed: the pair
        # stays orthonormal, the residual grows to angle * (lam_6 - lam_5)
        lam, v = eigh(a)
        c, s = np.cos(angle), np.sin(angle)
        v[:, [5, 6]] = v[:, [5, 6]] @ np.array([[c, -s], [s, c]])
        return lam, v

    monkeypatch.setattr(np.linalg, "eigh", rotated)
    if rejected:
        with pytest.raises(InvalidGraphError, match="eigenpair residual too large"):
            build_laplacian(graph)
    else:
        build_laplacian(graph)


# ----------------------------------------------- pinned sequences, N >= 400

PINNED = random_connected_graph(generator(2024, "pinned"), 420)


def test_pinned_perturb_edges():
    add = perturb_edges(PINNED, 6, "add", 11)
    remove = perturb_edges(PINNED, 6, "remove", 11)
    assert digest(edges_of(add)) == (
        "caec1e0e209ae449c3c240e6e0ec5f76ae333df4ab24773a27a6854ebdf5db26"
    )
    assert digest(edges_of(remove)) == (
        "1634a8d74eb47298540733654ac7051c242b67eb6414a000b1bb5a039e753574"
    )


def test_pinned_perturb_vertices():
    add, add_old = perturb_vertices(PINNED, 3, "add", 11)
    remove, remove_old = perturb_vertices(PINNED, 5, "remove", 11)
    assert digest((edges_of(add), vertex_map(add_old))) == (
        "6fda95bd55f824373347a913d5d080b457d93fcbb8eff4f9adebb2998db98c94"
    )
    assert digest((edges_of(remove), vertex_map(remove_old))) == (
        "8ae857938aa4ae2f209ba896af996fb1043f219574289db7a66e9a80d5ab7cc0"
    )
