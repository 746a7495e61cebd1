"""The array-based topology-refresh path against the loop code it replaced.

The reference functions below are the earlier double-loop implementations,
kept here verbatim in behaviour so that the vectorized versions are checked
pair for pair and draw for draw.
"""

import hashlib
import re

import numpy as np
import pytest

from gspest import graphs
from gspest.errors import InvalidGraphError, PerturbationInfeasibleError
from gspest.graphs import (
    WeightedGraph,
    _canonicalize_eigenvectors,
    build_laplacian,
    perturb_edges,
    perturb_vertices,
)
from gspest.models import AcGridModel, bundled_ieee118, perturb_grid
from gspest.rng import generator
from tests.test_graphs import _TIES, _canonical_sign, random_connected_graph
from tests.test_models import random_grid


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


def loop_graph(grid):
    b, n = grid.susceptance, grid.n_buses
    edges = tuple(
        (i, j, float(b[i, j]))
        for i in range(n)
        for j in range(i + 1, n)
        if b[i, j] != 0.0
    )
    return WeightedGraph(n, edges)


def loop_branch_values(grid):
    b, g, n = grid.susceptance, grid.conductance, grid.n_buses
    return tuple(
        (i, j, float(g[i, j]), float(b[i, j]))
        for i in range(n)
        for j in range(i + 1, n)
        if b[i, j] != 0.0 or g[i, j] != 0.0
    )


def loop_absent_pairs(graph):
    present = {(i, j) for i, j, _ in graph.edges}
    n = graph.n_vertices
    return [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in present]


def loop_add_edges(graph, count, seed):
    rng = generator(seed, "perturb-edges", 0)
    current = graph
    for _ in range(count):
        absent = loop_absent_pairs(current)
        if not absent:
            raise PerturbationInfeasibleError("graph is complete, cannot add")
        lo, hi = current.weight_range()
        i, j = absent[int(rng.integers(len(absent)))]
        w = float(rng.uniform(lo, hi))
        current = WeightedGraph(current.n_vertices, current.edges + ((i, j, w),))
    return current


def loop_perturb_grid(grid, count, mode, seed):
    """Branch matrices rebuilt edge by edge, conductances looked up in a dict
    keyed on old branch tuples."""
    kind, what = mode.split("-")
    graph = loop_graph(grid)
    if what == "edges":
        new_graph = perturb_edges(graph, count, kind, seed)
        vmap = {i: i for i in range(graph.n_vertices)}
    else:
        new_graph, vmap = perturb_vertices(graph, count, kind, seed)
    cond = {(i, j): g for i, j, g, _ in loop_branch_values(grid)}
    inverse = {new: old for old, new in vmap.items()}
    n = new_graph.n_vertices
    gmat, bmat = np.zeros((n, n)), np.zeros((n, n))
    for i, j, w in new_graph.edges:
        oi, oj = inverse.get(i), inverse.get(j)
        if oi is not None and oj is not None and (min(oi, oj), max(oi, oj)) in cond:
            gmat[i, j] = gmat[j, i] = cond[(min(oi, oj), max(oi, oj))]
        bmat[i, j] = bmat[j, i] = w
    return gmat, bmat, vmap


def conductance_only_grid():
    grid = random_grid(generator(3, "refresh-grid"), 30)
    g, b = grid.conductance.copy(), grid.susceptance.copy()
    i, j = next((i, j) for i in range(30) for j in range(i + 1, 30) if b[i, j] == 0)
    g[i, j] = g[j, i] = 0.7
    return AcGridModel(g, b)


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# ------------------------------------------------------- grid -> graph/branches


@pytest.mark.parametrize("make", [bundled_ieee118, conductance_only_grid])
def test_graph_and_branch_values_match_loops(make):
    grid = make()
    assert grid.graph() == loop_graph(grid)
    assert grid.branch_values() == loop_branch_values(grid)
    for value in grid.branch_values()[0]:
        assert type(value) in (int, float)


def test_conductance_only_branch_is_a_branch_but_not_an_edge():
    grid = conductance_only_grid()
    assert len(grid.branch_values()) == grid.graph().n_edges + 1


@pytest.mark.parametrize(
    "mode", ["add-edges", "remove-edges", "add-vertices", "remove-vertices"]
)
def test_perturb_grid_matches_loop_rebuild(mode):
    for grid in (bundled_ieee118(), conductance_only_grid()):
        for seed in range(3):
            new_grid, vmap = perturb_grid(grid, 4, mode, seed)
            gmat, bmat, loop_vmap = loop_perturb_grid(grid, 4, mode, seed)
            assert vmap == loop_vmap
            assert np.array_equal(new_grid.conductance, gmat)
            assert np.array_equal(new_grid.susceptance, bmat)


# ------------------------------------------------------------ add-edges draw


def test_add_edges_draw_matches_absent_pair_list():
    g = random_connected_graph(generator(5, "refresh"), 40)
    for seed in range(5):
        assert perturb_edges(g, 6, "add", seed) == loop_add_edges(g, 6, seed)


def test_add_edges_treats_zero_weight_edge_as_present():
    g = WeightedGraph(5, ((0, 1, 1.0), (1, 2, 0.0), (2, 3, 2.0), (3, 4, 1.5)))
    for seed in range(20):
        out = perturb_edges(g, 3, "add", seed)
        assert out == loop_add_edges(g, 3, seed)
        assert [e for e in out.edges if e[:2] == (1, 2)] == [(1, 2, 0.0)]


def test_add_edges_one_short_of_complete():
    n = 7
    edges = tuple(
        (i, j, 1.0 + i + j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) != (2, 5)
    )
    g = WeightedGraph(n, edges)
    for seed in range(3):
        out = perturb_edges(g, 1, "add", seed)
        assert out == loop_add_edges(g, 1, seed)
        assert out.n_edges == n * (n - 1) // 2
        with pytest.raises(PerturbationInfeasibleError):
            perturb_edges(g, 2, "add", seed)


def test_add_edges_on_complete_graph_raises():
    g = WeightedGraph(4, tuple((i, j, 1.0) for i in range(4) for j in range(i + 1, 4)))
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
    faint = WeightedGraph(25, tuple((i, j, w * 1e-5) for i, j, w in g.edges))
    outcomes = set()
    for graph in (g, faint):
        for pick in range(graph.n_edges):
            cand = WeightedGraph(25, graph.edges[:pick] + graph.edges[pick + 1:])
            lap = np.diag(cand.adjacency().sum(axis=1)) - cand.adjacency()
            lam2 = np.linalg.eigvalsh(lap)[1]
            stays = graphs._stays_connected(cand)
            assert stays == (lam2 > graphs.CONNECTIVITY_TOL)
            w_min = min(w for _, _, w in cand.edges if w > 0)
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
    split = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0)))
    assert not graphs._stays_connected(split)
    assert calls == []
    # certified by the bound 4 w_min / (n (n - 1)) > CONNECTIVITY_TOL
    assert graphs._stays_connected(WeightedGraph(1, ()))
    assert graphs._stays_connected(WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0))))
    assert calls == []
    # connected, with the bound at or below the tolerance: eigvalsh decides
    # (a 3-path of weight w has lambda_2 = w and the bound 2 w / 3)
    faint = WeightedGraph(3, ((0, 1, 1e-9), (1, 2, 1e-9)))
    assert not graphs._stays_connected(faint)
    assert calls == [1]
    weak = WeightedGraph(3, ((0, 1, 1.2e-6), (1, 2, 1.2e-6)))
    assert graphs._stays_connected(weak)
    assert calls == [1, 1]


# ------------------------------------------------------------ the sign rule


def tiled_copies():
    """Four exact copies of the bundled grid joined by a few ties."""
    base = bundled_ieee118().graph()
    n = base.n_vertices
    edges = [(i + c * n, j + c * n, w) for c in range(4) for i, j, w in base.edges]
    return WeightedGraph(4 * n, tuple(edges + [(f - 1, t - 1, w) for f, t, w in _TIES]))


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
    w = tiled_copies().adjacency()
    lam, vecs = np.linalg.eigh(np.diag(w.sum(axis=1)) - w)
    assert np.sum(np.diff(lam) <= 1e-8 * lam[-1]) > 0
    got = _canonicalize_eigenvectors(lam, vecs)
    assert np.array_equal(got, loop_canonicalize(lam, vecs))
    assert np.array_equal(_canonicalize_eigenvectors(np.arange(4.0 * 118), vecs),
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
            WeightedGraph(n, edges)


def test_canonical_edges_unchanged():
    rng = generator(33, "edge-order")
    for graph in (PINNED, bundled_ieee118().graph()):
        flipped = [(j, i, w) if k % 2 else (i, j, w)
                   for k, (i, j, w) in enumerate(graph.edges)]
        edges = tuple(flipped[k] for k in rng.permutation(len(flipped)))
        assert repr(WeightedGraph(graph.n_vertices, edges).edges) == repr(
            loop_canonical_edges(graph.n_vertices, edges)
        )
    assert digest(PINNED.edges) == (
        "e6f6bc88db81efd1ebbf5a5a5a0c0a665093ec980d6be1304915dc5e466a661e"
    )
    assert digest(bundled_ieee118().graph().edges) == (
        "38d0ab93b7c2c363b568bae76fa606246c070ab50e574853b57d84d6bac661ab"
    )
    for value in PINNED.edges[0]:
        assert type(value) in (int, float)


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
    assert digest(add.edges) == (
        "caec1e0e209ae449c3c240e6e0ec5f76ae333df4ab24773a27a6854ebdf5db26"
    )
    assert digest(remove.edges) == (
        "1634a8d74eb47298540733654ac7051c242b67eb6414a000b1bb5a039e753574"
    )


def test_pinned_perturb_vertices():
    add, add_map = perturb_vertices(PINNED, 3, "add", 11)
    remove, remove_map = perturb_vertices(PINNED, 5, "remove", 11)
    assert digest((add.edges, sorted(add_map.items()))) == (
        "6fda95bd55f824373347a913d5d080b457d93fcbb8eff4f9adebb2998db98c94"
    )
    assert digest((remove.edges, sorted(remove_map.items()))) == (
        "8ae857938aa4ae2f209ba896af996fb1043f219574289db7a66e9a80d5ab7cc0"
    )
