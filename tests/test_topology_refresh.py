"""The array-based topology-refresh path against the loop code it replaced.

The reference functions below are the earlier double-loop implementations,
kept here verbatim in behaviour so that the vectorized versions are checked
pair for pair and draw for draw.
"""

import hashlib

import numpy as np
import pytest

from gspest import graphs
from gspest.errors import PerturbationInfeasibleError
from gspest.graphs import WeightedGraph, perturb_edges, perturb_vertices
from gspest.models import AcGridModel, bundled_ieee118, perturb_grid
from gspest.rng import generator
from tests.test_graphs import random_connected_graph
from tests.test_models import random_grid


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
    for pick in range(g.n_edges):
        cand = WeightedGraph(25, g.edges[:pick] + g.edges[pick + 1:])
        lap = np.diag(cand.adjacency().sum(axis=1)) - cand.adjacency()
        lam2 = np.linalg.eigvalsh(lap)[1]
        assert graphs._stays_connected(cand) == (lam2 > graphs.CONNECTIVITY_TOL)


def test_connectivity_precheck_skips_eigvalsh_when_split(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    # held together only by a zero-weight edge, so lambda_2 is 0
    split = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0)))
    assert not graphs._stays_connected(split)
    assert calls == []
    assert graphs._stays_connected(WeightedGraph(1, ()))
    assert graphs._stays_connected(WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0))))
    assert calls == [1, 1]


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
