import sys

import pytest

import tracer
from tracer import END, NAME, PARENT, RUN, START, Tracer, self_times


def _span(i, name, start, end, parent=None):
    return [i, name, start, end, parent, 1, None]


def test_self_time_on_toy_call_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # d [8.5, 9.5] is a child of b that outlives it and is clipped to 9.
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "c", 2.0, 3.0, 1),
        _span(3, "b", 5.0, 9.0, 0),
        _span(4, "d", 8.5, 9.5, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.5, 1.0])


def test_overlapping_children_are_counted_once():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 5.0, 0),
        _span(2, "b", 3.0, 7.0, 0),
        _span(3, "c", 4.0, 6.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_wrap_links_parents_and_runs():
    t = Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = t.wrap(leaf, "m.leaf")

    def outer(x):
        return traced_leaf(x) + traced_leaf(x)

    traced_outer = t.wrap(outer, "m.outer", lambda a, kw, r: {"arg": a[0]})
    assert traced_outer(1) == 4
    assert traced_outer(2) == 6
    names = [s[NAME] for s in t.spans]
    assert names == ["m.outer", "m.leaf", "m.leaf"] * 2
    assert [s[PARENT] for s in t.spans] == [None, 0, 0, None, 3, 3]
    assert [s[RUN] for s in t.spans] == [1, 1, 1, 2, 2, 2]
    assert t.spans[3][6] == {"arg": 2}
    assert all(s[START] <= s[END] for s in t.spans)


def test_install_patches_every_binding_and_uninstall_restores():
    import numpy as np

    import gspest.cli  # noqa: F401

    harness = sys.modules["gspest.harness"]
    models = sys.modules["gspest.models"]
    before = (harness.build_laplacian, models.AcGridModel.graph,
              np.linalg.eigh, sys.modules["gspest.estimators"].minimize)
    t = Tracer()
    t.install()
    try:
        assert harness.build_laplacian is sys.modules["gspest.graphs"].build_laplacian
        assert harness.build_laplacian is not before[0]
        grid = models.bundled_ieee118()
        harness.build_laplacian(grid.graph())
    finally:
        t.uninstall()
    after = (harness.build_laplacian, models.AcGridModel.graph,
             np.linalg.eigh, sys.modules["gspest.estimators"].minimize)
    assert after == before
    names = [s[NAME] for s in t.spans]
    assert "models.load_grid" in names and "models.grid_graph" in names
    build = names.index("graphs.build_laplacian")
    eigh = [s for s in t.spans if s[NAME] == "numpy.eigh"]
    assert eigh and eigh[-1][PARENT] == build
    metrics = tracer.layer_metrics(t.spans, 1)
    assert metrics["graphs.build_laplacian.calls"] == (1.0, "count")
    assert metrics["models.load_grid.calls"] == (1.0, "count")
