from conftest import ROOT
from grids import JITTER, TIES, read_branches, tile, write_branches

BUNDLED = ROOT / "src" / "gspest" / "data" / "ieee118_branches.csv"


def _connected(rows) -> bool:
    parent = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for f, t, _, _ in rows:
        parent[find(f)] = find(t)
    n = max(max(f, t) for f, t, _, _ in rows)
    return len({find(v) for v in range(1, n + 1)}) == 1


def test_tiling_is_deterministic_in_its_seed():
    base = read_branches(BUNDLED)
    assert tile(base, 4, 7) == tile(base, 4, 7)
    assert tile(base, 4, 7) != tile(base, 4, 8)


def test_tiling_shape_jitter_and_ties():
    base = read_branches(BUNDLED)
    n = max(max(f, t) for f, t, _, _ in base)
    b_lo, b_hi = min(r[3] for r in base), max(r[3] for r in base)
    for k in (1, 4, 8):
        rows = tile(base, k, 3)
        assert len(rows) == k * len(base) + TIES * (k - 1)
        assert max(max(f, t) for f, t, _, _ in rows) == k * n
        assert _connected(rows)
        assert len({(f, t) for f, t, _, _ in rows}) == len(rows)
        for c in range(k):
            for (f, t, g, b), (f0, t0, g0, b0) in zip(rows[c * len(base):], base):
                assert (f, t) == (f0 + c * n, t0 + c * n)
                assert abs(g - g0) <= JITTER * g0 * (1 + 1e-12)
                assert abs(b - b0) <= JITTER * b0 * (1 + 1e-12)
        for f, t, g, b in rows[k * len(base):]:
            assert g == 0.0 and b_lo <= b <= b_hi
            assert (f - 1) // n + 1 == (t - 1) // n


def test_tiled_grid_loads_and_decomposes(tmp_path):
    from gspest.graphs import build_laplacian
    from gspest.models import load_grid

    path = tmp_path / "grid.csv"
    write_branches(tile(read_branches(BUNDLED), 4, 0), path)
    grid = load_grid(path)
    assert grid.n_buses == 472
    assert build_laplacian(grid.graph()).is_connected()
