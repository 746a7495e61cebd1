"""Seeded synthetic multi-area grids tiled from the bundled IEEE 118-bus grid.

``k`` copies of the bundled branch list are placed side by side. Every branch
of every copy has its conductance and susceptance scaled by one seeded factor
drawn uniformly from [1 - JITTER, 1 + JITTER]. Copy ``c`` and copy ``c + 1``
are joined by ``TIES`` distinct, purely reactive tie lines (conductance 0)
whose endpoints are seeded random buses of the two copies and whose
susceptance is drawn uniformly from the bundled susceptance range.

The jitter is not optional: a jitter-free tiling has near-degenerate
Laplacian eigenvalues that ``build_laplacian`` currently rejects with
``InvalidGraphError``. Real multi-area grids are not exact copies of each
other, so the benchmark models the jittered case only and does not cover the
degenerate one.

Only the standard library is used, so the inputs do not depend on the numpy
version under test.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

JITTER = 0.01
TIES = 3
HEADER = ["from", "to", "conductance", "susceptance"]


def read_branches(path) -> list[tuple[int, int, float, float]]:
    """Branch rows ``(from, to, g, b)`` of a ``load_grid`` CSV (1-based)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if [h.strip().lower() for h in next(reader)] != HEADER:
            raise ValueError(f"{path} is not a branch CSV")
        return [(int(f), int(t), float(g), float(b)) for f, t, g, b in reader]


def tile(base, k: int, seed: int) -> list[tuple[int, int, float, float]]:
    """Branch rows of ``k`` jittered copies of ``base`` joined in a chain."""
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = random.Random(f"tiled-grid/{k}/{seed}")
    n = max(max(f, t) for f, t, _, _ in base)
    b_lo = min(b for *_, b in base)
    b_hi = max(b for *_, b in base)
    rows = []
    for c in range(k):
        off = c * n
        for f, t, g, b in base:
            s_g = rng.uniform(1 - JITTER, 1 + JITTER)
            s_b = rng.uniform(1 - JITTER, 1 + JITTER)
            rows.append((f + off, t + off, g * s_g, b * s_b))
    for c in range(k - 1):
        pairs = set()
        while len(pairs) < TIES:
            pairs.add((c * n + rng.randint(1, n), (c + 1) * n + rng.randint(1, n)))
        for f, t in sorted(pairs):
            rows.append((f, t, 0.0, rng.uniform(b_lo, b_hi)))
    return rows


def write_branches(rows, path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(HEADER) + "\n")
        for f, t, g, b in rows:
            fh.write(f"{f},{t},{g!r},{b!r}\n")
