"""Correctness checks on one report CSV written by a timed gspest call.

Every check returns a list of failure messages; an empty list means the
report passed. Standard library only.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from collections import defaultdict

COLUMNS = ["estimator", "scenario", "param", "value", "mse", "stderr", "wall_ms"]
SPECTRAL = ("gsp-lmmse", "lpi-gsp", "arma-gsp", "lr-arma-gsp")
STALE = "sample-lmmse"


def parse(text: str) -> tuple[list[str], list[dict]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    rows = []
    for n, raw in enumerate(reader):
        if len(raw) != len(header):
            raise ValueError(f"row {n} has {len(raw)} fields, header {len(header)}")
        row = dict(zip(header, raw))
        for key in ("value", "mse", "stderr", "wall_ms"):
            if key in row:
                row[key] = float(row[key])
        rows.append(row)
    return header, rows


def digest(text: str) -> str:
    """SHA-256 of the report with its ``wall_ms`` column removed."""
    kept = []
    for line in text.splitlines():
        kept.append(line.rsplit(",", 1)[0])
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def same_digest(digests: list) -> list[str]:
    """A run's reports, all on one input, must be identical apart from
    ``wall_ms``; fewer than two reports compare nothing and fail too."""
    if len(digests) < 2:
        return [f"report digest compared over {len(digests)} call(s), need 2"]
    if len(set(digests)) != 1:
        return [f"{len(set(digests))} distinct report digests over "
                f"{len(digests)} calls on one input"]
    return []


def failed_rows(text: str) -> int:
    """Rows whose ``mse`` is NaN."""
    return sum(math.isnan(r["mse"]) for r in parse(text)[1])


def _layout(header, rows, expected_rows: int) -> list[str]:
    if header != COLUMNS:
        return [f"header {header} != {COLUMNS}"]
    errors = []
    if len(rows) != expected_rows:
        errors.append(f"{len(rows)} rows, config implies {expected_rows}")
    for n, row in enumerate(rows):
        if not (math.isfinite(row["mse"]) and math.isfinite(row["stderr"])):
            errors.append(f"row {n} ({row['estimator']}) has non-finite mse/stderr")
    return errors


def _spectral_beats_sample_at_min_p(rows, gated) -> list[str]:
    p_rows = [r for r in rows if r["param"] == "P"]
    if not p_rows:
        return ["no P rows"]
    p_min = min(r["value"] for r in p_rows)
    mse = {r["estimator"]: r["mse"] for r in p_rows if r["value"] == p_min}
    return _below_stale(mse, gated, f"at P={p_min:g}")


def _retuned_beats_stale(rows, gated) -> list[str]:
    by_label = defaultdict(list)
    for r in rows:
        by_label[r["estimator"]].append(r["mse"])
    means = {label: sum(v) / len(v) for label, v in by_label.items()}
    return _below_stale(means, gated, "mean over perturbations")


def _below_stale(mse: dict, gated, where: str) -> list[str]:
    """Every gated spectral family scores below the stale baseline."""
    missing = [label for label in (STALE, *gated) if label not in mse]
    if missing:
        return [f"no {', '.join(missing)} rows {where}"]
    return [
        f"{label} mse {mse[label]} not below {STALE} {mse[STALE]} {where}"
        for label in gated
        if not mse[label] < mse[STALE]
    ]


PROPERTIES = {
    "spectral-beats-sample-at-min-p": _spectral_beats_sample_at_min_p,
    "retuned-beats-stale": _retuned_beats_stale,
}


def check_report(text: str, expected_rows: int, prop: str | None = None,
                 gated=SPECTRAL) -> list[str]:
    """Layout, row count and finiteness, then the named paper property on
    the ``gated`` spectral families."""
    try:
        header, rows = parse(text)
    except ValueError as exc:
        return [f"unparseable report: {exc}"]
    errors = _layout(header, rows, expected_rows)
    if not errors and prop is not None:
        errors += PROPERTIES[prop](rows, gated)
    return errors
