"""One workload process: import gspest, call it back to back, check each report.

Started by ``run.py`` with the BLAS/OpenMP thread variables already pinned.
The time to import ``gspest.cli`` is the set-up time a CLI user pays on every
call. Every call uses the run's one input config and is timed around
``gspest.cli.main`` alone; the report checks run outside the timed region.

* ``--trace 0``: calls until the next one would end after ``--seconds``,
  and at least :data:`MIN_CALLS`, so that every run compares its report
  digest across repeats.
* ``--trace 1``: one warm-up call, then untraced and traced calls alternate
  on the same input until the next pair would overrun (at least one pair).
  The warm-up pays the process's lazy set-up and is timed into neither side,
  so the difference of the two medians is the tracing overhead.
* ``--setup-only``: import and exit.

The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

MIN_CALLS = 3


def _import_gspest(root: Path) -> float:
    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import gspest.cli  # noqa: F401

    return time.perf_counter() - t0


class Caller:
    """Calls one workload on one input config and checks each report."""

    def __init__(self, workload, config: str, out_csv: Path, expected: int):
        import checks

        self.checks = checks
        self.workload = workload
        self.argv = [*workload.argv, "--config", config, "--out", str(out_csv)]
        self.out_csv = out_csv
        self.expected = expected

    def call(self, tracer=None) -> dict:
        self.out_csv.unlink(missing_ok=True)
        cli = sys.modules["gspest.cli"]
        if tracer is not None:
            tracer.install()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                t0 = time.perf_counter()
                try:
                    code = cli.main(self.argv)
                except Exception as exc:  # a crash fails the call, the run goes on
                    print(f"perfbench: gspest raised {exc!r}", file=sys.stderr)
                    code = "exception"
                wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        call = {"wall_s": wall, "traced": tracer is not None, "exit": code,
                "rows": self.expected, "failed": self.expected, "digest": None,
                "errors": [f"exit code {code}"]}
        if code != 0:
            return call
        checks, workload = self.checks, self.workload
        text = self.out_csv.read_text()
        call["errors"] = checks.check_report(text, self.expected, workload.prop,
                                             workload.gated)
        call["digest"] = checks.digest(text)
        try:
            call["failed"] = checks.failed_rows(text)
        except (KeyError, ValueError):  # unparseable: every row counts as failed
            pass
        return call


def untraced_calls(caller: Caller, until: float) -> list[dict]:
    calls = []
    while len(calls) < MIN_CALLS or time.perf_counter() + calls[-1]["wall_s"] <= until:
        calls.append(caller.call())
    return calls


def traced_calls(caller: Caller, until: float, tracer) -> list[dict]:
    calls = [dict(caller.call(), warmup=True)]
    while True:
        pair = [caller.call(), caller.call(tracer)]
        calls += pair
        if time.perf_counter() + sum(c["wall_s"] for c in pair) > until:
            return calls


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args()

    setup_s = _import_gspest(args.root)
    result = {"setup_s": setup_s}
    if not args.setup_only:
        import numpy
        import scipy

        import gspest
        from gspest.harness import ExperimentConfig
        from workloads import WORKLOADS, expected_rows

        workload = WORKLOADS[args.workload]
        expected = expected_rows(workload, ExperimentConfig.from_file(args.config))
        caller = Caller(workload, args.config, args.out_dir / "report.csv", expected)
        result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                              "gspest": gspest.__version__}
        until = time.perf_counter() + args.seconds
        if args.trace:
            import tracer

            t = tracer.Tracer()
            result["calls"] = traced_calls(caller, until, t)
            runs = sum(c["traced"] for c in result["calls"])
            t.write(args.out_dir / "spans.jsonl")
            result["layers"] = tracer.layer_metrics(t.spans, runs)
            result["shares"] = tracer.shares(t.spans, runs)
        else:
            result["calls"] = untraced_calls(caller, until)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
