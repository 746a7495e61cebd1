"""gspest benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the root of a source checkout; nothing needs to be installed. The
command compiles ``src/gspest`` to bytecode, writes the seeded input under
``.perfbench-work/``, runs one fresh worker process (``worker.py``) that calls
``gspest.cli.main`` back to back on it (plus, untraced, import-only processes
for the set-up time), checks every report, prints a readable summary and, as
its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones
from a traced run. ``attempted`` and ``failed`` count report rows; a row
fails if its ``mse`` is NaN, and a non-zero exit fails every row the config
implies. Any failed check makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from grids import read_branches, tile, write_branches
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ROOT / "src" / "gspest" / "data" / "ieee118_branches.csv"
WORK = ROOT / ".perfbench-work"
# BLAS/OpenMP threads per worker, capped at the processors available.
THREADS = min(2, os.cpu_count() or 1)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# Fresh-process imports of gspest.cli timed per untraced run: the workload
# process and import-only processes.
SETUP_SAMPLES = 5
# Every run, with its set-up and checks, must end well inside 180 s.
DEADLINE_S = 170.0
PERCENTILES = (99, 95, 90, 75, 50)


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def _build(env) -> None:
    """Compile the package to bytecode so no timed import pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "gspest")],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )


def _input(workload, seed: int, out_dir: Path) -> Path:
    """The run's one input config; ``seed`` seeds its tiled grid too."""
    out_dir.mkdir(parents=True, exist_ok=True)
    config = dict(workload.config, seed=seed)
    if workload.tiles is not None:
        grid = out_dir / "grid.csv"
        write_branches(tile(read_branches(BUNDLED), workload.tiles, seed), grid)
        config["grid"] = str(grid)
    path = out_dir / "config.json"
    path.write_text(json.dumps(config, indent=1))
    return path


def _worker(env, name, config, out_dir, result, seconds, trace, deadline,
            setup_only=False):
    argv = [sys.executable, str(Path(__file__).with_name("worker.py")),
            "--root", str(ROOT), "--workload", name, "--config", str(config),
            "--out-dir", str(out_dir), "--seconds", repr(seconds),
            "--trace", str(trace), "--result", str(result)]
    if setup_only:
        argv.append("--setup-only")
    result.unlink(missing_ok=True)
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(argv, env=env, cwd=ROOT, timeout=timeout)
    if proc.returncode != 0 or not result.is_file():
        raise RuntimeError(f"worker for {name} exited with {proc.returncode}")
    return json.loads(result.read_text())


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def tail_percentile(values) -> tuple[int, float] | None:
    """The highest of :data:`PERCENTILES` with at least ten samples above
    it, and its value; None when there are too few samples."""
    n = len(values)
    for q in PERCENTILES:
        if n * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            return q, cuts[q - 1]
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, env) -> dict:
    """Run one workload; returns its metrics, counts, checks and metadata."""
    deadline = time.monotonic() + DEADLINE_S
    out_dir = WORK / f"{name}-seed{seed}"
    config = _input(WORKLOADS[name], seed, out_dir)
    r = _worker(env, name, config, out_dir, out_dir / "worker.json",
                seconds, int(trace), deadline)
    calls = r["calls"]
    errors = sorted({e for c in calls for e in c["errors"]})
    errors += checks.same_digest([c["digest"] for c in calls])
    summary = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "attempted": sum(c["rows"] for c in calls),
        "failed": sum(c["failed"] for c in calls),
        "errors": errors,
        "digest": calls[0]["digest"],
        "calls": len(calls),
        "meta": {
            "threads": THREADS,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            **r["versions"],
            "git_commit": _git_commit(),
        },
    }
    if trace:
        traced = [c["wall_s"] for c in calls if c["traced"]]
        untraced = [c["wall_s"] for c in calls
                    if not c["traced"] and not c.get("warmup")]
        layers = {k: tuple(v) for k, v in r["layers"].items()}
        layers["trace.wall_s"] = (statistics.median(traced), "s")
        layers["trace.untraced_wall_s"] = (statistics.median(untraced), "s")
        layers["trace.overhead_s"] = (
            layers["trace.wall_s"][0] - layers["trace.untraced_wall_s"][0], "s"
        )
        summary.update(metrics=layers, shares=r["shares"],
                       traced_samples=traced, wall_samples=untraced)
    else:
        walls = [c["wall_s"] for c in calls]
        setups = [r["setup_s"]] + [
            _worker(env, name, config, out_dir, out_dir / f"setup{k}.json",
                    0, 0, deadline, setup_only=True)["setup_s"]
            for k in range(1, SETUP_SAMPLES)
        ]
        summary.update(
            metrics={
                "wall_s": (statistics.median(walls), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (r["peak_rss_mb"], "MB"),
            },
            wall_samples=walls,
            setup_samples=setups,
        )
    (out_dir / ("summary-trace.json" if trace else "summary.json")).write_text(
        json.dumps(summary, indent=1)
    )
    return summary


def _print(summary: dict) -> None:
    name, metrics = summary["workload"], summary["metrics"]
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"== {name} (seed {summary['seed']}, {summary['seconds']:g} s)")
    meta = summary["meta"]
    print("   " + " ".join(f"{k}={v}" for k, v in meta.items()))
    if "wall_s" in metrics:
        walls = summary["wall_samples"]
        tail = tail_percentile(walls)
        tail_txt = (f", p{tail[0]} {tail[1]:.4f} s" if tail
                    else ", no tail percentile (<20 samples)")
        print(f"   wall_s       median {metrics['wall_s'][0]:.4f} s "
              f"(n={len(walls)} calls, first {walls[0]:.4f} s{tail_txt})")
        print(f"   setup_s      median {metrics['setup_s'][0]:.4f} s "
              f"(n={len(summary['setup_samples'])} processes)")
        print(f"   peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB "
              f"(n=1 process)")
    else:
        print(f"   traced wall {metrics['trace.wall_s'][0]:.4f} s "
              f"(n={len(summary['traced_samples'])}), untraced "
              f"{metrics['trace.untraced_wall_s'][0]:.4f} s "
              f"(n={len(summary['wall_samples'])}, after one warm-up call), "
              f"tracing overhead {metrics['trace.overhead_s'][0]:+.4f} s")
        print("   largest self-time shares of the traced call:")
        for span, self_s, share in summary["shares"][:12]:
            print(f"     {share:6.1%}  {self_s:9.4f} s  {span}")
        for key, (value, unit) in metrics.items():
            print(f"   {key:42s} {value:.6g} {unit}")
    print(f"   fail_frac    {failed}/{attempted} = {failed / attempted:.4g} (rows)")
    print(f"   report digest without wall_ms ({summary['calls']} calls): "
          f"{summary['digest']}")
    for error in summary["errors"]:
        print(f"   CHECK FAILED: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "gspest" / "cli.py").is_file() or not BUNDLED.is_file():
        print(f"perfbench: no gspest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = _env()
    _build(env)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        try:
            summaries.append(run_workload(name, args.seed, args.seconds,
                                          bool(args.trace), env))
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        _print(summaries[-1])

    def metric(value, unit):
        return {"value": value, "unit": unit}

    if len(summaries) == 1:
        metrics = {k: metric(*v) for k, v in summaries[0]["metrics"].items()}
    else:
        metrics = {f"{s['workload']}.{k}": metric(*v)
                   for s in summaries for k, v in s["metrics"].items()}
    correct = not any(s["errors"] for s in summaries)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
