import json

from conftest import ROOT

import tracer
from workloads import WORKLOADS

TRACE_EXTRAS = ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"]


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_per_layer_metrics_match_the_benchmark_file():
    emitted = tracer.layer_metrics([], 1)
    declared = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert list(declared) == list(emitted) + TRACE_EXTRAS
    for name, (_, unit) in emitted.items():
        assert declared[name] == unit


def test_workloads_and_end_to_end_metrics_match_the_benchmark_file():
    spec = _spec()
    declared = [w["name"] for w in spec["workloads"]]
    assert declared == [name for name in WORKLOADS if name != "fit-118"]
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
