"""Outside-in span tracer for the gspest layers.

The tracer never edits the package. It replaces, for the duration of a traced
run, the attributes through which gspest code reaches each layer:

* every public function defined in ``gspest.<layer>`` for each layer in
  :data:`LAYERS`, in every gspest namespace that binds it (``harness`` and
  ``cli`` import functions by name, so patching the defining module alone
  would miss their calls);
* the methods ``AcGridModel.graph``, ``AcGridModel.branch_values`` and
  ``LinearEstimator.estimate``;
* ``minimize`` as bound in ``gspest.estimators``;
* ``numpy.linalg.eigh`` and ``numpy.linalg.eigvalsh``.

Each call becomes a span ``[id, name, start, end, parent, run, attrs]`` kept
in memory; :meth:`Tracer.write` stores them as JSON lines when the run ends.
``gspest.rng`` is left out: it costs too little to matter.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("graphs", "filters", "models", "moments", "estimators", "harness", "cli")
_METHODS = (
    ("models", "AcGridModel", "graph", "models.grid_graph"),
    ("models", "AcGridModel", "branch_values", "models.branch_values"),
    ("estimators", "LinearEstimator", "estimate", "estimators.estimate"),
)

ID, NAME, START, END, PARENT, RUN, ATTRS = range(7)


def _rows(array) -> int:
    shape = getattr(array, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _draw_key(args, kwargs) -> str:
    """Content key of a ``draw_test_set(model, trials, seed)`` input."""
    bound = dict(zip(("model", "trials", "seed"), args), **kwargs)
    eig = bound["model"].sg.eigenvalues
    digest = hashlib.sha1(eig.tobytes()).hexdigest()[:16]
    return f"{bound['model'].label}/{digest}/{bound['trials']}/{bound['seed']}"


def _attrs(name: str, connectivity_tol: float):
    """Cheap per-call facts recorded after the span ends, or None."""
    if name == "models.ac_power":
        return lambda a, kw, r: {"rows": _rows(a[1] if len(a) > 1 else kw["x"])}
    if name == "models.sample_prior":
        return lambda a, kw, r: {"rows": int(a[1] if len(a) > 1 else kw["count"])}
    if name == "moments.compute_moments":
        return lambda a, kw, r: {
            "samples": int(a[0].count),
            "n": int(a[0].sg.n_vertices),
        }
    if name == "estimators.estimate":
        return lambda a, kw, r: {"rows": _rows(a[1] if len(a) > 1 else kw["y"])}
    if name == "harness.draw_test_set":
        return lambda a, kw, r: {"key": _draw_key(a, kw)}
    if name == "scipy.minimize":
        return lambda a, kw, r: {
            "nfev": int(r.nfev),
            "nit": int(r.nit),
            "success": bool(r.success),
        }
    if name == "numpy.eigvalsh":
        return lambda a, kw, r: {
            "connected": bool(len(r) < 2 or r[1] > connectivity_tol)
        }
    return None


class Tracer:
    """Records spans for every call routed through the patched attributes."""

    def __init__(self):
        self.spans: list[list] = []
        # Each call entering gspest from outside starts a new run id.
        self.run = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                self.run += 1
            rec = [len(spans), name, time.perf_counter(), None,
                   stack[-1] if stack else None, self.run, None]
            spans.append(rec)
            stack.append(rec[ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[ATTRS] = attrs(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch gspest, scipy's ``minimize`` binding and numpy's eigen
        solvers. Call :meth:`uninstall` to restore them."""
        import numpy as np

        import gspest
        from gspest import graphs

        tol = graphs.CONNECTIVITY_TOL
        spaces = [gspest] + [sys.modules[f"gspest.{m}"] for m in LAYERS]
        for layer in LAYERS:
            module = sys.modules[f"gspest.{layer}"]
            for fname, fn in list(vars(module).items()):
                if (
                    fname.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{fname}"
                traced = self.wrap(fn, name, _attrs(name, tol))
                for space in spaces:
                    for attr, value in list(vars(space).items()):
                        if value is fn:
                            self._set(space, attr, traced)
        for layer, cls_name, meth, name in _METHODS:
            cls = getattr(sys.modules[f"gspest.{layer}"], cls_name)
            self._set(cls, meth, self.wrap(getattr(cls, meth), name, _attrs(name, tol)))
        est = sys.modules["gspest.estimators"]
        self._set(est, "minimize",
                  self.wrap(est.minimize, "scipy.minimize", _attrs("scipy.minimize", tol)))
        for fname in ("eigh", "eigvalsh"):
            name = f"numpy.{fname}"
            self._set(np.linalg, fname,
                      self.wrap(getattr(np.linalg, fname), name, _attrs(name, tol)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "run", "attrs"), rec
                ))) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), indexed by span id."""
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for rec in spans:
        start, end = rec[START], rec[END]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(rec[ID], ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _ratio(useful: float, attempts: float) -> float:
    # No attempts means nothing was wasted.
    return useful / attempts if attempts else 1.0


GAIN_ASSEMBLY = (
    "estimators.update_for_topology",
    "estimators.remap_estimator",
    "estimators.almmse",
    "estimators.fit_lpi",
    "estimators.fit_arma",
    "estimators.fit_lr_arma",
    "estimators.gsp_lmmse",
)
PROTOCOLS = ("harness.experiment_a", "harness.experiment_b", "harness.measure_runtime")


def layer_metrics(spans, runs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per protocol invocation from the spans of ``runs``
    traced invocations. Counts and times are divided by ``runs``; ratios
    are taken over all of them."""
    selfs = self_times(spans)
    by_id = {rec[ID]: rec for rec in spans}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    layer_self = defaultdict(float)
    for rec, st in zip(spans, selfs):
        calls[rec[NAME]] += 1
        self_s[rec[NAME]] += st
        layer_self[rec[NAME].split(".")[0]] += st

    def parent_name(rec):
        return by_id[rec[PARENT]][NAME] if rec[PARENT] is not None else None

    def attr_sum(name, key):
        return sum(r[ATTRS][key] for r in spans if r[NAME] == name)

    eigh_in_build = sum(
        r[END] - r[START] for r in spans
        if r[NAME] == "numpy.eigh" and parent_name(r) == "graphs.build_laplacian"
    )
    checks = [
        r for r in spans
        if r[NAME] == "numpy.eigvalsh"
        and parent_name(r) in ("graphs.perturb_edges", "graphs.perturb_vertices")
    ]
    moment_calls = [r for r in spans if r[NAME] == "moments.compute_moments"]
    draw_keys = [(r[RUN], r[ATTRS]["key"])
                 for r in spans if r[NAME] == "harness.draw_test_set"]

    out: dict[str, tuple[float, str]] = {}

    def per_run(name, value, unit):
        out[name] = (value / runs, unit)

    per_run("graphs.perturb_edges.calls", calls["graphs.perturb_edges"], "count")
    per_run("graphs.perturb_edges.self_s", self_s["graphs.perturb_edges"], "s")
    per_run("graphs.perturb_vertices.self_s", self_s["graphs.perturb_vertices"], "s")
    per_run("graphs.connectivity_checks", len(checks), "count")
    per_run("graphs.connectivity_s", sum(r[END] - r[START] for r in checks), "s")
    out["graphs.connectivity_useful_ratio"] = (
        _ratio(sum(r[ATTRS]["connected"] for r in checks), len(checks)), "ratio"
    )
    per_run("graphs.build_laplacian.calls", calls["graphs.build_laplacian"], "count")
    per_run("graphs.build_laplacian.eigh_s", eigh_in_build, "s")
    per_run("graphs.build_laplacian.self_s", self_s["graphs.build_laplacian"], "s")

    for fn in ("ac_power", "sample_prior"):
        per_run(f"models.{fn}.rows", attr_sum(f"models.{fn}", "rows"), "count")
        per_run(f"models.{fn}.self_s", self_s[f"models.{fn}"], "s")
    per_run("models.grid_graph.calls", calls["models.grid_graph"], "count")
    for fn in ("grid_graph", "branch_values", "perturb_grid"):
        per_run(f"models.{fn}.self_s", self_s[f"models.{fn}"], "s")
    per_run("models.load_grid.calls", calls["models.load_grid"], "count")
    per_run("models.load_grid.self_s", self_s["models.load_grid"], "s")

    per_run("moments.compute_moments.samples",
            attr_sum("moments.compute_moments", "samples"), "count")
    per_run("moments.compute_moments.self_s", self_s["moments.compute_moments"], "s")
    per_run("moments.generate.self_s", self_s["moments.generate"], "s")
    # Computed, not measured: the x and g training arrays of the largest
    # moment pass, float64.
    out["moments.training_bytes"] = (
        float(max((2 * r[ATTRS]["samples"] * r[ATTRS]["n"] * 8 for r in moment_calls),
                  default=0)),
        "B-computed",
    )

    for family, coeffs in (("arma", "arma_coefficients"),
                           ("lr_arma", "lr_arma_coefficients")):
        fits = [
            r for r in spans
            if r[NAME] == "scipy.minimize"
            and parent_name(r) == f"estimators.{coeffs}"
        ]
        per_run(f"estimators.{family}.nfev",
                sum(r[ATTRS]["nfev"] for r in fits), "count")
        per_run(f"estimators.{family}.nit",
                sum(r[ATTRS]["nit"] for r in fits), "count")
        out[f"estimators.{family}.converged_ratio"] = (
            _ratio(sum(r[ATTRS]["success"] for r in fits), len(fits)), "ratio"
        )
        per_run(f"estimators.{family}.search_s",
                sum(r[END] - r[START] for r in fits), "s")
    per_run("estimators.lpi_coefficients.self_s",
            self_s["estimators.lpi_coefficients"], "s")
    per_run("estimators.sample_lmmse.calls", calls["estimators.sample_lmmse"], "count")
    per_run("estimators.sample_lmmse.self_s", self_s["estimators.sample_lmmse"], "s")
    per_run("estimators.gain_assembly_s", sum(self_s[n] for n in GAIN_ASSEMBLY), "s")
    per_run("estimators.estimate.rows", attr_sum("estimators.estimate", "rows"), "count")
    per_run("estimators.estimate.self_s", self_s["estimators.estimate"], "s")

    per_run("filters.response_at.calls", calls["filters.response_at"], "count")
    per_run("filters.response_at.self_s", self_s["filters.response_at"], "s")

    per_run("harness.draw_test_set.calls", len(draw_keys), "count")
    out["harness.draw_test_set.distinct_ratio"] = (
        _ratio(len(set(draw_keys)), len(draw_keys)), "ratio"
    )
    per_run("harness.draw_test_set.self_s", self_s["harness.draw_test_set"], "s")
    per_run("harness.squared_errors.self_s", self_s["harness.squared_errors"], "s")
    per_run("harness.protocol.self_s", sum(self_s[n] for n in PROTOCOLS), "s")
    per_run("cli.main.self_s", self_s["cli.main"], "s")

    for layer in LAYERS + ("numpy", "scipy"):
        per_run(f"{layer}.self_s", layer_self[layer], "s")
    per_run("trace.spans", len(spans), "count")
    return out


def shares(spans, runs: int) -> list[tuple[str, float, float]]:
    """``(span name, self seconds per invocation, share of the traced wall
    time)``, largest first."""
    wall = sum(r[END] - r[START] for r in spans if r[PARENT] is None)
    per_name = defaultdict(float)
    for rec, st in zip(spans, self_times(spans)):
        per_name[rec[NAME]] += st
    ranked = sorted(per_name.items(), key=lambda kv: -kv[1])
    return [(name, st / runs, st / wall if wall else 0.0) for name, st in ranked]
