"""Monte Carlo experiment protocols and reporting.

Experiments share one seeded test set per scenario so estimator comparisons
are paired (common random numbers). Each report row is the record of its
fit: it carries the fit's status and wall time from :func:`_attempt` on, and
scoring adds the score. Estimator failures (singular moments, unstable
filters, a score that is not finite) and infeasible topology perturbations
are rows with NaN values, not raised. Experiment A's P-infinity row is the
unconstrained estimator built from the model's exact population moments, not
from a training set. Experiment A fits first and scores last: its test set is
drawn after every training pass, and the fits it holds meanwhile cost one
N x N gain per training size.

The test set is never whole. It is a stream of near-equal blocks of 256 to
511 rows, or one block below 256 trials. Each block's prior and noise rows
come from the seeded ``test-x`` and ``test-w`` streams, which run on from
block to block, so the blocks hold the normals of one whole draw. A block is
pushed through the forward map, scores every estimator of the scenario
itself and is released before the next is drawn, so scoring memory is
O(block * N) whatever the number of trials; :func:`draw_test_set` is the
concatenation of the same blocks. No block is short enough to take a BLAS
path unlike a long product's (gemv takes one row) or to lose BLAS throughput
(at N = 944 and 1,000 trials, a dense gain took 33 ms whole, 36 ms in
256-row and 45 ms in 64-row blocks, on 2 OpenBLAS threads).

Spectral estimators are scored in the frequency domain of the test graph:
Parseval's identity makes that the vertex-domain squared error, as
``build_laplacian`` checks that the eigenbasis is orthonormal to 1e-10. The
states' spectrum is each draw's own, the coefficients ``z * sqrt(variances)``
that the prior synthesized the states from (``x V`` up to that bound), so
only the measurements of a block are transformed.
"""

from __future__ import annotations

import ctypes
import json
import time
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    ConfigError,
    PerturbationInfeasibleError,
    SingularMomentsError,
    UnstableFilterError,
)
from .estimators import (
    almmse,
    fit_arma,
    fit_lpi,
    fit_lr_arma,
    gsp_lmmse,
    remap_estimator,
    sample_diag_lmmse,
    sample_lmmse,
    update_for_topology,
    SpectralEstimator,
)
# build_laplacian is unused here; the perfbench tracer tests patch it in this module
from .graphs import PERTURB_MODES, SpectralGraph, build_laplacian, gft, igft
from .models import (
    AcGridModel,
    MeasurementModel,
    _draw_spectrum,
    ac_measurement_model,
    bundled_ieee118,
    load_grid,
    perturb_grid,
)
from .moments import SampleMoments, population_moments, stream_moments
from .rng import derive, generator


def _stale(fit, new_sg, vmap, config):
    """Keep a trained estimator, remapped when the vertex set changed."""
    return fit if vmap is None else remap_estimator(fit, vmap)


def _refilter(fit, new_sg, vmap, config):
    """Evaluate the stored filter coefficients at the new eigenvalues."""
    return update_for_topology(fit, new_sg, vmap)


def _rebasis(fit, new_sg, vmap, config):
    """The nonparametric response on the new eigenbasis; stale on vertex
    changes, which leave no frequency-by-frequency counterpart."""
    if vmap is not None:
        return _stale(fit, new_sg, vmap, config)
    return replace(fit, sg=new_sg)


@dataclass(frozen=True)
class Family:
    """One estimator family: its report label, its ``gspest fit --filter``
    name, ``fit(m, config)`` on the moments' graph ``m.sg`` and ``retune(fit,
    new_sg, vmap, config)``, which carries what :func:`_retune_input` keeps
    of a fit onto a changed topology (``vmap``, the old index of each new
    vertex or -1, is None on edge modes). The callables reach the estimator
    functions through this module's globals when they run, so a rebound
    name (a test double, the perfbench tracer) reaches every use."""

    label: str
    cli_name: str
    fit: Callable
    retune: Callable = _stale


def _cutoff(m: SampleMoments, config: ExperimentConfig) -> int:
    """Frequencies an lr-arma fit keeps on the moments' graph: the lowest
    ``floor(reduced_fraction * n)``, at least one."""
    return max(1, int(config.reduced_fraction * m.sg.n_vertices))


# In report order.
FAMILIES = (
    Family("sample-lmmse", "lmmse", lambda m, c: sample_lmmse(m)),
    Family("sample-dlmmse", "dlmmse", lambda m, c: sample_diag_lmmse(m)),
    Family("gsp-lmmse", "gsp", lambda m, c: gsp_lmmse(m), _rebasis),
    Family("lpi-gsp", "lpi", lambda m, c: fit_lpi(m, c.lpi_order, c.mu), _refilter),
    Family(
        "arma-gsp", "arma",
        lambda m, c: fit_arma(m, c.arma_num_order, c.arma_den_order, c.mu),
        _refilter,
    ),
    Family(
        "lr-arma-gsp", "lrarma",
        lambda m, c: fit_lr_arma(m, _cutoff(m, c), c.lr_num_order, c.lr_den_order, c.mu),
        _refilter,
    ),
    Family(
        "almmse", "almmse", lambda m, c: almmse(m.sg, c.beta, c.sigma2),
        retune=lambda fit, new_sg, vmap, c: almmse(new_sg, c.beta, c.sigma2),
    ),
)
_BY_LABEL = {f.label: f for f in FAMILIES}
ESTIMATOR_LABELS = tuple(_BY_LABEL)
SCORED = ("ok", "unconverged")  # the row statuses that carry a score


def _typed(name: str, annotation: str, value):
    """``value`` as the ``str``, ``int``, ``float`` or ``tuple[...]`` of one
    that ``annotation`` names; ConfigError naming field ``name`` unless it is
    one. A bool is no number and a string no list; an ``int`` field takes a
    float with no fractional part, and a ``float`` field an int."""
    if annotation.startswith("tuple["):
        if not isinstance(value, (list, tuple)):
            kind = "a string, not a list" if isinstance(value, str) else "not a list"
            raise ConfigError(f"{name}: {value!r} is {kind}")
        return tuple(_typed(name, annotation[len("tuple["):-len(", ...]")], v) for v in value)
    if annotation == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{name}: {value!r} is not a string")
        return value
    whole = annotation == "int"
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or (whole and value % 1)):
        raise ConfigError(f"{name}: {value!r} is not {'an integer' if whole else 'a number'}")
    if whole:
        return int(value)
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        raise ConfigError(f"{name} must be finite") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Options shared by the experiment protocols; see README for the JSON
    schema (all fields optional, snake_case keys, unknown keys rejected)."""

    grid: str = "ieee118"
    beta: float = 3.0
    sigma2: float = 0.05
    seed: int = 0
    trials: int = 2000
    estimators: tuple[str, ...] = ESTIMATOR_LABELS
    p_values: tuple[int, ...] = (59, 118, 500, 2000, 10000)
    training_size: int = 500
    lpi_order: int = 6
    arma_num_order: int = 3
    arma_den_order: int = 3
    lr_num_order: int = 2
    lr_den_order: int = 2
    reduced_fraction: float = 0.3
    mu: float = 1e-3
    perturb_mode: str = "add-edges"
    perturb_counts: tuple[int, ...] = (1, 4, 7)
    perturb_repetitions: int = 20
    runtime_targets: tuple[float, ...] = ()
    runtime_repeats: int = 10

    def __post_init__(self):
        for f in fields(self):  # each value checked and converted off its annotation
            object.__setattr__(self, f.name, _typed(f.name, f.type, getattr(self, f.name)))
        for label in self.estimators:
            if label not in ESTIMATOR_LABELS:
                raise ConfigError(f"unknown estimator label {label!r}")
        if self.perturb_mode not in PERTURB_MODES:
            raise ConfigError(f"unknown perturbation mode {self.perturb_mode!r}")
        if self.trials < 2:
            raise ConfigError("trials must be at least 2")
        if any(p < 2 for p in self.p_values) or self.training_size < 2:
            raise ConfigError("training sizes must be at least 2")
        for name in ("beta", "sigma2", "mu", "runtime_targets"):  # json reads NaN and Infinity
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} must be finite")
        if self.beta <= 0 or self.sigma2 < 0 or self.mu < 0:
            raise ConfigError("beta must be positive, sigma2 and mu non-negative")
        if not 0.0 < self.reduced_fraction <= 1.0:
            raise ConfigError("reduced_fraction must be in (0, 1]")
        if min(
            self.lpi_order,
            self.arma_num_order,
            self.arma_den_order,
            self.lr_num_order,
            self.lr_den_order,
        ) < 0:
            raise ConfigError("filter orders must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.perturb_repetitions < 1 or self.runtime_repeats < 1:
            raise ConfigError("repetition counts must be positive")
        if any(c < 0 for c in self.perturb_counts):
            raise ConfigError("perturb_counts must be non-negative")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**doc)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_json(text)


@dataclass(frozen=True)
class MseRow:
    """One report row; a row built from its key alone has ``nan`` scores."""

    estimator: str
    scenario: str
    param: str
    value: float
    mse: float = float("nan")
    stderr: float = float("nan")
    wall_ms: float = float("nan")
    status: str = "ok"
    rep: int | None = None


@dataclass
class MseReport:
    rows: list[MseRow] = field(default_factory=list)

    def add(self, row: MseRow) -> None:
        self.rows.append(row)

    def write_csv(self, path) -> None:
        """Fixed-column CSV; failed rows carry nan values. Identical for
        identical config+seed except the wall_ms column."""
        with open(path, "w", newline="") as fh:
            fh.write("estimator,scenario,param,value,mse,stderr,wall_ms\n")
            for r in self.rows:
                vals = ",".join(
                    format(x, ".17g") for x in (r.value, r.mse, r.stderr, r.wall_ms)
                )
                fh.write(f"{r.estimator},{r.scenario},{r.param},{vals}\n")


_MALLOC_TRIM = getattr(ctypes.pythonapi, "malloc_trim", None)  # glibc only


def _release_heap() -> None:
    """Return the C heap's free pages to the OS, so that a model's N x N
    temporaries touch fresh pages, not ones that earlier work left resident:
    without it, one retopo call's peak RSS varied by an N x N array."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _config_grid(config: ExperimentConfig) -> AcGridModel:
    return bundled_ieee118() if config.grid == "ieee118" else load_grid(config.grid)


def _ac_model(grid: AcGridModel, config: ExperimentConfig) -> MeasurementModel:
    """The config's AC model on ``grid``; ConfigError, before any draw, when
    its prior variance ``beta / lambda`` is not finite."""
    try:
        return ac_measurement_model(grid, config.beta, config.sigma2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_model(config: ExperimentConfig) -> MeasurementModel:
    """Grid model named by the config ("ieee118" or a branch CSV path)."""
    return _ac_model(_config_grid(config), config)


def _blocks(trials: int) -> list[slice]:
    """Row slices of near-equal blocks of 256 to 511 rows, or one block
    below 256 trials (see the module docstring)."""
    pieces = max(1, trials // 256)
    edges = [k * trials // pieces for k in range(pieces + 1)]
    return list(map(slice, edges[:-1], edges[1:]))


def _squared_distances(fresh: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row sums of ``(fresh - x)**2``, formed in ``fresh``, a scratch buffer;
    an overflow is an inf score, which the row records as ``non-finite``."""
    np.subtract(fresh, x, out=fresh)
    with np.errstate(over="ignore"):
        return np.sum(np.square(fresh, out=fresh), axis=-1)


def squared_errors(est, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-trial squared error sums of an estimator on given draws."""
    return _squared_distances(est.estimate(y), x)


@dataclass(frozen=True)
class _Draws:
    """One block of a test set: draws ``(x, y)`` of a model on ``sg`` and
    the spectrum ``x_freq`` that ``x`` was synthesized from."""

    sg: SpectralGraph
    x: np.ndarray
    y: np.ndarray
    x_freq: np.ndarray

    @cached_property
    def y_freq(self) -> np.ndarray:
        """``y V``, made on first use and shared by every estimator."""
        return gft(self.sg, self.y)

    def errors(self, est) -> np.ndarray:
        """:func:`squared_errors` on the block; for a spectral estimator on
        ``sg``, in the frequency domain."""
        if isinstance(est, SpectralEstimator) and est.sg is self.sg:
            return _squared_distances(est.frequency_estimate(self.y_freq), self.x_freq)
        return squared_errors(est, self.x, self.y)


def _test_blocks(model: MeasurementModel, trials: int, seed: int):
    """The seeded test set of ``model`` as :class:`_Draws` blocks cut at
    :func:`_blocks`. Prior rows come from the ``test-x`` stream and
    noise rows from the ``test-w`` stream; each stream runs on from block to
    block, so the blocks hold the normals of one whole draw. A block is drawn
    only when the previous one has been consumed and released."""
    x_rng = generator(derive(seed, "test-x"), "prior")
    w_rng = generator(derive(seed, "test-w"), "noise")
    for rows in _blocks(trials):
        x_freq = _draw_spectrum(model.prior, x_rng, rows.stop - rows.start)
        x = igft(model.sg, x_freq)  # the bits of _draw_prior
        y = model._draw_noise(w_rng, len(x))
        y += model.forward(x)  # never into a forward map's own buffer
        yield _Draws(model.sg, x, y, x_freq)
        del x, y, x_freq


def draw_test_set(
    model: MeasurementModel, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded evaluation draws: states and noisy measurements, the
    concatenated blocks that every protocol scores on."""
    xs, ys = zip(*((b.x, b.y) for b in _test_blocks(model, trials, seed)))
    return np.concatenate(xs), np.concatenate(ys)


def _errors(model: MeasurementModel, trials: int, seed: int, ests) -> list[np.ndarray]:
    """Per-trial squared errors of each of ``ests`` on the seeded test set
    of ``model``: every estimator scores a block before the next is drawn,
    so the test set is never whole."""
    errs = [[] for _ in ests]
    for block in _test_blocks(model, trials, seed):
        for err, est in zip(errs, ests):
            err.append(block.errors(est))
        del block
    return [np.concatenate(err) for err in errs]


def _mse(err: np.ndarray) -> tuple[float, float]:
    """Mean of per-trial errors and its standard error, not finite when an
    error is not finite or their sum overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(err.mean()), float(err.std(ddof=1) / np.sqrt(len(err)))


def _attempt(row: MseRow, build) -> tuple[MseRow, object]:
    """``(row, build())``, ``row`` timed with how long ``build()`` took and
    ``unconverged`` if the estimator's search ended on its budget, or
    ``(row, None)``, ``row`` given the status of a numerical failure."""
    t0 = time.perf_counter()
    try:
        est = build()
    except SingularMomentsError:
        return replace(row, status="singular"), None
    except UnstableFilterError:
        return replace(row, status="unstable"), None
    status = "ok" if getattr(est, "converged", True) else "unconverged"
    return replace(row, wall_ms=(time.perf_counter() - t0) * 1e3, status=status), est


def _finite_score(mse: float, stderr: float) -> bool:
    """Whether a score can be reported: its mse and stderr are both finite."""
    return bool(np.isfinite(mse) and np.isfinite(stderr))


def _scored_rows(
    fitted: list[tuple], model: MeasurementModel, trials: int, seed: int
) -> list[MseRow]:
    """The row of each :func:`_attempt` ``(row, est)``, scored in one pass
    over the seeded test set of ``model`` (none if no fit succeeded): a failed
    fit's row as it is, a score that is not finite as ``non-finite``."""
    ests = [est for _, est in fitted if est is not None]
    errs = iter(_errors(model, trials, seed, ests) if ests else ())
    rows = []
    for row, est in fitted:
        if est is not None:
            mse, stderr = _mse(next(errs))
            if _finite_score(mse, stderr):
                row = replace(row, mse=mse, stderr=stderr)
            else:
                row = replace(row, status="non-finite", wall_ms=np.nan)
        rows.append(row)
    return rows


def evaluate_mse(
    est,
    model: MeasurementModel,
    trials: int,
    seed: int,
) -> tuple[float, float]:
    """Empirical MSE and its standard error over seeded draws."""
    return _mse(_errors(model, trials, seed, [est])[0])


def _check_lpi_order(config: ExperimentConfig, labels, model: MeasurementModel) -> None:
    """ConfigError if ``labels`` fit lpi-gsp with an order the grid cannot
    carry; every command that may fit it calls this before its training pass."""
    if "lpi-gsp" in labels and config.lpi_order >= (n := model.sg.n_vertices):
        raise ConfigError(f"lpi_order {config.lpi_order} must be below the grid's {n} vertices")


def fit_by_label(label: str, m: SampleMoments, config: ExperimentConfig):
    """Build the estimator named by ``label`` from moments ``m``, on their
    graph."""
    if label not in _BY_LABEL:
        raise ConfigError(f"unknown estimator label {label!r}")
    return _BY_LABEL[label].fit(m, config)


def _fit_families(model: MeasurementModel, config: ExperimentConfig, p: int, key: MseRow):
    """An :func:`_attempt` of each configured family, with ``key`` as its row,
    on ``model``'s seeded size-``p`` training moments, freed on return."""
    if not config.estimators:
        return []
    m = stream_moments(model, p, derive(config.seed, "train", p))
    return [_attempt(replace(key, estimator=label), lambda: fit_by_label(label, m, config))
            for label in config.estimators]


def experiment_a(config: ExperimentConfig) -> MseReport:
    """MSE of each configured estimator versus training-set size, on a common
    seeded test set, plus the unconstrained estimator on the exact population
    moments (the P-infinity row, ``value`` inf).

    Fit first, score last. The P-infinity estimator and then every family at
    each distinct training size, largest first, are fitted and timed on their
    moments, which are freed before the next pass. Only then is the test set
    drawn, a block at a time, and every held estimator scored on each block,
    so no test block sits beside a training pass. The held fits cost one
    N x N sample-lmmse gain per training size and one for P-infinity
    (0.67 MB for the default six at N = 118); the largest pass runs first,
    while the fewest are held.
    """
    grid = _config_grid(config)
    model = _ac_model(grid, config)
    _check_lpi_order(config, config.estimators, model)
    m = population_moments(grid, model.prior, model.sigma2)
    limit = _attempt(
        MseRow("sample-lmmse", "experiment-a", "P-infinity", np.inf), lambda: sample_lmmse(m)
    )
    del m
    fits = {
        p: _fit_families(model, config, p, MseRow("", "experiment-a", "P", float(p)))
        for p in sorted(set(config.p_values), reverse=True)
    }
    fitted = [fit for p in config.p_values for fit in fits[p]] + [limit]
    seed = derive(config.seed, "test", 0, 0)
    return MseReport(_scored_rows(fitted, model, config.trials, seed))


def _retuned(base: tuple, row: MseRow, new_sg: SpectralGraph, vmap, config: ExperimentConfig):
    """An :func:`_attempt` of ``row``'s retune of ``base``, its family's base
    fit, onto ``new_sg``; a failed base fit hands ``row`` its status."""
    base_row, est = base
    if est is None:
        return replace(row, status=base_row.status), None
    retune = _BY_LABEL[row.estimator].retune
    return _attempt(row, lambda: retune(est, new_sg, vmap, config))


def _retune_input(est, spectrum: SpectralGraph, vertex_mode: bool):
    """What the retune of base fit ``est`` reads: a linear fit as it is, a
    fit remapped stale on vertex modes (gsp-lmmse) as its dense gain, and any
    other spectral fit on ``spectrum``, its graph with no eigenbasis."""
    if not isinstance(est, SpectralEstimator):
        return est
    if vertex_mode and _BY_LABEL[est.label].retune is _rebasis:
        return est.dense
    return replace(est, sg=spectrum)


def experiment_b(config: ExperimentConfig) -> MseReport:
    """Topology-change protocol.

    Estimators are trained once on the base grid. For each perturbation size
    and repetition, the grid is perturbed, the parametric spectral estimators
    are retuned to the new spectrum from their stored coefficients, the
    nonparametric spectral response is carried onto the new basis (edge
    modes) or remapped stale (vertex modes), the unconstrained estimators are
    kept stale (remapped on vertex modes), and the training-free baseline is
    rebuilt. All are scored on the new topology's generating model with
    paired draws per repetition. A (count, repetition) whose perturbation is
    infeasible gives one ``infeasible`` row per estimator.

    Once the base fits are made, each is cut to what its retune reads
    (:func:`_retune_input`) and the base model is freed: a perturbed model
    is built and scored beside the grid and the base fits' N x N gains
    (sample-lmmse's; gsp-lmmse's on vertex modes), but no base eigenbasis.
    """
    grid = _config_grid(config)
    _release_heap()
    base_model = _ac_model(grid, config)
    _check_lpi_order(config, config.estimators, base_model)
    if not config.estimators:
        return MseReport()
    p = config.training_size
    bases = _fit_families(base_model, config, p, MseRow("", "experiment-b", "base", float(p)))
    vertex_mode = config.perturb_mode.endswith("vertices")
    spectrum = replace(base_model.sg, eigenvectors=None)
    bases = [(row, _retune_input(est, spectrum, vertex_mode)) for row, est in bases]
    del base_model
    report = MseReport()
    for count in config.perturb_counts:
        for rep in range(config.perturb_repetitions):
            param = f"{config.perturb_mode}/rep{rep}"
            rows = [MseRow(label, "experiment-b", param, float(count), rep=rep)
                    for label in config.estimators]
            try:
                new_grid, vmap = perturb_grid(
                    grid, count, config.perturb_mode, derive(config.seed, "perturb", count, rep)
                )
            except PerturbationInfeasibleError:
                report.rows += [replace(row, status="infeasible") for row in rows]
                continue
            vmap = vmap if vertex_mode else None
            _release_heap()
            new_model = _ac_model(new_grid, config)
            retuned = [_retuned(b, row, new_model.sg, vmap, config) for b, row in zip(bases, rows)]
            seed = derive(config.seed, "test", count, rep)
            report.rows += _scored_rows(retuned, new_model, config.trials, seed)
            del new_model, retuned  # one perturbed eigenbasis is alive at a time
    return report


def measure_runtime(config: ExperimentConfig) -> MseReport:
    """Median wall time of each estimator's whole fit over
    ``runtime_repeats`` fits, with the MSE of the last fit it timed against
    any configured targets (the fits are deterministic, so any of them
    scores the same). Only the ordering of the times is meaningful."""
    model = build_model(config)
    _check_lpi_order(config, config.estimators, model)
    if not config.estimators:
        return MseReport()
    p = config.training_size
    m = stream_moments(model, p, derive(config.seed, "train", p))
    fitted = []
    for label in config.estimators:
        row = MseRow(label, "runtime", "median-fit", float(config.runtime_repeats))
        times = []
        for _ in range(config.runtime_repeats):
            timed, est = _attempt(row, lambda: fit_by_label(label, m, config))
            if est is None:
                break
            times.append(timed.wall_ms)
        else:
            timed = replace(timed, wall_ms=float(np.median(times)))
        fitted.append((timed, est))
    del m
    report = MseReport()
    for row in _scored_rows(fitted, model, config.trials, derive(config.seed, "test", 0, 0)):
        report.add(row)
        for target in config.runtime_targets if row.status in SCORED else ():
            report.add(replace(
                row, param="target-mse", value=float(target),
                status="ok" if row.mse <= target else "unreachable",
            ))
    return report
