"""Monte Carlo experiment protocols and reporting.

Experiments share one seeded test set per scenario so estimator comparisons
are paired (common random numbers). Estimator failures (singular moments,
unstable filters, a score that is not finite) and infeasible topology
perturbations are recorded as report rows with NaN values, not raised.
Experiment A's P-infinity row is the unconstrained estimator built from the
model's exact population moments, not from a training set.

Spectral estimators are scored in the frequency domain of the test graph,
on one transform of the draws per graph: Parseval's identity makes that the
vertex-domain squared error, as ``build_laplacian`` checks that the
eigenbasis is orthonormal to 1e-10.
"""

from __future__ import annotations

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
    arma_coefficients,
    fit_arma,
    fit_lpi,
    fit_lr_arma,
    gsp_lmmse,
    gsp_response,
    lpi_coefficients,
    lr_arma_coefficients,
    remap_estimator,
    sample_diag_lmmse,
    sample_lmmse,
    update_for_topology,
    SpectralEstimator,
)
# build_laplacian is unused here; the perfbench tracer tests patch it in this module
from .graphs import PERTURB_MODES, SpectralGraph, build_laplacian, gft
from .models import (
    AcGridModel,
    MeasurementModel,
    ac_measurement_model,
    bundled_ieee118,
    load_grid,
    perturb_grid,
)
from .moments import SampleMoments, population_moments, stream_moments
from .rng import derive


def _stale(fit, new_sg, vmap, config):
    """Keep a trained estimator, remapped when the vertex set changed."""
    return fit if vmap is None else remap_estimator(fit, vmap, new_sg.n_vertices)


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
    name, ``fit(m, config)`` on the moments' graph ``m.sg``, the
    ``coefficients(m, config)`` stage that ``measure_runtime`` times (the
    whole fit when None) and ``retune(fit, new_sg, vmap, config)``, which
    carries a trained estimator onto a changed topology (``vmap`` is None on
    edge modes). The callables reach the estimator functions through this
    module's globals when they run, so a rebound name (a test double, the
    perfbench tracer) reaches every use."""

    label: str
    cli_name: str
    fit: Callable
    coefficients: Callable | None = None
    retune: Callable = _stale


def _cutoff(m: SampleMoments, config: ExperimentConfig) -> int:
    """Frequencies an lr-arma fit keeps on the moments' graph: the lowest
    ``floor(reduced_fraction * n)``, at least one."""
    return max(1, int(config.reduced_fraction * m.sg.n_vertices))


# In report order.
FAMILIES = (
    Family("sample-lmmse", "lmmse", lambda m, c: sample_lmmse(m)),
    Family("sample-dlmmse", "dlmmse", lambda m, c: sample_diag_lmmse(m)),
    Family(
        "gsp-lmmse", "gsp", lambda m, c: gsp_lmmse(m),
        lambda m, c: gsp_response(m), _rebasis,
    ),
    Family(
        "lpi-gsp", "lpi", lambda m, c: fit_lpi(m, c.lpi_order, c.mu),
        lambda m, c: lpi_coefficients(m, c.lpi_order, c.mu), _refilter,
    ),
    Family(
        "arma-gsp", "arma",
        lambda m, c: fit_arma(m, c.arma_num_order, c.arma_den_order, c.mu),
        lambda m, c: arma_coefficients(m, c.arma_num_order, c.arma_den_order, c.mu),
        _refilter,
    ),
    Family(
        "lr-arma-gsp", "lrarma",
        lambda m, c: fit_lr_arma(m, _cutoff(m, c), c.lr_num_order, c.lr_den_order, c.mu),
        lambda m, c: lr_arma_coefficients(
            m, _cutoff(m, c), c.lr_num_order, c.lr_den_order, c.mu
        ),
        _refilter,
    ),
    Family(
        "almmse", "almmse", lambda m, c: almmse(m.sg, c.beta, c.sigma2),
        retune=lambda fit, new_sg, vmap, c: almmse(new_sg, c.beta, c.sigma2),
    ),
)
_BY_LABEL = {f.label: f for f in FAMILIES}
ESTIMATOR_LABELS = tuple(_BY_LABEL)


def _integral(name: str, value) -> int:
    """``value`` as an int; ConfigError unless it has no fractional part."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer)) or value % 1:
        raise ConfigError(f"{name}: {value!r} is not an integer")
    return int(value)


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
        for f in fields(self):  # the integer fields, read off their annotations
            value = getattr(self, f.name)
            if f.type == "int":
                object.__setattr__(self, f.name, _integral(f.name, value))
            elif f.type == "tuple[int, ...]":
                object.__setattr__(self, f.name, tuple(_integral(f.name, v) for v in value))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(
            self, "runtime_targets", tuple(float(t) for t in self.runtime_targets)
        )
        for label in self.estimators:
            if label not in ESTIMATOR_LABELS:
                raise ConfigError(f"unknown estimator label {label!r}")
        if self.perturb_mode not in PERTURB_MODES:
            raise ConfigError(f"unknown perturbation mode {self.perturb_mode!r}")
        if self.trials < 2:
            raise ConfigError("trials must be at least 2")
        if any(p < 2 for p in self.p_values) or self.training_size < 2:
            raise ConfigError("training sizes must be at least 2")
        for name in ("beta", "sigma2", "mu"):  # json reads NaN and Infinity
            if not np.isfinite(getattr(self, name)):
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
    estimator: str
    scenario: str
    param: str
    value: float
    mse: float
    stderr: float
    wall_ms: float
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


def _config_grid(config: ExperimentConfig) -> AcGridModel:
    return bundled_ieee118() if config.grid == "ieee118" else load_grid(config.grid)


def build_model(config: ExperimentConfig) -> MeasurementModel:
    """Grid model named by the config ("ieee118" or a branch CSV path)."""
    return ac_measurement_model(_config_grid(config), config.beta, config.sigma2)


def draw_test_set(
    model: MeasurementModel, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded evaluation draws: states and noisy measurements."""
    x = model.sample_x(trials, derive(seed, "test-x"))
    w = model.sample_noise(trials, derive(seed, "test-w"))
    return x, np.asarray(model.forward(x)) + w


def squared_errors(est, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-trial squared error sums of an estimator on given draws."""
    diff = est.estimate(y) - x
    return np.sum(diff * diff, axis=-1)


@dataclass(frozen=True)
class _Draws:
    """Test draws ``(x, y)`` of a model on ``sg``."""

    sg: SpectralGraph
    x: np.ndarray
    y: np.ndarray

    @classmethod
    def of(cls, model: MeasurementModel, trials: int, seed: int) -> "_Draws":
        return cls(model.sg, *draw_test_set(model, trials, seed))

    @cached_property
    def spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """``(x V, y V)``, made on first use and shared by every estimator."""
        return gft(self.sg, self.x), gft(self.sg, self.y)

    def errors(self, est) -> np.ndarray:
        """:func:`squared_errors`; for a spectral estimator on ``sg``, in
        the frequency domain."""
        if not (isinstance(est, SpectralEstimator) and est.sg is self.sg):
            return squared_errors(est, self.x, self.y)
        x_freq, y_freq = self.spectra
        diff = est.frequency_estimate(y_freq)  # a fresh buffer, scratch here
        np.subtract(diff, x_freq, out=diff)
        return np.sum(np.square(diff, out=diff), axis=-1)

    def mse(self, est) -> tuple[float, float]:
        err = self.errors(est)
        return float(err.mean()), float(err.std(ddof=1) / np.sqrt(len(err)))


def _attempt(build):
    """``(build(), "ok")``, or ``(None, status)`` on a numerical failure."""
    try:
        return build(), "ok"
    except SingularMomentsError:
        return None, "singular"
    except UnstableFilterError:
        return None, "unstable"


def _failed_row(label, scenario, param, value, status, rep=None) -> MseRow:
    nan = float("nan")
    return MseRow(label, scenario, param, float(value), nan, nan, nan, status, rep)


def _scored_row(est, draws, wall_ms, label, scenario, param, value, rep=None) -> MseRow:
    """Score ``est`` on ``draws``; a score that is not finite gives a
    ``non-finite`` row with ``nan`` values."""
    mse, stderr = draws.mse(est)
    if not (np.isfinite(mse) and np.isfinite(stderr)):
        return _failed_row(label, scenario, param, value, "non-finite", rep)
    return MseRow(label, scenario, param, float(value), mse, stderr, wall_ms, rep=rep)


def _fit_and_score(build, draws, label, scenario, param, value, rep=None) -> MseRow:
    """Time ``build()`` and score its estimator on ``draws``; a numerical
    failure gives a row with its status and ``nan`` values."""
    t0 = time.perf_counter()
    est, status = _attempt(build)
    if est is None:
        return _failed_row(label, scenario, param, value, status, rep)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return _scored_row(est, draws, wall_ms, label, scenario, param, value, rep)


def evaluate_mse(
    est,
    model: MeasurementModel,
    trials: int,
    seed: int,
) -> tuple[float, float]:
    """Empirical MSE and its standard error over seeded draws."""
    return _Draws.of(model, trials, seed).mse(est)


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


def experiment_a(config: ExperimentConfig) -> MseReport:
    """MSE of each configured estimator versus training-set size, on a common
    seeded test set, plus the unconstrained estimator on the exact population
    moments (the P-infinity row, ``value`` inf)."""
    grid = _config_grid(config)
    model = ac_measurement_model(grid, config.beta, config.sigma2)
    _check_lpi_order(config, config.estimators, model)
    draws = _Draws.of(model, config.trials, derive(config.seed, "test", 0, 0))
    report = MseReport()
    for p in config.p_values:
        m = stream_moments(model, p, derive(config.seed, "train", p))
        for label in config.estimators:
            report.add(_fit_and_score(
                lambda: fit_by_label(label, m, config), draws,
                label, "experiment-a", "P", p,
            ))

    m = population_moments(grid, model.prior, model.sigma2)
    report.add(_fit_and_score(
        lambda: sample_lmmse(m), draws,
        "sample-lmmse", "experiment-a", "P-infinity", np.inf,
    ))
    return report


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
    """
    grid = _config_grid(config)
    base_model = ac_measurement_model(grid, config.beta, config.sigma2)
    _check_lpi_order(config, config.estimators, base_model)
    p = config.training_size
    m = stream_moments(base_model, p, derive(config.seed, "train", p))
    fitted = {
        label: _attempt(lambda: fit_by_label(label, m, config))
        for label in config.estimators
    }

    vertex_mode = config.perturb_mode.endswith("vertices")
    report = MseReport()
    for count in config.perturb_counts:
        for rep in range(config.perturb_repetitions):
            param = f"{config.perturb_mode}/rep{rep}"
            try:
                new_grid, vmap = perturb_grid(
                    grid, count, config.perturb_mode, derive(config.seed, "perturb", count, rep)
                )
            except PerturbationInfeasibleError:
                for label in config.estimators:
                    report.add(_failed_row(label, "experiment-b", param, count, "infeasible", rep))
                continue
            vmap = vmap if vertex_mode else None
            new_model = ac_measurement_model(new_grid, config.beta, config.sigma2)
            draws = _Draws.of(
                new_model, config.trials, derive(config.seed, "test", count, rep)
            )
            for label in config.estimators:
                fit, status = fitted[label]
                if fit is None:
                    report.add(_failed_row(label, "experiment-b", param, count, status, rep))
                    continue
                retune = _BY_LABEL[label].retune
                report.add(_fit_and_score(
                    lambda: retune(fit, new_model.sg, vmap, config), draws,
                    label, "experiment-b", param, count, rep,
                ))
            del draws  # frees the draws and their transform before the next graph
    return report


def measure_runtime(config: ExperimentConfig) -> MseReport:
    """Median coefficient-fit wall time per estimator (the method-specific
    stage), with achieved MSE against any configured targets. Only the
    ordering of the times is meaningful."""
    model = build_model(config)
    _check_lpi_order(config, config.estimators, model)
    p = config.training_size
    m = stream_moments(model, p, derive(config.seed, "train", p))
    draws = _Draws.of(model, config.trials, derive(config.seed, "test", 0, 0))
    report = MseReport()
    for label in config.estimators:
        family = _BY_LABEL[label]
        stage = family.coefficients or family.fit
        times = []
        for _ in range(config.runtime_repeats):
            t0 = time.perf_counter()
            _, status = _attempt(lambda: stage(m, config))
            if status != "ok":
                break
            times.append((time.perf_counter() - t0) * 1e3)
        if status != "ok":
            report.add(_failed_row(
                label, "runtime", "median-fit", config.runtime_repeats, status
            ))
            continue
        row = _scored_row(
            fit_by_label(label, m, config), draws, float(np.median(times)),
            label, "runtime", "median-fit", config.runtime_repeats,
        )
        report.add(row)
        if row.status != "ok":
            continue
        for target in config.runtime_targets:
            report.add(replace(
                row, param="target-mse", value=float(target),
                status="ok" if row.mse <= target else "unreachable",
            ))
    return report
