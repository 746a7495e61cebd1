"""Every demo script, and the README quick start, runs to completion against
the installed API, and that API is the pinned ``gspest.__all__``."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out


# The public API, pinned so that a change to it shows in the diff.
PUBLIC_API = (
    "AcGridModel",
    "ConfigError",
    "DisconnectedGraphError",
    "ExperimentConfig",
    "FilterSpec",
    "GspestError",
    "InvalidGraphError",
    "LinearEstimator",
    "MeasurementModel",
    "MseReport",
    "MseRow",
    "PerturbationInfeasibleError",
    "SampleMoments",
    "SingularMomentsError",
    "SmoothPrior",
    "SpectralEstimator",
    "SpectralGraph",
    "TrainingSet",
    "UnstableFilterError",
    "WeightedGraph",
    "ac_measurement_model",
    "ac_power",
    "almmse",
    "apply_filter",
    "arma_coefficients",
    "build_laplacian",
    "build_model",
    "bundled_ieee118",
    "compute_moments",
    "denominator_tolerance",
    "derive",
    "draw_test_set",
    "estimator_from_json",
    "estimator_to_json",
    "evaluate_mse",
    "experiment_a",
    "experiment_b",
    "filter_matrix",
    "fit_arma",
    "fit_by_label",
    "fit_lpi",
    "fit_lr_arma",
    "generate",
    "generator",
    "gft",
    "gsp_lmmse",
    "gsp_response",
    "igft",
    "linear_filter_model",
    "load_grid",
    "lpi_basis",
    "lpi_basis_from_eigenvalues",
    "lpi_coefficients",
    "lr_arma_coefficients",
    "measure_runtime",
    "numerical_rank",
    "perturb",
    "perturb_edges",
    "perturb_grid",
    "perturb_vertices",
    "population_moments",
    "read_edge_list",
    "read_training_csv",
    "remap_estimator",
    "require_positive_freq_var",
    "response",
    "response_at",
    "sample_diag_lmmse",
    "sample_lmmse",
    "sample_prior",
    "spec_from_json",
    "spec_to_json",
    "squared_errors",
    "stream_moments",
    "update_for_topology",
    "vandermonde",
    "write_edge_list",
)


def test_public_api_is_pinned():
    import gspest

    assert PUBLIC_API == tuple(sorted(PUBLIC_API))
    assert tuple(gspest.__all__) == PUBLIC_API
