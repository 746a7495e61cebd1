"""Graph spectral estimation of network states from power measurements.

Weighted graphs with deterministic spectral decompositions, graph filters
(polynomial, low-pass inverse, rational, low-rank rational), sample moment
pipelines, linear and spectral MMSE estimators with parametric filter fits,
topology-change updates, and Monte Carlo experiment protocols.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    DisconnectedGraphError,
    GspestError,
    InvalidGraphError,
    PerturbationInfeasibleError,
    SingularMomentsError,
    UnstableFilterError,
)
from .estimators import (
    LinearEstimator,
    SpectralEstimator,
    almmse,
    arma_coefficients,
    estimator_from_json,
    estimator_to_json,
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
)
from .filters import (
    FilterSpec,
    apply_filter,
    denominator_tolerance,
    filter_matrix,
    lpi_basis,
    lpi_basis_from_eigenvalues,
    numerical_rank,
    response,
    response_at,
    spec_from_json,
    spec_to_json,
    vandermonde,
)
from .graphs import (
    ReducedSpectrum,
    SpectralGraph,
    WeightedGraph,
    build_laplacian,
    gft,
    igft,
    perturb,
    perturb_edges,
    perturb_vertices,
    read_edge_list,
    reduce_spectrum,
    write_edge_list,
)
from .harness import (
    ExperimentConfig,
    MseReport,
    MseRow,
    build_model,
    draw_test_set,
    evaluate_mse,
    experiment_a,
    experiment_b,
    fit_by_label,
    measure_runtime,
    squared_errors,
)
from .models import (
    AcGridModel,
    MeasurementModel,
    NoiseModel,
    SmoothPrior,
    ac_measurement_model,
    ac_power,
    audit_model_structure,
    bundled_ieee118,
    linear_filter_model,
    load_grid,
    perturb_grid,
    sample_prior,
)
from .moments import (
    SampleMoments,
    TrainingSet,
    compute_moments,
    generate,
    read_training_csv,
    require_positive_freq_var,
    stream_moments,
)
from .rng import derive, generator

__version__ = "0.1.0"

# Every public name imported above; the submodules are left out.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
