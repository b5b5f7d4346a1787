"""Configuration-model laboratory.

Uniform random multigraphs with prescribed degrees, component censuses,
closed-form connectivity limits, an exact enumeration oracle, and a
reproducible Monte Carlo harness tying them together.
"""

from .census import (
    ComponentCensus,
    component_census,
    is_connected,
    is_simple,
)
from .degseq import (
    BuildTargets,
    DegreeSequence,
    LimitParams,
    build_sequence,
    limit_params,
    validate,
)
from .generator import Multigraph, Seed, sample
from .montecarlo import (
    EstimateReport,
    ExperimentConfig,
    run_experiment,
    sweep,
)
from .oracle import ExactLaw, exact_law
from .theory import (
    Prediction,
    complement_pmf,
    expected_complement,
    lambda_cycle,
    lambda_line,
    log_count_connected_simple,
    p_connected,
    p_connected_given_simple,
    p_simple,
    predict,
)

__all__ = [
    "BuildTargets",
    "ComponentCensus",
    "DegreeSequence",
    "EstimateReport",
    "ExactLaw",
    "ExperimentConfig",
    "LimitParams",
    "Multigraph",
    "Prediction",
    "Seed",
    "build_sequence",
    "complement_pmf",
    "component_census",
    "exact_law",
    "expected_complement",
    "is_connected",
    "is_simple",
    "lambda_cycle",
    "lambda_line",
    "limit_params",
    "log_count_connected_simple",
    "p_connected",
    "p_connected_given_simple",
    "p_simple",
    "predict",
    "run_experiment",
    "sample",
    "sweep",
    "validate",
]

__version__ = "0.1.0"
