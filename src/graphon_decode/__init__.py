"""Stimulus decoding on stochastic block spiking networks.

Pipeline: sample a four-block random graph, simulate conductance-based
integrate-and-fire dynamics under cluster-targeted pulses, project the
normalized spike-count responses onto graph eigenvectors, the eigenfunctions
of the four-block limit kernel (constant on each quarter, so a 4x4 matrix
problem), or principal components, and classify the stimulus.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ContractError,
    DataError,
    ParameterError,
    ParseError,
    SingularSystemError,
    ZeroResponseError,
)
from .sbm import (
    SbmConfig,
    build_block_probability_matrix,
    block_membership,
    eigendecompose,
    sample_adjacency,
)
from .graphon import analytic_graphon_eigenpairs
from .lif import SimParams, SpikeRaster, run_trial, run_trials
from .protocols import (
    Responses,
    extract_response,
    load_experimental_responses,
    mixed_cluster_protocol,
    two_cluster_protocol,
)
from .embedding import (
    EmbeddingSet,
    gft_project,
    graphon_project,
    pca_fit_transform,
)
from .classify import (
    EvalReport,
    cross_validated_accuracy,
    paired_difference_stats,
    predict,
    required_n_for_power,
    ridge_fit,
)
from .experiment import ExperimentConfig, config_from_dict, load_config, reproduce, run_experiment

__all__ = [
    "__version__",
    "ConfigError",
    "ContractError",
    "DataError",
    "ParameterError",
    "ParseError",
    "SingularSystemError",
    "ZeroResponseError",
    "SbmConfig",
    "build_block_probability_matrix",
    "block_membership",
    "eigendecompose",
    "sample_adjacency",
    "analytic_graphon_eigenpairs",
    "SimParams",
    "SpikeRaster",
    "run_trial",
    "run_trials",
    "Responses",
    "extract_response",
    "load_experimental_responses",
    "mixed_cluster_protocol",
    "two_cluster_protocol",
    "EmbeddingSet",
    "gft_project",
    "graphon_project",
    "pca_fit_transform",
    "EvalReport",
    "cross_validated_accuracy",
    "paired_difference_stats",
    "predict",
    "required_n_for_power",
    "ridge_fit",
    "ExperimentConfig",
    "config_from_dict",
    "load_config",
    "reproduce",
    "run_experiment",
]
