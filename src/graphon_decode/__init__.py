"""Stimulus decoding on stochastic block spiking networks.

Pipeline: sample a four-block random graph, simulate conductance-based
integrate-and-fire dynamics under cluster-targeted pulses, project the
normalized spike-count responses onto graph eigenvectors, step-kernel
eigenfunctions, or principal components, and classify the stimulus.
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
    analytic_block_eigenpairs,
    block_membership,
    eigendecompose,
    sample_adjacency,
)
from .graphon import (
    StepGraphon,
    analytic_graphon_eigenpairs,
    apply_kernel_operator,
    infty_to_one_norm_lower_bound,
    limit_graphon,
    step_graphon_from_adjacency,
)
from .lif import NeuronParams, SpikeRaster, StimulusPulse, SynapseParams, run_trial
from .protocols import (
    Responses,
    extract_response,
    load_experimental_responses,
    mixed_cluster_protocol,
    two_cluster_protocol,
)
from .embedding import (
    EmbeddingSet,
    align_degenerate_pair,
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
    "analytic_block_eigenpairs",
    "block_membership",
    "eigendecompose",
    "sample_adjacency",
    "StepGraphon",
    "analytic_graphon_eigenpairs",
    "apply_kernel_operator",
    "infty_to_one_norm_lower_bound",
    "limit_graphon",
    "step_graphon_from_adjacency",
    "NeuronParams",
    "SpikeRaster",
    "StimulusPulse",
    "SynapseParams",
    "run_trial",
    "Responses",
    "extract_response",
    "load_experimental_responses",
    "mixed_cluster_protocol",
    "two_cluster_protocol",
    "EmbeddingSet",
    "align_degenerate_pair",
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
