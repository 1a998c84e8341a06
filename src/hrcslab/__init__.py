"""hrcslab: simulate holographic random circuit sampling and check the
measured statistics against their closed-form values."""

from .core import sample_haar_state, sample_haar_unitary
from .circuits import HeaParams, hea_gate_count, sample_hea_params
from .engine import (
    HrcsConfig,
    TrajectoryBatch,
    enumerate_joint_distribution,
    ideal_probabilities_batch,
    instantiate_circuit,
    marginalize,
    replay_no_reset_equivalence,
    sample_trajectories,
)
from .errors import CapacityError, ConfigurationError, DegenerateBranchError
from .estimators import (
    EnsembleStats,
    ensemble_aggregate,
    pop_histogram,
    power_sum_exact,
    tvd_exact,
    xeb_estimate,
)
from .runner import ExperimentSpec, ResultRecord, run_experiment, write_records
from . import theory

__all__ = [
    "CapacityError",
    "ConfigurationError",
    "DegenerateBranchError",
    "EnsembleStats",
    "ExperimentSpec",
    "HeaParams",
    "HrcsConfig",
    "ResultRecord",
    "TrajectoryBatch",
    "ensemble_aggregate",
    "enumerate_joint_distribution",
    "hea_gate_count",
    "ideal_probabilities_batch",
    "instantiate_circuit",
    "marginalize",
    "pop_histogram",
    "power_sum_exact",
    "replay_no_reset_equivalence",
    "run_experiment",
    "sample_haar_state",
    "sample_haar_unitary",
    "sample_hea_params",
    "sample_trajectories",
    "theory",
    "tvd_exact",
    "write_records",
    "xeb_estimate",
]
