"""The Periodic Messages model — the paper's primary contribution.

Exposes the discrete-event model (:class:`PeriodicMessagesModel`),
cluster tracking, timer policies, the paper's canonical parameters,
and sweep helpers.
"""

from .batch import BatchCascade, BatchMember
from .clusters import ClusterGroup, ClusterTracker
from .engines import ENGINES, resolve_engine
from .ensemble import EnsembleResult, FirstPassageEnsemble
from .fastsim import CascadeModel
from .model import InitialPhases, ModelConfig, PeriodicMessagesModel, RouterState
from .parameters import (
    FIG4_HORIZON,
    FIG4_TR,
    FIG7_HORIZON,
    FIG10_F2_ROUNDS,
    FIG10_TR,
    FIG11_TR,
    PAPER_N,
    PAPER_TC,
    PAPER_TP,
    RouterTimingParameters,
)
from .sweeps import (
    SweepResult,
    sweep_nodes,
    sweep_tr,
    time_to_break_up,
    time_to_synchronize,
)
from .timers import (
    DistinctPeriodTimer,
    FixedTimer,
    RecommendedJitterTimer,
    TimerPolicy,
    UniformJitterTimer,
)

__all__ = [
    "BatchCascade",
    "BatchMember",
    "ClusterGroup",
    "ClusterTracker",
    "CascadeModel",
    "ENGINES",
    "resolve_engine",
    "EnsembleResult",
    "FirstPassageEnsemble",
    "InitialPhases",
    "ModelConfig",
    "PeriodicMessagesModel",
    "RouterState",
    "FIG4_HORIZON",
    "FIG4_TR",
    "FIG7_HORIZON",
    "FIG10_F2_ROUNDS",
    "FIG10_TR",
    "FIG11_TR",
    "PAPER_N",
    "PAPER_TC",
    "PAPER_TP",
    "RouterTimingParameters",
    "SweepResult",
    "sweep_nodes",
    "sweep_tr",
    "time_to_break_up",
    "time_to_synchronize",
    "DistinctPeriodTimer",
    "FixedTimer",
    "RecommendedJitterTimer",
    "TimerPolicy",
    "UniformJitterTimer",
]
