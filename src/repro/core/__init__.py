"""The paper's primary contribution: the NMCDR model and its training harness."""

from .complementing import IntraNodeComplementing
from .config import NMCDRConfig, TrainerConfig
from .encoder import HeterogeneousGraphEncoder
from .engine import (
    Callback,
    EarlyStoppingCallback,
    EngineContext,
    LRSchedulerCallback,
    StepExecutor,
    TrainingEngine,
)
from .plan_schedule import PlanSchedule, PlanScheduleStats
from .inter_matching import InterNodeMatching
from .intra_matching import IntraNodeMatching
from .nmcdr import NMCDR, DomainRepresentations
from .prediction import PredictionHead
from .representation import ModelCapabilities, RepresentationModel
from .sharded import ShardedStepExecutor, ShardLoss
from .subgraph_plan import DomainSubgraphPlan, SubgraphPlan, SubgraphSettings
from .stability import (
    StabilityReport,
    empirical_prediction_deviation,
    spectral_norm,
    stability_report,
    theoretical_stability_bound,
)
from .task import CDRTask, DomainTask, DOMAIN_KEYS, build_task
from .trainer import CDRTrainer, TrainingHistory
from .variants import VARIANT_NAMES, build_variant, variant_config

__all__ = [
    "NMCDRConfig",
    "TrainerConfig",
    "HeterogeneousGraphEncoder",
    "IntraNodeMatching",
    "InterNodeMatching",
    "IntraNodeComplementing",
    "PredictionHead",
    "NMCDR",
    "DomainRepresentations",
    "ModelCapabilities",
    "RepresentationModel",
    "CDRTask",
    "DomainTask",
    "DOMAIN_KEYS",
    "build_task",
    "CDRTrainer",
    "TrainingHistory",
    "TrainingEngine",
    "StepExecutor",
    "ShardedStepExecutor",
    "ShardLoss",
    "EngineContext",
    "Callback",
    "EarlyStoppingCallback",
    "LRSchedulerCallback",
    "PlanSchedule",
    "PlanScheduleStats",
    "VARIANT_NAMES",
    "variant_config",
    "build_variant",
    "SubgraphPlan",
    "DomainSubgraphPlan",
    "SubgraphSettings",
    "StabilityReport",
    "spectral_norm",
    "theoretical_stability_bound",
    "empirical_prediction_deviation",
    "stability_report",
]
