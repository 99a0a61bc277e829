"""Data substrate: schemas, synthetic generators, splits, sampling, loaders."""

from .dataloader import Batch, InteractionDataLoader, build_training_examples
from .io import load_dataset, save_dataset
from .datasets import (
    SCENARIO_NAMES,
    load_all_scenarios,
    load_scenario,
    paper_table1_reference,
    scenario_spec,
)
from .negative_sampling import NegativeSampler, build_ranking_candidates
from .pipeline import DataPipeline
from .preprocessing import compact_items, filter_min_interactions, preprocess_scenario
from .schema import CDRDataset, DomainData
from .split import DomainSplit, leave_one_out_split
from .statistics import DomainStatistics, format_statistics_table, scenario_statistics
from .synthetic import DomainSpec, ScenarioSpec, generate_domain, generate_scenario

__all__ = [
    "DomainData",
    "CDRDataset",
    "save_dataset",
    "load_dataset",
    "DomainSpec",
    "ScenarioSpec",
    "generate_domain",
    "generate_scenario",
    "SCENARIO_NAMES",
    "scenario_spec",
    "load_scenario",
    "load_all_scenarios",
    "paper_table1_reference",
    "filter_min_interactions",
    "compact_items",
    "preprocess_scenario",
    "DomainSplit",
    "leave_one_out_split",
    "NegativeSampler",
    "build_ranking_candidates",
    "Batch",
    "InteractionDataLoader",
    "build_training_examples",
    "DataPipeline",
    "DomainStatistics",
    "scenario_statistics",
    "format_statistics_table",
]
