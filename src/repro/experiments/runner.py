"""Scenario runner: train a set of models on one CDR configuration and compare.

This is the workhorse used by every table/figure bench.  Given a scenario
name, an overlap ratio and/or density ratio and a list of model names, it
generates the data, builds the shared :class:`CDRTask`, trains every model
with the same trainer configuration and returns per-model, per-domain ranking
metrics.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..baselines import build_model
from ..core import CDRTask, CDRTrainer, NMCDRConfig, TrainerConfig, build_task
from ..data import CDRDataset, load_scenario, preprocess_scenario

__all__ = [
    "ExperimentSettings",
    "ModelResult",
    "ScenarioResult",
    "run_scenario",
    "fast_mode",
]


def fast_mode() -> bool:
    """Whether the benches should run in reduced "smoke" mode.

    Controlled by the ``REPRO_FULL`` environment variable: set it to ``1`` to
    run the larger configuration (more epochs, more models, all sweep points).
    The default is the fast mode so ``pytest benchmarks/`` finishes in minutes.
    """
    return os.environ.get("REPRO_FULL", "0") != "1"


@dataclass
class ExperimentSettings:
    """Shared knobs of a table/figure experiment."""

    scenario: str
    scale: float = 0.6
    overlap_ratio: Optional[float] = None
    density_ratio: Optional[float] = None
    embedding_dim: int = 32
    num_epochs: int = 12
    batch_size: int = 256
    learning_rate: float = 5e-3
    num_eval_negatives: int = 99
    min_interactions: int = 3
    head_threshold: int = 7
    seed: int = 7

    def trainer_config(self) -> TrainerConfig:
        return TrainerConfig(
            num_epochs=self.num_epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            num_eval_negatives=self.num_eval_negatives,
            seed=self.seed,
        )

    def nmcdr_config(self) -> NMCDRConfig:
        return NMCDRConfig(
            embedding_dim=self.embedding_dim,
            head_threshold=self.head_threshold,
            seed=self.seed,
        )


@dataclass
class ModelResult:
    """Metrics and bookkeeping for one trained model."""

    model_name: str
    metrics: Dict[str, Dict[str, float]]
    final_loss: float
    num_parameters: int
    train_seconds_per_batch: float
    wall_clock_seconds: float
    #: Batch-preparation cost per step (epoch materialisation,
    #: negative sampling, slicing) — the wall cost the step timing above
    #: deliberately excludes.
    data_seconds_per_batch: float = 0.0
    #: Wall-clock seconds of the fit loop itself (data + steps + eval).
    fit_wall_seconds: float = 0.0

    def metric(self, domain_key: str, name: str) -> float:
        return self.metrics.get(domain_key, {}).get(name, float("nan"))


@dataclass
class ScenarioResult:
    """All model results for one scenario configuration."""

    settings: ExperimentSettings
    task_summary: Dict
    results: Dict[str, ModelResult] = field(default_factory=dict)

    def best_model(self, domain_key: str, metric: str = "ndcg@10") -> str:
        scored = {
            name: result.metric(domain_key, metric) for name, result in self.results.items()
        }
        return max(scored, key=scored.get)

    def improvement_over_best_baseline(
        self,
        domain_key: str,
        metric: str = "ndcg@10",
    ) -> float:
        """NMCDR's relative improvement (%) over the best non-NMCDR model."""
        if "NMCDR" not in self.results:
            raise KeyError("scenario was run without NMCDR")
        ours = self.results["NMCDR"].metric(domain_key, metric)
        baselines = [
            result.metric(domain_key, metric)
            for name, result in self.results.items()
            if not name.startswith("NMCDR")
        ]
        if not baselines:
            return float("nan")
        best = max(baselines)
        if best <= 0:
            return float("inf")
        return 100.0 * (ours - best) / best


def prepare_dataset(settings: ExperimentSettings) -> CDRDataset:
    """Generate, preprocess and apply the Ku / Ds manipulations."""
    dataset = load_scenario(settings.scenario, scale=settings.scale, seed=settings.seed)
    dataset = preprocess_scenario(dataset, min_interactions=settings.min_interactions)
    rng = np.random.default_rng(settings.seed)
    if settings.overlap_ratio is not None:
        dataset = dataset.with_overlap_ratio(settings.overlap_ratio, rng=rng)
    if settings.density_ratio is not None:
        dataset = dataset.with_density(settings.density_ratio, rng=rng)
    return dataset


def run_scenario(
    settings: ExperimentSettings,
    model_names: Sequence[str],
    task: Optional[CDRTask] = None,
) -> ScenarioResult:
    """Train and evaluate every requested model on one scenario configuration."""
    if task is None:
        dataset = prepare_dataset(settings)
        task = build_task(dataset, head_threshold=settings.head_threshold)
    trainer_config = settings.trainer_config()
    scenario_result = ScenarioResult(settings=settings, task_summary=task.summary())

    for name in model_names:
        started = time.perf_counter()
        model = build_model(
            name,
            task,
            embedding_dim=settings.embedding_dim,
            seed=settings.seed,
            nmcdr_config=settings.nmcdr_config(),
        )
        trainer = CDRTrainer(model, task, trainer_config)
        history = trainer.fit()
        metrics = trainer.evaluate(subset="test")
        scenario_result.results[name] = ModelResult(
            model_name=name,
            metrics=metrics,
            final_loss=history.final_loss,
            num_parameters=model.num_parameters(),
            train_seconds_per_batch=history.train_seconds_per_batch,
            wall_clock_seconds=time.perf_counter() - started,
            data_seconds_per_batch=history.data_seconds_per_batch,
            fit_wall_seconds=history.fit_wall_seconds,
        )
    return scenario_result
