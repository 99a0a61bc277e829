"""Joint two-domain training facade shared by NMCDR and all baselines.

Any model implementing the small protocol below can be trained:

* ``parameters()`` — trainable parameters (provided by :class:`repro.nn.Module`);
* ``compute_batch_loss(batches)`` — scalar loss :class:`Tensor` for a dict of
  per-domain :class:`~repro.data.Batch` objects;
* ``prepare_for_evaluation()`` / ``invalidate_cache()`` — representation cache
  management around parameter updates;
* ``score(domain_key, users, items)`` — the :class:`repro.metrics.Scorer`
  interface used by the ranking evaluator;
* optionally ``on_epoch_start(epoch)`` — epoch-boundary hook (NMCDR uses it
  to advance its incremental plan schedule).

:class:`CDRTrainer` is a thin facade: it assembles the per-domain loaders,
the optimiser and the evaluation closure, then delegates the loop to the
staged :class:`~repro.core.engine.TrainingEngine` (data pipeline → plan
schedule → step executor, with early stopping and LR scheduling as
callbacks).  One mini-batch per domain per step is drawn (the multi-target
setting: both domains are optimised simultaneously, Eq. 24); the default
configuration — serial executor, full-graph forwards — replays the
historical monolithic loop bit-for-bit under a fixed seed.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..data.dataloader import InteractionDataLoader
from ..data.pipeline import DataPipeline
from ..metrics.evaluator import RankingEvaluator
from ..optim import Adam
from ..profiling import profiler
from .config import TrainerConfig
from .engine import Callback, StepExecutor, TrainingEngine, TrainingHistory
from .task import CDRTask, DOMAIN_KEYS

__all__ = ["TrainingHistory", "CDRTrainer"]


class CDRTrainer:
    """Joint trainer for one two-domain CDR task."""

    def __init__(
        self,
        model,
        task: CDRTask,
        config: Optional[TrainerConfig] = None,
        callbacks: Sequence[Callback] = (),
        executor: Optional[StepExecutor] = None,
    ) -> None:
        self.model = model
        self.task = task
        self.config = config or TrainerConfig()
        self._callbacks = list(callbacks)
        self._executor = executor
        if self.config.sampled_subgraph_training and model.capabilities().subgraph_sampling:
            # Models without graph propagation (most non-graph baselines) are
            # already O(batch) per step and simply train full-batch.
            model.configure_subgraph_sampling(
                True,
                num_hops=self.config.subgraph_num_hops,
                fanout=self.config.subgraph_fanout,
            )
        self.optimizer = Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        if self._executor is None and self.config.executor == "sharded":
            from .sharded import PoolShardedStepExecutor, ShardedStepExecutor

            executor_cls = (
                PoolShardedStepExecutor
                if self.config.pool_sharding
                else ShardedStepExecutor
            )
            self._executor = executor_cls(
                model,
                self.optimizer,
                grad_clip_norm=self.config.grad_clip_norm,
                n_shards=self.config.n_shards,
                traced=self.config.traced_steps,
                step_timeout=self.config.worker_step_timeout,
                max_retries=self.config.worker_max_retries,
                retry_backoff=self.config.worker_retry_backoff,
                degrade_on_failure=self.config.degrade_on_failure,
            )
        rng = np.random.default_rng(self.config.seed)
        self._loaders = {
            key: InteractionDataLoader(
                task.domain(key).split,
                batch_size=self.config.batch_size,
                negatives_per_positive=self.config.negatives_per_positive,
                rng=np.random.default_rng(rng.integers(0, 2**32 - 1)),
            )
            for key in DOMAIN_KEYS
        }
        self._eval_rng_seed = int(rng.integers(0, 2**32 - 1))

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def build_engine(self) -> TrainingEngine:
        """Assemble the staged engine for this trainer's model and config."""
        return TrainingEngine(
            self.model,
            self.optimizer,
            self.config,
            evaluate_fn=lambda: self.evaluate(subset="valid"),
            executor=self._executor,
            callbacks=self._callbacks,
        )

    def fit(self, resume_from: Optional[str] = None) -> TrainingHistory:
        """Train for ``num_epochs`` epochs and return the training history.

        ``resume_from`` names a checkpoint file (or a checkpoint directory,
        resolved to its newest file) written by a run with an equivalent
        config: the complete training state — parameters, Adam moments,
        scheduler/early-stopping state, every rng stream, history — is
        restored and the loop continues from the recorded position, bit-
        identical to a run that was never interrupted.
        """
        engine = self.build_engine()
        history = TrainingHistory()
        resume = None
        if resume_from is not None:
            from pathlib import Path

            from .checkpoint import (
                CheckpointError,
                latest_checkpoint,
                load_checkpoint,
                restore_training_state,
            )

            path = Path(resume_from)
            if path.is_dir():
                path = latest_checkpoint(path)
                if path is None:
                    raise CheckpointError(f"no checkpoint found in {resume_from}")
            history, resume = restore_training_state(
                load_checkpoint(path),
                model=self.model,
                optimizer=self.optimizer,
                loaders=self._loaders,
                config=self.config,
                scheduler=engine.scheduler,
                early_stopping=engine.early_stopper,
            )
            if resume.next_epoch >= self.config.num_epochs:
                # The checkpoint already covers the full run; nothing to do.
                return history
        # The pipeline is built at fit time from the live loader dict so a
        # caller may swap loaders in between construction and training.
        pipeline = DataPipeline(self._loaders)
        if self.config.profile:
            profiler.reset()
            profiler.enable()
        try:
            engine.fit(pipeline, history=history, resume=resume)
        finally:
            # The profiler installs process-wide engine hooks; they must come
            # off even when training is interrupted mid-epoch.
            if self.config.profile:
                history.profile_report = profiler.report()
                profiler.disable()

        if history.best_state is not None:
            self.model.load_state_dict(history.best_state)
            self.model.invalidate_cache()
        return history

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, subset: str = "test") -> Dict[str, Dict[str, float]]:
        """Evaluate both domains with the 1 + N ranking protocol."""
        self.model.prepare_for_evaluation()
        results: Dict[str, Dict[str, float]] = {}
        for key in DOMAIN_KEYS:
            split = self.task.domain(key).split
            if split.num_eval_users == 0:
                continue
            evaluator = RankingEvaluator(
                split,
                key,
                num_negatives=self.config.num_eval_negatives,
                subset=subset,
                rng=np.random.default_rng(self._eval_rng_seed),
            )
            results[key] = evaluator.evaluate(self.model)
        return results
