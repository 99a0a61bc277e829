"""Staged training engine: DataPipeline → PlanSchedule → StepExecutor.

The engine decomposes the historical monolithic trainer loop into three
independently testable stages wired by callbacks:

* a :class:`~repro.data.pipeline.DataPipeline` supplies joint per-step batch
  dicts, produced on demand on the training thread;
* in sampled-subgraph training the model's incremental
  :class:`~repro.core.plan_schedule.PlanSchedule` turns a step's batches
  into a subgraph plan — the engine only signals epoch boundaries through
  the model's optional ``on_epoch_start`` hook;
* a :class:`StepExecutor` runs the optimisation step (forward, backward,
  clip, update, cache invalidation).  The sharded executor of
  :mod:`repro.core.sharded` replaces this object without touching the loop.

Cross-cutting concerns — early stopping, learning-rate scheduling, custom
monitoring — plug in as :class:`Callback` objects instead of branches inside
the loop.  With the default configuration (serial executor, no scheduler)
the engine replays the historical loop exactly: same rng consumption, same
step order, same histories under a fixed seed.

Timing is recorded per stage so benchmarks stop under-reporting wall cost:
``step_seconds_total`` is the pure optimisation time (the historical
``train_seconds_per_batch`` numerator) and ``data_prep_seconds_total`` is
the batch materialisation cost the loop stood still for.  Both, like
``fit_wall_seconds`` and ``num_batches``, carry on across a checkpoint
resume and across ``fit`` calls that share one history.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..data.pipeline import DataPipeline
from ..optim import Optimizer, build_scheduler, clip_grad_norm
from ..profiling import profiler
from .config import TrainerConfig
from .task import DOMAIN_KEYS

__all__ = [
    "TrainingHistory",
    "EngineContext",
    "Callback",
    "EarlyStoppingCallback",
    "LRSchedulerCallback",
    "StepExecutor",
    "TrainingEngine",
]


@dataclass
class TrainingHistory:
    """Per-epoch records collected during a :meth:`TrainingEngine.fit` run."""

    epoch_losses: List[float] = field(default_factory=list)
    validation_metrics: List[Dict[str, Dict[str, float]]] = field(default_factory=list)
    best_epoch: int = -1
    best_validation_score: float = -np.inf
    train_seconds_per_batch: float = 0.0
    num_batches: int = 0
    best_state: Optional[Dict[str, np.ndarray]] = None
    #: Phase/op report collected when ``TrainerConfig.profile`` is set.
    profile_report: Optional[str] = None
    #: Pure optimisation time summed over steps (forward/backward/update).
    step_seconds_total: float = 0.0
    #: Batch preparation time (materialisation, negatives, slicing).
    data_prep_seconds_total: float = 0.0
    #: Wall-clock duration of the fit loop (summed over resumed runs).
    fit_wall_seconds: float = 0.0
    #: Per-epoch wall-clock durations (data + step + bookkeeping).
    epoch_wall_seconds: List[float] = field(default_factory=list)
    #: Learning rate in effect at the start of each epoch.
    learning_rates: List[float] = field(default_factory=list)
    #: Fault-tolerance counters, filled by the supervised sharded executor:
    #: how many shard workers died / hit their step deadline, how many were
    #: respawned, and how many times the executor degraded to fewer shards.
    worker_deaths: int = 0
    worker_timeouts: int = 0
    worker_respawns: int = 0
    executor_degradations: int = 0
    #: Checkpoints written during this run, and the newest file's path.
    checkpoints_written: int = 0
    last_checkpoint: Optional[str] = None
    #: Path of the checkpoint this history was restored from (resume runs).
    resumed_from: Optional[str] = None

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")

    @property
    def data_seconds_per_batch(self) -> float:
        """Data-prep cost per executed step (0 when nothing ran)."""
        return self.data_prep_seconds_total / self.num_batches if self.num_batches else 0.0


@dataclass
class EngineContext:
    """Mutable state shared between the engine loop and its callbacks."""

    model: object
    optimizer: Optimizer
    config: TrainerConfig
    history: TrainingHistory
    epoch: int = 0
    stop_requested: bool = False
    #: The data pipeline driving the current fit (checkpoint callbacks read
    #: its per-epoch loader-rng snapshots).
    pipeline: Optional[DataPipeline] = None
    #: The :class:`~repro.core.checkpoint.ResumeState` this fit restarted
    #: from (``None`` for a fresh run).
    resume: Optional[object] = None

    def request_stop(self) -> None:
        """Ask the engine to stop after the current epoch's bookkeeping."""
        self.stop_requested = True


class Callback:
    """Hook points around the engine loop; subclass and override what you need.

    All methods are no-ops by default.  Callbacks must not mutate the batch
    stream; they may read/write the history and call
    :meth:`EngineContext.request_stop`.
    """

    def on_fit_start(self, context: EngineContext) -> None: ...

    def on_epoch_start(self, context: EngineContext, epoch: int) -> None: ...

    def on_step_end(self, context: EngineContext, step: int, loss: float) -> None: ...

    def on_epoch_end(
        self,
        context: EngineContext,
        epoch: int,
        epoch_loss: float,
    ) -> None: ...

    def on_evaluation(
        self, context: EngineContext, epoch: int, metrics: Dict[str, Dict[str, float]]
    ) -> None: ...

    def on_epoch_complete(self, context: EngineContext, epoch: int) -> None:
        """After *all* of an epoch's bookkeeping — loss recording, epoch-end
        callbacks and evaluation — so state snapshotted here (checkpoints)
        matches a consistent epoch boundary."""

    def on_fit_end(self, context: EngineContext) -> None: ...


class EarlyStoppingCallback(Callback):
    """Track the best validation score and stop after ``patience`` flat evals.

    Replicates the historical trainer semantics: the best state is snapshotted
    whenever the mean ``ndcg@10`` over the evaluated domains improves
    (regardless of patience), and training stops once ``patience`` consecutive
    evaluations fail to improve (``patience=None`` never stops).
    """

    def __init__(self, patience: Optional[int] = None) -> None:
        self.patience = patience
        self.evals_without_improvement = 0

    def on_evaluation(self, context, epoch, metrics) -> None:
        history = context.history
        score = float(
            np.mean([metrics[key]["ndcg@10"] for key in DOMAIN_KEYS if key in metrics])
        )
        if score > history.best_validation_score:
            history.best_validation_score = score
            history.best_epoch = epoch
            history.best_state = context.model.state_dict()
            self.evals_without_improvement = 0
        else:
            self.evals_without_improvement += 1
            if self.patience is not None and self.evals_without_improvement >= self.patience:
                context.request_stop()


class LRSchedulerCallback(Callback):
    """Advance a learning-rate scheduler once per epoch."""

    def __init__(self, scheduler) -> None:
        self.scheduler = scheduler

    def on_epoch_end(self, context, epoch, epoch_loss) -> None:
        self.scheduler.step()


class StepExecutor:
    """Run one optimisation step; swap this out for sharded execution.

    The executor owns everything between receiving a step's batches and the
    updated parameters: zero-grad, forward, backward, clipping, the optimiser
    update and the model's cache invalidation.

    With ``traced=True`` the forward+backward of each step is recorded once
    per section key (model structure × present domains × engine dtype) into
    a flat replay program and replayed on subsequent steps — see
    :mod:`repro.tensor.trace`.  Guarded replay is bit-identical to eager
    execution; the optimiser update always runs eagerly.
    """

    def __init__(
        self,
        model,
        optimizer: Optimizer,
        grad_clip_norm: Optional[float] = None,
        traced: bool = False,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.grad_clip_norm = grad_clip_norm
        self.traced = bool(traced)
        self.trace_stats: Optional[Dict] = None
        self._trace_runtime = None

    def open(self) -> None:
        if not self.traced or self._trace_runtime is not None:
            return
        from ..tensor import trace

        trace.check_traceable(self.model)
        self._trace_runtime = trace.TraceRuntime()
        self._trace_runtime.install()

    def close(self) -> None:
        runtime = self._trace_runtime
        if runtime is None:
            return
        self.trace_stats = dict(runtime.stats.as_dict(), arena=runtime.arena.as_dict())
        profiler.record_section("trace", self.trace_stats)
        runtime.uninstall()
        self._trace_runtime = None

    def _forward_backward(self, batches) -> float:
        with profiler.scope("train/forward"):
            loss = self.model.compute_batch_loss(batches)
        with profiler.scope("train/backward"):
            loss.backward()
        return float(loss.item())

    def run_step(self, batches) -> float:
        """Execute one training step and return the scalar loss."""
        self.optimizer.zero_grad()
        runtime = self._trace_runtime
        if runtime is None:
            loss_value = self._forward_backward(batches)
        else:
            from ..tensor import engine as tensor_engine
            from ..tensor.trace import model_rng_sources, model_trace_signature

            key = (
                "step",
                model_trace_signature(self.model),
                tuple(
                    sorted(
                        key
                        for key, batch in batches.items()
                        if batch is not None and len(batch) > 0
                    )
                ),
                tensor_engine.get_dtype().str,
            )
            loss_value = runtime.run_section(
                key,
                lambda: self._forward_backward(batches),
                rng_sources=model_rng_sources(self.model),
            )
        with profiler.scope("train/optimizer"):
            if self.grad_clip_norm is not None:
                clip_grad_norm(self.model.parameters(), self.grad_clip_norm)
            self.optimizer.step()
        self.model.invalidate_cache()
        return loss_value


class TrainingEngine:
    """Drive pipeline → plans → executor for ``config.num_epochs`` epochs."""

    def __init__(
        self,
        model,
        optimizer: Optimizer,
        config: TrainerConfig,
        evaluate_fn: Optional[Callable[[], Dict[str, Dict[str, float]]]] = None,
        executor: Optional[StepExecutor] = None,
        callbacks: Sequence[Callback] = (),
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.config = config
        self.evaluate_fn = evaluate_fn
        self.executor = executor or StepExecutor(
            model,
            optimizer,
            grad_clip_norm=config.grad_clip_norm,
            traced=config.traced_steps,
        )
        self.callbacks: List[Callback] = []
        if config.eval_every and evaluate_fn is not None:
            self.callbacks.append(EarlyStoppingCallback(config.early_stopping_patience))
        scheduler = build_scheduler(
            config.lr_scheduler,
            optimizer,
            step_size=config.lr_step_size,
            gamma=config.lr_gamma,
        )
        if scheduler is not None:
            self.callbacks.append(LRSchedulerCallback(scheduler))
        self.callbacks.extend(callbacks)
        if config.checkpoint_dir:
            from .checkpoint import CheckpointCallback

            self.callbacks.append(CheckpointCallback(self))

    @property
    def scheduler(self):
        """The LR scheduler driven by this engine's callbacks (or ``None``)."""
        for callback in self.callbacks:
            if isinstance(callback, LRSchedulerCallback):
                return callback.scheduler
        return None

    @property
    def early_stopper(self) -> Optional[EarlyStoppingCallback]:
        """The early-stopping callback, when evaluation is configured."""
        for callback in self.callbacks:
            if isinstance(callback, EarlyStoppingCallback):
                return callback
        return None

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def fit(
        self,
        pipeline: DataPipeline,
        history: Optional[TrainingHistory] = None,
        max_steps: Optional[int] = None,
        resume=None,
    ) -> TrainingHistory:
        """Run the training loop over the pipeline's epochs.

        ``max_steps`` caps the total number of executed steps (profiling and
        smoke runs); the loop stops cleanly once it is reached.  The
        executor is always closed on exit — normal return, early stop or
        exception — so no worker process outlives this call.

        ``resume`` (a :class:`~repro.core.checkpoint.ResumeState`, paired
        with a ``history`` restored by the checkpoint module) continues a
        checkpointed run: the loop enters at ``resume.next_epoch``, replays
        the epoch's already-trained step prefix without executing it (the
        restored loader rng regenerates the identical batch stream), and
        carries the checkpointed partial epoch-loss sum — the completed run
        is bit-identical to one that was never interrupted.  This call's
        data-prep and wall time are added to the restored history's totals.
        """
        history = history if history is not None else TrainingHistory()
        context = EngineContext(
            model=self.model,
            optimizer=self.optimizer,
            config=self.config,
            history=history,
            pipeline=pipeline,
            resume=resume,
        )
        config = self.config
        fit_started = time.perf_counter()
        total_steps = resume.total_steps if resume is not None else 0
        start_epoch = resume.next_epoch if resume is not None else 0
        prep_before = history.data_prep_seconds_total
        wall_before = history.fit_wall_seconds

        def record_totals() -> None:
            # Kept current before every callback that may write a checkpoint,
            # so a resumed run's totals cover the time of both processes.
            history.data_prep_seconds_total = prep_before + pipeline.prep_seconds
            history.fit_wall_seconds = wall_before + (time.perf_counter() - fit_started)

        try:
            # Executors with external resources (the sharded executor's
            # worker processes) open inside this try, so a failing open or
            # on_fit_start callback still reaches the executor close below.
            executor_open = getattr(self.executor, "open", None)
            if callable(executor_open):
                executor_open()
            for callback in self.callbacks:
                callback.on_fit_start(context)
            for epoch in range(start_epoch, config.num_epochs):
                context.epoch = epoch
                # A mid-epoch resume re-enters the epoch the killed run
                # was in: its learning-rate entry is already in the
                # restored history, and the already-trained step prefix
                # is replayed (batches discarded) instead of re-run.
                resuming_mid_epoch = (
                    resume is not None
                    and epoch == resume.next_epoch
                    and resume.steps_into_epoch > 0
                )
                if not resuming_mid_epoch:
                    history.learning_rates.append(self.optimizer.lr)
                epoch_started = time.perf_counter()
                self.model.on_epoch_start(epoch)
                for callback in self.callbacks:
                    callback.on_epoch_start(context, epoch)

                epoch_loss = resume.epoch_loss if resuming_mid_epoch else 0.0
                epoch_steps = resume.steps_into_epoch if resuming_mid_epoch else 0
                epoch_truncated = False
                steps = pipeline.epoch()
                for _ in range(resume.steps_into_epoch if resuming_mid_epoch else 0):
                    if next(steps, None) is None:
                        raise RuntimeError(
                            "resume position beyond the epoch's step count; "
                            "the checkpoint does not match this data pipeline"
                        )
                while True:
                    with profiler.scope("data/wait"):
                        batches = next(steps, None)
                    if batches is None:
                        break
                    step_started = time.perf_counter()
                    loss = self.executor.run_step(batches)
                    history.step_seconds_total += time.perf_counter() - step_started
                    epoch_loss += loss
                    epoch_steps += 1
                    total_steps += 1
                    # Like the time totals, the count adds this call's steps
                    # to what the history holds (a resumed history holds its
                    # checkpoint's step position).
                    history.num_batches += 1
                    record_totals()
                    for callback in self.callbacks:
                        callback.on_step_end(context, total_steps, loss)
                    if max_steps is not None and total_steps >= max_steps:
                        context.request_stop()
                        epoch_truncated = True
                        break

                history.epoch_wall_seconds.append(
                    time.perf_counter() - epoch_started,
                )
                if epoch_truncated:
                    # A max_steps cap cut the epoch short: recording a
                    # partial mean as an epoch loss (or advancing the LR
                    # scheduler / evaluating) would misrepresent a
                    # fraction of an epoch as a completed one.
                    break
                mean_loss = epoch_loss / max(epoch_steps, 1)
                history.epoch_losses.append(mean_loss)
                if config.verbose:
                    print(
                        f"[{type(self.model).__name__}] epoch {epoch + 1}/"
                        f"{config.num_epochs} loss={mean_loss:.4f}"
                    )
                for callback in self.callbacks:
                    callback.on_epoch_end(context, epoch, mean_loss)

                if (
                    config.eval_every
                    and self.evaluate_fn is not None
                    and (epoch + 1) % config.eval_every == 0
                ):
                    metrics = self.evaluate_fn()
                    history.validation_metrics.append(metrics)
                    for callback in self.callbacks:
                        callback.on_evaluation(context, epoch, metrics)

                record_totals()
                for callback in self.callbacks:
                    callback.on_epoch_complete(context, epoch)

                if context.stop_requested:
                    break
        finally:
            # Symmetric to the eager open above: whatever path exits the
            # loop — normal return, early stop, executor crash — no worker
            # process may outlive fit() (close() is idempotent, so an
            # executor that already tore itself down is fine).
            executor_close = getattr(self.executor, "close", None)
            if callable(executor_close):
                executor_close()
            fault_events = getattr(self.executor, "fault_events", None)
            if fault_events:
                history.worker_deaths += fault_events.get("deaths", 0)
                history.worker_timeouts += fault_events.get("timeouts", 0)
                history.worker_respawns += fault_events.get("respawns", 0)
                history.executor_degradations += fault_events.get("degradations", 0)
            record_totals()
            history.train_seconds_per_batch = history.step_seconds_total / max(
                history.num_batches, 1
            )
            for callback in self.callbacks:
                callback.on_fit_end(context)
        return history
