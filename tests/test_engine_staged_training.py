"""Staged training engine: callbacks, executors, schedulers and equivalence.

The headline guarantees gated here:

* **Fixed-seed equivalence** — under the float64 default engine dtype, a
  fit replays another fit with the same seed, and sampled training over the
  incremental plans replays a run whose every step rebuilds its plan from
  scratch, for NMCDR and the graph baselines (GA-DTCDR, HeroGraph).
* **Hook surface** — early stopping, LR scheduling and arbitrary callbacks
  plug into the loop without touching it, and a custom ``StepExecutor`` can
  replace the optimisation step wholesale.
* **Timing accounting** — step time and data-prep time are recorded
  separately so efficiency numbers stop under-reporting wall cost.
"""

import numpy as np
import pytest

from repro.baselines import build_model
from repro.core import (
    Callback,
    CDRTrainer,
    NMCDR,
    NMCDRConfig,
    StepExecutor,
    TrainerConfig,
    build_task,
)
from repro.core.subgraph_plan import (
    build_subgraph_plan_from_pools,
    sample_matching_pools,
)
from repro.data import load_scenario
from repro.data.pipeline import DataPipeline
from repro.graph import SubgraphCache


def small_task(scale=0.3, seed=13):
    return build_task(
        load_scenario("cloth_sport", scale=scale, seed=seed),
        head_threshold=7,
    )


def build_for(name, task, seed=3):
    if name == "NMCDR":
        return NMCDR(task, NMCDRConfig(embedding_dim=16, seed=seed))
    return build_model(name, task, embedding_dim=16, seed=seed)


def fit_history(task, model_name, prepare_model=None, **config_overrides):
    config = TrainerConfig(
        num_epochs=3,
        batch_size=128,
        seed=11,
        eval_every=1,
        num_eval_negatives=20,
        **config_overrides,
    )
    trainer = CDRTrainer(build_for(model_name, task), task, config)
    if prepare_model is not None:
        prepare_model(trainer.model)
    return trainer.fit()


def rebuild_plans_every_step(model):
    """Per-step reference: swap the model's plan source for a from-scratch build.

    NMCDR draws every pool and builds each step's plan with
    :func:`build_subgraph_plan_from_pools` instead of the delta-updated
    ``PlanSchedule``; a graph baseline extracts each step's k-hop subgraph
    into a fresh cache, so no subgraph is reused across steps.  Returns the
    list the reference appends each plan (or subgraph) to, so the caller can
    check that it really ran.
    """
    built = []
    if isinstance(model, NMCDR):
        def per_step_plan(batches):
            intra_pools, inter_pools = sample_matching_pools(
                model.task, model.config, model._sampler
            )
            plan = build_subgraph_plan_from_pools(
                model.task,
                model.config,
                batches,
                intra_pools,
                inter_pools,
                model._subgraph_settings,
                model._subgraph_caches,
            )
            built.append(plan)
            return plan

        model.plan_schedule.plan_for = per_step_plan
    else:
        def per_step_subgraph(cache_key, graph, seed_users, seed_items):
            subgraph = SubgraphCache(1).get(
                graph,
                seed_users,
                seed_items,
                num_hops=model._subgraph_num_hops,
                fanout=model._subgraph_fanout,
            )
            built.append(subgraph)
            return subgraph

        model._subgraph_for = per_step_subgraph
    return built


@pytest.mark.slow
class TestFixedSeedEquivalence:
    """Float64 gate: same-seed fits, and incremental plans against per-step ones."""

    @pytest.mark.parametrize("model_name", ["NMCDR", "GA-DTCDR", "HeroGraph"])
    def test_fixed_seed_runs_are_reproducible(self, model_name):
        # Fresh models, trainers and loaders: no state carried between fits
        # (a global rng draw, a process-wide cache) may change the stream.
        task = small_task()
        first = fit_history(task, model_name)
        second = fit_history(task, model_name)
        assert first.epoch_losses == second.epoch_losses
        assert first.validation_metrics == second.validation_metrics

    @pytest.mark.parametrize("model_name", ["NMCDR", "GA-DTCDR", "HeroGraph"])
    def test_scheduled_plans_match_per_step(self, model_name):
        task = small_task()
        scheduled = fit_history(task, model_name, sampled_subgraph_training=True)
        rebuilt = []
        per_step = fit_history(
            task,
            model_name,
            prepare_model=lambda model: rebuilt.append(rebuild_plans_every_step(model)),
            sampled_subgraph_training=True,
        )
        (plans,) = rebuilt
        assert plans, "the per-step reference built no plan"
        assert per_step.epoch_losses == scheduled.epoch_losses
        assert per_step.validation_metrics == scheduled.validation_metrics


class TestLRSchedulerWiring:
    def test_step_scheduler_decays_per_config(self, tiny_task, tiny_nmcdr_config):
        config = TrainerConfig(
            num_epochs=4,
            batch_size=256,
            learning_rate=1e-2,
            eval_every=0,
            lr_scheduler="step",
            lr_step_size=2,
            lr_gamma=0.5,
        )
        trainer = CDRTrainer(NMCDR(tiny_task, tiny_nmcdr_config), tiny_task, config)
        history = trainer.fit()
        assert history.learning_rates == pytest.approx([1e-2, 1e-2, 5e-3, 5e-3])
        assert trainer.optimizer.lr == pytest.approx(5e-3 * 0.5)  # stepped after epoch 4

    def test_exponential_scheduler(self, tiny_task, tiny_nmcdr_config):
        config = TrainerConfig(
            num_epochs=3,
            batch_size=256,
            learning_rate=1e-2,
            eval_every=0,
            lr_scheduler="exponential",
            lr_gamma=0.9,
        )
        trainer = CDRTrainer(NMCDR(tiny_task, tiny_nmcdr_config), tiny_task, config)
        history = trainer.fit()
        assert history.learning_rates == pytest.approx([1e-2, 9e-3, 8.1e-3])

    def test_no_scheduler_keeps_rate_fixed(self, tiny_task, tiny_nmcdr_config):
        config = TrainerConfig(num_epochs=2, batch_size=256, eval_every=0)
        trainer = CDRTrainer(NMCDR(tiny_task, tiny_nmcdr_config), tiny_task, config)
        history = trainer.fit()
        assert history.learning_rates == [config.learning_rate] * 2

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="lr_scheduler"):
            TrainerConfig(lr_scheduler="cosine")
        from repro.optim import Adam, build_scheduler
        from repro.nn import Parameter

        optimizer = Adam([Parameter(np.zeros(1))], lr=1e-3)
        with pytest.raises(ValueError, match="unknown lr scheduler"):
            build_scheduler("cosine", optimizer)


class RecordingCallback(Callback):
    def __init__(self):
        self.events = []

    def on_fit_start(self, context):
        self.events.append("fit_start")

    def on_epoch_start(self, context, epoch):
        self.events.append(f"epoch_start:{epoch}")

    def on_step_end(self, context, step, loss):
        self.events.append(f"step:{step}")

    def on_epoch_end(self, context, epoch, epoch_loss):
        self.events.append(f"epoch_end:{epoch}")

    def on_evaluation(self, context, epoch, metrics):
        self.events.append(f"eval:{epoch}")

    def on_fit_end(self, context):
        self.events.append("fit_end")


class TestCallbacksAndExecutor:
    def test_callback_event_order(self, tiny_task, tiny_nmcdr_config):
        recorder = RecordingCallback()
        config = TrainerConfig(
            num_epochs=2, batch_size=512, eval_every=2, num_eval_negatives=10
        )
        trainer = CDRTrainer(
            NMCDR(tiny_task, tiny_nmcdr_config), tiny_task, config, callbacks=[recorder]
        )
        history = trainer.fit()
        events = recorder.events
        assert events[0] == "fit_start" and events[-1] == "fit_end"
        assert events.index("epoch_start:0") < events.index("epoch_end:0")
        assert events.index("epoch_end:0") < events.index("epoch_start:1")
        assert "eval:1" in events  # eval_every=2 fires after the second epoch
        steps = [event for event in events if event.startswith("step:")]
        assert len(steps) == history.num_batches

    def test_callback_can_request_stop(self, tiny_task, tiny_nmcdr_config):
        class StopAfterFirstEpoch(Callback):
            def on_epoch_end(self, context, epoch, epoch_loss):
                context.request_stop()

        config = TrainerConfig(num_epochs=10, batch_size=512, eval_every=0)
        trainer = CDRTrainer(
            NMCDR(tiny_task, tiny_nmcdr_config),
            tiny_task,
            config,
            callbacks=[StopAfterFirstEpoch()],
        )
        history = trainer.fit()
        assert len(history.epoch_losses) == 1

    def test_custom_executor_replaces_step(self, tiny_task, tiny_nmcdr_config):
        model = NMCDR(tiny_task, tiny_nmcdr_config)

        class CountingExecutor(StepExecutor):
            steps_run = 0

            def run_step(self, batches):
                type(self).steps_run += 1
                return super().run_step(batches)

        config = TrainerConfig(num_epochs=1, batch_size=256, eval_every=0)
        trainer = CDRTrainer(model, tiny_task, config)
        trainer._executor = CountingExecutor(
            model, trainer.optimizer, grad_clip_norm=config.grad_clip_norm
        )
        history = trainer.fit()
        assert CountingExecutor.steps_run == history.num_batches > 0

    def test_engine_max_steps_caps_run(self, tiny_task, tiny_nmcdr_config):
        trainer = CDRTrainer(
            NMCDR(tiny_task, tiny_nmcdr_config),
            tiny_task,
            TrainerConfig(num_epochs=5, batch_size=64, eval_every=0),
        )
        engine = trainer.build_engine()
        history = engine.fit(DataPipeline(trainer._loaders), max_steps=3)
        assert history.num_batches == 3


class TestTimingAccounting:
    def test_step_and_data_time_recorded_separately(self, tiny_task, tiny_nmcdr_config):
        trainer = CDRTrainer(
            NMCDR(tiny_task, tiny_nmcdr_config),
            tiny_task,
            TrainerConfig(num_epochs=2, batch_size=128, eval_every=0),
        )
        history = trainer.fit()
        assert history.step_seconds_total > 0
        assert history.data_prep_seconds_total > 0
        assert history.fit_wall_seconds >= history.step_seconds_total
        assert len(history.epoch_wall_seconds) == 2
        assert history.train_seconds_per_batch == pytest.approx(
            history.step_seconds_total / history.num_batches
        )
        assert history.data_seconds_per_batch == pytest.approx(
            history.data_prep_seconds_total / history.num_batches
        )
        # Step timing must exclude the data wall: the two sum to at most the
        # fit wall (plus bookkeeping).
        assert (
            history.step_seconds_total + history.data_prep_seconds_total
            <= history.fit_wall_seconds * 1.05 + 0.05
        )

    def test_runner_records_data_timing(self):
        from repro.experiments import ExperimentSettings
        from repro.experiments.runner import run_scenario

        settings = ExperimentSettings(
            scenario="cloth_sport", scale=0.3, num_epochs=1, num_eval_negatives=10, seed=3
        )
        result = run_scenario(settings, ["LR"])
        model_result = result.results["LR"]
        assert model_result.fit_wall_seconds > 0
        assert model_result.data_seconds_per_batch >= 0
