"""Which public calls of the program map to which layer span.

The one place that knows the program's module layout: the training and
serving drivers call these installers before they build anything, so set-up
is traced too.  Span names are the per-layer metric prefixes reported by
``run.py`` (``data.next``, ``plan.build``, ``nmcdr.encoder`` …).
"""

from __future__ import annotations

import json
import types

from spans import Tracer

#: The paper's stage modules, one span each (eager forwards only: a replayed
#: traced step never calls them).
STAGE_SPANS = {
    "HeterogeneousGraphEncoder": "nmcdr.encoder",
    "IntraNodeMatching": "nmcdr.intra",
    "InterNodeMatching": "nmcdr.inter",
    "IntraNodeComplementing": "nmcdr.complement",
    "PredictionHead": "nmcdr.head",
}


def _install_common(tracer: Tracer) -> None:
    import repro.baselines
    import repro.core
    import repro.experiments.runner

    tracer.wrap(repro.experiments.runner, "prepare_dataset", "setup.dataset")
    tracer.wrap(repro.baselines, "build_model", "setup.model")
    for cls_name, span in STAGE_SPANS.items():
        tracer.wrap(getattr(repro.core, cls_name), "forward", span)


def install_training_spans(tracer: Tracer, counters: dict) -> None:
    """Wrap the public calls of every training layer."""
    from repro.core import NMCDR, CDRTrainer, PlanSchedule, ShardedStepExecutor
    from repro.core import checkpoint as checkpoint_module
    from repro.core import engine as engine_module
    from repro.core.engine import StepExecutor
    from repro.data.pipeline import SerialDataPipeline
    from repro.metrics.evaluator import RankingEvaluator
    from repro.optim import Optimizer
    from repro.tensor import Tensor
    from repro.tensor.trace import TraceRuntime

    def count_plan_nodes(plan, args, kwargs) -> None:
        for key in ("a", "b"):
            subgraph = plan.domain(key).subgraph
            if subgraph is not None:
                counters["plan_nodes"] += len(subgraph.user_ids) + len(subgraph.item_ids)

    _install_common(tracer)
    tracer.wrap_iterator(SerialDataPipeline, "epoch", "data.next")
    tracer.wrap(PlanSchedule, "plan_for", "plan.build", on_result=count_plan_nodes)
    tracer.wrap(NMCDR, "encode_representations", "nmcdr.encode")
    tracer.wrap(NMCDR, "match_representations", "nmcdr.match")
    tracer.wrap(NMCDR, "compute_batch_loss", "nmcdr.loss")
    tracer.wrap(Tensor, "backward", "tensor.backward")
    tracer.wrap(Optimizer, "step", "optim.step")
    tracer.wrap(engine_module, "clip_grad_norm", "optim.clip")
    tracer.wrap(StepExecutor, "run_step", "engine.run_step")
    tracer.wrap(TraceRuntime, "run_section", "trace.replay")
    tracer.wrap(CDRTrainer, "evaluate", "eval")
    tracer.wrap(NMCDR, "prepare_for_evaluation", "eval.forward")
    tracer.wrap(RankingEvaluator, "evaluate", "eval.rank")
    tracer.wrap(checkpoint_module, "save_checkpoint", "checkpoint.save")
    tracer.wrap(ShardedStepExecutor, "open", "sharded.open")
    tracer.wrap(ShardedStepExecutor, "run_step", "sharded.run_step")
    tracer.wrap(NMCDR, "sample_step_pools", "sharded.pool_sample")


def install_serving_spans(tracer: Tracer, counters: dict) -> None:
    """Wrap the public calls of the serving layers."""
    from repro.core import NMCDR
    from repro.serve import reload as reload_module
    from repro.serve import scorer as scorer_module
    from repro.serve import service as service_module
    from repro.serve.health import ErrorResponse
    from repro.serve.reload import CheckpointWatcher, HotReloader
    from repro.serve.scorer import ScoreRequest, ScoreResponse, Scorer
    from repro.serve.store import RepresentationStore

    def count_pairs(scores, args, kwargs) -> None:
        # Canary slates inside a reload are reload work, not request work.
        if not tracer.inside("reload"):
            counters["pairs"] += len(scores)

    def count_reload(result, args, kwargs) -> None:
        counters["swapped" if result.swapped else "rejected"] += 1

    _install_common(tracer)
    tracer.wrap(RepresentationStore, "build", "store.build")
    tracer.wrap(service_module, "load_checkpoint", "checkpoint.load")
    tracer.wrap(reload_module, "load_checkpoint", "checkpoint.load")
    tracer.wrap(CheckpointWatcher, "poll", "reload.poll")
    tracer.wrap(HotReloader, "reload", "reload", on_result=count_reload)
    # The canary gate has no public entry; skip it if it is renamed.
    if hasattr(HotReloader, "_canary"):
        tracer.wrap(HotReloader, "_canary", "reload.canary")
    tracer.wrap(ScoreRequest, "from_json", "serve.parse")
    tracer.wrap(Scorer, "score_batch", "serve.score")
    tracer.wrap(NMCDR, "score_pairs", "serve.head", on_result=count_pairs)
    tracer.wrap(scorer_module, "exact_top_k", "serve.topk")
    tracer.wrap(ScoreResponse, "to_json", "serve.serialize")
    tracer.wrap(ErrorResponse, "to_json", "serve.serialize")
    # The loop's JSON codec: a private stand-in for the ``json`` module the
    # service module imported, so only its calls are timed.
    codec = types.SimpleNamespace(loads=json.loads, dumps=json.dumps)
    tracer.wrap(codec, "loads", "serve.parse")
    tracer.wrap(codec, "dumps", "serve.serialize")
    tracer.wrap_value(service_module, "json", codec)
