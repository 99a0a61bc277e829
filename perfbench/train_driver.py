"""One training process of a benchmark workload (run by ``perfbench/run.py``).

Modes:

* ``quality`` — NMCDR on ``cloth_sport``, serial executor, full graph,
  traced steps, validation and a checkpoint every epoch; stops at the first
  evaluation whose mean validation HR@10 over both domains reaches the
  target, then evaluates test on the restored best state.
* ``sampled`` — 1-hop fanout-8 sampled-subgraph training for a fixed number
  of steps, on the serial executor (``--phase serial``) or the pool-sharded
  executor over the shared-memory exchange plane (``--phase sharded``).

Everything goes through public entry points: ``build_run_components`` (the
resolver ``repro train`` uses), ``CDRTrainer``/``TrainerConfig`` and a
``Callback``.  ``--setup-only`` stops at the first step, so the caller can
time set-up in several fresh processes.  ``--trace 1`` wraps the public
calls of each layer in spans (see ``spans.py``); the result JSON goes to
``--result``.  After every step, and at launch and at the first step, the
driver runs the reference kernel of ``gauge.py`` on the CPU the work ran on
(in the sharded phase on each CPU) and reports CPU seconds scaled to the
reference speed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import signal
import struct
import sys
import time

import numpy as np

from repro.core import CDRTrainer, TrainerConfig
from repro.core.engine import Callback
from repro.profiling import profiler
from repro.serve import build_run_components

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gauge  # noqa: E402
from layers import install_training_spans  # noqa: E402
from procs import cpu_seconds, group_members  # noqa: E402
from spans import Tracer, breakdown  # noqa: E402

QUALITY = {"scale": 3.0, "batch_size": 256, "target_hr10": 0.65, "max_epochs": 15}
SAMPLED = {"scale": 6.0, "batch_size": 512, "hops": 1, "fanout": 8, "shards": 2}
WARMUP_STEPS = 5
#: Reference-kernel runs per set-up gauge (about 16 ms).
SETUP_GAUGE_RUNS = 20
#: Knobs that only choose between two equivalent implementations and are
#: slated for removal; the benchmark asks for the side that stays.
TWIN_KNOBS = ("scheduled_subgraph_plans", "pool_sharding", "shm_exchange")


class _Stop(Exception):
    """Raised from a callback to end ``fit`` early (set-up only, step cap)."""


def group_cpu() -> float:
    """CPU seconds of this process group: this process and the shard
    workers (and resource tracker) it forked."""
    return cpu_seconds(group_members(os.getpgrp()))


def _run_manifest(scale: float, batch_size: int, seed: int) -> dict:
    """The ``run.json`` settings ``repro train`` would write for this run."""
    return {
        "model": "NMCDR",
        "settings": {
            "scenario": "cloth_sport",
            "scale": scale,
            "overlap_ratio": 0.5,
            "embedding_dim": 32,
            "num_epochs": QUALITY["max_epochs"],
            "batch_size": batch_size,
            "num_eval_negatives": 99,
            "seed": seed,
        },
    }


def trainer_config(**wanted) -> TrainerConfig:
    """A ``TrainerConfig`` with every field of ``wanted``, except a twin knob
    that this version of ``TrainerConfig`` no longer has.

    Dropping a removed twin knob keeps the benchmark running unchanged after
    that removal; any other unknown field still fails loudly.
    """
    known = {field.name for field in dataclasses.fields(TrainerConfig)}
    return TrainerConfig(**{
        key: value for key, value in wanted.items() if key in known or key not in TWIN_KNOBS
    })


class Probe(Callback):
    """Step boundaries, losses, evaluations; opens the per-step root span."""

    def __init__(self, *, setup_only: bool, max_steps: int = 0, target: float = 0.0,
                 tracer: Tracer = None, gauge_cpus=None) -> None:
        self.setup_only = setup_only
        self.max_steps = max_steps
        self.target = target
        self.tracer = tracer
        self.ready = None
        self.fit_end = None
        #: Group CPU seconds of set-up, at the first step and at the end of
        #: the run.
        self.setup_cpu = None
        self.cpu_ready = None
        self.cpu_end = None
        #: The reference kernel (see ``gauge.py``) runs after every step on
        #: this thread's CPU, or on each of ``gauge_cpus``: CPU seconds per
        #: run, and the wall seconds all the runs took.
        self.gauge_cpus = gauge_cpus
        self.gauge_cpu = []
        self.gauge_wall = 0.0
        #: Set-up gauge: taken at launch (``main``) and at the first step.
        self.setup_gauge = gauge.runs(None, SETUP_GAUGE_RUNS)
        self.last = None
        self.walls = []
        self.losses = []
        self.evaluations = []
        self.reached_epoch = None
        self._span = None

    def _open_step(self) -> None:
        if self.tracer is not None:
            self._span = self.tracer.open("step")

    def on_epoch_start(self, context, epoch) -> None:
        now = time.monotonic()
        if self.ready is None:
            self.ready = now
            # The launch gauge ran in set-up; its CPU is not set-up's.
            self.setup_cpu = group_cpu() - sum(self.setup_gauge)
            self.setup_gauge += gauge.runs(None, SETUP_GAUGE_RUNS)
            if self.setup_only:
                raise _Stop
            self.cpu_ready = group_cpu()
            now = time.monotonic()
            self.gauge_wall = now - self.ready
        self.last = now
        self._open_step()

    def on_step_end(self, context, step, loss) -> None:
        now = time.monotonic()
        if self._span is not None:
            self.tracer.close(self._span)
        self.walls.append(now - self.last)
        self.losses.append(float(loss))
        # The kernel's time belongs to neither this step nor the next.
        self.gauge_cpu += gauge.runs(self.gauge_cpus, 1)
        self.last = time.monotonic()
        self.gauge_wall += self.last - now
        if self.max_steps and step >= self.max_steps:
            self.cpu_end = group_cpu()
            raise _Stop
        self._open_step()

    def on_epoch_end(self, context, epoch, epoch_loss) -> None:
        # The span opened after the epoch's last step only saw the data
        # pipeline report exhaustion.
        if self.tracer is not None:
            self.tracer.discard_open("step")
        self._span = None

    def on_evaluation(self, context, epoch, metrics) -> None:
        hr10 = float(np.mean([metrics[key]["hr@10"] for key in metrics]))
        self.evaluations.append({"epoch": epoch, "hr10": hr10, "t": time.monotonic()})
        if self.reached_epoch is None and hr10 >= self.target:
            self.reached_epoch = epoch
            context.request_stop()

    def on_fit_end(self, context) -> None:
        self.fit_end = time.monotonic()
        # After a step cap the executor is closed by now and its workers'
        # CPU is gone from the group: keep the reading taken at the cap.
        if self.cpu_end is None:
            self.cpu_end = group_cpu()


def rows_trained(task, config, steps: int) -> int:
    """Examples (positives and negatives, both domains) in the first ``steps``."""
    totals = [
        task.domain(key).split.num_train * (1 + config.negatives_per_positive)
        for key in ("a", "b")
    ]
    per_epoch = max(-(-total // config.batch_size) for total in totals)
    epochs, remainder = divmod(steps, per_epoch)
    return sum(epochs * total + min(remainder * config.batch_size, total) for total in totals)


def loss_digest(losses) -> str:
    return hashlib.sha256(b"".join(struct.pack("<d", value) for value in losses)).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("quality", "sampled"), required=True)
    parser.add_argument("--phase", choices=("serial", "sharded"), default="serial")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--steps", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    # A polite stop from the benchmark (SIGINT, or SIGTERM to the group)
    # unwinds through fit's finally, which closes the executor: workers are
    # joined and shared memory is unlinked before the process exits.
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    tracer = Tracer() if args.trace else None
    counters = {"plan_nodes": 0}
    if tracer is not None:
        install_training_spans(tracer, counters)

    if args.mode == "quality":
        run = _run_manifest(QUALITY["scale"], QUALITY["batch_size"], args.seed)
        checkpoint_dir = os.path.join(args.workdir, "checkpoints")
        config = trainer_config(
            num_epochs=QUALITY["max_epochs"],
            batch_size=QUALITY["batch_size"],
            num_eval_negatives=99,
            eval_every=1,
            seed=args.seed,
            executor="serial",
            traced_steps=True,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=1,
        )
        probe = Probe(setup_only=args.setup_only, target=QUALITY["target_hr10"], tracer=tracer)
    else:
        run = _run_manifest(SAMPLED["scale"], SAMPLED["batch_size"], args.seed)
        sharded = args.phase == "sharded"
        config = trainer_config(
            num_epochs=100,
            batch_size=SAMPLED["batch_size"],
            eval_every=0,
            seed=args.seed,
            sampled_subgraph_training=True,
            subgraph_num_hops=SAMPLED["hops"],
            subgraph_fanout=SAMPLED["fanout"],
            scheduled_subgraph_plans=True,
            executor="sharded" if sharded else "serial",
            n_shards=SAMPLED["shards"] if sharded else 1,
            pool_sharding=sharded,
            shm_exchange=True,
        )
        # The shard workers run on every CPU: gauge each of them.
        probe = Probe(setup_only=args.setup_only, max_steps=args.steps, tracer=tracer,
                      gauge_cpus=sorted(os.sched_getaffinity(0)) if sharded else None)
        if tracer is not None and sharded:
            # Only for the parent's existing ``train/shard_wait`` scope.
            profiler.reset()
            profiler.enable()

    model, task, _settings = build_run_components(run)
    trainer = CDRTrainer(model, task, config, callbacks=[probe])
    try:
        trainer.fit()
    except _Stop:
        pass
    finally:
        profiler.disable()

    result = {"mode": args.mode, "phase": args.phase, "seed": args.seed,
              "setup_s": probe.ready - args.launched,
              "setup_cpu_s": gauge.scaled(probe.setup_cpu, probe.setup_gauge)}
    if not args.setup_only:
        steps = len(probe.losses)
        rows = rows_trained(task, config, steps)
        # Left out: the sampled warm-up, or the step that records the trace.
        skip = WARMUP_STEPS if args.mode == "sampled" else 1
        timed = probe.walls[skip:]
        raw_cpu = probe.cpu_end - probe.cpu_ready - sum(probe.gauge_cpu)
        sections = profiler.as_dict()
        trace_stats = sections.get("trace") or {}
        result.update(
            steps=steps,
            step_walls_s=timed,
            loop_wall_s=float(sum(probe.walls)),
            # First step to the step cap (sampled) or to the end of the fit,
            # without the gauge runs, at the reference speed.
            run_cpu_s=gauge.scaled(raw_cpu, probe.gauge_cpu),
            raw_run_cpu_s=raw_cpu,
            rows=rows,
            losses=probe.losses,
            loss_digest=loss_digest(probe.losses),
            warmup_digest=loss_digest(probe.losses[:WARMUP_STEPS]),
            trace_hit_rate=trace_stats.get("hit_rate", 0.0),
            trace_fallbacks=trace_stats.get("fallbacks", 0),
            respawns=(sections.get("faults") or {}).get("respawns", 0),
        )
        if args.mode == "quality":
            result.update(
                reached_epoch=probe.reached_epoch,
                epochs=len(probe.evaluations),
                time_to_quality_s=probe.fit_end - probe.ready - probe.gauge_wall,
                validation=probe.evaluations,
            )
            if probe.reached_epoch is not None:
                test = trainer.evaluate(subset="test")
                result["test_hr10"] = float(np.mean([m["hr@10"] for m in test.values()]))
                result["test_ndcg10"] = float(np.mean([m["ndcg@10"] for m in test.values()]))
            saved = sorted(os.listdir(checkpoint_dir))
            if saved:
                newest = os.path.join(checkpoint_dir, saved[-1])
                result["checkpoint_mb"] = os.path.getsize(newest) / 2**20
        comms = sections.get("comms") or {}
        rounds = [entry for entry in comms.values() if isinstance(entry, dict)]
        result["comms"] = {
            "shm_bytes": sum(entry["shm_bytes"] for entry in rounds),
            "pipe_bytes": sum(entry["pipe_bytes"] for entry in rounds),
            "messages": sum(entry["messages"] for entry in rounds),
            "pack_s": sum(entry["pack_s"] + entry["unpack_s"] for entry in rounds),
            "grows": comms.get("grows", 0),
        }
        if tracer is not None:
            result["spans"] = span_summary(tracer, counters, sections)
            if args.spans:
                tracer.dump(args.spans)
    if tracer is not None:
        tracer.unwrap_all()
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


def span_summary(tracer: Tracer, counters: dict, sections: dict) -> dict:
    """Per-step breakdown plus per-call totals for spans outside steps."""
    steps = breakdown(tracer, "step")
    totals = {}
    for name in ("eval", "eval.forward", "eval.rank", "checkpoint.save", "sharded.open",
                 "setup.dataset", "setup.model"):
        durations = tracer.durations(name)
        totals[name] = {"count": len(durations), "total_s": float(sum(durations))}
    run_steps = tracer.durations("sharded.run_step") or tracer.durations("engine.run_step")
    run_steps = run_steps[WARMUP_STEPS:]
    shard_wait = (sections.get("scopes") or {}).get("train/shard_wait", {})
    return {
        "step": steps,
        "calls": totals,
        "run_step_s": run_steps,
        "plan_nodes": counters["plan_nodes"],
        "shard_wait_s": shard_wait.get("seconds", 0.0),
    }


if __name__ == "__main__":
    raise SystemExit(main())
