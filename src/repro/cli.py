"""Command-line interface for the reproduction experiments.

Usage::

    python -m repro.cli stats                      # Table I statistics
    python -m repro.cli overlap  --scenario cloth_sport --ratios 0.1 0.5 0.9
    python -m repro.cli density  --scenario loan_fund
    python -m repro.cli ablation --scenario phone_elec
    python -m repro.cli neighbors --scenario cloth_sport --values 8 32 128
    python -m repro.cli threshold --scenario cloth_sport --values 3 7 11
    python -m repro.cli online-ab --impressions 1500
    python -m repro.cli efficiency
    python -m repro.cli profile --profile-model NMCDR --batches 20
    python -m repro.cli train  --checkpoint-dir runs/demo --checkpoint-every 1
    python -m repro.cli resume --checkpoint-dir runs/demo
    python -m repro.cli serve  --checkpoint-dir runs/demo --requests reqs.jsonl

Every subcommand prints a table to stdout and, with ``--output DIR``, writes a
CSV export next to it.  These are the same code paths the benchmarks use; the
CLI exists so a downstream user can rerun any experiment without pytest.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional, Sequence

from .analysis import measure_efficiency
from .baselines import build_model
from .core import build_task
from .data import SCENARIO_NAMES, format_statistics_table, load_scenario, scenario_statistics
from .experiments import (
    ExperimentSettings,
    OnlineDomainSpec,
    run_ablation,
    run_density_sweep,
    run_head_threshold_sweep,
    run_matching_neighbors_sweep,
    run_online_ab,
    run_overlap_sweep,
)
from .experiments.ablation import ABLATION_MODEL_NAMES
from .experiments.figures import (
    density_sweep_to_csv,
    hyperparameter_sweep_to_csv,
    overlap_sweep_to_csv,
)
from .experiments.runner import prepare_dataset

__all__ = ["build_parser", "main"]

_DEFAULT_MODELS = ("LR", "PLE", "GA-DTCDR", "PTUPCDR", "NMCDR")


def _settings_from_args(args: argparse.Namespace) -> ExperimentSettings:
    return ExperimentSettings(
        scenario=args.scenario,
        scale=args.scale,
        num_epochs=args.epochs,
        num_eval_negatives=args.negatives,
        embedding_dim=args.embedding_dim,
        seed=args.seed,
    )


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default="cloth_sport", choices=SCENARIO_NAMES)
    parser.add_argument("--scale", type=float, default=0.6, help="dataset scale factor")
    parser.add_argument("--epochs", type=int, default=12)
    parser.add_argument("--negatives", type=int, default=99, help="evaluation negatives per positive")
    parser.add_argument("--embedding-dim", type=int, default=32)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--models", nargs="+", default=list(_DEFAULT_MODELS))
    parser.add_argument("--output", type=Path, default=None, help="directory for CSV exports")


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Step-execution flags shared by every command that runs the engine.

    Defined once so ``repro train``, ``repro profile`` (and any future
    engine-driving command) expose the identical executor surface;
    :func:`_execution_config_fields` is the single mapping from these flags
    to :class:`~repro.core.TrainerConfig` fields.
    """
    parser.add_argument(
        "--executor",
        choices=("serial", "sharded"),
        default="serial",
        help="step executor: in-process serial or the sharded data-parallel one",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        help="worker-process count for --executor sharded",
    )
    parser.add_argument(
        "--traced",
        action="store_true",
        help=(
            "record each step's autograd graph once per plan signature and "
            "replay it as a flat buffer program (requires dropout=0)"
        ),
    )


def _execution_config_fields(args: argparse.Namespace) -> dict:
    """TrainerConfig fields described by the shared execution flags."""
    return {
        "executor": args.executor,
        "n_shards": args.shards,
        "traced_steps": args.traced,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description="NMCDR reproduction experiments")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("stats", help="print Table-I style statistics for all scenarios")

    overlap = subparsers.add_parser("overlap", help="overlap-ratio sweep (Tables II-V)")
    _add_common_arguments(overlap)
    overlap.add_argument("--ratios", nargs="+", type=float, default=[0.1, 0.5, 0.9])

    density = subparsers.add_parser("density", help="data-density sweep (Table VI)")
    _add_common_arguments(density)
    density.add_argument("--ratios", nargs="+", type=float, default=[0.5, 1.0])
    density.add_argument("--overlap-ratio", type=float, default=0.5)

    ablation = subparsers.add_parser("ablation", help="component ablation (Table IX)")
    _add_common_arguments(ablation)
    ablation.add_argument("--overlap-ratio", type=float, default=0.5)

    neighbors = subparsers.add_parser("neighbors", help="matching-neighbour sweep (Fig. 3)")
    _add_common_arguments(neighbors)
    neighbors.add_argument("--values", nargs="+", type=int, default=[8, 32, 128])

    threshold = subparsers.add_parser("threshold", help="head/tail threshold sweep (Fig. 4)")
    _add_common_arguments(threshold)
    threshold.add_argument("--values", nargs="+", type=int, default=[3, 7, 11])

    online = subparsers.add_parser("online-ab", help="simulated online A/B test (Table VIII)")
    online.add_argument("--impressions", type=int, default=1500)
    online.add_argument("--epochs", type=int, default=10)
    online.add_argument("--embedding-dim", type=int, default=32)
    online.add_argument("--seed", type=int, default=11)
    online.add_argument(
        "--groups", nargs="+", default=["Control", "PLE", "DML", "NMCDR"],
        help="serving groups to simulate",
    )

    efficiency = subparsers.add_parser("efficiency", help="parameter/time accounting (Sec. III.B.6)")
    _add_common_arguments(efficiency)

    profile = subparsers.add_parser(
        "profile", help="per-phase and per-op cost breakdown of the training hot path"
    )
    _add_common_arguments(profile)
    profile.add_argument(
        "--profile-model", default="NMCDR", help="model to profile (any registry name)"
    )
    profile.add_argument("--batches", type=int, default=20, help="training steps to profile")
    profile.add_argument(
        "--no-instrument",
        action="store_true",
        help="skip per-op forward timing (lower overhead, phases/backward only)",
    )
    profile.add_argument(
        "--dtype",
        choices=("float64", "float32"),
        default="float64",
        help="engine dtype for the profiled run",
    )
    profile.add_argument(
        "--sampled",
        action="store_true",
        help="profile sampled-subgraph training (adds the plan/build phase)",
    )
    _add_execution_arguments(profile)

    train = subparsers.add_parser(
        "train",
        help="one fault-tolerant training run with checkpointing (resumable)",
    )
    train.add_argument("--scenario", default="cloth_sport", choices=SCENARIO_NAMES)
    train.add_argument("--scale", type=float, default=0.6, help="dataset scale factor")
    train.add_argument("--epochs", type=int, default=12)
    train.add_argument("--negatives", type=int, default=99)
    train.add_argument("--embedding-dim", type=int, default=32)
    train.add_argument("--seed", type=int, default=7)
    train.add_argument("--batch-size", type=int, default=256)
    train.add_argument("--eval-every", type=int, default=1)
    train.add_argument("--train-model", default="NMCDR", help="model registry name")
    _add_execution_arguments(train)
    train.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help="directory for checkpoints + run.json provenance (enables `repro resume`)",
    )
    train.add_argument("--checkpoint-every", type=int, default=1, help="epochs between checkpoints")
    train.add_argument(
        "--checkpoint-every-steps", type=int, default=0, help="steps between checkpoints (0 = off)"
    )
    train.add_argument(
        "--checkpoint-keep", type=int, default=3, help="retained checkpoints (0 = all)"
    )
    train.add_argument(
        "--worker-max-retries",
        type=int,
        default=0,
        help="respawn attempts per step before a dead/hung shard worker is fatal",
    )
    train.add_argument("--worker-retry-backoff", type=float, default=0.05)
    train.add_argument("--worker-step-timeout", type=float, default=600.0)
    train.add_argument(
        "--degrade-on-failure",
        action="store_true",
        help="after exhausted retries, rebuild at fewer shards instead of raising",
    )
    train.add_argument(
        "--faults",
        default=None,
        help="fault-injection spec string (REPRO_FAULTS grammar) for recovery drills",
    )

    resume = subparsers.add_parser(
        "resume",
        help="resume a killed `repro train` run from its newest checkpoint",
    )
    resume.add_argument(
        "--checkpoint-dir",
        type=Path,
        required=True,
        help="the directory `repro train --checkpoint-dir` wrote into",
    )
    resume.add_argument(
        "--from-checkpoint",
        type=Path,
        default=None,
        help="resume from this specific checkpoint file instead of the newest",
    )

    serve = subparsers.add_parser(
        "serve",
        help="answer top-K scoring requests from a trained checkpoint",
    )
    serve.add_argument(
        "--checkpoint-dir",
        type=Path,
        required=True,
        help="the directory `repro train --checkpoint-dir` wrote into",
    )
    serve.add_argument(
        "--from-checkpoint",
        type=Path,
        default=None,
        help="serve this specific checkpoint file instead of the newest",
    )
    serve.add_argument(
        "--requests",
        type=Path,
        default=None,
        help=(
            "JSONL request file for one-shot serving; omit to read a "
            "long-lived request loop from stdin"
        ),
    )
    serve.add_argument("--topk", type=int, default=10, help="default slate size")
    serve.add_argument(
        "--max-staleness",
        type=int,
        default=0,
        help="parameter updates the store may lag before reads raise",
    )
    serve.add_argument(
        "--micro-batch-size",
        type=int,
        default=8192,
        help="(user, item) pairs per prediction-head invocation",
    )
    serve.add_argument(
        "--store-dir",
        type=Path,
        default=None,
        help="also persist the built representation store into this directory",
    )
    serve.add_argument(
        "--final-params",
        action="store_true",
        help="serve the checkpoint's final parameters instead of the best state",
    )
    serve.add_argument(
        "--verify",
        action="store_true",
        help=(
            "recompute every response against full-model rescoring and fail "
            "on any divergence (the CI exactness smoke)"
        ),
    )
    serve.add_argument(
        "--watch",
        action="store_true",
        help=(
            "poll the checkpoint directory between requests and hot-swap "
            "newer checkpoints after validate-then-swap"
        ),
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help=(
            "default per-request deadline in milliseconds; expired requests "
            "answer with a typed deadline_exceeded error"
        ),
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        help=(
            "bounded admission queue size; requests beyond it are shed with "
            "a typed overload error instead of queueing unboundedly"
        ),
    )
    serve.add_argument(
        "--hard-staleness",
        type=int,
        default=None,
        help=(
            "staleness lag (parameter updates) up to which requests are "
            "served from the matching-module cold path; beyond it requests "
            "answer with a typed unavailable error"
        ),
    )
    serve.add_argument(
        "--health",
        action="store_true",
        help="print the ServeHealth snapshot (JSON) to stderr at exit",
    )
    serve.add_argument(
        "--strict",
        action="store_true",
        help=(
            "fail the process on the first malformed line or request error "
            "instead of answering with a typed error response"
        ),
    )

    return parser


def _csv_path(args: argparse.Namespace, name: str) -> Optional[Path]:
    if getattr(args, "output", None) is None:
        return None
    return Path(args.output) / f"{name}.csv"


def _command_stats(_: argparse.Namespace) -> str:
    stats = [scenario_statistics(load_scenario(name, scale=0.6)) for name in SCENARIO_NAMES]
    return format_statistics_table(stats)


def _command_overlap(args: argparse.Namespace) -> str:
    sweep = run_overlap_sweep(
        args.scenario,
        model_names=args.models,
        overlap_ratios=args.ratios,
        settings=_settings_from_args(args),
    )
    overlap_sweep_to_csv(sweep, _csv_path(args, f"overlap_{args.scenario}"))
    parts = [sweep.format_table("a"), "", sweep.format_table("b")]
    for key in ("a", "b"):
        parts.append(
            f"domain {key}: NMCDR win fraction {sweep.nmcdr_win_fraction(key):.2f}, "
            f"mean improvement {sweep.mean_improvement(key):.1f}%"
        )
    return "\n".join(parts)


def _command_density(args: argparse.Namespace) -> str:
    sweep = run_density_sweep(
        args.scenario,
        model_names=args.models,
        density_ratios=args.ratios,
        overlap_ratio=args.overlap_ratio,
        settings=_settings_from_args(args),
    )
    density_sweep_to_csv(sweep, _csv_path(args, f"density_{args.scenario}"))
    return "\n\n".join([sweep.format_table("a"), sweep.format_table("b")])


def _command_ablation(args: argparse.Namespace) -> str:
    ablation = run_ablation(
        args.scenario,
        overlap_ratio=args.overlap_ratio,
        settings=_settings_from_args(args),
        model_names=ABLATION_MODEL_NAMES,
    )
    return "\n\n".join([ablation.format_table("a"), ablation.format_table("b")])


def _command_neighbors(args: argparse.Namespace) -> str:
    sweep = run_matching_neighbors_sweep(
        args.scenario, neighbor_counts=args.values, settings=_settings_from_args(args)
    )
    hyperparameter_sweep_to_csv(sweep, _csv_path(args, f"fig3_{args.scenario}"))
    return sweep.format_table()


def _command_threshold(args: argparse.Namespace) -> str:
    sweep = run_head_threshold_sweep(
        args.scenario, thresholds=args.values, settings=_settings_from_args(args)
    )
    hyperparameter_sweep_to_csv(sweep, _csv_path(args, f"fig4_{args.scenario}"))
    return sweep.format_table()


def _command_online_ab(args: argparse.Namespace) -> str:
    result = run_online_ab(
        groups=tuple(args.groups),
        domain_specs=(
            OnlineDomainSpec("Loan", 300, 50, base_cvr=0.105),
            OnlineDomainSpec("Fund", 200, 40, base_cvr=0.061),
        ),
        impressions_per_domain=args.impressions,
        num_epochs=args.epochs,
        embedding_dim=args.embedding_dim,
        seed=args.seed,
    )
    return result.format_table()


def _command_efficiency(args: argparse.Namespace) -> str:
    settings = _settings_from_args(args)
    settings = ExperimentSettings(**{**settings.__dict__, "overlap_ratio": 0.5})
    dataset = prepare_dataset(settings)
    task = build_task(dataset, head_threshold=settings.head_threshold)
    lines = [f"{'model':<12}{'parameters':>14}{'train s/batch':>16}{'test s/batch':>15}"]
    for name in args.models:
        model = build_model(name, task, embedding_dim=settings.embedding_dim, seed=settings.seed)
        report = measure_efficiency(model, task, batch_size=settings.batch_size)
        lines.append(
            f"{name:<12}{report.num_parameters:>14}"
            f"{report.train_seconds_per_batch:>16.5f}{report.test_seconds_per_batch:>15.5f}"
        )
    return "\n".join(lines)


def _command_profile(args: argparse.Namespace) -> str:
    """Per-stage (data/plan/step) and per-op breakdown through the engine.

    The profiled loop is the real staged engine — DataPipeline → the
    incremental plan schedule (``--sampled``) → StepExecutor — so the scope
    rows mirror production phase structure: ``data/wait``, ``plan/build``
    (sampled mode), ``train/forward`` / ``train/backward`` /
    ``train/optimizer``; sharded runs add the exchange plane's ``comms``
    section.
    """
    from .core import CDRTrainer, TrainerConfig
    from .data.pipeline import DataPipeline
    from .profiling import profile as profile_context, profiler
    from .tensor import engine

    settings = _settings_from_args(args)
    settings = ExperimentSettings(**{**settings.__dict__, "overlap_ratio": 0.5})
    dataset = prepare_dataset(settings)
    task = build_task(dataset, head_threshold=settings.head_threshold)

    with engine.engine_dtype(args.dtype):
        model = build_model(
            args.profile_model, task, embedding_dim=settings.embedding_dim, seed=settings.seed
        )
        config = TrainerConfig(
            # Enough epochs to cover the requested step count; the engine
            # stops exactly at max_steps.
            num_epochs=max(1, args.batches),
            batch_size=settings.batch_size,
            learning_rate=1e-3,
            eval_every=0,
            seed=settings.seed,
            sampled_subgraph_training=args.sampled,
            **_execution_config_fields(args),
        )
        trainer = CDRTrainer(model, task, config)
        training_engine = trainer.build_engine()
        pipeline = DataPipeline(trainer._loaders)
        with profile_context(instrument=not args.no_instrument):
            history = training_engine.fit(pipeline, max_steps=args.batches)
        executor_note = (
            f", executor=sharded(n_shards={args.shards})"
            if args.executor == "sharded"
            else ""
        )
        header = (
            f"profiled {args.profile_model} for {history.num_batches} training steps "
            f"(dtype={args.dtype}, batch_size={settings.batch_size}, "
            f"sampled={args.sampled}, traced={args.traced}{executor_note})"
        )
        phases = (
            f"phase totals: data prep {history.data_prep_seconds_total * 1e3:.1f} ms | "
            f"step {history.step_seconds_total * 1e3:.1f} ms"
        )
        return header + "\n" + phases + "\n\n" + profiler.report()


def _training_from_run(run: dict):
    """Rebuild the exact trainer a ``run.json`` describes.

    Shared by ``train`` (which authors the dict) and ``resume`` (which reads
    it back); the dataset/task/model themselves come from the same
    :func:`repro.serve.build_run_components` resolver ``repro serve`` uses,
    so all three commands reconstruct the identical architecture and the
    checkpoint's config fingerprint double-checks the match.  Trainer
    fields an older version wrote but this one retired are dropped, so an
    older run directory stays resumable.
    """
    from .core import CDRTrainer, TrainerConfig
    from .core.checkpoint import without_retired_fields
    from .serve import build_run_components

    model, task, _settings = build_run_components(run)
    return CDRTrainer(
        model, task, TrainerConfig(**without_retired_fields(run["trainer"]))
    )


def _format_training_summary(history, resumed: bool = False) -> str:
    lines = []
    if resumed and history.resumed_from:
        lines.append(f"resumed from {history.resumed_from}")
    lines.append(
        f"trained {len(history.epoch_losses)} epochs; "
        f"final loss {history.epoch_losses[-1]:.6f}"
        if history.epoch_losses
        else "nothing left to train (checkpoint already covers the run)"
    )
    if history.validation_metrics:
        final = history.validation_metrics[-1]
        for domain, metrics in final.items():
            formatted = ", ".join(f"{k}={v:.4f}" for k, v in metrics.items())
            lines.append(f"valid [{domain}]: {formatted}")
    if history.checkpoints_written:
        lines.append(
            f"checkpoints written: {history.checkpoints_written} "
            f"(latest: {history.last_checkpoint})"
        )
    recovery = {
        "worker deaths": history.worker_deaths,
        "worker timeouts": history.worker_timeouts,
        "respawns": history.worker_respawns,
        "degradations": history.executor_degradations,
    }
    if any(recovery.values()):
        lines.append(
            "recovery events: "
            + ", ".join(f"{name} {count}" for name, count in recovery.items() if count)
        )
    return "\n".join(lines)


def _command_train(args: argparse.Namespace) -> str:
    run = {
        "model": args.train_model,
        "settings": {
            "scenario": args.scenario,
            "scale": args.scale,
            "overlap_ratio": 0.5,
            "embedding_dim": args.embedding_dim,
            "num_epochs": args.epochs,
            "batch_size": args.batch_size,
            "num_eval_negatives": args.negatives,
            "seed": args.seed,
        },
        "trainer": {
            "num_epochs": args.epochs,
            "batch_size": args.batch_size,
            "num_eval_negatives": args.negatives,
            "eval_every": args.eval_every,
            "seed": args.seed,
            **_execution_config_fields(args),
            "checkpoint_dir": str(args.checkpoint_dir) if args.checkpoint_dir else None,
            "checkpoint_every": args.checkpoint_every,
            "checkpoint_every_steps": args.checkpoint_every_steps,
            "checkpoint_keep": args.checkpoint_keep,
            "worker_max_retries": args.worker_max_retries,
            "worker_retry_backoff": args.worker_retry_backoff,
            "worker_step_timeout": args.worker_step_timeout,
            "degrade_on_failure": args.degrade_on_failure,
        },
    }
    if args.faults:
        from .core import faults

        faults.load_env(args.faults)
    trainer = _training_from_run(run)
    if args.checkpoint_dir is not None:
        # Written before training starts so even a killed run can resume.
        directory = Path(args.checkpoint_dir)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "run.json").write_text(json.dumps(run, indent=2) + "\n")
    history = trainer.fit()
    return _format_training_summary(history)


def _command_resume(args: argparse.Namespace) -> str:
    directory = Path(args.checkpoint_dir)
    run_file = directory / "run.json"
    if not run_file.exists():
        raise SystemExit(
            f"no run.json in {directory}; start the run with "
            "`repro train --checkpoint-dir` to make it resumable"
        )
    run = json.loads(run_file.read_text())
    trainer = _training_from_run(run)
    source = args.from_checkpoint if args.from_checkpoint is not None else directory
    history = trainer.fit(resume_from=str(source))
    return _format_training_summary(history, resumed=True)


def _command_serve(args: argparse.Namespace) -> str:
    """Answer JSONL top-K requests from a checkpoint; see ``repro.serve``.

    Responses stream to stdout as they are produced (one JSON object per
    line) in both modes — the one-shot ``--requests`` file and the
    long-lived stdin loop; the closing summary goes to stderr so the
    response stream stays machine-parseable.
    """
    import sys

    from .serve import HotReloader, ServeSession

    session = ServeSession.from_checkpoint_dir(
        args.checkpoint_dir,
        checkpoint=args.from_checkpoint,
        max_staleness=args.max_staleness,
        micro_batch_size=args.micro_batch_size,
        use_best=not args.final_params,
        queue_limit=args.queue_limit,
        default_deadline_ms=args.deadline_ms,
        hard_staleness=args.hard_staleness,
    )
    reloader = (
        HotReloader(session, use_best=not args.final_params)
        if args.watch
        else None
    )
    if args.store_dir is not None and session.scorer.store is not None:
        session.scorer.store.save(args.store_dir)
    if args.requests is not None:
        lines = Path(args.requests).read_text().splitlines()
    else:
        lines = sys.stdin
    for response_line in session.serve_lines(
        lines,
        default_k=args.topk,
        verify=args.verify,
        robust=not args.strict,
        reloader=reloader,
    ):
        print(response_line, flush=True)
    print(session.summary(), file=sys.stderr)
    if args.health:
        print(json.dumps(session.health.snapshot()), file=sys.stderr)
    return ""


_COMMANDS = {
    "stats": _command_stats,
    "overlap": _command_overlap,
    "density": _command_density,
    "ablation": _command_ablation,
    "neighbors": _command_neighbors,
    "threshold": _command_threshold,
    "online-ab": _command_online_ab,
    "efficiency": _command_efficiency,
    "profile": _command_profile,
    "train": _command_train,
    "resume": _command_resume,
    "serve": _command_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    output = _COMMANDS[args.command](args)
    if output:
        print(output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
