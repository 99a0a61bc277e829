"""Section III.B.6 — model efficiency: parameter counts and per-batch timings.

Besides the textual paper-vs-measured report this bench emits
``BENCH_efficiency.json`` at the repository root: a machine-readable record
of the per-model timings so the performance trajectory across PRs can be
tracked without parsing tables (the CI perf gate compares it against the
committed copy).

Timing benches run on the engine's **float32** fast path — the paper-table
parity suite stays float64, and ``tests/test_numeric_parity.py`` asserts the
paper-table metrics agree across dtypes to 1e-4, which is what makes the
flip safe.  The subgraph-scaling bench additionally sweeps synthetic graph
sizes and records NMCDR's full-graph and sampled-subgraph train-s/batch so
the O(graph) → O(batch) claim stays machine-checkable.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np
from conftest import bench_settings, run_once, write_report

from repro.analysis import measure_efficiency
from repro.baselines import build_model
from repro.core import CDRTrainer, NMCDR, NMCDRConfig, TrainerConfig, build_task
from repro.data import load_scenario
from repro.data.dataloader import InteractionDataLoader
from repro.data.pipeline import DataPipeline
from repro.experiments import fast_mode, format_comparison_table
from repro.experiments.paper_reference import EFFICIENCY_REFERENCE
from repro.experiments.runner import prepare_dataset
from repro.optim import Adam
from repro.tensor import engine

MODELS = ("PLE", "MiNet", "HeroGraph", "NMCDR")

#: Synthetic graph-size multipliers swept by the subgraph-scaling bench.
SCALING_SCALES = (2.0, 6.0, 18.0)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run():
    settings = bench_settings("cloth_sport", overlap_ratio=0.5)
    dataset = prepare_dataset(settings)
    task = build_task(dataset, head_threshold=settings.head_threshold)
    reports = {}
    with engine.engine_dtype("float32"):
        for name in MODELS:
            model = build_model(
                name, task, embedding_dim=settings.embedding_dim, seed=settings.seed
            )
            reports[name] = measure_efficiency(
                model,
                task,
                batch_size=settings.batch_size,
                num_train_batches=12,
                num_test_batches=8,
            )
    return reports


def _time_train_steps(task, sampled: bool, num_steps: int = 8, batch_size: int = 128) -> float:
    """Median seconds per training step for one NMCDR mode on one task."""
    model = NMCDR(task, NMCDRConfig(embedding_dim=32, seed=0))
    if sampled:
        # One hop with a fanout cap: the bounded (approximate) configuration
        # whose step cost is a function of the batch, not the graph.
        model.configure_subgraph_sampling(True, num_hops=1, fanout=8)
    optimizer = Adam(model.parameters(), lr=1e-3)
    iterators = [
        iter(
            InteractionDataLoader(
                task.domain(key).split,
                batch_size=batch_size,
                rng=np.random.default_rng(index + 1),
            )
        )
        for index, key in enumerate(("a", "b"))
    ]
    times = []
    for _ in range(num_steps):
        batch_a, batch_b = (next(iterator, None) for iterator in iterators)
        if batch_a is None and batch_b is None:
            break
        started = time.perf_counter()
        optimizer.zero_grad()
        loss = model.compute_batch_loss({"a": batch_a, "b": batch_b})
        loss.backward()
        optimizer.step()
        model.invalidate_cache()
        times.append(time.perf_counter() - started)
    return float(np.median(times))


def _run_scaling():
    points = []
    with engine.engine_dtype("float32"):
        for scale in SCALING_SCALES:
            dataset = load_scenario("cloth_sport", scale=scale, seed=13)
            task = build_task(dataset, head_threshold=7)
            graph_a, graph_b = task.domain_a.train_graph, task.domain_b.train_graph
            points.append(
                {
                    "scale": scale,
                    "num_users": graph_a.num_users + graph_b.num_users,
                    "num_items": graph_a.num_items + graph_b.num_items,
                    "num_edges": graph_a.num_edges + graph_b.num_edges,
                    "full_train_s_per_batch": _time_train_steps(task, sampled=False),
                    "sampled_train_s_per_batch": _time_train_steps(task, sampled=True),
                }
            )
    return points


def _update_bench_json(fields: dict) -> dict:
    """Merge ``fields`` into ``BENCH_efficiency.json`` (read-modify-write).

    The main efficiency table and the subgraph-scaling sweep are separate
    tests but share one machine-readable record, so each merges its section
    instead of clobbering the other's.
    """
    path = REPO_ROOT / "BENCH_efficiency.json"
    payload = {}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload.update(fields)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_bench_efficiency(benchmark):
    reports = run_once(benchmark, _run)

    lines = ["Model efficiency (Sec. III.B.6): parameters and per-batch timings", ""]
    lines.append(
        format_comparison_table(
            "parameter count (millions)",
            {name: EFFICIENCY_REFERENCE[name]["parameters_m"] for name in MODELS},
            {name: reports[name].num_parameters / 1e6 for name in MODELS},
            unit="millions of parameters; reproduction uses D=32 instead of 128",
        )
    )
    lines.append("")
    lines.append(
        format_comparison_table(
            "training seconds per batch",
            {name: EFFICIENCY_REFERENCE[name]["train_s_per_batch"] for name in MODELS},
            {name: reports[name].train_seconds_per_batch for name in MODELS},
            unit="seconds (paper: A100 GPU; reproduction: CPU numpy)",
        )
    )
    lines.append("")
    lines.append(
        format_comparison_table(
            "test seconds per batch",
            {name: EFFICIENCY_REFERENCE[name]["test_s_per_batch"] for name in MODELS},
            {name: reports[name].test_seconds_per_batch for name in MODELS},
        )
    )
    write_report("efficiency", "\n".join(lines))

    nmcdr = reports["NMCDR"]
    payload = {
        "bench": "efficiency",
        "mode": "fast" if fast_mode() else "full",
        "method": (
            "train/test s-per-batch are medians over 12/8 batches; *_mean fields "
            "use the seed's mean methodology (the pre-PR-1 0.0305 reference was a "
            "mean of 4 batches including warm-up); timings run on the float32 "
            "engine fast path since PR 2 (paper-table parity stays float64)"
        ),
        "engine_dtype": "float32",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "models": {name: reports[name].as_dict() for name in MODELS},
        # NMCDR relative to the fastest baseline in the same run — a
        # hardware-independent summary of the engine overhead.
        "nmcdr_train_slowdown_vs_fastest_baseline": nmcdr.train_seconds_per_batch
        / min(reports[name].train_seconds_per_batch for name in MODELS if name != "NMCDR"),
    }
    _update_bench_json(payload)

    # Qualitative claims of Sec. III.B.6: all four models are in the same
    # order of magnitude, and NMCDR is smaller than MiNet and HeroGraph.
    parameter_counts = {name: reports[name].num_parameters for name in MODELS}
    assert parameter_counts["NMCDR"] < parameter_counts["MiNet"] * 10
    assert parameter_counts["NMCDR"] < parameter_counts["HeroGraph"] * 10
    largest = max(parameter_counts.values())
    smallest = min(parameter_counts.values())
    assert largest <= smallest * 30, "parameter counts should stay within ~one order of magnitude"
    for name in MODELS:
        assert reports[name].train_seconds_per_batch > 0
        assert reports[name].test_seconds_per_batch > 0


def _run_plan_build():
    """Median per-step plan-construction time of the incremental
    ``PlanSchedule`` with the CSR-native extraction, at the model's exactness
    depth and the largest scaling-bench size."""
    scale = SCALING_SCALES[-1]
    with engine.engine_dtype("float32"):
        dataset = load_scenario("cloth_sport", scale=scale, seed=13)
        task = build_task(dataset, head_threshold=7)
        # Deterministic matching pools (max_matching_neighbors=None, a
        # paper-faithful configuration): the regime where the schedule's
        # static-closure caching and delta expansion fully engage.
        model = NMCDR(
            task, NMCDRConfig(embedding_dim=32, seed=0, max_matching_neighbors=None)
        )
        model.configure_subgraph_sampling(True)
        iterators = [
            iter(
                InteractionDataLoader(
                    task.domain(key).split,
                    batch_size=256,
                    rng=np.random.default_rng(index + 1),
                )
            )
            for index, key in enumerate(("a", "b"))
        ]
        times = []
        for _ in range(16):
            batches = {
                key: next(iterator, None) for key, iterator in zip(("a", "b"), iterators)
            }
            started = time.perf_counter()
            model.plan_schedule.plan_for(batches)
            times.append(time.perf_counter() - started)
        scheduled_ms = float(np.median(times)) * 1e3

    return {"scale": scale, "plan_build": {"scheduled_ms": scheduled_ms}}


def test_bench_pipeline_overlap(benchmark):
    """The scheduled plan-build time, recorded for the CI perf gate.

    It is written under ``pipeline_overlap``, the key under which
    ``scripts/check_perf_regression.py`` finds it in the baseline on main.
    """
    record = run_once(benchmark, _run_plan_build)

    lines = [
        "Incremental plan builds",
        "",
        f"scale {record['scale']}: plan build: scheduled "
        f"{record['plan_build']['scheduled_ms']:.2f} ms",
    ]
    write_report("efficiency_pipeline_overlap", "\n".join(lines))
    _update_bench_json(
        {
            "pipeline_overlap": {
                "engine_dtype": "float32",
                "python": platform.python_version(),
                "machine": platform.machine(),
                **record,
            }
        }
    )


def test_bench_subgraph_scaling(benchmark):
    """Sampled-subgraph training decouples NMCDR's step cost from graph size.

    Sweeps ≥3 synthetic graph sizes and records both modes' train-s/batch:
    full-graph forwards grow roughly linearly with the node count while the
    sampled mode (1 hop, fanout 8 — a bounded subgraph per batch) stays
    near-flat.  The ratios below use generous margins so scheduler noise on
    shared CI hardware cannot flip the structural claim.
    """
    points = run_once(benchmark, _run_scaling)

    lines = ["Subgraph-scaling sweep: NMCDR train seconds per batch (float32 engine)", ""]
    lines.append(f"{'scale':>6} {'users':>8} {'edges':>8} {'full (ms)':>10} {'sampled (ms)':>12}")
    for point in points:
        lines.append(
            f"{point['scale']:>6} {point['num_users']:>8} {point['num_edges']:>8} "
            f"{point['full_train_s_per_batch'] * 1e3:>10.2f} "
            f"{point['sampled_train_s_per_batch'] * 1e3:>12.2f}"
        )
    write_report("efficiency_subgraph_scaling", "\n".join(lines))
    # Self-describing section: the two bench tests merge into one JSON file,
    # so each section carries its own provenance and cannot silently pass
    # for data from another run or machine.
    _update_bench_json(
        {
            "subgraph_scaling": {
                "engine_dtype": "float32",
                "python": platform.python_version(),
                "machine": platform.machine(),
                "points": points,
            }
        }
    )

    assert len(points) >= 3
    smallest, largest = points[0], points[-1]
    size_ratio = largest["num_users"] / smallest["num_users"]
    full_ratio = largest["full_train_s_per_batch"] / smallest["full_train_s_per_batch"]
    sampled_ratio = (
        largest["sampled_train_s_per_batch"] / smallest["sampled_train_s_per_batch"]
    )
    assert size_ratio >= 4, "the sweep must span meaningfully different graph sizes"
    # Full-graph mode tracks graph size (~linear growth across the sweep).
    assert full_ratio > 2.5, (
        f"full-graph mode should scale with the graph: {full_ratio:.2f}x over {size_ratio:.1f}x nodes"
    )
    # Sampled mode grows sub-linearly (near-flat) and ends up faster outright.
    assert sampled_ratio < 0.6 * full_ratio, (
        f"sampled mode should grow sub-linearly: {sampled_ratio:.2f}x vs full {full_ratio:.2f}x"
    )
    assert (
        largest["sampled_train_s_per_batch"] < largest["full_train_s_per_batch"]
    ), "sampled training should beat full-graph training outright on the largest graph"


def _run_sharded_scaling():
    """Sharded-executor fit walls at the largest scaling-bench size.

    Serial vs ``n_shards ∈ {1, 2, 4}``, NMCDR sampled training (1 hop,
    fanout 8) with a large batch so the per-shard micro-batch work
    dominates the shared pool-closure work each worker replicates.  Besides
    the measured walls the record carries a **projected multi-core wall**
    for each shard count — parent-side overhead plus an even split of the
    workers' busy time — because the measured speedup is only meaningful on
    a machine with at least ``n_shards`` idle cores (``cpu_count`` is
    recorded; on a single-core container every sharded wall is necessarily
    a slowdown and only the projection and the overhead bounds are
    informative).
    """
    import os

    from repro.profiling import profiler

    scale = SCALING_SCALES[-1]
    shard_counts = (1, 2, 4)
    cpu_count = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    )
    with engine.engine_dtype("float32"):
        dataset = load_scenario("cloth_sport", scale=scale, seed=13)
        task = build_task(dataset, head_threshold=7)

        def fit(executor, n_shards):
            model = NMCDR(task, NMCDRConfig(embedding_dim=32, seed=0))
            config = TrainerConfig(
                num_epochs=1,
                batch_size=8192,
                seed=5,
                sampled_subgraph_training=True,
                subgraph_num_hops=1,
                subgraph_fanout=8,
                executor=executor,
                n_shards=n_shards,
            )
            trainer = CDRTrainer(model, task, config)
            profiler.reset()
            profiler.enable()
            try:
                history = trainer.fit()
            finally:
                scopes = {
                    name: stats["seconds"]
                    for name, stats in profiler.as_dict()["scopes"].items()
                }
                profiler.disable()
            return history, scopes

        serial, _ = fit("serial", 1)
        points = []
        for n_shards in shard_counts:
            history, scopes = fit("sharded", n_shards)
            busy = scopes.get("train/shard_wait", 0.0)
            overhead = sum(
                scopes.get(name, 0.0)
                for name in (
                    "train/publish",
                    "train/dispatch",
                    "train/reduce",
                    "train/optimizer",
                )
            )
            # The projection is only meaningful when the workers were
            # time-sliced on fewer cores than shards: there, the parent's
            # shard_wait approximates the *sum* of worker busy time and an
            # even split estimates the parallel wall.  With >= n_shards
            # cores the workers already ran concurrently — shard_wait *is*
            # the parallel wall, and dividing it again would double-count
            # the parallelism — so the measured speedup is the truth and
            # no projection is recorded.
            if cpu_count < n_shards:
                projected_wall = overhead + busy / n_shards
                projected_speedup = serial.step_seconds_total / projected_wall
            else:
                projected_wall = None
                projected_speedup = None
            points.append(
                {
                    "n_shards": n_shards,
                    "fit_wall_s": history.fit_wall_seconds,
                    "speedup_vs_serial": serial.fit_wall_seconds / history.fit_wall_seconds,
                    "worker_busy_s": busy,
                    "parent_overhead_s": overhead,
                    "projected_multicore_step_wall_s": projected_wall,
                    "projected_multicore_speedup": projected_speedup,
                    "epoch_losses": history.epoch_losses,
                }
            )
        replica_matches_serial = points[0]["epoch_losses"] == serial.epoch_losses

    return {
        "scale": scale,
        "num_epochs": 1,
        "batch_size": 8192,
        "subgraph": "1 hop, fanout 8",
        "cpu_count": cpu_count,
        "serial_fit_wall_s": serial.fit_wall_seconds,
        "serial_step_s": serial.step_seconds_total,
        "num_steps": serial.num_batches,
        "replica_matches_serial": replica_matches_serial,
        "points": [
            {key: value for key, value in point.items() if key != "epoch_losses"}
            for point in points
        ],
    }


def test_bench_sharded_scaling(benchmark):
    """Sharded executor: correctness canary, overhead bound, scaling record.

    Hard assertions stay machine-independent: the ``n_shards=1`` replica
    must replay the serial loss stream bit-for-bit, and its fit wall must
    stay within a generous constant factor of serial (the IPC + publish
    overhead bound).  Actual speedup is only gated when the machine has
    enough cores — that check lives in ``scripts/check_perf_regression.py``
    so CI (multi-core runners) enforces it while single-core containers
    record the projection honestly.
    """
    record = run_once(benchmark, _run_sharded_scaling)

    lines = [
        "Sharded data-parallel executor: fit wall vs shard count "
        f"(scale {record['scale']}, batch {record['batch_size']}, {record['subgraph']})",
        "",
        f"cpu_count={record['cpu_count']}  serial fit wall {record['serial_fit_wall_s']:.2f}s "
        f"({record['num_steps']} steps)",
    ]
    for point in record["points"]:
        projection = (
            f", {point['projected_multicore_speedup']:.2f}x projected on "
            f"{point['n_shards']} idle cores"
            if point["projected_multicore_speedup"] is not None
            else ""
        )
        lines.append(
            f"n_shards={point['n_shards']}: wall {point['fit_wall_s']:.2f}s "
            f"(speedup {point['speedup_vs_serial']:.2f}x measured{projection})"
        )
    write_report("efficiency_sharded_scaling", "\n".join(lines))
    _update_bench_json(
        {
            "sharded_scaling": {
                "engine_dtype": "float32",
                "python": platform.python_version(),
                "machine": platform.machine(),
                **record,
            }
        }
    )

    assert record["replica_matches_serial"], (
        "n_shards=1 must replay the serial loss stream bit-for-bit"
    )
    replica = record["points"][0]
    assert replica["fit_wall_s"] < 3.0 * record["serial_fit_wall_s"], (
        "single-shard IPC overhead exploded: "
        f"{replica['fit_wall_s']:.2f}s vs serial {record['serial_fit_wall_s']:.2f}s"
    )
    # On machines with the cores to exploit, parallel execution must not be
    # lost entirely (0.9 floor mirrors scripts/check_perf_regression.py:
    # break-even is too thin against shared-runner contention, while a
    # single-core-like wall lands around 0.4x).
    if record["cpu_count"] >= 4:
        best = max(point["speedup_vs_serial"] for point in record["points"])
        assert best > 0.9, (
            f"parallel execution lost: best sharded speedup {best:.2f}x "
            f"on a {record['cpu_count']}-core machine"
        )


def _run_traced_replay():
    """Eager vs traced step wall at the scale-18 config, serial + n_shards=2.

    The gated configuration is full-graph NMCDR training — the stable-shape
    regime whose ``full_train_s_per_batch`` the subgraph-scaling bench
    already records at this scale, and the one traced replay was built for
    (one program, zero slab rebinds after recording).  The sampled-subgraph
    ratio is recorded alongside as the shape-polymorphic stress case: there
    every step rebinds edge-sized slots and the replay win narrows to noise,
    which the record states honestly rather than hiding.

    The serial measurements run in a **fresh subprocess**
    (``traced_replay_probe.py``): eager's step wall swings by tens of
    percent with the allocator state a warm suite process accumulates,
    while traced replay (no per-step allocation) is insensitive, so the
    paired ratio is only reproducible when measured in the process state a
    real training launch sees.  The float64 canary re-runs a short
    exactness fit both ways and must match bit-for-bit.
    """
    import os
    import subprocess
    import sys

    from repro.profiling import profiler

    scale = SCALING_SCALES[-1]
    sharded_batch = 1024
    sharded_max_steps = 12
    cpu_count = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    )
    probe = Path(__file__).resolve().with_name("traced_replay_probe.py")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))
        if part
    )
    completed = subprocess.run(
        [sys.executable, str(probe), str(scale)],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    )
    probe_record = json.loads(completed.stdout)
    serial = probe_record["serial"]
    serial_sampled = probe_record["serial_sampled"]
    with engine.engine_dtype("float32"):
        dataset = load_scenario("cloth_sport", scale=scale, seed=13)
        task = build_task(dataset, head_threshold=7)

        def sharded_fit(traced):
            model = NMCDR(task, NMCDRConfig(embedding_dim=32, seed=0))
            config = TrainerConfig(
                num_epochs=1,
                batch_size=sharded_batch,
                seed=5,
                executor="sharded",
                n_shards=2,
                traced_steps=traced,
            )
            trainer = CDRTrainer(model, task, config)
            training_engine = trainer.build_engine()
            pipeline = DataPipeline(trainer._loaders)
            profiler.reset()
            profiler.enable()
            try:
                history = training_engine.fit(pipeline, max_steps=sharded_max_steps)
            finally:
                trace_section = profiler.as_dict().get("trace")
                profiler.disable()
            return history, trace_section

        # ABBA at fit granularity: worker spawn + recording costs land
        # symmetrically in both orders.
        eager_hists, traced_hists = [], []
        trace_sections = []
        for traced in (False, True, True, False):
            history, trace_section = sharded_fit(traced)
            (traced_hists if traced else eager_hists).append(history)
            if traced:
                trace_sections.append(trace_section)
        eager_step = sum(h.step_seconds_total for h in eager_hists)
        traced_step = sum(h.step_seconds_total for h in traced_hists)
        sharded = {
            "n_shards": 2,
            "batch_size": sharded_batch,
            "max_steps": sharded_max_steps,
            "eager_step_wall_s": eager_step / 2,
            "traced_step_wall_s": traced_step / 2,
            "traced_step_ratio": traced_step / eager_step,
            "losses_match": all(
                h.epoch_losses == eager_hists[0].epoch_losses
                for h in eager_hists + traced_hists
            ),
            "trace": trace_sections[-1],
        }

    # Equivalence canary: exactness settings, float64, short fixed-seed fits.
    with engine.engine_dtype("float64"):
        canary_task = build_task(
            load_scenario("cloth_sport", scale=0.3, seed=13), head_threshold=7
        )

        def canary_fit(traced):
            model = NMCDR(canary_task, NMCDRConfig(embedding_dim=16, seed=3))
            config = TrainerConfig(
                num_epochs=2,
                batch_size=128,
                seed=11,
                eval_every=1,
                num_eval_negatives=20,
                traced_steps=traced,
            )
            return CDRTrainer(model, canary_task, config).fit()

        eager_history = canary_fit(False)
        traced_history = canary_fit(True)
        equivalence = {
            "dtype": "float64",
            "metrics_bit_identical": eager_history.validation_metrics
            == traced_history.validation_metrics,
            "losses_bit_identical": eager_history.epoch_losses
            == traced_history.epoch_losses,
        }

    return {
        "scale": scale,
        "batch_size": 128,
        "cpu_count": cpu_count,
        "serial": serial,
        "serial_sampled": serial_sampled,
        "sharded": sharded,
        "equivalence": equivalence,
    }


def test_bench_traced_replay(benchmark):
    """Traced step replay: bit-exactness canary + paired step-wall record.

    Hard assertions stay machine-independent: the float64 canary must match
    eager bit-for-bit, every paired loss stream must agree, and the trace
    cache must actually serve (hit rate, no fallbacks).  The wall-ratio
    claims (traced <= 0.9x eager on the gated full-graph config) live in
    ``scripts/check_perf_regression.py`` with the other machine-aware gates.
    """
    record = run_once(benchmark, _run_traced_replay)

    serial, sampled, sharded = (
        record["serial"],
        record["serial_sampled"],
        record["sharded"],
    )
    lines = [
        "Traced step programs: record once per plan signature, replay a flat "
        f"buffer program (scale {record['scale']}, batch {record['batch_size']})",
        "",
        f"cpu_count={record['cpu_count']}  canary: metrics bit-identical="
        f"{record['equivalence']['metrics_bit_identical']}, losses bit-identical="
        f"{record['equivalence']['losses_bit_identical']}",
        f"serial full-graph : eager {serial['eager_s_per_step'] * 1e3:7.2f} ms/step, "
        f"traced {serial['traced_s_per_step'] * 1e3:7.2f} ms/step "
        f"(ratio {serial['traced_step_ratio']:.3f}, hit rate {serial['hit_rate']:.3f})",
        f"serial sampled    : eager {sampled['eager_s_per_step'] * 1e3:7.2f} ms/step, "
        f"traced {sampled['traced_s_per_step'] * 1e3:7.2f} ms/step "
        f"(ratio {sampled['traced_step_ratio']:.3f}, hit rate {sampled['hit_rate']:.3f})",
        f"sharded n=2 full  : eager {sharded['eager_step_wall_s']:7.2f} s, "
        f"traced {sharded['traced_step_wall_s']:7.2f} s "
        f"(ratio {sharded['traced_step_ratio']:.3f})",
    ]
    write_report("efficiency_traced_replay", "\n".join(lines))
    _update_bench_json(
        {
            "traced_replay": {
                "engine_dtype": "float32",
                "python": platform.python_version(),
                "machine": platform.machine(),
                **record,
            }
        }
    )

    assert record["equivalence"]["metrics_bit_identical"], (
        "traced validation metrics diverged from eager in float64"
    )
    assert record["equivalence"]["losses_bit_identical"], (
        "traced epoch losses diverged from eager in float64"
    )
    for name, section in (("serial", serial), ("sampled", sampled)):
        assert section["losses_match"], f"{name}: traced loss stream diverged from eager"
        assert section["fallbacks"] == 0, (
            f"{name}: guard fallbacks on a homogeneous stream: {section['fallbacks']}"
        )
        assert section["hit_rate"] >= 0.95, (
            f"{name}: trace cache barely serving: hit rate {section['hit_rate']:.3f}"
        )
    assert sharded["losses_match"], "sharded: traced loss stream diverged from eager"


def _run_serving():
    """Serving-tier profile: store build/refresh cost, latency, exactness.

    Runs at the engine's default **float64** because the headline claim is
    bit-exactness, not raw speed: every response in the canary batch —
    including one guaranteed cold-start user, constructed by stripping a
    single overlapping user's domain-b history before the split — must match
    full-model rescoring float-for-float.  The timing numbers (throughput,
    per-request latency percentiles, full build vs incremental refresh) are
    recorded on the same store so the perf gate can track the serving path
    across PRs on matching hardware.
    """
    from repro.data.schema import CDRDataset, DomainData
    from repro.serve import RepresentationStore, ScoreRequest, Scorer, exact_top_k

    settings = bench_settings("cloth_sport", overlap_ratio=0.5)
    dataset = prepare_dataset(settings)

    # Guarantee a cold-start user: strip one overlapping user's domain-b
    # history (the leave-one-out split skips zero-interaction users, so the
    # roster and overlap table are unchanged and the user trains cold).
    domain_b = dataset.domain_b
    overlap_globals = np.intersect1d(
        dataset.domain_a.global_user_ids, domain_b.global_user_ids
    )
    cold_user = int(np.where(domain_b.global_user_ids == overlap_globals[0])[0][0])
    keep = domain_b.users != cold_user
    dataset = CDRDataset(
        name=dataset.name,
        domain_a=dataset.domain_a,
        domain_b=DomainData(
            name=domain_b.name,
            num_users=domain_b.num_users,
            num_items=domain_b.num_items,
            users=domain_b.users[keep],
            items=domain_b.items[keep],
            timestamps=domain_b.timestamps[keep],
            global_user_ids=domain_b.global_user_ids,
        ),
        metadata=dataset.metadata,
    )
    task = build_task(dataset, head_threshold=settings.head_threshold)

    model = build_model(
        "NMCDR", task, embedding_dim=settings.embedding_dim, seed=settings.seed
    )
    CDRTrainer(
        model,
        task,
        TrainerConfig(
            num_epochs=2,
            batch_size=settings.batch_size,
            num_eval_negatives=settings.num_eval_negatives,
            seed=settings.seed,
        ),
    ).fit()

    from repro.core.checkpoint import generator_state, set_generator_state
    from repro.tensor.trace import model_rng_sources

    rng_snapshot = [generator_state(rng) for rng in model_rng_sources(model)]

    start = time.perf_counter()
    store = RepresentationStore.build(model, task, params_version=0)
    full_build_s = time.perf_counter() - start
    scorer = Scorer(model, store)

    # ------------------------------------------------------------------
    # exactness canary: every answer equals full-model rescoring
    # ------------------------------------------------------------------
    reference = build_model(
        "NMCDR", task, embedding_dim=settings.embedding_dim, seed=settings.seed
    )
    reference.load_state_dict(model.state_dict())
    for rng, state in zip(model_rng_sources(reference), rng_snapshot):
        set_generator_state(rng, state)
    reference.prepare_for_evaluation()

    canary_requests = [
        ScoreRequest("a", 0, k=10),
        ScoreRequest("a", task.domain_a.num_users // 2, k=10),
        ScoreRequest("b", cold_user, k=10),  # routed through the matching module
        ScoreRequest("b", int(np.flatnonzero(store.tables["b"].warm)[0]), k=10),
    ]
    responses = scorer.score_batch(canary_requests)
    exact = True
    cold_routed = 0
    for request, response in zip(canary_requests, responses):
        candidates = np.arange(store.tables[request.domain].num_items, dtype=np.int64)
        scores = reference.score(
            request.domain,
            np.full(candidates.shape[0], request.user, dtype=np.int64),
            candidates,
        )
        top = exact_top_k(scores, request.k)
        exact = exact and (
            response.items.tolist() == candidates[top].tolist()
            and response.scores.tolist() == scores[top].tolist()
        )
        cold_routed += int(response.cold_start)

    # ------------------------------------------------------------------
    # throughput (batched) and per-request latency percentiles
    # ------------------------------------------------------------------
    request_rng = np.random.default_rng(7)
    num_requests, k = 256, 10

    def _random_requests(count):
        return [
            ScoreRequest(
                key,
                int(request_rng.integers(0, store.tables[key].num_users)),
                k=k,
            )
            for _ in range(count)
            for key in ("a", "b")
        ][:count]

    batch = _random_requests(num_requests)
    start = time.perf_counter()
    scorer.score_batch(batch)
    batched_wall_s = time.perf_counter() - start

    latencies = []
    for request in _random_requests(128):
        start = time.perf_counter()
        scorer.score(request)
        latencies.append(time.perf_counter() - start)
    latencies = np.asarray(latencies)

    # ------------------------------------------------------------------
    # incremental refresh vs full rebuild (one domain's encoder changed).
    # Both paired walls are min-of-5 in this process: at fast-mode scale a
    # single build is a few ms, so first-call warmup noise would otherwise
    # swamp the skipped-encode saving the gate is about.
    # ------------------------------------------------------------------
    refresh_walls, rebuild_walls = [], []
    for _ in range(5):
        model.domain_a_params.encoder.parameters()[0].data += 1e-3
        start = time.perf_counter()
        refresh_stats = store.refresh(model, params_version=1)
        refresh_walls.append(time.perf_counter() - start)
        start = time.perf_counter()
        rebuilt = RepresentationStore.build(
            model, task, params_version=1, rng_states=rng_snapshot
        )
        rebuild_walls.append(time.perf_counter() - start)
    incremental_refresh_s = min(refresh_walls)
    rebuild_s = min(rebuild_walls)
    refresh_exact = all(
        np.array_equal(getattr(store.tables[key], stage), getattr(rebuilt.tables[key], stage))
        for key in ("a", "b")
        for stage in ("user_g1", "user_g3", "user_g4", "items")
    )

    # ------------------------------------------------------------------
    # resilience drill: load shedding, deadlines and the degradation
    # ladder must answer *typed* (never hang, never raise through the
    # loop), and pure rejection must stay cheap — the request path's
    # overload behaviour is a serving metric like any other.
    # ------------------------------------------------------------------
    from repro.core import faults as fault_inject
    from repro.serve import ServeHealth

    health = ServeHealth()
    typed_ok = True

    shed_only = Scorer(model, store, queue_limit=0, health=health)
    shed_batch = _random_requests(256)
    start = time.perf_counter()
    shed_responses = shed_only.score_batch(shed_batch, collect_errors=True)
    shed_wall_s = time.perf_counter() - start
    typed_ok &= all(
        getattr(r, "error", None) == "overload" for r in shed_responses
    )

    expired = Scorer(model, store, default_deadline_ms=0.0, health=health)
    typed_ok &= all(
        getattr(r, "error", None) == "deadline_exceeded"
        for r in expired.score_batch(_random_requests(8), collect_errors=True)
    )

    laddered = Scorer(model, store, hard_staleness=4, health=health)
    saved_staleness = store.meta["max_staleness"]
    store.meta["max_staleness"] = 2
    rungs = []
    try:
        for lag in (1, 3, 9):  # stale / cold-path / past-the-ladder
            fault_inject.configure(fault_inject.FaultSpec("store_stale", lag=lag))
            outcome = laddered.score_batch(
                [ScoreRequest("a", 0, k=5)], collect_errors=True
            )[0]
            rungs.append(getattr(outcome, "error", None) or outcome.degraded)
    finally:
        store.meta["max_staleness"] = saved_staleness
        fault_inject.clear()
    ladder_ok = rungs == ["stale", "cold_path", "unavailable"]

    import os

    return {
        "scale": settings.scale,
        "embedding_dim": settings.embedding_dim,
        "cpu_count": os.cpu_count(),
        "num_users": int(task.domain_a.num_users + task.domain_b.num_users),
        "num_items": int(task.domain_a.num_items + task.domain_b.num_items),
        "num_requests": num_requests,
        "k": k,
        "exactness_canary": bool(exact),
        "cold_requests_routed": cold_routed,
        "refresh_bit_identical": bool(refresh_exact),
        "refresh_recomputed_encode": refresh_stats["recomputed_encode"],
        "full_build_s": full_build_s,
        "incremental_refresh_s": incremental_refresh_s,
        "rebuild_s": rebuild_s,
        "throughput_req_s": num_requests / batched_wall_s,
        "latency_p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "latency_p95_ms": float(np.percentile(latencies, 95) * 1e3),
        "resilience_typed_ok": bool(typed_ok),
        "ladder_ok": bool(ladder_ok),
        "ladder_rungs": rungs,
        "shed_req_s": len(shed_batch) / shed_wall_s,
        "resilience_counters": health.snapshot()["requests"],
    }


def test_bench_serving(benchmark):
    """Serving tier: exact answers, cold-start routing, refresh economics.

    Hard assertions are machine-independent: the canary batch (including the
    constructed cold-start user) is bit-identical to full-model rescoring,
    the incrementally refreshed store equals a rebuild from the same rng
    snapshot, and the one-domain incremental refresh beats the full rebuild
    timed back to back in this process.  Cross-machine latency/throughput
    regressions are gated cpu-aware in ``scripts/check_perf_regression.py``.
    """
    record = run_once(benchmark, _run_serving)

    lines = [
        "Serving tier: persistent representation store + batched exact top-K "
        f"(scale {record['scale']}, dim {record['embedding_dim']}, "
        f"{record['num_users']} users / {record['num_items']} items)",
        "",
        f"cpu_count={record['cpu_count']}  exactness canary: "
        f"{record['exactness_canary']} (cold-start requests routed: "
        f"{record['cold_requests_routed']})",
        f"store: full build {record['full_build_s'] * 1e3:7.1f} ms, "
        f"incremental refresh (encoder-{'/'.join(record['refresh_recomputed_encode'])}) "
        f"{record['incremental_refresh_s'] * 1e3:7.1f} ms vs rebuild "
        f"{record['rebuild_s'] * 1e3:7.1f} ms, bit-identical="
        f"{record['refresh_bit_identical']}",
        f"scoring: {record['throughput_req_s']:8.1f} req/s batched "
        f"(k={record['k']}, full catalogue), latency p50 "
        f"{record['latency_p50_ms']:.2f} ms / p95 {record['latency_p95_ms']:.2f} ms",
        f"resilience: typed outcomes {record['resilience_typed_ok']}, ladder "
        f"{'→'.join(record['ladder_rungs'])} ok={record['ladder_ok']}, "
        f"load shedding {record['shed_req_s']:8.1f} rejections/s",
    ]
    write_report("efficiency_serving", "\n".join(lines))
    _update_bench_json(
        {
            "serving": {
                "engine_dtype": "float64",
                "python": platform.python_version(),
                "machine": platform.machine(),
                **record,
            }
        }
    )

    assert record["exactness_canary"], (
        "store-backed top-K diverged from full-model rescoring"
    )
    assert record["cold_requests_routed"] >= 1, (
        "no request exercised the cold-start matching-module route"
    )
    assert record["refresh_bit_identical"], (
        "incremental refresh diverged from a full rebuild"
    )
    assert record["incremental_refresh_s"] < record["rebuild_s"], (
        "one-domain incremental refresh not cheaper than a full rebuild: "
        f"{record['incremental_refresh_s'] * 1e3:.1f} ms vs "
        f"{record['rebuild_s'] * 1e3:.1f} ms"
    )
    assert record["resilience_typed_ok"], (
        "overload/deadline drill produced an untyped outcome "
        f"(counters: {record['resilience_counters']})"
    )
    assert record["ladder_ok"], (
        "degradation ladder walked the wrong rungs: "
        f"{record['ladder_rungs']} (expected stale → cold_path → unavailable)"
    )
