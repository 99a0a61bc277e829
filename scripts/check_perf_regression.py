#!/usr/bin/env python
"""CI perf-regression gate over ``BENCH_efficiency.json``.

Compares a freshly emitted efficiency record against the committed baseline
and fails (exit code 1) when any model's training seconds-per-batch slowed
down by more than the threshold (default 20%).  The subgraph-scaling sweep
is additionally checked on its largest graph point when both records carry
one, and the pipeline-overlap section on its scheduled plan-build ms.

Usage::

    python scripts/check_perf_regression.py BASELINE.json FRESH.json [--threshold 0.2]

Caveats: absolute timings are hardware-specific, so the gate is only
meaningful when baseline and fresh records come from comparable machines
(CI re-times both sides on the same runner class).  Apply the
``perf-regression-ok`` label to a pull request to skip the gate for changes
with a known, accepted slowdown — see README.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: could not read '{path}': {error}", file=sys.stderr)
        raise SystemExit(2)


def compare(baseline: dict, fresh: dict, threshold: float) -> int:
    failures = []
    rows = []

    baseline_models = baseline.get("models", {})
    fresh_models = fresh.get("models", {})
    for name, base_report in sorted(baseline_models.items()):
        fresh_report = fresh_models.get(name)
        if fresh_report is None:
            failures.append(f"model '{name}' missing from the fresh record")
            continue
        base_time = base_report.get("train_s_per_batch")
        fresh_time = fresh_report.get("train_s_per_batch")
        if not base_time or not fresh_time or base_time != base_time or fresh_time != fresh_time:
            failures.append(f"model '{name}' has no usable train_s_per_batch timing")
            continue
        change = fresh_time / base_time - 1.0
        rows.append((f"{name} train_s_per_batch", base_time, fresh_time, change))
        if change > threshold:
            failures.append(
                f"{name}: train s/batch regressed {change * 100:+.1f}% "
                f"({base_time:.6f}s -> {fresh_time:.6f}s)"
            )

    base_scaling = (baseline.get("subgraph_scaling") or {}).get("points")
    fresh_scaling = (fresh.get("subgraph_scaling") or {}).get("points")
    if base_scaling and fresh_scaling:
        base_point, fresh_point = base_scaling[-1], fresh_scaling[-1]
        if base_point.get("scale") == fresh_point.get("scale"):
            base_time = base_point["sampled_train_s_per_batch"]
            fresh_time = fresh_point["sampled_train_s_per_batch"]
            change = fresh_time / base_time - 1.0
            rows.append(
                (f"sampled NMCDR @scale={base_point['scale']}", base_time, fresh_time, change)
            )
            if change > threshold:
                failures.append(
                    f"sampled NMCDR (largest scaling point): regressed {change * 100:+.1f}%"
                )

    base_overlap = baseline.get("pipeline_overlap")
    fresh_overlap = fresh.get("pipeline_overlap")
    if base_overlap and fresh_overlap:
        base_time = (base_overlap.get("plan_build") or {}).get("scheduled_ms")
        fresh_time = (fresh_overlap.get("plan_build") or {}).get("scheduled_ms")
        if base_time and fresh_time:
            base_time, fresh_time = base_time / 1e3, fresh_time / 1e3  # ms → s
            change = fresh_time / base_time - 1.0
            rows.append(
                ("pipeline overlap: scheduled plan build", base_time, fresh_time, change)
            )
            if change > threshold:
                failures.append(
                    f"pipeline overlap: scheduled plan build regressed {change * 100:+.1f}%"
                )

    base_sharded = baseline.get("sharded_scaling")
    fresh_sharded = fresh.get("sharded_scaling")
    if fresh_sharded:
        # Structural claims, baseline-independent.  The n_shards=1 replica
        # must keep replaying the serial loss stream bit-for-bit, and its
        # IPC/publish overhead must stay within a constant factor of serial.
        if not fresh_sharded.get("replica_matches_serial", True):
            failures.append(
                "sharded executor: n_shards=1 no longer replays the serial loss stream"
            )
        points = fresh_sharded.get("points") or []
        serial_wall = fresh_sharded.get("serial_fit_wall_s")
        replica = next((p for p in points if p.get("n_shards") == 1), None)
        if replica and serial_wall:
            ratio = replica["fit_wall_s"] / serial_wall
            rows.append(
                (
                    "sharded n=1 wall vs serial",
                    serial_wall,
                    replica["fit_wall_s"],
                    ratio - 1.0,
                ),
            )
            if ratio > 3.0:
                failures.append(
                    f"sharded executor: single-shard overhead {ratio:.2f}x serial (limit 3.0x)"
                )
        # Actual speedup is only meaningful with enough cores (the committed
        # record may come from a single-core container, where every sharded
        # wall is necessarily a slowdown and only the overhead bound above
        # applies); multi-core CI runners enforce the scaling claim.
        # Floor 0.9 rather than 1.0: the pool-closure replication bounds the
        # achievable speedup (see ROADMAP), and on a shared 4-vCPU runner
        # the parent contends with the workers — a hard break-even gate
        # would flake under normal runner noise.  0.9 still catches
        # "parallelism lost entirely" (single-core-like walls are ~0.4x).
        cpu_count = fresh_sharded.get("cpu_count") or 1
        if cpu_count >= 4 and points:
            best = max(p.get("speedup_vs_serial", 0.0) for p in points)
            if best < 0.9:
                failures.append(
                    f"sharded executor: best measured speedup {best:.2f}x on a "
                    f"{cpu_count}-core machine (parallel execution lost)"
                )
    if (
        base_sharded
        and fresh_sharded
        and base_sharded.get("cpu_count") == fresh_sharded.get("cpu_count")
    ):
        base_points = {p.get("n_shards"): p for p in base_sharded.get("points") or []}
        for point in fresh_sharded.get("points") or []:
            base_point = base_points.get(point.get("n_shards"))
            if not base_point:
                continue
            base_time, fresh_time = base_point["fit_wall_s"], point["fit_wall_s"]
            change = fresh_time / base_time - 1.0
            rows.append(
                (f"sharded n={point['n_shards']} fit wall", base_time, fresh_time, change)
            )
            if change > threshold:
                failures.append(
                    f"sharded n={point['n_shards']}: fit wall regressed {change * 100:+.1f}%"
                )

    base_pool = baseline.get("sharded_pool_scaling")
    fresh_pool = fresh.get("sharded_pool_scaling")
    if fresh_pool:
        # Structural claims, baseline-independent.  The float64 canary must
        # keep matching the replicated executor at the PR-4 tolerances, and
        # the per-shard subgraph (the quantity encoder cost follows) must
        # stay decoupled from the pool size.
        equivalence = fresh_pool.get("equivalence") or {}
        if not equivalence.get("metrics_bit_identical", True):
            failures.append(
                "pool sharding: validation metrics diverged from the replicated executor"
            )
        loss_err = equivalence.get("loss_max_rel_err")
        if loss_err is not None and loss_err > 1e-11:
            failures.append(
                f"pool sharding: losses beyond ulp tolerance ({loss_err:.2e} rel err)"
            )
        pool_points = fresh_pool.get("points") or []
        if len(pool_points) >= 2:
            smallest, largest = pool_points[0], pool_points[-1]
            replicated_growth = (
                largest["replicated_max_shard_nodes"]
                / smallest["replicated_max_shard_nodes"]
            )
            pooled_growth = (
                largest["pool_sharded_max_shard_nodes"]
                / smallest["pool_sharded_max_shard_nodes"]
            )
            rows.append(
                (
                    "pool sharding: per-shard node growth",
                    replicated_growth,
                    pooled_growth,
                    pooled_growth / replicated_growth - 1.0,
                )
            )
            # Expected slope ratio ≈ 1/n_shards plus micro-batch overlap
            # (measured ≈ 0.6 at n=2); 0.75 catches "decoupling lost".
            if replicated_growth > 1.15 and (pooled_growth - 1.0) > 0.75 * (
                replicated_growth - 1.0
            ):
                failures.append(
                    "pool sharding: per-shard subgraph no longer decoupled from "
                    f"the pool ({pooled_growth:.2f}x growth vs replicated "
                    f"{replicated_growth:.2f}x)"
                )
            # The activation exchange must stay a bounded slice of the step,
            # and — a total-work claim valid on any core count — replacing
            # n_shards pool encodes with one must not cost more than IPC
            # noise at the largest pool.
            pooled_wall = largest.get("pool_sharded_fit_wall_s")
            gather = largest.get("gather_overhead_s")
            if pooled_wall and gather and gather > 0.6 * pooled_wall:
                failures.append(
                    f"pool sharding: exchange overhead {gather:.2f}s dominates the "
                    f"{pooled_wall:.2f}s fit wall (limit 60%)"
                )
            replicated_wall = largest.get("replicated_fit_wall_s")
            if pooled_wall and replicated_wall:
                ratio = pooled_wall / replicated_wall
                rows.append(
                    (
                        "pool-sharded vs replicated wall (largest pool)",
                        replicated_wall,
                        pooled_wall,
                        ratio - 1.0,
                    )
                )
                if ratio > 1.25:
                    failures.append(
                        f"pool sharding slower than replicating the pool: "
                        f"{pooled_wall:.2f}s vs {replicated_wall:.2f}s at the "
                        "largest pool size"
                    )
    if (
        base_pool
        and fresh_pool
        and base_pool.get("cpu_count") == fresh_pool.get("cpu_count")
    ):
        base_points = {p.get("pool_size"): p for p in base_pool.get("points") or []}
        for point in fresh_pool.get("points") or []:
            base_point = base_points.get(point.get("pool_size"))
            if not base_point:
                continue
            base_time = base_point["pool_sharded_fit_wall_s"]
            fresh_time = point["pool_sharded_fit_wall_s"]
            change = fresh_time / base_time - 1.0
            rows.append(
                (
                    f"pool-sharded pool={point['pool_size']} fit wall",
                    base_time,
                    fresh_time,
                    change,
                )
            )
            if change > threshold:
                failures.append(
                    f"pool-sharded pool={point['pool_size']}: fit wall regressed "
                    f"{change * 100:+.1f}%"
                )

    base_xchg = baseline.get("shm_exchange")
    fresh_xchg = fresh.get("shm_exchange")
    if fresh_xchg:
        # Structural claims, baseline-independent and robust to noisy
        # hardware.
        for point in fresh_xchg.get("points") or []:
            label = f"pool={point.get('pool_size')} traced={point.get('traced')}"
            shm = point.get("shm") or {}
            if shm.get("data_plane_pipe_bytes", 0):
                failures.append(
                    f"shm exchange ({label}): {shm['data_plane_pipe_bytes']} "
                    "data-plane bytes rode the pipes (steady state must be zero)"
                )
            if shm.get("fallback_data_bytes", 0):
                failures.append(
                    f"shm exchange ({label}): worker replies fell back to "
                    "pickled pipes (reply bound lost)"
                )
            # The exchange rounds must stay a bounded slice of the step —
            # the same train/pool_gather+pool_scatter counters the profiler
            # prints.
            wall = shm.get("fit_wall_s")
            overhead = shm.get("exchange_overhead_s")
            if wall and overhead and overhead > 0.6 * wall:
                failures.append(
                    f"shm exchange ({label}): exchange overhead {overhead:.2f}s "
                    f"dominates the {wall:.2f}s fit wall (limit 60%)"
                )
    if (
        base_xchg
        and fresh_xchg
        and base_xchg.get("cpu_count") == fresh_xchg.get("cpu_count")
    ):
        # Machine-comparable wall claim: the plane's fit wall at the
        # largest pool must not regress against the committed baseline.
        def sweep_point(record, traced):
            points = [
                p
                for p in record.get("points") or []
                if p.get("traced") is traced
            ]
            return max(points, key=lambda p: p.get("pool_size", 0), default=None)

        base_point = sweep_point(base_xchg, False)
        fresh_point = sweep_point(fresh_xchg, False)
        if (
            base_point
            and fresh_point
            and base_point.get("pool_size") == fresh_point.get("pool_size")
        ):
            fresh_shm_wall = (fresh_point.get("shm") or {}).get("fit_wall_s")
            base_shm_wall = (base_point.get("shm") or {}).get("fit_wall_s")
            if base_shm_wall and fresh_shm_wall:
                change = fresh_shm_wall / base_shm_wall - 1.0
                rows.append(
                    (
                        f"shm exchange pool={fresh_point['pool_size']} fit wall",
                        base_shm_wall,
                        fresh_shm_wall,
                        change,
                    )
                )
                if change > threshold:
                    failures.append(
                        f"shm exchange: fit wall regressed {change * 100:+.1f}% "
                        f"at pool {fresh_point['pool_size']}"
                    )

    base_traced = baseline.get("traced_replay")
    fresh_traced = fresh.get("traced_replay")
    if fresh_traced:
        # Structural claims, baseline-independent.  Bit-exactness first:
        # traced replay that drifts from eager is a correctness bug, not a
        # perf trade.
        equivalence = fresh_traced.get("equivalence") or {}
        if not equivalence.get("metrics_bit_identical", True):
            failures.append(
                "traced replay: float64 validation metrics diverged from eager"
            )
        if not equivalence.get("losses_bit_identical", True):
            failures.append("traced replay: float64 epoch losses diverged from eager")
        serial = fresh_traced.get("serial") or {}
        sampled = fresh_traced.get("serial_sampled") or {}
        sharded = fresh_traced.get("sharded") or {}
        for label, section in (("serial", serial), ("sampled", sampled), ("sharded", sharded)):
            if section and not section.get("losses_match", True):
                failures.append(
                    f"traced replay ({label}): loss stream diverged from eager"
                )
        hit_rate = serial.get("hit_rate")
        if hit_rate is not None and hit_rate < 0.95:
            failures.append(
                f"traced replay: cache barely serving after warmup "
                f"(hit rate {hit_rate:.3f}, expected >= 0.95)"
            )
        if serial.get("fallbacks"):
            failures.append(
                f"traced replay: {serial['fallbacks']} guard fallbacks on a "
                "homogeneous serial stream"
            )
        # The wall claims are *paired ratios* — eager and traced interleaved
        # block-wise in one process on one machine — but the traced win is
        # partly a cache-residency effect, so heavy external contention can
        # compress it toward 1.0 even in a paired harness.  Mirror the
        # cpu_count-gated sharded-speedup idiom: enforce the decisive-win
        # bound on the full-graph (stable-shape) config only when the fresh
        # run demonstrates comparable conditions (fresh eager wall within
        # 25% of the baseline's eager wall), and keep an unconditional
        # backstop that traced never slows a homogeneous stream down.  The
        # sampled config rebinds edge-sized slots every step, so it is only
        # held to "must not slow eager down" (guard + rebind overhead
        # bounded, not a speedup claim); the sharded ratio covers just 12
        # multiprocess fit steps and is too noisy for a speedup gate, so it
        # gets a blow-up sanity bound only.
        base_serial_eager = ((base_traced or {}).get("serial") or {}).get(
            "eager_s_per_step"
        )
        fresh_serial_eager = serial.get("eager_s_per_step")
        comparable = bool(
            base_serial_eager
            and fresh_serial_eager
            and fresh_serial_eager <= base_serial_eager * 1.25
        )
        ratio = serial.get("traced_step_ratio")
        if ratio is not None:
            rows.append(
                (
                    "traced/eager step ratio (serial full)",
                    serial.get("eager_s_per_step", 0.0),
                    serial.get("traced_s_per_step", 0.0),
                    ratio - 1.0,
                )
            )
            if comparable and ratio > 0.9:
                failures.append(
                    f"traced replay: serial full-graph step ratio {ratio:.3f} "
                    "(traced must stay <= 0.9x eager on comparable machines)"
                )
            if ratio > 1.05:
                failures.append(
                    f"traced replay: serial full-graph step ratio {ratio:.3f} "
                    "(replay must never slow a stable-shape stream down)"
                )
        sharded_ratio = sharded.get("traced_step_ratio")
        if sharded_ratio is not None:
            rows.append(
                (
                    "traced/eager step ratio (sharded n=2)",
                    sharded.get("eager_step_wall_s", 0.0),
                    sharded.get("traced_step_wall_s", 0.0),
                    sharded_ratio - 1.0,
                )
            )
            if sharded_ratio > 1.25:
                failures.append(
                    f"traced replay: sharded n=2 step ratio {sharded_ratio:.3f} "
                    "(traced must not blow up sharded fit wall)"
                )
        sampled_ratio = sampled.get("traced_step_ratio")
        if sampled_ratio is not None:
            rows.append(
                (
                    "traced/eager step ratio (serial sampled)",
                    sampled.get("eager_s_per_step", 0.0),
                    sampled.get("traced_s_per_step", 0.0),
                    sampled_ratio - 1.0,
                )
            )
            if sampled_ratio > 1.10:
                failures.append(
                    f"traced replay: sampled step ratio {sampled_ratio:.3f} "
                    "(shape-polymorphic replay overhead must stay within 10% of eager)"
                )
    if base_traced and fresh_traced:
        base_serial = (base_traced.get("serial") or {}).get("traced_s_per_step")
        fresh_serial = (fresh_traced.get("serial") or {}).get("traced_s_per_step")
        if base_serial and fresh_serial:
            change = fresh_serial / base_serial - 1.0
            rows.append(
                ("traced serial step wall", base_serial, fresh_serial, change)
            )
            if change > threshold:
                failures.append(
                    f"traced replay: serial traced step wall regressed {change * 100:+.1f}%"
                )

    base_serving = baseline.get("serving")
    fresh_serving = fresh.get("serving")
    if fresh_serving:
        # Structural claims, baseline-independent.  Exactness first: a store
        # that answers differently from full-model rescoring is a
        # correctness bug, whatever its latency.
        if not fresh_serving.get("exactness_canary", True):
            failures.append(
                "serving: store-backed top-K diverged from full-model rescoring"
            )
        if not fresh_serving.get("cold_requests_routed", 1):
            failures.append(
                "serving: no canary request exercised the cold-start "
                "matching-module route"
            )
        if not fresh_serving.get("refresh_bit_identical", True):
            failures.append(
                "serving: incremental store refresh diverged from a full rebuild"
            )
        # Paired in-process walls: the one-domain incremental refresh exists
        # to be cheaper than rebuilding both domains from scratch.
        refresh_s = fresh_serving.get("incremental_refresh_s")
        rebuild_s = fresh_serving.get("rebuild_s")
        if refresh_s and rebuild_s and refresh_s >= rebuild_s:
            failures.append(
                f"serving: incremental refresh {refresh_s * 1e3:.1f}ms not "
                f"below the paired full rebuild {rebuild_s * 1e3:.1f}ms"
            )
        # Resilience canaries: every overload/deadline outcome in the bench
        # drill must be a typed response, and the injected-staleness walk
        # must descend the ladder rung by rung.
        if not fresh_serving.get("resilience_typed_ok", True):
            failures.append(
                "serving: overload/deadline drill produced an untyped outcome"
            )
        if not fresh_serving.get("ladder_ok", True):
            failures.append(
                "serving: degradation ladder walked the wrong rungs "
                f"({fresh_serving.get('ladder_rungs')})"
            )
    if (
        base_serving
        and fresh_serving
        and base_serving.get("cpu_count") == fresh_serving.get("cpu_count")
    ):
        # Machine-comparable wall claims: batched throughput and tail
        # latency of the serving front end must not regress.
        base_thr = base_serving.get("throughput_req_s")
        fresh_thr = fresh_serving.get("throughput_req_s")
        if base_thr and fresh_thr:
            # Expressed as per-request wall so the shared +threshold
            # "bigger is worse" convention applies.
            change = base_thr / fresh_thr - 1.0
            rows.append(
                ("serving batched s/request", 1.0 / base_thr, 1.0 / fresh_thr, change)
            )
            if change > threshold:
                failures.append(
                    f"serving: batched throughput regressed {change * 100:+.1f}% "
                    f"({base_thr:.0f} -> {fresh_thr:.0f} req/s)"
                )
        base_p95 = base_serving.get("latency_p95_ms")
        fresh_p95 = fresh_serving.get("latency_p95_ms")
        if base_p95 and fresh_p95:
            change = fresh_p95 / base_p95 - 1.0
            rows.append(
                ("serving p95 latency", base_p95 / 1e3, fresh_p95 / 1e3, change)
            )
            if change > threshold:
                failures.append(
                    f"serving: p95 request latency regressed {change * 100:+.1f}% "
                    f"({base_p95:.2f} -> {fresh_p95:.2f} ms)"
                )
        base_shed = base_serving.get("shed_req_s")
        fresh_shed = fresh_serving.get("shed_req_s")
        if base_shed and fresh_shed:
            # Shedding must stay cheap: a rejection that costs as much as an
            # answer defeats the point of admission control.
            change = base_shed / fresh_shed - 1.0
            rows.append(
                ("serving shed s/rejection", 1.0 / base_shed, 1.0 / fresh_shed, change)
            )
            if change > threshold:
                failures.append(
                    f"serving: load-shedding throughput regressed {change * 100:+.1f}% "
                    f"({base_shed:.0f} -> {fresh_shed:.0f} rejections/s)"
                )

    print(f"perf gate (threshold: +{threshold * 100:.0f}% train s/batch)")
    for label, base_time, fresh_time, change in rows:
        print(f"  {label:<40} {base_time:.6f}s -> {fresh_time:.6f}s ({change * 100:+.1f}%)")
    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        print(
            "\nIf the slowdown is intended and accepted, apply the "
            "'perf-regression-ok' label to the pull request (see README)."
        )
        return 1
    print("OK: no train-time regression beyond the threshold.")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_efficiency.json")
    parser.add_argument("fresh", help="freshly emitted BENCH_efficiency.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="allowed fractional slowdown per model (default: 0.2 = 20%%)",
    )
    args = parser.parse_args()
    return compare(load(args.baseline), load(args.fresh), args.threshold)


if __name__ == "__main__":
    raise SystemExit(main())
