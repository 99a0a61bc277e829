"""Pool-sharded execution: exchange partitioning, equivalence, lifecycle.

The headline guarantees gated here:

* **Fixed-seed equivalence vs the replicated executor** — under the float64
  default engine dtype, pool-sharded training matches the replicated
  :class:`~repro.core.ShardedStepExecutor` at the PR-4 tolerances:
  validation metrics bit-identical, epoch losses at float64 ulp level (the
  activation exchange re-associates the encoder gradient sum across the
  boundary), and runs are bit-reproducible.
* **Plan structure** — the pool exchange partitions the pool closure
  disjointly, owned slices plus micro-batch closures seed the per-shard
  subgraphs, and the incremental :class:`~repro.core.PoolShardedPlanner`
  produces byte-identical plans to the direct builder (fanout included —
  the per-node reservoir makes capped expansion union-decomposable).
* **Edge cases** — empty owned slices, pool users inside another shard's
  micro-batch, more shards than pool users, and table-only domains all
  train correctly.
* **Liveness** — a worker that dies or hangs *during the gather round*
  fails the step with a RuntimeError instead of hanging the parent.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core import (
    CDRTrainer,
    NMCDR,
    NMCDRConfig,
    PoolShardedStepExecutor,
    StepExecutor,
    TrainerConfig,
    build_pool_exchange,
    build_pool_sharded_plan,
    build_task,
)
from repro.core import plan_schedule
from repro.core.plan_schedule import PoolShardedPlanner
from repro.core.subgraph_plan import sample_matching_pools
from repro.data import load_scenario
from repro.data.dataloader import InteractionDataLoader
from repro.data.shard import domain_shard_salt, shard_assignments, split_joint_batch
from repro.graph import MatchingNeighborSampler, sampling
from repro.optim import Adam


def shard_children():
    return [
        process
        for process in multiprocessing.active_children()
        if process.name.startswith("repro-shard")
    ]


@pytest.fixture(scope="module")
def task():
    return build_task(
        load_scenario("cloth_sport", scale=0.3, seed=13),
        head_threshold=7,
    )


def build_nmcdr(task, seed=3, **config_overrides):
    return NMCDR(task, NMCDRConfig(embedding_dim=16, seed=seed, **config_overrides))


def fit_history(task, model=None, **config_overrides):
    config = TrainerConfig(
        num_epochs=2,
        batch_size=128,
        seed=11,
        eval_every=1,
        num_eval_negatives=20,
        **config_overrides,
    )
    trainer = CDRTrainer(
        model if model is not None else build_nmcdr(task),
        task,
        config,
    )
    return trainer.fit()


def draw_pools(task, config, seed=7):
    sampler = MatchingNeighborSampler(
        config.max_matching_neighbors, rng=np.random.default_rng(seed)
    )
    return sample_matching_pools(task, config, sampler)


def one_joint_batch(task, batch_size=64, seed=5):
    batches = {}
    for index, key in enumerate(("a", "b")):
        loader = InteractionDataLoader(
            task.domain(key).split,
            batch_size=batch_size,
            rng=np.random.default_rng(seed + index),
        )
        batches[key] = next(iter(loader))
    return batches


# ----------------------------------------------------------------------
# exchange partitioning and plan structure
# ----------------------------------------------------------------------
class TestPoolExchange:
    def test_partition_is_disjoint_salted_modulo_cover(self, task):
        config = NMCDRConfig(embedding_dim=16, seed=3)
        intra, inter = draw_pools(task, config)
        exchange = build_pool_exchange(task, intra, inter, n_shards=3)
        for key in ("a", "b"):
            users = exchange.users[key]
            assert users.size > 0
            # Owner-grouped layout: no duplicates, rows sorted by owning
            # shard so each shard's owned rows form one contiguous slice.
            unique = np.unique(users)
            assert unique.size == users.size
            np.testing.assert_array_equal(
                exchange.owners[key],
                shard_assignments(users, 3, salt=domain_shard_salt(key)),
            )
            assert (np.diff(exchange.owners[key]) >= 0).all()
            slices = [exchange.owned_users(key, shard) for shard in range(3)]
            np.testing.assert_array_equal(np.concatenate(slices), users)
            positions = np.concatenate(
                [exchange.owned_positions(key, s) for s in range(3)]
            )
            np.testing.assert_array_equal(positions, np.arange(users.size))
            for shard in range(3):
                start, stop = exchange.owned_range(key, shard)
                np.testing.assert_array_equal(
                    exchange.owned_positions(key, shard), np.arange(start, stop)
                )

    def test_exchange_covers_pools_and_their_partners(self, task):
        config = NMCDRConfig(embedding_dim=16, seed=3)
        intra, inter = draw_pools(task, config)
        exchange = build_pool_exchange(task, intra, inter, n_shards=2)
        for key in ("a", "b"):
            other = task.other_key(key)
            pool_users = np.concatenate(
                [part for head, tail in intra[key] for part in (head, tail)]
                + list(inter[other])
            )
            assert np.isin(pool_users, exchange.users[key]).all()
            # Overlapped pool users' partners are in the other exchange set.
            partners = task.partner_lookup(key)[exchange.users[key]]
            partners = partners[partners >= 0]
            assert np.isin(partners, exchange.users[other]).all()

    def test_pool_users_land_in_other_shards_micro_batches(self, task):
        """The Amdahl-floor scenario: shard s's batch references pool users
        owned elsewhere — exactly what the activation exchange serves."""
        config = NMCDRConfig(embedding_dim=16, seed=3)
        intra, inter = draw_pools(task, config)
        exchange = build_pool_exchange(task, intra, inter, n_shards=2)
        split = split_joint_batch(one_joint_batch(task, batch_size=128), 2)
        crossings = 0
        for shard in range(2):
            batch = split.micro_batches[shard].get("a")
            if batch is None:
                continue
            in_exchange = np.isin(batch.users, exchange.users["a"])
            owners = shard_assignments(batch.users, 2, salt=domain_shard_salt("a"))
            # A batch user IS owned by its shard under the shared salt map,
            # so every pool read of these users from the *other* shard goes
            # through the exchanged activation table.
            crossings += int(np.count_nonzero(in_exchange))
            assert np.all(owners == shard)
        assert crossings > 0

    def test_plan_indices_address_the_combined_row_space(self, task):
        config = NMCDRConfig(embedding_dim=16, seed=3)
        intra, inter = draw_pools(task, config)
        exchange = build_pool_exchange(task, intra, inter, n_shards=2)
        batches = one_joint_batch(task)
        model = build_nmcdr(task)
        model.configure_subgraph_sampling(True)
        for shard in range(2):
            plan = build_pool_sharded_plan(
                task,
                config,
                batches,
                intra,
                inter,
                exchange,
                shard,
                model._subgraph_settings,
                model._subgraph_caches,
            )
            assert plan.pool_sharded
            for key in ("a", "b"):
                domain = plan.domain(key)
                other = plan.domain(task.other_key(key))
                combined = domain.local_rows + domain.exchange_size
                other_combined = other.local_rows + other.exchange_size
                assert domain.exchange_size == exchange.size(key)
                # Pool references resolve to appended table rows.
                for head, tail in domain.intra_pools:
                    for pool in (head, tail):
                        assert np.all(pool >= domain.local_rows)
                        assert np.all(pool < combined)
                for pool in domain.inter_pools:
                    assert np.all(pool >= other.local_rows)
                    assert np.all(pool < other_combined)
                assert np.all(domain.overlap_own < combined)
                assert np.all(domain.overlap_other < other_combined)
                # Owned rows map exchange-table positions to local seeds.
                owned_users = exchange.owned_users(key, shard)
                assert domain.owned_local.size == owned_users.size
                np.testing.assert_array_equal(
                    domain.subgraph.user_ids[domain.owned_local], owned_users
                )
                np.testing.assert_array_equal(
                    exchange.users[key][domain.owned_positions], owned_users
                )
                # Batch rows stay within the local subgraph prefix.
                assert np.all(domain.batch_users < domain.local_rows)

    def test_empty_owned_slice_yields_batch_only_subgraph(self, task):
        config = NMCDRConfig(embedding_dim=16, seed=3, max_matching_neighbors=1)
        intra, inter = draw_pools(task, config)
        exchange = build_pool_exchange(task, intra, inter, n_shards=16)
        empty = [
            (key, shard)
            for key in ("a", "b")
            for shard in range(16)
            if exchange.owned_users(key, shard).size == 0
        ]
        assert empty, "16 shards over <=6 pool users must leave empty slices"
        key, shard = empty[0]
        model = build_nmcdr(task)
        model.configure_subgraph_sampling(True)
        plan = build_pool_sharded_plan(
            task,
            config,
            one_joint_batch(task),
            intra,
            inter,
            exchange,
            shard,
            model._subgraph_settings,
            model._subgraph_caches,
        )
        domain = plan.domain(key)
        assert domain.owned_local.size == 0
        assert domain.exchange_size == exchange.size(key)
        assert domain.active  # the micro-batch closure still seeds a subgraph


class TestIncrementalPlanner:
    def assert_pool_plans_identical(self, left, right):
        assert left.pool_sharded and right.pool_sharded
        for key in ("a", "b"):
            plan_a, plan_b = left.domain(key), right.domain(key)
            assert plan_a.active == plan_b.active
            assert plan_a.exchange_size == plan_b.exchange_size
            np.testing.assert_array_equal(plan_a.owned_local, plan_b.owned_local)
            np.testing.assert_array_equal(
                plan_a.owned_positions,
                plan_b.owned_positions,
            )
            np.testing.assert_array_equal(plan_a.overlap_own, plan_b.overlap_own)
            np.testing.assert_array_equal(plan_a.overlap_other, plan_b.overlap_other)
            for (head_a, tail_a), (head_b, tail_b) in zip(
                plan_a.intra_pools, plan_b.intra_pools
            ):
                np.testing.assert_array_equal(head_a, head_b)
                np.testing.assert_array_equal(tail_a, tail_b)
            for pool_a, pool_b in zip(plan_a.inter_pools, plan_b.inter_pools):
                np.testing.assert_array_equal(pool_a, pool_b)
            if not plan_a.active:
                continue
            np.testing.assert_array_equal(
                plan_a.subgraph.user_ids, plan_b.subgraph.user_ids
            )
            np.testing.assert_array_equal(
                plan_a.subgraph.item_ids, plan_b.subgraph.item_ids
            )
            np.testing.assert_array_equal(
                plan_a.subgraph.graph.user_indices, plan_b.subgraph.graph.user_indices
            )
            np.testing.assert_array_equal(plan_a.batch_users, plan_b.batch_users)
            np.testing.assert_array_equal(plan_a.batch_items, plan_b.batch_items)

    @pytest.mark.parametrize(
        "config_kwargs,sampling_kwargs",
        [
            ({}, {}),
            ({"max_matching_neighbors": None}, {}),
            ({"num_matching_layers": 2}, {}),
            ({}, {"num_hops": 1, "fanout": 4}),
            ({"max_matching_neighbors": None}, {"num_hops": 1, "fanout": 4}),
        ],
    )
    def test_planner_plans_byte_identical_to_direct_builder(
        self, task, config_kwargs, sampling_kwargs
    ):
        config = NMCDRConfig(embedding_dim=16, seed=3, **config_kwargs)
        direct_model = build_nmcdr(task, **config_kwargs)
        planner_model = build_nmcdr(task, **config_kwargs)
        direct_model.configure_subgraph_sampling(True, **sampling_kwargs)
        planner_model.configure_subgraph_sampling(True, **sampling_kwargs)
        planner = PoolShardedPlanner(
            task,
            config,
            planner_model._subgraph_settings,
            planner_model._subgraph_caches,
            shard_index=1,
        )
        sampler = MatchingNeighborSampler(
            config.max_matching_neighbors, rng=np.random.default_rng(7)
        )
        for step in range(4):
            intra, inter = sample_matching_pools(task, config, sampler)
            exchange = build_pool_exchange(task, intra, inter, n_shards=2)
            batches = one_joint_batch(task, seed=20 + step)
            direct = build_pool_sharded_plan(
                task,
                config,
                batches,
                intra,
                inter,
                exchange,
                1,
                direct_model._subgraph_settings,
                direct_model._subgraph_caches,
            )
            incremental = planner.plan_for(batches, intra, inter, exchange)
            self.assert_pool_plans_identical(direct, incremental)
        # Random pools change the owned slice every step, so every step is a
        # from-scratch miss; deterministic pools miss once and then take the
        # incremental path, which the byte-identity checks above covered.
        expected = (1, 3) if config.max_matching_neighbors is None else (4, 0)
        assert planner.stats.plans_built == 4
        assert (planner.stats.full_expansions, planner.stats.delta_expansions) == expected

    def test_a_miss_expands_once_like_the_direct_builder(self, task, monkeypatch):
        """Random pools change the owned slice every step, so every step
        misses.  A miss must cost what the from-scratch builder costs: one
        k-hop expansion per active domain, with no owned-slice expansion
        beside it."""
        expansions = []
        original = sampling.sample_khop_nodes

        def counting_expansion(*args, **kwargs):
            expansions.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(sampling, "sample_khop_nodes", counting_expansion)
        monkeypatch.setattr(plan_schedule, "sample_khop_nodes", counting_expansion)
        config = NMCDRConfig(embedding_dim=16, seed=3)
        direct_model, planner_model = build_nmcdr(task), build_nmcdr(task)
        direct_model.configure_subgraph_sampling(True)
        planner_model.configure_subgraph_sampling(True)
        planner = PoolShardedPlanner(
            task,
            config,
            planner_model._subgraph_settings,
            planner_model._subgraph_caches,
            shard_index=0,
        )
        sampler = MatchingNeighborSampler(
            config.max_matching_neighbors, rng=np.random.default_rng(7)
        )
        for step in range(3):
            intra, inter = sample_matching_pools(task, config, sampler)
            exchange = build_pool_exchange(task, intra, inter, n_shards=2)
            batches = one_joint_batch(task, seed=40 + step)
            expansions.clear()
            build_pool_sharded_plan(
                task,
                config,
                batches,
                intra,
                inter,
                exchange,
                0,
                direct_model._subgraph_settings,
                direct_model._subgraph_caches,
            )
            direct_expansions = len(expansions)
            expansions.clear()
            planner.plan_for(batches, intra, inter, exchange)
            assert direct_expansions == 2  # one per domain
            assert len(expansions) == direct_expansions
        assert planner.stats.full_expansions == 3
        assert planner.stats.delta_expansions == 0
        assert planner.stats.static_closure_reuses == 0

    def test_static_expansion_reused_under_deterministic_pools(self, task):
        config = NMCDRConfig(embedding_dim=16, seed=3, max_matching_neighbors=None)
        model = build_nmcdr(task, max_matching_neighbors=None)
        model.configure_subgraph_sampling(True)
        planner = PoolShardedPlanner(
            task, config, model._subgraph_settings, model._subgraph_caches, shard_index=0
        )
        sampler = MatchingNeighborSampler(None)
        for step in range(3):
            intra, inter = sample_matching_pools(task, config, sampler)
            exchange = build_pool_exchange(task, intra, inter, n_shards=2)
            planner.plan_for(
                one_joint_batch(task, seed=30 + step),
                intra,
                inter,
                exchange,
            )
        assert planner.stats.static_closure_reuses == 2


# ----------------------------------------------------------------------
# fixed-seed equivalence gates (float64)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestPoolShardedEquivalence:
    """The PR-4 equivalence-gate pattern extended to the pool exchange."""

    def test_single_shard_matches_serial_stream(self, task):
        serial = fit_history(task)
        pooled = fit_history(
            task, executor="sharded", n_shards=1, pool_sharding=True
        )
        assert serial.validation_metrics == pooled.validation_metrics
        np.testing.assert_allclose(
            serial.epoch_losses, pooled.epoch_losses, rtol=1e-11, atol=0.0
        )

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_matches_replicated_executor_at_ulp_level(self, task, n_shards):
        replicated = fit_history(task, executor="sharded", n_shards=n_shards)
        pooled = fit_history(
            task, executor="sharded", n_shards=n_shards, pool_sharding=True
        )
        # Metrics bit-identical; losses at float64 ulp level (the activation
        # exchange re-associates the encoder gradient sum).
        assert replicated.validation_metrics == pooled.validation_metrics
        np.testing.assert_allclose(
            replicated.epoch_losses, pooled.epoch_losses, rtol=1e-11, atol=0.0
        )

    def test_matches_sampled_serial_stream(self, task):
        serial = fit_history(task, sampled_subgraph_training=True)
        pooled = fit_history(
            task,
            executor="sharded",
            n_shards=4,
            pool_sharding=True,
            sampled_subgraph_training=True,
        )
        assert serial.validation_metrics == pooled.validation_metrics
        np.testing.assert_allclose(
            serial.epoch_losses, pooled.epoch_losses, rtol=1e-11, atol=0.0
        )

    def test_runs_are_bit_reproducible(self, task):
        first = fit_history(task, executor="sharded", n_shards=4, pool_sharding=True)
        second = fit_history(task, executor="sharded", n_shards=4, pool_sharding=True)
        assert first.epoch_losses == second.epoch_losses
        assert first.validation_metrics == second.validation_metrics

    def test_tiny_pools_with_many_shards_match_replicated(self, task):
        """n_shards above the pool size: most shards own nothing."""
        replicated = fit_history(
            task,
            model=build_nmcdr(task, max_matching_neighbors=1),
            executor="sharded",
            n_shards=8,
        )
        pooled = fit_history(
            task,
            model=build_nmcdr(task, max_matching_neighbors=1),
            executor="sharded",
            n_shards=8,
            pool_sharding=True,
        )
        assert replicated.validation_metrics == pooled.validation_metrics
        np.testing.assert_allclose(
            replicated.epoch_losses, pooled.epoch_losses, rtol=1e-11, atol=0.0
        )

    def test_pool_free_models_fall_back_to_replicated_protocol(self, task):
        from repro.baselines import build_model

        replicated = fit_history(
            task,
            model=build_model("GA-DTCDR", task, embedding_dim=16, seed=3),
            executor="sharded",
            n_shards=2,
        )
        pooled = fit_history(
            task,
            model=build_model("GA-DTCDR", task, embedding_dim=16, seed=3),
            executor="sharded",
            n_shards=2,
            pool_sharding=True,
        )
        assert replicated.epoch_losses == pooled.epoch_losses
        assert replicated.validation_metrics == pooled.validation_metrics


# ----------------------------------------------------------------------
# per-step edge cases through the real executor
# ----------------------------------------------------------------------
class TestPoolShardedStepEdgeCases:
    def paired_executors(self, task, n_shards, **config_overrides):
        executors = []
        for kind in ("serial", "pool"):
            model = build_nmcdr(task, **config_overrides)
            optimizer = Adam(model.parameters(), lr=1e-3)
            if kind == "serial":
                executors.append(StepExecutor(model, optimizer, grad_clip_norm=5.0))
            else:
                executors.append(
                    PoolShardedStepExecutor(
                        model, optimizer, grad_clip_norm=5.0, n_shards=n_shards
                    )
                )
        return executors

    def test_more_shards_than_batch_users_matches_serial(self, task):
        serial, pooled = self.paired_executors(task, n_shards=4)
        try:
            batches = one_joint_batch(task, batch_size=6)
            serial_loss = serial.run_step(batches)
            pooled_loss = pooled.run_step(batches)
            assert pooled_loss == pytest.approx(serial_loss, rel=1e-12)
        finally:
            pooled.close()

    def test_single_domain_step_preserves_grad_sparsity(self, task):
        serial, pooled = self.paired_executors(task, n_shards=2)
        try:
            loader = InteractionDataLoader(
                task.domain("a").split, batch_size=64, rng=np.random.default_rng(5)
            )
            batches = {"a": next(iter(loader))}
            serial_loss = serial.run_step(batches)
            pooled_loss = pooled.run_step(batches)
            assert pooled_loss == pytest.approx(serial_loss, rel=1e-12)
            serial_none = [p.grad is None for p in serial.optimizer.parameters]
            pooled_none = [p.grad is None for p in pooled.optimizer.parameters]
            assert serial_none == pooled_none
            assert any(serial_none)
            for serial_p, pooled_p in zip(
                serial.optimizer.parameters, pooled.optimizer.parameters
            ):
                if serial_p.grad is not None:
                    np.testing.assert_allclose(
                        serial_p.grad, pooled_p.grad, rtol=1e-9, atol=1e-12
                    )
        finally:
            pooled.close()

    def test_empty_micro_batch_shard_still_contributes_encoder_grads(self, task):
        """A shard with no batch rows but an owned pool slice must encode it
        and receive its activation gradients through the scatter."""
        serial, pooled = self.paired_executors(task, n_shards=2)
        try:
            batches = one_joint_batch(task, batch_size=32)
            assignments_a = shard_assignments(
                batches["a"].users, 2, salt=domain_shard_salt("a")
            )
            assignments_b = shard_assignments(
                batches["b"].users, 2, salt=domain_shard_salt("b")
            )
            shard = assignments_a[0]
            from repro.data.dataloader import Batch

            one_sided = {
                "a": Batch(
                    users=batches["a"].users[assignments_a == shard],
                    items=batches["a"].items[assignments_a == shard],
                    labels=batches["a"].labels[assignments_a == shard],
                ),
                "b": Batch(
                    users=batches["b"].users[assignments_b == shard],
                    items=batches["b"].items[assignments_b == shard],
                    labels=batches["b"].labels[assignments_b == shard],
                ),
            }
            assert len(one_sided["a"]) > 0
            serial_loss = serial.run_step(one_sided)
            pooled_loss = pooled.run_step(one_sided)
            assert pooled_loss == pytest.approx(serial_loss, rel=1e-12)
        finally:
            pooled.close()


# ----------------------------------------------------------------------
# lifecycle, wiring, liveness during the gather round
# ----------------------------------------------------------------------
class _DiesDuringEncode(NMCDR):
    """Shard 1 dies hard in phase 1 — after dispatch, before its ENC reply."""

    def encode_shard_step(
        self,
        batches,
        *,
        pools,
        exchange,
        shard_index,
        full_sizes=None,
        publish,
    ):
        if shard_index == 1:
            os._exit(13)
        return super().encode_shard_step(
            batches,
            pools=pools,
            exchange=exchange,
            shard_index=shard_index,
            full_sizes=full_sizes,
            publish=publish,
        )


class _HangsDuringEncode(NMCDR):
    """Shard 1 stalls in phase 1; the parent's step deadline must fire."""

    def encode_shard_step(
        self,
        batches,
        *,
        pools,
        exchange,
        shard_index,
        full_sizes=None,
        publish,
    ):
        if shard_index == 1:
            time.sleep(600)
        return super().encode_shard_step(
            batches,
            pools=pools,
            exchange=exchange,
            shard_index=shard_index,
            full_sizes=full_sizes,
            publish=publish,
        )


class TestPoolShardedLifecycle:
    def make_trainer(self, task, n_shards=2, **overrides):
        config = TrainerConfig(
            num_epochs=1,
            batch_size=128,
            seed=11,
            executor="sharded",
            n_shards=n_shards,
            pool_sharding=True,
            **overrides,
        )
        return CDRTrainer(build_nmcdr(task), task, config)

    def test_config_requires_sharded_executor(self):
        with pytest.raises(ValueError, match="pool_sharding"):
            TrainerConfig(pool_sharding=True)

    def test_trainer_builds_pool_sharded_executor(self, task):
        trainer = self.make_trainer(task)
        assert isinstance(trainer._executor, PoolShardedStepExecutor)
        assert trainer._executor.n_shards == 2

    def test_no_worker_survives_fit(self, task):
        trainer = self.make_trainer(task)
        trainer.fit()
        assert shard_children() == []

    def test_worker_death_during_gather_raises_instead_of_hanging(self, task):
        model = _DiesDuringEncode(task, NMCDRConfig(embedding_dim=16, seed=3))
        optimizer = Adam(model.parameters(), lr=1e-3)
        executor = PoolShardedStepExecutor(model, optimizer, n_shards=2)
        with pytest.raises(RuntimeError, match="shard worker 1"):
            executor.run_step(one_joint_batch(task))
        assert shard_children() == []

    def test_worker_hang_during_gather_hits_the_step_deadline(self, task):
        model = _HangsDuringEncode(task, NMCDRConfig(embedding_dim=16, seed=3))
        optimizer = Adam(model.parameters(), lr=1e-3)
        executor = PoolShardedStepExecutor(
            model, optimizer, n_shards=2, step_timeout=2.0
        )
        with pytest.raises(RuntimeError, match="timed out"):
            executor.run_step(one_joint_batch(task))
        assert shard_children() == []

    def test_worker_error_during_encode_propagates_with_traceback(self, task):
        trainer = self.make_trainer(task)
        executor = trainer._executor
        from repro.data.dataloader import Batch

        bad = Batch(
            users=np.array([10**9], dtype=np.int64),
            items=np.array([0], dtype=np.int64),
            labels=np.array([1.0]),
        )
        with pytest.raises(RuntimeError, match="worker traceback"):
            executor.run_step({"a": bad})
        assert shard_children() == []

    def test_dropout_models_are_rejected(self, task):
        model = build_nmcdr(task, dropout=0.2)
        optimizer = Adam(model.parameters(), lr=1e-3)
        with pytest.raises(ValueError, match="dropout"):
            PoolShardedStepExecutor(model, optimizer, n_shards=2)
