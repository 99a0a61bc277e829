"""Sharded data-parallel step execution: partitioning, equivalence, lifecycle.

The headline guarantees gated here:

* **Fixed-seed equivalence** — under the float64 default engine dtype the
  sharded executor replays the serial loss/metric stream: bit-identical for
  ``n_shards=1`` (the serial-replica mode) and for the graph baselines at
  every tested shard count; for NMCDR with ``n_shards>1`` the validation
  metrics stay bit-identical while epoch losses are gated at float64 ulp
  level (per-shard backward passes necessarily re-associate the gradient
  sum — see the README "Distributed training" determinism notes).
* **The sampled (pool-replay) path** — under sampled-subgraph training the
  one-shard replica is bit-identical to the serial sampled stream under
  every planner configuration (fanout included), more shards match it at
  float64 ulp level, every shard's plan holds the step's whole pool
  closure, and the parent's sampler rng ends where the serial one does.
* **Partitioning edge cases** — shards larger than the user population,
  overlap pairs landing on different shards, empty per-shard micro-batches
  and single-domain steps all split and train correctly, full-graph and
  sampled.
* **Process hygiene** — no worker process survives ``fit`` (normal return,
  mid-epoch crash or killed worker), ``run_step`` raises instead of hanging
  on a dead worker, and ``close`` is idempotent.
"""

import multiprocessing

import numpy as np
import pytest

from repro.baselines import build_model
from repro.core import (
    CDRTrainer,
    NMCDR,
    NMCDRConfig,
    ShardedStepExecutor,
    StepExecutor,
    TrainerConfig,
    build_task,
)
from repro.core.subgraph_plan import build_subgraph_plan_from_pools
from repro.data import load_scenario
from repro.data.dataloader import Batch, InteractionDataLoader
from repro.data.shard import (
    ShardSplit,
    domain_shard_salt,
    shard_assignments,
    split_joint_batch,
)
from repro.optim import Adam, reduce_gradient_shards


def shard_children():
    """Live shard worker processes spawned by this test process."""
    return [
        process
        for process in multiprocessing.active_children()
        if process.name.startswith("repro-shard")
    ]


@pytest.fixture(scope="module")
def task():
    return build_task(load_scenario("cloth_sport", scale=0.3, seed=13), head_threshold=7)


def build_for(name, task, seed=3, **model_overrides):
    if name == "NMCDR":
        return NMCDR(task, NMCDRConfig(embedding_dim=16, seed=seed, **model_overrides))
    return build_model(name, task, embedding_dim=16, seed=seed)


def fit_history(task, model_name, model_overrides=None, **config_overrides):
    config = TrainerConfig(
        num_epochs=2,
        batch_size=128,
        seed=11,
        eval_every=1,
        num_eval_negatives=20,
        **config_overrides,
    )
    model = build_for(model_name, task, **(model_overrides or {}))
    trainer = CDRTrainer(model, task, config)
    return trainer.fit()


# Model configurations the sampled (pool-replay) path is gated under: random
# and deterministic (``None``) pools, a second matching layer, the GCN kernel
# (one more exactness hop) and each matching direction switched off.  All of
# them keep sampled training exact (default hops, no fanout).
EXACT_PLAN_CONFIGS = {
    "random-pools": {},
    "deterministic-pools": {"max_matching_neighbors": None},
    "two-matching-layers": {"num_matching_layers": 2},
    "gcn": {"gnn_kernel": "gcn"},
    "no-inter-matching": {"use_inter_matching": False},
    "no-intra-matching": {"use_intra_matching": False},
}

# Planner configurations of the serial PlanSchedule (incremental, with a
# delta path under deterministic pools) that the single-shard replica must
# reproduce with its from-scratch plans; the fanout cases are not exact,
# so only the one-shard replica can promise their stream.
PLANNER_CONFIGS = {
    "random-pools": ({}, {}),
    "deterministic-pools": ({"max_matching_neighbors": None}, {}),
    "two-matching-layers": ({"num_matching_layers": 2}, {}),
    "fanout": ({}, {"subgraph_num_hops": 1, "subgraph_fanout": 4}),
    "deterministic-pools-fanout": (
        {"max_matching_neighbors": None},
        {"subgraph_num_hops": 1, "subgraph_fanout": 4},
    ),
}


# ----------------------------------------------------------------------
# shard partitioning
# ----------------------------------------------------------------------
class TestShardSplit:
    def make_batch(self, users):
        users = np.asarray(users, dtype=np.int64)
        return Batch(
            users=users,
            items=np.arange(users.size, dtype=np.int64),
            labels=np.linspace(0.0, 1.0, users.size),
        )

    def test_assignment_is_salted_user_modulo(self):
        users = np.array([0, 1, 5, 8, 9])
        np.testing.assert_array_equal(shard_assignments(users, 3), users % 3)
        np.testing.assert_array_equal(shard_assignments(users, 3, salt=2), (users + 2) % 3)

    def test_assignment_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            shard_assignments(np.array([1]), 0)
        with pytest.raises(ValueError):
            split_joint_batch({}, 0)

    def test_split_preserves_order_and_positions_roundtrip(self):
        batch = self.make_batch([7, 2, 9, 4, 2, 11, 8])
        split = split_joint_batch({"a": batch}, 3)
        assert isinstance(split, ShardSplit)
        assert split.full_sizes == {"a": 7}
        reassembled = np.empty_like(batch.users)
        for shard in range(3):
            rows = split.positions["a"][shard]
            micro = split.micro_batches[shard].get("a")
            if micro is None:
                assert rows.size == 0
                continue
            # Relative order within a shard matches the original batch order.
            assert np.all(np.diff(rows) > 0)
            np.testing.assert_array_equal(
                (micro.users + domain_shard_salt("a")) % 3, np.full(len(micro), shard)
            )
            np.testing.assert_array_equal(micro.users, batch.users[rows])
            np.testing.assert_array_equal(micro.items, batch.items[rows])
            np.testing.assert_array_equal(micro.labels, batch.labels[rows])
            reassembled[rows] = micro.users
        np.testing.assert_array_equal(reassembled, batch.users)

    def test_more_shards_than_users_leaves_empty_micro_batches(self):
        batch = self.make_batch([0, 1, 2])
        split = split_joint_batch({"a": batch}, 8)
        non_empty = [shard for shard in split.micro_batches if shard]
        assert len(non_empty) == 3
        assert sum(len(shard["a"]) for shard in non_empty) == 3

    def test_missing_and_empty_domains_are_skipped(self):
        batch = self.make_batch([4, 5])
        empty = self.make_batch([])
        split = split_joint_batch({"a": batch, "b": None, "c": empty}, 2)
        assert set(split.full_sizes) == {"a"}
        assert all("b" not in shard and "c" not in shard for shard in split.micro_batches)

    def test_single_shard_is_identity(self):
        batch = self.make_batch([3, 1, 2])
        split = split_joint_batch({"a": batch}, 1)
        np.testing.assert_array_equal(split.micro_batches[0]["a"].users, batch.users)
        np.testing.assert_array_equal(split.positions["a"][0], np.arange(3))


class TestGradientReduction:
    def test_fixed_order_sum_and_none_preservation(self):
        class FakeParam:
            def __init__(self):
                self.grad = None

        parameters = [FakeParam(), FakeParam()]
        shard_grads = [
            [np.array([1.0, 2.0]), np.array([5.0])],
            [np.array([10.0, 20.0]), np.array([7.0])],
        ]
        masks = [np.array([True, False]), np.array([True, False])]
        reduce_gradient_shards(parameters, shard_grads, masks)
        np.testing.assert_array_equal(parameters[0].grad, [11.0, 22.0])
        assert parameters[1].grad is None
        # The accumulator must not alias a shard's buffer.
        parameters[0].grad[0] = -1.0
        assert shard_grads[0][0][0] == 1.0


# ----------------------------------------------------------------------
# fixed-seed equivalence gates (float64)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestShardedEquivalence:
    """The PR-2/PR-3 equivalence-gate pattern extended to ``n_shards``."""

    def test_single_shard_replica_is_bit_identical_to_serial(self, task):
        serial = fit_history(task, "NMCDR")
        sharded = fit_history(task, "NMCDR", executor="sharded", n_shards=1)
        assert serial.epoch_losses == sharded.epoch_losses
        assert serial.validation_metrics == sharded.validation_metrics

    def test_four_shards_match_the_sampled_serial_stream(self, task):
        # The serial side builds its plans through the incremental
        # PlanSchedule, the workers from scratch around the same parent-drawn
        # pools; the plans are byte-identical, so the decomposition is gated
        # bit-for-bit against the serial sampled executor (which
        # test_subgraph_sampling.py gates against the full-graph forward).
        serial = fit_history(task, "NMCDR", sampled_subgraph_training=True)
        sharded = fit_history(
            task,
            "NMCDR",
            executor="sharded",
            n_shards=4,
            sampled_subgraph_training=True,
        )
        assert serial.epoch_losses == sharded.epoch_losses
        assert serial.validation_metrics == sharded.validation_metrics

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_sharded_nmcdr_matches_serial_at_ulp_level(self, task, n_shards):
        serial = fit_history(task, "NMCDR")
        sharded = fit_history(task, "NMCDR", executor="sharded", n_shards=n_shards)
        # Validation metrics are bit-identical; epoch losses are gated at
        # float64 ulp level (the per-shard gradient sum re-associates the
        # serial backward's reductions).
        assert serial.validation_metrics == sharded.validation_metrics
        np.testing.assert_allclose(
            serial.epoch_losses, sharded.epoch_losses, rtol=1e-11, atol=0.0
        )

    @pytest.mark.parametrize(
        "model_name,n_shards", [("GA-DTCDR", 2), ("GA-DTCDR", 4), ("HeroGraph", 4)]
    )
    def test_sharded_graph_baselines_are_bit_identical(self, task, model_name, n_shards):
        serial = fit_history(task, model_name)
        sharded = fit_history(task, model_name, executor="sharded", n_shards=n_shards)
        assert serial.epoch_losses == sharded.epoch_losses
        assert serial.validation_metrics == sharded.validation_metrics

    def test_sharded_runs_are_reproducible(self, task):
        first = fit_history(task, "NMCDR", executor="sharded", n_shards=4)
        second = fit_history(task, "NMCDR", executor="sharded", n_shards=4)
        assert first.epoch_losses == second.epoch_losses
        assert first.validation_metrics == second.validation_metrics

    def test_tiny_pools_with_many_shards_match_serial_at_ulp_level(self, task):
        """More shards than pool users: every shard folds the same one-user
        pools into its subgraph, most of them around a handful of rows."""
        tiny = {"max_matching_neighbors": 1}
        serial = fit_history(task, "NMCDR", tiny)
        sharded = fit_history(task, "NMCDR", tiny, executor="sharded", n_shards=8)
        assert serial.validation_metrics == sharded.validation_metrics
        np.testing.assert_allclose(serial.epoch_losses, sharded.epoch_losses, rtol=1e-11, atol=0.0)


@pytest.mark.slow
class TestSampledShardedEquivalence:
    """The pool-replay path under sampled-subgraph training.

    The parent draws each step's matching pools and broadcasts them; every
    worker builds its shard's plan from scratch around them, while the
    serial side plans through the incremental PlanSchedule.
    """

    @pytest.mark.parametrize(
        "model_overrides,sampling",
        list(PLANNER_CONFIGS.values()),
        ids=list(PLANNER_CONFIGS),
    )
    def test_single_shard_replica_is_bit_identical_to_the_sampled_serial_stream(
        self, task, model_overrides, sampling
    ):
        serial = fit_history(
            task, "NMCDR", model_overrides, sampled_subgraph_training=True, **sampling
        )
        sharded = fit_history(
            task,
            "NMCDR",
            model_overrides,
            executor="sharded",
            n_shards=1,
            sampled_subgraph_training=True,
            **sampling,
        )
        assert serial.epoch_losses == sharded.epoch_losses
        assert serial.validation_metrics == sharded.validation_metrics

    @pytest.mark.parametrize("n_shards", [2, 3])
    @pytest.mark.parametrize(
        "model_overrides",
        list(EXACT_PLAN_CONFIGS.values()),
        ids=list(EXACT_PLAN_CONFIGS),
    )
    def test_shards_match_the_sampled_serial_stream_at_ulp_level(
        self, task, model_overrides, n_shards
    ):
        serial = fit_history(task, "NMCDR", model_overrides, sampled_subgraph_training=True)
        sharded = fit_history(
            task,
            "NMCDR",
            model_overrides,
            executor="sharded",
            n_shards=n_shards,
            sampled_subgraph_training=True,
        )
        assert serial.validation_metrics == sharded.validation_metrics
        np.testing.assert_allclose(serial.epoch_losses, sharded.epoch_losses, rtol=1e-11, atol=0.0)

    def test_tiny_pools_with_many_shards_match_the_sampled_serial_stream(self, task):
        tiny = {"max_matching_neighbors": 1}
        serial = fit_history(task, "NMCDR", tiny, sampled_subgraph_training=True)
        sharded = fit_history(
            task,
            "NMCDR",
            tiny,
            executor="sharded",
            n_shards=8,
            sampled_subgraph_training=True,
        )
        assert serial.validation_metrics == sharded.validation_metrics
        np.testing.assert_allclose(serial.epoch_losses, sharded.epoch_losses, rtol=1e-11, atol=0.0)

    def test_sampled_sharded_runs_are_reproducible(self, task):
        settings = dict(executor="sharded", n_shards=3, sampled_subgraph_training=True)
        first = fit_history(task, "NMCDR", **settings)
        second = fit_history(task, "NMCDR", **settings)
        assert first.epoch_losses == second.epoch_losses
        assert first.validation_metrics == second.validation_metrics


# ----------------------------------------------------------------------
# partitioning edge cases through the real executor
# ----------------------------------------------------------------------
class TestShardedStepEdgeCases:
    def serial_and_sharded_executors(self, task, n_shards, sampled=False, **overrides):
        """Two models with identical weights, one serial and one sharded.

        With ``sampled`` both models train on sampled subgraphs, so the
        workers build their plans around the parent-drawn pools.
        """
        executors = []
        for kind in ("serial", "sharded"):
            model = NMCDR(task, NMCDRConfig(embedding_dim=16, seed=3, **overrides))
            if sampled:
                model.configure_subgraph_sampling(True)
            optimizer = Adam(model.parameters(), lr=1e-3)
            if kind == "serial":
                executors.append(StepExecutor(model, optimizer, grad_clip_norm=5.0))
            else:
                executors.append(
                    ShardedStepExecutor(
                        model, optimizer, grad_clip_norm=5.0, n_shards=n_shards
                    )
                )
        return executors

    def one_batch(self, task, key="a", batch_size=64, seed=5):
        loader = InteractionDataLoader(
            task.domain(key).split, batch_size=batch_size, rng=np.random.default_rng(seed)
        )
        return next(iter(loader))

    def test_overlap_pairs_land_on_different_shards(self, task):
        # The per-domain salt decorrelates the two domains' shard maps, so
        # the equivalence gates above continuously exercise overlap partners
        # on different shards (the per-shard plans carry the partner closure).
        pairs = task.overlap_pairs
        shard_a = shard_assignments(pairs[:, 0], 2, salt=domain_shard_salt("a"))
        shard_b = shard_assignments(pairs[:, 1], 2, salt=domain_shard_salt("b"))
        assert np.any(shard_a != shard_b)

    def test_more_shards_than_batch_users_matches_serial(self, task):
        serial, sharded = self.serial_and_sharded_executors(task, n_shards=4)
        try:
            batch_a = self.one_batch(task, "a", batch_size=6)
            batch_b = self.one_batch(task, "b", batch_size=6)
            batches = {"a": batch_a, "b": batch_b}
            serial_loss = serial.run_step(batches)
            sharded_loss = sharded.run_step(batches)
            assert sharded_loss == pytest.approx(serial_loss, rel=1e-12)
        finally:
            sharded.close()

    def test_single_domain_step_preserves_grad_sparsity(self, task):
        serial, sharded = self.serial_and_sharded_executors(task, n_shards=2)
        try:
            batches = {"a": self.one_batch(task, "a")}
            serial_loss = serial.run_step(batches)
            sharded_loss = sharded.run_step(batches)
            assert sharded_loss == pytest.approx(serial_loss, rel=1e-12)
            # Domain-b-only parameters saw no examples: the reduced gradient
            # must stay None on both sides (Adam moments must not advance).
            serial_none = [p.grad is None for p in serial.optimizer.parameters]
            sharded_none = [p.grad is None for p in sharded.optimizer.parameters]
            assert serial_none == sharded_none
            assert any(serial_none)
            for serial_p, sharded_p in zip(
                serial.optimizer.parameters, sharded.optimizer.parameters
            ):
                if serial_p.grad is not None:
                    np.testing.assert_allclose(
                        serial_p.grad, sharded_p.grad, rtol=1e-9, atol=1e-12
                    )
        finally:
            sharded.close()

    def test_step_with_empty_micro_batch_matches_serial(self, task):
        serial, sharded = self.serial_and_sharded_executors(task, n_shards=2)
        try:
            batch = self.one_batch(task, "a", batch_size=32)
            assignments = shard_assignments(batch.users, 2, salt=domain_shard_salt("a"))
            rows = np.flatnonzero(assignments == assignments[0])
            even_only = Batch(
                users=batch.users[rows],
                items=batch.items[rows],
                labels=batch.labels[rows],
            )
            assert len(even_only) > 0
            # One shard receives no examples at all and must still lock-step.
            serial_loss = serial.run_step({"a": even_only})
            sharded_loss = sharded.run_step({"a": even_only})
            assert sharded_loss == pytest.approx(serial_loss, rel=1e-12)
        finally:
            sharded.close()

    def assert_grads_match(self, serial, sharded):
        serial_none = [p.grad is None for p in serial.optimizer.parameters]
        sharded_none = [p.grad is None for p in sharded.optimizer.parameters]
        assert serial_none == sharded_none
        for serial_p, sharded_p in zip(serial.optimizer.parameters, sharded.optimizer.parameters):
            if serial_p.grad is not None:
                np.testing.assert_allclose(serial_p.grad, sharded_p.grad, rtol=1e-9, atol=1e-12)

    def test_two_domain_step_with_one_idle_shard_matches_serial(self, task):
        """Both domains restricted to one shard's users: the other shard
        gets an empty micro-batch in every domain and contributes nothing."""
        serial, sharded = self.serial_and_sharded_executors(task, n_shards=2)
        try:
            batches = {key: self.one_batch(task, key, batch_size=32) for key in ("a", "b")}
            shard = shard_assignments(batches["a"].users[:1], 2, salt=domain_shard_salt("a"))[0]
            one_sided = {}
            for key, batch in batches.items():
                rows = np.flatnonzero(
                    shard_assignments(batch.users, 2, salt=domain_shard_salt(key))
                    == shard
                )
                one_sided[key] = Batch(
                    users=batch.users[rows],
                    items=batch.items[rows],
                    labels=batch.labels[rows],
                )
            assert all(len(batch) > 0 for batch in one_sided.values())
            serial_loss = serial.run_step(one_sided)
            sharded_loss = sharded.run_step(one_sided)
            assert sharded_loss == pytest.approx(serial_loss, rel=1e-12)
            self.assert_grads_match(serial, sharded)
        finally:
            sharded.close()

    def test_sampled_more_shards_than_batch_users_matches_serial(self, task):
        serial, sharded = self.serial_and_sharded_executors(task, n_shards=4, sampled=True)
        try:
            batches = {
                "a": self.one_batch(task, "a", batch_size=6),
                "b": self.one_batch(task, "b", batch_size=6),
            }
            serial_loss = serial.run_step(batches)
            sharded_loss = sharded.run_step(batches)
            assert sharded_loss == pytest.approx(serial_loss, rel=1e-12)
            self.assert_grads_match(serial, sharded)
        finally:
            sharded.close()

    def test_sampled_single_domain_step_preserves_grad_sparsity(self, task):
        serial, sharded = self.serial_and_sharded_executors(task, n_shards=2, sampled=True)
        try:
            batches = {"a": self.one_batch(task, "a")}
            serial_loss = serial.run_step(batches)
            sharded_loss = sharded.run_step(batches)
            assert sharded_loss == pytest.approx(serial_loss, rel=1e-12)
            assert any(p.grad is None for p in serial.optimizer.parameters)
            self.assert_grads_match(serial, sharded)
        finally:
            sharded.close()

    def test_sampled_step_with_empty_micro_batch_matches_serial(self, task):
        serial, sharded = self.serial_and_sharded_executors(task, n_shards=2, sampled=True)
        try:
            batch = self.one_batch(task, "a", batch_size=32)
            assignments = shard_assignments(batch.users, 2, salt=domain_shard_salt("a"))
            rows = np.flatnonzero(assignments == assignments[0])
            one_shard = Batch(
                users=batch.users[rows],
                items=batch.items[rows],
                labels=batch.labels[rows],
            )
            serial_loss = serial.run_step({"a": one_shard})
            sharded_loss = sharded.run_step({"a": one_shard})
            assert sharded_loss == pytest.approx(serial_loss, rel=1e-12)
            self.assert_grads_match(serial, sharded)
        finally:
            sharded.close()

    @pytest.mark.parametrize("sampled", [False, True], ids=["full-graph", "sampled"])
    def test_parent_sampler_stream_matches_serial(self, task, sampled):
        """Pools are drawn once per step in the parent, in the serial
        forward's order, so the parent's sampler rng ends where the serial
        executor's does (mid-training evaluation depends on it)."""
        # Pools capped below the candidate counts, so every draw consumes rng.
        serial, sharded = self.serial_and_sharded_executors(
            task, n_shards=2, sampled=sampled, max_matching_neighbors=4
        )
        try:
            start = serial.model._sampler._rng.bit_generator.state
            for seed in (5, 6, 7):
                batches = {key: self.one_batch(task, key, seed=seed) for key in ("a", "b")}
                serial.run_step(batches)
                sharded.run_step(batches)
            serial_state = serial.model._sampler._rng.bit_generator.state
            sharded_state = sharded.model._sampler._rng.bit_generator.state
            assert serial_state != start
            assert serial_state == sharded_state
        finally:
            sharded.close()


# ----------------------------------------------------------------------
# what each worker plans under sampled training
# ----------------------------------------------------------------------
class TestShardPlans:
    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_every_shard_plan_holds_the_whole_pool_closure(self, task, n_shards):
        """No activations cross shards: each worker's plan, built around its
        micro-batch and the broadcast pools, resolves every pool user and
        every kept overlap pair inside its own subgraphs."""
        model = NMCDR(task, NMCDRConfig(embedding_dim=16, seed=3))
        model.configure_subgraph_sampling(True)
        intra, inter = model.sample_step_pools()
        batches = {}
        for index, key in enumerate(("a", "b")):
            loader = InteractionDataLoader(
                task.domain(key).split,
                batch_size=64,
                rng=np.random.default_rng(5 + index),
            )
            batches[key] = next(iter(loader))
        split = split_joint_batch(batches, n_shards)
        overlap = {tuple(pair) for pair in task.overlap_pairs.tolist()}
        for shard in range(n_shards):
            micro = split.micro_batches[shard]
            plan = build_subgraph_plan_from_pools(
                task,
                model.config,
                micro,
                intra,
                inter,
                model._subgraph_settings,
                model._subgraph_caches,
            )
            for key in ("a", "b"):
                domain = plan.domain(key)
                other = plan.domain(task.other_key(key))
                assert domain.active and other.active
                users = domain.subgraph.user_ids
                other_users = other.subgraph.user_ids
                assert len(domain.intra_pools) == len(intra[key]) > 0
                assert len(domain.inter_pools) == len(inter[key]) > 0
                for (head, tail), (local_head, local_tail) in zip(intra[key], domain.intra_pools):
                    np.testing.assert_array_equal(users[local_head], head)
                    np.testing.assert_array_equal(users[local_tail], tail)
                for pool, local_pool in zip(inter[key], domain.inter_pools):
                    np.testing.assert_array_equal(other_users[local_pool], pool)
                if key in micro:
                    np.testing.assert_array_equal(users[domain.batch_users], micro[key].users)
                own = users[domain.overlap_own]
                partner = other_users[domain.overlap_other]
                assert own.size > 0
                pairs = zip(own, partner) if key == "a" else zip(partner, own)
                assert all(pair in overlap for pair in pairs)


# ----------------------------------------------------------------------
# lifecycle, wiring and process hygiene
# ----------------------------------------------------------------------
class TestShardedLifecycle:
    def make_trainer(self, task, n_shards=2, **overrides):
        config = TrainerConfig(
            num_epochs=1,
            batch_size=128,
            seed=11,
            executor="sharded",
            n_shards=n_shards,
            **overrides,
        )
        model = NMCDR(task, NMCDRConfig(embedding_dim=16, seed=3))
        return CDRTrainer(model, task, config)

    def test_trainer_config_builds_sharded_executor(self, task):
        trainer = self.make_trainer(task)
        assert isinstance(trainer._executor, ShardedStepExecutor)
        assert trainer._executor.n_shards == 2

    def test_invalid_executor_and_shard_count_rejected(self):
        with pytest.raises(ValueError):
            TrainerConfig(executor="distributed")
        with pytest.raises(ValueError):
            TrainerConfig(n_shards=0)

    def test_no_worker_survives_fit(self, task):
        trainer = self.make_trainer(task)
        trainer.fit()
        assert shard_children() == []

    def test_close_is_idempotent_and_safe_before_open(self, task):
        trainer = self.make_trainer(task)
        executor = trainer._executor
        executor.close()  # never opened
        executor.open()
        assert executor.is_open and len(shard_children()) == 2
        executor.close()
        executor.close()
        assert not executor.is_open and shard_children() == []

    def test_killed_worker_raises_instead_of_hanging(self, task):
        trainer = self.make_trainer(task)
        executor = trainer._executor
        executor.open()
        executor._workers[1].terminate()
        executor._workers[1].join(timeout=5.0)
        batch = next(iter(trainer._loaders["a"]))
        with pytest.raises(RuntimeError, match="shard worker 1"):
            executor.run_step({"a": batch})
        assert shard_children() == []

    def test_worker_error_propagates_with_traceback(self, task):
        trainer = self.make_trainer(task)
        executor = trainer._executor
        bad = Batch(
            users=np.array([10**9], dtype=np.int64),
            items=np.array([0], dtype=np.int64),
            labels=np.array([1.0]),
        )
        with pytest.raises(RuntimeError, match="worker traceback"):
            executor.run_step({"a": bad})
        assert shard_children() == []

    def test_worker_error_in_sampled_plan_propagates_with_traceback(self, task):
        # Under sampled training the worker builds its plan around the
        # broadcast pools first; a failure there must surface the same way.
        trainer = self.make_trainer(task, sampled_subgraph_training=True)
        executor = trainer._executor
        bad = Batch(
            users=np.array([10**9], dtype=np.int64),
            items=np.array([0], dtype=np.int64),
            labels=np.array([1.0]),
        )
        with pytest.raises(RuntimeError, match="worker traceback"):
            executor.run_step({"a": bad})
        assert shard_children() == []

    def test_mid_epoch_crash_leaves_no_worker_processes(self, task):
        class ExplodingLoader:
            """Yields one real batch, then fails like a poisoned pipeline."""

            def __init__(self, loader):
                self.loader = loader

            def __len__(self):
                return len(self.loader)

            def __iter__(self):
                iterator = iter(self.loader)
                yield next(iterator)
                raise RuntimeError("poisoned batch stream")

        trainer = self.make_trainer(task)
        trainer._loaders["a"] = ExplodingLoader(trainer._loaders["a"])
        with pytest.raises(RuntimeError, match="poisoned batch stream"):
            trainer.fit()
        assert shard_children() == []

    def test_models_without_pointwise_loss_are_rejected(self, task):
        model = build_model("BPR", task, embedding_dim=16, seed=3)
        optimizer = Adam(model.parameters(), lr=1e-3)
        with pytest.raises(TypeError, match="serial StepExecutor"):
            ShardedStepExecutor(model, optimizer, n_shards=2)

    def test_dropout_models_are_rejected(self, task):
        model = NMCDR(task, NMCDRConfig(embedding_dim=16, seed=3, dropout=0.2))
        optimizer = Adam(model.parameters(), lr=1e-3)
        with pytest.raises(ValueError, match="dropout"):
            ShardedStepExecutor(model, optimizer, n_shards=2)

    def test_finalizer_shuts_workers_down_without_close(self, task):
        trainer = self.make_trainer(task)
        executor = trainer._executor
        executor.open()
        assert len(shard_children()) == 2
        finalizer = executor._finalizer
        # Dropping the last reference triggers the weakref.finalize teardown
        # (the same callback also runs at interpreter exit, so an executor
        # crash mid-epoch cannot leak worker processes).
        trainer._executor = None
        del executor
        import gc

        gc.collect()
        assert not finalizer.alive
        for process in shard_children():
            process.join(timeout=5.0)
        assert shard_children() == []
