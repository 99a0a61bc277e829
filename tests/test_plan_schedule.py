"""PlanSchedule and CSR-native extraction: structural equivalence and reuse.

The schedule's contract is *byte* equivalence: for the same sampler state and
batch sequence, the incremental builder must return plans whose every index
array matches the from-scratch per-step builder's (the :func:`build_subgraph_plan`
oracle below), because the trainer-level bit-exactness guarantee (sampled ==
full-graph at exactness depth) rides on it.  Fixed cases pin the known edge
configurations; a Hypothesis test draws loader seeds, batch sizes, step
counts, pool sizes and fanouts.  The extraction tests pin the CSR-native
path — both its dense (edge-mask) and sparse (row-gather) regimes — to the
scipy reference extraction (:func:`induced_subgraph_scipy` below).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypothesis_budget import examples

from repro.core import NMCDR, NMCDRConfig, build_task
from repro.core.subgraph_plan import (
    build_subgraph_plan_from_pools,
    sample_matching_pools,
)
from repro.data import load_scenario
from repro.data.dataloader import InteractionDataLoader
from repro.graph import InteractionGraph, SubgraphCache
from repro.graph.sampling import DomainSubgraph, induced_subgraph, sample_khop_nodes


# ----------------------------------------------------------------------
# reference implementations (test oracles)
# ----------------------------------------------------------------------
def build_subgraph_plan(task, config, batches, sampler, settings, caches):
    """Per-step oracle: draw every pool, then build the plan from scratch."""
    intra_pools, inter_pools = sample_matching_pools(task, config, sampler)
    return build_subgraph_plan_from_pools(
        task, config, batches, intra_pools, inter_pools, settings, caches
    )


def induced_subgraph_scipy(graph, user_ids, item_ids):
    """Reference extraction via scipy fancy indexing and a COO round trip."""
    user_ids = np.asarray(user_ids, dtype=np.int64)
    item_ids = np.asarray(item_ids, dtype=np.int64)
    if user_ids.size == 0:
        return DomainSubgraph(user_ids, item_ids, None)
    if item_ids.size == 0:
        item_ids = np.zeros(1, dtype=np.int64)
    sub = graph.adjacency()[user_ids][:, item_ids].tocoo()
    local = InteractionGraph(
        user_ids.size, item_ids.size, sub.row.astype(np.int64), sub.col.astype(np.int64)
    )
    return DomainSubgraph(user_ids, item_ids, local)


def small_task(scale=0.3, seed=13):
    return build_task(
        load_scenario("cloth_sport", scale=scale, seed=seed),
        head_threshold=7,
    )


@pytest.fixture(scope="module")
def task():
    return small_task()


def batch_stream(task, num_steps, batch_size=64, seed=5):
    iterators = [
        iter(
            InteractionDataLoader(
                task.domain(key).split,
                batch_size=batch_size,
                rng=np.random.default_rng(index + seed),
            )
        )
        for index, key in enumerate(("a", "b"))
    ]
    steps = []
    for _ in range(num_steps):
        steps.append(
            {key: next(iterator, None) for key, iterator in zip(("a", "b"), iterators)}
        )
    return steps


def assert_plans_identical(left, right):
    for key in ("a", "b"):
        plan_a, plan_b = left.domain(key), right.domain(key)
        assert plan_a.active == plan_b.active
        if not plan_a.active:
            continue
        np.testing.assert_array_equal(
            plan_a.subgraph.user_ids,
            plan_b.subgraph.user_ids,
        )
        np.testing.assert_array_equal(
            plan_a.subgraph.item_ids,
            plan_b.subgraph.item_ids,
        )
        assert plan_a.subgraph.graph.num_edges == plan_b.subgraph.graph.num_edges
        np.testing.assert_array_equal(
            plan_a.subgraph.graph.user_indices, plan_b.subgraph.graph.user_indices
        )
        np.testing.assert_array_equal(plan_a.batch_users, plan_b.batch_users)
        np.testing.assert_array_equal(plan_a.batch_items, plan_b.batch_items)
        np.testing.assert_array_equal(plan_a.overlap_own, plan_b.overlap_own)
        np.testing.assert_array_equal(plan_a.overlap_other, plan_b.overlap_other)
        for (
            head_a,
            tail_a,
        ), (head_b, tail_b) in zip(plan_a.intra_pools, plan_b.intra_pools):
            np.testing.assert_array_equal(head_a, head_b)
            np.testing.assert_array_equal(tail_a, tail_b)
        for pool_a, pool_b in zip(plan_a.inter_pools, plan_b.inter_pools):
            np.testing.assert_array_equal(pool_a, pool_b)


class TestScheduleEquivalence:
    @pytest.mark.parametrize(
        "config_kwargs",
        [
            {},
            {"max_matching_neighbors": None},
            {"num_matching_layers": 2},
            {"gnn_kernel": "gcn"},
            {"use_inter_matching": False},
        ],
    )
    def test_plans_byte_identical_to_per_step(self, config_kwargs):
        task = small_task()
        config = NMCDRConfig(embedding_dim=16, seed=3, **config_kwargs)
        per_step = NMCDR(task, config)
        scheduled = NMCDR(task, config)
        per_step.configure_subgraph_sampling(True)
        scheduled.configure_subgraph_sampling(True)
        for batches in batch_stream(task, 5):
            reference = build_subgraph_plan(
                task,
                config,
                batches,
                per_step._sampler,
                per_step._subgraph_settings,
                per_step._subgraph_caches,
            )
            incremental = scheduled.plan_schedule.plan_for(batches)
            assert_plans_identical(reference, incremental)

    def test_fanout_mode_plans_identical_too(self):
        task = small_task()
        config = NMCDRConfig(embedding_dim=16, seed=3)
        per_step = NMCDR(task, config)
        scheduled = NMCDR(task, config)
        per_step.configure_subgraph_sampling(True, num_hops=1, fanout=4)
        scheduled.configure_subgraph_sampling(True, num_hops=1, fanout=4)
        for batches in batch_stream(task, 4):
            reference = build_subgraph_plan(
                task,
                config,
                batches,
                per_step._sampler,
                per_step._subgraph_settings,
                per_step._subgraph_caches,
            )
            incremental = scheduled.plan_schedule.plan_for(batches)
            assert_plans_identical(reference, incremental)

    def test_fanout_mode_delta_expands_instead_of_falling_back(self):
        """With signature-stable per-node reservoirs, capped expansion
        distributes over seed unions, so stable pools delta-expand under a
        fanout cap instead of triggering the historical full-expansion
        fallback — and the plans stay byte-identical to per-step building."""
        task = small_task()
        config = NMCDRConfig(embedding_dim=16, seed=3, max_matching_neighbors=None)
        per_step = NMCDR(task, config)
        scheduled = NMCDR(task, config)
        per_step.configure_subgraph_sampling(True, num_hops=1, fanout=4)
        scheduled.configure_subgraph_sampling(True, num_hops=1, fanout=4)
        for batches in batch_stream(task, 4):
            reference = build_subgraph_plan(
                task,
                config,
                batches,
                per_step._sampler,
                per_step._subgraph_settings,
                per_step._subgraph_caches,
            )
            incremental = scheduled.plan_schedule.plan_for(batches)
            assert_plans_identical(reference, incremental)
        stats = scheduled.plan_schedule.stats
        assert stats.delta_expansions == 3  # steps after the first reuse
        assert stats.full_expansions == 1

    @settings(max_examples=examples(25), deadline=None)
    @given(
        loader_seed=st.integers(0, 2**16),
        batch_size=st.integers(1, 256),
        num_steps=st.integers(1, 6),
        max_matching_neighbors=st.one_of(st.none(), st.integers(1, 16)),
        fanout=st.one_of(st.none(), st.integers(1, 8)),
    )
    def test_generated_streams_byte_identical_to_per_step(
        self, task, loader_seed, batch_size, num_steps, max_matching_neighbors, fanout
    ):
        """Deterministic (``None``) and random pools, capped and uncapped
        expansion, short and exhausted loaders: every step's plan matches
        the from-scratch oracle byte for byte."""
        config = NMCDRConfig(
            embedding_dim=8, seed=3, max_matching_neighbors=max_matching_neighbors
        )
        per_step = NMCDR(task, config)
        scheduled = NMCDR(task, config)
        per_step.configure_subgraph_sampling(True, fanout=fanout)
        scheduled.configure_subgraph_sampling(True, fanout=fanout)
        stream = batch_stream(task, num_steps, batch_size=batch_size, seed=loader_seed)
        for batches in stream:
            if all(batch is None for batch in batches.values()):
                break  # both loaders exhausted: the engine stops here too
            reference = build_subgraph_plan(
                task,
                config,
                batches,
                per_step._sampler,
                per_step._subgraph_settings,
                per_step._subgraph_caches,
            )
            incremental = scheduled.plan_schedule.plan_for(batches)
            assert_plans_identical(reference, incremental)

    def test_none_batch_domain_matches_per_step(self):
        """A ``None`` batch follows per-step semantics exactly (the partner
        closure may still activate the other domain)."""
        task = small_task()
        config = NMCDRConfig(embedding_dim=16, seed=3, use_inter_matching=False,
                             use_intra_matching=False)
        per_step = NMCDR(task, config)
        scheduled = NMCDR(task, config)
        per_step.configure_subgraph_sampling(True)
        scheduled.configure_subgraph_sampling(True)
        (batches,) = batch_stream(task, 1)
        step = {"a": batches["a"], "b": None}
        reference = build_subgraph_plan(
            task,
            config,
            step,
            per_step._sampler,
            per_step._subgraph_settings,
            per_step._subgraph_caches,
        )
        incremental = scheduled.plan_schedule.plan_for(step)
        assert incremental.domain("a").active
        assert_plans_identical(reference, incremental)


class TestScheduleReuse:
    def test_deterministic_pools_take_delta_path(self):
        task = small_task()
        config = NMCDRConfig(embedding_dim=16, seed=3, max_matching_neighbors=None)
        model = NMCDR(task, config)
        model.configure_subgraph_sampling(True)
        schedule = model.plan_schedule
        for batches in batch_stream(task, 4):
            schedule.plan_for(batches)
        assert schedule.stats.plans_built == 4
        # The first step builds the static closure; every later one reuses it
        # and expands only the batch delta.
        assert schedule.stats.static_closure_reuses == 3
        assert schedule.stats.delta_expansions >= 2
        assert schedule.stats.full_expansions <= 2

    def test_random_pools_fall_back_to_full_expansion(self):
        task = small_task()
        config = NMCDRConfig(embedding_dim=16, seed=3, max_matching_neighbors=8)
        model = NMCDR(task, config)
        model.configure_subgraph_sampling(True)
        schedule = model.plan_schedule
        for batches in batch_stream(task, 3):
            schedule.plan_for(batches)
        assert schedule.stats.full_expansions == 3
        assert schedule.stats.delta_expansions == 0

    def test_epoch_hook_counts_epochs(self):
        task = small_task()
        model = NMCDR(task, NMCDRConfig(embedding_dim=16, seed=3))
        model.configure_subgraph_sampling(True)
        model.on_epoch_start(0)
        model.on_epoch_start(1)
        assert model.plan_schedule.stats.epochs == 2
        # Models without a schedule ignore the hook.
        plain = NMCDR(task, NMCDRConfig(embedding_dim=16, seed=3))
        plain.on_epoch_start(0)


class TestNodeKeyedCache:
    def test_get_by_nodes_shares_entry_for_equal_sets(self):
        graph = InteractionGraph(6, 5, [0, 1, 2, 3], [0, 1, 2, 3])
        cache = SubgraphCache()
        users = np.array([0, 1, 2], dtype=np.int64)
        items = np.array([0, 1], dtype=np.int64)
        first = cache.get_by_nodes(graph, users, items, num_hops=1)
        second = cache.get_by_nodes(graph, users.copy(), items.copy(), num_hops=1)
        assert first is second
        assert cache.node_hits == 1

    def test_identity_fast_path(self):
        graph = InteractionGraph(6, 5, [0, 1, 2, 3], [0, 1, 2, 3])
        cache = SubgraphCache()
        users = np.array([0, 1], dtype=np.int64)
        items = np.array([0], dtype=np.int64)
        first = cache.get_by_nodes(graph, users, items, num_hops=1)
        again = cache.get_by_nodes(graph, users, items, num_hops=1)
        assert first is again

    def test_seed_path_reuses_node_entry(self):
        """Different seeds expanding to the same nodes share one subgraph."""
        graph = InteractionGraph(4, 3, [0, 0, 1], [0, 1, 1])
        cache = SubgraphCache()
        wide = cache.get(graph, [0, 1], [], num_hops=1)
        # Seeding from the items reaches the same node set one hop out.
        alt = cache.get(graph, [], [0, 1], num_hops=1)
        assert wide is alt
        assert cache.misses == 2 and cache.node_hits == 1


class TestCSRNativeExtraction:
    @pytest.mark.parametrize("num_seeds", [2, 10, 40])
    def test_matches_scipy_reference(self, num_seeds, rng):
        users = rng.integers(0, 50, size=400)
        items = rng.integers(0, 40, size=400)
        graph = InteractionGraph(50, 40, users, items)
        seed_users = np.unique(rng.integers(0, 50, size=num_seeds))
        node_users, node_items = sample_khop_nodes(graph, seed_users, [], num_hops=2)
        fast = induced_subgraph(graph, node_users, node_items)
        reference = induced_subgraph_scipy(graph, node_users, node_items)
        assert fast.graph.num_edges == reference.graph.num_edges
        np.testing.assert_array_equal(
            fast.graph.user_indices,
            reference.graph.user_indices,
        )
        np.testing.assert_array_equal(
            fast.graph.item_indices,
            reference.graph.item_indices,
        )
        # The propagation operators agree too (same CSR content).
        np.testing.assert_allclose(
            fast.graph.user_aggregation_matrix().toarray(),
            reference.graph.user_aggregation_matrix().toarray(),
        )

    def test_sparse_regime_uses_row_gather(self, rng):
        """Tiny subgraph of a big graph: the gather path, still exact."""
        users = rng.integers(0, 400, size=3000)
        items = rng.integers(0, 300, size=3000)
        graph = InteractionGraph(400, 300, users, items)
        node_users = np.arange(3, dtype=np.int64)
        node_items = np.unique(
            np.concatenate([graph.user_neighbors(int(u)) for u in node_users])
        )
        fast = induced_subgraph(graph, node_users, node_items)
        reference = induced_subgraph_scipy(graph, node_users, node_items)
        assert fast.graph.num_edges == reference.graph.num_edges
        np.testing.assert_array_equal(
            fast.graph.item_indices,
            reference.graph.item_indices,
        )

    def test_isolated_seed_padding_preserved(self):
        graph = InteractionGraph(5, 4, [0, 0, 1, 2, 3], [0, 1, 1, 2, 3])
        subgraph = induced_subgraph(graph, np.array([4]), np.array([], dtype=np.int64))
        assert subgraph.graph.num_users == 1
        assert subgraph.graph.num_items == 1  # dummy all-zero column
        assert subgraph.graph.num_edges == 0

    def test_from_csr_validates_structure(self):
        with pytest.raises(ValueError, match="indptr"):
            InteractionGraph.from_csr(2, 2, np.array([0, 1]), np.array([0]))
        with pytest.raises(ValueError, match="item index"):
            InteractionGraph.from_csr(
                1, 2, np.array([0, 1]), np.array([5])
            )
        graph = InteractionGraph.from_csr(
            2, 3, np.array([0, 2, 3]), np.array([0, 2, 1])
        )
        assert graph.num_edges == 3
        assert graph.user_neighbors(0).tolist() == [0, 2]
