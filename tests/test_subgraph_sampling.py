"""Batched k-hop subgraph sampling: extraction, caching and NMCDR equivalence.

The headline guarantee is gated here: with full neighbourhood coverage
(``num_hops`` at least the model's exactness depth, or at least the graph
diameter, and no fanout cap) sampled training reproduces the full-graph
losses *and parameter gradients* at float64 tolerance.  The remaining tests
cover the extraction edge cases: empty batch domains, isolated nodes,
overlap-user remapping in the cross-domain stages and cache-key behaviour
when different batches induce the same subgraph.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypothesis_budget import examples

from repro.baselines import build_model
from repro.core import (
    CDRTrainer,
    NMCDR,
    NMCDRConfig,
    TrainerConfig,
    build_task,
)
from repro.data import load_scenario
from repro.data.dataloader import Batch, InteractionDataLoader
from repro.graph import (
    InteractionGraph,
    SubgraphCache,
    induced_subgraph,
    sample_khop_nodes,
    sampling,
)


def small_task(scale=0.3, seed=13):
    return build_task(
        load_scenario("cloth_sport", scale=scale, seed=seed),
        head_threshold=7,
    )


def first_batches(task, batch_size=64):
    loader_a = InteractionDataLoader(
        task.domain("a").split, batch_size=batch_size, rng=np.random.default_rng(5)
    )
    loader_b = InteractionDataLoader(
        task.domain("b").split, batch_size=batch_size, rng=np.random.default_rng(6)
    )
    return next(iter(loader_a)), next(iter(loader_b))


def max_grad_difference(model_a, model_b):
    worst = 0.0
    for param_a, param_b in zip(model_a.parameters(), model_b.parameters()):
        grad_a = np.zeros_like(
            param_a.data,
        ) if param_a.grad is None else np.asarray(param_a.grad)
        grad_b = np.zeros_like(
            param_b.data,
        ) if param_b.grad is None else np.asarray(param_b.grad)
        worst = max(worst, float(np.max(np.abs(grad_a - grad_b))))
    return worst


def toy_graph():
    # users 0-4, items 0-3; user 4 is isolated, item 3 only touches user 3.
    return InteractionGraph(
        5,
        4,
        [0, 0, 1, 2, 3],
        [0, 1, 1, 2, 3],
    )


class TestKhopExtraction:
    def test_one_hop_covers_neighbour_items_only(self):
        users, items = sample_khop_nodes(toy_graph(), [0], [], num_hops=1)
        assert users.tolist() == [0]  # user 1 is two hops away (via item 1)
        assert items.tolist() == [0, 1]

    def test_two_hops_reach_co_interacting_users(self):
        users, items = sample_khop_nodes(toy_graph(), [0], [], num_hops=2)
        assert users.tolist() == [0, 1]
        assert items.tolist() == [0, 1]

    def test_hops_expand_until_component_is_covered(self):
        graph = toy_graph()
        users, items = sample_khop_nodes(graph, [0], [], num_hops=4)
        # User 0's connected component is {u0, u1} x {i0, i1}.
        assert users.tolist() == [0, 1]
        assert items.tolist() == [0, 1]
        users, items = sample_khop_nodes(graph, [2], [], num_hops=4)
        assert users.tolist() == [2]
        assert items.tolist() == [2]

    def test_isolated_seed_user_is_kept(self):
        users, items = sample_khop_nodes(toy_graph(), [4], [], num_hops=2)
        assert users.tolist() == [4]
        assert items.tolist() == []
        subgraph = induced_subgraph(toy_graph(), users, items)
        # A dummy all-zero item column is padded so the local graph exists.
        assert subgraph.graph.num_users == 1
        assert subgraph.graph.num_edges == 0

    def test_fanout_caps_per_node_expansion(self):
        rng = np.random.default_rng(0)
        users = rng.integers(0, 40, size=300)
        items = rng.integers(0, 30, size=300)
        graph = InteractionGraph(40, 30, users, items)
        full_users, full_items = sample_khop_nodes(graph, [0, 1], [], num_hops=1)
        capped_users, capped_items = sample_khop_nodes(
            graph,
            [0, 1],
            [],
            num_hops=1,
            fanout=2,
        )
        assert capped_items.size <= 2 * 2  # at most fanout items per seed user
        assert capped_items.size <= full_items.size
        assert np.isin(capped_items, full_items).all()
        # deterministic in the seed signature
        again_users, again_items = sample_khop_nodes(
            graph,
            [0, 1],
            [],
            num_hops=1,
            fanout=2,
        )
        assert np.array_equal(capped_items, again_items)
        assert np.array_equal(capped_users, again_users)

    def dense_graph(self, seed=0, num_users=50, num_items=40, num_edges=600):
        rng = np.random.default_rng(seed)
        users = rng.integers(0, num_users, size=num_edges)
        items = rng.integers(0, num_items, size=num_edges)
        return InteractionGraph(num_users, num_items, users, items)

    def test_fanout_reservoir_is_frontier_independent(self):
        """A node's capped neighbour draw must not depend on which other
        nodes share the frontier — the per-node reservoir contract."""
        graph = self.dense_graph()
        _, alone = sample_khop_nodes(graph, [3], [], num_hops=1, fanout=3)
        _, crowded = sample_khop_nodes(
            graph, [3, 7, 11, 19], [], num_hops=1, fanout=3
        )
        assert np.isin(alone, crowded).all()

    def test_fanout_expansion_distributes_over_seed_unions(self):
        """khop(S ∪ B) == khop(S) ∪ khop(B) under a fanout cap — the
        identity the incremental plan schedule's delta expansion relies on
        (pre-reservoir, whole-frontier rng draws violated it)."""
        graph = self.dense_graph(seed=1)
        static_seeds = np.array([0, 2, 4, 6, 8])
        batch_seeds = np.array([1, 4, 9, 13])
        batch_items = np.array([5, 17])
        for num_hops in (1, 2):
            joint = sample_khop_nodes(
                graph,
                np.union1d(static_seeds, batch_seeds),
                batch_items,
                num_hops=num_hops,
                fanout=3,
            )
            static = sample_khop_nodes(
                graph, static_seeds, [], num_hops=num_hops, fanout=3
            )
            delta = sample_khop_nodes(
                graph, batch_seeds, batch_items, num_hops=num_hops, fanout=3
            )
            np.testing.assert_array_equal(joint[0], np.union1d(static[0], delta[0]))
            np.testing.assert_array_equal(joint[1], np.union1d(static[1], delta[1]))

    def test_fanout_reservoir_subsets_nest_across_caps(self):
        graph = self.dense_graph(seed=2)
        _, small = sample_khop_nodes(graph, [5], [], num_hops=1, fanout=2)
        _, large = sample_khop_nodes(graph, [5], [], num_hops=1, fanout=4)
        assert np.isin(small, large).all()

    def test_induced_subgraph_keeps_all_edges_between_included_nodes(self):
        graph = toy_graph()
        subgraph = induced_subgraph(graph, np.array([0, 1]), np.array([0, 1]))
        assert subgraph.graph.num_edges == 3  # (0,0), (0,1), (1,1)
        assert subgraph.local_users([1]).tolist() == [1]
        assert subgraph.local_items([1]).tolist() == [1]
        with pytest.raises(KeyError):
            subgraph.local_users([3])

    def test_out_of_range_seeds_rejected(self):
        with pytest.raises(ValueError):
            sample_khop_nodes(toy_graph(), [99], [], num_hops=1)
        with pytest.raises(ValueError):
            sample_khop_nodes(toy_graph(), [0], [], num_hops=0)


def khop_oracle(graph, seed_users, seed_items, num_hops, fanout):
    """The per-frontier expansion the capped table replaced: every hop draws
    each frontier node's reservoir afresh with ``_gather_neighbors``."""
    csr = graph.adjacency()
    csc = graph.adjacency_item_major()
    user_frontier = np.unique(np.asarray(seed_users, dtype=np.int64))
    item_frontier = np.unique(np.asarray(seed_items, dtype=np.int64))
    user_mask = np.zeros(graph.num_users, dtype=bool)
    item_mask = np.zeros(graph.num_items, dtype=bool)
    user_mask[user_frontier] = True
    item_mask[item_frontier] = True
    for _ in range(num_hops):
        next_items = sampling._gather_neighbors(
            csr.indptr, csr.indices, user_frontier, fanout, side=0
        )
        next_users = sampling._gather_neighbors(
            csc.indptr, csc.indices, item_frontier, fanout, side=1
        )
        next_items = np.unique(next_items[~item_mask[next_items]])
        next_users = np.unique(next_users[~user_mask[next_users]])
        if next_items.size == 0 and next_users.size == 0:
            break
        item_mask[next_items] = True
        user_mask[next_users] = True
        user_frontier, item_frontier = next_users, next_items
    return np.where(user_mask)[0].astype(np.int64), np.where(item_mask)[0].astype(np.int64)


@st.composite
def khop_cases(draw):
    """Graphs with isolated users and items and degrees on both sides of
    any cap, built through either constructor; two seed sets (either may
    be empty); every fanout from 1 to one past the largest degree, or none;
    1-3 hops."""
    num_users = draw(st.integers(1, 12))
    num_items = draw(st.integers(1, 10))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, num_items - 1), max_size=num_items, unique=True),
            min_size=num_users,
            max_size=num_users,
        )
    )
    users = np.repeat(np.arange(num_users), [len(row) for row in rows])
    items = np.array([item for row in rows for item in row], dtype=np.int64)
    graph = InteractionGraph(num_users, num_items, users, items)
    if draw(st.booleans()):
        csr = graph.adjacency()
        graph = InteractionGraph.from_csr(num_users, num_items, csr.indptr, csr.indices)
    max_degree = int(max(graph.user_degrees().max(), graph.item_degrees().max()))
    fanout = draw(st.one_of(st.none(), st.integers(1, max_degree + 1)))
    seed_sets = [
        (
            draw(st.lists(st.integers(0, num_users - 1), max_size=num_users)),
            draw(st.lists(st.integers(0, num_items - 1), max_size=num_items)),
        )
        for _ in range(2)
    ]
    return graph, seed_sets, draw(st.integers(1, 3)), fanout


class TestCappedRowTable:
    @settings(max_examples=examples(100), deadline=None)
    @given(khop_cases())
    def test_expansion_is_byte_identical_to_the_per_frontier_reservoir(self, case):
        graph, seed_sets, num_hops, fanout = case
        # The second seed set expands over the table the first one built.
        for seed_users, seed_items in seed_sets:
            actual = sample_khop_nodes(graph, seed_users, seed_items, num_hops, fanout)
            expected = khop_oracle(graph, seed_users, seed_items, num_hops, fanout)
            for got, want in zip(actual, expected):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_table_is_built_once_per_graph_fanout_and_side(self, monkeypatch):
        builds = []
        gather = sampling._gather_neighbors

        def counting_gather(indptr, indices, frontier, fanout, side):
            builds.append((fanout, side))
            return gather(indptr, indices, frontier, fanout, side)

        monkeypatch.setattr(sampling, "_gather_neighbors", counting_gather)
        graph = toy_graph()
        sample_khop_nodes(graph, [0, 1], [2], num_hops=2)
        assert builds == []  # the uncapped path builds no table
        sample_khop_nodes(graph, [0, 1], [2], num_hops=2, fanout=1)
        assert builds == [(1, 0), (1, 1)]
        tables = [sampling._capped_adjacency(graph, 1, side) for side in (0, 1)]
        sample_khop_nodes(graph, [3, 4], [1], num_hops=3, fanout=1)
        assert builds == [(1, 0), (1, 1)]
        for side, table in zip((0, 1), tables):
            again = sampling._capped_adjacency(graph, 1, side)
            assert again[0] is table[0] and again[1] is table[1]
            assert not table[0].flags.writeable and not table[1].flags.writeable
        sample_khop_nodes(graph, [0], [], num_hops=1, fanout=2)
        assert builds == [(1, 0), (1, 1), (2, 0), (2, 1)]
        sample_khop_nodes(toy_graph(), [0], [], num_hops=1, fanout=1)
        assert builds == [(1, 0), (1, 1), (2, 0), (2, 1), (1, 0), (1, 1)]


class TestSubgraphCache:
    def test_same_node_set_hits_regardless_of_order_and_multiplicity(self):
        cache = SubgraphCache()
        graph = toy_graph()
        first = cache.get(graph, [1, 0, 0], [0], num_hops=1)
        second = cache.get(graph, [0, 1], [0, 0, 0], num_hops=1)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_key_covers_hops_and_fanout(self):
        cache = SubgraphCache()
        graph = toy_graph()
        a = cache.get(graph, [0], [], num_hops=1)
        b = cache.get(graph, [0], [], num_hops=2)
        c = cache.get(graph, [0], [], num_hops=1, fanout=1)
        assert a is not b and a is not c
        assert cache.misses == 3

    def test_different_batches_inducing_same_subgraph_share_operators(self):
        cache = SubgraphCache()
        graph = toy_graph()
        first = cache.get(graph, [0, 1], [0], num_hops=1)
        operator = first.graph.user_aggregation_matrix()
        second = cache.get(graph, [1, 0], [0], num_hops=1)
        # PR 1's operator memoisation rides along with the cached subgraph.
        assert second.graph.user_aggregation_matrix() is operator

    def test_lru_eviction(self):
        cache = SubgraphCache(max_entries=2)
        graph = toy_graph()
        cache.get(graph, [0], [], num_hops=1)
        cache.get(graph, [1], [], num_hops=1)
        cache.get(graph, [2], [], num_hops=1)
        assert len(cache) == 2


@pytest.mark.slow
class TestNMCDREquivalence:
    @pytest.mark.parametrize(
        "config_kwargs",
        [
            {},
            {"num_matching_layers": 2},
            {"num_encoder_layers": 2},
            {"max_matching_neighbors": None},
            {"gnn_kernel": "gcn"},
            {"gnn_kernel": "gat"},
            # Degree/attention-normalised kernels without the complementing
            # stage's extra hop: exactness must come from the kernel-aware
            # depth resolution (+1 for far-endpoint normalisation).
            {"gnn_kernel": "gcn", "use_complementing": False},
            {"gnn_kernel": "gat", "use_complementing": False},
            {"gnn_kernel": "gcn", "num_encoder_layers": 2, "use_complementing": False},
            {"use_complementing": False},
            {"use_inter_matching": False},
        ],
    )
    def test_sampled_loss_and_grads_match_full_graph(self, config_kwargs):
        config = NMCDRConfig(embedding_dim=16, seed=3, **config_kwargs)
        task = small_task()
        model_full = NMCDR(task, config)
        model_sampled = NMCDR(task, config)
        model_sampled.configure_subgraph_sampling(True)  # exactness depth, no fanout
        batch_a, batch_b = first_batches(task)

        loss_full = model_full.compute_batch_loss({"a": batch_a, "b": batch_b})
        loss_sampled = model_sampled.compute_batch_loss({"a": batch_a, "b": batch_b})
        assert abs(loss_full.item() - loss_sampled.item()) < 1e-10

        loss_full.backward()
        loss_sampled.backward()
        assert max_grad_difference(model_full, model_sampled) < 1e-10

    def test_num_hops_at_graph_diameter_matches_too(self):
        config = NMCDRConfig(embedding_dim=16, seed=3)
        task = small_task()
        diameter_bound = max(
            task.domain(key).train_graph.num_users + task.domain(key).train_graph.num_items
            for key in ("a", "b")
        )
        model_full = NMCDR(task, config)
        model_sampled = NMCDR(task, config)
        model_sampled.configure_subgraph_sampling(True, num_hops=diameter_bound)
        batch_a, batch_b = first_batches(task)
        loss_full = model_full.compute_batch_loss({"a": batch_a, "b": batch_b})
        loss_sampled = model_sampled.compute_batch_loss({"a": batch_a, "b": batch_b})
        assert abs(loss_full.item() - loss_sampled.item()) < 1e-10
        loss_full.backward()
        loss_sampled.backward()
        assert max_grad_difference(model_full, model_sampled) < 1e-10

    def test_empty_batch_domain(self):
        config = NMCDRConfig(embedding_dim=16, seed=3)
        task = small_task()
        model_full = NMCDR(task, config)
        model_sampled = NMCDR(task, config)
        model_sampled.configure_subgraph_sampling(True)
        batch_a, _ = first_batches(task)
        loss_full = model_full.compute_batch_loss({"a": batch_a, "b": None})
        loss_sampled = model_sampled.compute_batch_loss({"a": batch_a, "b": None})
        assert abs(loss_full.item() - loss_sampled.item()) < 1e-10

    def test_empty_batch_domain_without_inter_matching_skips_other_domain(self):
        config = NMCDRConfig(embedding_dim=16, seed=3, use_inter_matching=False)
        task = small_task()
        model = NMCDR(task, config)
        model.configure_subgraph_sampling(True)
        batch_a, _ = first_batches(task)
        loss = model.compute_batch_loss({"a": batch_a, "b": None})
        assert np.isfinite(loss.item())
        # Domain b contributed nothing, so its subgraph cache stayed cold
        # when no intra pools pulled it in either.
        reference = NMCDR(task, config)
        full_loss = reference.compute_batch_loss({"a": batch_a, "b": None})
        assert abs(loss.item() - full_loss.item()) < 1e-10

    def test_overlap_partner_rows_match_full_forward(self):
        """Cross-domain remapping: u_g3 of overlapped batch users is exact."""
        config = NMCDRConfig(embedding_dim=16, seed=3, max_matching_neighbors=None)
        task = small_task()
        model_full = NMCDR(task, config)
        model_sampled = NMCDR(task, config)
        model_sampled.configure_subgraph_sampling(True)

        overlap_a = task.overlap_indices("a")[:8]
        items_a = np.array(
            [task.domain("a").train_graph.user_neighbors(int(u))[0] for u in overlap_a]
        )
        batch = Batch(
            users=overlap_a.astype(np.int64),
            items=items_a.astype(np.int64),
            labels=np.ones(overlap_a.size),
        )
        reps_full = model_full.forward_representations()

        plan = model_sampled.plan_schedule.plan_for({"a": batch, "b": None})
        reps_sampled = model_sampled.forward_representations(plan)
        local = plan.domain("a").batch_users
        for stage in ("user_g2", "user_g3", "user_g4"):
            full_rows = reps_full["a"][stage].data[batch.users]
            sampled_rows = reps_sampled["a"][stage].data[local]
            assert np.allclose(full_rows, sampled_rows, atol=1e-12), stage

    def test_trainer_switch_trains_identically(self):
        task = small_task()

        def fit(sampled):
            model = NMCDR(task, NMCDRConfig(embedding_dim=16, seed=3))
            trainer = CDRTrainer(
                model,
                task,
                TrainerConfig(
                    num_epochs=2, batch_size=128, seed=11, sampled_subgraph_training=sampled
                ),
            )
            history = trainer.fit()
            return history.epoch_losses

        assert np.allclose(fit(False), fit(True), atol=1e-10)

    def test_fanout_mode_is_finite_and_bounded(self):
        """With a fanout cap the loss is approximate but well-defined."""
        task = small_task(scale=1.0)
        model = NMCDR(
            task,
            NMCDRConfig(embedding_dim=16, seed=3, max_matching_neighbors=8),
        )
        model.configure_subgraph_sampling(True, num_hops=1, fanout=4)
        batch_a, batch_b = first_batches(task, batch_size=32)
        loss = model.compute_batch_loss({"a": batch_a, "b": batch_b})
        assert np.isfinite(loss.item())
        loss.backward()
        subgraph = list(model._subgraph_caches["a"]._entries.values())[-1]
        assert subgraph.num_users < task.domain("a").train_graph.num_users

    def test_evaluation_stays_full_graph(self):
        task = small_task()
        model = NMCDR(task, NMCDRConfig(embedding_dim=16, seed=3))
        reference = NMCDR(task, NMCDRConfig(embedding_dim=16, seed=3))
        model.configure_subgraph_sampling(True, num_hops=1, fanout=2)
        users = np.arange(10)
        items = np.arange(10)
        assert np.allclose(
            model.score("a", users, items), reference.score("a", users, items), atol=0
        )


@pytest.mark.slow
class TestGraphBaselineEquivalence:
    @pytest.mark.parametrize("name", ["GA-DTCDR", "HeroGraph"])
    def test_sampled_training_matches_full_graph(self, name):
        task = small_task()
        batch_a, batch_b = first_batches(task)
        model_full = build_model(name, task, embedding_dim=16, seed=3)
        model_sampled = build_model(name, task, embedding_dim=16, seed=3)
        model_sampled.configure_subgraph_sampling(True)
        loss_full = model_full.compute_batch_loss({"a": batch_a, "b": batch_b})
        loss_sampled = model_sampled.compute_batch_loss({"a": batch_a, "b": batch_b})
        assert abs(loss_full.item() - loss_sampled.item()) < 1e-10
        loss_full.backward()
        loss_sampled.backward()
        assert max_grad_difference(model_full, model_sampled) < 1e-10
