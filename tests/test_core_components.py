"""Tests for the NMCDR building blocks: config, task, encoder, matching, complementing."""

import numpy as np
import pytest

from repro.core import (
    CDRTask,
    HeterogeneousGraphEncoder,
    IntraNodeComplementing,
    InterNodeMatching,
    IntraNodeMatching,
    NMCDRConfig,
    PredictionHead,
    TrainerConfig,
)
from repro.graph import (
    HeadTailPartition,
    InteractionGraph,
    MatchingNeighborSampler,
    segment_softmax_attend,
)
from repro.tensor import Tensor


class TestConfig:
    def test_defaults_resolve_dimensions(self):
        config = NMCDRConfig(embedding_dim=48)
        assert config.resolved_hge_dim == 48
        assert config.resolved_igm_dim == 48
        assert config.resolved_cgm_dim == 48
        assert config.resolved_ref_dim == 48

    def test_explicit_dimensions(self):
        config = NMCDRConfig(embedding_dim=32, hge_dim=16)
        assert config.resolved_hge_dim == 16

    def test_variant_override(self):
        config = NMCDRConfig()
        ablated = config.variant(use_companion=False)
        assert config.use_companion and not ablated.use_companion

    def test_validation(self):
        with pytest.raises(ValueError):
            NMCDRConfig(embedding_dim=0)
        with pytest.raises(ValueError):
            NMCDRConfig(num_matching_layers=0)
        with pytest.raises(ValueError):
            NMCDRConfig(companion_weights=(1.0, 1.0))
        with pytest.raises(ValueError):
            NMCDRConfig(head_threshold=-1)

    def test_trainer_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(num_epochs=0)
        with pytest.raises(ValueError):
            TrainerConfig(learning_rate=-0.1)
        assert TrainerConfig().variant(num_epochs=3).num_epochs == 3


class TestTask:
    def test_build_task_structure(self, tiny_dataset, tiny_task):
        assert isinstance(tiny_task, CDRTask)
        assert tiny_task.domain("a").domain.name == tiny_dataset.domain_a.name
        assert tiny_task.other_key("a") == "b"
        assert tiny_task.num_overlapping == tiny_dataset.num_overlapping
        with pytest.raises(KeyError):
            tiny_task.domain("c")

    def test_train_graph_excludes_heldout(self, tiny_task):
        for key in ("a", "b"):
            domain_task = tiny_task.domain(key)
            graph = domain_task.train_graph
            split = domain_task.split
            for user, item in zip(split.test_users[:20], split.test_items[:20]):
                assert not graph.has_edge(int(user), int(item))

    def test_overlap_indices_are_aligned(self, tiny_task):
        idx_a = tiny_task.overlap_indices("a")
        idx_b = tiny_task.overlap_indices("b")
        gids_a = tiny_task.domain_a.domain.global_user_ids[idx_a]
        gids_b = tiny_task.domain_b.domain.global_user_ids[idx_b]
        assert np.array_equal(gids_a, gids_b)

    def test_non_overlap_indices_complement(self, tiny_task):
        for key in ("a", "b"):
            num_users = tiny_task.domain(key).num_users
            overlap = set(tiny_task.overlap_indices(key).tolist())
            non_overlap = set(tiny_task.non_overlap_indices(key).tolist())
            assert overlap | non_overlap == set(range(num_users))
            assert overlap & non_overlap == set()

    def test_summary_keys(self, tiny_task):
        summary = tiny_task.summary()
        assert {"scenario", "overlap", "domain_a", "domain_b"} <= set(summary)


@pytest.fixture()
def toy_graph():
    users = [0, 0, 1, 2, 3, 3, 3]
    items = [0, 1, 1, 2, 0, 2, 3]
    return InteractionGraph(4, 4, users, items)


class TestEncoder:
    def test_output_shapes(self, toy_graph, rng):
        encoder = HeterogeneousGraphEncoder(8, 6, num_layers=2, rng=rng)
        users, items = encoder(
            toy_graph,
            Tensor(rng.normal(size=(4, 8))),
            Tensor(rng.normal(size=(4, 8))),
        )
        assert users.shape == (4, 6)
        assert items.shape == (4, 6)

    def test_gradients_flow_to_embeddings(self, toy_graph, rng):
        encoder = HeterogeneousGraphEncoder(4, 4, rng=rng)
        user_embeddings = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        item_embeddings = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        users, items = encoder(toy_graph, user_embeddings, item_embeddings)
        (users.sum() + items.sum()).backward()
        assert np.any(user_embeddings.grad != 0)
        assert np.any(item_embeddings.grad != 0)

    def test_invalid_layers(self):
        with pytest.raises(ValueError):
            HeterogeneousGraphEncoder(4, 4, num_layers=0)

    def test_kernel_selection(self, toy_graph, rng):
        encoder = HeterogeneousGraphEncoder(4, 4, kernel="gcn", rng=rng)
        users, _ = encoder(
            toy_graph,
            Tensor(rng.normal(size=(4, 4))),
            Tensor(rng.normal(size=(4, 4))),
        )
        assert users.shape == (4, 4)


class TestIntraNodeMatching:
    def test_residual_and_shape(self, rng):
        matching = IntraNodeMatching(8, 8, rng=rng)
        user_repr = Tensor(rng.normal(size=(10, 8)), requires_grad=True)
        partition = HeadTailPartition(rng.integers(1, 20, size=10), threshold=7)
        out = matching(user_repr, partition)
        assert out.shape == (10, 8)
        # residual: output differs from input but stays correlated with it
        assert not np.allclose(out.data, user_repr.data)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IntraNodeMatching(8, 16)

    def test_empty_head_group_is_handled(self, rng):
        matching = IntraNodeMatching(4, 4, rng=rng)
        user_repr = Tensor(rng.normal(size=(5, 4)))
        partition = HeadTailPartition(np.ones(5, dtype=int), threshold=10)  # everyone tail
        out = matching(user_repr, partition)
        assert out.shape == (5, 4)
        assert np.all(np.isfinite(out.data))

    def test_gradients_reach_parameters(self, rng):
        matching = IntraNodeMatching(4, 4, rng=rng)
        user_repr = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        partition = HeadTailPartition(rng.integers(1, 20, size=6), threshold=7)
        matching(user_repr, partition).sum().backward()
        assert matching.head_transform.weight.grad is not None
        assert matching.tail_transform.weight.grad is not None
        assert user_repr.grad is not None

    def test_sampler_limits_pool(self, rng):
        matching = IntraNodeMatching(4, 4, rng=rng)
        user_repr = Tensor(rng.normal(size=(50, 4)))
        partition = HeadTailPartition(rng.integers(1, 20, size=50), threshold=7)
        sampler = MatchingNeighborSampler(max_neighbors=3, rng=rng)
        out = matching(user_repr, partition, sampler)
        assert out.shape == (50, 4)


class TestInterNodeMatching:
    def _setup(self, rng, num_a=6, num_b=5, dim=4, num_overlap=3):
        matching_a = InterNodeMatching(dim, dim, rng=rng)
        matching_b = InterNodeMatching(dim, dim, rng=rng)
        repr_a = Tensor(rng.normal(size=(num_a, dim)), requires_grad=True)
        repr_b = Tensor(rng.normal(size=(num_b, dim)), requires_grad=True)
        own_overlap = np.arange(num_overlap)
        other_overlap = np.arange(num_overlap)
        other_non_overlap = np.arange(num_overlap, num_b)
        return matching_a, matching_b, repr_a, repr_b, own_overlap, other_overlap, other_non_overlap

    def test_output_shape_and_gradients(self, rng):
        matching_a, matching_b, repr_a, repr_b, own, other, non = self._setup(rng)
        out = matching_a(repr_a, repr_b, own, other, non, matching_b.cross)
        assert out.shape == repr_a.shape
        out.sum().backward()
        assert repr_a.grad is not None
        assert repr_b.grad is not None
        assert matching_a.self_transform.weight.grad is not None

    def test_overlapped_users_receive_partner_information(self, rng):
        matching_a, matching_b, repr_a, repr_b, own, other, non = self._setup(rng)
        baseline = matching_a(
            repr_a,
            repr_b,
            own,
            other,
            non,
            matching_b.cross,
        ).data.copy()
        # perturb the partner of overlapped user 0 only
        perturbed_b = Tensor(repr_b.data.copy())
        perturbed_b.data[0] += 10.0
        changed = matching_a(
            repr_a,
            perturbed_b,
            own,
            other,
            non,
            matching_b.cross,
        ).data
        assert not np.allclose(baseline[0], changed[0])

    def test_no_overlap_still_works(self, rng):
        matching_a, matching_b, repr_a, repr_b, _, _, _ = self._setup(
            rng,
            num_overlap=0,
        )
        empty = np.zeros(0, dtype=np.int64)
        out = matching_a(repr_a, repr_b, empty, empty, np.arange(5), matching_b.cross)
        assert np.all(np.isfinite(out.data))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            InterNodeMatching(4, 8)


class TestComplementing:
    def test_output_shape_and_finiteness(self, toy_graph, rng):
        complementing = IntraNodeComplementing(4, 4, rng=rng)
        users = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        items = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        out = complementing(toy_graph, users, items)
        assert out.shape == (4, 4)
        assert np.all(np.isfinite(out.data))
        out.sum().backward()
        assert users.grad is not None and items.grad is not None

    def test_attention_weights_sum_to_one_per_user(self, toy_graph, rng):
        complementing = IntraNodeComplementing(4, 4, rng=rng)
        users = Tensor(rng.normal(size=(4, 4)))
        items = Tensor(rng.normal(size=(4, 4)))
        weights = complementing.virtual_link_strengths(toy_graph, users, items)
        sums = np.zeros(4)
        np.add.at(sums, toy_graph.user_indices, weights)
        degrees = toy_graph.user_degrees()
        assert np.allclose(sums[degrees > 0], 1.0)

    @pytest.mark.parametrize("spread", [1.0, 50.0])
    def test_virtual_link_strengths_are_the_kernels_attention(self, toy_graph, rng, spread):
        """The analysis helper reports the weights the model aggregates with,
        bit for bit (the large spread exercises the kernel's ±60 clip).
        With identity values the kernel's output row of user ``u`` holds
        ``att(u, i)`` in column ``i``: every other term adds an exact zero."""
        complementing = IntraNodeComplementing(4, 4, rng=rng)
        users = Tensor(spread * rng.normal(size=(4, 4)))
        items = Tensor(rng.normal(size=(4, 4)))
        weights = complementing.virtual_link_strengths(toy_graph, users, items)
        aggregated = segment_softmax_attend(
            users,
            items,
            Tensor(np.eye(toy_graph.num_items)),
            toy_graph.user_indices,
            toy_graph.item_indices,
            toy_graph.num_users,
        ).data
        kernel_weights = aggregated[toy_graph.user_indices, toy_graph.item_indices]
        assert weights.tobytes() == kernel_weights.tobytes()

    def test_empty_graph_returns_input(self, rng):
        graph = InteractionGraph(3, 3, [], [])
        complementing = IntraNodeComplementing(4, 4, rng=rng)
        users = Tensor(rng.normal(size=(3, 4)))
        out = complementing(graph, users, Tensor(rng.normal(size=(3, 4))))
        assert np.allclose(out.data, users.data)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            IntraNodeComplementing(4, 8)


class TestPredictionHead:
    def test_probability_range(self, rng):
        head = PredictionHead(8, 8, rng=rng)
        out = head(Tensor(rng.normal(size=(10, 8))), Tensor(rng.normal(size=(10, 8))))
        assert out.shape == (10, 1)
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_logits_unbounded(self, rng):
        head = PredictionHead(4, 4, rng=rng)
        logits = head.logits(
            Tensor(rng.normal(size=(5, 4))),
            Tensor(rng.normal(size=(5, 4))),
        )
        assert logits.shape == (5, 1)

    def test_misaligned_batches_rejected(self, rng):
        head = PredictionHead(4, 4, rng=rng)
        with pytest.raises(ValueError):
            head(Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(5, 4))))
