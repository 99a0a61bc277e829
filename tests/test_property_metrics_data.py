"""Property-based tests for ranking metrics, graphs and data invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hypothesis_budget import examples

from repro.data import DomainSpec, ScenarioSpec, generate_scenario
from repro.graph import InteractionGraph
from repro.metrics import hit_rate_at_k, mrr, ndcg_at_k, rank_of_positive

score_matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 20), st.integers(2, 30)),
    elements=st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False),
)


class TestRankingMetricProperties:
    @settings(max_examples=examples(50), deadline=None)
    @given(score_matrices)
    def test_ranks_within_bounds(self, scores):
        ranks = rank_of_positive(scores)
        assert np.all(ranks >= 1)
        assert np.all(ranks <= scores.shape[1])

    @settings(max_examples=examples(50), deadline=None)
    @given(score_matrices)
    def test_hr_monotone_in_k(self, scores):
        values = [hit_rate_at_k(scores, k) for k in range(1, scores.shape[1] + 1)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0  # the positive always lands somewhere

    @settings(max_examples=examples(50), deadline=None)
    @given(score_matrices)
    def test_ndcg_bounded_by_hr(self, scores):
        for k in (1, 5, 10):
            assert ndcg_at_k(scores, k) <= hit_rate_at_k(scores, k) + 1e-12

    @settings(max_examples=examples(50), deadline=None)
    @given(score_matrices)
    def test_metrics_in_unit_interval(self, scores):
        assert 0.0 <= hit_rate_at_k(scores, 10) <= 1.0
        assert 0.0 <= ndcg_at_k(scores, 10) <= 1.0
        assert 0.0 < mrr(scores) <= 1.0

    @settings(max_examples=examples(50), deadline=None)
    @given(score_matrices)
    def test_negative_permutation_invariance(self, scores):
        rng = np.random.default_rng(0)
        permuted = scores.copy()
        permuted[:, 1:] = permuted[:, 1:][:, rng.permutation(scores.shape[1] - 1)]
        assert hit_rate_at_k(scores, 10) == hit_rate_at_k(permuted, 10)
        assert ndcg_at_k(scores, 10) == ndcg_at_k(permuted, 10)

    @settings(max_examples=examples(50), deadline=None)
    @given(score_matrices)
    def test_boosting_positive_never_hurts(self, scores):
        boosted = scores.copy()
        boosted[:, 0] += 10.0
        assert ndcg_at_k(boosted, 10) >= ndcg_at_k(scores, 10) - 1e-12


@st.composite
def edge_lists(draw):
    num_users = draw(st.integers(min_value=1, max_value=15))
    num_items = draw(st.integers(min_value=1, max_value=15))
    num_edges = draw(st.integers(min_value=0, max_value=40))
    users = draw(
        hnp.arrays(np.int64, num_edges, elements=st.integers(0, num_users - 1))
    )
    items = draw(
        hnp.arrays(np.int64, num_edges, elements=st.integers(0, num_items - 1))
    )
    return num_users, num_items, users, items


class TestGraphProperties:
    @settings(max_examples=examples(50), deadline=None)
    @given(edge_lists())
    def test_degrees_sum_to_edge_count(self, data):
        num_users, num_items, users, items = data
        graph = InteractionGraph(num_users, num_items, users, items)
        assert graph.user_degrees().sum() == graph.num_edges
        assert graph.item_degrees().sum() == graph.num_edges

    @settings(max_examples=examples(50), deadline=None)
    @given(edge_lists())
    def test_aggregation_rows_are_stochastic(self, data):
        num_users, num_items, users, items = data
        graph = InteractionGraph(num_users, num_items, users, items)
        sums = np.asarray(graph.user_aggregation_matrix().sum(axis=1)).ravel()
        degrees = graph.user_degrees()
        assert np.allclose(sums[degrees > 0], 1.0)
        assert np.allclose(sums[degrees == 0], 0.0)

    @settings(max_examples=examples(50), deadline=None)
    @given(edge_lists(), st.integers(min_value=0, max_value=10))
    def test_head_tail_partition_covers_users(self, data, threshold):
        num_users, num_items, users, items = data
        graph = InteractionGraph(num_users, num_items, users, items)
        head, tail = graph.head_tail_split(threshold)
        assert head.size + tail.size == num_users
        assert len(set(head.tolist()) & set(tail.tolist())) == 0


class TestSyntheticDataProperties:
    @settings(max_examples=examples(10), deadline=None)
    @given(
        st.integers(min_value=20, max_value=60),
        st.integers(min_value=20, max_value=50),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=1000),
    )
    def test_generated_scenarios_satisfy_invariants(
        self,
        users_a,
        users_b,
        overlap,
        seed,
    ):
        spec = ScenarioSpec(
            "prop",
            DomainSpec("A", users_a, 30, mean_interactions_per_user=6),
            DomainSpec("B", users_b, 30, mean_interactions_per_user=6),
            num_overlap=min(overlap, users_a, users_b),
            seed=seed,
        )
        dataset = generate_scenario(spec)
        assert dataset.num_overlapping == spec.num_overlap
        assert dataset.domain_a.user_degrees().min() >= spec.domain_a.min_interactions_per_user
        assert dataset.domain_b.user_degrees().min() >= spec.domain_b.min_interactions_per_user
        # no duplicate (user, item) pairs per domain
        for domain in dataset.domains():
            pairs = set(zip(domain.users.tolist(), domain.items.tolist()))
            assert len(pairs) == domain.num_interactions
