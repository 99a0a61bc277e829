"""Tests for leave-one-out splitting, negative sampling and the data loader."""

import numpy as np
import pytest

from repro.data import (
    DomainData,
    InteractionDataLoader,
    NegativeSampler,
    build_ranking_candidates,
    build_training_examples,
    leave_one_out_split,
)


def make_domain(num_users=5, num_items=20, interactions_per_user=6, seed=0):
    rng = np.random.default_rng(seed)
    users, items, times = [], [], []
    for user in range(num_users):
        chosen = rng.choice(num_items, size=interactions_per_user, replace=False)
        users.extend([user] * interactions_per_user)
        items.extend(chosen.tolist())
        times.extend(np.arange(interactions_per_user).tolist())
    return DomainData(
        name="toy",
        num_users=num_users,
        num_items=num_items,
        users=np.array(users),
        items=np.array(items),
        timestamps=np.array(times, dtype=float),
        global_user_ids=np.arange(num_users),
    )


class TestLeaveOneOut:
    def test_counts(self):
        domain = make_domain()
        split = leave_one_out_split(domain)
        assert split.num_eval_users == 5
        assert split.valid_users.shape == (5,)
        assert split.num_train == domain.num_interactions - 2 * 5

    def test_test_item_is_most_recent(self):
        domain = make_domain(num_users=1, interactions_per_user=4)
        split = leave_one_out_split(domain)
        # timestamps are 0..3, so the test item is the one with timestamp 3
        latest_item = domain.items[np.argmax(domain.timestamps)]
        assert split.test_items[0] == latest_item

    def test_no_leakage_between_splits(self):
        domain = make_domain()
        split = leave_one_out_split(domain)
        for user, test_item in zip(split.test_users, split.test_items):
            train_items_of_user = split.train_items[split.train_users == user]
            assert test_item not in train_items_of_user

    def test_users_with_too_few_interactions_are_train_only(self):
        domain = DomainData(
            name="toy",
            num_users=2,
            num_items=5,
            users=np.array([0, 0, 0, 1, 1]),
            items=np.array([0, 1, 2, 3, 4]),
            timestamps=np.arange(5, dtype=float),
            global_user_ids=np.arange(2),
        )
        split = leave_one_out_split(domain, min_eval_interactions=3)
        assert 1 not in split.test_users
        assert np.sum(split.train_users == 1) == 2

    def test_train_domain_view(self):
        domain = make_domain()
        split = leave_one_out_split(domain)
        train_view = split.train_domain()
        assert train_view.num_interactions == split.num_train
        assert train_view.num_users == domain.num_users


class TestNegativeSampler:
    def test_negatives_not_interacted(self):
        domain = make_domain()
        sampler = NegativeSampler(domain, rng=np.random.default_rng(0))
        for user in range(domain.num_users):
            negatives = sampler.sample_for_user(user, 5)
            assert len(set(negatives.tolist()) & sampler.interacted(user)) == 0
            assert negatives.size == 5
            assert len(set(negatives.tolist())) == 5

    def test_small_catalogue_returns_all_unseen(self):
        domain = DomainData(
            name="toy",
            num_users=1,
            num_items=4,
            users=np.array([0, 0]),
            items=np.array([0, 1]),
            timestamps=np.arange(2, dtype=float),
            global_user_ids=np.arange(1),
        )
        sampler = NegativeSampler(domain)
        negatives = sampler.sample_for_user(0, 10)
        assert set(negatives.tolist()) == {2, 3}

    def test_errors(self):
        domain = DomainData(
            name="toy",
            num_users=1,
            num_items=2,
            users=np.array([0, 0]),
            items=np.array([0, 1]),
            timestamps=np.arange(2, dtype=float),
            global_user_ids=np.arange(1),
        )
        sampler = NegativeSampler(domain)
        with pytest.raises(ValueError):
            sampler.sample_for_user(0, 1)

    @pytest.mark.parametrize("user", [-1, 2, 5])
    def test_out_of_range_user_raises_before_drawing(self, user):
        domain = make_domain(num_users=2, num_items=6, interactions_per_user=2)
        rng = np.random.default_rng(0)
        sampler = NegativeSampler(domain, rng=rng)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"user index out of range \[0, 2\)"):
            sampler.sample_for_user(user, 3)
        assert rng.bit_generator.state == state
        # Same error as the batch sampler gives for the same user.
        with pytest.raises(ValueError, match=r"user index out of range \[0, 2\)"):
            sampler.sample_pairs(np.array([user]), negatives_per_positive=3)

    def test_sample_for_user_is_deterministic_and_sorted(self):
        # The per-user draw behind ranking candidates: one seed, one stream.
        domain = make_domain()
        draws = []
        for _ in range(2):
            sampler = NegativeSampler(domain, rng=np.random.default_rng(9))
            draws.append([sampler.sample_for_user(user, 3) for user in range(domain.num_users)])
        for first, second in zip(*draws):
            assert np.array_equal(first, second)
            assert np.all(first[1:] > first[:-1])

    def test_sample_pairs_shape(self):
        domain = make_domain()
        sampler = NegativeSampler(domain, rng=np.random.default_rng(0))
        out = sampler.sample_pairs(np.array([0, 1, 2]), negatives_per_positive=2)
        assert out.shape == (3, 2)


class TestVectorizedNegativeSampler:
    """Distribution / determinism coverage of the rejection sampler and its
    exact fallback (near-saturated users)."""

    def _assert_valid(self, sampler, users, out):
        for user, row in zip(users, out):
            assert len(set(row.tolist()) & sampler.interacted(int(user))) == 0
            assert len(set(row.tolist())) == row.size

    def test_vectorized_rows_are_unseen_and_distinct(self):
        domain = make_domain(num_users=8, num_items=30, interactions_per_user=6)
        sampler = NegativeSampler(domain, rng=np.random.default_rng(1))
        users = np.repeat(np.arange(8), 5)
        out = sampler.sample_pairs(users, negatives_per_positive=3)
        assert out.shape == (40, 3)
        self._assert_valid(sampler, users, out)
        # rows come back sorted, matching sample_for_user's convention
        assert np.all(out[:, 1:] > out[:, :-1])

    def test_exact_fallback_rows_are_unseen_and_distinct(self):
        # 16 of 20 items seen -> far past the saturation threshold.
        domain = make_domain(
            num_users=3,
            num_items=20,
            interactions_per_user=16,
            seed=2,
        )
        sampler = NegativeSampler(domain, rng=np.random.default_rng(3))
        users = np.repeat(np.arange(3), 20)
        out = sampler.sample_pairs(users, negatives_per_positive=2)
        self._assert_valid(sampler, users, out)

    def test_both_paths_are_deterministic_under_a_seed(self):
        for interactions in (6, 16):
            domain = make_domain(
                num_users=4,
                num_items=20,
                interactions_per_user=interactions,
            )
            users = np.repeat(np.arange(4), 8)
            draws = [
                NegativeSampler(domain, rng=np.random.default_rng(7)).sample_pairs(
                    users, negatives_per_positive=2
                )
                for _ in range(2)
            ]
            assert np.array_equal(draws[0], draws[1])

    def test_vectorized_distribution_is_uniform_over_unseen(self):
        domain = make_domain(num_users=2, num_items=25, interactions_per_user=5, seed=4)
        sampler = NegativeSampler(domain, rng=np.random.default_rng(5))
        users = np.zeros(4000, dtype=np.int64)
        out = sampler.sample_pairs(users, negatives_per_positive=1)
        counts = np.bincount(out.ravel(), minlength=domain.num_items)
        unseen = np.setdiff1d(
            np.arange(domain.num_items),
            sorted(sampler.interacted(0)),
        )
        assert counts[list(sampler.interacted(0))].sum() == 0
        expected = len(users) / unseen.size
        assert np.all(np.abs(counts[unseen] - expected) < 5 * np.sqrt(expected))

    def test_fallback_distribution_is_uniform_over_unseen(self):
        domain = make_domain(
            num_users=1,
            num_items=20,
            interactions_per_user=15,
            seed=6,
        )
        sampler = NegativeSampler(domain, rng=np.random.default_rng(8))
        users = np.zeros(3000, dtype=np.int64)
        out = sampler.sample_pairs(users, negatives_per_positive=1)
        counts = np.bincount(out.ravel(), minlength=domain.num_items)
        unseen = np.setdiff1d(
            np.arange(domain.num_items),
            sorted(sampler.interacted(0)),
        )
        assert counts[list(sampler.interacted(0))].sum() == 0
        expected = len(users) / unseen.size
        assert np.all(np.abs(counts[unseen] - expected) < 5 * np.sqrt(expected))

    def test_saturated_user_raises(self):
        domain = DomainData(
            name="toy",
            num_users=1,
            num_items=2,
            users=np.array([0, 0]),
            items=np.array([0, 1]),
            timestamps=np.arange(2, dtype=float),
            global_user_ids=np.arange(1),
        )
        sampler = NegativeSampler(domain)
        with pytest.raises(ValueError):
            sampler.sample_pairs(np.array([0]), negatives_per_positive=1)


class TestRankingCandidates:
    def test_shapes_and_positive_first(self):
        domain = make_domain(num_items=40)
        split = leave_one_out_split(domain)
        users, candidates = build_ranking_candidates(
            split,
            num_negatives=10,
            rng=np.random.default_rng(0),
        )
        assert candidates.shape == (split.num_eval_users, 11)
        assert np.array_equal(candidates[:, 0], split.test_items)

    def test_negatives_exclude_all_interactions(self):
        domain = make_domain(num_items=40)
        split = leave_one_out_split(domain)
        users, candidates = build_ranking_candidates(
            split,
            num_negatives=10,
            rng=np.random.default_rng(0),
        )
        sampler = NegativeSampler(domain)
        for user, row in zip(users, candidates):
            assert len(set(row[1:].tolist()) & sampler.interacted(int(user))) == 0

    def test_clamps_to_available_items(self):
        domain = make_domain(num_items=10, interactions_per_user=6)
        split = leave_one_out_split(domain)
        _, candidates = build_ranking_candidates(split, num_negatives=199)
        assert candidates.shape[1] <= 10

    def test_valid_subset(self):
        domain = make_domain()
        split = leave_one_out_split(domain)
        users, candidates = build_ranking_candidates(
            split,
            num_negatives=5,
            subset="valid",
        )
        assert np.array_equal(candidates[:, 0], split.valid_items)
        with pytest.raises(ValueError):
            build_ranking_candidates(split, subset="train")


class TestDataLoader:
    def test_training_examples_balance(self):
        domain = make_domain()
        split = leave_one_out_split(domain)
        users, items, labels = build_training_examples(split, negatives_per_positive=1)
        assert labels.mean() == pytest.approx(0.5)
        assert users.shape == items.shape == labels.shape

    def test_training_examples_replay_under_the_same_rng(self):
        split = leave_one_out_split(make_domain())
        first = build_training_examples(split, 2, rng=np.random.default_rng(4))
        second = build_training_examples(split, 2, rng=np.random.default_rng(4))
        for left, right in zip(first, second):
            assert np.array_equal(left, right)

    def test_training_examples_replay_with_a_reused_sampler(self):
        # Building the sampler draws nothing, so a sampler holding the rng
        # (as the loader keeps one across epochs) replays the same stream.
        split = leave_one_out_split(make_domain())
        fresh = build_training_examples(split, 2, rng=np.random.default_rng(4))
        sampler = NegativeSampler(split.domain, rng=np.random.default_rng(4))
        reused = build_training_examples(split, 2, sampler=sampler)
        for left, right in zip(fresh, reused):
            assert np.array_equal(left, right)
        # A second epoch through the same sampler draws new negatives.
        again = build_training_examples(split, 2, sampler=sampler)
        assert not np.array_equal(reused[1], again[1])

    def test_loader_covers_all_examples(self):
        domain = make_domain()
        split = leave_one_out_split(domain)
        loader = InteractionDataLoader(
            split,
            batch_size=7,
            rng=np.random.default_rng(0),
        )
        total = sum(len(batch) for batch in loader)
        assert total == split.num_train * 2
        assert len(loader) == int(np.ceil(total / 7))

    def test_labels_are_binary(self):
        domain = make_domain()
        split = leave_one_out_split(domain)
        loader = InteractionDataLoader(
            split,
            batch_size=16,
            rng=np.random.default_rng(0),
        )
        for batch in loader:
            assert set(np.unique(batch.labels)).issubset({0.0, 1.0})

    def test_invalid_arguments(self):
        domain = make_domain()
        split = leave_one_out_split(domain)
        with pytest.raises(ValueError):
            InteractionDataLoader(split, batch_size=0)
        with pytest.raises(ValueError):
            InteractionDataLoader(split, negatives_per_positive=0)

    def test_negative_resampling_changes_between_epochs(self):
        domain = make_domain()
        split = leave_one_out_split(domain)
        loader = InteractionDataLoader(
            split,
            batch_size=1000,
            rng=np.random.default_rng(0),
        )
        first = np.sort(np.concatenate([batch.items for batch in loader]))
        second = np.sort(np.concatenate([batch.items for batch in loader]))
        assert not np.array_equal(first, second)
