"""Negative sampling for training and for the 1-plus-199 ranking protocol.

The paper fixes "the negative sampling number ... as 1 for training and 199
for validation and test".  Negatives are always items the user has *not*
interacted with in the full log of that domain.

Training negatives are drawn by a **vectorised rejection sampler**: one
candidate matrix is drawn for the whole batch, collisions with the user→items
CSR (and within-row duplicates) are masked with a single sorted-key lookup
and redrawn.  Users whose histories nearly saturate the catalogue fall back
to an exact per-user draw over the materialised unseen set — rejection odds
degrade exactly when enumerating the complement is cheap.

Ranking candidates are drawn one user at a time by
:meth:`NegativeSampler.sample_for_user`, the seed implementation's per-user
loop.  The numeric-parity suite replays training negatives through it too,
because its recorded losses were produced against that rng stream.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

import numpy as np

from .schema import DomainData
from .split import DomainSplit

__all__ = ["NegativeSampler", "build_ranking_candidates"]

#: Seen-fraction above which the exact complement draw replaces rejection.
_SATURATION_FRACTION = 0.5

#: Redraw rounds before the stragglers are handed to the exact fallback.
_MAX_REJECTION_ROUNDS = 32


class NegativeSampler:
    """Sample negative items uniformly from each user's non-interacted items."""

    def __init__(
        self,
        domain: DomainData,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.num_items = domain.num_items
        self.num_users = domain.num_users
        self._rng = rng or np.random.default_rng(0)

        # User-major CSR of the full interaction log: `_seen_items[_indptr[u]:
        # _indptr[u+1]]` are the (sorted, deduplicated) items of user `u`.
        users = np.asarray(domain.users, dtype=np.int64)
        items = np.asarray(domain.items, dtype=np.int64)
        keys = np.unique(users * np.int64(self.num_items) + items)
        seen_users = keys // self.num_items
        self._seen_items = (keys % self.num_items).astype(np.int64)
        self._seen_counts = np.bincount(
            seen_users,
            minlength=self.num_users,
        ).astype(np.int64)
        self._indptr = np.concatenate(
            ([0], np.cumsum(self._seen_counts)),
        ).astype(np.int64)
        #: Sorted combined (user, item) keys for O(log E) membership tests.
        self._seen_keys = keys

    def interacted(self, user: int) -> Set[int]:
        """Items the user has interacted with anywhere in the log."""
        user = int(user)
        if not 0 <= user < self.num_users:
            return set()
        return set(
            self._seen_items[self._indptr[user] : self._indptr[user + 1]].tolist(),
        )

    def seen_counts(self, users: np.ndarray) -> np.ndarray:
        """Per-user interaction counts (vectorised ``len(interacted(u))``)."""
        users = np.asarray(users, dtype=np.int64)
        if users.size and (users.min() < 0 or users.max() >= self.num_users):
            raise ValueError(f"user index out of range [0, {self.num_users})")
        return self._seen_counts[users]

    def _seen_slice(self, user: int) -> np.ndarray:
        return self._seen_items[self._indptr[user] : self._indptr[user + 1]]

    def sample_for_user(self, user: int, count: int) -> np.ndarray:
        """Sample ``count`` negatives for ``user`` (without replacement when possible)."""
        user = int(user)
        if not 0 <= user < self.num_users:
            raise ValueError(f"user index out of range [0, {self.num_users})")
        seen = self.interacted(user)
        available = self.num_items - len(seen)
        if available <= 0:
            raise ValueError(
                f"user {user} has interacted with every item; cannot sample negatives",
            )
        if count <= 0:
            raise ValueError("count must be positive")

        if available <= count:
            # Degenerate small-catalogue case: return all unseen items (may be < count).
            negatives = np.array(
                [item for item in range(self.num_items) if item not in seen], dtype=np.int64
            )
            return negatives

        negatives = set()
        # Rejection sampling is fast because catalogues are much larger than
        # per-user histories in every scenario we generate.
        while len(negatives) < count:
            draws = self._rng.integers(
                0,
                self.num_items,
                size=2 * (count - len(negatives)),
            )
            for item in draws:
                item = int(item)
                if item not in seen and item not in negatives:
                    negatives.add(item)
                    if len(negatives) == count:
                        break
        return np.asarray(sorted(negatives), dtype=np.int64)

    def _sample_exact(self, user: int, count: int) -> np.ndarray:
        """Exact draw over the materialised unseen set (near-saturated users)."""
        unseen = np.setdiff1d(
            np.arange(self.num_items, dtype=np.int64), self._seen_slice(user), assume_unique=True
        )
        if unseen.size < count:
            raise ValueError(
                f"user {user} has only {unseen.size} non-interacted items; cannot sample {count}"
            )
        return np.sort(self._rng.choice(unseen, size=count, replace=False))

    def sample_pairs(
        self,
        users: np.ndarray,
        negatives_per_positive: int = 1,
    ) -> np.ndarray:
        """Sample one batch of training negatives, one row per (positive, k) pair.

        Every row holds ``negatives_per_positive`` distinct unseen items of
        that row's user, sorted ascending.
        """
        users = np.asarray(users, dtype=np.int64)
        count = int(negatives_per_positive)
        if count <= 0:
            raise ValueError("count must be positive")
        out = np.empty((users.shape[0], count), dtype=np.int64)
        if users.size == 0:
            return out

        if users.min() < 0 or users.max() >= self.num_users:
            raise ValueError(f"user index out of range [0, {self.num_users})")
        seen_counts = self._seen_counts[users]
        if ((self.num_items - seen_counts) <= 0).any():
            bad = int(users[(self.num_items - seen_counts) <= 0][0])
            raise ValueError(
                f"user {bad} has interacted with every item; cannot sample negatives",
            )

        # Near-saturated rows go straight to the exact complement draw; the
        # rejection loop would thrash exactly where the complement is small.
        exact_rows = np.where(
            (seen_counts >= self.num_items * _SATURATION_FRACTION)
            | (self.num_items - seen_counts <= count)
        )[0]
        for row in exact_rows:
            out[row] = self._sample_exact(int(users[row]), count)

        rows = np.setdiff1d(np.arange(users.shape[0]), exact_rows, assume_unique=True)
        if rows.size == 0:
            return out
        batch_users = users[rows]
        candidates = self._rng.integers(
            0,
            self.num_items,
            size=(rows.size, count),
            dtype=np.int64,
        )
        pending = np.ones(rows.size, dtype=bool)
        for _ in range(_MAX_REJECTION_ROUNDS):
            keys = batch_users[
                pending,
                None,
            ] * np.int64(self.num_items) + candidates[pending]
            position = np.searchsorted(self._seen_keys, keys)
            position = np.minimum(position, max(self._seen_keys.size - 1, 0))
            collision = (
                (self._seen_keys[position] == keys)
                if self._seen_keys.size
                else np.zeros_like(keys, dtype=bool)
            )
            if count > 1:
                # Distinct-within-row check via a sorted view of each row.
                block = candidates[pending]
                order = np.argsort(block, axis=1, kind="stable")
                ranked = np.take_along_axis(block, order, axis=1)
                dup_sorted = np.zeros_like(collision)
                dup_sorted[:, 1:] = ranked[:, 1:] == ranked[:, :-1]
                duplicate = np.zeros_like(collision)
                np.put_along_axis(duplicate, order, dup_sorted, axis=1)
                bad = collision | duplicate
            else:
                bad = collision
            if not bad.any():
                pending[:] = False
                break
            redraw_rows = np.where(pending)[0][bad.any(axis=1)]
            block = candidates[pending]
            block[bad] = self._rng.integers(0, self.num_items, size=int(bad.sum()), dtype=np.int64)
            candidates[pending] = block
            still = np.zeros(rows.size, dtype=bool)
            still[redraw_rows] = True
            pending = still
        for row in np.where(pending)[0]:
            # Pathological stragglers (dense rows the loop kept re-colliding):
            # resolve them exactly rather than looping forever.
            candidates[row] = self._sample_exact(int(batch_users[row]), count)
        if count > 1:
            candidates = np.sort(candidates, axis=1)
        out[rows] = candidates
        return out


def build_ranking_candidates(
    split: DomainSplit,
    num_negatives: int = 199,
    rng: Optional[np.random.Generator] = None,
    subset: str = "test",
) -> Tuple[np.ndarray, np.ndarray]:
    """Build the 1-positive + ``num_negatives``-negative candidate lists.

    Returns
    -------
    users:
        Array of shape ``(n_eval_users,)``.
    candidates:
        Array of shape ``(n_eval_users, 1 + num_negatives)`` whose first column
        is the ground-truth positive item.
    """
    if subset not in {"test", "valid"}:
        raise ValueError("subset must be 'test' or 'valid'")
    users = split.test_users if subset == "test" else split.valid_users
    positives = split.test_items if subset == "test" else split.valid_items

    sampler = NegativeSampler(split.domain, rng=rng)
    if users.size:
        # The scaled-down synthetic catalogues may be smaller than the paper's
        # 199 negatives; clamp to what every evaluated user can actually
        # supply so the candidate matrix stays rectangular and duplicate-free.
        max_seen = int(sampler.seen_counts(users).max())
        available = split.domain.num_items - max_seen - 1
        num_negatives = max(1, min(num_negatives, available))

    candidate_rows = []
    for user, positive in zip(users, positives):
        negatives = sampler.sample_for_user(int(user), num_negatives)
        candidate_rows.append(np.concatenate([[positive], negatives[:num_negatives]]))
    if not candidate_rows:
        return np.zeros(
            0,
            dtype=np.int64,
        ), np.zeros((0, num_negatives + 1), dtype=np.int64)
    return np.asarray(users, dtype=np.int64), np.asarray(candidate_rows, dtype=np.int64)
