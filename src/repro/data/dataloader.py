"""Mini-batch iteration over (user, item, label) training triples.

Each epoch re-draws the negatives with the vectorised sampler of
:mod:`repro.data.negative_sampling`, shuffles, and slices batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .negative_sampling import NegativeSampler
from .split import DomainSplit

__all__ = ["Batch", "InteractionDataLoader", "build_training_examples"]


@dataclass
class Batch:
    """One training mini-batch of implicit-feedback examples."""

    users: np.ndarray
    items: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return int(self.users.shape[0])


def build_training_examples(
    split: DomainSplit,
    negatives_per_positive: int = 1,
    rng: Optional[np.random.Generator] = None,
    sampler: Optional[NegativeSampler] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialise positives plus freshly sampled negatives as flat arrays.

    The paper trains with one sampled negative per observed positive; this
    helper is called once per epoch so negatives are re-drawn each time.
    ``sampler`` lets the caller reuse one :class:`NegativeSampler` across
    epochs (its seen-set CSR is a function of the immutable domain log, yet
    it used to be rebuilt every epoch); constructing the sampler consumes no
    rng, so passing one holding ``rng`` replays the exact same stream.
    """
    if sampler is None:
        sampler = NegativeSampler(split.domain, rng=rng)
    pos_users, pos_items = split.train_users, split.train_items
    negatives = sampler.sample_pairs(pos_users, negatives_per_positive)

    users = np.concatenate([pos_users, np.repeat(pos_users, negatives_per_positive)])
    items = np.concatenate([pos_items, negatives.reshape(-1)])
    labels = np.concatenate(
        [
            np.ones(pos_users.shape[0]),
            np.zeros(pos_users.shape[0] * negatives_per_positive),
        ]
    )
    users = users.astype(np.int64)
    items = items.astype(np.int64)
    # One O(n) range check per epoch re-establishes the invariant the
    # embedding layer no longer scans per batch: negative indices would
    # otherwise wrap silently during the table gathers.
    domain = split.domain
    if users.size:
        if users.min() < 0 or users.max() >= domain.num_users:
            raise IndexError(
                f"training example user index out of range [0, {domain.num_users})"
            )
        if items.min() < 0 or items.max() >= domain.num_items:
            raise IndexError(
                f"training example item index out of range [0, {domain.num_items})"
            )
    return users, items, labels.astype(np.float64)


class InteractionDataLoader:
    """Shuffling mini-batch iterator over implicit-feedback examples.

    Negatives are re-drawn at the start of every epoch, matching standard
    implicit-feedback training practice.

    Parameters
    ----------
    split:
        The leave-one-out split of one domain; only training interactions are
        used.
    batch_size:
        Number of examples per batch (positives and negatives mixed).
    negatives_per_positive:
        How many negative items to draw per training positive (1 in the paper).
    """

    def __init__(
        self,
        split: DomainSplit,
        batch_size: int = 512,
        negatives_per_positive: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if negatives_per_positive <= 0:
            raise ValueError("negatives_per_positive must be positive")
        self.split = split
        self.batch_size = int(batch_size)
        self.negatives_per_positive = int(negatives_per_positive)
        self._rng = rng or np.random.default_rng(0)
        self._sampler: Optional[NegativeSampler] = None

    def __iter__(self) -> Iterator[Batch]:
        if self._sampler is None:
            # One seen-set CSR per loader lifetime instead of per epoch; the
            # sampler owns the loader's rng so the negative stream is
            # unchanged.
            self._sampler = NegativeSampler(self.split.domain, rng=self._rng)
        users, items, labels = build_training_examples(
            self.split,
            self.negatives_per_positive,
            rng=self._rng,
            sampler=self._sampler,
        )
        order = self._rng.permutation(users.shape[0])
        for start in range(0, order.shape[0], self.batch_size):
            index = order[start : start + self.batch_size]
            yield Batch(users[index], items[index], labels[index])

    def __len__(self) -> int:
        total = self.split.num_train * (1 + self.negatives_per_positive)
        return (total + self.batch_size - 1) // self.batch_size
