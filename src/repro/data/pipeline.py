"""The batch pipeline: per-epoch example materialisation behind an iterator.

The training engine consumes *joint steps* — ``{"a": Batch, "b": Batch}``
dicts with one mini-batch per domain (either may be missing once its loader
is exhausted; the multi-target trainer optimises whatever is present).  This
module owns everything that happens before a step runs: per-epoch example
materialisation, negative re-sampling, shuffling and batching, all hidden
behind :meth:`DataPipeline.epoch`.

Batches are produced on demand on the training thread, exactly where the
pre-engine trainer produced them, so fixed-seed runs are bit-identical to
the historical loop.  Nothing runs ahead of the consumer: the vectorised
negative sampler makes an epoch's preparation a fraction of a percent of
its steps, too little to be worth hiding behind them.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, Mapping, Optional

from .dataloader import Batch

__all__ = ["DataPipeline"]


class DataPipeline:
    """Joint per-step batch dicts from per-domain loaders, one epoch at a time."""

    def __init__(self, loaders: Mapping[str, object]) -> None:
        self.loaders = dict(loaders)
        #: Seconds spent producing batches (materialising examples, drawing
        #: negatives, slicing); the training loop stands still for all of it.
        self.prep_seconds = 0.0
        #: Loader rng states captured around the epoch currently being
        #: consumed: ``epoch_rng_before`` is the state the epoch's batch
        #: stream was generated from (a checkpoint that stores it plus a
        #: step count can replay the epoch exactly), ``epoch_rng_after`` is
        #: the state once the epoch was fully produced (the next epoch's
        #: ``before``).
        self.epoch_rng_before: Optional[Dict[str, dict]] = None
        self.epoch_rng_after: Optional[Dict[str, dict]] = None

    def _loader_rng_snapshot(self) -> Dict[str, dict]:
        """JSON-safe rng state of every rng-backed loader (fresh dicts).

        Best-effort by design: duck-typed loader stand-ins without an
        ``_rng`` (test doubles, deterministic replay loaders) are simply
        omitted.  Checkpoint *restore* compares the stored keys against the
        live loader dict and fails loudly on a mismatch, so a partial
        snapshot can never silently resume wrong.
        """
        states: Dict[str, dict] = {}
        for key, loader in self.loaders.items():
            rng = getattr(loader, "_rng", None)
            if rng is not None:
                states[key] = rng.bit_generator.state
        return states

    def epoch(self) -> Iterator[Dict[str, Batch]]:
        """Yield the joint steps of one epoch, replicating the historical loop.

        Mirrors ``zip_longest`` over the per-domain loaders: steps continue
        until every loader is exhausted, exhausted domains are dropped from
        the step dict, and all-empty steps are skipped (never yielded).
        Each call draws the next epoch from the loaders' rng streams.
        """
        self.epoch_rng_before = self._loader_rng_snapshot()
        self.epoch_rng_after = None
        started = time.perf_counter()
        iterators = {key: iter(loader) for key, loader in self.loaders.items()}
        self.prep_seconds += time.perf_counter() - started
        while iterators:
            started = time.perf_counter()
            step: Dict[str, Batch] = {}
            for key in list(iterators):
                batch = next(iterators[key], None)
                if batch is None:
                    del iterators[key]
                elif len(batch) > 0:
                    step[key] = batch
            self.prep_seconds += time.perf_counter() - started
            if step:
                yield step
        self.epoch_rng_after = self._loader_rng_snapshot()


#: The name perfbench (``perfbench/layers.py``) imports to wrap ``epoch``
#: for its ``data.next`` span; it must stay this class.
SerialDataPipeline = DataPipeline
