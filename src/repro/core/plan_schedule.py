"""Persistent per-epoch subgraph-plan schedules for sampled training.

:class:`PlanSchedule` is the plan builder of sampled training.  Building a
:class:`~repro.core.subgraph_plan.SubgraphPlan` from scratch every step —
draw the matching pools, union the seed sets, run the k-hop expansion over
*all* seeds and extract the induced subgraph — lets the plan build dominate
the sampled-mode step cost at scale.  The schedule keeps the construction
incremental across the steps of an epoch:

* **Pools in the full-forward rng order.**  Pool sets are drawn lazily, one
  per executed step, consuming the model's matching-sampler rng exactly as
  a full-graph forward would — which is what keeps sampled training
  equivalent to the full-graph forward at the exactness depth (to float64
  tolerance, ``tests/test_subgraph_sampling.py``).  Skipped steps draw
  nothing, so a mid-training evaluation sees the same sampler state as a
  full-graph run.
* **Delta-updated seed sets.**  The seed union decomposes as
  ``close(pools ∪ batch) = close(pools) ∪ close(batch)`` (partner closure
  distributes over unions), so once a step draws the same pool arrays as
  the step before, the pool part — the *static closure* — is computed, cached
  and only the small per-batch part is recomputed per step.  With
  deterministic pools (``max_matching_neighbors=None``) that is every step
  after the first.  A step with fresh pools (the first one, or every step of
  a random sampler) has nothing to reuse and is built from scratch with
  :func:`~repro.core.subgraph_plan.build_subgraph_plan_from_pools` — one
  closure over pools and batch together.
* **Incremental k-hop expansion.**  The k-hop node set distributes over seed
  unions, so the static closure's expansion is computed once (on its first
  reuse) and each step only expands the batch delta — O(batch) frontier work
  instead of O(pools + batch).  This holds for fanout-capped expansion too:
  capped draws use the signature-stable per-node reservoir of
  :func:`repro.graph.sampling.sample_khop_nodes` (each node's kept neighbour
  subset is a pure hash of the node), so delta expansion no longer falls
  back to full per-step expansion when a fanout is set.
* **CSR-native extraction.**  The induced subgraph is assembled straight from
  the parent adjacency's CSR slices (:func:`repro.graph.induced_subgraph`),
  with no scipy fancy-indexing pass and no COO→CSR canonicalisation.

Equivalence is structural, not approximate: for the same rng state and batch
sequence, :meth:`PlanSchedule.plan_for` returns plans whose arrays are
byte-identical to a from-scratch build
(:func:`~repro.core.subgraph_plan.sample_matching_pools` followed by
:func:`~repro.core.subgraph_plan.build_subgraph_plan_from_pools`), gated
against that oracle in ``tests/test_plan_schedule.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.dataloader import Batch
from ..graph import MatchingNeighborSampler, SubgraphCache
from ..graph.sampling import sample_khop_nodes
from .config import NMCDRConfig
from .subgraph_plan import (
    SubgraphPlan,
    SubgraphSettings,
    batch_index_arrays,
    build_subgraph_plan_from_pools,
    close_seed_users,
    finalize_subgraph_plan,
    sample_matching_pools,
)
from .task import CDRTask, DOMAIN_KEYS

__all__ = [
    "PlanScheduleStats",
    "PlanSchedule",
    "plan_structure_key",
]

_EMPTY = np.empty(0, dtype=np.int64)


def plan_structure_key(settings: Optional[SubgraphSettings]) -> Tuple:
    """Structural signature of the plan pipeline a model trains through.

    Used as the trace-section key component for traced step replay
    (:mod:`repro.tensor.trace`): two steps with the same structure key build
    autograd graphs with identical op sequences, so replay programs keyed on
    it get near-perfect hit rates.  Per-batch content (node sets, pool draws)
    deliberately stays out of the key — the trace guard re-validates every
    replayed op, so a key collision can only cost a re-trace, never
    correctness.
    """
    if settings is None:
        return ("full-graph",)
    return ("sampled", settings.num_hops, settings.fanout)


@dataclass
class PlanScheduleStats:
    """Counters describing how much work the schedule actually avoided."""

    plans_built: int = 0
    static_closure_reuses: int = 0
    delta_expansions: int = 0
    full_expansions: int = 0
    epochs: int = 0


@dataclass
class _StaticClosure:
    """Cached pool-side seed closure, keyed by the pool arrays' identity.

    Holding strong references to the pool arrays makes the ``is``-based key
    sound: the referenced objects cannot be garbage collected (and their ids
    recycled) while this entry is alive.  Deterministic samplers return the
    task/partition-owned arrays themselves every step, so the key hits; a
    random sampler returns fresh arrays, the key misses and the step is built
    from scratch — so the closure and its expansion are only computed once a
    step reuses the previous step's pools.
    """

    pool_refs: Tuple[np.ndarray, ...]
    #: Per-domain partner-closed pool seeds and their k-hop
    #: (user_ids, item_ids); both populated on the first reuse.
    seed_users: Optional[Dict[str, np.ndarray]] = None
    node_sets: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None


def _flatten_pools(
    intra_pools: Dict[str, list], inter_pools: Dict[str, list]
) -> Tuple[np.ndarray, ...]:
    flat: List[np.ndarray] = []
    for key in DOMAIN_KEYS:
        for head, tail in intra_pools[key]:
            flat.append(head)
            flat.append(tail)
        flat.extend(inter_pools[key])
    return tuple(flat)


class PlanSchedule:
    """Incremental builder of per-step :class:`SubgraphPlan` objects."""

    def __init__(
        self,
        task: CDRTask,
        config: NMCDRConfig,
        settings: SubgraphSettings,
        sampler: MatchingNeighborSampler,
        caches: Dict[str, SubgraphCache],
    ) -> None:
        self.task = task
        self.config = config
        self.settings = settings
        self.sampler = sampler
        self.caches = caches
        self.stats = PlanScheduleStats()
        self._static: Optional[_StaticClosure] = None

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def begin_epoch(self, epoch: int) -> None:
        """Epoch-boundary hook; the schedule's caches survive across epochs.

        Nothing rng-related happens here: pool draws stay strictly lazy so an
        epoch with skipped (all-empty) steps consumes exactly as much sampler
        state as the full-graph forward would.
        """
        self.stats.epochs += 1

    # ------------------------------------------------------------------
    # plan construction
    # ------------------------------------------------------------------
    def _static_closure(
        self, intra_pools: Dict[str, list], inter_pools: Dict[str, list]
    ) -> Optional[_StaticClosure]:
        """The cached pool-side closure if this step reuses the last pools."""
        refs = _flatten_pools(intra_pools, inter_pools)
        cached = self._static
        if (
            cached is None
            or len(cached.pool_refs) != len(refs)
            or not all(a is b for a, b in zip(cached.pool_refs, refs))
        ):
            self._static = _StaticClosure(pool_refs=refs)
            return None
        self.stats.static_closure_reuses += 1
        if cached.seed_users is None:
            # First reuse: the pools are stable, so the one-off closure and
            # expansion of the static seeds now pay for themselves every
            # later step.  Valid under a fanout cap too: the per-node
            # reservoir makes capped expansion distribute over seed unions.
            seed_parts: Dict[str, list] = {}
            for key in DOMAIN_KEYS:
                other = self.task.other_key(key)
                parts: List[np.ndarray] = []
                for head, tail in intra_pools[key]:
                    parts.append(head)
                    parts.append(tail)
                parts.extend(inter_pools[other])  # pools of `key`'s users
                seed_parts[key] = parts
            cached.seed_users = close_seed_users(self.task, seed_parts)
            cached.node_sets = {
                key: sample_khop_nodes(
                    self.task.domain(key).train_graph,
                    cached.seed_users[key],
                    _EMPTY,
                    num_hops=self.settings.num_hops,
                    fanout=self.settings.fanout,
                )
                for key in DOMAIN_KEYS
            }
        return cached

    def plan_for(self, batches: Dict[str, Optional[Batch]]) -> SubgraphPlan:
        """Build this step's plan, reusing everything the epoch already paid for."""
        intra_pools, inter_pools = sample_matching_pools(
            self.task, self.config, self.sampler
        )
        self.stats.plans_built += 1
        static = self._static_closure(intra_pools, inter_pools)
        if static is None:
            self.stats.full_expansions += 1
            return build_subgraph_plan_from_pools(
                self.task,
                self.config,
                batches,
                intra_pools,
                inter_pools,
                self.settings,
                self.caches,
            )

        batch_users, batch_items = batch_index_arrays(batches)
        batch_closed = close_seed_users(
            self.task, {key: [batch_users[key]] for key in DOMAIN_KEYS}
        )
        # Every active domain gets explicit node sets below, so the
        # finalisation only reads the seed arrays for the is-this-domain
        # -active check — hand it a non-empty representative instead of
        # paying the full O(N) seed union every step.
        seed_users = {
            key: (
                static.seed_users[key]
                if static.seed_users[key].size
                else batch_closed[key]
            )
            for key in DOMAIN_KEYS
        }
        # Delta expansion: k-hop distance to (S ∪ B) is the min of the
        # distances to S and to B, so the union of the two expansions is
        # exactly the single-pass expansion of the union.  With a fanout
        # cap the same identity holds on the per-node reservoir's subset
        # digraph (each node's capped neighbour draw is frontier- and
        # seed-independent).
        node_sets: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for key in DOMAIN_KEYS:
            if seed_users[key].size == 0 and batch_items[key].size == 0:
                continue
            delta_users = np.setdiff1d(
                batch_closed[key], static.seed_users[key], assume_unique=True
            )
            delta = sample_khop_nodes(
                self.task.domain(key).train_graph,
                delta_users,
                batch_items[key],
                num_hops=self.settings.num_hops,
                fanout=self.settings.fanout,
            )
            static_users, static_items = static.node_sets[key]
            merged_users = np.union1d(static_users, delta[0])
            merged_items = np.union1d(static_items, delta[1])
            # A union the same size as the static set *is* the static set
            # (the union is a superset); reusing the very same array
            # objects lets the subgraph cache's identity fast path skip
            # even the node-set hashing.
            if merged_users.size == static_users.size:
                merged_users = static_users
            if merged_items.size == static_items.size:
                merged_items = static_items
            node_sets[key] = (merged_users, merged_items)
        self.stats.delta_expansions += 1
        return finalize_subgraph_plan(
            self.task,
            batch_users,
            batch_items,
            seed_users,
            intra_pools,
            inter_pools,
            self.settings,
            self.caches,
            node_sets=node_sets,
        )
