"""Per-step subgraph plans for sampled NMCDR training.

A :class:`SubgraphPlan` captures everything one sampled training step needs:
the per-domain induced k-hop subgraphs around the mini-batches and the
*local* index arrays for every stage of the NMCDR pipeline — batch rows,
per-layer intra-matching head/tail pools, the cross-domain overlap alignment
and the per-layer inter-matching pools.

The plan builder must include every node whose representation the restricted
forward pass reads, otherwise the computation silently diverges from the
full-graph one.  The required closure is:

* **batch users/items** of each domain (the loss rows);
* **intra-matching pools** — the head/tail group messages are means over the
  pooled users' encoder outputs, so pool users need their own k-hop
  neighbourhoods (Eq. 8–9);
* **inter-matching pools** — each domain's update aggregates sampled
  non-overlapped users *of the other domain* (Eq. 12–13);
* **overlap partners** of every seed user: the self message of Eq. 12/13 is
  the same person's representation in the other domain, and with stacked
  matching layers the partner's own earlier-layer state must also be exact,
  which one partner-closure round guarantees (partner-of-partner is the user
  itself).

Pools are sampled *before* the subgraph is extracted, in exactly the order
the full-graph forward would consume the matching sampler's rng stream (intra
pools for both domains, then inter pools, layer by layer) — so a sampled step
and a full-graph step starting from the same sampler state use identical
pools, which is what makes the float64 equivalence test meaningful even with
a finite ``max_matching_neighbors``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.dataloader import Batch
from ..graph import MatchingNeighborSampler, SubgraphCache
from ..graph.sampling import DomainSubgraph
from .config import NMCDRConfig
from .task import CDRTask, DOMAIN_KEYS

__all__ = [
    "SubgraphSettings",
    "DomainSubgraphPlan",
    "SubgraphPlan",
    "build_subgraph_plan_from_pools",
    "sample_matching_pools",
    "batch_index_arrays",
    "close_seed_users",
    "finalize_subgraph_plan",
]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class SubgraphSettings:
    """Resolved knobs of the sampled-subgraph training mode."""

    num_hops: int
    fanout: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_hops < 1:
            raise ValueError("num_hops must be >= 1")
        if self.fanout is not None and self.fanout < 1:
            raise ValueError("fanout must be positive or None")


@dataclass
class DomainSubgraphPlan:
    """Local-id view of one domain for one sampled training step."""

    subgraph: Optional[DomainSubgraph]
    #: Local rows of the mini-batch examples (aligned with the batch labels).
    batch_users: np.ndarray = field(default_factory=lambda: _EMPTY)
    batch_items: np.ndarray = field(default_factory=lambda: _EMPTY)
    #: Per matching layer: local (head_pool, tail_pool) of the intra step.
    intra_pools: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    #: Per matching layer: local ids *in the other domain's subgraph* of the
    #: sampled non-overlapped pool aggregated by this domain's inter step.
    inter_pools: List[np.ndarray] = field(default_factory=list)
    #: Aligned local overlap alignment: row k of ``overlap_own`` (this domain)
    #: and ``overlap_other`` (other domain) refer to the same person.
    overlap_own: np.ndarray = field(default_factory=lambda: _EMPTY)
    overlap_other: np.ndarray = field(default_factory=lambda: _EMPTY)

    @property
    def active(self) -> bool:
        return self.subgraph is not None and self.subgraph.num_users > 0


@dataclass
class SubgraphPlan:
    """Both domains' :class:`DomainSubgraphPlan` for one training step."""

    domains: Dict[str, DomainSubgraphPlan]
    settings: SubgraphSettings

    def domain(self, key: str) -> DomainSubgraphPlan:
        return self.domains[key]

    def is_active(self, key: str) -> bool:
        """Whether the forward pass must process this domain at all."""
        return self.domains[key].active


def sample_matching_pools(
    task: CDRTask, config: NMCDRConfig, sampler: MatchingNeighborSampler
) -> Tuple[Dict[str, list], Dict[str, list]]:
    """Draw every matching pool for one step, mirroring the full-forward order.

    One call consumes exactly the sampler rng a full-graph forward pass
    would, which is what lets the sharded executor draw pools once in the
    parent process (keeping its rng stream — and therefore mid-training
    evaluation — identical to the serial executor's) and ship the drawn
    pools to every shard worker.
    """
    intra: Dict[str, list] = {key: [] for key in DOMAIN_KEYS}
    inter: Dict[str, list] = {key: [] for key in DOMAIN_KEYS}
    for _ in range(config.num_matching_layers):
        if config.use_intra_matching:
            for key in DOMAIN_KEYS:
                intra[key].append(sampler.sample_partition(task.domain(key).partition))
        if config.use_inter_matching:
            for key in DOMAIN_KEYS:
                other = task.other_key(key)
                inter[key].append(sampler.sample(task.non_overlap_indices(other)))
    return intra, inter


def batch_index_arrays(
    batches: Dict[str, Optional[Batch]],
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Per-domain (users, items) int64 arrays of the step's mini-batches."""
    batch_users: Dict[str, np.ndarray] = {}
    batch_items: Dict[str, np.ndarray] = {}
    for key in DOMAIN_KEYS:
        batch = batches.get(key)
        if batch is None or len(batch) == 0:
            batch_users[key] = _EMPTY
            batch_items[key] = _EMPTY
        else:
            batch_users[key] = np.asarray(batch.users, dtype=np.int64)
            batch_items[key] = np.asarray(batch.items, dtype=np.int64)
    return batch_users, batch_items


def close_seed_users(
    task: CDRTask, seed_parts: Dict[str, list]
) -> Dict[str, np.ndarray]:
    """Union the per-domain seed parts and apply one partner-closure round.

    One round suffices — partner of partner is the user itself — and union
    with :func:`np.unique` makes the result independent of how the caller
    grouped the parts, which is what lets the incremental schedule assemble
    seeds as (cached static closure) ∪ (per-step batch closure) and land on
    byte-identical arrays.
    """
    seed_users: Dict[str, np.ndarray] = {}
    for key in DOMAIN_KEYS:
        parts = [part for part in seed_parts[key] if part.size]
        seed_users[key] = np.unique(np.concatenate(parts)) if parts else _EMPTY

    partnered: Dict[str, np.ndarray] = {}
    for key in DOMAIN_KEYS:
        lookup = task.partner_lookup(key)
        partners = lookup[seed_users[key]] if seed_users[key].size else _EMPTY
        partnered[task.other_key(key)] = partners[partners >= 0]
    for key in DOMAIN_KEYS:
        if partnered[key].size:
            seed_users[key] = np.unique(np.concatenate([seed_users[key], partnered[key]]))
    return seed_users


def finalize_subgraph_plan(
    task: CDRTask,
    batch_users: Dict[str, np.ndarray],
    batch_items: Dict[str, np.ndarray],
    seed_users: Dict[str, np.ndarray],
    intra_pools: Dict[str, list],
    inter_pools: Dict[str, list],
    settings: SubgraphSettings,
    caches: Dict[str, SubgraphCache],
    node_sets: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None,
) -> SubgraphPlan:
    """Extract both domains' induced subgraphs and localise every index set.

    ``node_sets`` optionally carries pre-expanded k-hop node sets per domain
    (the incremental schedule's delta expansion); they are forwarded to the
    subgraph cache and must equal what the sampler would have produced.
    """
    domains: Dict[str, DomainSubgraphPlan] = {}
    for key in DOMAIN_KEYS:
        if seed_users[key].size == 0 and batch_items[key].size == 0:
            domains[key] = DomainSubgraphPlan(subgraph=None)
            continue
        nodes = None if node_sets is None else node_sets.get(key)
        if nodes is not None:
            # Pre-expanded delta path: key the cache on the node sets
            # themselves — no seed canonicalisation, no k-hop re-expansion,
            # and steps whose expansions coincide share one subgraph.
            subgraph = caches[key].get_by_nodes(
                task.domain(key).train_graph,
                nodes[0],
                nodes[1],
                num_hops=settings.num_hops,
                fanout=settings.fanout,
            )
        else:
            subgraph = caches[key].get(
                task.domain(key).train_graph,
                seed_users[key],
                batch_items[key],
                num_hops=settings.num_hops,
                fanout=settings.fanout,
            )
        domains[key] = DomainSubgraphPlan(
            subgraph=subgraph,
            batch_users=subgraph.local_users(batch_users[key]),
            batch_items=subgraph.local_items(batch_items[key]),
            intra_pools=[
                (subgraph.local_users(head), subgraph.local_users(tail))
                for head, tail in intra_pools[key]
            ],
        )

    # Localise the cross-domain index sets now that both subgraphs exist.
    for key in DOMAIN_KEYS:
        plan = domains[key]
        if not plan.active:
            continue
        other = task.other_key(key)
        other_plan = domains[other]
        if other_plan.active:
            own_pairs = task.overlap_indices(key)
            other_pairs = task.overlap_indices(other)
            present = plan.subgraph.contains_users(own_pairs) & (
                other_plan.subgraph.contains_users(other_pairs)
            )
            if present.all():
                # Full coverage (common once the pool closure spans the
                # overlap): keep the memoised column arrays themselves so
                # the localisation below hits the subgraph's identity memo.
                own_kept, other_kept = own_pairs, other_pairs
            else:
                own_kept, other_kept = own_pairs[present], other_pairs[present]
            plan.overlap_own = plan.subgraph.local_users(own_kept)
            plan.overlap_other = other_plan.subgraph.local_users(other_kept)
            plan.inter_pools = [
                other_plan.subgraph.local_users(pool) for pool in inter_pools[key]
            ]
        else:
            plan.inter_pools = [_EMPTY for _ in inter_pools[key]]

    return SubgraphPlan(domains=domains, settings=settings)


def build_subgraph_plan_from_pools(
    task: CDRTask,
    config: NMCDRConfig,
    batches: Dict[str, Optional[Batch]],
    intra_pools: Dict[str, list],
    inter_pools: Dict[str, list],
    settings: SubgraphSettings,
    caches: Dict[str, SubgraphCache],
) -> SubgraphPlan:
    """Build a step plan from pre-drawn matching pools (no sampler rng).

    The from-scratch builder: the sharded executor draws pools once per step
    in the parent process (:func:`sample_matching_pools`) and every shard
    worker localises its own micro-batch around the *same* pools, consuming
    no rng of its own.  Serial sampled training builds the byte-identical
    plans incrementally through :class:`~repro.core.plan_schedule.PlanSchedule`.
    """
    batch_users, batch_items = batch_index_arrays(batches)

    # Seed users: batch rows, this domain's intra pools, and the pools of this
    # domain's users that the *other* domain's inter step aggregates.
    seed_parts: Dict[str, list] = {}
    for key in DOMAIN_KEYS:
        other = task.other_key(key)
        parts = [batch_users[key]]
        parts.extend(pool for pools in intra_pools[key] for pool in pools)
        parts.extend(inter_pools[other])  # pools of `key`'s non-overlapped users
        seed_parts[key] = parts
    seed_users = close_seed_users(task, seed_parts)

    return finalize_subgraph_plan(
        task,
        batch_users,
        batch_items,
        seed_users,
        intra_pools,
        inter_pools,
        settings,
        caches,
    )
