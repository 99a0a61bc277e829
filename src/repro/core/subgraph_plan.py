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
from ..data.shard import domain_shard_salt, shard_assignments
from ..graph import MatchingNeighborSampler, SubgraphCache
from ..graph.sampling import DomainSubgraph
from .config import NMCDRConfig
from .task import CDRTask, DOMAIN_KEYS

__all__ = [
    "SubgraphSettings",
    "DomainSubgraphPlan",
    "SubgraphPlan",
    "PoolExchange",
    "build_subgraph_plan_from_pools",
    "build_pool_exchange",
    "build_pool_sharded_plan",
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
    #: Pool-sharded execution only (see :func:`build_pool_sharded_plan`).
    #: Number of exchange-table rows appended after the local subgraph rows in
    #: the matching stage's *combined* row space; the pool/overlap index
    #: arrays above then address ``local ∪ table`` rows.
    exchange_size: int = 0
    #: Local subgraph rows of the exchange users this shard owns (the rows
    #: whose encoder activations phase 1 extracts and ships), aligned with
    #: ``owned_positions`` — the owned users' row positions in the step's
    #: exchange table.
    owned_local: np.ndarray = field(default_factory=lambda: _EMPTY)
    owned_positions: np.ndarray = field(default_factory=lambda: _EMPTY)

    @property
    def active(self) -> bool:
        return self.subgraph is not None and self.subgraph.num_users > 0

    @property
    def local_rows(self) -> int:
        """Rows of the local subgraph (0 when the domain has none)."""
        return self.subgraph.num_users if self.subgraph is not None else 0


@dataclass
class SubgraphPlan:
    """Both domains' :class:`DomainSubgraphPlan` for one training step."""

    domains: Dict[str, DomainSubgraphPlan]
    settings: SubgraphSettings
    #: True when the pool/overlap indices address the pool-sharded *combined*
    #: row space (local subgraph rows followed by exchange-table rows).
    pool_sharded: bool = False

    def domain(self, key: str) -> DomainSubgraphPlan:
        return self.domains[key]

    def is_active(self, key: str) -> bool:
        """Whether the forward pass must process this domain at all.

        A pool-sharded domain with an empty local subgraph is still active
        when it carries exchange-table rows: the other domain's inter step
        reads those rows, so their matching recursion must run.
        """
        plan = self.domains[key]
        return plan.active or (self.pool_sharded and plan.exchange_size > 0)


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


# ----------------------------------------------------------------------
# pool-sharded execution: partitioned pool closures + activation exchange
# ----------------------------------------------------------------------
@dataclass
class PoolExchange:
    """Shard partition of one step's matching-pool closure.

    ``users[key]`` holds the global ids of the *exchange set* of a domain —
    every user whose representation the matching stages read without it
    being reachable from a shard's own micro-batch: the step's intra/inter
    pool users plus their overlap partners (one partner-closure round,
    exactly :func:`close_seed_users` over the pools alone).
    ``owners[key]`` assigns each exchange user to the single shard that
    encodes it (the same salted user-id modulo that routes micro-batches,
    so a pool user's examples and its encoder neighbourhood land on one
    shard).  Every shard's matching stage reads the *full* table of
    exchanged encoder activations; only the encoding (and the mirrored
    encoder backward) is partitioned.

    :func:`build_pool_exchange` lays the table out **owner-grouped**: table
    row order is (shard 0's users, shard 1's users, …), sorted within each
    shard's block.  A shard's owned rows are then one contiguous range
    (:meth:`owned_range`) — which is what lets the shared-memory exchange
    plane publish activations by writing a single in-place slice, and ship
    the gradient scatter as a bare row range.  Table rows are resolved by
    value through :meth:`rows_for` (a sorted side lookup built once), so
    nothing downstream depends on the row order itself; a hand-built
    exchange with any other order still works, just without the contiguous
    fast path.
    """

    users: Dict[str, np.ndarray]
    owners: Dict[str, np.ndarray]
    n_shards: int

    def __post_init__(self) -> None:
        # Sorted-value lookup (users need not be globally sorted) and, when
        # the layout is owner-grouped, per-shard contiguous row ranges.
        self._sorted_users: Dict[str, np.ndarray] = {}
        self._sorted_rows: Dict[str, np.ndarray] = {}
        self._owner_starts: Dict[str, Optional[np.ndarray]] = {}
        for key, users in self.users.items():
            order = np.argsort(users, kind="stable")
            self._sorted_users[key] = users[order]
            self._sorted_rows[key] = order.astype(np.int64)
            owners = self.owners[key]
            if owners.size and np.any(np.diff(owners) < 0):
                self._owner_starts[key] = None  # not owner-grouped
            else:
                counts = np.bincount(owners, minlength=self.n_shards)
                starts = np.zeros(self.n_shards + 1, dtype=np.int64)
                np.cumsum(counts, out=starts[1:])
                self._owner_starts[key] = starts

    def owned_range(self, key: str, shard_index: int) -> Optional[Tuple[int, int]]:
        """Contiguous table-row range of one shard, or None if not grouped."""
        starts = self._owner_starts[key]
        if starts is None:
            return None
        return int(starts[shard_index]), int(starts[shard_index + 1])

    def owned_positions(self, key: str, shard_index: int) -> np.ndarray:
        """Table-row positions of the exchange users ``shard_index`` owns."""
        owned = self.owned_range(key, shard_index)
        if owned is not None:
            return np.arange(owned[0], owned[1], dtype=np.int64)
        return np.flatnonzero(self.owners[key] == shard_index)

    def owned_users(self, key: str, shard_index: int) -> np.ndarray:
        """Global ids of the exchange users ``shard_index`` owns (sorted)."""
        owned = self.owned_range(key, shard_index)
        if owned is not None:
            return self.users[key][owned[0] : owned[1]]
        return self.users[key][self.owners[key] == shard_index]

    def rows_for(self, key: str, global_ids: np.ndarray) -> np.ndarray:
        """Table rows of ``global_ids`` (every id must be in the exchange)."""
        if global_ids.size == 0:
            return _EMPTY
        sorted_users = self._sorted_users[key]
        positions = np.searchsorted(sorted_users, global_ids)
        if positions.size and (
            positions.max(initial=-1) >= sorted_users.size
            or not np.array_equal(sorted_users[positions], global_ids)
        ):
            missing = np.setdiff1d(global_ids, sorted_users)[:5]
            raise KeyError(
                f"users {missing.tolist()} are not part of the pool exchange"
            )
        return self._sorted_rows[key][positions]

    def size(self, key: str) -> int:
        return int(self.users[key].size)


def build_pool_exchange(
    task: CDRTask,
    intra_pools: Dict[str, list],
    inter_pools: Dict[str, list],
    n_shards: int,
) -> PoolExchange:
    """Partition one step's pool closure across ``n_shards`` shards.

    The exchange set is the pool-side seed closure the replicated executor
    would fold into *every* shard's subgraph; ownership is the pure salted
    modulo of :func:`repro.data.shard.shard_assignments`, so the partition
    is deterministic and machine-independent (the equivalence gates compare
    loss streams against the replicated executor).
    """
    seed_parts: Dict[str, list] = {}
    for key in DOMAIN_KEYS:
        other = task.other_key(key)
        parts: List = []
        for head, tail in intra_pools[key]:
            parts.append(head)
            parts.append(tail)
        parts.extend(inter_pools[other])  # pools of `key`'s non-overlapped users
        seed_parts[key] = parts
    users = close_seed_users(task, seed_parts)
    owners: Dict[str, np.ndarray] = {}
    for key in DOMAIN_KEYS:
        assigned = shard_assignments(users[key], n_shards, salt=domain_shard_salt(key))
        # Owner-grouped table layout: rows of one shard are contiguous, and
        # the stable sort keeps each shard's block sorted by user id — so
        # owned_users/owned_local alignment is unchanged from the sorted
        # layout while owned rows become a single range (the zero-copy
        # publish/scatter fast path of the shm exchange plane).
        order = np.argsort(assigned, kind="stable")
        users[key] = users[key][order]
        owners[key] = assigned[order]
    return PoolExchange(users=users, owners=owners, n_shards=n_shards)


def _table_rows(
    exchange: PoolExchange, key: str, global_ids: np.ndarray
) -> np.ndarray:
    """Table rows of ``global_ids`` in a domain's exchange set (must exist)."""
    return exchange.rows_for(key, global_ids)


def build_pool_sharded_plan(
    task: CDRTask,
    config: NMCDRConfig,
    batches: Dict[str, Optional[Batch]],
    intra_pools: Dict[str, list],
    inter_pools: Dict[str, list],
    exchange: PoolExchange,
    shard_index: int,
    settings: SubgraphSettings,
    caches: Dict[str, SubgraphCache],
    node_sets: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None,
    batch_closed: Optional[Dict[str, np.ndarray]] = None,
) -> SubgraphPlan:
    """One shard's plan with the pool closure replaced by its owned slice.

    The shard's subgraph seeds are its micro-batch closure plus the
    exchange users it *owns* — per-shard extraction and encoding cost
    therefore follows ``batch + pool/n_shards`` instead of
    ``batch + pool``.  Pool and overlap references resolve in the
    *combined* row space: local subgraph rows first, then one appended row
    per exchange user (the activation table gathered from all shards).
    Exchange users that also sit in the local subgraph keep both rows; the
    table copy serves every pool/partner read (its value is bit-identical
    by the encoder-exactness contract), the local copy serves the
    micro-batch recursion — which is what keeps per-row values equal to the
    replicated executor's single-copy forward.

    ``node_sets`` optionally carries pre-expanded per-domain k-hop node
    sets (the incremental planner's delta path); they must equal the
    single-pass expansion of the seed union.  ``batch_closed`` optionally
    reuses the caller's partner-closed micro-batch seed sets (the planner
    already computed them for its delta) instead of re-deriving them.
    """
    batch_users, batch_items = batch_index_arrays(batches)
    if batch_closed is None:
        batch_closed = close_seed_users(
            task, {key: [batch_users[key]] for key in DOMAIN_KEYS}
        )

    domains: Dict[str, DomainSubgraphPlan] = {}
    for key in DOMAIN_KEYS:
        owned = exchange.owned_users(key, shard_index)
        seed_users = (
            np.union1d(batch_closed[key], owned) if owned.size else batch_closed[key]
        )
        exchange_size = exchange.size(key)
        if seed_users.size == 0 and batch_items[key].size == 0:
            domains[key] = DomainSubgraphPlan(
                subgraph=None, exchange_size=exchange_size
            )
            continue
        nodes = None if node_sets is None else node_sets.get(key)
        if nodes is not None:
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
                seed_users,
                batch_items[key],
                num_hops=settings.num_hops,
                fanout=settings.fanout,
            )
        domains[key] = DomainSubgraphPlan(
            subgraph=subgraph,
            batch_users=subgraph.local_users(batch_users[key]),
            batch_items=subgraph.local_items(batch_items[key]),
            exchange_size=exchange_size,
            owned_local=subgraph.local_users(owned),
            owned_positions=exchange.owned_positions(key, shard_index),
        )

    # Pool and overlap references in the combined (local ∪ table) row space.
    for key in DOMAIN_KEYS:
        plan = domains[key]
        other = task.other_key(key)
        other_plan = domains[other]
        base = plan.local_rows
        other_base = other_plan.local_rows

        plan.intra_pools = [
            (
                base + _table_rows(exchange, key, head),
                base + _table_rows(exchange, key, tail),
            )
            for head, tail in intra_pools[key]
        ]
        plan.inter_pools = [
            other_base + _table_rows(exchange, other, pool)
            for pool in inter_pools[key]
        ]

        # Overlap pairs over the local rows: exactly the replicated rule
        # (pairs present in both shards' local subgraphs) — batch users'
        # partners are in the micro-batch closure, so every *read* local row
        # resolves its pair; extra pairs touch only unread rows.
        if plan.active and other_plan.active:
            own_pairs = task.overlap_indices(key)
            other_pairs = task.overlap_indices(other)
            present = plan.subgraph.contains_users(own_pairs) & (
                other_plan.subgraph.contains_users(other_pairs)
            )
            if present.all():
                own_kept, other_kept = own_pairs, other_pairs
            else:
                own_kept, other_kept = own_pairs[present], other_pairs[present]
            local_own = plan.subgraph.local_users(own_kept)
            local_other = other_plan.subgraph.local_users(other_kept)
        else:
            local_own = local_other = _EMPTY

        # Overlap pairs over the table rows: every overlapped exchange user's
        # partner is in the other domain's exchange set (the partner-closure
        # round of ``build_pool_exchange``), so the pair always resolves.
        exchange_users = exchange.users[key]
        partners = (
            task.partner_lookup(key)[exchange_users] if exchange_users.size else _EMPTY
        )
        overlapped = partners >= 0
        if overlapped.any():
            table_own = base + np.flatnonzero(overlapped)
            table_other = other_base + _table_rows(
                exchange, other, partners[overlapped]
            )
        else:
            table_own = table_other = _EMPTY

        plan.overlap_own = np.concatenate([local_own, table_own])
        plan.overlap_other = np.concatenate([local_other, table_other])

    return SubgraphPlan(domains=domains, settings=settings, pool_sharded=True)
