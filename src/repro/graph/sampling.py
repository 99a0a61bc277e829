"""Batched k-hop subgraph sampling over bipartite interaction graphs.

Mini-batch GNN training only reads the batch rows of the final
representations, yet a full-graph forward propagates over every user and item
of the domain.  This module extracts the *induced* k-hop bipartite subgraph
around a batch (the GraphSAGE-style neighbour-sampling recipe), remaps the
global node ids to a compact local id space and materialises an
:class:`~repro.graph.InteractionGraph` over the local ids — whose memoised
normalised operators and CSR edge templates then serve every forward pass on
that subgraph.

Exactness contract.  Message passing over the induced subgraph reproduces the
full-graph representations *at the seed nodes* whenever

* ``num_hops >= L`` for an ``L``-layer encoder whose normalisation only
  reads the *near* endpoint's degree (the paper's vanilla kernel): a node at
  distance ``j`` from a seed only needs its own ``L - j``-layer
  representation, which depends on nodes up to distance ``L``;
* ``num_hops >= L + 1`` when the kernel's normalisation also reads the *far*
  endpoint's neighbourhood (GCN's ``D^-1/2 A D^-1/2`` degrees, GAT's
  per-node attention softmax) — frontier nodes at distance exactly
  ``num_hops`` have truncated neighbourhoods, so one extra hop keeps every
  degree/softmax a seed output depends on exact; and
* no ``fanout`` cap is set (the induced subgraph then contains the complete
  neighbourhood of every node at distance ``< num_hops``).

Consumers that read non-seed rows (e.g. NMCDR's node complementing reads the
encoder outputs of the seeds' neighbour items) must budget extra hops for
them; :meth:`repro.core.NMCDR.configure_subgraph_sampling` resolves the
correct depth per configuration.

With a ``fanout`` cap high-degree frontier nodes pull in at most ``fanout``
neighbours per hop, which bounds the subgraph size at the cost of truncated
neighbourhoods (the standard accuracy/cost dial of neighbour sampling).
Capped draws use a *signature-stable per-node reservoir* (each node's kept
neighbour subset is a pure hash of the node, independent of the frontier and
the seed set), so fanout expansion is deterministic — a cached subgraph and a
freshly sampled one for the same key are identical by construction — **and**
distributes over seed unions, which lets the incremental plan schedule delta-
expand batches under a fanout cap instead of falling back to full per-step
expansion.  Because the kept subset never changes, it is drawn once per graph
into a capped adjacency table (:meth:`InteractionGraph.capped_rows`), and
every capped hop is then the same plain CSR gather as an uncapped one.

:class:`SubgraphCache` memoises :class:`DomainSubgraph` objects keyed by the
seed sets and sampling settings: repeated batch signatures (common with small
catalogues, curriculum replays or per-epoch re-shuffles that happen to cover
the same users) skip extraction entirely and reuse the induced graph together
with all of its cached sparse operators.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from .bipartite import InteractionGraph

__all__ = [
    "DomainSubgraph",
    "SubgraphCache",
    "sample_khop_nodes",
    "induced_subgraph",
]


def _as_node_ids(ids, size: int, label: str) -> np.ndarray:
    """Validate and canonicalise (sort + dedup) a global node id array."""
    ids = np.asarray(ids, dtype=np.int64).ravel()
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        raise ValueError(f"{label} id out of range [0, {size})")
    return np.unique(ids)


def _mix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser: a stateless, vectorised uint64 bit mixer."""
    mixed = values.astype(np.uint64, copy=True)
    mixed ^= mixed >> np.uint64(30)
    mixed *= np.uint64(0xBF58476D1CE4E5B9)
    mixed ^= mixed >> np.uint64(27)
    mixed *= np.uint64(0x94D049BB133111EB)
    mixed ^= mixed >> np.uint64(31)
    return mixed


def _row_positions(
    indptr: np.ndarray, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node counts, in-row ranks and flat CSR positions of the frontier rows."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    # Contiguous gather of every CSR slice without a Python loop.
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return counts, offsets, np.repeat(starts, counts) + offsets


def _gather_rows(indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Every entry of the frontier nodes' CSR rows, in row order."""
    if frontier.size == 0:
        return np.empty(0, dtype=np.int64)
    _, _, flat = _row_positions(indptr, frontier)
    return indices[flat].astype(np.int64, copy=False)


def _gather_neighbors(
    indptr: np.ndarray,
    indices: np.ndarray,
    frontier: np.ndarray,
    fanout: Optional[int],
    side: int,
) -> np.ndarray:
    """All (or up to ``fanout`` per node) neighbours of the frontier nodes.

    The capped draw is a **signature-stable per-node reservoir**: every edge
    gets a pseudo-random key mixed from its owning node's id and its rank
    within the node's (canonically sorted) adjacency row, and each node keeps
    its ``fanout`` smallest-keyed edges.  A node's kept subset is therefore a
    pure function of the node itself — independent of which other nodes share
    the frontier, of the hop at which it is reached and of the seed set that
    reached it.  That is exactly the property that makes capped k-hop
    expansion distribute over seed unions (``khop(S ∪ B) = khop(S) ∪
    khop(B)``, the delta-expansion contract of
    :class:`repro.core.plan_schedule.PlanSchedule`), which whole-frontier rng
    draws — the pre-reservoir implementation — could not provide.  ``side``
    decorrelates the user→item and item→user draws of nodes sharing an id.
    """
    if frontier.size == 0:
        return np.empty(0, dtype=np.int64)
    counts, offsets, flat = _row_positions(indptr, frontier)
    total = flat.size
    if total == 0:
        return np.empty(0, dtype=np.int64)
    if fanout is None or not (counts > fanout).any():
        return indices[flat].astype(np.int64)

    # Per-node sampling without replacement, fully vectorised: order edges by
    # (owning node, per-node-stable key) and keep each node's first
    # ``fanout`` — a per-segment pseudo-random subset.  Keeping the *k*
    # smallest keys also nests subsets across fanout values.
    segments = np.repeat(np.arange(frontier.size), counts)
    owner_ids = np.repeat(frontier.astype(np.uint64), counts)
    keys = _mix64(
        owner_ids * np.uint64(0x9E3779B97F4A7C15)
        + offsets.astype(np.uint64)
        + np.uint64(side) * np.uint64(0xD1B54A32D192ED03)
    )
    order = np.lexsort((keys, segments))
    segment_starts = np.repeat(np.cumsum(counts) - counts, counts)
    ranks = np.arange(total) - segment_starts
    return indices[flat[order[ranks < fanout]]].astype(np.int64)


def _capped_adjacency(
    graph: InteractionGraph, fanout: int, side: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The graph's reservoir-capped adjacency for one side, built once.

    Row ``n`` of the returned CSR ``(indptr, indices)`` holds the neighbours
    :func:`_gather_neighbors` keeps for node ``n`` under ``fanout``, in no
    set order (the expansion uniques every hop).  The kept subset is a pure
    function of the node, so one hash-and-lexsort over every node serves
    every later hop with a plain CSR gather; the graph memoises the table
    per ``(fanout, side)``.
    """

    def build() -> Tuple[np.ndarray, np.ndarray]:
        full = graph.adjacency() if side == 0 else graph.adjacency_item_major()
        nodes = np.arange(full.indptr.size - 1, dtype=np.int64)
        kept = _gather_neighbors(full.indptr, full.indices, nodes, fanout, side)
        indptr = np.zeros(nodes.size + 1, dtype=np.int64)
        np.cumsum(np.minimum(np.diff(full.indptr), fanout), out=indptr[1:])
        return indptr, kept

    return graph.capped_rows(fanout, side, build)


def _signature(
    seed_users: np.ndarray,
    seed_items: np.ndarray,
    num_hops: int,
    fanout: Optional[int],
) -> bytes:
    """Stable digest of the sampling inputs (the subgraph-cache key)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.int64(num_hops).tobytes())
    digest.update(np.int64(-1 if fanout is None else fanout).tobytes())
    digest.update(np.int64(seed_users.size).tobytes())
    digest.update(seed_users.tobytes())
    digest.update(seed_items.tobytes())
    return digest.digest()


def sample_khop_nodes(
    graph: InteractionGraph,
    seed_users,
    seed_items,
    num_hops: int = 1,
    fanout: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Node sets of the k-hop neighbourhood around the seed users/items.

    One hop expands the user frontier to its items and the item frontier to
    its users simultaneously; ``fanout`` caps how many neighbours a single
    frontier node may contribute per hop via the signature-stable per-node
    reservoir of :func:`_gather_neighbors` (read from the graph's capped
    table, :func:`_capped_adjacency`), so the capped expansion is a
    deterministic, union-decomposable function of the seeds.  Returns sorted
    global ``(user_ids, item_ids)``.  Isolated seed nodes are kept (they
    simply add no neighbours).
    """
    if num_hops < 1:
        raise ValueError("num_hops must be >= 1")
    if fanout is not None and fanout < 1:
        raise ValueError("fanout must be positive or None")
    seed_users = _as_node_ids(seed_users, graph.num_users, "seed user")
    seed_items = _as_node_ids(seed_items, graph.num_items, "seed item")

    if fanout is None:
        csr = graph.adjacency()
        csc = graph.adjacency_item_major()
        user_rows, item_rows = (csr.indptr, csr.indices), (csc.indptr, csc.indices)
    else:
        user_rows = _capped_adjacency(graph, fanout, side=0)
        item_rows = _capped_adjacency(graph, fanout, side=1)
    user_mask = np.zeros(graph.num_users, dtype=bool)
    item_mask = np.zeros(graph.num_items, dtype=bool)
    user_mask[seed_users] = True
    item_mask[seed_items] = True
    user_frontier, item_frontier = seed_users, seed_items

    for _ in range(num_hops):
        next_items = _gather_rows(*user_rows, user_frontier)
        next_users = _gather_rows(*item_rows, item_frontier)
        next_items = np.unique(next_items[~item_mask[next_items]]) if next_items.size else next_items
        next_users = np.unique(next_users[~user_mask[next_users]]) if next_users.size else next_users
        if next_items.size == 0 and next_users.size == 0:
            break
        item_mask[next_items] = True
        user_mask[next_users] = True
        user_frontier, item_frontier = next_users, next_items

    return np.where(user_mask)[0].astype(np.int64), np.where(item_mask)[0].astype(np.int64)


class DomainSubgraph:
    """Induced bipartite subgraph with a global→local id remapping.

    ``user_ids`` / ``item_ids`` are the sorted global ids of the included
    nodes; ``graph`` is the induced :class:`InteractionGraph` over local ids
    ``0 .. len(ids) - 1`` (row ``i`` of the local graph is global node
    ``user_ids[i]``).  The remap uses binary search over the sorted id
    arrays, so no dense parent-sized lookup table is materialised.
    """

    #: Bound on the identity-keyed localisation memo (see ``_localize``).
    _MEMO_LIMIT = 64

    def __init__(
        self,
        user_ids: np.ndarray,
        item_ids: np.ndarray,
        graph: Optional[InteractionGraph],
    ) -> None:
        self.user_ids = user_ids
        self.item_ids = item_ids
        self.graph = graph
        # Identity-keyed memo for the global→local remaps: a persistent plan
        # schedule re-localises the *same* pool/overlap arrays against the
        # same cached subgraph every step, so repeated lookups skip the
        # binary search.  Values hold the key array itself, which both makes
        # the ``id`` key collision-free (the object cannot be freed and its
        # id recycled while referenced) and keeps the memo bounded.
        self._local_memo: dict = {}

    @property
    def num_users(self) -> int:
        return int(self.user_ids.size)

    @property
    def num_items(self) -> int:
        return int(self.item_ids.size)

    def _localize(self, table: np.ndarray, global_ids, label: str) -> np.ndarray:
        global_ids = np.asarray(global_ids, dtype=np.int64)
        if table.size == 0:
            if global_ids.size:
                raise KeyError(f"{label} ids requested from an empty subgraph partition")
            return global_ids
        local = np.searchsorted(table, global_ids)
        valid = (local < table.size) & (table[np.minimum(local, table.size - 1)] == global_ids)
        if global_ids.size and not valid.all():
            missing = global_ids[~valid][:5]
            raise KeyError(f"{label} ids {missing.tolist()} are not part of this subgraph")
        return local.astype(np.int64)

    def _memoized(self, kind: str, global_ids, compute) -> np.ndarray:
        if not isinstance(global_ids, np.ndarray):
            return compute(global_ids)
        key = (kind, id(global_ids))
        hit = self._local_memo.get(key)
        if hit is not None and hit[0] is global_ids:
            return hit[1]
        result = compute(global_ids)
        if len(self._local_memo) >= self._MEMO_LIMIT:
            self._local_memo.clear()
        self._local_memo[key] = (global_ids, result)
        return result

    def local_users(self, global_ids) -> np.ndarray:
        """Map global user ids to local rows (raises if any id is missing)."""
        return self._memoized(
            "user", global_ids, lambda ids: self._localize(self.user_ids, ids, "user")
        )

    def local_items(self, global_ids) -> np.ndarray:
        """Map global item ids to local rows (raises if any id is missing)."""
        return self._memoized(
            "item", global_ids, lambda ids: self._localize(self.item_ids, ids, "item")
        )

    def contains_users(self, global_ids) -> np.ndarray:
        """Boolean membership mask for global user ids."""
        return self._memoized("contains", global_ids, self._contains_users)

    def _contains_users(self, global_ids) -> np.ndarray:
        global_ids = np.asarray(global_ids, dtype=np.int64)
        if self.user_ids.size == 0:
            return np.zeros(global_ids.shape, dtype=bool)
        pos = np.searchsorted(self.user_ids, global_ids)
        return (pos < self.user_ids.size) & (
            self.user_ids[np.minimum(pos, self.user_ids.size - 1)] == global_ids
        )

    def __repr__(self) -> str:
        edges = self.graph.num_edges if self.graph is not None else 0
        return f"DomainSubgraph(users={self.num_users}, items={self.num_items}, edges={edges})"


def induced_subgraph(
    graph: InteractionGraph, user_ids: np.ndarray, item_ids: np.ndarray
) -> DomainSubgraph:
    """Materialise the induced subgraph over the given (sorted global) node sets.

    The edge set is *every* observed edge between the included users and
    items.  When the user set is non-empty but no item was reached (all
    included users are isolated), a single dummy item column is padded in so
    the local :class:`InteractionGraph` remains constructible — the padded
    column is all-zero by construction (any edge would have pulled the item
    into the node set), so it influences nothing.

    The extraction is CSR-native: the included users' row slices are gathered
    straight off the parent adjacency, filtered by item membership with one
    binary search and assembled into the local CSR directly — no scipy
    fancy-indexing pass and no COO round-trip.  Because the parent CSR is canonical (sorted, duplicate-free) and the
    remap is monotone, the local structure is canonical by construction.
    """
    user_ids = np.asarray(user_ids, dtype=np.int64)
    item_ids = np.asarray(item_ids, dtype=np.int64)
    if user_ids.size == 0:
        return DomainSubgraph(user_ids, item_ids, None)
    if item_ids.size == 0:
        item_ids = np.zeros(1, dtype=np.int64)

    csr = graph.adjacency()
    starts = csr.indptr[user_ids]
    counts = csr.indptr[user_ids + 1] - starts
    total = int(counts.sum())
    if total == 0:
        local = InteractionGraph.from_csr(
            user_ids.size,
            item_ids.size,
            np.zeros(user_ids.size + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        return DomainSubgraph(user_ids, item_ids, local)

    if total * 8 >= graph.num_edges:
        # Dense extraction (exact-hop subgraphs cover most of the graph):
        # one membership mask over the parent's user-major edge list and two
        # dense rank lookups.  The parent edge order is user-major with
        # sorted columns, and the kept subsequence inherits it, so the local
        # structure is canonical without any sort.
        item_rank = np.full(graph.num_items, -1, dtype=np.int64)
        item_rank[item_ids] = np.arange(item_ids.size, dtype=np.int64)
        user_member = np.zeros(graph.num_users, dtype=bool)
        user_member[user_ids] = True
        keep = user_member[graph.user_indices] & (item_rank[graph.item_indices] >= 0)
        kept_users = graph.user_indices[keep]
        local_items = item_rank[graph.item_indices[keep]]
        kept_per_user = np.bincount(kept_users, minlength=graph.num_users)[user_ids]
    else:
        # Sparse extraction (fanout-capped subgraphs): contiguous gather of
        # the included users' CSR slices, then an item-membership filter via
        # binary search — O(edges of the included users), not O(parent).
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        flat = np.repeat(starts, counts) + offsets
        columns = csr.indices[flat]
        # The searchsorted position doubles as the *local* item id
        # (item_ids is sorted and unique).
        position = np.searchsorted(item_ids, columns)
        keep = (position < item_ids.size) & (
            item_ids[np.minimum(position, item_ids.size - 1)] == columns
        )
        rows = np.repeat(np.arange(user_ids.size, dtype=np.int64), counts)
        local_items = position[keep].astype(np.int64)
        kept_per_user = np.bincount(rows[keep], minlength=user_ids.size)

    indptr = np.concatenate(([0], np.cumsum(kept_per_user))).astype(np.int64)
    local = InteractionGraph.from_csr(user_ids.size, item_ids.size, indptr, local_items)
    return DomainSubgraph(user_ids, item_ids, local)


class SubgraphCache:
    """LRU cache of :class:`DomainSubgraph` objects keyed by batch signature.

    The key covers the canonical seed node sets and the sampling settings;
    two batches that touch the same unique users and items (in any order,
    with any multiplicity) therefore share one cached subgraph — including
    the induced graph's own memoised sparse operators from PR 1.
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[bytes, DomainSubgraph]" = OrderedDict()
        #: Secondary index keyed by the *expanded* node sets: two different
        #: seed sets whose k-hop neighbourhoods coincide share one induced
        #: subgraph (and all of its memoised operators).
        self._node_entries: "OrderedDict[bytes, DomainSubgraph]" = OrderedDict()
        self._node_identity: dict = {}
        self.hits = 0
        self.misses = 0
        self.node_hits = 0

    def _from_nodes(
        self,
        graph: InteractionGraph,
        user_ids: np.ndarray,
        item_ids: np.ndarray,
        num_hops: int,
        fanout: Optional[int],
    ) -> DomainSubgraph:
        """Build-or-reuse an induced subgraph keyed by its node sets."""
        # Identity fast path: the plan schedule hands back the *same* node
        # arrays whenever a step's expansion collapses onto the static
        # closure — skip even the content hash then.  The stored entry keeps
        # the key arrays alive, so the ids cannot be recycled.
        identity_key = (id(user_ids), id(item_ids), num_hops, fanout)
        cached = self._node_identity.get(identity_key)
        if cached is not None and cached[0] is user_ids and cached[1] is item_ids:
            self.node_hits += 1
            return cached[2]
        node_key = b"nodes:" + _signature(user_ids, item_ids, num_hops, fanout)
        entry = self._node_entries.get(node_key)
        if entry is not None:
            self.node_hits += 1
            self._node_entries.move_to_end(node_key)
        else:
            entry = induced_subgraph(graph, user_ids, item_ids)
            self._node_entries[node_key] = entry
            if len(self._node_entries) > self.max_entries:
                self._node_entries.popitem(last=False)
        if len(self._node_identity) >= self.max_entries:
            self._node_identity.clear()
        self._node_identity[identity_key] = (user_ids, item_ids, entry)
        return entry

    def get_by_nodes(
        self,
        graph: InteractionGraph,
        user_ids: np.ndarray,
        item_ids: np.ndarray,
        num_hops: int = 1,
        fanout: Optional[int] = None,
    ) -> DomainSubgraph:
        """Cached induced subgraph over *pre-expanded*, sorted-unique node sets.

        The incremental plan schedule expands seed deltas itself; this entry
        point skips seed canonicalisation and k-hop sampling entirely.  The
        induced subgraph is a pure function of the node sets, so consecutive
        steps whose expansions coincide (e.g. deterministic pools whose
        closure already covers the batch neighbourhood) reuse one subgraph
        and its operator caches.
        """
        return self._from_nodes(graph, user_ids, item_ids, num_hops, fanout)

    def get(
        self,
        graph: InteractionGraph,
        seed_users,
        seed_items,
        num_hops: int = 1,
        fanout: Optional[int] = None,
    ) -> DomainSubgraph:
        """Return the (possibly cached) induced k-hop subgraph for the seeds.

        Callers that have already expanded the node sets themselves (the
        incremental plan schedule) should use :meth:`get_by_nodes` instead.
        """
        seed_users = _as_node_ids(seed_users, graph.num_users, "seed user")
        seed_items = _as_node_ids(seed_items, graph.num_items, "seed item")
        key = _signature(seed_users, seed_items, num_hops, fanout)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        user_ids, item_ids = sample_khop_nodes(
            graph, seed_users, seed_items, num_hops=num_hops, fanout=fanout
        )
        entry = self._from_nodes(graph, user_ids, item_ids, num_hops, fanout)
        self._entries[key] = entry
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return entry

    def clear(self) -> None:
        self._entries.clear()
        self._node_entries.clear()
        self.hits = 0
        self.misses = 0
        self.node_hits = 0

    def __len__(self) -> int:
        return len(self._entries)
