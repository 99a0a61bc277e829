"""Bipartite user–item interaction graph.

``InteractionGraph`` is the per-domain heterogeneous graph ``G^Z = (U, V, E)``
of Section II.A.  It stores the observed edges, exposes per-node neighbour
lists / degrees and builds the Laplacian-normalised sparse adjacency operators
used by the heterogeneous graph encoder (Eq. 3–4).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..tensor import engine

__all__ = ["InteractionGraph"]


class InteractionGraph:
    """Immutable bipartite interaction graph for a single domain.

    Parameters
    ----------
    num_users, num_items:
        Node counts of the two partitions.
    user_indices, item_indices:
        Parallel integer arrays describing the observed edges
        ``(user_indices[k], item_indices[k])``.  Duplicate edges are merged.
    """

    def __init__(
        self,
        num_users: int,
        num_items: int,
        user_indices: Sequence[int],
        item_indices: Sequence[int],
    ) -> None:
        if num_users <= 0 or num_items <= 0:
            raise ValueError("graph requires at least one user and one item")
        user_indices = np.asarray(user_indices, dtype=np.int64)
        item_indices = np.asarray(item_indices, dtype=np.int64)
        if user_indices.shape != item_indices.shape:
            raise ValueError("user_indices and item_indices must have equal length")
        if user_indices.size:
            if user_indices.min() < 0 or user_indices.max() >= num_users:
                raise ValueError("user index out of range")
            if item_indices.min() < 0 or item_indices.max() >= num_items:
                raise ValueError("item index out of range")

        self.num_users = int(num_users)
        self.num_items = int(num_items)

        # Deduplicate edges so the adjacency is 0/1 as in the paper (e = 1).
        matrix = sp.coo_matrix(
            (np.ones(user_indices.size), (user_indices, item_indices)),
            shape=(num_users, num_items),
        ).tocsr()
        matrix.data[:] = 1.0
        matrix.eliminate_zeros()
        self._adjacency: sp.csr_matrix = matrix

        coo = matrix.tocoo()
        self.user_indices = coo.row.astype(np.int64)
        self.item_indices = coo.col.astype(np.int64)

        # Derived sparse operators are memoised here (keyed by name and
        # engine dtype): the graph is immutable, yet the encoder used to
        # rebuild them with sparse diag-multiplies on every forward pass.
        self._operator_cache: Dict[Tuple[str, str], sp.spmatrix] = {}
        self._csc: Optional[sp.csc_matrix] = None
        self._item_edge_order: Optional[np.ndarray] = None
        self._capped_rows: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def from_csr(
        cls,
        num_users: int,
        num_items: int,
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> "InteractionGraph":
        """Trusted constructor from an already-canonical CSR structure.

        ``indptr``/``indices`` must describe a user-major CSR whose column
        indices are **sorted and unique within each row** and in range —
        exactly what slicing another canonical adjacency produces.  This
        skips the COO round-trip and duplicate merge of ``__init__`` (the
        dominant cost of building per-step induced subgraphs); only cheap
        structural invariants are checked.
        """
        if num_users <= 0 or num_items <= 0:
            raise ValueError("graph requires at least one user and one item")
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        bad_shape = indptr.shape != (num_users + 1,)
        if bad_shape or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr does not describe a CSR over the given shape")
        if indices.size and (indices.min() < 0 or indices.max() >= num_items):
            raise ValueError("item index out of range")

        graph = cls.__new__(cls)
        graph.num_users = int(num_users)
        graph.num_items = int(num_items)
        matrix = sp.csr_matrix(
            (np.ones(indices.size), indices, indptr), shape=(num_users, num_items)
        )
        # The caller guarantees canonical form; record it so scipy never
        # re-sorts or re-merges behind our back.
        matrix.has_sorted_indices = True
        matrix.has_canonical_format = True
        graph._adjacency = matrix
        graph.user_indices = np.repeat(
            np.arange(num_users, dtype=np.int64), np.diff(indptr)
        )
        graph.item_indices = indices.copy()
        graph._operator_cache = {}
        graph._csc = None
        graph._item_edge_order = None
        graph._capped_rows = {}
        return graph

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return int(self._adjacency.nnz)

    @property
    def density(self) -> float:
        """Fraction of the user×item matrix that is observed."""
        return self.num_edges / float(self.num_users * self.num_items)

    def user_degrees(self) -> np.ndarray:
        """``|N_{u_i}|`` for every user (Eq. 3 normalisation)."""
        return np.asarray(self._adjacency.sum(axis=1)).ravel()

    def item_degrees(self) -> np.ndarray:
        """``|N_{v_j}|`` for every item."""
        return np.asarray(self._adjacency.sum(axis=0)).ravel()

    def user_neighbors(self, user: int) -> np.ndarray:
        """Items interacted with by ``user``."""
        start, stop = self._adjacency.indptr[user], self._adjacency.indptr[user + 1]
        return self._adjacency.indices[start:stop].astype(np.int64)

    def _adjacency_csc(self) -> sp.csc_matrix:
        """Item-major (CSC) view of the adjacency, built once."""
        if self._csc is None:
            self._csc = self._adjacency.tocsc()
        return self._csc

    def item_neighbors(self, item: int) -> np.ndarray:
        """Users who interacted with ``item``."""
        csc = self._adjacency_csc()
        start, stop = csc.indptr[item], csc.indptr[item + 1]
        return csc.indices[start:stop].astype(np.int64)

    def has_edge(self, user: int, item: int) -> bool:
        return bool(self._adjacency[user, item] != 0)

    def adjacency(self) -> sp.csr_matrix:
        """Binary user×item adjacency (copy-safe CSR view)."""
        return self._adjacency

    def adjacency_item_major(self) -> sp.csc_matrix:
        """Item-major (CSC) adjacency view, built once and shared.

        Column ``v``'s indices are the users of item ``v`` — the structure
        the k-hop subgraph sampler walks in the item→user direction.
        """
        return self._adjacency_csc()

    def capped_rows(
        self,
        fanout: int,
        side: int,
        build: Callable[[], Tuple[np.ndarray, np.ndarray]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Build-once memo of a fanout-capped adjacency, keyed by ``(fanout, side)``.

        ``build`` returns the capped CSR ``(indptr, indices)`` of the
        user-major (``side=0``) or item-major (``side=1``) adjacency; the
        k-hop sampler (:func:`repro.graph.sampling.sample_khop_nodes`)
        supplies its per-node reservoir.  Returned arrays are shared and
        read-only.
        """
        key = (int(fanout), int(side))
        rows = self._capped_rows.get(key)
        if rows is None:
            rows = build()
            for array in rows:
                array.flags.writeable = False
            self._capped_rows[key] = rows
        return rows

    # ------------------------------------------------------------------
    # normalised propagation operators (memoised: the graph is immutable)
    # ------------------------------------------------------------------
    def _cached_operator(
        self, name: str, builder: Callable[[], sp.spmatrix]
    ) -> sp.spmatrix:
        """Build-once cache for derived sparse operators.

        Keyed by the engine dtype so the ``float32`` fast path gets operators
        it can multiply without upcasting.  Returned matrices are shared —
        callers must treat them as read-only.
        """
        dtype = engine.get_dtype()
        key = (name, dtype.str)
        operator = self._operator_cache.get(key)
        if operator is None:
            operator = builder()
            if operator.dtype != dtype:
                operator = operator.astype(dtype)
            self._operator_cache[key] = operator
        return operator

    def user_aggregation_matrix(self) -> sp.csr_matrix:
        """Row-normalised user×item matrix: row ``u`` holds ``1/|N_u|`` per neighbour.

        Multiplying it by the item-feature matrix realises the
        ``sum_j m_{u<-v_j}`` aggregation of Eq. 4 with the ``1/|N_u|`` norm of
        Eq. 3 already folded in.
        """

        def build() -> sp.csr_matrix:
            degrees = self.user_degrees()
            inverse = np.divide(
                1.0,
                degrees,
                out=np.zeros_like(degrees),
                where=degrees > 0,
            )
            return sp.diags(inverse) @ self._adjacency

        return self._cached_operator("user_aggregation", build)

    def item_aggregation_matrix(self) -> sp.csr_matrix:
        """Row-normalised item×user matrix (symmetric role for item updates)."""

        def build() -> sp.csr_matrix:
            degrees = self.item_degrees()
            inverse = np.divide(
                1.0,
                degrees,
                out=np.zeros_like(degrees),
                where=degrees > 0,
            )
            return sp.diags(inverse) @ self._adjacency.T.tocsr()

        return self._cached_operator("item_aggregation", build)

    def symmetric_normalized_adjacency(self) -> sp.csr_matrix:
        """GCN-style ``D_u^{-1/2} A D_v^{-1/2}`` operator (used by the GCN kernel)."""

        def build() -> sp.csr_matrix:
            user_deg = self.user_degrees()
            item_deg = self.item_degrees()
            d_u = np.divide(
                1.0, np.sqrt(user_deg), out=np.zeros_like(user_deg), where=user_deg > 0
            )
            d_v = np.divide(
                1.0, np.sqrt(item_deg), out=np.zeros_like(item_deg), where=item_deg > 0
            )
            return sp.diags(d_u) @ self._adjacency @ sp.diags(d_v)

        return self._cached_operator("symmetric_normalized", build)

    def symmetric_normalized_adjacency_transpose(self) -> sp.csr_matrix:
        """Item×user transpose of the GCN operator, cached in CSR form."""
        return self._cached_operator(
            "symmetric_normalized_T",
            lambda: self.symmetric_normalized_adjacency().T.tocsr(),
        )

    # ------------------------------------------------------------------
    # per-edge operators with a fixed sparsity pattern
    # ------------------------------------------------------------------
    def user_edge_operator(self, edge_weights: np.ndarray) -> sp.csr_matrix:
        """User×item operator whose entry for edge ``k`` is ``edge_weights[k]``.

        ``edge_weights`` is aligned with :attr:`user_indices` /
        :attr:`item_indices`.  The CSR structure (indptr/indices) is the
        adjacency's own and is reused — only the data array is fresh, so
        per-step attention operators (GAT) skip the COO→CSR conversion.
        """
        edge_weights = np.asarray(edge_weights)
        if edge_weights.shape != (self.num_edges,):
            raise ValueError(
                f"expected {self.num_edges} edge weights, got shape {edge_weights.shape}"
            )
        # self.user_indices/item_indices come from the CSR's own COO view,
        # so edge order k already matches the CSR data layout.
        return sp.csr_matrix(
            (edge_weights, self._adjacency.indices, self._adjacency.indptr),
            shape=(self.num_users, self.num_items),
        )

    def item_edge_operator(self, edge_weights: np.ndarray) -> sp.csr_matrix:
        """Item×user counterpart of :meth:`user_edge_operator`."""
        edge_weights = np.asarray(edge_weights)
        if edge_weights.shape != (self.num_edges,):
            raise ValueError(
                f"expected {self.num_edges} edge weights, got shape {edge_weights.shape}"
            )
        if self._item_edge_order is None:
            # Permutation taking user-major edge order to item-major order.
            self._item_edge_order = np.lexsort((self.user_indices, self.item_indices))
        csc = self._adjacency_csc()
        return sp.csr_matrix(
            (edge_weights[self._item_edge_order], csc.indices, csc.indptr),
            shape=(self.num_items, self.num_users),
        )

    def edge_sum_operator(self) -> sp.csr_matrix:
        """User×edge incidence operator: row ``u`` sums that user's edges.

        Multiplying it by per-edge values realises ``sum over N_u`` (the
        denominator/aggregation of Eq. 18–19).  Cached — the node
        complementing module used to rebuild it from COO every forward.
        """

        def build() -> sp.csr_matrix:
            # Edges are user-major sorted, so each user's edges are contiguous.
            indptr = np.concatenate(
                ([0], np.cumsum(self.user_degrees())),
            ).astype(np.int64)
            return sp.csr_matrix(
                (
                    np.ones(self.num_edges),
                    np.arange(self.num_edges, dtype=np.int64),
                    indptr,
                ),
                shape=(self.num_users, self.num_edges),
            )

        return self._cached_operator("edge_sum", build)

    # ------------------------------------------------------------------
    # head / tail partition (Eq. 5)
    # ------------------------------------------------------------------
    def head_tail_split(self, threshold: int) -> Tuple[np.ndarray, np.ndarray]:
        """Split users into head (> threshold interactions) and tail users.

        Note: Eq. 5 of the paper prints the inequality inverted relative to
        the prose; we follow the prose and Section III.E.2 ("If the historical
        interactions of a user is greater than K_head, then he/she is regarded
        as a head user").
        """
        degrees = self.user_degrees()
        head = np.where(degrees > threshold)[0]
        tail = np.where(degrees <= threshold)[0]
        return head.astype(np.int64), tail.astype(np.int64)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def edge_list(self) -> List[Tuple[int, int]]:
        """Return the edges as ``(user, item)`` tuples (test convenience)."""
        return list(zip(self.user_indices.tolist(), self.item_indices.tolist()))

    def to_networkx(self):
        """Export to a ``networkx`` bipartite graph (analysis / debugging)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from((f"u{u}" for u in range(self.num_users)), bipartite=0)
        graph.add_nodes_from((f"v{v}" for v in range(self.num_items)), bipartite=1)
        graph.add_edges_from(
            (f"u{u}", f"v{v}") for u, v in zip(self.user_indices, self.item_indices)
        )
        return graph

    def __repr__(self) -> str:
        return (
            f"InteractionGraph(users={self.num_users}, items={self.num_items}, "
            f"edges={self.num_edges}, density={self.density:.5f})"
        )
