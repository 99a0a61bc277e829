"""Intra node complementing module (Section II.E).

Corrects under-represented user embeddings by soft user-to-item matching over
the user's observed neighbourhood: Eq. 18 computes virtual link strengths as a
per-user softmax of inner products, and Eq. 19 adds the attention-weighted,
transformed item representations back onto the user representation.

The implementation works edge-wise so it is linear in the number of observed
interactions and fully differentiable (attention numerator/denominator are
both part of the autograd graph).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph import InteractionGraph
from ..graph.message_passing import segment_softmax_attend
from ..nn import Linear, Module
from ..tensor import Tensor
from ..tensor.ops import _check_segment_edges, _fresh_scratch, _segment_softmax

__all__ = ["IntraNodeComplementing"]


class IntraNodeComplementing(Module):
    """Attention-based complementing of potentially missing interactions."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_dim != out_dim:
            raise ValueError(
                "node complementing requires in_dim == out_dim for the additive update of "
                f"Eq. 19 (got {in_dim} and {out_dim}); the paper sets D_cgm = D_ref"
            )
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.ref_transform = Linear(in_dim, out_dim, rng=rng)

    def forward(
        self,
        graph: InteractionGraph,
        user_repr: Tensor,
        item_repr: Tensor,
    ) -> Tensor:
        """Return ``u_g4`` given ``u_g3`` and the item representations.

        Eq. 18 (per-user softmax of inner-product scores over the observed
        neighbourhood, max-shifted for stability) and Eq. 19 (attention-
        weighted transformed item messages added residually) run as one
        fused :func:`segment_softmax_attend` kernel; the item transform is
        applied to the item table once rather than per edge.
        """
        if graph.num_edges == 0:
            return user_repr
        complemented = segment_softmax_attend(
            user_repr,
            item_repr,
            self.ref_transform(item_repr),
            graph.user_indices,
            graph.item_indices,
            graph.num_users,
        )
        return user_repr + complemented

    def virtual_link_strengths(
        self,
        graph: InteractionGraph,
        user_repr: Tensor,
        item_repr: Tensor,
    ) -> np.ndarray:
        """Return the per-edge attention weights of Eq. 18 (analysis helper).

        These are the weights :meth:`forward` aggregates with, bit for bit:
        both come from the kernel's one softmax helper.
        """
        users, items = user_repr.data, item_repr.data
        edge_users, edge_items = graph.user_indices, graph.item_indices
        _check_segment_edges(
            edge_users, edge_items, graph.num_users, users.shape[0], items.shape[0]
        )
        return _segment_softmax(
            users, items, edge_users, edge_items, graph.num_users, 1e-12, _fresh_scratch
        )[3]
