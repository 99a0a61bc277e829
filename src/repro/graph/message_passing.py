"""Sparse message-passing primitives bridging scipy sparse matrices and autograd.

The adjacency structure of the interaction graph is fixed data (no gradient is
required through it), so propagation reduces to multiplying a constant sparse
operator by a dense differentiable feature matrix.  ``spmm`` wires that product
into the autograd graph with the correct transpose rule for the backward pass.
"""

from __future__ import annotations


import numpy as np
import scipy.sparse as sp

from ..tensor import Tensor, as_tensor
from ..tensor.ops import _fresh_scratch, _segment_attend_backward, _segment_attend_forward

__all__ = ["spmm", "segment_mean", "segment_softmax_attend"]


def spmm(matrix: sp.spmatrix, features: Tensor) -> Tensor:
    """Differentiable ``sparse @ dense`` product.

    Parameters
    ----------
    matrix:
        Constant scipy sparse operator of shape ``(M, N)``.
    features:
        Dense :class:`Tensor` of shape ``(N, D)`` requiring gradients.
    """
    features = as_tensor(features)
    matrix = matrix.tocsr()
    if matrix.shape[1] != features.shape[0]:
        raise ValueError(
            f"spmm shape mismatch: operator {matrix.shape} vs features {features.shape}"
        )
    out_data = matrix @ features.data

    def backward(grad: np.ndarray) -> None:
        features._accumulate(matrix.T @ np.asarray(grad))

    return Tensor._build(out_data, (features,), backward, "spmm")


def segment_mean(features: Tensor, segment_indices: np.ndarray, num_segments: int) -> Tensor:
    """Mean of feature rows grouped by ``segment_indices``.

    Used to aggregate messages per destination node when an explicit sparse
    operator is inconvenient (e.g. attention-weighted neighbourhoods).
    Rows belonging to empty segments are zero.
    """
    segment_indices = np.asarray(segment_indices, dtype=np.int64)
    if segment_indices.shape[0] != features.shape[0]:
        raise ValueError("segment_indices must have one entry per feature row")
    counts = np.bincount(segment_indices, minlength=num_segments).astype(np.float64)
    weights = np.divide(1.0, counts, out=np.zeros_like(counts), where=counts > 0)
    operator = sp.coo_matrix(
        (
            weights[segment_indices],
            (segment_indices, np.arange(segment_indices.shape[0])),
        ),
        shape=(num_segments, segment_indices.shape[0]),
    ).tocsr()
    return spmm(operator, features)


def segment_softmax_attend(
    queries: Tensor,
    keys: Tensor,
    values: Tensor,
    edge_queries: np.ndarray,
    edge_keys: np.ndarray,
    num_segments: int,
    eps: float = 1e-12,
) -> Tensor:
    """Fused per-segment softmax attention over an edge list (Eq. 18–19).

    For every edge ``e = (q, k)`` the score is ``queries[q] · keys[k]``; the
    scores are softmax-normalised per query segment (max-shifted, the shift
    treated as a constant) and used to weight ``values[k]`` rows, which are
    summed per query:

        out[q] = sum_e att_e * values[edge_keys[e]]

    The edges must be sorted by segment (``edge_queries`` non-decreasing,
    as the user-major edges of every :class:`InteractionGraph` are);
    anything else raises ``ValueError``.  Sorted edges give the list a row
    pointer, so the aggregation and the three gradient scatters run as
    in-place sparse mat-vecs and the scores as row dots over two reused
    256 KiB chunk buffers: no ``(E, D)`` gather or product is ever formed.
    One graph node with a hand-derived backward; the float32 engine
    accumulates in float64 and rounds once.
    """
    queries, keys, values = as_tensor(queries), as_tensor(keys), as_tensor(values)
    out_data = np.empty((int(num_segments), values.data.shape[1]), dtype=values.data.dtype)
    state = _segment_attend_forward(
        queries.data,
        keys.data,
        values.data,
        np.ascontiguousarray(edge_queries, dtype=np.int64),
        np.ascontiguousarray(edge_keys, dtype=np.int64),
        int(num_segments),
        eps,
        out_data,
        _fresh_scratch,
    )

    def backward(grad: np.ndarray) -> None:
        grad_values = values._ensure_grad_buffer() if values.requires_grad else None
        grad_queries = queries._ensure_grad_buffer() if queries.requires_grad else None
        grad_keys = keys._ensure_grad_buffer() if keys.requires_grad else None
        _segment_attend_backward(state, grad, grad_queries, grad_keys, grad_values, _fresh_scratch)

    return Tensor._build(out_data, (queries, keys, values), backward, "segment_softmax_attend")
