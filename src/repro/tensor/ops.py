"""Differentiable operations for :class:`repro.tensor.Tensor`.

Each function computes the forward result with numpy and registers a backward
closure that accumulates gradients into its operands.  Only the operations the
reproduction actually needs are implemented; the set covers everything used by
the heterogeneous graph encoder, the node-matching components, the
complementing attention and every baseline model.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .tensor import ArrayLike, Tensor, as_tensor

__all__ = [
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow",
    "matmul",
    "linear",
    "addmm",
    "exp",
    "log",
    "sqrt",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "gated_tanh_mix",
    "softplus",
    "softmax",
    "log_softmax",
    "softmax_cross_entropy",
    "sum",
    "mean",
    "max",
    "reshape",
    "transpose",
    "concat",
    "stack",
    "pair_feature_concat",
    "getitem",
    "gather_rows",
    "gather_concat_rows",
    "scatter_add_rows",
    "broadcast_rows",
    "scatter_rows",
    "binary_cross_entropy_probs",
    "clip",
    "where",
    "maximum",
    "dropout_mask_apply",
]

_EPS = 1e-12

def _load_matvecs(name: str):
    """Import one of scipy's private sparse mat-vec kernels and self-check it.

    ``scipy.sparse._sparsetools`` makes no stability promise, so a kernel is
    only used if it reproduces, on a tiny example and for both index widths,
    what numpy computes for the same product: each weight-times-dense-row
    product rounded on its own and added into its output row in stored
    order.  One output element of the example adds ``(1 + 2**-30)**2`` to
    ``-1``, where a fused multiply-add would round differently.  Any import
    error, signature change or wrong result returns ``None``, and callers
    fall back to the public scipy API.
    """
    try:  # pragma: no cover - exercised implicitly at import
        from scipy.sparse import _sparsetools

        kernel = getattr(_sparsetools, name)
    except (ImportError, AttributeError):  # pragma: no cover - other layouts
        return None
    tiny = 1.0 + 2.0**-30
    dense = np.array([[-1.0, 0.5], [tiny, 2.0], [0.25, -3.0], [7.0, 1.0]])
    weights = np.array([1.0, tiny, tiny, -2.0, 0.5])
    # Four compressed slots (slot 2 empty) over four rows.
    slots = np.array([0, 0, 1, 1, 3])
    others = np.array([0, 1, 0, 3, 2])
    rows, cols = (slots, others) if name == "csr_matvecs" else (others, slots)
    expected = np.zeros((4, 2))
    np.add.at(expected, rows, weights[:, None] * dense[cols])
    for index_dtype in (np.int32, np.int64):
        indptr = np.array([0, 2, 4, 4, 5], dtype=index_dtype)
        out = np.zeros((4, 2))
        try:
            kernel(4, 4, 2, indptr, others.astype(index_dtype), weights, dense.ravel(), out.ravel())
        except Exception:  # pragma: no cover - changed private signature
            return None
        if not np.array_equal(out, expected):  # pragma: no cover
            return None
    return kernel


_csc_matvecs = _load_matvecs("csc_matvecs")
_csr_matvecs = _load_matvecs("csr_matvecs")


def _scatter_add_2d(buffer: np.ndarray, indices: np.ndarray, grad: np.ndarray) -> None:
    """``buffer[indices] += grad`` with repeated-index accumulation.

    ``np.add.at`` is correct but an order of magnitude slower than a sparse
    mat-vec at the sizes the models use, so for 2-D row scatters the update
    is expressed as ``P @ grad`` with ``P`` the one-hot scatter operator in
    CSC form (column ``k`` holds a single 1 at row ``indices[k]``).  When
    scipy's C kernel is importable it is called directly, accumulating into
    ``buffer`` with no temporary and no matrix-validation overhead.
    """
    if grad.ndim == 2 and indices.ndim == 1 and indices.shape[0] >= 32:
        count = indices.shape[0]
        if (
            _csc_matvecs is not None
            and buffer.flags.c_contiguous
            and buffer.dtype == grad.dtype
        ):
            if indices.dtype != np.int64:
                indices = indices.astype(np.int64)
            _csc_matvecs(
                buffer.shape[0],
                count,
                buffer.shape[1],
                np.arange(count + 1, dtype=np.int64),
                indices,
                np.ones(count, dtype=buffer.dtype),
                np.ascontiguousarray(grad).ravel(),
                buffer.ravel(),
            )
            return
        operator = sp.csc_matrix(
            (
                np.ones(count, dtype=grad.dtype),
                indices,
                np.arange(count + 1),
            ),
            shape=(buffer.shape[0], count),
        )
        buffer += operator @ grad
    else:
        np.add.at(buffer, indices, grad)


# ----------------------------------------------------------------------
# segment softmax attention (Eq. 18-19) over a segment-major edge list
# ----------------------------------------------------------------------
#: Elements per chunk of the per-edge row dots: 256 KiB of float64 per
#: gather buffer, whatever the edge count.
_ROW_DOT_CHUNK = 1 << 15

#: ``scratch(tag, shape, dtype)`` hands a kernel an uninitialised buffer for
#: one of its temporaries: a fresh array in eager mode, a persistent arena
#: slab per tag in traced replay.
Scratch = Callable[[str, Tuple[int, ...], np.dtype], np.ndarray]


def _fresh_scratch(tag: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
    return np.empty(shape, dtype=dtype)


class _AttendState(NamedTuple):
    """What the backward of the segment attention reads from its forward."""

    queries: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    edge_queries: np.ndarray
    edge_keys: np.ndarray
    indptr: np.ndarray
    exp_scores: np.ndarray
    inv_denominator: np.ndarray
    clip_mask: np.ndarray
    attention: np.ndarray


def _check_segment_edges(
    edge_queries: np.ndarray,
    edge_keys: np.ndarray,
    num_segments: int,
    query_rows: int,
    key_rows: int,
) -> None:
    """Validate the edge list the segment attention kernels index blindly."""
    if edge_queries.shape != edge_keys.shape or edge_queries.ndim != 1:
        raise ValueError("edge_queries and edge_keys must be equal-length 1-D arrays")
    if edge_queries.size == 0:
        return
    if np.any(edge_queries[1:] < edge_queries[:-1]):
        raise ValueError(
            "segment_softmax_attend needs the edge list sorted by segment: "
            "edge_queries must be non-decreasing (InteractionGraph edges are "
            "user-major, so graph.user_indices qualifies)"
        )
    if edge_queries[0] < 0 or edge_queries[-1] >= min(num_segments, query_rows):
        raise ValueError("edge_queries must index both a segment and a query row")
    if edge_keys.min() < 0 or edge_keys.max() >= key_rows:
        raise ValueError("edge_keys must index a row of the keys and of the values")


def _row_pointer(edge_rows: np.ndarray, num_rows: int) -> np.ndarray:
    """CSR row pointer of an edge list sorted by ``edge_rows``."""
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(edge_rows, minlength=num_rows), out=indptr[1:])
    return indptr


def _segment_sums(edge_rows: np.ndarray, weights: np.ndarray, num_rows: int) -> np.ndarray:
    """Per-row sums of edge weights, added in edge order (float64 even for
    an empty edge list, where ``np.bincount`` returns int64)."""
    return np.bincount(edge_rows, weights=weights, minlength=num_rows).astype(
        np.float64, copy=False
    )


def _row_dots(
    left: np.ndarray,
    left_rows: np.ndarray,
    right: np.ndarray,
    right_rows: np.ndarray,
    out: np.ndarray,
    scratch: Scratch,
) -> None:
    """``out[e] = left[left_rows[e]] · right[right_rows[e]]``, chunk by chunk.

    Each chunk gathers its rows into two reused buffers and reduces them with
    the ``einsum`` a full ``(E, D)`` gather would use.  The per-row reduction
    does not depend on how many rows share a call, so the dots are
    bit-identical to the unchunked product.
    """
    count, dim = out.shape[0], left.shape[1]
    step = _ROW_DOT_CHUNK // (dim or 1) or 1
    rows = min(step, count)
    left_chunk = scratch("dot_left", (rows, dim), left.dtype)
    right_chunk = scratch("dot_right", (rows, dim), right.dtype)
    for start in range(0, count, step):
        stop = min(start + step, count)
        size = stop - start
        a, b = left_chunk[:size], right_chunk[:size]
        np.take(left, left_rows[start:stop], axis=0, out=a, mode="clip")
        np.take(right, right_rows[start:stop], axis=0, out=b, mode="clip")
        np.einsum("ed,ed->e", a, b, out=out[start:stop])


def _sparse_accumulate(
    target: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    dense: np.ndarray,
    scratch: Scratch,
    transpose: bool = False,
) -> None:
    """``target += A @ dense``, or ``A.T @ dense`` when ``transpose``.

    ``A`` is the CSR matrix ``(weights, indices, indptr)``.  Every output
    row adds the rounded products ``weights[e] * dense[row]`` in stored
    order, in float64: the arithmetic of scattering edge-wise products, with
    no ``(E, D)`` product ever formed.  A target that is not C-contiguous
    float64 (the float32 engine) receives the float64 sum through one
    ``+=``.  Without scipy's private kernels the public sparse product runs
    instead; it sums into a zeroed temporary first, so on a non-zero
    float64 target it may differ from the kernel path in the last bit.
    """
    if dense.dtype != np.float64 or not dense.flags.c_contiguous:
        dense64 = scratch("dense64", dense.shape, np.float64)
        np.copyto(dense64, dense)
        dense = dense64
    direct = target.dtype == np.float64 and target.flags.c_contiguous
    acc = target if direct else scratch("acc64", target.shape, np.float64)
    if not direct:
        acc.fill(0.0)
    slots = indptr.shape[0] - 1
    shape = (target.shape[0], slots) if transpose else (slots, dense.shape[0])
    kernel = _csc_matvecs if transpose else _csr_matvecs
    if kernel is not None:
        rows, cols = shape
        kernel(rows, cols, dense.shape[1], indptr, indices, weights, dense.ravel(), acc.ravel())
    else:
        layout = sp.csc_matrix if transpose else sp.csr_matrix
        acc += layout((weights, indices, indptr), shape=shape) @ dense
    if not direct:
        target += acc


def _segment_softmax(
    queries: np.ndarray,
    keys: np.ndarray,
    edge_queries: np.ndarray,
    edge_keys: np.ndarray,
    num_segments: int,
    eps: float,
    scratch: Scratch,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 18 per edge: ``(exp_scores, inv_denominator, clip_mask, attention)``.

    Scores ``queries[q] · keys[k]`` are shifted by their segment's maximum
    (a constant for the backward), clipped to ±60, exponentiated and
    multiplied by ``1 / (denominator + eps)``.  This is the only
    formulation of the weights: the kernel and
    :meth:`repro.core.IntraNodeComplementing.virtual_link_strengths` both
    call it.
    """
    count = edge_queries.shape[0]
    scores = scratch("scores", (count,), np.result_type(queries, keys))
    _row_dots(queries, edge_queries, keys, edge_keys, scores, scratch)
    max_per_segment = scratch("segment_max", (num_segments,), np.float64)
    max_per_segment.fill(-np.inf)
    np.maximum.at(max_per_segment, edge_queries, scores)
    max_per_segment[~np.isfinite(max_per_segment)] = 0.0
    # ``exp_scores`` carries the shifted -> clipped -> exponentiated chain.
    exp_scores = scratch("exp_scores", (count,), np.float64)
    np.take(max_per_segment, edge_queries, out=exp_scores, mode="clip")
    np.subtract(scores, exp_scores, out=exp_scores)
    clip_mask = scratch("clip_mask", (count,), np.bool_)
    np.greater_equal(exp_scores, -60.0, out=clip_mask)
    clip_mask &= np.less_equal(exp_scores, 60.0, out=scratch("clip_high", (count,), np.bool_))
    np.clip(exp_scores, -60.0, 60.0, out=exp_scores)
    np.exp(exp_scores, out=exp_scores)
    denominator = _segment_sums(edge_queries, exp_scores, num_segments)
    inv_denominator = scratch("inv_denominator", (count,), np.float64)
    np.take(denominator, edge_queries, out=inv_denominator, mode="clip")
    np.add(inv_denominator, eps, out=inv_denominator)
    np.divide(1.0, inv_denominator, out=inv_denominator)
    attention = scratch("attention", (count,), np.float64)
    np.multiply(exp_scores, inv_denominator, out=attention)
    return exp_scores, inv_denominator, clip_mask, attention


def _segment_attend_forward(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    edge_queries: np.ndarray,
    edge_keys: np.ndarray,
    num_segments: int,
    eps: float,
    out: np.ndarray,
    scratch: Scratch,
) -> _AttendState:
    """Eq. 18-19 into ``out`` (overwritten); returns the backward's state.

    ``out[q] = sum_e attention_e * values[edge_keys[e]]`` runs as one CSR
    mat-vec over the row pointer of the segment-sorted edges, adding each
    row's products in edge order, as a scatter of the edge-wise products
    would.  Shared by the eager op and its traced replay.
    """
    key_rows = min(keys.shape[0], values.shape[0])
    _check_segment_edges(edge_queries, edge_keys, num_segments, queries.shape[0], key_rows)
    softmax = _segment_softmax(queries, keys, edge_queries, edge_keys, num_segments, eps, scratch)
    indptr = _row_pointer(edge_queries, num_segments)
    out.fill(0.0)
    _sparse_accumulate(out, indptr, edge_keys, softmax[3], values, scratch)
    return _AttendState(queries, keys, values, edge_queries, edge_keys, indptr, *softmax)


def _segment_attend_backward(
    state: _AttendState,
    grad: np.ndarray,
    grad_queries: Optional[np.ndarray],
    grad_keys: Optional[np.ndarray],
    grad_values: Optional[np.ndarray],
    scratch: Scratch,
) -> None:
    """Accumulate the attention's gradients into the given buffers.

    A ``None`` buffer skips that input.  The softmax backward keeps the
    ``+ eps`` denominator exact:
    ``d att_e / d z_e' = δ_ee' / (den + eps) - z_e / (den + eps)^2``.
    """
    grad = np.asarray(grad)
    edge_queries, edge_keys, indptr = state.edge_queries, state.edge_keys, state.indptr
    if grad_values is not None:
        _sparse_accumulate(
            grad_values, indptr, edge_keys, state.attention, grad, scratch, transpose=True
        )
    if grad_queries is None and grad_keys is None:
        return
    count = edge_queries.shape[0]
    d_attention = scratch("d_attention", (count,), np.result_type(state.values, grad))
    _row_dots(state.values, edge_keys, grad, edge_queries, d_attention, scratch)
    # ``d_scores`` carries the weighted-sum -> d_exp -> clipped-score chain.
    d_scores = scratch("d_scores", (count,), np.float64)
    np.multiply(d_attention, state.exp_scores, out=d_scores)
    weighted = _segment_sums(edge_queries, d_scores, indptr.shape[0] - 1)
    np.take(weighted, edge_queries, out=d_scores, mode="clip")
    np.multiply(d_scores, state.inv_denominator, out=d_scores)
    np.subtract(d_attention, d_scores, out=d_scores)
    np.multiply(d_scores, state.inv_denominator, out=d_scores)
    np.multiply(d_scores, state.exp_scores, out=d_scores)
    np.multiply(d_scores, state.clip_mask, out=d_scores)
    query_rows = state.queries.shape[0]
    if query_rows != indptr.shape[0] - 1:
        indptr = _row_pointer(edge_queries, query_rows)
    if grad_queries is not None:
        _sparse_accumulate(grad_queries, indptr, edge_keys, d_scores, state.keys, scratch)
    if grad_keys is not None:
        _sparse_accumulate(
            grad_keys, indptr, edge_keys, d_scores, state.queries, scratch, transpose=True
        )


# ----------------------------------------------------------------------
# elementwise arithmetic
# ----------------------------------------------------------------------
def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad)
        b._accumulate(grad)

    return Tensor._build(out_data, (a, b), backward, "add")


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad)
        b._accumulate(-grad)

    return Tensor._build(out_data, (a, b), backward, "sub")


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * b.data)
        b._accumulate(grad * a.data)

    return Tensor._build(out_data, (a, b), backward, "mul")


def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad / b.data)
        b._accumulate(-grad * a.data / (b.data ** 2))

    return Tensor._build(out_data, (a, b), backward, "div")


def neg(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    out_data = -a.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(-grad)

    return Tensor._build(out_data, (a,), backward, "neg")


def pow(a: ArrayLike, exponent: float) -> Tensor:  # noqa: A001 - mirrors Tensor.__pow__
    a = as_tensor(a)
    exponent = float(exponent)
    out_data = a.data ** exponent

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * exponent * (a.data ** (exponent - 1.0)))

    return Tensor._build(out_data, (a,), backward, "pow")


# ----------------------------------------------------------------------
# linear algebra
# ----------------------------------------------------------------------
def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def backward(grad: np.ndarray) -> None:
        a_data, b_data = a.data, b.data
        if a_data.ndim == 1 and b_data.ndim == 1:
            # inner product -> scalar gradient
            a._accumulate(grad * b_data)
            b._accumulate(grad * a_data)
            return
        if a_data.ndim == 1:
            a._accumulate(grad @ b_data.T)
            b._accumulate(np.outer(a_data, grad))
            return
        if b_data.ndim == 1:
            a._accumulate(np.outer(grad, b_data))
            b._accumulate(a_data.T @ grad)
            return
        a._accumulate(grad @ np.swapaxes(b_data, -1, -2))
        b._accumulate(np.swapaxes(a_data, -1, -2) @ grad)

    return Tensor._build(out_data, (a, b), backward, "matmul")


_LINEAR_ACTIVATIONS = (None, "relu", "sigmoid", "tanh")


def linear(
    x: ArrayLike,
    weight: ArrayLike,
    bias: Optional[ArrayLike] = None,
    activation: Optional[str] = None,
) -> Tensor:
    """Fused ``activation(x @ weight + bias)`` as a single graph node.

    The classic three-node chain (matmul, broadcast add, activation) is the
    single most frequent pattern in every model here; fusing it removes two
    graph nodes and two full-size gradient buffers per call.  ``activation``
    may be ``None``, ``"relu"``, ``"sigmoid"`` or ``"tanh"`` — the ones whose
    derivative is expressible from the forward output alone.
    """
    if activation not in _LINEAR_ACTIVATIONS:
        raise ValueError(
            f"fused linear supports activations {_LINEAR_ACTIVATIONS}, got '{activation}'"
        )
    x, weight = as_tensor(x), as_tensor(weight)
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ValueError(
            f"fused linear expects 2-D operands, got {x.data.shape} @ {weight.data.shape}"
        )
    bias_tensor = as_tensor(bias) if bias is not None else None

    out_data = x.data @ weight.data
    if bias_tensor is not None:
        out_data = out_data + bias_tensor.data
    if activation == "relu":
        np.maximum(out_data, 0.0, out=out_data)
    elif activation == "sigmoid":
        out_data = _sigmoid_forward(out_data)
    elif activation == "tanh":
        np.tanh(out_data, out=out_data)

    parents = (x, weight) if bias_tensor is None else (x, weight, bias_tensor)

    def backward(grad: np.ndarray) -> None:
        if activation == "relu":
            head = grad * (out_data > 0)
        elif activation == "sigmoid":
            head = grad * out_data * (1.0 - out_data)
        elif activation == "tanh":
            head = grad * (1.0 - out_data ** 2)
        else:
            head = np.asarray(grad)
        if x.requires_grad:
            x._accumulate(head @ weight.data.T)
        if weight.requires_grad:
            weight._accumulate(x.data.T @ head)
        if bias_tensor is not None and bias_tensor.requires_grad:
            bias_tensor._accumulate(head.sum(axis=0))

    return Tensor._build(out_data, parents, backward, "linear")


def addmm(c: ArrayLike, a: ArrayLike, b: ArrayLike, beta: float = 1.0, alpha: float = 1.0) -> Tensor:
    """Fused ``beta * c + alpha * (a @ b)`` (mirrors ``torch.addmm``)."""
    c, a, b = as_tensor(c), as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"addmm expects 2-D matrices, got {a.data.shape} @ {b.data.shape}")
    beta, alpha = float(beta), float(alpha)
    product = a.data @ b.data
    if alpha != 1.0:
        product *= alpha
    out_data = product + (beta * c.data if beta != 1.0 else c.data)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        if c.requires_grad:
            c._accumulate(grad if beta == 1.0 else beta * grad)
        if a.requires_grad:
            scaled = grad if alpha == 1.0 else alpha * grad
            a._accumulate(scaled @ b.data.T)
        if b.requires_grad:
            scaled = grad if alpha == 1.0 else alpha * grad
            b._accumulate(a.data.T @ scaled)

    return Tensor._build(out_data, (c, a, b), backward, "addmm")


# ----------------------------------------------------------------------
# unary nonlinearities
# ----------------------------------------------------------------------
def exp(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * out_data)

    return Tensor._build(out_data, (a,), backward, "exp")


def log(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    out_data = np.log(np.maximum(a.data, _EPS))

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad / np.maximum(a.data, _EPS))

    return Tensor._build(out_data, (a,), backward, "log")


def sqrt(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(np.maximum(a.data, 0.0))

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * 0.5 / np.maximum(out_data, _EPS))

    return Tensor._build(out_data, (a,), backward, "sqrt")


def relu(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    out_data = a.data * mask

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * mask)

    return Tensor._build(out_data, (a,), backward, "relu")


def leaky_relu(a: ArrayLike, negative_slope: float = 0.01) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    out_data = np.where(mask, a.data, negative_slope * a.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * np.where(mask, 1.0, negative_slope))

    return Tensor._build(out_data, (a,), backward, "leaky_relu")


def _sigmoid_forward(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid computed with a single ``exp``.

    ``exp(-|x|)`` never overflows, and both branches reduce to the textbook
    expressions ``1 / (1 + e^-x)`` (x >= 0) and ``e^x / (1 + e^x)`` (x < 0).
    """
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    out_data = _sigmoid_forward(a.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._build(out_data, (a,), backward, "sigmoid")


def gated_tanh_mix(first: ArrayLike, second: ArrayLike, gate_logits: ArrayLike) -> Tensor:
    """Fused ``tanh((1 - H) * first + H * second)`` with ``H = sigmoid(gate_logits)``.

    The fine-grained gate of Eq. 10 / Eq. 16 applies this to full user
    tables several times per step; fusing it collapses six elementwise graph
    nodes (sigmoid, two muls, two adds/subs, tanh) into one.
    """
    first, second, gate_logits = as_tensor(first), as_tensor(second), as_tensor(gate_logits)
    gate = _sigmoid_forward(gate_logits.data)
    out_data = np.tanh((1.0 - gate) * first.data + gate * second.data)

    def backward(grad: np.ndarray) -> None:
        base = grad * (1.0 - out_data ** 2)
        first._accumulate(base * (1.0 - gate))
        second._accumulate(base * gate)
        if gate_logits.requires_grad:
            gate_logits._accumulate(
                base * (second.data - first.data) * gate * (1.0 - gate)
            )

    return Tensor._build(out_data, (first, second, gate_logits), backward, "gated_tanh_mix")


def tanh(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * (1.0 - out_data ** 2))

    return Tensor._build(out_data, (a,), backward, "tanh")


def softplus(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    x = a.data
    out_data = np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))

    def backward(grad: np.ndarray) -> None:
        sig = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        a._accumulate(grad * sig)

    return Tensor._build(out_data, (a,), backward, "softplus")


def softmax(a: ArrayLike, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        # dL/dx = s * (g - sum(g * s))
        dot = np.sum(grad * out_data, axis=axis, keepdims=True)
        a._accumulate(out_data * (grad - dot))

    return Tensor._build(out_data, (a,), backward, "softmax")


def log_softmax(a: ArrayLike, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_sum
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._build(out_data, (a,), backward, "log_softmax")


def softmax_cross_entropy(
    logits: ArrayLike,
    targets: Union[Tensor, np.ndarray],
    axis: int = -1,
    reduction: str = "mean",
) -> Tensor:
    """Fused ``cross_entropy(softmax(logits), targets)`` as one graph node.

    ``targets`` is a constant probability distribution (one-hot or soft) of
    the same shape as ``logits``.  The fused backward rule is the classic
    ``softmax - targets``, which skips materialising the log-softmax graph.
    """
    logits = as_tensor(logits)
    target_data = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    if target_data.shape != logits.data.shape:
        raise ValueError(
            f"targets shape {target_data.shape} must match logits shape {logits.data.shape}"
        )
    shifted = logits.data - logits.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    sum_exps = exps.sum(axis=axis, keepdims=True)
    log_probs = shifted - np.log(sum_exps)
    soft = exps / sum_exps
    loss_data = -(target_data * log_probs).sum(axis=axis)
    if reduction == "mean":
        out_data = loss_data.mean()
        scale = 1.0 / (loss_data.size or 1)  # NB: builtin max is shadowed here
    elif reduction == "sum":
        out_data = loss_data.sum()
        scale = 1.0
    elif reduction == "none":
        out_data = loss_data
        scale = 1.0
    else:
        raise ValueError(f"unknown reduction '{reduction}'")

    def backward(grad: np.ndarray) -> None:
        g = np.asarray(grad)
        if reduction == "none":
            g = np.expand_dims(g, axis % logits.data.ndim)
        logits._accumulate((soft - target_data) * (g * scale))

    return Tensor._build(out_data, (logits,), backward, "softmax_cross_entropy")


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------
def sum(a: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        g = np.asarray(grad, dtype=np.float64)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.data.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return Tensor._build(out_data, (a,), backward, "sum")


def mean(a: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.data.shape[ax]

    def backward(grad: np.ndarray) -> None:
        g = np.asarray(grad, dtype=np.float64) / count
        if axis is not None and not keepdims:
            axes_ = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.data.ndim for ax in axes_):
                g = np.expand_dims(g, ax)
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return Tensor._build(out_data, (a,), backward, "mean")


def max(a: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    a = as_tensor(a)
    out_data = a.data.max(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        g = np.asarray(grad, dtype=np.float64)
        expanded = out_data
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.data.ndim for ax in axes):
                g = np.expand_dims(g, ax)
                expanded = np.expand_dims(expanded, ax)
        mask = (a.data == expanded).astype(np.float64)
        # split gradient equally among ties to keep the op well defined
        mask_sum = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
        a._accumulate(np.broadcast_to(g, a.data.shape) * mask / np.maximum(mask_sum, 1.0))

    return Tensor._build(out_data, (a,), backward, "max")


# ----------------------------------------------------------------------
# shape manipulation
# ----------------------------------------------------------------------
def reshape(a: ArrayLike, shape: Tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(np.asarray(grad).reshape(a.data.shape))

    return Tensor._build(out_data, (a,), backward, "reshape")


def transpose(a: ArrayLike, axes: Optional[Sequence[int]] = None) -> Tensor:
    a = as_tensor(a)
    out_data = np.transpose(a.data, axes)

    def backward(grad: np.ndarray) -> None:
        if axes is None:
            a._accumulate(np.transpose(grad))
        else:
            inverse = np.argsort(axes)
            a._accumulate(np.transpose(grad, inverse))

    return Tensor._build(out_data, (a,), backward, "transpose")


def concat(tensors: Sequence[ArrayLike], axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(index)])

    return Tensor._build(out_data, tuple(tensors), backward, "concat")


def stack(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        slices = np.moveaxis(grad, axis, 0)
        for tensor, piece in zip(tensors, slices):
            tensor._accumulate(piece)

    return Tensor._build(out_data, tuple(tensors), backward, "stack")


def getitem(a: ArrayLike, index) -> Tensor:
    a = as_tensor(a)
    out_data = a.data[index]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(a.data)
        np.add.at(full, index, grad)
        a._accumulate(full)

    return Tensor._build(out_data, (a,), backward, "getitem")


def gather_rows(a: ArrayLike, indices: np.ndarray) -> Tensor:
    """Select rows ``a[indices]`` with a scatter-add backward pass.

    This is the embedding-lookup primitive: repeated indices accumulate
    gradient contributions, exactly like ``torch.nn.Embedding``.
    """
    a = as_tensor(a)
    indices = np.asarray(indices, dtype=np.int64)
    out_data = a.data[indices]

    def backward(grad: np.ndarray) -> None:
        if not a.requires_grad:
            return
        # Scatter straight into the accumulation buffer: no full-size
        # temporary, and the repeated-index sum runs as a sparse mat-vec.
        _scatter_add_2d(a._ensure_grad_buffer(), indices, np.asarray(grad))

    return Tensor._build(out_data, (a,), backward, "gather_rows")


def scatter_add_rows(base: ArrayLike, indices: np.ndarray, updates: ArrayLike) -> Tensor:
    """Return ``base`` with ``updates`` scatter-added at ``indices`` along axis 0."""
    base, updates = as_tensor(base), as_tensor(updates)
    indices = np.asarray(indices, dtype=np.int64)
    out_data = base.data.copy()
    np.add.at(out_data, indices, updates.data)

    def backward(grad: np.ndarray) -> None:
        base._accumulate(grad)
        updates._accumulate(np.asarray(grad)[indices])

    return Tensor._build(out_data, (base, updates), backward, "scatter_add_rows")


def gather_concat_rows(tensors: Sequence[ArrayLike], indices: np.ndarray) -> Tensor:
    """Fused ``concat([t[indices] for t in tensors], axis=0)`` as one node.

    The NMCDR loss gathers the same batch rows from every stage tensor and
    stacks them for the shared prediction head; doing it in one node writes
    each gather straight into the output block (no intermediate copies) and
    scatters each block straight into its parent's gradient buffer.
    """
    tensors = [as_tensor(t) for t in tensors]
    indices = np.asarray(indices, dtype=np.int64)
    if not tensors:
        raise ValueError("gather_concat_rows needs at least one tensor")
    count = indices.shape[0]
    width = tensors[0].data.shape[1]
    out_data = np.empty((count * len(tensors), width), dtype=tensors[0].data.dtype)
    for block, tensor in enumerate(tensors):
        if tensor.data.ndim != 2 or tensor.data.shape[1] != width:
            raise ValueError("gather_concat_rows tensors must share their column count")
        np.take(tensor.data, indices, axis=0, out=out_data[block * count : (block + 1) * count])

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        for block, tensor in enumerate(tensors):
            if tensor.requires_grad:
                _scatter_add_2d(
                    tensor._ensure_grad_buffer(),
                    indices,
                    grad[block * count : (block + 1) * count],
                )

    return Tensor._build(out_data, tuple(tensors), backward, "gather_concat_rows")


def pair_feature_concat(u: ArrayLike, v: ArrayLike, interaction: bool = True) -> Tensor:
    """Fused ``concat([u, v, u * v], axis=1)`` (the prediction-head input).

    One node instead of a mul plus a concat: each block is written straight
    into the output, and the backward rule adds the interaction term's
    product-rule contributions without materialising sliced copies first.
    """
    u, v = as_tensor(u), as_tensor(v)
    if u.data.shape != v.data.shape or u.data.ndim != 2:
        raise ValueError(
            f"pair_feature_concat expects equal (B, D) operands, got "
            f"{u.data.shape} and {v.data.shape}"
        )
    count, width = u.data.shape
    blocks = 3 if interaction else 2
    out_data = np.empty((count, blocks * width), dtype=u.data.dtype)
    out_data[:, :width] = u.data
    out_data[:, width : 2 * width] = v.data
    if interaction:
        np.multiply(u.data, v.data, out=out_data[:, 2 * width :])

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        grad_u = grad[:, :width]
        grad_v = grad[:, width : 2 * width]
        if interaction:
            grad_uv = grad[:, 2 * width :]
            u._accumulate(grad_u + grad_uv * v.data)
            v._accumulate(grad_v + grad_uv * u.data)
        else:
            u._accumulate(grad_u)
            v._accumulate(grad_v)

    return Tensor._build(out_data, (u, v), backward, "pair_feature_concat")


def binary_cross_entropy_probs(
    probabilities: ArrayLike,
    targets: Union[Tensor, np.ndarray],
    weights: Optional[np.ndarray] = None,
    reduction: str = "mean",
    eps: float = 1e-7,
    return_terms: bool = False,
) -> Tensor:
    """Fused binary cross-entropy on probabilities (Eq. 21), one graph node.

    Computes ``-(t * log(clip(p)) + (1 - t) * log(1 - clip(p)))`` with
    ``clip`` to ``[eps, 1 - eps]``, optionally scaled elementwise by the
    constant ``weights``, then reduced.  Replaces the nine-node clip/log/
    mul/add chain the losses module would otherwise build per call.

    ``return_terms=True`` additionally returns the already-materialised
    pre-reduction term array as ``(tensor, terms)`` — same values the
    reduction consumed, in their *natural* dtype (the promotion of
    probabilities against targets, typically float64 labels), at zero
    extra cost.  The sharded executor ships these raw terms to the parent
    process, which reassembles them in canonical batch order and applies
    this kernel's reduction; keeping the terms pre-cast is what makes that
    reduction bit-identical to the serial loss under the float32 engine.
    """
    probabilities = as_tensor(probabilities)
    target_data = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    p = probabilities.data
    clipped = np.clip(p, eps, 1.0 - eps)
    loss = -(target_data * np.log(clipped) + (1.0 - target_data) * np.log(1.0 - clipped))
    if weights is not None:
        weights = np.asarray(weights)
        loss = loss * weights
    if reduction == "mean":
        out_data = loss.mean()
        scale = 1.0 / loss.size
    elif reduction == "sum":
        out_data = loss.sum()
        scale = 1.0
    elif reduction == "none":
        out_data = loss
        scale = 1.0
    else:
        raise ValueError(f"unknown reduction '{reduction}'")

    def backward(grad: np.ndarray) -> None:
        # d loss / d clipped, masked where the clip is inactive.
        base = (1.0 - target_data) / (1.0 - clipped) - target_data / clipped
        base *= (p >= eps) & (p <= 1.0 - eps)
        if weights is not None:
            base *= weights
        probabilities._accumulate(base * (np.asarray(grad) * scale))

    node = Tensor._build(out_data, (probabilities,), backward, "binary_cross_entropy_probs")
    if return_terms:
        return node, loss
    return node


def broadcast_rows(row: ArrayLike, num_rows: int) -> Tensor:
    """Broadcast a ``(1, D)`` row to ``(num_rows, D)`` without materialising it.

    Replaces the ``ones(N, 1) @ row`` idiom: the forward pass is a numpy
    broadcast view (zero copy) and the backward pass is a single column sum
    instead of a dense matmul against the ones matrix.
    """
    row = as_tensor(row)
    if row.data.ndim != 2 or row.data.shape[0] != 1:
        raise ValueError(f"broadcast_rows expects a (1, D) row, got {row.data.shape}")
    out_data = np.broadcast_to(row.data, (int(num_rows), row.data.shape[1]))

    def backward(grad: np.ndarray) -> None:
        row._accumulate(np.asarray(grad).sum(axis=0, keepdims=True))

    return Tensor._build(out_data, (row,), backward, "broadcast_rows")


def scatter_rows(updates: ArrayLike, indices: np.ndarray, num_rows: int) -> Tensor:
    """Place ``updates`` rows at ``indices`` of an otherwise-zero matrix.

    ``indices`` must be unique (each destination row receives at most one
    update) — the inter-matching overlap mapping guarantees that.  Replaces
    a dense ``scatter_matrix @ updates`` product with an O(K · D) assignment.
    """
    updates = as_tensor(updates)
    indices = np.asarray(indices, dtype=np.int64)
    if updates.data.ndim != 2 or indices.shape[0] != updates.data.shape[0]:
        raise ValueError(
            f"scatter_rows expects aligned (K, D) updates and K indices, got "
            f"{updates.data.shape} and {indices.shape}"
        )
    out_data = np.zeros((int(num_rows), updates.data.shape[1]), dtype=updates.data.dtype)
    out_data[indices] = updates.data

    def backward(grad: np.ndarray) -> None:
        updates._accumulate(np.asarray(grad)[indices])

    return Tensor._build(out_data, (updates,), backward, "scatter_rows")


# ----------------------------------------------------------------------
# misc
# ----------------------------------------------------------------------
def clip(a: ArrayLike, low: float, high: float) -> Tensor:
    a = as_tensor(a)
    out_data = np.clip(a.data, low, high)
    mask = (a.data >= low) & (a.data <= high)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * mask)

    return Tensor._build(out_data, (a,), backward, "clip")


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    condition = np.asarray(condition, dtype=bool)
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * condition)
        b._accumulate(grad * (~condition))

    return Tensor._build(out_data, (a, b), backward, "where")


def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.maximum(a.data, b.data)
    mask = a.data >= b.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * mask)
        b._accumulate(grad * (~mask))

    return Tensor._build(out_data, (a, b), backward, "maximum")


def dropout_mask_apply(a: ArrayLike, mask: np.ndarray, scale: float) -> Tensor:
    """Apply a pre-sampled dropout mask with inverted-dropout scaling."""
    a = as_tensor(a)
    mask = np.asarray(mask, dtype=np.float64)
    out_data = a.data * mask * scale

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * mask * scale)

    return Tensor._build(out_data, (a,), backward, "dropout")
