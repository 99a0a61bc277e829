"""Traced step programs: record one executed step, replay a flat program.

``PlanSchedule`` and ``SubgraphCache`` already guarantee that the same plan
signature produces a structurally identical autograd graph step after step,
yet the eager engine rebuilds that graph every time: one ``Tensor`` node, one
backward closure and one gradient-dict entry per op, plus a topological sort
per backward.  This module removes that constant factor.

* **Recording** — :class:`TraceRuntime` wraps every public op (the same
  module-attribute patch points :func:`repro.profiling.instrument_ops` uses).
  The first execution of a section runs eagerly and is captured as a
  :class:`SteppedProgram`: a flat, fixed-topo-order list of :class:`OpStep`
  records with pre-resolved input descriptors, plus one
  :class:`BackwardEvent` per ``backward()`` call holding the reversed
  topological order as step references.
* **Replay** — subsequent executions of the same section key run each op as
  a direct kernel call: no node allocation, no closures, no topo re-sort, no
  gradient dict.  Activations and gradients live in per-step **arena slabs**
  that are reused across steps; shape-polymorphic slots rebind (reallocate)
  when a step's batch shapes change, so variable batch sizes replay fine.
* **Guards** — every replayed op re-validates its identity against the
  recording: op name in sequence order, producing-step identity of each
  tensor input, input dtypes and ``requires_grad`` flags, and the dtypes of
  raw ndarray operands.  Any mismatch raises :class:`TraceGuardMismatch`;
  the section then falls back to eager execution (restoring any consumed rng
  state first) and re-records.  Correctness therefore never depends on the
  section key: the key only controls the hit rate.

Kernels recompute the forward exactly as the eager op does (same expressions,
same dtype coercions, same clip/mask recipes), so replayed training is
bit-identical to eager execution — this is asserted in float64 and float32
by the ``traced`` test suite.
"""

from __future__ import annotations

import copy
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import engine
from .ops import (
    _csc_matvecs,
    _csr_matvecs,
    _scatter_add_2d,
    _segment_attend_backward,
    _segment_attend_forward,
    _sigmoid_forward,
)
from .tensor import Tensor, _unbroadcast

__all__ = [
    "TraceGuardMismatch",
    "TraceRuntime",
    "TraceStats",
    "SteppedProgram",
    "OpStep",
    "model_rng_sources",
    "model_trace_signature",
]


class TraceGuardMismatch(Exception):
    """A replayed section diverged from its recording; caller must re-trace."""


# ----------------------------------------------------------------------
# arena / stats
# ----------------------------------------------------------------------
class Arena:
    """Bookkeeping and recycling for the replay slabs owned by :class:`OpStep`.

    Slabs are plain per-step arrays (activation output + gradient); the
    arena tracks how many are bound, their total bytes, and how often a slab
    was rebound because a step's shape changed between replays.  Rebound and
    released slabs park in a bounded per-(shape, dtype) free list so
    shape-polymorphic steps (fanout-sampled subgraphs fluctuate every step)
    recycle allocations instead of churning ``np.empty`` — the same trick
    the eager path's :class:`~repro.tensor.engine.GradientBufferPool` plays,
    kept separate so replay never competes with eager for buffers.
    """

    #: Free-list depth per distinct (shape, dtype); mirrors the engine pool.
    max_per_shape = 32
    #: Total bytes the free list may hold.  Fanout-sampled plans produce
    #: edge-sized shapes that rarely recur exactly, so without a global cap
    #: the exact-shape-keyed free list grows without bound; dict insertion
    #: order makes eviction approximately oldest-shape-first.
    max_free_bytes = 64 * 1024 * 1024

    def __init__(self) -> None:
        self.slabs = 0
        self.nbytes = 0
        self.rebinds = 0
        self.reuses = 0
        self._free: Dict[Tuple, List[np.ndarray]] = {}
        self._free_bytes = 0

    def _park(self, array: np.ndarray) -> None:
        stack = self._free.setdefault((array.shape, array.dtype.str), [])
        if len(stack) >= self.max_per_shape:
            return
        stack.append(array)
        self._free_bytes += array.nbytes
        while self._free_bytes > self.max_free_bytes and self._free:
            oldest = next(iter(self._free))
            for stale in self._free.pop(oldest):
                self._free_bytes -= stale.nbytes

    def allocate(self, old: Optional[np.ndarray], shape, dtype) -> np.ndarray:
        if old is None:
            self.slabs += 1
        else:
            self.rebinds += 1
            self.nbytes -= old.nbytes
            self._park(old)
        stack = self._free.get((tuple(shape), np.dtype(dtype).str))
        if stack:
            array = stack.pop()
            self._free_bytes -= array.nbytes
            self.reuses += 1
        else:
            array = np.empty(shape, dtype=dtype)
        self.nbytes += array.nbytes
        return array

    def released(self, arrays: Iterable[Optional[np.ndarray]]) -> None:
        for array in arrays:
            if array is not None:
                self.slabs -= 1
                self.nbytes -= array.nbytes
                self._park(array)

    def as_dict(self) -> Dict[str, int]:
        return {
            "slabs": self.slabs,
            "nbytes": self.nbytes,
            "rebinds": self.rebinds,
            "reuses": self.reuses,
        }


class TraceStats:
    """Section-level counters for one :class:`TraceRuntime`."""

    def __init__(self) -> None:
        self.hits = 0          # sections replayed from a cached program
        self.misses = 0        # sections recorded (first sight of a key)
        self.fallbacks = 0     # guard mismatches that forced a re-trace
        self.untraceable = 0   # sections permanently poisoned to eager
        self.eager = 0         # sections run eagerly because of poisoning
        self.evictions = 0     # programs dropped by the LRU bound
        self.last_fallback: Optional[str] = None

    @property
    def sections(self) -> int:
        return self.hits + self.misses + self.fallbacks + self.eager

    @property
    def hit_rate(self) -> float:
        total = self.sections
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fallbacks": self.fallbacks,
            "untraceable": self.untraceable,
            "eager": self.eager,
            "evictions": self.evictions,
            "sections": self.sections,
            "hit_rate": self.hit_rate,
        }

    @staticmethod
    def merge(dicts: Iterable[Optional[Dict[str, Any]]]) -> Dict[str, Any]:
        """Sum stat dicts (e.g. one per sharded worker) into one."""
        merged: Dict[str, Any] = {
            "hits": 0,
            "misses": 0,
            "fallbacks": 0,
            "untraceable": 0,
            "eager": 0,
            "evictions": 0,
            "sections": 0,
            "arena": {"slabs": 0, "nbytes": 0, "rebinds": 0, "reuses": 0},
        }
        for stats in dicts:
            if not stats:
                continue
            for key in ("hits", "misses", "fallbacks", "untraceable", "eager",
                        "evictions", "sections"):
                merged[key] += int(stats.get(key, 0))
            arena = stats.get("arena") or {}
            for key in ("slabs", "nbytes", "rebinds", "reuses"):
                merged["arena"][key] += int(arena.get(key, 0))
        total = merged["sections"]
        merged["hit_rate"] = merged["hits"] / total if total else 0.0
        return merged


# ----------------------------------------------------------------------
# program structure
# ----------------------------------------------------------------------
class OpStep:
    """One recorded op: a recycled output node plus its replay state."""

    __slots__ = (
        "name", "hook", "node", "forward", "backward", "descriptors",
        "array_sig", "args", "kwargs", "saved", "out_slab", "grad",
        "has_grad", "requires", "arena", "scratch",
    )

    def __init__(self, name, hook, node, forward, backward, descriptors,
                 array_sig, arena) -> None:
        self.name = name
        self.hook = hook
        self.node = node
        self.forward = forward
        self.backward = backward
        self.descriptors = descriptors
        self.array_sig = array_sig
        self.args: Tuple = ()
        self.kwargs: Dict = {}
        self.saved: Any = None
        self.out_slab: Optional[np.ndarray] = None
        self.grad: Optional[np.ndarray] = None
        self.has_grad = False
        self.requires = bool(node.requires_grad)
        self.arena = arena
        self.scratch: Dict[str, np.ndarray] = {}

    def slab(self, shape, dtype) -> np.ndarray:
        """Persistent output buffer, rebound when the step's shape changes."""
        out = self.out_slab
        if out is None or out.shape != shape or out.dtype != dtype:
            out = self.arena.allocate(out, shape, dtype)
            self.out_slab = out
        return out

    def buffer(self, tag: str, shape, dtype) -> np.ndarray:
        """Persistent scratch slab for a kernel-internal temporary.

        Heavy kernels route their large intermediates (edge gathers,
        broadcast products, gradient heads) through these with ``out=`` so a
        replayed step performs zero large allocations — the eager path
        mallocs (and for multi-MB arrays, mmaps) each of them per call.

        Each tag is backed by a flat slab that only ever grows (by 1.5x),
        and the caller receives a reshaped prefix view.  Sampled plans make
        edge-sized shapes fluctuate every step; sizing by capacity instead
        of exact shape turns one-rebind-per-replay into O(log max_size)
        rebinds over a whole run.
        """
        dtype = np.dtype(dtype)
        need = 1
        for dim in shape:
            need *= int(dim)
        base = self.scratch.get(tag)
        if base is None or base.dtype != dtype or base.size < need:
            grown = need if base is None else max(need, base.size + (base.size >> 1))
            base = self.arena.allocate(base, (grown,), dtype)
            self.scratch[tag] = base
        view = base[:need]
        view.shape = shape
        return view

    def grad_slab(self) -> np.ndarray:
        shape, dtype = self.node.data.shape, self.node.data.dtype
        grad = self.grad
        if grad is None or grad.shape != shape or grad.dtype != dtype:
            grad = self.arena.allocate(grad, shape, dtype)
            self.grad = grad
        return grad

    def accumulate(self, value: np.ndarray) -> None:
        """Mirror of ``Tensor._accumulate`` against the arena grad slab."""
        if not self.requires:
            return
        value = _unbroadcast(value, self.node.data.shape)
        if self.has_grad:
            self.grad += value
        else:
            np.copyto(self.grad_slab(), value)
            self.has_grad = True

    def zero_grad_buffer(self) -> np.ndarray:
        """Mirror of ``Tensor._ensure_grad_buffer`` for scatter backwards."""
        if not self.has_grad:
            grad = self.grad_slab()
            grad.fill(0.0)
            self.has_grad = True
        return self.grad

    def recycle_grad(self) -> None:
        """Park the consumed gradient slab for reuse by an earlier step.

        Called right after this step's backward kernel ran: reverse topo
        order guarantees no later reader, so the slab cycles through the
        arena free list exactly like eager's ``GradientBufferPool`` churn —
        a handful of cache-hot buffers serve the whole sweep instead of one
        cold persistent slab per step.
        """
        grad = self.grad
        if grad is not None:
            self.grad = None
            self.arena.released((grad,))


class BackwardEvent:
    """One recorded ``backward()`` call: root step + reversed topo order."""

    __slots__ = ("root", "steps")

    def __init__(self, root: OpStep, steps: Tuple[OpStep, ...]) -> None:
        self.root = root
        self.steps = steps


class SteppedProgram:
    """A recorded section: flat op steps plus backward events, in order."""

    __slots__ = ("key", "steps", "events", "untraceable", "replays")

    def __init__(self, key) -> None:
        self.key = key
        self.steps: List[OpStep] = []
        self.events: List[BackwardEvent] = []
        self.untraceable = False
        self.replays = 0


# ----------------------------------------------------------------------
# kernel helpers (exact mirrors of the eager coercions)
# ----------------------------------------------------------------------
def _tdata(x) -> np.ndarray:
    """Mirror ``as_tensor(x).data``: engine-dtype array for non-tensors."""
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=engine.get_dtype())


def _wants_grad(x) -> bool:
    step = getattr(x, "_trace_step", None)
    if step is not None:
        return step.requires
    return isinstance(x, Tensor) and x.requires_grad


def _acc(target, value) -> None:
    """Accumulate into a traced step's slab or an untraced leaf's ``grad``."""
    step = getattr(target, "_trace_step", None)
    if step is not None:
        step.accumulate(value)
    else:
        target._accumulate(value)


def _grad_buffer(target) -> np.ndarray:
    """Zero-filled accumulation buffer for scatter-style backward rules."""
    step = getattr(target, "_trace_step", None)
    if step is not None:
        return step.zero_grad_buffer()
    return target._ensure_grad_buffer()


def _finish(step: OpStep, out_data: np.ndarray) -> Tensor:
    """Install the forward result on the recycled node (eager dtype cast)."""
    node = step.node
    node.data = np.asarray(out_data, dtype=engine.get_dtype())
    return node


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _expand_reduced(g: np.ndarray, axis, keepdims: bool, ndim: int) -> np.ndarray:
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for ax in sorted(ax % ndim for ax in axes):
            g = np.expand_dims(g, ax)
    return g


# ----------------------------------------------------------------------
# replay kernels — elementwise arithmetic
# ----------------------------------------------------------------------
def _binary_forward(step, ufunc):
    a, b = step.args
    a_data, b_data = _tdata(a), _tdata(b)
    dtype = engine.get_dtype()
    if a_data.dtype == dtype and b_data.dtype == dtype:
        shape = np.broadcast_shapes(a_data.shape, b_data.shape)
        out = ufunc(a_data, b_data, out=step.slab(shape, dtype))
    else:
        out = ufunc(a_data, b_data)
    step.saved = (a, b, a_data, b_data)
    return _finish(step, out)


def _f_add(step):
    return _binary_forward(step, np.add)


def _b_add(step, grad):
    a, b = step.saved[0], step.saved[1]
    if _wants_grad(a):
        _acc(a, grad)
    if _wants_grad(b):
        _acc(b, grad)


def _f_sub(step):
    return _binary_forward(step, np.subtract)


def _b_sub(step, grad):
    a, b = step.saved[0], step.saved[1]
    if _wants_grad(a):
        _acc(a, grad)
    if _wants_grad(b):
        _acc(b, -grad)


def _f_mul(step):
    return _binary_forward(step, np.multiply)


def _b_mul(step, grad):
    a, b, a_data, b_data = step.saved
    if _wants_grad(a):
        _acc(a, grad * b_data)
    if _wants_grad(b):
        _acc(b, grad * a_data)


def _f_div(step):
    return _binary_forward(step, np.divide)


def _b_div(step, grad):
    a, b, a_data, b_data = step.saved
    if _wants_grad(a):
        _acc(a, grad / b_data)
    if _wants_grad(b):
        _acc(b, -grad * a_data / (b_data ** 2))


def _f_neg(step):
    (a,) = step.args
    a_data = _tdata(a)
    step.saved = a
    return _finish(step, -a_data)


def _b_neg(step, grad):
    if _wants_grad(step.saved):
        _acc(step.saved, -grad)


def _f_pow(step):
    a = step.args[0]
    exponent = float(_arg(step.args, step.kwargs, 1, "exponent"))
    a_data = _tdata(a)
    step.saved = (a, a_data, exponent)
    return _finish(step, a_data ** exponent)


def _b_pow(step, grad):
    a, a_data, exponent = step.saved
    if _wants_grad(a):
        _acc(a, grad * exponent * (a_data ** (exponent - 1.0)))


# ----------------------------------------------------------------------
# replay kernels — linear algebra
# ----------------------------------------------------------------------
def _f_matmul(step):
    a, b = step.args
    a_data, b_data = _tdata(a), _tdata(b)
    dtype = engine.get_dtype()
    if (
        a_data.ndim == 2
        and b_data.ndim == 2
        and a_data.dtype == dtype
        and b_data.dtype == dtype
    ):
        out = np.matmul(
            a_data, b_data, out=step.slab((a_data.shape[0], b_data.shape[1]), dtype)
        )
    else:
        out = a_data @ b_data
    step.saved = (a, b, a_data, b_data)
    return _finish(step, out)


def _b_matmul(step, grad):
    a, b, a_data, b_data = step.saved
    if a_data.ndim == 1 and b_data.ndim == 1:
        if _wants_grad(a):
            _acc(a, grad * b_data)
        if _wants_grad(b):
            _acc(b, grad * a_data)
        return
    if a_data.ndim == 1:
        if _wants_grad(a):
            _acc(a, grad @ b_data.T)
        if _wants_grad(b):
            _acc(b, np.outer(a_data, grad))
        return
    if b_data.ndim == 1:
        if _wants_grad(a):
            _acc(a, np.outer(grad, b_data))
        if _wants_grad(b):
            _acc(b, a_data.T @ grad)
        return
    if _wants_grad(a):
        _acc(a, grad @ np.swapaxes(b_data, -1, -2))
    if _wants_grad(b):
        _acc(b, np.swapaxes(a_data, -1, -2) @ grad)


def _f_linear(step):
    args, kwargs = step.args, step.kwargs
    x, weight = args[0], args[1]
    bias = _arg(args, kwargs, 2, "bias")
    activation = _arg(args, kwargs, 3, "activation")
    x_data, w_data = _tdata(x), _tdata(weight)
    dtype = engine.get_dtype()
    fast = x_data.dtype == dtype and w_data.dtype == dtype
    if fast:
        out = np.matmul(
            x_data, w_data, out=step.slab((x_data.shape[0], w_data.shape[1]), dtype)
        )
    else:
        out = x_data @ w_data
    if bias is not None:
        b_data = _tdata(bias)
        if fast and b_data.dtype == dtype:
            np.add(out, b_data, out=out)
        else:
            out = out + b_data
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    elif activation == "sigmoid":
        out = _sigmoid_forward(out)
    elif activation == "tanh":
        np.tanh(out, out=out)
    step.saved = (x, weight, bias, activation, x_data, w_data, out)
    return _finish(step, out)


def _b_linear(step, grad):
    # The activation head and both matmul products go through scratch slabs
    # with ``out=`` — same ufunc chain and dtype promotion as the eager
    # closure, no per-replay allocation for the three full-size temporaries.
    x, weight, bias, activation, x_data, w_data, out = step.saved
    grad = np.asarray(grad)
    if activation == "relu":
        mask = np.greater(out, 0, out=step.buffer("am", out.shape, np.bool_))
        head = np.multiply(
            grad, mask, out=step.buffer("hd", out.shape, grad.dtype)
        )
    elif activation == "sigmoid":
        head = np.multiply(
            grad, out,
            out=step.buffer("hd", out.shape, np.result_type(grad, out)),
        )
        tail = np.subtract(1.0, out, out=step.buffer("tl", out.shape, out.dtype))
        np.multiply(head, tail, out=head)
    elif activation == "tanh":
        tail = np.power(out, 2, out=step.buffer("tl", out.shape, out.dtype))
        np.subtract(1.0, tail, out=tail)
        head = np.multiply(
            grad, tail,
            out=step.buffer("hd", out.shape, np.result_type(grad, tail)),
        )
    else:
        head = grad
    if _wants_grad(x):
        _acc(
            x,
            np.matmul(
                head, w_data.T,
                out=step.buffer(
                    "xg",
                    (head.shape[0], w_data.shape[0]),
                    np.result_type(head, w_data),
                ),
            ),
        )
    if _wants_grad(weight):
        _acc(
            weight,
            np.matmul(
                x_data.T, head,
                out=step.buffer(
                    "wg",
                    (x_data.shape[1], head.shape[1]),
                    np.result_type(x_data, head),
                ),
            ),
        )
    if bias is not None and _wants_grad(bias):
        _acc(
            bias,
            np.sum(
                head, axis=0, out=step.buffer("bg", (head.shape[1],), head.dtype)
            ),
        )


def _f_addmm(step):
    args, kwargs = step.args, step.kwargs
    c, a, b = args[0], args[1], args[2]
    beta = float(_arg(args, kwargs, 3, "beta", 1.0))
    alpha = float(_arg(args, kwargs, 4, "alpha", 1.0))
    c_data, a_data, b_data = _tdata(c), _tdata(a), _tdata(b)
    product = a_data @ b_data
    if alpha != 1.0:
        product *= alpha
    out = product + (beta * c_data if beta != 1.0 else c_data)
    step.saved = (c, a, b, a_data, b_data, beta, alpha)
    return _finish(step, out)


def _b_addmm(step, grad):
    c, a, b, a_data, b_data, beta, alpha = step.saved
    grad = np.asarray(grad)
    if _wants_grad(c):
        _acc(c, grad if beta == 1.0 else beta * grad)
    if _wants_grad(a):
        scaled = grad if alpha == 1.0 else alpha * grad
        _acc(a, scaled @ b_data.T)
    if _wants_grad(b):
        scaled = grad if alpha == 1.0 else alpha * grad
        _acc(b, a_data.T @ scaled)


# ----------------------------------------------------------------------
# replay kernels — unary nonlinearities
# ----------------------------------------------------------------------
def _f_exp(step):
    a = step.args[0]
    out = np.exp(_tdata(a))
    step.saved = (a, out)
    return _finish(step, out)


def _b_exp(step, grad):
    a, out = step.saved
    if _wants_grad(a):
        _acc(a, grad * out)


_EPS = 1e-12


def _f_log(step):
    a = step.args[0]
    a_data = _tdata(a)
    step.saved = (a, a_data)
    return _finish(step, np.log(np.maximum(a_data, _EPS)))


def _b_log(step, grad):
    a, a_data = step.saved
    if _wants_grad(a):
        _acc(a, grad / np.maximum(a_data, _EPS))


def _f_sqrt(step):
    a = step.args[0]
    out = np.sqrt(np.maximum(_tdata(a), 0.0))
    step.saved = (a, out)
    return _finish(step, out)


def _b_sqrt(step, grad):
    a, out = step.saved
    if _wants_grad(a):
        _acc(a, grad * 0.5 / np.maximum(out, _EPS))


def _f_relu(step):
    a = step.args[0]
    a_data = _tdata(a)
    mask = a_data > 0
    dtype = engine.get_dtype()
    if a_data.dtype == dtype:
        out = np.multiply(a_data, mask, out=step.slab(a_data.shape, dtype))
    else:
        out = a_data * mask
    step.saved = (a, mask)
    return _finish(step, out)


def _b_relu(step, grad):
    a, mask = step.saved
    if _wants_grad(a):
        _acc(a, grad * mask)


def _f_leaky_relu(step):
    a = step.args[0]
    negative_slope = _arg(step.args, step.kwargs, 1, "negative_slope", 0.01)
    a_data = _tdata(a)
    mask = a_data > 0
    step.saved = (a, mask, negative_slope)
    return _finish(step, np.where(mask, a_data, negative_slope * a_data))


def _b_leaky_relu(step, grad):
    a, mask, negative_slope = step.saved
    if _wants_grad(a):
        _acc(a, grad * np.where(mask, 1.0, negative_slope))


def _f_sigmoid(step):
    a = step.args[0]
    out = _sigmoid_forward(_tdata(a))
    step.saved = (a, out)
    return _finish(step, out)


def _b_sigmoid(step, grad):
    a, out = step.saved
    if _wants_grad(a):
        _acc(a, grad * out * (1.0 - out))


def _f_tanh(step):
    a = step.args[0]
    a_data = _tdata(a)
    dtype = engine.get_dtype()
    if a_data.dtype == dtype:
        out = np.tanh(a_data, out=step.slab(a_data.shape, dtype))
    else:
        out = np.tanh(a_data)
    step.saved = (a, out)
    return _finish(step, out)


def _b_tanh(step, grad):
    a, out = step.saved
    if _wants_grad(a):
        _acc(a, grad * (1.0 - out ** 2))


def _f_gated_tanh_mix(step):
    first, second, gate_logits = step.args
    f_data, s_data, g_data = _tdata(first), _tdata(second), _tdata(gate_logits)
    gate = _sigmoid_forward(g_data)
    out = np.tanh((1.0 - gate) * f_data + gate * s_data)
    step.saved = (first, second, gate_logits, f_data, s_data, gate, out)
    return _finish(step, out)


def _b_gated_tanh_mix(step, grad):
    first, second, gate_logits, f_data, s_data, gate, out = step.saved
    base = grad * (1.0 - out ** 2)
    if _wants_grad(first):
        _acc(first, base * (1.0 - gate))
    if _wants_grad(second):
        _acc(second, base * gate)
    if _wants_grad(gate_logits):
        _acc(gate_logits, base * (s_data - f_data) * gate * (1.0 - gate))


def _f_softplus(step):
    a = step.args[0]
    x = _tdata(a)
    out = np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))
    step.saved = (a, x)
    return _finish(step, out)


def _b_softplus(step, grad):
    a, x = step.saved
    if _wants_grad(a):
        sig = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        _acc(a, grad * sig)


def _f_softmax(step):
    a = step.args[0]
    axis = _arg(step.args, step.kwargs, 1, "axis", -1)
    a_data = _tdata(a)
    shifted = a_data - a_data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out = exps / exps.sum(axis=axis, keepdims=True)
    step.saved = (a, axis, out)
    return _finish(step, out)


def _b_softmax(step, grad):
    a, axis, out = step.saved
    if _wants_grad(a):
        dot = np.sum(grad * out, axis=axis, keepdims=True)
        _acc(a, out * (grad - dot))


def _f_log_softmax(step):
    a = step.args[0]
    axis = _arg(step.args, step.kwargs, 1, "axis", -1)
    a_data = _tdata(a)
    shifted = a_data - a_data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_sum
    step.saved = (a, axis, np.exp(out))
    return _finish(step, out)


def _b_log_softmax(step, grad):
    a, axis, soft = step.saved
    if _wants_grad(a):
        _acc(a, grad - soft * grad.sum(axis=axis, keepdims=True))


def _f_softmax_cross_entropy(step):
    args, kwargs = step.args, step.kwargs
    logits, targets = args[0], args[1]
    axis = _arg(args, kwargs, 2, "axis", -1)
    reduction = _arg(args, kwargs, 3, "reduction", "mean")
    logits_data = _tdata(logits)
    target_data = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    shifted = logits_data - logits_data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    sum_exps = exps.sum(axis=axis, keepdims=True)
    log_probs = shifted - np.log(sum_exps)
    soft = exps / sum_exps
    loss_data = -(target_data * log_probs).sum(axis=axis)
    if reduction == "mean":
        out = loss_data.mean()
        scale = 1.0 / (loss_data.size or 1)
    elif reduction == "sum":
        out = loss_data.sum()
        scale = 1.0
    else:
        out = loss_data
        scale = 1.0
    step.saved = (logits, target_data, soft, axis, reduction, scale, logits_data.ndim)
    return _finish(step, out)


def _b_softmax_cross_entropy(step, grad):
    logits, target_data, soft, axis, reduction, scale, ndim = step.saved
    if _wants_grad(logits):
        g = np.asarray(grad)
        if reduction == "none":
            g = np.expand_dims(g, axis % ndim)
        _acc(logits, (soft - target_data) * (g * scale))


# ----------------------------------------------------------------------
# replay kernels — reductions
# ----------------------------------------------------------------------
def _f_sum(step):
    a = step.args[0]
    axis = _arg(step.args, step.kwargs, 1, "axis")
    keepdims = _arg(step.args, step.kwargs, 2, "keepdims", False)
    a_data = _tdata(a)
    step.saved = (a, axis, keepdims, a_data.shape)
    return _finish(step, a_data.sum(axis=axis, keepdims=keepdims))


def _b_sum(step, grad):
    a, axis, keepdims, shape = step.saved
    if _wants_grad(a):
        g = np.asarray(grad, dtype=np.float64)
        g = _expand_reduced(g, axis, keepdims, len(shape))
        _acc(a, np.broadcast_to(g, shape))


def _f_mean(step):
    a = step.args[0]
    axis = _arg(step.args, step.kwargs, 1, "axis")
    keepdims = _arg(step.args, step.kwargs, 2, "keepdims", False)
    a_data = _tdata(a)
    if axis is None:
        count = a_data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a_data.shape[ax]
    step.saved = (a, axis, keepdims, a_data.shape, count)
    return _finish(step, a_data.mean(axis=axis, keepdims=keepdims))


def _b_mean(step, grad):
    a, axis, keepdims, shape, count = step.saved
    if _wants_grad(a):
        g = np.asarray(grad, dtype=np.float64) / count
        g = _expand_reduced(g, axis, keepdims, len(shape))
        _acc(a, np.broadcast_to(g, shape))


def _f_max(step):
    a = step.args[0]
    axis = _arg(step.args, step.kwargs, 1, "axis")
    keepdims = _arg(step.args, step.kwargs, 2, "keepdims", False)
    a_data = _tdata(a)
    out = a_data.max(axis=axis, keepdims=keepdims)
    step.saved = (a, axis, keepdims, a_data, out)
    return _finish(step, out)


def _b_max(step, grad):
    a, axis, keepdims, a_data, out = step.saved
    if not _wants_grad(a):
        return
    g = np.asarray(grad, dtype=np.float64)
    expanded = out
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for ax in sorted(ax % a_data.ndim for ax in axes):
            g = np.expand_dims(g, ax)
            expanded = np.expand_dims(expanded, ax)
    mask = (a_data == expanded).astype(np.float64)
    mask_sum = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
    _acc(a, np.broadcast_to(g, a_data.shape) * mask / np.maximum(mask_sum, 1.0))


# ----------------------------------------------------------------------
# replay kernels — shape manipulation
# ----------------------------------------------------------------------
def _f_reshape(step):
    a = step.args[0]
    shape = _arg(step.args, step.kwargs, 1, "shape")
    a_data = _tdata(a)
    step.saved = (a, a_data.shape)
    return _finish(step, a_data.reshape(shape))


def _b_reshape(step, grad):
    a, shape = step.saved
    if _wants_grad(a):
        _acc(a, np.asarray(grad).reshape(shape))


def _f_transpose(step):
    a = step.args[0]
    axes = _arg(step.args, step.kwargs, 1, "axes")
    step.saved = (a, axes)
    return _finish(step, np.transpose(_tdata(a), axes))


def _b_transpose(step, grad):
    a, axes = step.saved
    if not _wants_grad(a):
        return
    if axes is None:
        _acc(a, np.transpose(grad))
    else:
        _acc(a, np.transpose(grad, np.argsort(axes)))


def _f_concat(step):
    tensors = step.args[0]
    axis = _arg(step.args, step.kwargs, 1, "axis", -1)
    arrays = [_tdata(t) for t in tensors]
    dtype = engine.get_dtype()
    if all(array.dtype == dtype for array in arrays):
        norm_axis = axis % arrays[0].ndim
        shape = list(arrays[0].shape)
        shape[norm_axis] = builtins_sum(array.shape[norm_axis] for array in arrays)
        out = np.concatenate(arrays, axis=axis, out=step.slab(tuple(shape), dtype))
    else:
        out = np.concatenate(arrays, axis=axis)
    sizes = [array.shape[axis] for array in arrays]
    step.saved = (tensors, axis, np.cumsum([0] + sizes))
    return _finish(step, out)


def _b_concat(step, grad):
    tensors, axis, offsets = step.saved
    grad = np.asarray(grad)
    for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
        if _wants_grad(tensor):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            _acc(tensor, grad[tuple(index)])


def _f_stack(step):
    tensors = step.args[0]
    axis = _arg(step.args, step.kwargs, 1, "axis", 0)
    step.saved = (tensors, axis)
    return _finish(step, np.stack([_tdata(t) for t in tensors], axis=axis))


def _b_stack(step, grad):
    tensors, axis = step.saved
    slices = np.moveaxis(np.asarray(grad), axis, 0)
    for tensor, piece in zip(tensors, slices):
        if _wants_grad(tensor):
            _acc(tensor, piece)


def _f_getitem(step):
    a, index = step.args
    a_data = _tdata(a)
    step.saved = (a, index, a_data)
    return _finish(step, a_data[index])


def _b_getitem(step, grad):
    a, index, a_data = step.saved
    if _wants_grad(a):
        full = np.zeros_like(a_data)
        np.add.at(full, index, grad)
        _acc(a, full)


# ----------------------------------------------------------------------
# replay kernels — gathers / scatters
# ----------------------------------------------------------------------
def _f_gather_rows(step):
    a, indices = step.args
    a_data = _tdata(a)
    indices = np.asarray(indices, dtype=np.int64)
    dtype = engine.get_dtype()
    if a_data.ndim == 2 and indices.ndim == 1 and a_data.dtype == dtype:
        out = np.take(
            a_data, indices, axis=0,
            out=step.slab((indices.shape[0], a_data.shape[1]), dtype), mode="clip",
        )
    else:
        out = a_data[indices]
    step.saved = (a, indices)
    return _finish(step, out)


def _b_gather_rows(step, grad):
    a, indices = step.saved
    if _wants_grad(a):
        _scatter_add_2d(_grad_buffer(a), indices, np.asarray(grad))


def _f_scatter_add_rows(step):
    base, indices, updates = step.args
    base_data, updates_data = _tdata(base), _tdata(updates)
    indices = np.asarray(indices, dtype=np.int64)
    out = base_data.copy()
    np.add.at(out, indices, updates_data)
    step.saved = (base, updates, indices)
    return _finish(step, out)


def _b_scatter_add_rows(step, grad):
    base, updates, indices = step.saved
    if _wants_grad(base):
        _acc(base, grad)
    if _wants_grad(updates):
        _acc(updates, np.asarray(grad)[indices])


def _f_gather_concat_rows(step):
    tensors, indices = step.args[0], step.args[1]
    arrays = [_tdata(t) for t in tensors]
    indices = np.asarray(indices, dtype=np.int64)
    count = indices.shape[0]
    width = arrays[0].shape[1]
    out = step.slab((count * len(arrays), width), arrays[0].dtype)
    for block, array in enumerate(arrays):
        np.take(
            array, indices, axis=0,
            out=out[block * count : (block + 1) * count], mode="clip",
        )
    step.saved = (tensors, indices, count)
    return _finish(step, out)


def _b_gather_concat_rows(step, grad):
    tensors, indices, count = step.saved
    grad = np.asarray(grad)
    for block, tensor in enumerate(tensors):
        if _wants_grad(tensor):
            _scatter_add_2d(
                _grad_buffer(tensor), indices, grad[block * count : (block + 1) * count]
            )


def _f_pair_feature_concat(step):
    u, v = step.args[0], step.args[1]
    interaction = _arg(step.args, step.kwargs, 2, "interaction", True)
    u_data, v_data = _tdata(u), _tdata(v)
    count, width = u_data.shape
    blocks = 3 if interaction else 2
    out = step.slab((count, blocks * width), u_data.dtype)
    out[:, :width] = u_data
    out[:, width : 2 * width] = v_data
    if interaction:
        np.multiply(u_data, v_data, out=out[:, 2 * width :])
    step.saved = (u, v, u_data, v_data, width, interaction)
    return _finish(step, out)


def _b_pair_feature_concat(step, grad):
    u, v, u_data, v_data, width, interaction = step.saved
    grad = np.asarray(grad)
    grad_u = grad[:, :width]
    grad_v = grad[:, width : 2 * width]
    if interaction:
        grad_uv = grad[:, 2 * width :]
        if _wants_grad(u):
            _acc(u, grad_u + grad_uv * v_data)
        if _wants_grad(v):
            _acc(v, grad_v + grad_uv * u_data)
    else:
        if _wants_grad(u):
            _acc(u, grad_u)
        if _wants_grad(v):
            _acc(v, grad_v)


def _f_broadcast_rows(step):
    row = step.args[0]
    num_rows = _arg(step.args, step.kwargs, 1, "num_rows")
    row_data = _tdata(row)
    step.saved = row
    return _finish(step, np.broadcast_to(row_data, (int(num_rows), row_data.shape[1])))


def _b_broadcast_rows(step, grad):
    if _wants_grad(step.saved):
        _acc(step.saved, np.asarray(grad).sum(axis=0, keepdims=True))


def _f_scatter_rows(step):
    updates = step.args[0]
    indices = np.asarray(step.args[1], dtype=np.int64)
    num_rows = _arg(step.args, step.kwargs, 2, "num_rows")
    updates_data = _tdata(updates)
    out = step.slab((int(num_rows), updates_data.shape[1]), updates_data.dtype)
    out.fill(0.0)
    out[indices] = updates_data
    step.saved = (updates, indices)
    return _finish(step, out)


def _b_scatter_rows(step, grad):
    updates, indices = step.saved
    if _wants_grad(updates):
        _acc(updates, np.asarray(grad)[indices])


# ----------------------------------------------------------------------
# replay kernels — losses / misc
# ----------------------------------------------------------------------
def _f_binary_cross_entropy_probs(step):
    args, kwargs = step.args, step.kwargs
    probabilities, targets = args[0], args[1]
    weights = _arg(args, kwargs, 2, "weights")
    reduction = _arg(args, kwargs, 3, "reduction", "mean")
    eps = _arg(args, kwargs, 4, "eps", 1e-7)
    return_terms = _arg(args, kwargs, 5, "return_terms", False)
    p = _tdata(probabilities)
    target_data = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    clipped = np.clip(p, eps, 1.0 - eps)
    loss = -(target_data * np.log(clipped) + (1.0 - target_data) * np.log(1.0 - clipped))
    if weights is not None:
        weights = np.asarray(weights)
        loss = loss * weights
    if reduction == "mean":
        out = loss.mean()
        scale = 1.0 / loss.size
    elif reduction == "sum":
        out = loss.sum()
        scale = 1.0
    else:
        out = loss
        scale = 1.0
    step.saved = (probabilities, target_data, p, clipped, weights, eps, scale)
    node = _finish(step, out)
    if return_terms:
        return node, loss
    return node


def _b_binary_cross_entropy_probs(step, grad):
    probabilities, target_data, p, clipped, weights, eps, scale = step.saved
    if not _wants_grad(probabilities):
        return
    base = (1.0 - target_data) / (1.0 - clipped) - target_data / clipped
    base *= (p >= eps) & (p <= 1.0 - eps)
    if weights is not None:
        base *= weights
    _acc(probabilities, base * (np.asarray(grad) * scale))


def _f_clip(step):
    a, low, high = step.args[0], step.args[1], step.args[2]
    a_data = _tdata(a)
    step.saved = (a, (a_data >= low) & (a_data <= high))
    return _finish(step, np.clip(a_data, low, high))


def _b_clip(step, grad):
    a, mask = step.saved
    if _wants_grad(a):
        _acc(a, grad * mask)


def _f_where(step):
    condition, a, b = step.args
    condition = np.asarray(condition, dtype=bool)
    step.saved = (a, b, condition)
    return _finish(step, np.where(condition, _tdata(a), _tdata(b)))


def _b_where(step, grad):
    a, b, condition = step.saved
    if _wants_grad(a):
        _acc(a, grad * condition)
    if _wants_grad(b):
        _acc(b, grad * (~condition))


def _f_maximum(step):
    a, b = step.args
    a_data, b_data = _tdata(a), _tdata(b)
    step.saved = (a, b, a_data >= b_data)
    return _finish(step, np.maximum(a_data, b_data))


def _b_maximum(step, grad):
    a, b, mask = step.saved
    if _wants_grad(a):
        _acc(a, grad * mask)
    if _wants_grad(b):
        _acc(b, grad * (~mask))


def _f_dropout_mask_apply(step):
    a, mask, scale = step.args
    a_data = _tdata(a)
    mask = np.asarray(mask, dtype=np.float64)
    step.saved = (a, mask, scale)
    return _finish(step, a_data * mask * scale)


def _b_dropout_mask_apply(step, grad):
    a, mask, scale = step.saved
    if _wants_grad(a):
        _acc(a, grad * mask * scale)


# ----------------------------------------------------------------------
# replay kernels — sparse message passing
# ----------------------------------------------------------------------
def _f_spmm(step):
    matrix, features = step.args
    matrix = matrix.tocsr()
    f_data = _tdata(features)
    result_dtype = np.promote_types(matrix.dtype, f_data.dtype)
    if (
        _csr_matvecs is not None
        and result_dtype == engine.get_dtype()
        and f_data.flags.c_contiguous
        and f_data.ndim == 2
    ):
        out = step.slab((matrix.shape[0], f_data.shape[1]), result_dtype)
        out.fill(0.0)
        _csr_matvecs(
            matrix.shape[0],
            matrix.shape[1],
            f_data.shape[1],
            matrix.indptr,
            matrix.indices,
            matrix.data,
            f_data.ravel(),
            out.ravel(),
        )
    else:
        out = matrix @ f_data
    step.saved = (features, matrix)
    return _finish(step, out)


def _b_spmm(step, grad):
    features, matrix = step.saved
    if not _wants_grad(features):
        return
    grad = np.asarray(grad)
    # ``matrix.T`` of a CSR matrix is the CSC matrix sharing the same
    # indptr/indices/data, and scipy's ``csc @ dense`` dispatches to the
    # same ``csc_matvecs`` kernel — so accumulating into a zeroed scratch
    # slab is bit-identical to ``matrix.T @ grad`` without the per-replay
    # allocation or matrix-validation overhead.
    if (
        _csc_matvecs is not None
        and matrix.format == "csr"
        and matrix.dtype == grad.dtype
        and grad.flags.c_contiguous
        and grad.ndim == 2
    ):
        out = step.buffer("fg", (matrix.shape[1], grad.shape[1]), grad.dtype)
        out.fill(0.0)
        _csc_matvecs(
            matrix.shape[1],
            matrix.shape[0],
            grad.shape[1],
            matrix.indptr,
            matrix.indices,
            matrix.data,
            grad.ravel(),
            out.ravel(),
        )
        _acc(features, out)
    else:
        _acc(features, matrix.T @ grad)


def _f_segment_softmax_attend(step):
    # The eager op's own array kernel, with its edge-sized temporaries and
    # chunk buffers drawn from persistent scratch slabs.
    args, kwargs = step.args, step.kwargs
    queries, keys, values = args[0], args[1], args[2]
    num_segments = int(_arg(args, kwargs, 5, "num_segments"))
    v_data = _tdata(values)
    out = step.slab((num_segments, v_data.shape[1]), v_data.dtype)
    state = _segment_attend_forward(
        _tdata(queries),
        _tdata(keys),
        v_data,
        np.ascontiguousarray(_arg(args, kwargs, 3, "edge_queries"), dtype=np.int64),
        np.ascontiguousarray(_arg(args, kwargs, 4, "edge_keys"), dtype=np.int64),
        num_segments,
        _arg(args, kwargs, 6, "eps", 1e-12),
        out,
        step.buffer,
    )
    step.saved = (queries, keys, values, state)
    return _finish(step, out)


def _b_segment_softmax_attend(step, grad):
    queries, keys, values, state = step.saved
    grad_values = _grad_buffer(values) if _wants_grad(values) else None
    grad_queries = _grad_buffer(queries) if _wants_grad(queries) else None
    grad_keys = _grad_buffer(keys) if _wants_grad(keys) else None
    _segment_attend_backward(state, grad, grad_queries, grad_keys, grad_values, step.buffer)


builtins_sum = sum  # the local reductions shadow nothing here, but be explicit


#: op name -> (replay forward, replay backward, op-hook name).  The hook name
#: matches the node ``op`` string ``Tensor._build`` reports for the eager op,
#: so profiler forward counts agree between modes.
KERNELS: Dict[str, Tuple[Callable, Callable, str]] = {
    "add": (_f_add, _b_add, "add"),
    "sub": (_f_sub, _b_sub, "sub"),
    "mul": (_f_mul, _b_mul, "mul"),
    "div": (_f_div, _b_div, "div"),
    "neg": (_f_neg, _b_neg, "neg"),
    "pow": (_f_pow, _b_pow, "pow"),
    "matmul": (_f_matmul, _b_matmul, "matmul"),
    "linear": (_f_linear, _b_linear, "linear"),
    "addmm": (_f_addmm, _b_addmm, "addmm"),
    "exp": (_f_exp, _b_exp, "exp"),
    "log": (_f_log, _b_log, "log"),
    "sqrt": (_f_sqrt, _b_sqrt, "sqrt"),
    "relu": (_f_relu, _b_relu, "relu"),
    "leaky_relu": (_f_leaky_relu, _b_leaky_relu, "leaky_relu"),
    "sigmoid": (_f_sigmoid, _b_sigmoid, "sigmoid"),
    "tanh": (_f_tanh, _b_tanh, "tanh"),
    "gated_tanh_mix": (_f_gated_tanh_mix, _b_gated_tanh_mix, "gated_tanh_mix"),
    "softplus": (_f_softplus, _b_softplus, "softplus"),
    "softmax": (_f_softmax, _b_softmax, "softmax"),
    "log_softmax": (_f_log_softmax, _b_log_softmax, "log_softmax"),
    "softmax_cross_entropy": (
        _f_softmax_cross_entropy, _b_softmax_cross_entropy, "softmax_cross_entropy"
    ),
    "sum": (_f_sum, _b_sum, "sum"),
    "mean": (_f_mean, _b_mean, "mean"),
    "max": (_f_max, _b_max, "max"),
    "reshape": (_f_reshape, _b_reshape, "reshape"),
    "transpose": (_f_transpose, _b_transpose, "transpose"),
    "concat": (_f_concat, _b_concat, "concat"),
    "stack": (_f_stack, _b_stack, "stack"),
    "pair_feature_concat": (
        _f_pair_feature_concat, _b_pair_feature_concat, "pair_feature_concat"
    ),
    "getitem": (_f_getitem, _b_getitem, "getitem"),
    "gather_rows": (_f_gather_rows, _b_gather_rows, "gather_rows"),
    "gather_concat_rows": (
        _f_gather_concat_rows, _b_gather_concat_rows, "gather_concat_rows"
    ),
    "scatter_add_rows": (_f_scatter_add_rows, _b_scatter_add_rows, "scatter_add_rows"),
    "broadcast_rows": (_f_broadcast_rows, _b_broadcast_rows, "broadcast_rows"),
    "scatter_rows": (_f_scatter_rows, _b_scatter_rows, "scatter_rows"),
    "binary_cross_entropy_probs": (
        _f_binary_cross_entropy_probs,
        _b_binary_cross_entropy_probs,
        "binary_cross_entropy_probs",
    ),
    "clip": (_f_clip, _b_clip, "clip"),
    "where": (_f_where, _b_where, "where"),
    "maximum": (_f_maximum, _b_maximum, "maximum"),
    "dropout_mask_apply": (_f_dropout_mask_apply, _b_dropout_mask_apply, "dropout"),
    "spmm": (_f_spmm, _b_spmm, "spmm"),
    "segment_softmax_attend": (
        _f_segment_softmax_attend, _b_segment_softmax_attend, "segment_softmax_attend"
    ),
}


# ----------------------------------------------------------------------
# input descriptors (the guard)
# ----------------------------------------------------------------------
def _iter_tensor_slots(args, kwargs):
    for value in args:
        if isinstance(value, Tensor):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, Tensor):
                    yield item
    if kwargs:
        for key in sorted(kwargs):
            value = kwargs[key]
            if isinstance(value, Tensor):
                yield value


def _describe_tensors(args, kwargs):
    return tuple(
        (getattr(t, "_trace_step", None), t.data.dtype.str, bool(t.requires_grad))
        for t in _iter_tensor_slots(args, kwargs)
    )


def _describe_arrays(args, kwargs):
    sig = []
    for value in args:
        if type(value) is np.ndarray:
            sig.append(value.dtype.str)
    if kwargs:
        for key in sorted(kwargs):
            value = kwargs[key]
            if type(value) is np.ndarray:
                sig.append(value.dtype.str)
    return tuple(sig)


# ----------------------------------------------------------------------
# runtime
# ----------------------------------------------------------------------
#: Only one runtime may patch the op modules at a time per process.
_active_runtime: Optional["TraceRuntime"] = None


class TraceRuntime:
    """Owns the program cache, the op wrappers and the replay state machine.

    One runtime per executor (the serial :class:`~repro.core.engine.
    StepExecutor`, or one per sharded worker process).  ``install()`` patches
    the op modules; :meth:`run_section` then records or replays each step.
    """

    def __init__(self, max_programs: int = 8) -> None:
        self.max_programs = int(max_programs)
        self.arena = Arena()
        self.stats = TraceStats()
        self._programs: "OrderedDict[Any, SteppedProgram]" = OrderedDict()
        self._untraceable_keys: set = set()
        self._mode: Optional[str] = None  # None | "record" | "replay"
        self._record_program: Optional[SteppedProgram] = None
        self._replay_program: Optional[SteppedProgram] = None
        self._cursor = 0
        self._event_cursor = 0
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # installation (same patch points as profiling.instrument_ops)
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every public op so record/replay can interpose.

        ``segment_mean`` is deliberately *not* wrapped: it is pure glue whose
        inner ``spmm`` call resolves through the patched module global, so
        wrapping it too would record the product twice.
        """
        global _active_runtime
        if self._patched:
            return
        if _active_runtime is not None:
            raise RuntimeError("another TraceRuntime is already installed in this process")
        import repro.baselines.minet
        import repro.baselines.ptupcdr
        import repro.core.complementing
        import repro.graph
        import repro.graph.kernels

        from ..graph import message_passing
        from . import ops as ops_module

        def wrap(name, original):
            def traced(*args, __rt=self, __name=name, __original=original, **kwargs):
                mode = __rt._mode
                if mode is None:
                    return __original(*args, **kwargs)
                if mode == "record":
                    result = __original(*args, **kwargs)
                    __rt._record_op(__name, args, kwargs, result)
                    return result
                return __rt._replay_op(__name, args, kwargs)

            traced.__wrapped__ = original
            return traced

        for name in ops_module.__all__:
            original = getattr(ops_module, name)
            self._patched.append((ops_module, name, original))
            setattr(ops_module, name, wrap(name, original))
        spmm_importers = (
            message_passing,
            repro.graph,
            repro.graph.kernels,
            repro.core.complementing,
            repro.baselines.minet,
            repro.baselines.ptupcdr,
        )
        original_spmm = message_passing.spmm
        traced_spmm = wrap("spmm", original_spmm)
        for module in spmm_importers:
            if getattr(module, "spmm", None) is original_spmm:
                self._patched.append((module, "spmm", original_spmm))
                setattr(module, "spmm", traced_spmm)
        original_attend = message_passing.segment_softmax_attend
        traced_attend = wrap("segment_softmax_attend", original_attend)
        for module in (message_passing, repro.graph, repro.core.complementing):
            if getattr(module, "segment_softmax_attend", None) is original_attend:
                self._patched.append((module, "segment_softmax_attend", original_attend))
                setattr(module, "segment_softmax_attend", traced_attend)
        engine.set_trace_backward_hook(self._on_backward)
        _active_runtime = self

    def uninstall(self) -> None:
        global _active_runtime
        if not self._patched:
            return
        engine.set_trace_backward_hook(None)
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()
        if _active_runtime is self:
            _active_runtime = None

    # ------------------------------------------------------------------
    # sections
    # ------------------------------------------------------------------
    def run_section(self, key, fn, rng_sources: Tuple = ()):
        """Run ``fn`` traced: record on first sight of ``key``, else replay.

        ``rng_sources`` lists the ``np.random.Generator`` objects ``fn``
        consumes; their state is snapshotted before a replay attempt so a
        guard mismatch can rewind and re-run eagerly with identical draws.
        """
        if self._mode is not None:
            raise RuntimeError("traced sections do not nest")
        if key in self._untraceable_keys:
            self.stats.eager += 1
            return fn()
        program = self._programs.get(key)
        if program is None:
            return self._record_section(key, fn)
        return self._replay_section(key, program, fn, rng_sources)

    def _record_section(self, key, fn):
        program = SteppedProgram(key)
        self._mode = "record"
        self._record_program = program
        try:
            result = fn()
        finally:
            self._mode = None
            self._record_program = None
        if program.untraceable:
            self._untraceable_keys.add(key)
            self.stats.untraceable += 1
            self.stats.misses += 1
            return result
        self._programs[key] = program
        if len(self._programs) > self.max_programs:
            _, evicted = self._programs.popitem(last=False)
            self._release_program(evicted)
            self.stats.evictions += 1
        self.stats.misses += 1
        return result

    def _replay_section(self, key, program, fn, rng_sources):
        states = [copy.deepcopy(g.bit_generator.state) for g in rng_sources]
        self._mode = "replay"
        self._replay_program = program
        self._cursor = 0
        self._event_cursor = 0
        try:
            result = fn()
            if self._cursor != len(program.steps) or self._event_cursor != len(
                program.events
            ):
                raise TraceGuardMismatch(
                    "section ended before consuming the recorded program"
                )
        except TraceGuardMismatch as mismatch:
            self._mode = None
            self._replay_program = None
            self.stats.fallbacks += 1
            self.stats.last_fallback = str(mismatch)
            for generator, state in zip(rng_sources, states):
                generator.bit_generator.state = state
            del self._programs[key]
            self._release_program(program)
            return self._record_section(key, fn)
        except BaseException:
            self._mode = None
            self._replay_program = None
            raise
        self._mode = None
        self._replay_program = None
        self._programs.move_to_end(key)
        program.replays += 1
        self.stats.hits += 1
        return result

    def _release_program(self, program: SteppedProgram) -> None:
        for step in program.steps:
            self.arena.released((step.out_slab, step.grad))
            self.arena.released(step.scratch.values())
            step.out_slab = None
            step.grad = None
            step.scratch.clear()

    # ------------------------------------------------------------------
    # record mode
    # ------------------------------------------------------------------
    def _record_op(self, name, args, kwargs, result) -> None:
        program = self._record_program
        if program.untraceable:
            return
        kernel = KERNELS.get(name)
        if kernel is None:
            program.untraceable = True
            return
        node = result[0] if isinstance(result, tuple) else result
        step = OpStep(
            name,
            kernel[2],
            node,
            kernel[0],
            kernel[1],
            _describe_tensors(args, kwargs),
            _describe_arrays(args, kwargs),
            self.arena,
        )
        node._trace_step = step
        program.steps.append(step)

    def _record_event(self, tensor: Tensor, grad) -> None:
        program = self._record_program
        if program.untraceable:
            return
        if grad is not None:
            program.untraceable = True
            return
        root_step = getattr(tensor, "_trace_step", None)
        if root_step is None:
            program.untraceable = True
            return
        steps: List[OpStep] = []
        for node in reversed(tensor._topological_order()):
            if node._backward is None:
                continue
            node_step = getattr(node, "_trace_step", None)
            if node_step is None:
                program.untraceable = True
                return
            steps.append(node_step)
        program.events.append(BackwardEvent(root_step, tuple(steps)))

    # ------------------------------------------------------------------
    # replay mode
    # ------------------------------------------------------------------
    def _replay_op(self, name, args, kwargs):
        program = self._replay_program
        index = self._cursor
        if index >= len(program.steps):
            raise TraceGuardMismatch(
                f"op sequence diverged: extra '{name}' beyond the recorded program"
            )
        step = program.steps[index]
        if step.name != name:
            raise TraceGuardMismatch(
                f"op sequence diverged at #{index}: recorded '{step.name}', got '{name}'"
            )
        expected = step.descriptors
        position = 0
        for tensor in _iter_tensor_slots(args, kwargs):
            if position >= len(expected):
                raise TraceGuardMismatch(f"'{name}' received extra tensor inputs")
            producer, dtype_str, requires = expected[position]
            if (
                getattr(tensor, "_trace_step", None) is not producer
                or tensor.data.dtype.str != dtype_str
                or bool(tensor.requires_grad) is not requires
            ):
                raise TraceGuardMismatch(
                    f"'{name}' input #{position} diverged from the recording"
                )
            position += 1
        if position != len(expected):
            raise TraceGuardMismatch(f"'{name}' received fewer tensor inputs")
        if step.array_sig != _describe_arrays(args, kwargs):
            raise TraceGuardMismatch(f"'{name}' raw-array operand dtypes diverged")
        self._cursor = index + 1
        step.args = args
        step.kwargs = kwargs
        value = step.forward(step)
        hook = engine._op_hook
        if hook is not None:
            hook(step.hook)
        return value

    # ------------------------------------------------------------------
    # backward interposition (engine._trace_backward_hook)
    # ------------------------------------------------------------------
    def _on_backward(self, tensor: Tensor, grad) -> bool:
        mode = self._mode
        if mode is None:
            return False
        if mode == "record":
            self._record_event(tensor, grad)
            return False
        return self._replay_event(tensor, grad)

    def _replay_event(self, tensor: Tensor, grad) -> bool:
        program = self._replay_program
        if self._event_cursor >= len(program.events):
            raise TraceGuardMismatch("extra backward call beyond the recorded program")
        event = program.events[self._event_cursor]
        if grad is not None or getattr(tensor, "_trace_step", None) is not event.root:
            raise TraceGuardMismatch("backward root diverged from the recording")
        self._event_cursor += 1
        root = event.root
        seed = root.grad_slab()
        seed.fill(1.0)
        root.has_grad = True
        timing_hook = engine._backward_hook
        if timing_hook is None:
            for step in event.steps:
                if step.has_grad:
                    step.backward(step, step.grad)
                    step.has_grad = False
                    step.recycle_grad()
        else:
            for step in event.steps:
                if step.has_grad:
                    started = time.perf_counter()
                    step.backward(step, step.grad)
                    timing_hook(step.hook, time.perf_counter() - started)
                    step.has_grad = False
                    step.recycle_grad()
        return True


# ----------------------------------------------------------------------
# model adapters
# ----------------------------------------------------------------------
def model_rng_sources(model) -> Tuple:
    """Generators the model consumes inside a training step (for rewind)."""
    sources = getattr(model, "trace_rng_sources", None)
    if callable(sources):
        return tuple(sources())
    return ()


def model_trace_signature(model) -> Tuple:
    """Structural section-key component contributed by the model."""
    signature = getattr(model, "trace_signature", None)
    if callable(signature):
        return tuple(signature())
    return (type(model).__name__,)


def check_traceable(model) -> None:
    """Refuse configurations whose per-step randomness cannot be rewound.

    Dropout draws from per-module generators invisible to the section's
    ``rng_sources``; after a guard fallback those draws could not be rewound
    and replayed training would diverge from never-traced eager training.
    """
    dropout = getattr(getattr(model, "config", None), "dropout", 0.0) or 0.0
    if dropout > 0.0 and getattr(model, "training", True):
        raise ValueError(
            "traced_steps requires dropout=0.0: per-module dropout draws cannot "
            "be rewound after a trace-guard fallback, which would break "
            "bit-identity with eager execution"
        )
