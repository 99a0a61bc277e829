"""Differential, contract and memory tests of the segment attention kernel.

:func:`repro.graph.segment_softmax_attend` (Eq. 18-19) aggregates and
scatters its gradients through sparse mat-vecs over the row pointer of the
segment-sorted edge list.  Its oracle is the gather/scatter formulation it
replaced, kept here: three ``(E, D)`` row gathers, an ``(E, D)`` product
per scatter.  Generated edge lists hold the kernel, eager and traced,
bit-identical to that oracle in the forward and in all three gradients.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypothesis_budget import examples

from repro.graph import message_passing, segment_softmax_attend
from repro.tensor import Tensor, engine, ops
from repro.tensor.trace import TraceRuntime


# ----------------------------------------------------------------------
# oracle: the gather/scatter formulation
# ----------------------------------------------------------------------
def scatter_rows(buffer, indices, rows):
    """``buffer[indices] += rows``, edge by edge, as the gather formulation
    scattered: straight into a buffer of the rows' dtype, and through one
    float64 sum and one ``+=`` into a float32 buffer.

    (For fewer than 32 edges the old scatter helper took a per-edge
    ``np.add.at`` into the float32 buffer, which rounds to float32 after
    every edge; the kernel rounds once at every edge count.)
    """
    if buffer.dtype == rows.dtype:
        np.add.at(buffer, indices, rows)
    else:
        total = np.zeros(buffer.shape, dtype=rows.dtype)
        np.add.at(total, indices, rows)
        buffer += total


def oracle_attend(queries, keys, values, edge_queries, edge_keys, num_segments, grad):
    """Forward output and the three gradients for upstream gradient ``grad``."""
    eps = 1e-12
    query_rows = queries[edge_queries]
    key_rows = keys[edge_keys]
    scores = np.einsum("ed,ed->e", query_rows, key_rows)
    max_per_segment = np.full(num_segments, -np.inf)
    np.maximum.at(max_per_segment, edge_queries, scores)
    max_per_segment[~np.isfinite(max_per_segment)] = 0.0
    shifted = scores - max_per_segment[edge_queries]
    clip_mask = (shifted >= -60.0) & (shifted <= 60.0)
    exp_scores = np.exp(np.clip(shifted, -60.0, 60.0))
    denominator = np.bincount(edge_queries, weights=exp_scores, minlength=num_segments)
    inv_denominator = 1.0 / (denominator[edge_queries] + eps)
    attention = exp_scores * inv_denominator
    value_rows = values[edge_keys]
    out = np.zeros((num_segments, values.shape[1]), dtype=values.dtype)
    scatter_rows(out, edge_queries, attention[:, None] * value_rows)

    grad_rows = grad[edge_queries]
    grad_values = np.zeros_like(values)
    scatter_rows(grad_values, edge_keys, attention[:, None] * grad_rows)
    d_attention = np.einsum("ed,ed->e", value_rows, grad_rows)
    weighted = np.bincount(edge_queries, weights=d_attention * exp_scores, minlength=num_segments)
    d_exp = (d_attention - weighted[edge_queries] * inv_denominator) * inv_denominator
    d_scores = d_exp * exp_scores * clip_mask
    grad_queries = np.zeros_like(queries)
    scatter_rows(grad_queries, edge_queries, d_scores[:, None] * key_rows)
    grad_keys = np.zeros_like(keys)
    scatter_rows(grad_keys, edge_keys, d_scores[:, None] * query_rows)
    return out, grad_queries, grad_keys, grad_values


# ----------------------------------------------------------------------
# kernel under test, eager and traced
# ----------------------------------------------------------------------
def attend_section(leaves, case):
    """One forward + backward through the module attribute (the op that
    a :class:`TraceRuntime` patches); returns output and gradients."""
    _, _, _, edge_queries, edge_keys, num_segments, grad = case

    def run():
        for leaf in leaves:
            leaf.zero_grad()
        out = message_passing.segment_softmax_attend(*leaves, edge_queries, edge_keys, num_segments)
        # d(sum(out * grad)) / d out is ``grad`` exactly.
        ops.sum(ops.mul(out, grad)).backward()
        return [out.data.copy()] + [leaf.grad.copy() for leaf in leaves]

    return run


def eager_and_traced(case):
    """Eager run, traced recording and traced replay of the same case."""
    leaves = [Tensor(array, requires_grad=True) for array in case[:3]]
    section = attend_section(leaves, case)
    results = [section()]
    runtime = TraceRuntime()
    runtime.install()
    try:
        results += [runtime.run_section("attend", section) for _ in range(2)]
    finally:
        runtime.uninstall()
    assert runtime.stats.hits == 1 and runtime.stats.fallbacks == 0
    return results


def assert_bitwise_equal(actual, expected, label):
    assert actual.dtype == expected.dtype, label
    assert actual.shape == expected.shape, label
    assert actual.tobytes() == expected.tobytes(), label


@st.composite
def attention_cases(draw):
    """Segment-sorted edge lists with empty segments, trailing edge-less
    rows, repeated keys, no edges at all, one-wide features, and query
    tables with fewer or more rows than segments."""
    num_segments = draw(st.integers(1, 12))
    trailing = draw(st.integers(0, min(3, num_segments - 1)))
    query_rows = num_segments + draw(st.integers(-trailing, 2))
    num_keys = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 5))
    count = draw(st.integers(0, 60))

    def indices(high):
        values = st.lists(st.integers(0, high), min_size=count, max_size=count)
        return np.array(draw(values), dtype=np.int64)

    edge_queries = np.sort(indices(num_segments - 1 - trailing))
    edge_keys = indices(num_keys - 1)
    dtype = draw(st.sampled_from(["float64", "float32"]))
    # Large score spreads push shifted scores past the ±60 clip.
    spread = draw(st.sampled_from([0.1, 1.0, 40.0]))
    chunk = draw(st.sampled_from([1, 3, 64, ops._ROW_DOT_CHUNK]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    queries = spread * rng.standard_normal((query_rows, dim))
    keys = rng.standard_normal((num_keys, dim))
    values = rng.standard_normal((num_keys, dim))
    grad = rng.standard_normal((num_segments, dim))
    arrays = [a.astype(dtype) for a in (queries, keys, values)]
    case = (*arrays, edge_queries, edge_keys, num_segments, grad.astype(dtype))
    return case, dtype, chunk


class TestAgainstGatherScatterOracle:
    @settings(max_examples=examples(100), deadline=None)
    @given(attention_cases())
    def test_forward_and_gradients_bit_identical(self, drawn):
        case, dtype, chunk = drawn
        default_chunk = ops._ROW_DOT_CHUNK
        ops._ROW_DOT_CHUNK = chunk  # chunk boundaries inside the row dots
        try:
            with engine.engine_dtype(dtype):
                runs = eager_and_traced(case)
        finally:
            ops._ROW_DOT_CHUNK = default_chunk
        expected = oracle_attend(*case)
        names = ("out", "grad_queries", "grad_keys", "grad_values")
        for run, mode in zip(runs, ("eager", "traced record", "traced replay")):
            for actual, reference, name in zip(run, expected, names):
                assert_bitwise_equal(actual, reference, f"{mode} {name} ({dtype})")


# ----------------------------------------------------------------------
# input contract, scipy fallback, memory
# ----------------------------------------------------------------------
def random_case(rng, num_segments=40, num_keys=30, dim=8, count=500):
    edge_queries = np.sort(rng.integers(0, num_segments, count))
    edge_keys = rng.integers(0, num_keys, count)
    return (
        rng.standard_normal((num_segments, dim)),
        rng.standard_normal((num_keys, dim)),
        rng.standard_normal((num_keys, dim)),
        edge_queries,
        edge_keys,
        num_segments,
        rng.standard_normal((num_segments, dim)),
    )


def attend_edges(edge_queries, edge_keys):
    """The kernel on 40 segments and 30 keys with the given edge list."""
    queries, keys, values, _, _, num_segments, _ = random_case(np.random.default_rng(0))
    tensors = [Tensor(queries), Tensor(keys), Tensor(values)]
    return segment_softmax_attend(*tensors, edge_queries, edge_keys, num_segments)


class TestInputContract:
    def test_unsorted_edges_are_rejected(self):
        with pytest.raises(ValueError, match="sorted by segment"):
            attend_edges(np.array([0, 2, 1]), np.array([0, 1, 2]))

    @pytest.mark.parametrize(
        "edge_queries,edge_keys",
        [
            ([0, 1, 40], [0, 1, 2]),
            ([-1, 0, 1], [0, 1, 2]),
            ([0, 1, 2], [0, 30, 1]),
            ([0, 1, 2], [0, -1, 1]),
        ],
    )
    def test_out_of_range_edges_are_rejected(self, edge_queries, edge_keys):
        with pytest.raises(ValueError):
            attend_edges(np.array(edge_queries), np.array(edge_keys))


class TestPublicApiFallback:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_fallback_matches_the_private_kernels(self, monkeypatch, dtype):
        if ops._csr_matvecs is None or ops._csc_matvecs is None:
            pytest.skip("scipy's private mat-vec kernels failed their self-check")
        case = random_case(np.random.default_rng(3))
        with engine.engine_dtype(dtype):
            fast = eager_and_traced(case)
            monkeypatch.setattr(ops, "_csr_matvecs", None)
            monkeypatch.setattr(ops, "_csc_matvecs", None)
            fallback = eager_and_traced(case)
        for fast_run, fallback_run in zip(fast, fallback):
            for actual, expected in zip(fallback_run, fast_run):
                assert_bitwise_equal(actual, expected, dtype)


class TestMemory:
    def test_peak_temporaries_stay_below_one_edge_by_dim_array(self):
        """Forward and backward each allocate less than one ``(E, D)``
        float64 array at their peak, output and gradients included; the
        gather formulation held four such arrays at once."""
        rng = np.random.default_rng(0)
        queries, keys, values, edge_queries, edge_keys, num_segments, grad = random_case(
            rng, num_segments=2000, num_keys=1000, dim=32, count=40000
        )
        bound = edge_queries.size * queries.shape[1] * 8
        leaves = [Tensor(a, requires_grad=True) for a in (queries, keys, values)]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = segment_softmax_attend(*leaves, edge_queries, edge_keys, num_segments)
            forward_peak = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out.backward(grad)
            backward_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert forward_peak < bound, (forward_peak, bound)
        assert backward_peak < bound, (backward_peak, bound)
