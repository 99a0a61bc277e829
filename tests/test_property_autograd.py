"""Property-based tests (hypothesis) for the autograd engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hypothesis_budget import examples

from repro.tensor import Tensor, ops

finite_floats = st.floats(
    min_value=-10.0,
    max_value=10.0,
    allow_nan=False,
    allow_infinity=False,
)


def arrays(shape):
    return hnp.arrays(np.float64, shape, elements=finite_floats)


@st.composite
def matching_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    a = draw(arrays((rows, cols)))
    b = draw(arrays((rows, cols)))
    return a, b


class TestAlgebraicProperties:
    @settings(max_examples=examples(40), deadline=None)
    @given(matching_matrices())
    def test_add_commutes(self, pair):
        a, b = pair
        assert np.allclose((Tensor(a) + Tensor(b)).data, (Tensor(b) + Tensor(a)).data)

    @settings(max_examples=examples(40), deadline=None)
    @given(matching_matrices())
    def test_mul_commutes(self, pair):
        a, b = pair
        assert np.allclose((Tensor(a) * Tensor(b)).data, (Tensor(b) * Tensor(a)).data)

    @settings(max_examples=examples(40), deadline=None)
    @given(matching_matrices())
    def test_sub_is_add_neg(self, pair):
        a, b = pair
        assert np.allclose(
            (Tensor(a) - Tensor(b)).data,
            (Tensor(a) + (-Tensor(b))).data,
        )

    @settings(max_examples=examples(40), deadline=None)
    @given(arrays((4, 3)))
    def test_double_negation(self, a):
        assert np.allclose((-(-Tensor(a))).data, a)

    @settings(max_examples=examples(40), deadline=None)
    @given(arrays((3, 4)))
    def test_relu_idempotent(self, a):
        once = ops.relu(Tensor(a))
        twice = ops.relu(once)
        assert np.allclose(once.data, twice.data)

    @settings(max_examples=examples(40), deadline=None)
    @given(arrays((3, 4)))
    def test_sigmoid_bounded(self, a):
        out = ops.sigmoid(Tensor(a)).data
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    @settings(max_examples=examples(40), deadline=None)
    @given(arrays((3, 5)))
    def test_softmax_rows_are_distributions(self, a):
        out = ops.softmax(Tensor(a), axis=1).data
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-8)
        assert np.all(out >= 0.0)


class TestGradientProperties:
    @settings(max_examples=examples(30), deadline=None)
    @given(arrays((3, 4)))
    def test_sum_gradient_is_ones(self, a):
        tensor = Tensor(a, requires_grad=True)
        tensor.sum().backward()
        assert np.allclose(tensor.grad, 1.0)

    @settings(max_examples=examples(30), deadline=None)
    @given(arrays((3, 4)), finite_floats)
    def test_scaling_loss_scales_gradient(self, a, scale):
        first = Tensor(a, requires_grad=True)
        (first * first).sum().backward()
        second = Tensor(a, requires_grad=True)
        ((second * second).sum() * scale).backward()
        assert np.allclose(second.grad, first.grad * scale, atol=1e-8)

    @settings(max_examples=examples(30), deadline=None)
    @given(matching_matrices())
    def test_gradient_of_sum_of_two_inputs(self, pair):
        a, b = pair
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta * tb).sum().backward()
        assert np.allclose(ta.grad, b, atol=1e-10)
        assert np.allclose(tb.grad, a, atol=1e-10)

    @settings(max_examples=examples(20), deadline=None)
    @given(arrays((4, 3)))
    def test_linearity_of_backward(self, a):
        """grad of (f + g) equals grad f + grad g for independent terms."""
        x1 = Tensor(a, requires_grad=True)
        ops.relu(x1).sum().backward()
        grad_f = x1.grad.copy()

        x2 = Tensor(a, requires_grad=True)
        ops.tanh(x2).sum().backward()
        grad_g = x2.grad.copy()

        x3 = Tensor(a, requires_grad=True)
        (ops.relu(x3).sum() + ops.tanh(x3).sum()).backward()
        assert np.allclose(x3.grad, grad_f + grad_g, atol=1e-10)

    @settings(max_examples=examples(20), deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
    def test_matmul_gradient_shapes(self, n, m):
        a = Tensor(np.ones((n, m)), requires_grad=True)
        b = Tensor(np.ones((m, 3)), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (n, m)
        assert b.grad.shape == (m, 3)
