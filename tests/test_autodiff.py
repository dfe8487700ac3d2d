import warnings

import numpy as np
import pytest
from scipy.special import expit

from fairfilter import autodiff as ad
from fairfilter.autodiff import AdamState, ParamGroup, Tensor
from fairfilter.errors import DimensionError, GraphError


def fd_scalar(fn, x, eps=1e-6):
    """Central-difference gradient of a scalar function of an ndarray."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        plus = fn(x)
        flat[i] = old - eps
        minus = fn(x)
        flat[i] = old
        gflat[i] = (plus - minus) / (2 * eps)
    return grad


class TestMlpForward:
    def test_identity_layer_passes_input_through(self):
        group = ParamGroup("m")
        group.add("W0", np.eye(3))
        group.add("b0", np.zeros(3))
        x = ad.constant([1.0, 2.0, 3.0])
        out = ad.mlp_forward(x, group)
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_zero_weights_pass_bias(self):
        group = ParamGroup("m")
        group.add("W0", np.zeros((4, 1)))
        group.add("b0", np.asarray([0.7]))
        out = ad.mlp_forward(ad.constant([9.0, -3.0, 2.0, 5.0]), group)
        np.testing.assert_allclose(out.data, [0.7])

    def test_two_layer_matches_straight_line_recomputation(self):
        rng = np.random.default_rng(42)
        w0 = rng.normal(size=(5, 4))
        b0 = rng.normal(size=4)
        w1 = rng.normal(size=(4, 2))
        b1 = rng.normal(size=2)
        group = ParamGroup("m")
        group.add("W0", w0)
        group.add("b0", b0)
        group.add("W1", w1)
        group.add("b1", b1)
        x = rng.normal(size=5)
        out = ad.mlp_forward(ad.constant(x), group)
        # independent straight-line recomputation
        h = np.maximum(x @ w0 + b0, 0.0)
        expected = h @ w1 + b1
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_shape_mismatch_names_the_layer(self):
        group = ParamGroup("m")
        group.add("W0", np.zeros((3, 2)))
        group.add("b0", np.zeros(2))
        with pytest.raises(DimensionError, match="layer 0"):
            ad.mlp_forward(ad.constant(np.zeros(4)), group)


class TestBackward:
    def test_linear_case_gradient_is_input_outer_product(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 3))
        group = ParamGroup("g")
        w = group.add("W", rng.normal(size=(3, 2)))
        loss = ad.tsum(ad.matmul(ad.constant(x), w))
        ad.backward(loss)
        # d(sum(xW))/dW = x^T 1^T
        np.testing.assert_allclose(w.grad, x.T @ np.ones((1, 2)), atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(GraphError):
            ad.backward(t + 1.0)

    def test_frozen_group_receives_no_grad(self):
        group = ParamGroup("g")
        w = group.add("W", np.ones((2, 2)))
        group.freeze()
        loss = ad.tsum(ad.matmul(ad.constant(np.ones((1, 2))), w))
        ad.backward(loss)
        assert w.grad is None

    @pytest.mark.parametrize("op", [
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a, b: a / (b * b + 1.0),
        lambda a, b: ad.matmul(a, b),
        lambda a, b: ad.relu(a - b),
        lambda a, b: ad.sigmoid(a) * b,
        lambda a, b: ad.softplus(a) * b,
        lambda a, b: ad.sqrt(a * a + 0.5) * b,
        lambda a, b: ad.einsum("ij->ji", a) + ad.einsum("ij->ji", b),
        lambda a, b: ad.reshape(a, (1, 9)) + ad.reshape(b, (1, 9)),
        lambda a, b: a[1:, :] * b[:2, :],
        lambda a, b: a[[2, 0, 0]] + b,
        lambda a, b: ad.einsum("ij,kl->ik", a, b),
        lambda a, b: ad.tmean(a, axis=0) + ad.tsum(b, axis=1),
        lambda a, b: (ad.softplus(a + 800.0) + ad.softplus(a - 800.0)) * b,
        lambda a, b: ad.einsum("ij,jk,ki->i", a, b, a),
    ])
    def test_op_grads_match_finite_differences(self, op):
        rng = np.random.default_rng(7)
        a0 = rng.normal(size=(3, 3))
        b0 = rng.normal(size=(3, 3))

        def loss_given_a(a_data):
            a = Tensor(a_data)
            return ad.tsum(op(a, Tensor(b0))).item()

        def loss_given_b(b_data):
            b = Tensor(b_data)
            return ad.tsum(op(Tensor(a0), b)).item()

        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        ad.backward(ad.tsum(op(a, b)))
        for t, fn in ((a, loss_given_a), (b, loss_given_b)):
            expected = fd_scalar(fn, t.data.copy())
            got = t.grad if t.grad is not None else np.zeros_like(t.data)
            np.testing.assert_allclose(got, expected, rtol=1e-6, atol=1e-8)

    def test_einsum_rejects_malformed_subscripts(self):
        a = Tensor(np.zeros((2, 3)))
        with pytest.raises(GraphError):
            ad.einsum("ij", a)
        with pytest.raises(GraphError):
            ad.einsum("...j->j", a)
        with pytest.raises(DimensionError):
            ad.einsum("ii->i", Tensor(np.zeros((2, 2))))
        with pytest.raises(DimensionError):
            ad.einsum("ijk->i", a)
        with pytest.raises(DimensionError):
            ad.einsum("ij,jk->ik", a)

    def test_sigmoid_is_finite_and_exact_at_extreme_logits(self):
        x0 = np.asarray([-800.0, -30.0, -1.0, 0.0, 1.0, 30.0, 800.0])
        x = Tensor(x0.copy(), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = ad.sigmoid(x)
            ad.backward(ad.tsum(out))
        assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(x.grad))
        np.testing.assert_allclose(out.data, expit(x0), rtol=1e-15, atol=0)
        np.testing.assert_allclose(x.grad, expit(x0) * expit(-x0), rtol=1e-14, atol=0)
        assert out.data[0] == 0.0 and out.data[-1] == 1.0
        assert x.grad[0] == x.grad[-1] == 0.0

    def test_softplus_is_finite_and_exact_at_extreme_logits(self):
        x0 = np.asarray([-800.0, -40.0, -1.0, 0.0, 1.0, 40.0, 800.0])
        x = Tensor(x0.copy(), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = ad.softplus(x)
            ad.backward(ad.tsum(out))
        np.testing.assert_allclose(out.data, np.logaddexp(0.0, x0), rtol=1e-15, atol=0)
        np.testing.assert_allclose(x.grad, expit(x0), rtol=1e-15, atol=0)
        assert out.data[0] == 0.0 and out.data[-1] == 800.0
        assert x.grad[0] == 0.0 and x.grad[-1] == 1.0

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor(np.asarray(3.0), requires_grad=True)
        y = x * x + x * 2.0  # dy/dx = 2x + 2 = 8
        ad.backward(y)
        assert x.grad == pytest.approx(8.0)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        group = ParamGroup("g")
        w = group.add("W", np.asarray([1.0, -2.0]))
        w.grad = np.zeros(2)
        before = w.data.copy()
        ad.adam_step(group, AdamState())
        np.testing.assert_array_equal(w.data, before)

    def test_constant_gradient_moves_against_its_sign(self):
        group = ParamGroup("g")
        w = group.add("W", np.asarray([0.0, 0.0]))
        state = AdamState()
        history = [w.data.copy()]
        for _ in range(20):
            w.grad = np.asarray([1.0, -1.0])
            ad.adam_step(group, state)
            history.append(w.data.copy())
        diffs = np.diff(np.stack(history), axis=0)
        assert np.all(diffs[:, 0] < 0)
        assert np.all(diffs[:, 1] > 0)

    def test_single_step_matches_hand_computed_update(self):
        group = ParamGroup("g")
        w = group.add("W", np.asarray([1.0, 2.0]))
        g = np.asarray([0.3, -0.1])
        w.grad = g.copy()
        state = AdamState(lr=1e-3)
        ad.adam_step(group, state)
        # hand evaluation of the bias-corrected update at t = 1
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g * g) / (1 - 0.999)
        expected = np.asarray([1.0, 2.0]) - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(w.data, expected, atol=1e-12)
        assert state.step == 1
        assert w.grad is None

    def test_step_on_frozen_group_warns_and_is_noop(self):
        group = ParamGroup("g")
        w = group.add("W", np.asarray([1.0]))
        group.freeze()
        before = w.data.copy()
        with pytest.warns(UserWarning):
            ad.adam_step(group, AdamState())
        np.testing.assert_array_equal(w.data, before)


class TestGlorotInit:
    def test_same_seed_is_bit_identical(self):
        a = ad.glorot_init((20, 30), 5)
        b = ad.glorot_init((20, 30), 5)
        assert np.array_equal(a, b)

    def test_values_within_bound(self):
        t = ad.glorot_init((50, 70), 1)
        limit = np.sqrt(6.0 / 120)
        assert np.all(np.abs(t) <= limit)

    def test_empirical_mean_near_zero(self):
        t = ad.glorot_init((1000, 100), 3)
        limit = np.sqrt(6.0 / 1100)
        sigma = limit / np.sqrt(3.0)  # std of U(-limit, limit)
        assert abs(t.mean()) < 3 * sigma / np.sqrt(t.size)


class TestDeterminismAndFreeze:
    def test_fixed_seed_reproduces_forward_grads_and_step(self):
        def run():
            rng = np.random.default_rng(11)
            group = ad.init_mlp("m", [4, 8, 2], rng)
            x = ad.constant(np.linspace(-1, 1, 4))
            out = ad.mlp_forward(x, group)
            loss = ad.tsum(out * out)
            ad.backward(loss)
            grads = {k: (v.copy() if v is not None else None)
                     for k, v in group.grads.items()}
            ad.adam_step(group, AdamState())
            return out.data.copy(), grads, group.state_dict()

        out1, grads1, params1 = run()
        out2, grads2, params2 = run()
        assert np.array_equal(out1, out2)
        for k in grads1:
            assert np.array_equal(grads1[k], grads2[k])
        for k in params1:
            assert np.array_equal(params1[k], params2[k])

    def test_frozen_group_bit_identical_through_backward_and_step(self):
        rng = np.random.default_rng(2)
        frozen = ad.init_mlp("frozen", [3, 3], rng)
        live = ad.init_mlp("live", [3, 1], rng)
        frozen.freeze()
        before = frozen.state_dict()
        state_f, state_l = AdamState(), AdamState()
        for _ in range(3):
            x = ad.constant(rng.normal(size=(2, 3)))
            h = ad.mlp_forward(x, frozen)
            loss = ad.tsum(ad.mlp_forward(h, live))
            ad.backward(loss)
            with pytest.warns(UserWarning):
                ad.adam_step(frozen, state_f)
            ad.adam_step(live, state_l)
        after = frozen.state_dict()
        for k in before:
            assert before[k].tobytes() == after[k].tobytes()
