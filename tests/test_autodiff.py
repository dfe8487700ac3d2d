import warnings

import numpy as np
import pytest
from scipy.special import expit

from composed_losses import div, sigmoid, sub, tsum
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


# every op of the tape and of composed_losses, each built into a scalar of two
# (3, 3) inputs
OPS = [
    lambda a, b: a + b,
    lambda a, b: sub(a, b),
    lambda a, b: a * b,
    lambda a, b: div(a, b * b + 1.0),
    lambda a, b: ad.matmul(a, b),
    lambda a, b: ad.relu(sub(a, b)),
    lambda a, b: sigmoid(a) * b,
    lambda a, b: ad.node(np.tanh(a.data), (a,),
                         lambda g: (g * (1.0 - np.tanh(a.data) ** 2),)) * b,
    lambda a, b: ad.node(2.0 * np.sin(a.data), (a, b),
                         lambda g: (g * 2.0 * np.cos(a.data), None)) + b,
    lambda a, b: ad.einsum("ij->ji", a) + ad.einsum("ij->ji", b),
    lambda a, b: ad.view(a, shape=(1, 9)) + ad.view(b, shape=(1, 9)),
    lambda a, b: a[1:, :] * b[:2, :],
    lambda a, b: a[::-1, None, 1] * b[..., 0],
    lambda a, b: ad.einsum("ij,kl->ik", a, b),
    lambda a, b: tsum(a, axis=0, keepdims=True) * b + tsum(b, axis=1),
    lambda a, b: (sigmoid(a + 800.0) + sigmoid(sub(a, 800.0))) * b,
    lambda a, b: ad.einsum("ij,jk,ki->i", a, b, a),
    lambda a, b: ad.view(a, np.s_[1:, ::-1], axes=(1, 0), shape=(6,)) * ad.view(
        b, np.s_[None, :2], axes=(2, 0, 1), shape=(6,)),
    lambda a, b: ad.view(a, 1) * ad.view(b, (..., np.int64(2)), shape=(3, 1)),
]


class TestMlpForward:
    def test_identity_layer_passes_input_through(self):
        group = ParamGroup("m")
        group.add("W0", np.eye(3))
        group.add("b0", np.zeros(3))
        x = ad.constant([[1.0, 2.0, 3.0]])
        out = ad.mlp_forward(x, group)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_zero_weights_pass_bias(self):
        group = ParamGroup("m")
        group.add("W0", np.zeros((4, 1)))
        group.add("b0", np.asarray([0.7]))
        out = ad.mlp_forward(ad.constant([[9.0, -3.0, 2.0, 5.0]]), group)
        np.testing.assert_allclose(out.data, [[0.7]])

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
        x = rng.normal(size=(1, 5))
        out = ad.mlp_forward(ad.constant(x), group)
        # independent straight-line recomputation
        h = np.maximum(x @ w0 + b0, 0.0)
        expected = h @ w1 + b1
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_shape_mismatch_names_the_layer(self):
        """`dense` checks each layer's shapes, and its message gives them."""
        group = ParamGroup("m")
        group.add("W0", np.zeros((3, 2)))
        group.add("b0", np.zeros(2))
        with pytest.raises(DimensionError, match=r"dense shape mismatch: \(1, 4\) @ \(3, 2\)"):
            ad.mlp_forward(ad.constant(np.zeros((1, 4))), group)
        with pytest.raises(DimensionError, match=r"dense shape mismatch: \(3,\) @ \(3, 2\)"):
            ad.mlp_forward(ad.constant(np.zeros(3)), group)


class TestDense:
    """`dense` against finite differences, on a plain input and on a factored
    (rows, basis) pair, whose basis it folds into the weight."""

    @staticmethod
    def arrays(basis_rows, seed=0):
        rng = np.random.default_rng(seed)
        if basis_rows is None:
            inputs = {"x": rng.normal(size=(5, 4))}
        else:
            inputs = {"rows": rng.normal(size=(5, basis_rows)),
                      "basis": rng.normal(size=(basis_rows, 4))}
        return {**inputs, "w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}, \
            rng.normal(size=(5, 3))

    @staticmethod
    def layer(t, relu):
        x = t["x"] if "x" in t else (t["rows"], t["basis"])
        return ad.dense(x, t["w"], t["b"], relu=relu)

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("basis_rows", [None, 2])
    @pytest.mark.parametrize("fixed", [(), ("w",), ("x", "rows")],
                             ids=["all-trainable", "frozen-weight", "constant-input"])
    def test_matches_finite_differences(self, relu, basis_rows, fixed):
        arrays, upstream = self.arrays(basis_rows)
        dense_x = arrays["x"] if basis_rows is None else arrays["rows"] @ arrays["basis"]
        pre = dense_x @ arrays["w"] + arrays["b"]
        assert np.min(np.abs(pre)) > 1e-3  # central differences stay off the kink
        tensors = {k: Tensor(v.copy(), requires_grad=k not in fixed)
                   for k, v in arrays.items()}
        out = self.layer(tensors, relu)
        np.testing.assert_allclose(out.data, np.maximum(pre, 0.0) if relu else pre,
                                   rtol=0, atol=1e-12)
        ad.backward(tsum(out * ad.constant(upstream)))
        for key, t in tensors.items():
            if key in fixed:
                assert t.grad is None
                continue

            def loss(a, key=key):
                consts = {k: ad.constant(a if k == key else v) for k, v in arrays.items()}
                return float(np.sum(self.layer(consts, relu).data * upstream))

            np.testing.assert_allclose(t.grad, fd_scalar(loss, arrays[key].copy()),
                                       rtol=1e-6, atol=1e-8)

    def test_one_node_per_layer(self):
        arrays, _ = self.arrays(2)
        tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        out = self.layer(tensors, relu=True)
        assert out._parents == tuple(tensors[k] for k in ("rows", "basis", "w", "b"))

    def test_pair_shape_mismatch_rejected(self):
        w, b = ad.constant(np.zeros((4, 3))), ad.constant(np.zeros(3))
        with pytest.raises(DimensionError):
            ad.dense((ad.constant(np.zeros((5, 2))), ad.constant(np.zeros((3, 4)))), w, b)
        with pytest.raises(DimensionError):
            ad.dense((ad.constant(np.zeros((5, 2))), ad.constant(np.zeros((2, 5)))), w, b)


class TestBackward:
    def test_linear_case_gradient_is_input_outer_product(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 3))
        group = ParamGroup("g")
        w = group.add("W", rng.normal(size=(3, 2)))
        loss = tsum(ad.matmul(ad.constant(x), w))
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
        x = Tensor(np.arange(2.0).reshape(1, 2), requires_grad=True)
        loss = tsum(ad.matmul(x, w))
        ad.backward(loss)
        assert w.grad is None
        np.testing.assert_array_equal(x.grad, np.ones((1, 2)) @ w.data.T)

    def test_node_out_of_reach_of_gradients_keeps_no_tape(self):
        a = Tensor(np.ones((2, 2)))
        out = ad.relu(ad.matmul(a, a) + 1.0)
        assert not out.requires_grad
        assert out._parents == () and out._backward is None

    @pytest.mark.parametrize("op, frozen", [
        pytest.param(op, frozen, id=f"<lambda>{i}" + (f"-frozen-{frozen}" if frozen else ""))
        for frozen in (None, "a", "b") for i, op in enumerate(OPS)])
    def test_op_grads_match_finite_differences(self, op, frozen):
        """A frozen input gets no gradient, and the live one still gets the
        finite-difference gradient; the ids of the all-live cases are the
        ones pytest gives a bare lambda."""
        rng = np.random.default_rng(7)
        a0 = rng.normal(size=(3, 3))
        b0 = rng.normal(size=(3, 3))

        def loss_given_a(a_data):
            a = Tensor(a_data)
            return tsum(op(a, Tensor(b0))).item()

        def loss_given_b(b_data):
            b = Tensor(b_data)
            return tsum(op(Tensor(a0), b)).item()

        a = Tensor(a0.copy(), requires_grad=frozen != "a")
        b = Tensor(b0.copy(), requires_grad=frozen != "b")
        ad.backward(tsum(op(a, b)))
        for name, t, fn in (("a", a, loss_given_a), ("b", b, loss_given_b)):
            if name == frozen:
                assert t.grad is None
                continue
            expected = fd_scalar(fn, t.data.copy())
            got = t.grad if t.grad is not None else np.zeros_like(t.data)
            np.testing.assert_allclose(got, expected, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("idx", [[2, 0, 0], (slice(None), np.array([1, 1])),
                                     np.array([True, False, True]), True])
    def test_view_rejects_array_and_boolean_indices(self, idx):
        a = Tensor(np.zeros((3, 3)), requires_grad=True)
        for build in (lambda: a[idx], lambda: ad.view(a, idx, axes=(1, 0))):
            with pytest.raises(GraphError, match="basic indices") as info:
                build()
            assert repr(idx) in str(info.value)

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
        with pytest.raises(GraphError, match="output subscripts"):
            ad.einsum("ij->ijk", a)
        with pytest.raises(GraphError, match="output subscripts"):
            ad.einsum("ij->ii", a)

    def test_sigmoid_is_finite_and_exact_at_extreme_logits(self):
        x0 = np.asarray([-800.0, -30.0, -1.0, 0.0, 1.0, 30.0, 800.0])
        x = Tensor(x0.copy(), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = sigmoid(x)
            ad.backward(tsum(out))
        assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(x.grad))
        np.testing.assert_allclose(out.data, expit(x0), rtol=1e-15, atol=0)
        np.testing.assert_allclose(x.grad, expit(x0) * expit(-x0), rtol=1e-14, atol=0)
        assert out.data[0] == 0.0 and out.data[-1] == 1.0
        assert x.grad[0] == x.grad[-1] == 0.0

    def test_node_passes_each_gradient_to_its_input(self):
        a = Tensor(np.asarray([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.asarray([[3.0], [4.0]]), requires_grad=True)
        frozen = Tensor(np.ones(2))
        out = ad.node(a.data * b.data, (a, b, frozen),
                      lambda g: (g * b.data, g * a.data, np.full(2, 9.0)))
        assert out._parents == (a, b, frozen)
        ad.backward(tsum(out) * 0.5)
        # broadcast gradients are summed back to each input's shape
        np.testing.assert_array_equal(a.grad, [3.5, 3.5])
        np.testing.assert_array_equal(b.grad, [[1.5], [1.5]])
        assert frozen.grad is None

    def test_relu_passes_nan_through(self):
        out = ad.relu(Tensor(np.asarray([np.nan, -1.0, 0.0, 2.0])))
        assert np.isnan(out.data[0])
        np.testing.assert_array_equal(out.data[1:], [0.0, 0.0, 2.0])

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor(np.asarray(3.0), requires_grad=True)
        y = x * x + x * 2.0  # dy/dx = 2x + 2 = 8
        ad.backward(y)
        assert x.grad == pytest.approx(8.0)

    @staticmethod
    def count_backward_calls(t, calls):
        run = t._backward

        def counted(g):
            calls.append(t)
            return run(g)

        t._backward = counted

    def test_diamond_runs_the_shared_node_once_with_its_full_gradient(self):
        x = Tensor(np.asarray([-1.0, 2.0, 3.0]), requires_grad=True)
        u = ad.relu(x)
        left, right = u * 2.0, u * 3.0
        calls = []
        self.count_backward_calls(u, calls)
        ad.backward(tsum(left * right))  # 6 u^2, slope 12 u where x > 0
        assert calls == [u]
        np.testing.assert_array_equal(u.grad, 12.0 * u.data)
        np.testing.assert_array_equal(x.grad, [0.0, 24.0, 36.0])

    def test_node_read_twice_sums_both_reads(self):
        x = Tensor(np.asarray([0.5, -1.5]), requires_grad=True)
        h = x * 2.0
        calls = []
        self.count_backward_calls(h, calls)
        ad.backward(tsum(h * h))  # 4 x^2, slope 8 x
        assert calls == [h]
        np.testing.assert_array_equal(x.grad, [4.0, -12.0])

    def test_frozen_branch_is_skipped(self):
        frozen = ParamGroup("f")
        v = frozen.add("V", np.ones((2, 2)))
        frozen.freeze()
        x = Tensor(np.asarray([[1.0, 2.0]]), requires_grad=True)
        branch = ad.relu(ad.matmul(ad.constant([[1.0, -1.0]]), v) + 1.0)
        assert not branch.requires_grad and branch._backward is None
        live = ad.matmul(x, v)
        calls = []
        self.count_backward_calls(live, calls)
        ad.backward(tsum(live * branch))
        assert calls == [live]
        assert v.grad is None and branch.grad is None
        np.testing.assert_array_equal(x.grad, branch.data @ v.data.T)

    def test_nodes_run_in_reverse_creation_order(self):
        x = Tensor(np.ones(2), requires_grad=True)
        first = x * 2.0
        second = first + x
        third = second * first
        calls = []
        for t in (first, second, third):
            self.count_backward_calls(t, calls)
        ad.backward(tsum(third))
        assert calls == [third, second, first]


class TestNoGrad:
    def test_nodes_from_unfrozen_leaves_keep_no_tape(self):
        group = ParamGroup("g")
        w = group.add("W", np.ones((2, 2)))
        with ad.no_grad():
            out = ad.relu(ad.matmul(ad.constant(np.ones((1, 2))), w) + w[0])
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        assert (ad.matmul(w, w) * 1.0)._parents  # taped again after the block

    def test_leaf_flags_and_pending_grads_untouched(self):
        group = ParamGroup("g")
        w = group.add("W", np.ones(2))
        frozen = ParamGroup("f")
        v = frozen.add("V", np.ones(2))
        frozen.freeze()
        pending = w.grad = np.full(2, 0.5)
        with ad.no_grad():
            w * v
        assert w.requires_grad and not group.frozen and w.grad is pending
        assert not v.requires_grad and frozen.frozen

    def test_leaf_created_inside_keeps_its_flag(self):
        with ad.no_grad():
            leaf = Tensor(np.ones(2), requires_grad=True)
            added = ParamGroup("g").add("W", np.ones(2))
        assert leaf.requires_grad and added.requires_grad
        ad.backward(tsum(leaf * 2.0))
        np.testing.assert_array_equal(leaf.grad, [2.0, 2.0])

    def test_previous_state_returns_after_exception_and_nesting(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError):
            with ad.no_grad():
                raise ValueError("inside")
        assert (w * 2.0)._parents
        with ad.no_grad():
            with ad.no_grad():
                assert (w * 2.0)._parents == ()
            assert (w * 2.0)._parents == ()
        assert (w * 2.0)._parents


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

    def test_matches_textbook_formula_bitwise_over_steps(self):
        rng = np.random.default_rng(8)
        group = ParamGroup("g")
        group.add("W", rng.normal(size=(6, 5)))
        group.add("b", rng.normal(size=5))
        state = AdamState(lr=3e-3)
        params = {k: t.data.copy() for k, t in group.tensors.items()}
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        b1, b2, eps, lr = state.beta1, state.beta2, state.eps, state.lr
        for step in range(1, 7):
            grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
            if step == 4:  # a tensor with no gradient steps on zeros
                grads["b"] = np.zeros(5)
            for k, t in group.tensors.items():
                t.grad = None if step == 4 and k == "b" else grads[k].copy()
            held = {k: t.data for k, t in group.tensors.items()}
            snapshots = {k: a.copy() for k, a in held.items()}
            ad.adam_step(group, state)
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                m_hat = m[k] / (1.0 - b1 ** step)
                v_hat = v[k] / (1.0 - b2 ** step)
                params[k] = params[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
                assert group.tensors[k].data.tobytes() == params[k].tobytes()
                assert state.m[k].tobytes() == m[k].tobytes()
                assert state.v[k].tobytes() == v[k].tobytes()
                # the update is a fresh array: what a caller held is unchanged
                assert held[k].tobytes() == snapshots[k].tobytes()
                assert group.tensors[k].data is not held[k]

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
        a = ad.glorot_init((20, 30), np.random.default_rng(5))
        b = ad.glorot_init((20, 30), np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_values_within_bound(self):
        t = ad.glorot_init((50, 70), np.random.default_rng(1))
        limit = np.sqrt(6.0 / 120)
        assert np.all(np.abs(t) <= limit)

    def test_empirical_mean_near_zero(self):
        t = ad.glorot_init((1000, 100), np.random.default_rng(3))
        limit = np.sqrt(6.0 / 1100)
        sigma = limit / np.sqrt(3.0)  # std of U(-limit, limit)
        assert abs(t.mean()) < 3 * sigma / np.sqrt(t.size)


class TestDeterminismAndFreeze:
    def test_fixed_seed_reproduces_forward_grads_and_step(self):
        def run():
            rng = np.random.default_rng(11)
            group = ad.init_mlp("m", [4, 8, 2], rng)
            x = ad.constant(np.linspace(-1, 1, 4)[None])
            out = ad.mlp_forward(x, group)
            loss = tsum(out * out)
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
            loss = tsum(ad.mlp_forward(h, live))
            ad.backward(loss)
            with pytest.warns(UserWarning):
                ad.adam_step(frozen, state_f)
            ad.adam_step(live, state_l)
        after = frozen.state_dict()
        for k in before:
            assert before[k].tobytes() == after[k].tobytes()
