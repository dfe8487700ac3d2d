import warnings

import numpy as np
import pytest
from scipy.special import expit

import composed_losses as composed
from fairfilter import autodiff as ad
from fairfilter import objectives as obj
from fairfilter.errors import ConfigError, DimensionError, DivergenceError, GraphError


def tensor(values):
    return ad.constant(np.asarray(values, dtype=np.float64))


def logits(probs):
    """Logits whose sigmoid is `probs`, e.g. log(0.9/0.1) for 0.9."""
    p = np.asarray(probs, dtype=np.float64)
    return tensor(np.log(p / (1.0 - p)))


class TestLossDis:
    def test_uninformative_predictions_give_targets_times_ln2(self):
        # every entry at 0.5 costs ln 2, summed over the 3 target columns
        z = logits(np.full((4, 3), 0.5))
        p = np.asarray([[1, 0, 0], [0, 1, 1], [0, 0, 0], [1, 1, 1]])
        assert obj.loss_dis(z, p).item() == pytest.approx(3 * np.log(2), abs=1e-12)

    def test_hand_computed_mixed_batch(self):
        z = logits([[0.9, 0.2], [0.6, 0.7]])
        p = np.asarray([[1, 0], [0, 1]])
        expected = -0.5 * ((np.log(0.9) + np.log(0.8))
                           + (np.log(0.4) + np.log(0.7)))
        assert obj.loss_dis(z, p).item() == pytest.approx(expected, abs=1e-12)

    def test_confident_correct_predictions_cost_little(self):
        z = logits([[1 - 1e-7, 1e-7]])
        p = np.asarray([[1, 0]])
        assert obj.loss_dis(z, p).item() < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            obj.loss_dis(tensor(np.zeros((2, 3))), np.zeros((2, 2)))

    def test_gradient_sign_pushes_toward_labels(self):
        z = ad.Tensor(np.zeros((1, 2)), requires_grad=True)
        p = np.asarray([[1, 0]])
        ad.backward(obj.loss_dis(z, p))
        # increasing the positive-target logit lowers the loss, and conversely
        assert z.grad[0, 0] < 0 < z.grad[0, 1]


class TestLossHate:
    def test_hand_computed_value(self):
        z = logits([[0.9], [0.2]])
        y = np.asarray([1, 0])
        expected = -0.5 * (np.log(0.9) + np.log(0.8))
        assert obj.loss_hate(z, y).item() == pytest.approx(expected, abs=1e-12)

    def test_batch_mean_is_size_invariant(self):
        one = obj.loss_hate(logits([[0.7]]), np.asarray([1])).item()
        many = obj.loss_hate(logits([[0.7]] * 6), np.asarray([1] * 6)).item()
        assert one == pytest.approx(many, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            obj.loss_hate(tensor([[0.0], [0.0]]), np.asarray([1]))


class TestSaturatedLogits:
    def test_wrong_label_at_logit_40_keeps_a_full_gradient(self):
        # a clamped probability would give zero gradient here; the logit loss
        # charges |z| per wrong entry and keeps the slope sigmoid(z) - label
        n = 2
        z = ad.Tensor(np.asarray([[40.0], [-40.0]]), requires_grad=True)
        hate = obj.loss_hate(z, np.asarray([0, 1]))
        ad.backward(hate)
        assert hate.item() == pytest.approx(40.0, rel=1e-15)
        np.testing.assert_allclose(z.grad, [[1.0 / n], [-1.0 / n]], rtol=1e-15, atol=0)

        z = ad.Tensor(np.asarray([[40.0, -40.0], [-40.0, 40.0]]), requires_grad=True)
        dis = obj.loss_dis(z, np.asarray([[0, 1], [1, 0]]))
        ad.backward(dis)
        assert dis.item() == pytest.approx(80.0, rel=1e-15)
        np.testing.assert_allclose(z.grad, [[1.0 / n, -1.0 / n], [-1.0 / n, 1.0 / n]],
                                   rtol=1e-15, atol=0)

    def test_softplus_is_finite_and_exact_at_extreme_logits(self):
        # one post with label 0 costs softplus(z) and has slope sigmoid(z),
        # on the hate node and on the discriminator's
        x0 = np.asarray([-800.0, -40.0, -1.0, 0.0, 1.0, 40.0, 800.0])
        for loss in (obj.loss_hate, obj.loss_dis):
            out, grad = np.empty_like(x0), np.empty_like(x0)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                for i, x in enumerate(x0):
                    z = ad.Tensor(np.asarray([[x]]), requires_grad=True)
                    value = loss(z, np.asarray([[0]]) if loss is obj.loss_dis else [0])
                    ad.backward(value)
                    out[i], grad[i] = value.item(), z.grad[0, 0]
            np.testing.assert_allclose(out, np.logaddexp(0.0, x0), rtol=1e-15, atol=0)
            np.testing.assert_allclose(grad, expit(x0), rtol=1e-15, atol=0)
            assert out[0] == 0.0 and out[-1] == 800.0
            assert grad[0] == 0.0 and grad[-1] == 1.0


class TestLossImi:
    def test_zero_when_distributions_match(self):
        z = logits([[0.3], [0.8]])
        assert obj.loss_imi(z, logits([[0.3], [0.8]])).item() == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_two_class_kl(self):
        # KL(0.9 || 0.1) = 0.8 * ln 9
        got = obj.loss_imi(logits([[0.9]]), logits([[0.1]])).item()
        assert got == pytest.approx(0.8 * np.log(9.0), abs=1e-12)

    def test_asymmetry(self):
        a, b = logits([[0.9]]), logits([[0.6]])
        assert obj.loss_imi(a, b).item() != pytest.approx(obj.loss_imi(b, a).item())

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        a = logits(rng.uniform(0.01, 0.99, size=(50, 1)))
        b = logits(rng.uniform(0.01, 0.99, size=(50, 1)))
        assert obj.loss_imi(a, b).item() >= 0.0


def rows(indicators):
    """Name-keyed indicators as a stack, names sorted as `grams` sorts them."""
    return np.stack([np.asarray(indicators[n], dtype=np.float64) for n in sorted(indicators)])


def grams(flat_thetas):
    """Per-layer Gram matrices of flattened filter parameters, names sorted."""
    names = sorted(flat_thetas)
    out = []
    for layer in range(len(flat_thetas[names[0]])):
        rows = np.stack([np.asarray(flat_thetas[n][layer], dtype=np.float64)
                         for n in names])
        out.append(tensor(rows @ rows.T))
    return out


def reg(stack, layers):
    """The gap-alignment loss of an indicator stack against Gram matrices."""
    return obj.loss_reg(obj.gap_constants(stack), layers)


class TestLossReg:
    def test_zero_when_cosines_agree(self):
        indicators = {"a": np.asarray([1.0, 0.0]), "b": np.asarray([0.0, 1.0])}
        # orthogonal flattened parameters match the orthogonal indicators
        thetas = {"a": [[1.0, 0.0, 0.0]], "b": [[0.0, 2.0, 0.0]]}
        assert reg(rows(indicators), grams(thetas)).item() == pytest.approx(0.0, abs=1e-12)

    def test_unit_gap_per_layer_and_pair(self):
        # indicator cosine 0, parameter cosine 1: each pair-layer adds 1
        indicators = {"a": np.asarray([1.0, 0.0]), "b": np.asarray([0.0, 1.0]),
                      "c": np.asarray([1.0, 0.0])}
        same = [[1.0, 1.0], [2.0, 0.0]]
        thetas = {k: same for k in indicators}
        # pairs (a,b) and (b,c) have indicator cos 0; (a,c) has cos 1
        expected = 2 * 2 * 1.0
        assert reg(rows(indicators), grams(thetas)).item() == pytest.approx(expected, abs=1e-12)

    def test_scale_invariance_of_the_cosine(self):
        indicators = {"a": np.asarray([1.0, 1.0]), "b": np.asarray([1.0, -1.0])}
        base = {"a": [np.asarray([0.3, 0.4])], "b": [np.asarray([-0.8, 0.1])]}
        scaled = {"a": [base["a"][0] * 7.0], "b": [base["b"][0] * 0.01]}
        assert reg(rows(indicators), grams(base)).item() == pytest.approx(
            reg(rows(indicators), grams(scaled)).item(), abs=1e-12)

    def test_joint_permutation_of_stack_and_grams(self):
        # a target is a position: permuting the stack's rows together with
        # every Gram matrix's rows and columns names the same pairs
        rng = np.random.default_rng(4)
        indicators = rng.normal(size=(5, 4))
        layers = [tensor(f @ f.T) for f in rng.normal(size=(2, 5, 7))]
        perm = rng.permutation(5)
        moved = [tensor(g.data[perm][:, perm]) for g in layers]
        base = reg(indicators, layers).item()
        assert reg(indicators[perm], moved).item() == pytest.approx(
            base, rel=0, abs=1e-12)
        # permuting the stack alone pairs other cosines
        assert abs(reg(indicators[perm], layers).item() - base) > 1e-3

    def test_single_target_rejected(self):
        with pytest.raises(ConfigError):
            reg(np.ones((1, 2)), grams({"a": [[1.0]]}))

    def test_zero_norm_is_flagged(self):
        indicators = {"a": np.asarray([1.0, 0.0]), "b": np.asarray([0.0, 0.0])}
        thetas = {"a": [[1.0]], "b": [[1.0]]}
        with pytest.raises(GraphError, match="degenerate"):
            reg(rows(indicators), grams(thetas))
        indicators["b"] = np.asarray([0.0, 1.0])
        thetas["b"] = [[0.0]]
        with pytest.raises(DivergenceError, match="degenerate"):
            reg(rows(indicators), grams(thetas))

    def test_zero_norm_messages(self):
        stack = np.asarray([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(GraphError) as info:
            obj.gap_constants(stack)
        assert str(info.value) == "degenerate cosine: zero-norm indicator in row 1"
        with pytest.raises(DivergenceError) as info:
            reg(np.eye(3), [tensor(np.eye(3)), tensor(np.diag([1.0, 0.0, 0.0]))])
        assert str(info.value) == ("degenerate cosine: layer 1's generated filter is all "
                                   "zeros for target rows [1, 2] (a dead generator)")

    def test_depth_two_sums_its_layers(self):
        rng = np.random.default_rng(9)
        stack = rng.normal(size=(4, 3))
        layers = [f @ f.T for f in (rng.normal(size=(4, 6)), rng.normal(size=(4, 2)))]
        both = [ad.Tensor(g.copy(), requires_grad=True) for g in layers]
        total = reg(stack, both)
        ad.backward(total)
        parts = 0.0
        for g, joint in zip(layers, both):
            alone = ad.Tensor(g.copy(), requires_grad=True)
            part = reg(stack, [alone])
            ad.backward(part)
            parts = parts + part.item()
            assert alone.grad.tobytes() == joint.grad.tobytes()
        assert total.item() == parts

    def test_gram_shape_must_match_the_target_count(self):
        indicators = {"a": np.asarray([1.0, 0.0]), "b": np.asarray([0.0, 1.0])}
        with pytest.raises(DimensionError):
            reg(rows(indicators), [tensor(np.eye(3))])


class TestSynergic:
    def test_signed_combination(self):
        terms = [tensor(0.5), tensor(1.25), tensor(0.3), tensor(0.1)]
        out = obj.synergic(*terms, lam=0.9, gamma=3.0, mu=0.9)
        expected = 0.5 + 0.9 * 0.3 + 3.0 * 0.1 - 0.9 * 1.25
        assert out.item() == pytest.approx(expected, abs=1e-12)

    def test_discriminator_term_enters_negatively(self):
        low = obj.synergic(tensor(0.5), tensor(1.0), tensor(0.0), tensor(0.0),
                           lam=0.9, gamma=0.0, mu=0.0)
        high = obj.synergic(tensor(0.5), tensor(2.0), tensor(0.0), tensor(0.0),
                            lam=0.9, gamma=0.0, mu=0.0)
        assert high.item() < low.item()

    def test_negative_coefficients_rejected(self):
        zero = tensor(0.0)
        for kwargs in (dict(lam=-0.1, gamma=0.0, mu=0.0),
                       dict(lam=0.0, gamma=-1.0, mu=0.0),
                       dict(lam=0.0, gamma=0.0, mu=-0.5)):
            with pytest.raises(ConfigError):
                obj.synergic(zero, zero, zero, zero, **kwargs)



def fd_scalar(fn, x, eps=1e-6):
    """Central-difference gradient of a scalar function of an ndarray."""
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        plus = fn(x)
        flat[i] = old - eps
        minus = fn(x)
        flat[i] = old
        gflat[i] = (plus - minus) / (2 * eps)
    return grad


def node_cases():
    """Per term: a call on a loss module (`objectives` or `composed_losses`)
    and the arrays of its tensor inputs."""
    rng = np.random.default_rng(5)
    p = (rng.random((6, 4)) < 0.5).astype(float)
    y = rng.integers(0, 2, size=6)
    stack = rng.normal(size=(4, 3))
    return {
        "hate": (lambda m, z: m.loss_hate(z, y), [rng.normal(size=(6, 1))]),
        "dis": (lambda m, z: m.loss_dis(z, p), [rng.normal(size=(6, 4))]),
        "imi": (lambda m, z, z_prime: m.loss_imi(z, z_prime),
                [rng.normal(size=(6, 1)), rng.normal(size=(6, 1))]),
        "reg": (lambda m, *layers: m.loss_reg(m.gap_constants(stack), list(layers)),
                [f @ f.T for f in (rng.normal(size=(4, 7)), rng.normal(size=(4, 5)))]),
        "synergic": (lambda m, *terms: m.synergic(*terms, lam=0.9, gamma=3.0, mu=0.7),
                     [np.asarray(v) for v in rng.normal(size=4)]),
    }


class TestOneNodeLosses:
    """Each term is one node whose value is bitwise that of the term written
    out as tape ops (`composed_losses`) and whose gradient is that form's."""

    @pytest.mark.parametrize("term", sorted(node_cases()))
    def test_one_node_over_its_inputs(self, term):
        call, arrays = node_cases()[term]
        inputs = tuple(ad.Tensor(a, requires_grad=True) for a in arrays)
        assert call(obj, *inputs)._parents == inputs

    @pytest.mark.parametrize("term", sorted(node_cases()))
    def test_value_and_gradients_match_the_composed_form(self, term):
        call, arrays = node_cases()[term]
        got, want = ([ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
                     for _ in range(2))
        node, reference = call(obj, *got), call(composed, *want)
        assert node.item() == reference.item()
        ad.backward(node)
        ad.backward(reference)
        for i, (g, w) in enumerate(zip(got, want)):
            assert np.linalg.norm(g.grad - w.grad) <= 1e-12 * np.linalg.norm(w.grad)

            def value(a, i=i):
                return call(obj, *(ad.constant(a if j == i else b)
                                   for j, b in enumerate(arrays))).item()

            np.testing.assert_allclose(g.grad, fd_scalar(value, arrays[i].copy()),
                                       rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("scale", [40.0, 800.0])
    def test_extreme_logits_stay_finite_without_warnings(self, scale):
        z = np.asarray([[scale], [-scale], [scale], [-scale]])
        cases = {"hate": (lambda a: obj.loss_hate(a[0], [0, 1, 1, 0]), [z]),
                 "dis": (lambda a: obj.loss_dis(a[0], np.asarray([[0, 1]] * 4)),
                         [np.hstack([z, -z])]),
                 "imi": (lambda a: obj.loss_imi(a[0], a[1]), [z, -z])}
        for call, arrays in cases.values():
            inputs = [ad.Tensor(a, requires_grad=True) for a in arrays]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                loss = call(inputs)
                ad.backward(loss)
            assert np.isfinite(loss.item())
            assert all(np.all(np.isfinite(t.grad)) for t in inputs)
