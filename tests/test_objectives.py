import numpy as np
import pytest

from fairfilter import autodiff as ad
from fairfilter import objectives as obj
from fairfilter.errors import ConfigError, DimensionError, GraphError


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


def grams(flat_thetas):
    """Per-layer Gram matrices of flattened filter parameters, names sorted."""
    names = sorted(flat_thetas)
    out = []
    for layer in range(len(flat_thetas[names[0]])):
        rows = np.stack([np.asarray(flat_thetas[n][layer], dtype=np.float64)
                         for n in names])
        out.append(tensor(rows @ rows.T))
    return out


class TestLossReg:
    def test_zero_when_cosines_agree(self):
        indicators = {"a": np.asarray([1.0, 0.0]), "b": np.asarray([0.0, 1.0])}
        # orthogonal flattened parameters match the orthogonal indicators
        thetas = {"a": [[1.0, 0.0, 0.0]], "b": [[0.0, 2.0, 0.0]]}
        assert obj.loss_reg(indicators, grams(thetas)).item() == pytest.approx(0.0, abs=1e-12)

    def test_unit_gap_per_layer_and_pair(self):
        # indicator cosine 0, parameter cosine 1: each pair-layer adds 1
        indicators = {"a": np.asarray([1.0, 0.0]), "b": np.asarray([0.0, 1.0]),
                      "c": np.asarray([1.0, 0.0])}
        same = [[1.0, 1.0], [2.0, 0.0]]
        thetas = {k: same for k in indicators}
        # pairs (a,b) and (b,c) have indicator cos 0; (a,c) has cos 1
        expected = 2 * 2 * 1.0
        assert obj.loss_reg(indicators, grams(thetas)).item() == pytest.approx(expected, abs=1e-12)

    def test_scale_invariance_of_the_cosine(self):
        indicators = {"a": np.asarray([1.0, 1.0]), "b": np.asarray([1.0, -1.0])}
        base = {"a": [np.asarray([0.3, 0.4])], "b": [np.asarray([-0.8, 0.1])]}
        scaled = {"a": [base["a"][0] * 7.0], "b": [base["b"][0] * 0.01]}
        assert obj.loss_reg(indicators, grams(base)).item() == pytest.approx(
            obj.loss_reg(indicators, grams(scaled)).item(), abs=1e-12)

    def test_single_target_rejected(self):
        with pytest.raises(ConfigError):
            obj.loss_reg({"a": np.ones(2)}, grams({"a": [[1.0]]}))

    def test_zero_norm_is_flagged(self):
        indicators = {"a": np.asarray([1.0, 0.0]), "b": np.asarray([0.0, 0.0])}
        thetas = {"a": [[1.0]], "b": [[1.0]]}
        with pytest.raises(GraphError, match="degenerate"):
            obj.loss_reg(indicators, grams(thetas))
        indicators["b"] = np.asarray([0.0, 1.0])
        thetas["b"] = [[0.0]]
        with pytest.raises(GraphError, match="degenerate"):
            obj.loss_reg(indicators, grams(thetas))

    def test_gram_shape_must_match_the_target_count(self):
        indicators = {"a": np.asarray([1.0, 0.0]), "b": np.asarray([0.0, 1.0])}
        with pytest.raises(DimensionError):
            obj.loss_reg(indicators, [tensor(np.eye(3))])


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

