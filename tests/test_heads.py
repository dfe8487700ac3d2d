import numpy as np
import pytest

from composed_losses import tsum
from fairfilter import autodiff as ad
from fairfilter import heads
from fairfilter import objectives as obj
from fairfilter.errors import DimensionError


def straight_line_logits(group, x):
    """The head's MLP recomputed in plain numpy: ReLU hidden layers and an
    affine readout with no squashing."""
    h = x
    for i in range(3):
        h = h @ group.tensors[f"W{i}"].data + group.tensors[f"b{i}"].data
        if i < 2:
            h = np.maximum(h, 0.0)
    return h


class TestDiscriminatorHead:
    def test_output_shape_and_range(self):
        head = heads.DiscriminatorHead(6, 4, np.random.default_rng(0), hidden=8)
        x = np.random.default_rng(1).normal(size=(5, 6)) * 10.0
        out = head.forward(ad.constant(x))
        assert out.data.shape == (5, 4)
        # real-valued logits, not probabilities
        np.testing.assert_allclose(out.data, straight_line_logits(head.group, x),
                                   rtol=0, atol=1e-12)
        assert np.any((out.data < 0.0) | (out.data > 1.0))

    def test_rows_are_independent_scores_not_a_distribution(self):
        head = heads.DiscriminatorHead(6, 4, np.random.default_rng(2), hidden=8)
        out = head.forward(ad.constant(np.random.default_rng(3).normal(size=(8, 6))))
        sums = out.data.sum(axis=1)
        assert not np.allclose(sums, 1.0)

    def test_extreme_logits_give_finite_loss(self):
        head = heads.DiscriminatorHead(3, 2, np.random.default_rng(0), hidden=4)
        for t in head.group.tensors.values():
            t.data[:] = 50.0
        out = head.forward(ad.constant(np.ones((2, 3)) * 50.0))
        assert np.all(out.data > 1e6) and np.all(np.isfinite(out.data))
        # every entry confidently wrong: the loss is the logit sum itself
        loss = obj.loss_dis(out, np.zeros((2, 2)))
        assert loss.item() == pytest.approx(out.data.sum(axis=1).mean(), rel=1e-15)

    def test_dim_and_target_count_validation(self):
        with pytest.raises(DimensionError):
            heads.DiscriminatorHead(3, 0, np.random.default_rng(0))
        head = heads.DiscriminatorHead(3, 2, np.random.default_rng(0), hidden=4)
        with pytest.raises(DimensionError):
            head.forward(ad.constant(np.zeros((2, 5))))


class TestClassifierHead:
    def test_output_is_column_of_logits(self):
        head = heads.ClassifierHead(6, np.random.default_rng(0), hidden=8)
        x = np.random.default_rng(1).normal(size=(7, 6)) * 10.0
        out = head.forward(ad.constant(x))
        assert out.data.shape == (7, 1)
        np.testing.assert_allclose(out.data, straight_line_logits(head.group, x),
                                   rtol=0, atol=1e-12)
        assert np.any((out.data < 0.0) | (out.data > 1.0))

    def test_shared_head_gives_identical_scores_for_identical_inputs(self):
        head = heads.ClassifierHead(4, np.random.default_rng(5), hidden=8)
        x = np.random.default_rng(6).normal(size=(3, 4))
        a = head.forward(ad.constant(x.copy()))
        b = head.forward(ad.constant(x.copy()))
        assert a.data.tobytes() == b.data.tobytes()

    def test_gradients_reach_all_layers(self):
        head = heads.ClassifierHead(4, np.random.default_rng(0), hidden=8)
        out = head.forward(ad.constant(np.random.default_rng(1).normal(size=(5, 4))))
        ad.backward(tsum(out))
        for name, g in head.group.grads.items():
            assert g is not None and np.any(g != 0.0), name


class TestDecide:
    def test_strict_threshold(self):
        scores = np.asarray([0.2, 0.5, 0.50001, 0.9])
        np.testing.assert_array_equal(heads.decide(scores), [0, 0, 1, 1])

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        scores = rng.random(100)
        lo = heads.decide(scores, 0.3)
        hi = heads.decide(scores, 0.7)
        assert np.all(lo >= hi)


class TestFactoredInput:
    @pytest.mark.parametrize("make", [
        lambda rng: heads.DiscriminatorHead(6, 4, rng, hidden=8),
        lambda rng: heads.ClassifierHead(6, rng, hidden=8)])
    @pytest.mark.parametrize("basis_rows", [3, 6])  # a wide basis and a square one
    def test_head_on_factored_matches_head_on_product(self, make, basis_rows):
        rng = np.random.default_rng(basis_rows)
        head = make(rng)
        rows, basis = rng.normal(size=(7, basis_rows)), rng.normal(size=(basis_rows, 6))
        factored = ad.constant(rows), ad.constant(basis)
        on_factored = head.forward(factored)
        ad.backward(tsum(on_factored * on_factored))
        factored_grads = {k: g.copy() for k, g in head.group.grads.items()}
        for t in head.group.tensors.values():
            t.grad = None
        on_product = head.forward(ad.constant(rows @ basis))
        ad.backward(tsum(on_product * on_product))
        np.testing.assert_allclose(on_factored.data, on_product.data, rtol=0, atol=1e-12)
        for k, g in head.group.grads.items():
            np.testing.assert_allclose(factored_grads[k], g, rtol=0, atol=1e-12)
