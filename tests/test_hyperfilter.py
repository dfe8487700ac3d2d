import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composed_losses import tsum
from fairfilter import autodiff as ad
from fairfilter import hyperfilter as hf
from fairfilter.data import PostRecord, membership
from fairfilter.errors import ConfigError, DimensionError, GraphError
from fairfilter.trainer import tabulate


def make_hyper(d=6, rank=2, depth=2, indicator_dim=3, hidden=8, seed=0):
    return hf.HyperFilter(d=d, rank=rank, depth=depth,
                          indicator_dim=indicator_dim,
                          rng=np.random.default_rng(seed), hidden=hidden)


class TestArity:
    @pytest.mark.parametrize("d,k,expected", [
        (256, 1, 1 + 512 + 1),          # 514
        (256, 5, 25 + 2560 + 5),        # 2590
        (16, 2, 4 + 64 + 2),
    ])
    def test_factor_arity(self, d, k, expected):
        assert hf.factor_arity(d, k) == expected

    @given(st.integers(4, 512))
    def test_low_rank_beats_dense_below_a_third_of_d(self, d):
        for k in range(1, max(2, d // 3)):
            assert hf.factor_arity(d, k) < d * (d + 1)


def stack(*vectors):
    return np.stack([np.asarray(v, dtype=np.float64) for v in vectors])


def ensemble(hyper, table, target_sets):
    """`ensemble_params` over a name-keyed table, its rows in sorted-name order."""
    names = sorted(table)
    return hf.ensemble_params(hyper, stack(*(table[n] for n in names)),
                              membership(target_sets, names))


class TestGenerateFactors:
    def test_shapes(self):
        hyper = make_hyper()
        factors = hf.target_theta(hyper, np.ones((2, 3)))
        assert len(factors) == hyper.depth
        for f in factors:
            assert f.p.data.shape == (2, 2, 6)
            assert f.v.data.shape == (2, 2, 7)

    def test_reshape_order_is_u_then_w_then_v(self):
        # overwrite the generator so its flat output is 0..arity-1
        hyper = make_hyper(d=3, rank=2, depth=1, indicator_dim=2, hidden=2)
        arity = hf.factor_arity(3, 2)
        g = hyper.group.tensors
        g["L0.W0"].data[:] = 0.0
        g["L0.b0"].data[:] = 0.0
        g["L0.W1"].data[:] = 0.0
        g["L0.b1"].data[:] = np.arange(arity, dtype=np.float64)
        f, = hf.target_theta(hyper, np.zeros((1, 2)))
        u, w = np.arange(6.0).reshape(3, 2), np.arange(6.0, 10.0).reshape(2, 2)
        np.testing.assert_array_equal(f.p.data[0], (u @ w).T)
        np.testing.assert_array_equal(f.v.data[0], np.arange(10, 18).reshape(2, 4))

    def test_bad_indicator_shape(self):
        hyper = make_hyper()
        with pytest.raises(DimensionError):
            hf.target_theta(hyper, np.ones((1, 4)))
        with pytest.raises(DimensionError):
            hf.target_theta(hyper, np.ones(3))

    def test_assembled_theta_has_rank_at_most_k(self):
        hyper = make_hyper(d=8, rank=2)
        theta = hf.assemble_theta(hf.target_theta(hyper, np.ones((1, 3)))[0])
        assert theta.data.shape == (1, 8, 9)
        assert np.linalg.matrix_rank(theta.data[0], tol=1e-10) <= 2

    def test_same_indicator_same_theta(self):
        hyper = make_hyper()
        t1 = hf.target_theta(hyper, stack([0.1, -0.2, 0.3]))
        t2 = hf.target_theta(hyper, stack([0.1, -0.2, 0.3]))
        for a, b in zip(t1, t2):
            for name in ("p", "v"):
                assert getattr(a, name).data.tobytes() == getattr(b, name).data.tobytes()


class TestEnsembleParams:
    def indicators(self, n, dim=3, seed=1):
        rng = np.random.default_rng(seed)
        return {f"t{i}": rng.normal(size=dim) for i in range(n)}

    def test_singleton_equals_target_theta_exactly(self):
        hyper = make_hyper()
        ind = self.indicators(1)
        single, mix = hf.ensemble_params(hyper, stack(ind["t0"]), np.ones((3, 1)))
        direct = hf.target_theta(hyper, stack(ind["t0"]))
        for a, b in zip(single, direct):
            for name in ("p", "v"):
                np.testing.assert_array_equal(getattr(a, name).data,
                                              getattr(b, name).data)
        np.testing.assert_array_equal(mix, np.ones((3, 1)))

    def test_mean_of_per_target_thetas(self):
        hyper = make_hyper()
        ind = self.indicators(3)
        sets = [{"t0", "t1", "t2"}, {"t1"}, {"t0", "t2"}]
        factors, mix = ensemble(hyper, ind, sets)
        names = sorted(ind)
        for layer in range(hyper.depth):
            per_target = hf.assemble_theta(factors[layer]).data
            mixed = np.einsum("nt,tij->nij", mix, per_target)
            for row, tset in enumerate(sets):
                expected = np.mean([per_target[names.index(t)] for t in sorted(tset)],
                                   axis=0)
                np.testing.assert_allclose(mixed[row], expected, atol=1e-15)

    def test_one_generator_pass_per_layer(self, monkeypatch):
        # posts sharing targets share graph nodes: however many posts and
        # target sets, the generator runs once over all targets, and each
        # layer's first product reads the whole (4, 3) stack once
        hyper = make_hyper()
        ind = self.indicators(4)
        calls, passes = [], []
        original, einsum = hf.target_theta, ad.einsum

        def counted(hyper, indicators):
            calls.append(indicators.shape)
            return original(hyper, indicators)

        def counted_einsum(spec, *operands):
            if spec == "ti,ih->th":
                passes.append(operands[0].shape)
            return einsum(spec, *operands)

        monkeypatch.setattr(hf, "target_theta", counted)
        monkeypatch.setattr(ad, "einsum", counted_einsum)
        sets = [{"t0"}, {"t0", "t1"}, {"t2", "t3", "t1"}, {"t0"}, {"t3"}]
        factors, mix = ensemble(hyper, ind, sets)
        assert calls == [(4, 3)]
        assert passes == [(4, 3)] * hyper.depth
        assert all(f.p.data.shape[0] == 4 for f in factors)
        assert mix.shape == (5, 4)

    def test_empty_target_set_rejected(self):
        # the membership rows that ensemble_params mixes come from `tabulate`,
        # which admits no empty target set and no name off the target axis
        def post(*targets):
            return PostRecord(id="p", targets=targets, label=0, embedding=np.zeros(6))

        with pytest.raises(GraphError):
            tabulate([post("t0"), post()], ["t0", "t1"])
        with pytest.raises(ConfigError, match="ghost"):
            tabulate([post("t0", "ghost")], ["t0", "t1"])


def multiplied(pair):
    """The dense (n, d) embeddings rows·basis of a (rows, basis) pair."""
    return ad.matmul(*pair).data


def dense_as_factors(*thetas):
    """Factors with P = I and V = theta, so U W V is exactly theta (K = d)."""
    d = thetas[0].shape[0]
    eye = ad.constant(np.eye(d)[None])
    return [hf.LowRankFactors(p=eye, v=ad.constant(np.asarray(t)[None]))
            for t in thetas]


class TestApplyFilter:
    def test_identity_filter_passes_through(self):
        d = 4
        theta = np.hstack([np.eye(d), np.zeros((d, 1))])
        x = np.random.default_rng(0).normal(size=(3, d))
        out = multiplied(hf.apply_filter(ad.constant(x), dense_as_factors(theta),
                                         np.ones((3, 1))))
        np.testing.assert_array_equal(out, x)

    def test_single_layer_matches_manual_affine(self):
        rng = np.random.default_rng(3)
        d = 5
        theta_np = rng.normal(size=(d, d + 1))
        x = rng.normal(size=(4, d))
        out = multiplied(hf.apply_filter(ad.constant(x), dense_as_factors(theta_np),
                                         np.ones((4, 1))))
        expected = x @ theta_np[:, :d].T + theta_np[:, d]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_two_layers_relu_in_between(self):
        rng = np.random.default_rng(4)
        d = 3
        t0 = rng.normal(size=(d, d + 1))
        t1 = rng.normal(size=(d, d + 1))
        x = rng.normal(size=(2, d))
        out = multiplied(hf.apply_filter(ad.constant(x), dense_as_factors(t0, t1),
                                         np.ones((2, 1))))
        h = np.maximum(x @ t0[:, :d].T + t0[:, d], 0.0)
        expected = h @ t1[:, :d].T + t1[:, d]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        factors = dense_as_factors(np.zeros((4, 5)))
        with pytest.raises(DimensionError):
            hf.apply_filter(ad.constant(np.zeros((2, 3))), factors, np.ones((2, 1)))
        with pytest.raises(DimensionError):
            hf.apply_filter(ad.constant(np.zeros((2, 4))), factors, np.ones((3, 1)))


def dense_oracle(hyper, indicators, target_sets, x):
    """Per post: mean of its targets' assembled U W V, applied as [weight | bias]."""
    names = sorted(indicators)
    thetas = [hf.assemble_theta(f).data
              for f in hf.target_theta(hyper, stack(*(indicators[n] for n in names)))]
    d = hyper.d
    out = []
    for row, tset in zip(x, target_sets):
        h = row
        for layer, theta in enumerate(thetas):
            mean = np.mean([theta[names.index(t)] for t in sorted(tset)], axis=0)
            h = mean[:, :d] @ h + mean[:, d]
            if layer < len(thetas) - 1:
                h = np.maximum(h, 0.0)
        out.append(h)
    return np.stack(out)


class TestFactoredForm:
    @settings(max_examples=40, deadline=None)
    @given(depth=st.integers(1, 2), rank=st.integers(1, 3), d=st.integers(2, 9),
           n_targets=st.integers(2, 5), seed=st.integers(0, 2**16))
    def test_apply_filter_matches_dense_mean_of_matrices(self, depth, rank, d,
                                                         n_targets, seed):
        rng = np.random.default_rng(seed)
        hyper = make_hyper(d=d, rank=rank, depth=depth, seed=seed)
        ind = {f"t{i}": rng.normal(size=3) for i in range(n_targets)}
        names = sorted(ind)
        # one single-target and one all-target post, then random sets
        sets = [{names[0]}, set(names)]
        for _ in range(6):
            k = int(rng.integers(1, n_targets + 1))
            sets.append(set(rng.choice(names, size=k, replace=False).tolist()))
        x = rng.normal(size=(len(sets), d))
        factors, mix = ensemble(hyper, ind, sets)
        out = multiplied(hf.apply_filter(ad.constant(x), factors, mix))
        np.testing.assert_allclose(out, dense_oracle(hyper, ind, sets, x),
                                   rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(depth=st.integers(1, 2), rank=st.integers(1, 3), d=st.integers(2, 9),
           n_targets=st.integers(1, 5), seed=st.integers(0, 2**16))
    def test_factor_gram_matches_flattened_inner_products(self, depth, rank, d,
                                                          n_targets, seed):
        rng = np.random.default_rng(seed)
        hyper = make_hyper(d=d, rank=rank, depth=depth, seed=seed)
        factors = hf.target_theta(hyper, rng.normal(size=(n_targets, 3)))
        for f, gram in zip(factors, hf.filter_gram(factors)):
            flat = hf.assemble_theta(f).data.reshape(n_targets, -1)
            np.testing.assert_allclose(gram.data, flat @ flat.T, rtol=0, atol=1e-12)


class TestGradientFlow:
    def test_filtered_output_backprops_into_generator(self):
        hyper = make_hyper(d=4, rank=1, depth=2, indicator_dim=3)
        rng = np.random.default_rng(9)
        ind = {f"t{i}": rng.normal(size=3) for i in range(2)}
        factors, mix = ensemble(hyper, ind, [{"t0", "t1"}, {"t0"}, {"t1"}])
        out = ad.matmul(*hf.apply_filter(ad.constant(rng.normal(size=(3, 4))), factors,
                                         mix))
        ad.backward(tsum(out * out))
        grads = hyper.group.grads
        assert all(g is not None for g in grads.values())
        assert any(np.any(g != 0.0) for g in grads.values())
