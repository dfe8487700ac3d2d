import gc
import itertools
import json
import warnings

import numpy as np
import pytest

import composed_losses
from strict_json import strict_load
from fairfilter import autodiff as ad
from fairfilter import data, metrics, trainer
from fairfilter.data import CorpusSplit, PostRecord
from fairfilter.embeddings import WordVectorStore, tokenize_target
from fairfilter.errors import (CheckpointError, ConfigError, DataError, DivergenceError,
                               GraphError)
from fairfilter.trainer import Model, TrainConfig


def tiny_config(**kwargs):
    defaults = dict(hidden_dim=8, rank=1, depth=1, hyper_hidden=4,
                    head_hidden=4, batch_size=16, max_rounds=2, patience=10,
                    n_dis=1, n_filter=2, seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def tiny_records(n=40, targets=("a", "b"), d_in=4, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        k = int(rng.integers(1, min(3, len(targets) + 1)))
        chosen = tuple(sorted(rng.choice(targets, size=k, replace=False)))
        out.append(PostRecord(id=f"p{i}", targets=chosen,
                              label=int(rng.integers(0, 2)),
                              embedding=rng.normal(size=d_in)))
    return out


def tiny_indicators(targets=("a", "b"), dim=3, seed=1):
    rng = np.random.default_rng(seed)
    return {t: rng.normal(size=dim) for t in targets}


def tiny_split(n=40, **kwargs):
    records = tiny_records(n, **kwargs)
    cut = int(0.8 * n)
    return CorpusSplit(train=records[:cut], validation=records[cut:], test=[])


def tiny_model(config=None, targets=("a", "b"), d_in=4):
    config = config or tiny_config()
    ind = tiny_indicators(targets)
    return Model(config, d_in=d_in, indicator_dim=3,
                 seen_targets=list(targets), indicators=ind)


def seen_table(model):
    """The model's stored indicators by seen-target name."""
    return dict(zip(model.seen_targets, model.seen_indicators))


def seen_rows(model, records):
    """The records tabulated on the model's seen-target axis, as `fit` does."""
    return trainer.tabulate(records, model.seen_targets)


def taped_filter_batch(model, records):
    """`filter_batch` over the records' tabulated rows with the seen targets'
    filters, as a training step runs it."""
    x, _, targets = seen_rows(model, records)
    return model.filter_batch(x, *trainer.hf.ensemble_params(
        model.hyper, model.seen_indicators, targets))


def multiplied(pair):
    """The dense (n, d) embeddings rows·basis of a (rows, basis) pair."""
    return ad.matmul(*pair).data


def events_of(state, kind):
    """The events of one kind, in log order."""
    return [e for e in state.events if e["event"] == kind]


def assert_names_the_batch(error, records):
    """The DivergenceError's JSON carries the size, label mean and embedding
    abs-max of exactly `records`, the whole batch."""
    stats = json.loads(str(error).split("last batch: ", 1)[1])
    assert stats == {
        "batch_size": len(records),
        "labels_mean": float(np.mean([r.label for r in records])),
        "embedding_absmax": float(max(np.max(np.abs(r.embedding)) for r in records))}


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(lam=-0.1), dict(rank=0), dict(batch_size=0), dict(lr=0.0),
        dict(max_rounds=0), dict(threshold=1.0), dict(lam=float("nan")),
        dict(lr=float("inf")), dict(mu=float("inf")), dict(seed=-1),
        dict(hyper_hidden=0), dict(head_hidden=0), dict(adapter_depth=0),
        dict(patience=-1),
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            tiny_config(**kwargs).validate()

    def test_defaults_valid(self):
        TrainConfig().validate()


class TestModel:
    def test_tabulate_follows_seen_target_order(self):
        model = tiny_model(targets=("a", "b", "c"))
        records = [PostRecord(id="x", targets=("c", "a"), label=1,
                              embedding=np.arange(4.0))]
        x, y, targets = seen_rows(model, records)
        np.testing.assert_array_equal(x, [[0.0, 1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(y, [1])
        np.testing.assert_array_equal(targets, [[1, 0, 1]])

    def test_seen_targets_are_kept_sorted(self):
        ind = tiny_indicators(("a", "b", "c"))
        shuffled = Model(tiny_config(), d_in=4, indicator_dim=3,
                         seen_targets=["c", "a", "b"], indicators=ind)
        ordered = Model(tiny_config(), d_in=4, indicator_dim=3,
                        seen_targets=["a", "b", "c"], indicators=ind)
        assert shuffled.seen_targets == ["a", "b", "c"]
        records = [PostRecord(id=f"r{i}", targets=tset, label=i % 2,
                              embedding=np.full(4, i + 1.0))
                   for i, tset in enumerate([("c",), ("a",), ("b", "c")])]
        _, _, targets = seen_rows(shuffled, records)
        np.testing.assert_array_equal(targets, [[0, 0, 1], [1, 0, 0], [0, 1, 1]])
        np.testing.assert_array_equal(shuffled.seen_indicators,
                                      np.stack([ind[t] for t in ("a", "b", "c")]))
        records = tiny_records(12, targets=("a", "b", "c"))
        got = trainer.synergic_losses(shuffled, *seen_rows(shuffled, records))
        want = trainer.synergic_losses(ordered, *seen_rows(ordered, records))
        assert {k: v.data.tobytes() for k, v in got.items()} \
            == {k: v.data.tobytes() for k, v in want.items()}

    def test_missing_indicator_rejected(self):
        with pytest.raises(ConfigError, match="ghost"):
            Model(tiny_config(), d_in=4, indicator_dim=3,
                  seen_targets=["a", "ghost"], indicators=tiny_indicators(("a",)))

    def test_misshapen_indicator_rejected(self):
        ind = tiny_indicators(("a", "b"))
        ind["b"] = ind["b"][:2]
        with pytest.raises(ConfigError, match=r"\(3,\) indicator .*\['b'\]"):
            Model(tiny_config(), d_in=4, indicator_dim=3, seen_targets=["a", "b"],
                  indicators=ind)

    def test_repeated_seen_target_rejected(self):
        # a repeated name would open a second discriminator output and filter
        # row for one target, with a membership column no post ever sets
        with pytest.raises(ConfigError, match=r"more than once: \['a'\]"):
            Model(tiny_config(), d_in=4, indicator_dim=3, seen_targets=["a", "a", "b"],
                  indicators=tiny_indicators(("a", "b")))

    def test_filter_batch_keeps_input_order(self):
        model = tiny_model()
        records = tiny_records(10)
        s, s_tilde = map(multiplied, taped_filter_batch(model, records))
        assert s.shape == s_tilde.shape == (10, 8)
        for i, record in enumerate(records):
            s_one, s_tilde_one = map(multiplied, taped_filter_batch(model, [record]))
            np.testing.assert_allclose(s[i], s_one[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(s_tilde[i], s_tilde_one[0], rtol=0, atol=1e-12)

    def test_filter_batch_builds_no_dense_filter(self):
        d = 64
        model = tiny_model(tiny_config(hidden_dim=d, depth=2, rank=2),
                           targets=("a", "b", "c"))
        _, s_tilde = taped_filter_batch(model, tiny_records(12, targets=("a", "b", "c")))
        seen, stack, shapes = set(), list(s_tilde), []
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            shapes.append(node.data.shape)
            stack.extend(node._parents)
        assert len(shapes) > 10
        assert not [sh for sh in shapes if sh[-2:] == (d, d + 1)]

    def test_same_target_set_rows_share_a_filter(self):
        # identical embeddings with identical target sets must map identically
        model = tiny_model()
        emb = np.random.default_rng(3).normal(size=4)
        records = [PostRecord(id=f"r{i}", targets=("a",), label=0,
                              embedding=emb.copy()) for i in range(3)]
        _, s_tilde = taped_filter_batch(model, records)
        assert len({row.tobytes() for row in multiplied(s_tilde)}) == 1

    @pytest.mark.parametrize("batch_size", [7, 128])
    def test_embed_matches_taped_filter_batch_without_tape(self, batch_size, monkeypatch):
        model = tiny_model(tiny_config(batch_size=batch_size), targets=("a", "b", "c"))
        records = tiny_records(40, targets=("a", "b", "c"))
        s, s_tilde = taped_filter_batch(model, records)
        assert all(t.requires_grad and t._parents for t in s_tilde)
        built = []
        filter_batch = Model.filter_batch

        def recording(self, *args):
            built.append(filter_batch(self, *args))
            return built[-1]

        monkeypatch.setattr(Model, "filter_batch", recording)
        x, _, targets = seen_rows(model, records)
        chunks = list(model.embed(x, targets, model.seen_indicators))
        assert [len(rows.data) for (rows, _), _ in chunks] == [
            min(batch_size, 40 - start) for start in range(0, 40, batch_size)]
        assert chunks == built
        # no tape: a basis may be a parameter leaf itself (the adapter weight),
        # every other tensor is a constant
        params = {id(t) for g in model.groups.values() for t in g.tensors.values()}
        for node in (t for chunk in chunks for pair in chunk for t in pair):
            assert node._parents == () and (id(node) in params or not node.requires_grad)
        # one product per pair gives the dense embeddings
        np.testing.assert_allclose(np.concatenate([multiplied(s) for s, _ in chunks]),
                                   multiplied(s), rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.concatenate([multiplied(t) for _, t in chunks]),
                                   multiplied(s_tilde), rtol=0, atol=1e-12)

    def test_embed_holds_no_grad_only_while_it_filters(self):
        model = tiny_model(tiny_config(batch_size=7))
        x, _, members = seen_rows(model, tiny_records(20))
        chunks = model.embed(x, members, model.seen_indicators)
        next(chunks)  # suspended at its first yield, not closed
        a = ad.Tensor(np.ones(2), requires_grad=True)
        assert (a * a)._parents == (a, a)
        chunks.close()

    @pytest.mark.parametrize("config", [
        tiny_config(hidden_dim=3), tiny_config(adapter_depth=2), TrainConfig()],
        ids=["square-filter-basis", "adapter-depth-2", "default-config"])
    def test_heads_on_embedding_pairs_match_heads_on_products(self, config):
        # every embedding is a (rows, basis) pair, also where the basis is not
        # wide: T*K = d = 3 with a 4 x 3 adapter weight, or the square W1 at
        # adapter depth 2; a head folds the basis and reads the product
        targets = ("a", "b", "c")
        model = tiny_model(config, targets=targets)
        records = tiny_records(20, targets=targets)
        x, _, members = seen_rows(model, records)
        sources = (lambda: taped_filter_batch(model, records),
                   lambda: next(model.embed(x, members, model.seen_indicators)))

        def head_on(head, embedding):
            """The head's output, and every gradient of its sum of squares."""
            out = head.forward(embedding)
            ad.backward(composed_losses.tsum(out * out))
            grads = {}
            for name, group in model.groups.items():
                for key, t in group.tensors.items():
                    if t.grad is not None:
                        grads[f"{name}.{key}"], t.grad = t.grad, None
            return out.data, grads

        for source, i, head in itertools.product(sources, (0, 1),
                                                 (model.classifier, model.discriminator)):
            pair = source()[i]
            assert isinstance(pair, tuple) and len(pair) == 2
            got, got_grads = head_on(head, pair)
            # a fresh pair: backward leaves gradients on the taped nodes it ran
            want, want_grads = head_on(head, ad.matmul(*source()[i]))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            assert got_grads.keys() == want_grads.keys()
            for key, g in want_grads.items():
                np.testing.assert_allclose(got_grads[key], g, rtol=0, atol=1e-12, err_msg=key)

    def test_fit_trains_where_no_basis_is_wide(self):
        # T*K == d == 3 and a square adapter weight at depth 2
        config = tiny_config(hidden_dim=3, adapter_depth=2, batch_size=7, max_rounds=1)
        targets = ("a", "b", "c")
        state = trainer.fit(config, tiny_split(targets=targets), tiny_indicators(targets))
        assert {row["phase"] for row in state.history} == {"dis", "filter"}
        assert all(np.isfinite(row["l_dis"]) for row in state.history)

    def test_unfolded_adapter_output_is_formed_once(self):
        # at adapter depth 2 the last weight W1 is square: s = h W1 is
        # multiplied out once, for the filter, and the classifier folds W1
        model = tiny_model(tiny_config(adapter_depth=2), targets=("a", "b", "c"))
        x, y, targets = seen_rows(model, tiny_records(12, targets=("a", "b", "c")))
        losses = trainer.synergic_losses(model, x, y, targets)
        w_last = model.adapter.group.tensors["W1"]
        seen, stack, readers = set(), [losses["synergic"]], []
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if any(p is w_last for p in node._parents):
                readers.append(node.data.shape)
            stack.extend(node._parents)
        assert sorted(readers) == [(12, 4), (12, 8)]  # z' = s W0 + b0 and s

    def test_predict_is_order_equivariant(self):
        model = tiny_model()
        records = tiny_records(15)
        ind = seen_table(model)
        fwd = model.predict(records, ind)
        rev = model.predict(records[::-1], ind)
        np.testing.assert_array_equal(fwd, rev[::-1])


    def test_predict_is_bitwise_invariant_to_target_order(self):
        # predict fixes the target axis (sorted names), so neither the order
        # of the indicator table nor that of a record's targets can move a bit;
        # a target named twice in one record counts once
        model = tiny_model(targets=("a", "b", "c"))
        records = tiny_records(20, targets=("a", "b", "c"))
        ind = tiny_indicators(("a", "b", "c", "d"))
        want = model.predict(records, ind)
        reordered = [PostRecord(id=r.id, targets=r.targets[::-1] + r.targets[:1],
                                label=r.label, embedding=r.embedding) for r in records]
        assert any(len(r.targets) > 1 for r in records)
        got = model.predict(reordered, dict(reversed(list(ind.items()))))
        assert got.tobytes() == want.tobytes()

    def test_predict_does_not_depend_on_batch_size(self):
        records = tiny_records(40, targets=("a", "b", "c"))
        scores = [tiny_model(tiny_config(batch_size=size),
                             targets=("a", "b", "c")).predict(
                                 records, tiny_indicators(("a", "b", "c")))
                  for size in (7, 128)]
        np.testing.assert_allclose(scores[0], scores[1], rtol=0, atol=1e-12)

    def test_predict_generates_filters_once(self, monkeypatch):
        calls = []
        generate = trainer.hf.target_theta

        def counting(*args):
            calls.append(1)
            return generate(*args)

        monkeypatch.setattr(trainer.hf, "target_theta", counting)
        model = tiny_model(tiny_config(batch_size=7))
        model.predict(tiny_records(40), seen_table(model))
        assert len(calls) == 1

    def test_predict_records_no_tape(self, monkeypatch):
        seen = []
        forward = trainer.ClassifierHead.forward

        def recording(head, x):
            seen.append(x)
            return forward(head, x)

        monkeypatch.setattr(trainer.ClassifierHead, "forward", recording)
        model = tiny_model(tiny_config(batch_size=7))
        model.predict(tiny_records(20), seen_table(model))
        assert len(seen) == 3
        assert all(not t.requires_grad and t._parents == () for pair in seen for t in pair)

    def test_predict_leaves_freeze_state_and_pending_grads(self):
        def flags():
            return {name: (g.frozen, [t.requires_grad for t in g.tensors.values()])
                    for name, g in model.groups.items()}

        model = tiny_model()
        model.discriminator.group.freeze()
        pending = {}
        for k, t in model.hyper.group.tensors.items():
            t.grad = pending[k] = np.full(t.data.shape, 0.5)
        before = flags()
        model.predict(tiny_records(10), seen_table(model))
        assert flags() == before
        assert before["dis"][0] and not before["hyper"][0]
        for k, t in model.hyper.group.tensors.items():
            assert t.grad is pending[k]

    def test_predict_target_without_indicator_rejected(self):
        model = tiny_model()
        records = tiny_records(5) + [PostRecord(id="x", targets=("a", "ghost"),
                                                label=0, embedding=np.zeros(4))]
        with pytest.raises(ConfigError, match="ghost"):
            model.predict(records, seen_table(model))

    def test_frozen_forward_builds_no_graph(self):
        model = tiny_model()
        for group in model.groups.values():
            group.freeze()
        losses = trainer.synergic_losses(model, *seen_rows(model, tiny_records(10)))
        for loss in losses.values():
            assert not loss.requires_grad and loss._parents == ()


class TestLossNodes:
    """Both phases' losses against the terms written out as tape ops."""

    @staticmethod
    def values_and_grads(model, losses_of):
        losses = losses_of(model)
        *_, objective = losses.values()
        ad.backward(objective)
        grads = {name: np.concatenate([t.grad.ravel() for t in g.tensors.values()])
                 for name, g in model.groups.items() if not g.frozen}
        for g in model.groups.values():
            for t in g.tensors.values():
                t.grad = None
        return {k: v.item() for k, v in losses.items()}, grads

    @pytest.mark.parametrize("depth", [1, 2])
    def test_losses_bitwise_and_gradients_match_the_composed_terms(self, depth, monkeypatch):
        targets = ("a", "b", "c")
        # twins: the reference forms its own gap constants with the composed
        # helper, so the bitwise check covers the cosine arithmetic too
        model, twin = (tiny_model(tiny_config(depth=depth, rank=2, batch_size=32),
                                  targets=targets) for _ in range(2))
        x, y, members = seen_rows(model, tiny_records(24, targets=targets))
        phases = {"filter": (("enc", "hyper", "hate"),
                             lambda m: trainer.synergic_losses(m, x, y, members)),
                  "dis": (("dis",), lambda m: trainer.discriminator_losses(
                      m, next(m.embed(x, members, m.seen_indicators))[1], members))}
        for trainable, losses_of in phases.values():
            for m in (model, twin):
                for name, group in m.groups.items():
                    (group.unfreeze if name in trainable else group.freeze)()
            node = self.values_and_grads(model, losses_of)
            with monkeypatch.context() as patched:
                for term in ("loss_hate", "loss_dis", "loss_imi", "loss_reg", "synergic",
                             "gap_constants"):
                    patched.setattr(trainer.obj, term, getattr(composed_losses, term))
                reference = self.values_and_grads(twin, losses_of)
            assert node[0] == reference[0]
            assert node[1].keys() == reference[1].keys() == set(trainable)
            for name, want in reference[1].items():
                assert np.linalg.norm(node[1][name] - want) <= 1e-12 * np.linalg.norm(want)


class TestTapeSize:
    """Tensors one training step builds at the bench's train-d48 shapes (d_in
    24, hidden 48, hyper_hidden 32, head_hidden 48, 6 targets, rank 1, depth
    1, a batch of 128), forward and backward: that workload's step is bound
    by the tape, so its size is pinned here."""

    @pytest.fixture
    def d48(self):
        names = tuple(f"t{i}" for i in range(6))
        rng = np.random.default_rng(0)
        model = Model(tiny_config(hidden_dim=48, hyper_hidden=32, head_hidden=48,
                                  rank=1, depth=1, batch_size=128),
                      d_in=24, indicator_dim=24, seen_targets=list(names),
                      indicators={t: rng.normal(size=24) for t in names})
        return model, seen_rows(model, tiny_records(128, targets=names, d_in=24))

    @staticmethod
    def tensors_built(monkeypatch, model, trainable, losses_of):
        for name, group in model.groups.items():
            (group.unfreeze if name in trainable else group.freeze)()
        built = []
        init = ad.Tensor.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        with monkeypatch.context() as patched:
            patched.setattr(ad.Tensor, "__init__", counting)
            *_, objective = losses_of().values()
            ad.backward(objective)
        return len(built)

    def test_filter_step(self, d48, monkeypatch):
        model, (x, y, members) = d48
        assert self.tensors_built(monkeypatch, model, ("enc", "hyper", "hate"),
                                  lambda: trainer.synergic_losses(model, x, y, members)) <= 35

    def test_discriminator_step(self, d48, monkeypatch):
        model, (x, _, members) = d48
        s_tilde = next(model.embed(x, members, model.seen_indicators))[1]
        assert self.tensors_built(monkeypatch, model, ("dis",),
                                  lambda: trainer.discriminator_losses(
                                      model, s_tilde, members)) <= 6


class TestPhases:
    def test_filter_phase_leaves_discriminator_bit_identical(self):
        model = tiny_model()
        state = trainer.TrainState(model=model, adam={
            k: ad.AdamState() for k in model.groups})
        before = model.discriminator.group.state_dict()
        trainer.phase_filter(state, seen_rows(model, tiny_records(20)), epochs=2,
                             rng=np.random.default_rng(0))
        after = model.discriminator.group.state_dict()
        for k in before:
            assert before[k].tobytes() == after[k].tobytes()

    def test_dis_phase_leaves_filter_side_bit_identical(self):
        model = tiny_model()
        state = trainer.TrainState(model=model, adam={
            k: ad.AdamState() for k in model.groups})
        before = {n: model.groups[n].state_dict() for n in ("enc", "hyper", "hate")}
        trainer.phase_discriminator(state, seen_rows(model, tiny_records(20)),
                                    epochs=2, rng=np.random.default_rng(0))
        for n, saved in before.items():
            after = model.groups[n].state_dict()
            for k in saved:
                assert saved[k].tobytes() == after[k].tobytes()

    def test_phases_actually_move_their_own_parameters(self):
        model = tiny_model()
        state = trainer.TrainState(model=model, adam={
            k: ad.AdamState() for k in model.groups})
        before = model.discriminator.group.state_dict()
        trainer.phase_discriminator(state, seen_rows(model, tiny_records(20)),
                                    epochs=1, rng=np.random.default_rng(0))
        moved = any(not np.array_equal(before[k],
                                       model.discriminator.group.tensors[k].data)
                    for k in before)
        assert moved

    def test_dis_phase_generates_filters_once(self, monkeypatch):
        calls = []
        generate = trainer.hf.target_theta

        def counting(*args):
            calls.append(1)
            return generate(*args)

        monkeypatch.setattr(trainer.hf, "target_theta", counting)
        model = tiny_model()
        state = trainer.TrainState(model=model, adam={
            k: ad.AdamState() for k in model.groups})
        trainer.phase_discriminator(state, seen_rows(model, tiny_records(20)),
                                    epochs=2, rng=np.random.default_rng(0))
        assert state.global_step == 4
        assert len(calls) == 1

    def test_dis_phase_non_finite_loss_names_the_batch(self):
        model = tiny_model()
        state = trainer.TrainState(model=model, adam={
            k: ad.AdamState() for k in model.groups})
        model.discriminator.group.tensors["W2"].data[:] = np.nan
        records = tiny_records(8)
        with pytest.raises(DivergenceError, match="discriminator loss") as err:
            trainer.phase_discriminator(state, seen_rows(model, records), epochs=1,
                                        rng=np.random.default_rng(0))
        assert "non-finite parameters: dis.W2;" in str(err.value)
        assert_names_the_batch(err.value, records)

    def test_filter_phase_reads_tabulated_rows(self, monkeypatch):
        model = tiny_model(tiny_config(batch_size=8))
        state = trainer.TrainState(model=model, adam={
            k: ad.AdamState() for k in model.groups})
        rows = seen_rows(model, tiny_records(20))
        calls = {"ensemble_params": 0, "membership": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(trainer.hf, "ensemble_params",
                            counting("ensemble_params", trainer.hf.ensemble_params))
        membership = counting("membership", data.membership)
        for module in (data, trainer, metrics):
            monkeypatch.setattr(module, "membership", membership)
        trainer.phase_filter(state, rows, epochs=2, rng=np.random.default_rng(0))
        # no record is read again, and each step forms its mixing rows in the
        # one place they are formed
        assert state.global_step == 6
        assert calls == {"ensemble_params": 6, "membership": 0}

    def test_non_finite_loss_raises_divergence(self):
        model = tiny_model()
        state = trainer.TrainState(model=model, adam={
            k: ad.AdamState() for k in model.groups})
        # a poisoned readout weight sends the classifier logits non-finite
        model.classifier.group.tensors["W2"].data[:] = np.nan
        records = tiny_records(8)
        with pytest.raises(DivergenceError, match="synergic loss") as err:
            trainer.phase_filter(state, seen_rows(model, records), epochs=1,
                                 rng=np.random.default_rng(0))
        assert "non-finite parameters: hate.W2;" in str(err.value)
        assert_names_the_batch(err.value, records)


class TestFit:
    def test_history_bookkeeping(self):
        cfg = tiny_config(max_rounds=2, n_dis=1, n_filter=2)
        state = trainer.fit(cfg, tiny_split(), tiny_indicators())
        epochs = events_of(state, "epoch")
        # 2 rounds x (1 dis epoch + 2 filter epochs)
        assert len(epochs) == 2 * 3
        phases = [e["phase"] for e in epochs]
        assert phases == ["dis", "filter", "filter"] * 2
        assert len(events_of(state, "validation")) == 2
        assert state.best_round in (0, 1)

    def test_determinism(self):
        s1 = trainer.fit(tiny_config(), tiny_split(), tiny_indicators())
        s2 = trainer.fit(tiny_config(), tiny_split(), tiny_indicators())
        for name, group in s1.model.groups.items():
            other = s2.model.groups[name]
            for k, t in group.tensors.items():
                assert t.data.tobytes() == other.tensors[k].data.tobytes()
        assert s1.events == s2.events

    def test_all_groups_unfrozen_after_fit(self):
        state = trainer.fit(tiny_config(), tiny_split(), tiny_indicators())
        assert not any(g.frozen for g in state.model.groups.values())

    def test_best_snapshot_restored(self):
        state = trainer.fit(tiny_config(max_rounds=3), tiny_split(),
                            tiny_indicators())
        best = state.best_params
        for name, group in state.model.groups.items():
            for k, t in group.tensors.items():
                assert t.data.tobytes() == best[name][k].tobytes()

    def test_validation_target_without_indicator_rejected(self):
        split = tiny_split()
        split.validation[0] = PostRecord(id="odd", targets=("ghost",), label=0,
                                         embedding=np.zeros(4))
        with pytest.raises(ConfigError, match="ghost"):
            trainer.fit(tiny_config(), split, tiny_indicators())

    def test_empty_indicator_table_rejected(self):
        with pytest.raises(ConfigError, match="indicator table is empty; training targets a, b "):
            trainer.fit(tiny_config(), tiny_split(), {})

    def test_record_without_embedding_rejected_before_training(self, monkeypatch):
        split = tiny_split()
        split.validation[-1] = PostRecord(id="bare", targets=("a",), label=0,
                                          text="a post")
        monkeypatch.setattr(trainer, "phase_discriminator",
                            lambda *args: pytest.fail("training started"))
        with pytest.raises(DataError, match="record 'bare' carries no embedding"):
            trainer.fit(tiny_config(), split, tiny_indicators())

    def test_training_posts_tabulated_once_per_fit(self, monkeypatch):
        split = tiny_split()
        tabulated = []
        tabulate = trainer.tabulate

        def recording(records, names):
            tabulated.append(records)
            return tabulate(records, names)

        monkeypatch.setattr(trainer, "tabulate", recording)
        state = trainer.fit(tiny_config(max_rounds=3), split, tiny_indicators())
        assert [r is split.train for r in tabulated].count(True) == 1
        # the rest is validation, scored once per round
        assert len(tabulated) == 1 + len(events_of(state, "validation")) == 4


class TestGapConstants:
    """The gap-alignment constants are formed once per model, and only when a
    filter step aligns: mu > 0 and two or more seen targets."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        form = trainer.obj.gap_constants

        def counting(indicators):
            calls.append(indicators)
            return form(indicators)

        monkeypatch.setattr(trainer.obj, "gap_constants", counting)
        return calls

    def test_one_fit_forms_them_once(self, monkeypatch):
        calls = self.counted(monkeypatch)
        state = trainer.fit(tiny_config(max_rounds=3), tiny_split(), tiny_indicators())
        assert len(events_of(state, "step")) > 1
        assert len(calls) == 1 and calls[0] is state.model.seen_indicators

    def test_load_predict_and_unaligned_fits_never_form_them(self, monkeypatch, tmp_path):
        calls = self.counted(monkeypatch)
        state = trainer.fit(tiny_config(mu=0.0), tiny_split(), tiny_indicators())
        trainer.fit(tiny_config(), tiny_split(targets=("a",)), tiny_indicators(("a",)))
        trainer.checkpoint_save(state.model, tmp_path / "m.npz")
        loaded = trainer.checkpoint_load(tmp_path / "m.npz")
        loaded.predict(tiny_records(12, seed=9), seen_table(loaded))
        assert calls == []

    def test_zero_norm_seen_indicator_fails_at_the_first_alignment_step(self):
        indicators = tiny_indicators()
        indicators["b"] = np.zeros(3)
        model = Model(tiny_config(), d_in=4, indicator_dim=3, seen_targets=["a", "b"],
                      indicators=indicators)
        rows = seen_rows(model, tiny_records(8))
        with pytest.raises(GraphError, match="zero-norm indicator in row 1"):
            trainer.synergic_losses(model, *rows)
        model.config = tiny_config(mu=0.0)
        trainer.synergic_losses(model, *rows)


class TestEvents:
    """`TrainState.events`, a fit's one log, and its JSONL form."""

    @pytest.fixture(scope="class")
    def state(self):
        return trainer.fit(tiny_config(max_rounds=3, n_dis=2, n_filter=2),
                           tiny_split(), tiny_indicators())

    def test_step_events_number_every_step_in_order(self, state):
        steps = events_of(state, "step")
        assert [e["step"] for e in steps] == list(range(1, state.global_step + 1))
        assert state.global_step == 3 * (2 + 2) * 2  # rounds x epochs x batches
        for e in steps:
            assert set(e) == {"event", "step", "phase", *trainer.LOSS_KEYS}
            # a loss the phase does not compute is None
            computed = {k for k in trainer.LOSS_KEYS if e[k] is not None}
            assert computed == ({"l_dis"} if e["phase"] == "dis" else set(trainer.LOSS_KEYS))

    def test_epoch_means_equal_the_mean_of_their_steps(self, state):
        steps = []
        for e in state.events:
            if e["event"] == "step":
                steps.append(e)
            elif e["event"] == "epoch":
                assert {s["phase"] for s in steps} == {e["phase"]}
                computed = [k for k in trainer.LOSS_KEYS if steps[0][k] is not None]
                assert list(e) == ["event", "round", "phase", "epoch", *computed]
                for k in computed:
                    assert e[k] == np.mean([s[k] for s in steps])
                steps = []
        assert not steps
        assert [(e["round"], e["phase"], e["epoch"]) for e in events_of(state, "epoch")] \
            == [(r, p, i) for r in range(3) for p in ("dis", "filter") for i in range(2)]

    def test_one_validation_event_per_round(self, state):
        validations = events_of(state, "validation")
        assert [e["round"] for e in validations] == [0, 1, 2]
        for e in validations:
            assert e["composite"] == e["val_f1"] - e["val_hf"]
            assert 0.0 <= e["val_accuracy"] <= 1.0

    def test_best_event_closes_the_log(self, state):
        best = state.events[-1]
        assert events_of(state, "best") == [best]
        assert best["round"] == state.best_round
        assert best["composite"] == max(e["composite"] for e in events_of(state, "validation"))

    def test_best_composite_is_none_without_validation(self):
        split = tiny_split()
        split.validation = []
        state = trainer.fit(tiny_config(), split, tiny_indicators())
        assert not events_of(state, "validation")
        assert state.events[-1] == {"event": "best", "round": 1, "composite": None}

    def test_bench_views_derive_from_the_events(self, state):
        assert state.telemetry == events_of(state, "step")
        assert state.history == [{k: v for k, v in e.items() if k != "event"}
                                 for e in events_of(state, "epoch")]
        assert list(state.history[0]) == ["round", "phase", "epoch", "l_dis"]

    def test_write_events_round_trips(self, state, tmp_path):
        path = tmp_path / "events.jsonl"
        trainer.write_events(state, path)
        assert strict_load(path) == state.events
        lines = path.read_text(encoding="utf-8").splitlines()
        assert all(list(e) == sorted(e) for e in map(json.loads, lines))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_event_raises_divergence_and_writes_nothing(self, bad, tmp_path):
        path = tmp_path / "events.jsonl"
        state = trainer.TrainState(model=None, adam={}, events=[
            {"event": "step", "l_dis": 0.5}, {"event": "step", "l_dis": bad}])
        with pytest.raises(DivergenceError, match="events.jsonl' would hold a non-finite"):
            trainer.write_events(state, path)
        assert not path.exists()


class TestCheckpoint:
    def trained(self):
        return trainer.fit(tiny_config(max_rounds=1), tiny_split(),
                           tiny_indicators())

    def test_save_load_save_is_byte_identical(self, tmp_path):
        state = self.trained()
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        trainer.checkpoint_save(state.model, p1)
        loaded = trainer.checkpoint_load(p1)
        trainer.checkpoint_save(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_predicts_identically(self, tmp_path):
        state = self.trained()
        path = tmp_path / "c.npz"
        trainer.checkpoint_save(state.model, path)
        loaded = trainer.checkpoint_load(path)
        records = tiny_records(12, seed=9)
        a = state.model.predict(records, seen_table(state.model))
        b = loaded.predict(records, seen_table(loaded))
        assert a.tobytes() == b.tobytes()

    def test_unreadable_archive_leaves_no_file_open(self, tmp_path):
        # zip magic, so np.load hands the file to NpzFile, which fails to parse it
        path = tmp_path / "bad.npz"
        path.write_bytes(b"PK\x03\x04truncated")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CheckpointError):
                trainer.checkpoint_load(path)
            # an open file left in the error's traceback warns when collected
            gc.collect()
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []

    def test_version_mismatch_rejected(self, tmp_path):
        state = self.trained()
        path = tmp_path / "c.npz"
        trainer.checkpoint_save(state.model, path)
        import json
        archive = dict(np.load(path, allow_pickle=False))
        meta = json.loads(str(archive["__meta__"]))
        meta["version"] = 99
        archive["__meta__"] = np.array(json.dumps(meta))
        np.savez(path, **archive)
        with pytest.raises(CheckpointError, match="version"):
            trainer.checkpoint_load(path)

    def test_missing_tensor_rejected(self, tmp_path):
        state = self.trained()
        path = tmp_path / "c.npz"
        trainer.checkpoint_save(state.model, path)
        archive = dict(np.load(path, allow_pickle=False))
        victim = next(k for k in archive if k.startswith("param/hate/"))
        del archive[victim]
        np.savez(path, **archive)
        with pytest.raises(CheckpointError, match="missing tensor"):
            trainer.checkpoint_load(path)

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        state = self.trained()
        path = tmp_path / "c.npz"
        trainer.checkpoint_save(state.model, path)
        before = path.read_bytes()

        def interrupted_savez(fh, **arrays):
            fh.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", interrupted_savez)
        with pytest.raises(OSError, match="disk full"):
            trainer.checkpoint_save(state.model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.npz"]

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            trainer.checkpoint_load(path)


class TestEvalIndicators:
    def test_unseen_target_built_from_store(self):
        model = tiny_model()
        store = WordVectorStore(vectors={"women": np.asarray([1.0, 2.0, 3.0])},
                                dim=3)
        records = [PostRecord(id="u", targets=("women",), label=0,
                              embedding=np.zeros(4))]
        indicators, usable, warnings = trainer.eval_indicators(model, records, store)
        np.testing.assert_array_equal(indicators["women"], [1.0, 2.0, 3.0])
        assert [r.id for r in usable] == ["u"]
        assert warnings == []

    def test_unresolvable_target_excludes_records_with_warning(self):
        model = tiny_model()
        store = WordVectorStore(vectors={}, dim=3)
        records = [PostRecord(id="u", targets=("martian",), label=0,
                              embedding=np.zeros(4)),
                   PostRecord(id="v", targets=("a",), label=1,
                              embedding=np.zeros(4))]
        indicators, usable, warnings = trainer.eval_indicators(model, records, store)
        assert [r.id for r in usable] == ["v"]
        assert any("martian" in w for w in warnings)
        assert "martian" not in indicators

    def test_zero_indicator_excludes_records_with_warning(self):
        model = tiny_model()
        store = WordVectorStore(vectors={"women": np.zeros(3)}, dim=3)
        records = [PostRecord(id="u", targets=("women",), label=0,
                              embedding=np.zeros(4)),
                   PostRecord(id="v", targets=("a",), label=1,
                              embedding=np.zeros(4))]
        indicators, usable, warnings = trainer.eval_indicators(model, records, store)
        assert [r.id for r in usable] == ["v"]
        assert any("all zeros" in w for w in warnings)
        assert "women" not in indicators


class TestResolveIndicators:
    def store(self, width=3):
        return WordVectorStore(vectors={"black": np.arange(1.0, width + 1),
                                        "women": np.full(width, 2.0),
                                        "a": np.full(width, 9.0)}, dim=width)

    def test_keeps_caller_order(self):
        resolved, messages = trainer.resolve_indicators(
            ["women", "a", "black_women", "black"], self.store(), tiny_model())
        assert list(resolved) == ["women", "a", "black_women", "black"]
        assert messages == {}

    def test_seen_name_keeps_stored_vector(self):
        model = tiny_model()
        resolved, messages = trainer.resolve_indicators(["b", "a"], self.store(), model)
        for name in ("a", "b"):
            assert resolved[name].vector.tobytes() == seen_table(model)[name].tobytes()
            assert resolved[name].tokens == tokenize_target(name)
            assert resolved[name].skipped == []
        assert messages == {}

    def test_unseen_name_built_from_store(self):
        resolved, messages = trainer.resolve_indicators(
            ["black_women", "black_men"], self.store(), tiny_model())
        np.testing.assert_array_equal(resolved["black_women"].vector, [1.5, 2.0, 2.5])
        np.testing.assert_array_equal(resolved["black_men"].vector, [1.0, 2.0, 3.0])
        assert resolved["black_men"].tokens == ["black"]
        assert resolved["black_men"].skipped == ["men"]
        assert messages == {"black_men": "target 'black_men': skipped OOV tokens ['men']"}

    def test_without_model_every_name_is_built(self):
        resolved, _ = trainer.resolve_indicators(["a"], self.store())
        np.testing.assert_array_equal(resolved["a"].vector, [9.0, 9.0, 9.0])

    def test_failure_gives_build_indicator_message(self):
        store = self.store()
        resolved, messages = trainer.resolve_indicators(
            ["martian", "women"], store, tiny_model())
        assert list(resolved) == ["women"]
        with pytest.raises(DataError) as built:
            trainer.build_indicator("martian", store)
        assert messages == {"martian": str(built.value)}

    def test_vectors_of_another_width_rejected(self):
        with pytest.raises(DataError, match="word vectors have 2 entries, "
                                            "the checkpoint's indicators 3"):
            trainer.resolve_indicators(["women"], self.store(width=2), tiny_model())
