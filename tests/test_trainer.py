import numpy as np
import pytest

from fairfilter import autodiff as ad
from fairfilter import trainer
from fairfilter.data import CorpusSplit, PostRecord
from fairfilter.embeddings import WordVectorStore
from fairfilter.errors import CheckpointError, ConfigError, DivergenceError
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


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(lam=-0.1), dict(rank=0), dict(batch_size=0), dict(lr=0.0),
        dict(max_rounds=0), dict(threshold=1.0), dict(lam=float("nan")),
        dict(lr=float("inf")), dict(mu=float("inf")),
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            tiny_config(**kwargs).validate()

    def test_defaults_valid(self):
        TrainConfig().validate()


class TestModel:
    def test_multi_hot_follows_seen_target_order(self):
        model = tiny_model(targets=("a", "b", "c"))
        records = [PostRecord(id="x", targets=("c", "a"), label=0,
                              embedding=np.zeros(4))]
        np.testing.assert_array_equal(model.multi_hot(records), [[1, 0, 1]])

    def test_missing_indicator_rejected(self):
        with pytest.raises(ConfigError, match="ghost"):
            Model(tiny_config(), d_in=4, indicator_dim=3,
                  seen_targets=["a", "ghost"], indicators=tiny_indicators(("a",)))

    def test_filter_batch_keeps_input_order(self):
        model = tiny_model()
        records = tiny_records(10)
        s, s_tilde, _ = model.filter_batch(records)
        assert s.data.shape == s_tilde.data.shape == (10, 8)
        for i, record in enumerate(records):
            s_one, s_tilde_one, _ = model.filter_batch([record])
            np.testing.assert_allclose(s.data[i], s_one.data[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(s_tilde.data[i], s_tilde_one.data[0],
                                       rtol=0, atol=1e-12)

    def test_filter_batch_builds_no_dense_filter(self):
        d = 64
        model = tiny_model(tiny_config(hidden_dim=d, depth=2, rank=2),
                           targets=("a", "b", "c"))
        _, s_tilde, _ = model.filter_batch(tiny_records(12, targets=("a", "b", "c")))
        seen, stack, shapes = set(), [s_tilde], []
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
        _, s_tilde, _ = model.filter_batch(records)
        assert len({row.tobytes() for row in s_tilde.data}) == 1

    def test_predict_is_order_equivariant(self):
        model = tiny_model()
        records = tiny_records(15)
        ind = model.indicators
        fwd = model.predict(records, ind)
        rev = model.predict(records[::-1], ind)
        np.testing.assert_array_equal(fwd, rev[::-1])


class TestPhases:
    def test_filter_phase_leaves_discriminator_bit_identical(self):
        model = tiny_model()
        state = trainer.TrainState(model=model, adam={
            k: ad.AdamState() for k in model.groups})
        before = model.discriminator.group.state_dict()
        trainer.phase_filter(state, tiny_records(20), epochs=2,
                             rng=np.random.default_rng(0))
        after = model.discriminator.group.state_dict()
        for k in before:
            assert before[k].tobytes() == after[k].tobytes()

    def test_dis_phase_leaves_filter_side_bit_identical(self):
        model = tiny_model()
        state = trainer.TrainState(model=model, adam={
            k: ad.AdamState() for k in model.groups})
        before = {n: model.groups[n].state_dict() for n in ("enc", "hyper", "hate")}
        trainer.phase_discriminator(state, tiny_records(20), epochs=2,
                                    rng=np.random.default_rng(0))
        for n, saved in before.items():
            after = model.groups[n].state_dict()
            for k in saved:
                assert saved[k].tobytes() == after[k].tobytes()

    def test_phases_actually_move_their_own_parameters(self):
        model = tiny_model()
        state = trainer.TrainState(model=model, adam={
            k: ad.AdamState() for k in model.groups})
        before = model.discriminator.group.state_dict()
        trainer.phase_discriminator(state, tiny_records(20), epochs=1,
                                    rng=np.random.default_rng(0))
        moved = any(not np.array_equal(before[k],
                                       model.discriminator.group.tensors[k].data)
                    for k in before)
        assert moved

    def test_non_finite_loss_raises_divergence(self):
        model = tiny_model()
        state = trainer.TrainState(model=model, adam={
            k: ad.AdamState() for k in model.groups})
        # a poisoned readout weight sends the classifier logits non-finite
        model.classifier.group.tensors["W2"].data[:] = np.nan
        with pytest.raises(DivergenceError, match="batch"):
            trainer.phase_filter(state, tiny_records(8), epochs=1,
                                 rng=np.random.default_rng(0))


class TestFit:
    def test_history_bookkeeping(self):
        cfg = tiny_config(max_rounds=2, n_dis=1, n_filter=2)
        state = trainer.fit(cfg, tiny_split(), tiny_indicators())
        # 2 rounds x (1 dis epoch + 2 filter epochs)
        assert len(state.history) == 2 * 3
        phases = [h["phase"] for h in state.history]
        assert phases == ["dis", "filter", "filter"] * 2
        assert len(state.val_history) == 2
        assert state.best_round in (0, 1)

    def test_determinism(self):
        s1 = trainer.fit(tiny_config(), tiny_split(), tiny_indicators())
        s2 = trainer.fit(tiny_config(), tiny_split(), tiny_indicators())
        for name, group in s1.model.groups.items():
            other = s2.model.groups[name]
            for k, t in group.tensors.items():
                assert t.data.tobytes() == other.tensors[k].data.tobytes()
        assert s1.history == s2.history

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

    def test_telemetry_csv(self, tmp_path):
        state = trainer.fit(tiny_config(max_rounds=1), tiny_split(),
                            tiny_indicators())
        path = tmp_path / "log.csv"
        trainer.write_telemetry(state, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,phase,l_hate,l_dis,l_reg,l_imi,synergic"
        assert len(lines) == 1 + len(state.telemetry)


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
        a = state.model.predict(records, state.model.indicators)
        b = loaded.predict(records, loaded.indicators)
        assert a.tobytes() == b.tobytes()

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
