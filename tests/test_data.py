import json

import numpy as np
import pytest

from fairfilter import data
from fairfilter.data import (PostRecord, SplitSpec, SyntheticSpec, load_jsonl,
                             make_split, save_jsonl, synth_directions,
                             synth_generate, synth_indicators)
from fairfilter.errors import ConfigError, DataError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestLoadJsonl:
    def test_direct_parse(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"id":"a","embedding":[0.1,0.2],"targets":["muslim"],"label":1}'])
        records = load_jsonl(p)
        assert len(records) == 1
        assert records[0].id == "a"
        assert records[0].label == 1
        assert records[0].targets == ("muslim",)
        np.testing.assert_allclose(records[0].embedding, [0.1, 0.2])

    def test_empty_target_set_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"id":"a","embedding":[0.1],"targets":[],"label":0}'])
        with pytest.raises(DataError, match="empty target set"):
            load_jsonl(p)

    def test_bad_line_identified_no_partial_corpus(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [
            '{"id":"a","embedding":[0.1],"targets":["x"],"label":0}',
            "{not json",
            '{"id":"b","embedding":[0.2],"targets":["x"],"label":1}',
        ])
        with pytest.raises(DataError, match="line 2"):
            load_jsonl(p)

    def test_duplicate_ids_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [
            '{"id":"a","embedding":[0.1],"targets":["x"],"label":0}',
            '{"id":"a","embedding":[0.2],"targets":["y"],"label":1}',
        ])
        with pytest.raises(DataError, match="duplicate id"):
            load_jsonl(p)

    def test_boolean_label_rejected(self, tmp_path):
        # True == 1 in Python, so a JSON boolean would otherwise pass as a label
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"id":"a","embedding":[0.1],"targets":["x"],"label":true}'])
        with pytest.raises(DataError, match="line 1: .*label must be 0 or 1"):
            load_jsonl(p)

    def test_missing_text_and_embedding_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"id":"a","targets":["x"],"label":0}'])
        with pytest.raises(DataError, match="neither text nor embedding"):
            load_jsonl(p)

    def test_round_trip(self, tmp_path):
        records = [PostRecord(id="a", targets=("x", "y"), label=1,
                              embedding=np.asarray([0.5, -0.25])),
                   PostRecord(id="b", targets=("x",), label=0, text="hello")]
        p = tmp_path / "c.jsonl"
        save_jsonl(records, p)
        loaded = load_jsonl(p)
        assert [r.id for r in loaded] == ["a", "b"]
        np.testing.assert_array_equal(loaded[0].embedding, records[0].embedding)
        assert loaded[1].text == "hello"


def rec(rid, targets, label=0, dim=2):
    return PostRecord(id=rid, targets=tuple(targets), label=label,
                      embedding=np.zeros(dim))


class TestMakeSplit:
    def test_unseen_target_posts_go_to_test_only(self):
        records = [rec("p1", ["muslim"]), rec("p2", ["male"]),
                   rec("p3", ["male", "white"])]
        spec = SplitSpec(seen_targets=["male"], unseen_targets=["muslim", "white"],
                         validation_fraction=0.5, balance_eval=False, seed=0)
        split = make_split(records, spec)
        trainval_ids = {r.id for r in split.train} | {r.id for r in split.validation}
        assert trainval_ids <= {"p2"}
        assert {r.id for r in split.test} == {"p1", "p3"}

    def test_balancing_trims_majority_class(self):
        records = [rec(f"h{i}", ["u"], label=1) for i in range(7)]
        records += [rec(f"n{i}", ["u"], label=0) for i in range(13)]
        records += [rec("t", ["seen"], label=0)]
        spec = SplitSpec(seen_targets=["seen"], unseen_targets=["u"],
                         validation_fraction=0.2, balance_eval=True, seed=3)
        split = make_split(records, spec)
        pos = sum(r.label for r in split.test)
        neg = len(split.test) - pos
        assert (pos, neg) == (7, 7)

    def test_near_parity_shape(self):
        # balanced eval pools end up with near-equal class counts
        rng = np.random.default_rng(0)
        records = [rec(f"r{i}", ["a"] if rng.random() < 0.8 else ["b"],
                       label=int(rng.random() < 0.3)) for i in range(400)]
        spec = SplitSpec(seen_targets=["a"], unseen_targets=["b"],
                         validation_fraction=0.25, balance_eval=True, seed=1)
        split = make_split(records, spec)
        for part in (split.validation, split.test):
            pos = sum(r.label for r in part)
            assert abs(2 * pos - len(part)) <= 1

    def test_absent_unseen_target_is_config_error(self):
        records = [rec("p1", ["male"])]
        spec = SplitSpec(seen_targets=["male"], unseen_targets=["ghost"])
        with pytest.raises(ConfigError, match="ghost"):
            make_split(records, spec)

    def test_exclusion_and_conservation(self):
        rng = np.random.default_rng(5)
        names = ["a", "b", "c", "u1", "u2"]
        records = []
        for i in range(200):
            k = int(rng.integers(1, 3))
            targets = rng.choice(names, size=k, replace=False)
            records.append(rec(f"r{i}", targets, label=int(rng.integers(0, 2))))
        spec = SplitSpec(seen_targets=["a", "b", "c"], unseen_targets=["u1", "u2"],
                         validation_fraction=0.2, balance_eval=False, seed=9)
        split = make_split(records, spec)
        for r in split.train + split.validation:
            assert not (r.target_set & {"u1", "u2"})
        total = len(split.train) + len(split.validation) + len(split.test)
        assert total == len(records)  # equality when balancing is off

    def test_overlapping_seen_unseen_rejected(self):
        with pytest.raises(ConfigError):
            SplitSpec(seen_targets=["a"], unseen_targets=["a"]).validate()


def small_spec(**kwargs):
    defaults = dict(n_posts=50, target_names=["a", "b"],
                    label_rates={"a": 0.3, "b": 0.7},
                    signal_scale=1.0, bias_scale=0.0, noise=0.0, dim=8, seed=0)
    defaults.update(kwargs)
    return SyntheticSpec(**defaults)


class TestSynthGenerate:
    def test_determinism(self):
        spec = small_spec(noise=0.5, bias_scale=1.0)
        r1 = synth_generate(spec)
        r2 = synth_generate(small_spec(noise=0.5, bias_scale=1.0))
        assert len(r1) == len(r2) == 50
        for a, b in zip(r1, r2):
            assert a.id == b.id and a.targets == b.targets and a.label == b.label
            assert a.embedding.tobytes() == b.embedding.tobytes()

    def test_noiseless_single_target_takes_two_values(self):
        spec = small_spec(n_posts=200, target_names=["solo"],
                          label_rates={"solo": 0.5})
        records = synth_generate(spec)
        unique = {r.embedding.tobytes() for r in records}
        assert len(unique) == 2
        # a linear probe along u separates the labels perfectly
        u, _ = synth_directions(spec)
        scores = np.asarray([float(r.embedding @ u) for r in records])
        labels = np.asarray([r.label for r in records])
        assert scores[labels == 1].min() > scores[labels == 0].max()

    def test_targets_per_post_between_one_and_three(self):
        spec = small_spec(n_posts=300, target_names=["a", "b", "c", "d", "e"],
                          label_rates={t: 0.5 for t in "abcde"})
        records = synth_generate(spec)
        sizes = {len(r.targets) for r in records}
        assert sizes <= {1, 2, 3}
        assert 1 in sizes

    def test_bias_plants_label_signal_ramped_across_targets(self):
        # with beta > 0 the target-direction components carry the label,
        # strongly for the last-listed target and not at all for the first
        spec = small_spec(n_posts=4000, bias_scale=2.0, noise=0.2, seed=4)
        records = synth_generate(spec)
        _, directions = synth_directions(spec)
        labels = np.asarray([r.label for r in records])

        def separation(target):
            comp = np.asarray([float(r.embedding @ directions[target])
                               for r in records if target in r.targets])
            sub = labels[[i for i, r in enumerate(records) if target in r.targets]]
            return comp[sub == 1].mean() - comp[sub == 0].mean()

        assert separation("b") > 1.0
        assert separation("b") > separation("a") + 1.0

    def test_invalid_rates_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(label_rates={"a": 0.0, "b": 0.5}).validate()

    def test_target_recovery_unaffected_by_bias(self):
        # the label-free residual identifies mentioned targets whether or
        # not the label is coupled to the target directions
        for bias in (0.0, 2.0):
            spec = small_spec(n_posts=600, target_names=list("abcd"),
                              label_rates={t: 0.5 for t in "abcd"},
                              bias_scale=bias, noise=0.4, seed=8)
            records = synth_generate(spec)
            u, directions = synth_directions(spec)
            for t in "abcd":
                comps = []
                for r in records:
                    residual = r.embedding - spec.signal_scale * r.label * u
                    comps.append((float(residual @ directions[t]),
                                  t in r.targets))
                with_t = np.mean([c for c, m in comps if m])
                without_t = np.mean([c for c, m in comps if not m])
                assert with_t > without_t + 0.1


class TestPlantedDisparity:
    def test_undebiased_classifier_shows_fpr_disparity(self):
        # with strong target-label coupling, a classifier trained with all
        # debiasing terms off leans on the leakage and its false-positive
        # rates spread across targets
        from fairfilter.trainer import TrainConfig, fit
        from fairfilter.metrics import build_report

        targets = [f"t{i}" for i in range(8)]
        rates = dict(zip(targets, [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9]))
        spec = SyntheticSpec(n_posts=5000, target_names=targets,
                             label_rates=rates, signal_scale=0.6,
                             bias_scale=2.0, noise=1.4, dim=24, seed=11)
        records = synth_generate(spec)
        split = make_split(records, SplitSpec(
            seen_targets=targets[:6], unseen_targets=targets[6:],
            validation_fraction=0.15, balance_eval=True, seed=1))
        config = TrainConfig(lam=0.0, gamma=0.0, mu=0.0, rank=1, depth=1,
                             hidden_dim=24, hyper_hidden=8, head_hidden=16,
                             batch_size=128, max_rounds=4, patience=4,
                             seed=0, lr=1e-3, lr_dis=3e-3)
        state = fit(config, split, synth_indicators(spec))
        scores = state.model.predict(split.test, synth_indicators(spec))
        report = build_report({r.id: float(s) for r, s in
                               zip(split.test, scores)}, split.test)
        assert report.nfped >= 0.05
