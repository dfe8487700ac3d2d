import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_synth
from fairfilter import data
from fairfilter.data import (PostRecord, SplitSpec, SyntheticSpec, load_jsonl,
                             make_split, save_json, save_jsonl, synth_directions,
                             synth_generate, synth_indicators)
from fairfilter.errors import ConfigError, DataError, DivergenceError


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

    @pytest.mark.parametrize("entries", ['["1.5", "2"]', "[true, false]", "[0.5, true]",
                                         "[0.5, null]"])
    def test_embedding_entries_must_be_json_numbers(self, tmp_path, entries):
        # float64 conversion would read "1.5" as 1.5 and true as 1.0
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"id":"a","embedding":[0.1,0.2],"targets":["x"],"label":0}',
                        f'{{"id":"b","embedding":{entries},"targets":["x"],"label":1}}'])
        with pytest.raises(DataError, match="line 2: embedding must be a numeric array"):
            load_jsonl(p)

    def test_integer_embedding_entries_accepted(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"id":"a","embedding":[1,-2],"targets":["x"],"label":0}'])
        np.testing.assert_array_equal(load_jsonl(p)[0].embedding, [1.0, -2.0])

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


class TestSaveJson:
    def test_writes_indented_key_sorted_json(self, tmp_path):
        p = tmp_path / "r.json"
        save_json({"b": [1.5, None], "a": 1}, p)
        assert p.read_text(encoding="utf-8") == \
            '{\n  "a": 1,\n  "b": [\n    1.5,\n    null\n  ]\n}\n'

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises_divergence_and_writes_nothing(self, bad, tmp_path):
        p = tmp_path / "r.json"
        with pytest.raises(DivergenceError, match="r.json' would hold a non-finite"):
            save_json({"metadata": {"hf": [0.1, bad]}}, p)
        assert not p.exists()


def rec(rid, targets, label=0, dim=2):
    return PostRecord(id=rid, targets=tuple(targets), label=label,
                      embedding=np.zeros(dim))


class TestMembership:
    def test_name_listed_twice_rejected(self):
        # a second column for one name is a column no post can set
        with pytest.raises(ConfigError, match=r"more than once: \['a'\]"):
            data.membership([("a",)], ["a", "b", "a"])


class TestSelectRecords:
    def test_keeps_corpus_order(self):
        records = [rec(f"p{i}", ["a"]) for i in range(4)]
        picked = data.select_records(records, ["p3", "p0", "p3"], "split")
        assert [r.id for r in picked] == ["p0", "p3"]

    def test_missing_ids_named(self):
        with pytest.raises(DataError, match=r"prediction ids missing from corpus: \['q'\]"):
            data.select_records([rec("p0", ["a"])], {"p0", "q"}, "prediction")


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

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            SplitSpec(seen_targets=["a"], unseen_targets=["b"], seed=-1).validate()


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

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            small_spec(seed=-1).validate()

    @pytest.mark.parametrize("field", ["signal_scale", "bias_scale", "noise"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_scale_rejected(self, field, value):
        # nan passes both `<= 0` and `< 0`, and inf writes Infinity embeddings
        with pytest.raises(ConfigError, match="must be finite"):
            small_spec(**{field: value}).validate()

    def test_target_named_twice_rejected(self):
        # counted twice, "a" would weigh double in the post's rate and embedding
        with pytest.raises(ConfigError, match=r"more than once: \['a'\]"):
            small_spec(target_names=["a", "a", "b"]).validate()

    def test_label_rate_of_unknown_target_rejected(self):
        with pytest.raises(ConfigError, match=r"not in target_names: \['c'\]"):
            small_spec(label_rates={"a": 0.3, "b": 0.7, "c": 0.9}).validate()

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


@st.composite
def synth_specs(draw):
    n_targets = draw(st.integers(1, 5))
    names = [f"t{i}" for i in range(n_targets)]
    rate = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    return SyntheticSpec(
        n_posts=draw(st.integers(0, 40)), target_names=names,
        label_rates={t: draw(rate) for t in names},
        signal_scale=draw(st.floats(0.05, 3.0)),
        bias_scale=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 3.0)),
        noise=draw(st.just(0.0) | st.floats(0.01, 2.0)),
        dim=n_targets + 2 + draw(st.integers(0, 4)), seed=draw(st.integers(0, 2**16)))


class TestAgainstReferenceLoop:
    """`synth_generate` against the per-post loop of `reference_synth`."""

    @settings(max_examples=60, deadline=None)
    @given(spec=synth_specs())
    @example(spec=small_spec(n_posts=0))
    @example(spec=small_spec(target_names=["solo"], label_rates={"solo": 0.4}, noise=0.7))
    @example(spec=small_spec(noise=0.0, bias_scale=1.3))
    @example(spec=small_spec(noise=0.9, bias_scale=0.0))
    # two targets at bias 0.5: the second's coefficient 1 - 1.0 is 0 on label 0
    @example(spec=small_spec(n_posts=80, bias_scale=0.5, noise=0.0))
    @example(spec=small_spec(n_posts=120, target_names=list("abcd"),
                             label_rates={"a": 0.1, "b": 0.35, "c": 0.6, "d": 0.95},
                             bias_scale=2.0, noise=1.2, dim=6, seed=5))
    def test_same_records(self, spec):
        got, want = synth_generate(spec), reference_synth.synth_generate(spec)
        assert [(r.id, r.targets, r.label) for r in got] \
            == [(r.id, r.targets, r.label) for r in want]
        for g, w in zip(got, want):
            assert g.embedding.dtype == w.embedding.dtype
            assert g.embedding.shape == w.embedding.shape == (spec.dim,)
            assert g.embedding.tobytes() == w.embedding.tobytes()

    def test_save_jsonl_writes_the_float_by_float_bytes(self, tmp_path):
        records = synth_generate(small_spec(n_posts=60, bias_scale=0.5))
        records += synth_generate(small_spec(n_posts=60, noise=0.8, seed=3))
        records.append(PostRecord(id="x", targets=("a",), label=1, text="hi",
                                  embedding=np.array([-0.0, 1 / 3, 1e-300, -2.5e17])))
        records.append(PostRecord(id="y", targets=("b",), label=0, text="text only"))
        p = tmp_path / "c.jsonl"
        save_jsonl(records, p)
        assert p.read_bytes() == "".join(
            json.dumps(reference_synth.to_json(r)) + "\n" for r in records).encode("utf-8")


# SHA-256 of `save_jsonl`'s bytes for the benchmark's recipe corpora (8
# targets at rate 0.5, signal 0.8, bias 2.0, noise 1.2, dim 24, seed 1), as
# the generator wrote them before it moved its arithmetic out of the loop
BENCH_CORPUS_SHA256 = {
    5000: "20f7affdb45fe6431d377767511c9cc99f5f02435653256bd7b9dc7a00fb35bd",
    20000: "3f9f58bb2bc761c17795fc6775753c89aa346a96b7c5b3e93f5e6da7e9c3a57e",
}


@pytest.mark.parametrize("n_posts", sorted(BENCH_CORPUS_SHA256))
def test_bench_recipe_corpus_is_pinned(tmp_path, n_posts):
    targets = [f"t{i}" for i in range(8)]
    spec = SyntheticSpec(n_posts=n_posts, target_names=targets,
                         label_rates={t: 0.5 for t in targets}, signal_scale=0.8,
                         bias_scale=2.0, noise=1.2, dim=24, seed=1)
    p = tmp_path / "corpus.jsonl"
    save_jsonl(synth_generate(spec), p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == BENCH_CORPUS_SHA256[n_posts]


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
        report = build_report(scores, split.test)
        assert report.nfped >= 0.05
