import pytest

from fairfilter import config as cfg
from fairfilter.errors import ConfigError


def parse(tmp_path, text):
    p = tmp_path / "c.cfg"
    p.write_text(text)
    return cfg.parse_kv_file(p)


class TestParseKvFile:
    def test_basic_sections_comments_blank_lines(self, tmp_path):
        kv = parse(tmp_path, """
# a comment
train.lambda = 0.9

split.unseen_targets = women, muslim  # trailing comment
""")
        assert kv == {"train.lambda": "0.9",
                      "split.unseen_targets": "women, muslim"}

    def test_malformed_line_is_located(self, tmp_path):
        with pytest.raises(ConfigError, match=":2:"):
            parse(tmp_path, "train.mu = 1\nnot an assignment\n")

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse(tmp_path, "train.mu = 1\ntrain.mu = 2\n")

    def test_empty_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="empty key"):
            parse(tmp_path, " = 3\n")


class TestTrainConfigFrom:
    def test_defaults_when_unset(self):
        tc = cfg.train_config_from({})
        assert tc.lam == 0.9 and tc.gamma == 3.0 and tc.mu == 0.9
        assert tc.rank == 1 and tc.n_dis == 1 and tc.n_filter == 5

    def test_overrides_and_types(self):
        tc = cfg.train_config_from({"train.lambda": "0.5", "train.rank": "5",
                                    "train.batch_size": "64"})
        assert tc.lam == 0.5 and tc.rank == 5 and tc.batch_size == 64

    def test_unparseable_value_rejected(self):
        with pytest.raises(ConfigError, match="train.rank"):
            cfg.train_config_from({"train.rank": "one"})

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigError):
            cfg.train_config_from({"train.lambda": "-1"})


# each reader with its section's mandatory keys already set
READERS = {
    "train": cfg.train_config_from,
    "split": lambda kv: cfg.split_spec_from({"split.unseen_targets": "b", **kv},
                                            {"a", "b"}),
    "synth": lambda kv: cfg.synth_spec_from({"synth.targets": "a",
                                             "synth.label_rate.a": "0.3", **kv}),
}


@pytest.mark.parametrize("key", ["train.bogus", "train.lam", "split.sed",
                                 "split.validation_fracton", "synth.bias",
                                 "synth.label_rate"])
def test_unknown_key_rejected(key):
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        READERS[key.split(".")[0]]({key: "1"})


class TestSplitSpecFrom:
    def test_seen_is_corpus_minus_unseen(self):
        spec = cfg.split_spec_from({"split.unseen_targets": "b, c"},
                                   {"a", "b", "c", "d"})
        assert spec.seen_targets == ["a", "d"]
        assert spec.unseen_targets == ["b", "c"]
        assert spec.validation_fraction == 0.15
        assert spec.balance_eval is True

    def test_missing_unseen_key_rejected(self):
        with pytest.raises(ConfigError, match="unseen_targets"):
            cfg.split_spec_from({}, {"a"})

    def test_bool_parsing(self):
        spec = cfg.split_spec_from({"split.unseen_targets": "b",
                                    "split.balance_eval": "no"}, {"a", "b"})
        assert spec.balance_eval is False
        with pytest.raises(ConfigError):
            cfg.split_spec_from({"split.unseen_targets": "b",
                                 "split.balance_eval": "maybe"}, {"a", "b"})


class TestSynthSpecFrom:
    def test_full_spec(self):
        spec = cfg.synth_spec_from({
            "synth.targets": "a, b",
            "synth.label_rate.a": "0.3",
            "synth.label_rate.b": "0.6",
            "synth.n_posts": "500",
            "synth.bias_scale": "2.0",
            "synth.dim": "16",
        })
        assert spec.target_names == ["a", "b"]
        assert spec.label_rates == {"a": 0.3, "b": 0.6}
        assert spec.n_posts == 500 and spec.dim == 16 and spec.bias_scale == 2.0

    def test_missing_targets_rejected(self):
        with pytest.raises(ConfigError, match="synth.targets"):
            cfg.synth_spec_from({"synth.n_posts": "10"})
