import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from strict_json import strict_load
from fairfilter.cli import main
from fairfilter.data import load_jsonl
from fairfilter.objectives import loss_reg
from fairfilter import autodiff as ad


SYNTH_SPEC = """
synth.targets = alpha, beta, gamma
synth.label_rate.alpha = 0.35
synth.label_rate.beta = 0.5
synth.label_rate.gamma = 0.65
synth.n_posts = 160
synth.bias_scale = 1.5
synth.noise = 0.3
synth.dim = 8
synth.seed = 7
"""

TRAIN_CFG = """
train.hidden_dim = 8
train.hyper_hidden = 4
train.head_hidden = 4
train.batch_size = 32
train.max_rounds = 1
train.n_dis = 1
train.n_filter = 1
train.seed = 1
split.unseen_targets = gamma
split.validation_fraction = 0.2
split.seed = 2
"""


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workspace(tmp_path, runner):
    """Synthetic corpus + word vectors + a one-round training run."""
    spec = tmp_path / "synth.cfg"
    spec.write_text(SYNTH_SPEC)
    corpus = tmp_path / "corpus.jsonl"
    vectors = tmp_path / "vectors.txt"
    res = runner.invoke(main, ["synth", str(spec), "-o", str(corpus),
                               "--vectors-out", str(vectors)])
    assert res.exit_code == 0, res.output
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG)
    outdir = tmp_path / "run"
    res = runner.invoke(main, ["train", str(cfg), str(corpus), str(vectors),
                               "-o", str(outdir)])
    assert res.exit_code == 0, res.output
    return tmp_path


class TestSynth:
    def test_writes_corpus_vectors_and_manifest(self, tmp_path, runner):
        spec = tmp_path / "synth.cfg"
        spec.write_text(SYNTH_SPEC)
        corpus = tmp_path / "c.jsonl"
        vectors = tmp_path / "v.txt"
        res = runner.invoke(main, ["synth", str(spec), "-o", str(corpus),
                                   "--vectors-out", str(vectors)])
        assert res.exit_code == 0, res.output
        records = load_jsonl(corpus)
        assert len(records) == 160
        assert {t for r in records for t in r.targets} == {"alpha", "beta", "gamma"}
        manifest = json.loads((tmp_path / "c.jsonl.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert str(spec) in manifest["inputs"]
        assert vectors.exists()

    def test_rerun_is_byte_identical(self, tmp_path, runner):
        spec = tmp_path / "synth.cfg"
        spec.write_text(SYNTH_SPEC)
        blobs = []
        for name in ("c1.jsonl", "c2.jsonl"):
            out = tmp_path / name
            res = runner.invoke(main, ["synth", str(spec), "-o", str(out)])
            assert res.exit_code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_output_is_pinned(self, tmp_path, runner):
        # SHA-256 of SYNTH_SPEC's corpus and vectors as the generator wrote
        # them before it moved its arithmetic out of the per-post loop
        spec = tmp_path / "synth.cfg"
        spec.write_text(SYNTH_SPEC)
        corpus, vectors = tmp_path / "c.jsonl", tmp_path / "v.txt"
        res = runner.invoke(main, ["synth", str(spec), "-o", str(corpus),
                                   "--vectors-out", str(vectors)])
        assert res.exit_code == 0, res.output
        assert hashlib.sha256(corpus.read_bytes()).hexdigest() \
            == "7280cd8f7f48398c9eeec68899a6239f35e527ec85d52e8adb47fb0627ff979b"
        assert hashlib.sha256(vectors.read_bytes()).hexdigest() \
            == "137fbfbc75ab10cfee91e3ffaad0e7408af8b334da08ea538494916bf4cda0ba"

    def test_bad_spec_exits_2(self, tmp_path, runner):
        spec = tmp_path / "synth.cfg"
        spec.write_text("synth.n_posts = 10\n")
        res = runner.invoke(main, ["synth", str(spec), "-o", str(tmp_path / "c")])
        assert res.exit_code == 2
        assert "synth.targets" in res.stderr


    @pytest.mark.parametrize("line", ["synth.noise = inf", "synth.signal_scale = inf",
                                      "synth.bias_scale = nan"])
    def test_non_finite_scale_exits_2_before_writing(self, tmp_path, runner, line):
        spec = text_file(tmp_path, "s.cfg", with_line(SYNTH_SPEC, line))
        res = runner.invoke(main, ["synth", str(spec), "-o", str(tmp_path / "c.jsonl"),
                                   "--vectors-out", str(tmp_path / "v.txt")])
        assert res.exit_code == 2, res.output
        assert "must be finite" in res.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.cfg"]


class TestTrain:
    def test_outputs_present(self, workspace):
        run = workspace / "run"
        assert sorted(p.name for p in run.iterdir()) == [
            "checkpoint.npz", "events.jsonl", "manifest.json", "split_manifest.json"]
        assert strict_load(run / "manifest.json")["outputs"] == [
            str(run / name) for name in ("checkpoint.npz", "events.jsonl",
                                         "split_manifest.json")]

    def test_split_manifest_excludes_unseen_from_train(self, workspace):
        manifest = json.loads((workspace / "run" / "split_manifest.json").read_text())
        records = {r.id: r for r in load_jsonl(workspace / "corpus.jsonl")}
        for rid in manifest["train"] + manifest["validation"]:
            assert "gamma" not in records[rid].targets
        assert any("gamma" in records[rid].targets for rid in manifest["test"])

    def test_history_epoch_count(self, workspace):
        events = strict_load(workspace / "run" / "events.jsonl")
        kinds = [e["event"] for e in events]
        # 1 round x (1 dis + 1 filter epoch)
        assert kinds.count("epoch") == 2
        assert kinds.count("validation") == 1
        assert kinds[-1] == "best"

    def test_corrupt_corpus_exits_3(self, workspace, runner, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        res = runner.invoke(main, ["train", str(workspace / "train.cfg"),
                                   str(bad), str(workspace / "vectors.txt"),
                                   "-o", str(tmp_path / "r")])
        assert res.exit_code == 3

    def test_boolean_label_exits_3(self, workspace, runner, tmp_path):
        bad = tmp_path / "bool.jsonl"
        bad.write_text('{"id": "p0", "targets": ["alpha"], "label": true, '
                       '"embedding": [0.1, 0.2]}\n')
        res = runner.invoke(main, ["train", str(workspace / "train.cfg"),
                                   str(bad), str(workspace / "vectors.txt"),
                                   "-o", str(tmp_path / "r")])
        assert res.exit_code == 3
        assert "label must be 0 or 1" in res.stderr

    def test_vectors_with_trailing_whitespace_accepted(self, workspace, runner,
                                                       tmp_path):
        padded = tmp_path / "padded.txt"
        lines = (workspace / "vectors.txt").read_text().splitlines()
        padded.write_text("".join(line + " \t\n" for line in lines))
        res = runner.invoke(main, ["train", str(workspace / "train.cfg"),
                                   str(workspace / "corpus.jsonl"), str(padded),
                                   "-o", str(tmp_path / "r")])
        assert res.exit_code == 0, res.output

    def test_bad_config_exits_2(self, workspace, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("train.lambda = -1\nsplit.unseen_targets = gamma\n")
        res = runner.invoke(main, ["train", str(cfg),
                                   str(workspace / "corpus.jsonl"),
                                   str(workspace / "vectors.txt"),
                                   "-o", str(tmp_path / "r")])
        assert res.exit_code == 2


class TestStrictJson:
    """Every JSON file a command writes parses with NaN and Infinity refused."""

    def test_every_json_output_is_strict(self, workspace, runner):
        ws = workspace
        commands = [eval_args(ws), ["metrics", str(ws / "e" / "predictions.csv"),
                                    str(ws / "corpus.jsonl"), "-o", str(ws / "m.json")],
                    ["export-filters", str(ws / "run" / "checkpoint.npz"),
                     str(ws / "vectors.txt"), "alpha", "gamma", "-o", str(ws / "f.json")]]
        for args in commands:
            res = runner.invoke(main, args)
            assert res.exit_code == 0, res.output
        written = {p.relative_to(ws).as_posix() for p in ws.rglob("*")
                   if p.suffix in (".json", ".jsonl")}
        assert written == {
            "corpus.jsonl", "corpus.jsonl.manifest.json", "run/manifest.json",
            "run/split_manifest.json", "run/events.jsonl", "e/manifest.json",
            "e/report.json", "m.json", "m.json.manifest.json", "f.json",
            "f.json.manifest.json"}
        for name in sorted(written):
            assert strict_load(ws / name), name

    def test_train_without_validation_posts_is_strict(self, tmp_path, runner):
        # of 40 posts one is drawn for validation, and balancing its classes drops it
        spec = text_file(tmp_path, "s.cfg", with_line(SYNTH_SPEC, "synth.n_posts = 40"))
        cfg = text_file(tmp_path, "t.cfg",
                        with_line(TRAIN_CFG, "split.validation_fraction = 0.05"))
        corpus, vectors, run = tmp_path / "c.jsonl", tmp_path / "v.txt", tmp_path / "run"
        for args in (["synth", str(spec), "-o", str(corpus), "--vectors-out", str(vectors)],
                     ["train", str(cfg), str(corpus), str(vectors), "-o", str(run)]):
            res = runner.invoke(main, args)
            assert res.exit_code == 0, res.output
        assert strict_load(run / "split_manifest.json")["validation"] == []
        events = strict_load(run / "events.jsonl")
        assert "validation" not in [e["event"] for e in events]
        assert events[-1] == {"event": "best", "round": 0, "composite": None}
        assert strict_load(run / "manifest.json")["command"] == "train"


class TestEval:
    def test_eval_on_test_split_writes_report(self, workspace, runner):
        out = workspace / "eval"
        res = runner.invoke(main, [
            "eval", str(workspace / "run" / "checkpoint.npz"),
            str(workspace / "corpus.jsonl"), str(workspace / "vectors.txt"),
            "-o", str(out),
            "--split-manifest", str(workspace / "run" / "split_manifest.json"),
            "--split", "test"])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "report.json").read_text())
        for key in ("accuracy", "f1", "nfped", "nfned", "hf", "per_target"):
            assert key in report
        # the test split contains the held-out target, scored zero-shot
        assert "gamma" in report["per_target"]
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        assert lines[0] == "id,score,label"
        manifest = json.loads((workspace / "run" / "split_manifest.json").read_text())
        assert len(lines) - 1 == len(manifest["test"])

    def test_split_without_manifest_is_recorded_as_none(self, workspace, runner):
        out = workspace / "eval"
        res = runner.invoke(main, [
            "eval", str(workspace / "run" / "checkpoint.npz"),
            str(workspace / "corpus.jsonl"), str(workspace / "vectors.txt"),
            "-o", str(out), "--split", "validation"])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "report.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        # the whole corpus was scored, so no split was used
        assert report["metadata"]["n_records"] == 160
        assert report["metadata"]["split"] is None
        assert manifest["config"]["split"] is None

    def test_unknown_split_exits_2(self, workspace, runner):
        res = runner.invoke(main, [
            "eval", str(workspace / "run" / "checkpoint.npz"),
            str(workspace / "corpus.jsonl"), str(workspace / "vectors.txt"),
            "-o", str(workspace / "e2"),
            "--split-manifest", str(workspace / "run" / "split_manifest.json"),
            "--split", "holdout"])
        assert res.exit_code == 2

    def test_unreadable_checkpoint_exits_5(self, workspace, runner, tmp_path):
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"garbage")
        res = runner.invoke(main, [
            "eval", str(junk), str(workspace / "corpus.jsonl"),
            str(workspace / "vectors.txt"), "-o", str(tmp_path / "e")])
        assert res.exit_code == 5


def edit_checkpoint(ws, edit_meta=None, raw_meta=None):
    """A copy of the trained checkpoint with its header edited or replaced."""
    archive = dict(np.load(ws / "run" / "checkpoint.npz", allow_pickle=False))
    meta = json.loads(str(archive["__meta__"]))
    if edit_meta is not None:
        edit_meta(meta)
    archive["__meta__"] = np.array(raw_meta if raw_meta is not None else json.dumps(meta))
    path = ws / "edited.npz"
    with open(path, "wb") as fh:
        np.savez(fh, **archive)
    return path


def short_indicator_checkpoint(ws):
    """A copy of the trained checkpoint with one entry cut from an indicator."""
    archive = dict(np.load(ws / "run" / "checkpoint.npz", allow_pickle=False))
    archive["indicator/alpha"] = archive["indicator/alpha"][:-1]
    path = ws / "short.npz"
    with open(path, "wb") as fh:
        np.savez(fh, **archive)
    return path


def filled_checkpoint(ws, key, value):
    """A copy of the trained checkpoint with entry 0 of array `key` set to `value`."""
    archive = dict(np.load(ws / "run" / "checkpoint.npz", allow_pickle=False))
    archive[key] = archive[key].copy()
    archive[key].flat[0] = value
    path = ws / "filled.npz"
    with open(path, "wb") as fh:
        np.savez(fh, **archive)
    return path


def truncated_checkpoint(ws):
    blob = (ws / "run" / "checkpoint.npz").read_bytes()
    path = ws / "truncated.npz"
    path.write_bytes(blob[:len(blob) // 2])
    return path


def mixed_width_corpus(ws):
    lines = (ws / "corpus.jsonl").read_text().splitlines()
    record = json.loads(lines[5])
    record["embedding"] = record["embedding"][:-1]
    lines[5] = json.dumps(record)
    path = ws / "mixed.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def edited_corpus(ws, name, edit):
    """The corpus with `edit` applied to each post's JSON object."""
    lines = []
    for line in (ws / "corpus.jsonl").read_text().splitlines():
        record = json.loads(line)
        edit(record)
        lines.append(json.dumps(record) + "\n")
    return text_file(ws, name, "".join(lines))


def text_only_corpus(ws):
    """The corpus with each post's embedding replaced by text."""
    def edit(record):
        record.pop("embedding")
        record["text"] = "a post"

    return edited_corpus(ws, "text.jsonl", edit)


def narrow_vectors(ws):
    lines = (ws / "vectors.txt").read_text().splitlines()
    path = ws / "narrow.txt"
    path.write_text("".join(line.rsplit(" ", 1)[0] + "\n" for line in lines))
    return path


def text_file(ws, name, text):
    path = ws / name
    path.write_text(text)
    return path


def filled_vectors(ws, target, entry):
    """The vectors with every entry of `target`'s token set to `entry`."""
    lines = []
    for line in (ws / "vectors.txt").read_text().splitlines():
        token, *entries = line.split(" ")
        if token == target:
            line = " ".join([token] + [entry] * len(entries))
        lines.append(line + "\n")
    return text_file(ws, f"{target}-{entry}.txt", "".join(lines))


def non_utf8(path):
    """A copy of `path` with a last line holding the byte 0xff."""
    copy = path.with_name("bad-" + path.name)
    copy.write_bytes(path.read_bytes() + b"\xff\n")
    return copy


def train_args(ws, config, vectors=None):
    return ["train", str(config), str(ws / "corpus.jsonl"),
            str(vectors or ws / "vectors.txt"), "-o", str(ws / "r")]


def with_line(text, line):
    """`text` with `line` in place of the line that sets the same key, or
    appended if none does; appending a key already set would be a duplicate."""
    key = line.split("=")[0].strip()
    kept = [old for old in text.splitlines() if old.split("=")[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


def train_cfg_args(ws, line):
    return train_args(ws, text_file(ws, "t.cfg", with_line(TRAIN_CFG, line)))


def eval_args(ws, checkpoint=None, corpus=None, vectors=None, split_manifest=None):
    args = ["eval", str(checkpoint or ws / "run" / "checkpoint.npz"),
            str(corpus or ws / "corpus.jsonl"), str(vectors or ws / "vectors.txt"),
            "-o", str(ws / "e")]
    return args + (["--split-manifest", str(split_manifest)] if split_manifest else [])


def metrics_args(ws, predictions, *extra):
    return ["metrics", str(text_file(ws, "p.csv", predictions)),
            str(ws / "corpus.jsonl"), "-o", str(ws / "m.json"), *extra]


MALFORMED_INPUTS = {
    "train-mixed-embedding-widths": (3, lambda ws: [
        "train", str(ws / "train.cfg"), str(mixed_width_corpus(ws)),
        str(ws / "vectors.txt"), "-o", str(ws / "r")]),
    "train-corpus-without-embeddings": (3, lambda ws: [
        "train", str(ws / "train.cfg"), str(text_only_corpus(ws)),
        str(ws / "vectors.txt"), "-o", str(ws / "r")]),
    "train-empty-embeddings": (3, lambda ws: [
        "train", str(ws / "train.cfg"),
        str(edited_corpus(ws, "empty.jsonl", lambda r: r.update(embedding=[]))),
        str(ws / "vectors.txt"), "-o", str(ws / "r")]),
    "eval-mixed-embedding-widths": (3, lambda ws: eval_args(
        ws, corpus=mixed_width_corpus(ws))),
    "eval-vectors-narrower-than-indicators": (3, lambda ws: eval_args(
        ws, vectors=narrow_vectors(ws))),
    "export-vectors-narrower-than-indicators": (3, lambda ws: [
        "export-filters", str(ws / "run" / "checkpoint.npz"),
        str(narrow_vectors(ws)), "gamma", "-o", str(ws / "f.json")]),
    "checkpoint-unknown-config-key": (5, lambda ws: eval_args(ws, checkpoint=edit_checkpoint(
        ws, lambda meta: meta["config"].update(dropout=0.5)))),
    "checkpoint-without-seen-targets": (5, lambda ws: eval_args(ws, checkpoint=edit_checkpoint(
        ws, lambda meta: meta.pop("seen_targets")))),
    "checkpoint-corrupt-meta": (5, lambda ws: eval_args(ws, checkpoint=edit_checkpoint(
        ws, raw_meta="{not json"))),
    "checkpoint-short-indicator": (5, lambda ws: eval_args(
        ws, checkpoint=short_indicator_checkpoint(ws))),
    "export-checkpoint-short-indicator": (5, lambda ws: [
        "export-filters", str(short_indicator_checkpoint(ws)), str(ws / "vectors.txt"),
        "gamma", "-o", str(ws / "f.json")]),
    "checkpoint-nan-weight": (5, lambda ws: eval_args(
        ws, checkpoint=filled_checkpoint(ws, "param/hate/W0", np.nan))),
    "checkpoint-inf-indicator": (5, lambda ws: eval_args(
        ws, checkpoint=filled_checkpoint(ws, "indicator/alpha", np.inf))),
    "export-checkpoint-inf-indicator": (5, lambda ws: [
        "export-filters", str(filled_checkpoint(ws, "indicator/alpha", np.inf)),
        str(ws / "vectors.txt"), "gamma", "-o", str(ws / "f.json")]),
    "checkpoint-repeated-seen-target": (5, lambda ws: eval_args(ws, checkpoint=edit_checkpoint(
        ws, lambda meta: meta["seen_targets"].append(meta["seen_targets"][0])))),
    "checkpoint-truncated": (5, lambda ws: eval_args(
        ws, checkpoint=truncated_checkpoint(ws))),
    "checkpoint-rank-0": (5, lambda ws: eval_args(ws, checkpoint=edit_checkpoint(
        ws, lambda meta: meta["config"].update(rank=0)))),
    "checkpoint-threshold-2": (5, lambda ws: eval_args(ws, checkpoint=edit_checkpoint(
        ws, lambda meta: meta["config"].update(threshold=2.0)))),
    "eval-non-finite-unseen-vector": (3, lambda ws: eval_args(
        ws, vectors=filled_vectors(ws, "gamma", "nan"))),
    "train-zero-seen-vector": (3, lambda ws: train_args(
        ws, ws / "train.cfg", vectors=filled_vectors(ws, "alpha", "0"))),
    "export-zero-unseen-vector": (3, lambda ws: [
        "export-filters", str(ws / "run" / "checkpoint.npz"),
        str(filled_vectors(ws, "gamma", "0")), "gamma", "-o", str(ws / "f.json")]),
    "eval-split-manifest-not-json": (3, lambda ws: eval_args(
        ws, split_manifest=text_file(ws, "s.json", "{not json"))),
    "eval-split-manifest-ids-not-a-list": (3, lambda ws: eval_args(
        ws, split_manifest=text_file(ws, "s.json", '{"test": 5}'))),
    "metrics-non-numeric-score": (3, lambda ws: metrics_args(
        ws, "id,score,label\ns000,high,1\n")),
    "metrics-threshold-2": (2, lambda ws: metrics_args(
        ws, "id,score,label\ns000,0.5,1\n", "--threshold", "2.0")),
    "metrics-duplicate-id": (3, lambda ws: metrics_args(
        ws, "id,score,label\ns000,0.9,1\ns000,0.1,1\n")),
    "metrics-nan-score": (3, lambda ws: metrics_args(
        ws, "id,score,label\ns000,nan,1\n")),
    "metrics-inf-score": (3, lambda ws: metrics_args(
        ws, "id,score,label\ns000,0.5,1\ns001,inf,0\n")),
    "metrics-non-utf8-predictions": (3, lambda ws: [
        "metrics", str(non_utf8(text_file(ws, "p.csv", "id,score,label\ns000,0.5,1\n"))),
        str(ws / "corpus.jsonl"), "-o", str(ws / "m.json")]),
    "eval-non-utf8-corpus": (3, lambda ws: eval_args(
        ws, corpus=non_utf8(ws / "corpus.jsonl"))),
    "eval-non-utf8-vectors": (3, lambda ws: eval_args(
        ws, vectors=non_utf8(ws / "vectors.txt"))),
    "train-non-utf8-config": (2, lambda ws: train_args(ws, non_utf8(ws / "train.cfg"))),
    "train-misspelt-section": (2, lambda ws: train_args(
        ws, text_file(ws, "t.cfg", TRAIN_CFG + "trian.lr = 5\n"))),
    "train-key-without-section": (2, lambda ws: train_args(
        ws, text_file(ws, "t.cfg", TRAIN_CFG + "lr = 7\n"))),
    "train-seed-negative": (2, lambda ws: train_cfg_args(ws, "train.seed = -1")),
    "train-split-seed-negative": (2, lambda ws: train_cfg_args(ws, "split.seed = -1")),
    "train-hidden-width-0": (2, lambda ws: train_cfg_args(ws, "train.hyper_hidden = 0")),
    "train-adapter-depth-0": (2, lambda ws: train_cfg_args(ws, "train.adapter_depth = 0")),
    "train-patience-negative": (2, lambda ws: train_cfg_args(ws, "train.patience = -1")),
    "checkpoint-adapter-depth-0": (5, lambda ws: eval_args(ws, checkpoint=edit_checkpoint(
        ws, lambda meta: meta["config"].update(adapter_depth=0)))),
    "synth-seed-negative": (2, lambda ws: [
        "synth", str(text_file(ws, "s.cfg", with_line(SYNTH_SPEC, "synth.seed = -1"))),
        "-o", str(ws / "c.jsonl")]),
    "synth-key-of-another-section": (2, lambda ws: [
        "synth", str(text_file(ws, "s.cfg", SYNTH_SPEC + "train.lr = 5\n")),
        "-o", str(ws / "c.jsonl")]),
    "synth-target-named-twice": (2, lambda ws: [
        "synth", str(text_file(ws, "s.cfg", with_line(
            SYNTH_SPEC, "synth.targets = alpha, alpha, beta, gamma"))),
        "-o", str(ws / "c.jsonl")]),
    "synth-label-rate-of-unknown-target": (2, lambda ws: [
        "synth", str(text_file(ws, "s.cfg", SYNTH_SPEC + "synth.label_rate.delta = 0.9\n")),
        "-o", str(ws / "c.jsonl")]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exit_code(workspace, runner, case):
    code, build_args = MALFORMED_INPUTS[case]
    res = runner.invoke(main, build_args(workspace))
    # an uncaught exception would leave res.exception set to it, not SystemExit
    assert isinstance(res.exception, SystemExit), res.exc_info
    assert res.exit_code == code, res.output
    assert "Traceback" not in res.output
    assert res.stderr.startswith(("error:", "I/O error:"))


class TestMetricsReplay:
    def test_replayed_metrics_match_eval_report(self, workspace, runner):
        out = workspace / "eval"
        res = runner.invoke(main, [
            "eval", str(workspace / "run" / "checkpoint.npz"),
            str(workspace / "corpus.jsonl"), str(workspace / "vectors.txt"),
            "-o", str(out)])
        assert res.exit_code == 0, res.output
        replay = workspace / "replay.json"
        res = runner.invoke(main, ["metrics", str(out / "predictions.csv"),
                                   str(workspace / "corpus.jsonl"),
                                   "-o", str(replay)])
        assert res.exit_code == 0, res.output
        original = json.loads((out / "report.json").read_text())
        replayed = json.loads(replay.read_text())
        for key in ("accuracy", "f1", "auc", "nfped", "nfned", "hf",
                    "per_target", "excluded_fpr", "excluded_fnr"):
            assert replayed[key] == original[key], key

    def test_threshold_changes_decisions_not_scores(self, workspace, runner):
        out = workspace / "eval"
        runner.invoke(main, [
            "eval", str(workspace / "run" / "checkpoint.npz"),
            str(workspace / "corpus.jsonl"), str(workspace / "vectors.txt"),
            "-o", str(out)])
        reports = {}
        for thr in ("0.3", "0.7"):
            path = workspace / f"replay{thr}.json"
            res = runner.invoke(main, ["metrics", str(out / "predictions.csv"),
                                       str(workspace / "corpus.jsonl"),
                                       "-o", str(path), "--threshold", thr])
            assert res.exit_code == 0
            reports[thr] = json.loads(path.read_text())
        assert reports["0.3"]["auc"] == reports["0.7"]["auc"]
        assert reports["0.3"]["accuracy"] != reports["0.7"]["accuracy"]

    def test_non_csv_predictions_exit_3(self, workspace, runner, tmp_path):
        bad = tmp_path / "p.csv"
        bad.write_text("foo,bar\n1,2\n")
        res = runner.invoke(main, ["metrics", str(bad),
                                   str(workspace / "corpus.jsonl"),
                                   "-o", str(tmp_path / "r.json")])
        assert res.exit_code == 3


class TestExportFilters:
    def test_export_covers_seen_and_unseen(self, workspace, runner):
        out = workspace / "filters.json"
        res = runner.invoke(main, [
            "export-filters", str(workspace / "run" / "checkpoint.npz"),
            str(workspace / "vectors.txt"), "alpha", "gamma",
            "-o", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads(out.read_text())
        by_name = {e["name"]: e for e in payload["filters"]}
        assert by_name["alpha"]["seen_in_training"] is True
        assert by_name["gamma"]["seen_in_training"] is False
        d = payload["hidden_dim"]
        assert len(by_name["alpha"]["theta"][0]) == d * (d + 1)

    def test_exported_cosines_consistent_with_alignment_loss(self, workspace, runner):
        out = workspace / "filters.json"
        res = runner.invoke(main, [
            "export-filters", str(workspace / "run" / "checkpoint.npz"),
            str(workspace / "vectors.txt"), "alpha", "beta",
            "-o", str(out)])
        assert res.exit_code == 0
        payload = json.loads(out.read_text())
        indicators, thetas = {}, {}
        for entry in payload["filters"]:
            indicators[entry["name"]] = np.asarray(entry["indicator"])
            thetas[entry["name"]] = [ad.constant(np.asarray(layer))
                                     for layer in entry["theta"]]
        # recompute the pairwise gap loss from the exported artifacts

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        ind_cos = cos(indicators["alpha"], indicators["beta"])
        th_cos = cos(np.asarray(thetas["alpha"][0].data),
                     np.asarray(thetas["beta"][0].data))
        expected = (th_cos - ind_cos) ** 2
        names = sorted(thetas)
        flat = np.stack([thetas[name][0].data for name in names])
        got = loss_reg(np.stack([indicators[name] for name in names]),
                       [ad.constant(flat @ flat.T)]).item()
        assert got == pytest.approx(expected, rel=1e-9)

    def test_unknown_target_exits_3(self, workspace, runner):
        res = runner.invoke(main, [
            "export-filters", str(workspace / "run" / "checkpoint.npz"),
            str(workspace / "vectors.txt"), "martian",
            "-o", str(workspace / "f.json")])
        assert res.exit_code == 3


def test_skipped_token_reported_by_train_eval_and_export(tmp_path, runner):
    # 'black_women' is the unseen target, and its token 'women' has no vector
    spec = tmp_path / "synth.cfg"
    spec.write_text(SYNTH_SPEC.replace("gamma", "black_women"))
    corpus, full = tmp_path / "corpus.jsonl", tmp_path / "full.txt"
    res = runner.invoke(main, ["synth", str(spec), "-o", str(corpus),
                               "--vectors-out", str(full)])
    assert res.exit_code == 0, res.output
    vectors = text_file(tmp_path, "vectors.txt", "".join(
        line + "\n" for line in full.read_text().splitlines()
        if not line.startswith("women ")))
    warning = "target 'black_women': skipped OOV tokens ['women']"

    cfg = text_file(tmp_path, "train.cfg", TRAIN_CFG.replace("gamma", "black_women"))
    res = runner.invoke(main, ["train", str(cfg), str(corpus), str(vectors),
                               "-o", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    assert f"warning: {warning}" in res.stderr.splitlines()
    assert json.loads((tmp_path / "run" / "manifest.json").read_text())["warnings"] \
        == [warning]

    checkpoint = tmp_path / "run" / "checkpoint.npz"
    res = runner.invoke(main, ["eval", str(checkpoint), str(corpus), str(vectors),
                               "-o", str(tmp_path / "eval")])
    assert res.exit_code == 0, res.output
    assert f"warning: {warning}" in res.stderr.splitlines()
    assert json.loads((tmp_path / "eval" / "manifest.json").read_text())["warnings"] \
        == [warning]

    out = tmp_path / "filters.json"
    res = runner.invoke(main, ["export-filters", str(checkpoint), str(vectors),
                               "black_women", "alpha", "-o", str(out)])
    assert res.exit_code == 0, res.output
    entries = {e["name"]: e for e in json.loads(out.read_text())["filters"]}
    assert entries["black_women"]["skipped_tokens"] == ["women"]
    assert entries["black_women"]["tokens"] == ["black"]
    assert entries["alpha"]["skipped_tokens"] == []
