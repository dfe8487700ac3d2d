import json

import numpy as np
import pytest
from click.testing import CliRunner

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

    def test_bad_spec_exits_2(self, tmp_path, runner):
        spec = tmp_path / "synth.cfg"
        spec.write_text("synth.n_posts = 10\n")
        res = runner.invoke(main, ["synth", str(spec), "-o", str(tmp_path / "c")])
        assert res.exit_code == 2
        assert "synth.targets" in res.stderr


class TestTrain:
    def test_outputs_present(self, workspace):
        run = workspace / "run"
        for name in ("checkpoint.npz", "training_log.csv", "history.json",
                     "split_manifest.json", "manifest.json"):
            assert (run / name).exists(), name

    def test_split_manifest_excludes_unseen_from_train(self, workspace):
        manifest = json.loads((workspace / "run" / "split_manifest.json").read_text())
        records = {r.id: r for r in load_jsonl(workspace / "corpus.jsonl")}
        for rid in manifest["train"] + manifest["validation"]:
            assert "gamma" not in records[rid].targets
        assert any("gamma" in records[rid].targets for rid in manifest["test"])

    def test_history_epoch_count(self, workspace):
        history = json.loads((workspace / "run" / "history.json").read_text())
        # 1 round x (1 dis + 1 filter epoch)
        assert len(history["epochs"]) == 2
        assert len(history["validation"]) == 1

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


def narrow_vectors(ws):
    lines = (ws / "vectors.txt").read_text().splitlines()
    path = ws / "narrow.txt"
    path.write_text("".join(line.rsplit(" ", 1)[0] + "\n" for line in lines))
    return path


def text_file(ws, name, text):
    path = ws / name
    path.write_text(text)
    return path


def non_finite_vectors(ws):
    """The vectors with every entry of the unseen target's token set to nan."""
    lines = []
    for line in (ws / "vectors.txt").read_text().splitlines():
        token, *entries = line.split(" ")
        if token == "gamma":
            line = " ".join([token] + ["nan"] * len(entries))
        lines.append(line + "\n")
    return text_file(ws, "nan.txt", "".join(lines))


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
    "checkpoint-truncated": (5, lambda ws: eval_args(
        ws, checkpoint=truncated_checkpoint(ws))),
    "checkpoint-rank-0": (5, lambda ws: eval_args(ws, checkpoint=edit_checkpoint(
        ws, lambda meta: meta["config"].update(rank=0)))),
    "checkpoint-threshold-2": (5, lambda ws: eval_args(ws, checkpoint=edit_checkpoint(
        ws, lambda meta: meta["config"].update(threshold=2.0)))),
    "eval-non-finite-unseen-vector": (3, lambda ws: eval_args(
        ws, vectors=non_finite_vectors(ws))),
    "eval-split-manifest-not-json": (3, lambda ws: eval_args(
        ws, split_manifest=text_file(ws, "s.json", "{not json"))),
    "eval-split-manifest-ids-not-a-list": (3, lambda ws: eval_args(
        ws, split_manifest=text_file(ws, "s.json", '{"test": 5}'))),
    "metrics-non-numeric-score": (3, lambda ws: metrics_args(
        ws, "id,score,label\ns000,high,1\n")),
    "metrics-threshold-2": (2, lambda ws: metrics_args(
        ws, "id,score,label\ns000,0.5,1\n", "--threshold", "2.0")),
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
        flat = np.stack([thetas[name][0].data for name in sorted(thetas)])
        got = loss_reg(indicators, [ad.constant(flat @ flat.T)]).item()
        assert got == pytest.approx(expected, rel=1e-9)

    def test_unknown_target_exits_3(self, workspace, runner):
        res = runner.invoke(main, [
            "export-filters", str(workspace / "run" / "checkpoint.npz"),
            str(workspace / "vectors.txt"), "martian",
            "-o", str(workspace / "f.json")])
        assert res.exit_code == 3
