"""The parts of the package that the benchmark reads still hold.

`bench/run.py` patches every `(name, owner, attribute, workloads)` entry of
its SPANS list for a traced run. The script is read as source here, never
imported or run, and each `owner.attribute` is resolved on the `fairfilter`
package, so a renamed method fails Tier-1 rather than a traced bench run.
A tiny fit and a tiny `eval`, traced by bench/spans.py's `Tracer`, must fire
every span tagged for the train and the score workloads respectively.

`bench/oracle.py` re-scores posts from the checkpoint layout alone; it is
loaded by file path and must agree with `Model.predict`. The train workloads
read every `LOSS_KEYS` key from each `TrainState.telemetry` row.
"""

import ast
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from click.testing import CliRunner

from fairfilter import cli, data, trainer
from fairfilter.data import CorpusSplit, PostRecord
from fairfilter.embeddings import load_word_vectors, save_word_vectors, tokenize_target
from fairfilter.trainer import (LOSS_KEYS, Model, TrainConfig, checkpoint_load,
                                checkpoint_save, eval_indicators, fit)

BENCH = Path(__file__).resolve().parent.parent / "bench"
RUN = BENCH / "run.py"


TREE = ast.parse(RUN.read_text(encoding="utf-8"))


def assigned(name: str) -> ast.expr:
    """The expression bound to `name` at the module level of run.py."""
    for node in TREE.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)):
            return node.value
    raise AssertionError(f"no {name} in {RUN}")


def workload_names(node: ast.expr) -> tuple[str, ...]:
    """The workloads a SPANS tag names: a tuple literal, a module-level name
    bound to one, or a sum of those (EVERY = TRAIN + SCORE)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return workload_names(node.left) + workload_names(node.right)
    if isinstance(node, ast.Name):
        return workload_names(assigned(node.id))
    return ast.literal_eval(node)


# (span name, owner expression, attribute, workloads) for every SPANS entry
ENTRIES = [(ast.literal_eval(name), ast.unparse(owner), ast.literal_eval(attr),
            workload_names(where))
           for name, owner, attr, where in (entry.elts for entry in assigned("SPANS").elts)]


def resolve(owner: str):
    """An owner expression such as `trainer.Model`, resolved on the package."""
    module, *path = owner.split(".")
    obj = importlib.import_module(f"fairfilter.{module}")
    for part in path:
        obj = getattr(obj, part)
    return obj


def test_span_list_is_found():
    assert len(ENTRIES) >= 20


@pytest.mark.parametrize("name,owner,attr", [e[:3] for e in ENTRIES],
                         ids=[e[0] for e in ENTRIES])
def test_span_target_exists(name, owner, attr):
    assert callable(getattr(resolve(owner), attr, None)), f"span {name}: {owner}.{attr} is gone"


def bench_module(monkeypatch, name: str):
    """bench/<name>.py, loaded by file path without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def oracle_scorer(monkeypatch):
    """`OracleScorer` from bench/oracle.py."""
    return bench_module(monkeypatch, "oracle").OracleScorer


def draw_bench_weights(model: Model, seed: int) -> None:
    """Parameters drawn as the score workload's `seeded_model` draws them:
    normal, standard deviation 1/sqrt(fan_in) for matrices and 0.1 for
    vectors, with the hypernetwork's output layer scaled by 3."""
    rng = np.random.default_rng(seed)
    for gname, group in model.groups.items():
        state = {}
        for key, tensor in group.tensors.items():
            shape = tensor.data.shape
            scale = 1.0 / math.sqrt(shape[0]) if len(shape) == 2 else 0.1
            if gname == "hyper" and key.endswith(".W1"):
                scale *= 3.0
            state[key] = rng.normal(scale=scale, size=shape)
        group.load_state_dict(state)


def test_oracle_agrees_with_predict(tmp_path, oracle_scorer):
    # unit word vectors, as the bench's synthetic indicators are: with the
    # bench's weight draw, larger indicators saturate the scores at this depth
    rng = np.random.default_rng(5)
    vectors = {t: rng.normal(size=5) for t in ("t0", "t1", "t2", "new", "group")}
    save_word_vectors({t: v / np.linalg.norm(v) for t, v in vectors.items()},
                      tmp_path / "vectors.txt")
    store = load_word_vectors(tmp_path / "vectors.txt")
    config = TrainConfig(hidden_dim=8, rank=2, depth=2, adapter_depth=2,
                         hyper_hidden=8, head_hidden=8, seed=0)
    model = Model(config, d_in=6, indicator_dim=5, seen_targets=["t2", "t0", "t1"],
                  indicators={t: store.vectors[t] for t in ("t0", "t1", "t2")})
    draw_bench_weights(model, seed=0)
    checkpoint_save(model, tmp_path / "checkpoint.npz")

    kinds = {"single seen": ("t1",), "multi seen": ("t2", "t0"),
             "unseen": ("new_group",), "unseen plus seen": ("new_group", "t1")}
    records = [PostRecord(id=kind, targets=targets, label=0, embedding=rng.normal(size=6))
               for kind, targets in kinds.items() for _ in range(3)]
    loaded = checkpoint_load(tmp_path / "checkpoint.npz")
    indicators, usable, warnings = eval_indicators(loaded, records, store)
    assert len(usable) == len(records) and not warnings
    scores = loaded.predict(records, indicators)
    assert np.all((scores > 0.01) & (scores < 0.99)) and np.ptp(scores) > 0.1
    oracle = oracle_scorer(tmp_path / "checkpoint.npz", tmp_path / "vectors.txt")
    for record, score in zip(records, scores):
        assert abs(oracle.score(record.embedding, record.targets) - score) <= 1e-9, record.id


def test_fit_telemetry_rows_carry_every_loss_key():
    rng = np.random.default_rng(0)
    records = [PostRecord(id=f"p{i}", targets=(("a",), ("b",), ("a", "b"))[i % 3],
                          label=i % 2, embedding=rng.normal(size=4)) for i in range(30)]
    config = TrainConfig(hidden_dim=8, hyper_hidden=4, head_hidden=4, batch_size=8,
                         n_dis=1, n_filter=1, max_rounds=2, patience=2)
    state = fit(config, CorpusSplit(train=records[:24], validation=records[24:], test=[]),
                {t: rng.normal(size=3) for t in ("a", "b")})
    assert state.global_step == len(state.telemetry) == 2 * 2 * 3
    assert {row["phase"] for row in state.telemetry} == {"dis", "filter"}
    for row in state.telemetry:
        assert {"step", "phase", *LOSS_KEYS} <= row.keys()
    assert [row["step"] for row in state.telemetry] == list(range(1, 13))


def fired_spans(tracer_class, run) -> set[str]:
    """Names of the SPANS entries that fire while `run()` runs."""
    tracer = tracer_class()
    try:
        for name, owner, attr, _ in ENTRIES:
            tracer.patch(name, resolve(owner), attr)
        run()
    finally:
        tracer.restore()
    return set(tracer.summary())


def test_every_span_fires_on_its_workloads(tmp_path, monkeypatch):
    # the package is called through module attributes only, so that every
    # patched function is the one called
    tracer_class = bench_module(monkeypatch, "spans").Tracer
    targets = ["t0", "t1", "t2", "t3"]
    spec = data.SyntheticSpec(n_posts=120, target_names=targets,
                              label_rates={t: 0.5 for t in targets},
                              bias_scale=1.0, noise=0.5, dim=6, seed=3)
    config = trainer.TrainConfig(hidden_dim=8, hyper_hidden=4, head_hidden=4,
                                 batch_size=32, n_dis=1, n_filter=1, max_rounds=1)
    checkpoint = tmp_path / "checkpoint.npz"

    def train():
        split = data.make_split(data.synth_generate(spec), data.SplitSpec(
            seen_targets=targets[:3], unseen_targets=targets[3:],
            validation_fraction=0.2))
        assert split.validation
        state = trainer.fit(config, split, data.synth_indicators(spec))
        trainer.checkpoint_save(state.model, checkpoint)

    def score():
        data.save_jsonl(data.synth_generate(spec), tmp_path / "corpus.jsonl")
        indicators = data.synth_indicators(spec)
        save_word_vectors({tok: indicators[t] for t in targets for tok in tokenize_target(t)},
                          tmp_path / "vectors.txt")
        res = CliRunner().invoke(cli.main, [
            "eval", str(checkpoint), str(tmp_path / "corpus.jsonl"),
            str(tmp_path / "vectors.txt"), "-o", str(tmp_path / "eval")])
        assert res.exit_code == 0, res.output

    fired = {"TRAIN": fired_spans(tracer_class, train),
             "SCORE": fired_spans(tracer_class, score)}
    for tag, spans in fired.items():
        tagged = set(workload_names(assigned(tag)))
        silent = [name for name, _, _, where in ENTRIES
                  if tagged & set(where) and name not in spans]
        assert silent == [], f"spans tagged for {tag} that never fired: {silent}"
