"""End-to-end acceptance suite: one test per release criterion.

Each test prints a single PASS line (uncaptured) with its headline numbers;
a missing line means the criterion failed. Scales, seeds, and tolerances
are pinned so the suite is a deterministic gate.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

import gradcheck
from fairfilter import autodiff as ad
from fairfilter import hyperfilter as hf
from fairfilter import objectives as obj
from fairfilter.cli import main as cli_main
from fairfilter.data import (PostRecord, SplitSpec, SyntheticSpec, make_split,
                             synth_generate, synth_indicators)
from fairfilter.metrics import build_report, harmonic_fairness
from fairfilter import trainer
from fairfilter.trainer import TrainConfig, fit


@pytest.fixture()
def announce(capsys):
    def emit(line):
        with capsys.disabled():
            print(line, flush=True)
    return emit


def test_gradient_suite_matches_finite_differences(announce):
    """All five losses, every parameter coordinate, 20 independent draws."""
    t0 = time.time()
    worst = 0.0
    for i in range(20):
        model, records = gradcheck.smooth_case(i, d=16, rank=2, depth=2,
                                               n_targets=4)
        worst = max(worst, gradcheck.fd_check_all(model, records,
                                                  eps=1e-5, rel_tol=1e-4))
    elapsed = time.time() - t0
    assert worst < 1e-4
    assert elapsed < 120.0
    announce(f"[1/9] gradient suite: PASS "
             f"(20 draws, worst rel err {worst:.2e}, {elapsed:.0f}s)")


def brute_force_fairness(predictions, records, threshold=0.5):
    """Straight-from-the-definitions oracle for nFPED, nFNED, and HF."""
    targets = sorted({t for r in records for t in r.targets})

    def rates(subset):
        fp = sum(1 for r in subset if r.label == 0 and predictions[r.id] > threshold)
        fn = sum(1 for r in subset if r.label == 1 and predictions[r.id] <= threshold)
        neg = sum(1 for r in subset if r.label == 0)
        pos = sum(1 for r in subset if r.label == 1)
        return (fp / neg if neg else None), (fn / pos if pos else None)

    o_fpr, o_fnr = rates(records)
    fpr_devs, fnr_devs = [], []
    for t in targets:
        t_fpr, t_fnr = rates([r for r in records if t in r.targets])
        if t_fpr is not None and o_fpr is not None:
            fpr_devs.append(abs(o_fpr - t_fpr))
        if t_fnr is not None and o_fnr is not None:
            fnr_devs.append(abs(o_fnr - t_fnr))
    nfped = sum(fpr_devs) / len(fpr_devs) if fpr_devs else 0.0
    nfned = sum(fnr_devs) / len(fnr_devs) if fnr_devs else 0.0
    hf_val = 0.0 if (nfped == 0.0 or nfned == 0.0) \
        else 2.0 * nfped * nfned / (nfped + nfned)
    return nfped, nfned, hf_val


def test_metric_oracle_brute_force(announce):
    t0 = time.time()
    rng = np.random.default_rng(123)
    targets = [f"g{i}" for i in range(8)]
    records = []
    for i in range(1000):
        k = int(rng.integers(1, 4))
        chosen = sorted(rng.choice(8, size=k, replace=False).tolist())
        records.append(PostRecord(id=f"p{i}",
                                  targets=tuple(targets[j] for j in chosen),
                                  label=int(rng.integers(0, 2)),
                                  embedding=np.zeros(1)))
    predictions = {r.id: float(rng.random()) for r in records}
    report = build_report(predictions, records)
    nfped, nfned, hf_val = brute_force_fairness(predictions, records)
    assert abs(report.nfped - nfped) < 1e-12
    assert abs(report.nfned - nfned) < 1e-12
    assert abs(report.hf - hf_val) < 1e-12
    elapsed = time.time() - t0
    assert elapsed < 5.0
    announce(f"[2/9] metric oracle: PASS "
             f"(1000 predictions, 8 targets, agree to 1e-12, {elapsed:.2f}s)")


def test_harmonic_fairness_reference_rows(announce):
    cases = [((0.0028, 0.0087), 0.0042), ((0.0019, 0.0124), 0.0033)]
    for (a, b), expected in cases:
        assert abs(harmonic_fairness(a, b) - expected) <= 0.00005
    announce("[3/9] HF reference rows: PASS "
             "(0.0042 and 0.0033 within 0.00005)")


def test_ensemble_laws(announce):
    rng = np.random.default_rng(7)
    hyper = hf.HyperFilter(d=10, rank=2, depth=2, indicator_dim=5, rng=rng,
                           hidden=8)
    inds = {f"t{i}": rng.normal(size=5) for i in range(4)}
    s = ad.constant(rng.normal(size=(6, 10)))

    def filtered(table, target_sets):
        factors, mix = hf.ensemble_params(hyper, table, target_sets)
        return hf.apply_filter(s, factors, mix).data

    sets = [{"t0", "t2"}, {"t1"}, set(inds), {"t3", "t1"}, {"t0"}, {"t2", "t3"}]
    forward = filtered(inds, sets)
    shuffled = {k: inds[k] for k in reversed(list(inds))}
    backward = filtered(shuffled, sets)
    np.testing.assert_allclose(forward, backward, rtol=0, atol=1e-15)

    # duplicate indicator content under a second name changes nothing
    single = filtered({"t0": inds["t0"]}, [{"t0"}] * 6)
    doubled = filtered({"t0": inds["t0"], "alias": inds["t0"].copy()},
                       [{"t0", "alias"}] * 6)
    np.testing.assert_allclose(single, doubled, rtol=0, atol=1e-15)

    # a singleton set is filtered by its own target's filter, exactly, also
    # when the table holds other targets
    solo = hf.apply_filter(s, hf.target_theta(hyper, inds["t0"].reshape(1, -1)),
                           np.ones((6, 1))).data
    assert np.array_equal(single, solo)
    assert np.array_equal(filtered(inds, [{"t0"}] * 6), solo)
    announce("[4/9] ensemble laws: PASS "
             "(permutation/duplicate to 1e-15, singleton exact)")


def test_parameter_count_law(announce):
    assert hf.factor_arity(256, 1) == 514
    assert hf.dense_arity(256) == 65792
    for d in (16, 64, 256):
        for rank in (1, 5):
            assert hf.factor_arity(d, rank) == rank * rank + 2 * d * rank + rank
            assert hf.factor_arity(d, rank) < hf.dense_arity(d)
    announce("[5/9] parameter-count law: PASS "
             "(514 generated vs 65792 dense at d=256, K=1)")


def test_freeze_semantics_across_full_fit(announce, monkeypatch):
    """Phase boundaries never leak updates into the frozen groups."""
    spec = SyntheticSpec(n_posts=200, target_names=["a", "b", "c"],
                         label_rates={"a": 0.4, "b": 0.5, "c": 0.6},
                         bias_scale=1.0, noise=0.5, dim=8, seed=3)
    records = synth_generate(spec)
    split = make_split(records, SplitSpec(seen_targets=["a", "b"],
                                          unseen_targets=["c"],
                                          validation_fraction=0.2, seed=0))
    inds = synth_indicators(spec)

    def snapshot(model, names):
        return {n: {k: t.data.tobytes() for k, t in model.groups[n].tensors.items()}
                for n in names}

    boundaries = {"dis": 0, "filter": 0}
    orig_dis, orig_filter = trainer.phase_discriminator, trainer.phase_filter

    def checked_dis(state, recs, epochs, rng):
        before = snapshot(state.model, ("enc", "hyper", "hate"))
        orig_dis(state, recs, epochs, rng)
        assert snapshot(state.model, ("enc", "hyper", "hate")) == before
        boundaries["dis"] += 1

    def checked_filter(state, recs, epochs, rng):
        before = snapshot(state.model, ("dis",))
        orig_filter(state, recs, epochs, rng)
        assert snapshot(state.model, ("dis",)) == before
        boundaries["filter"] += 1

    monkeypatch.setattr(trainer, "phase_discriminator", checked_dis)
    monkeypatch.setattr(trainer, "phase_filter", checked_filter)
    config = TrainConfig(hidden_dim=8, hyper_hidden=8, head_hidden=4,
                         batch_size=32, max_rounds=3, patience=3, seed=0)
    fit(config, split, inds)
    assert boundaries["dis"] == boundaries["filter"] == 3
    announce(f"[6/9] freeze semantics: PASS "
             f"(byte-identical at {sum(boundaries.values())} phase boundaries)")


DESK_TARGETS = [f"t{i}" for i in range(8)]


def desk_world():
    spec = SyntheticSpec(n_posts=5000, target_names=DESK_TARGETS,
                         label_rates={t: 0.5 for t in DESK_TARGETS},
                         signal_scale=0.8, bias_scale=2.0, noise=1.2,
                         dim=24, seed=11)
    records = synth_generate(spec)
    split = make_split(records, SplitSpec(seen_targets=DESK_TARGETS[:6],
                                          unseen_targets=DESK_TARGETS[6:],
                                          validation_fraction=0.15,
                                          balance_eval=True, seed=1))
    return split, synth_indicators(spec)


def desk_run(split, indicators, lam, gamma, mu, seed):
    config = TrainConfig(lam=lam, gamma=gamma, mu=mu, rank=1, depth=1,
                         hidden_dim=48, hyper_hidden=32, head_hidden=48,
                         batch_size=128, n_dis=1, n_filter=5, max_rounds=30,
                         patience=5, lr=1e-3, lr_dis=3e-3, seed=seed)
    state = fit(config, split, indicators)
    scores = state.model.predict(split.test, indicators)
    return build_report({r.id: float(s) for r, s in zip(split.test, scores)},
                        split.test)


def test_desk_scale_debiasing_experiment(announce):
    """Filtered training beats the no-debias ablation on harmonic fairness."""
    t0 = time.time()
    split, indicators = desk_world()

    debiased = desk_run(split, indicators, 0.9, 3.0, 0.9, seed=0)
    ablation = desk_run(split, indicators, 0.0, 0.0, 0.0, seed=0)
    assert ablation.hf > 0.0
    pinned_ratio = debiased.hf / ablation.hf
    assert pinned_ratio <= 0.7
    assert debiased.accuracy >= ablation.accuracy - 0.05

    # unseen targets are filtered zero-shot; their deviations must be finite
    overall_fpr = ablation_fpr = None
    unseen_lines = []
    for report in (debiased, ablation):
        for t in DESK_TARGETS[6:]:
            assert t in report.per_target
            stats = report.per_target[t]
            assert np.isfinite(stats["fpr"]) and np.isfinite(stats["fnr"])
    for t in DESK_TARGETS[6:]:
        stats = debiased.per_target[t]
        unseen_lines.append(f"{t}: fpr={stats['fpr']:.3f} fnr={stats['fnr']:.3f}")

    alt_ratios = []
    for seed in (1, 2, 3):
        alt_g = desk_run(split, indicators, 0.9, 3.0, 0.9, seed=seed)
        alt_b = desk_run(split, indicators, 0.0, 0.0, 0.0, seed=seed)
        assert alt_b.hf > 0.0
        alt_ratios.append(alt_g.hf / alt_b.hf)
    assert all(r <= 0.9 for r in alt_ratios)

    elapsed = time.time() - t0
    assert elapsed < 600.0
    announce(f"[7/9] desk-scale experiment: PASS "
             f"(HF {debiased.hf:.4f} vs {ablation.hf:.4f}, "
             f"ratio {pinned_ratio:.2f}, accuracy {debiased.accuracy:.3f} vs "
             f"{ablation.accuracy:.3f}, alternates "
             f"{', '.join(f'{r:.2f}' for r in alt_ratios)}, "
             f"unseen [{'; '.join(unseen_lines)}], {elapsed:.0f}s)")


def test_alignment_only_training(announce):
    """Gap-alignment loss alone is optimizable to near zero, and the
    resulting filter-parameter cosines mirror the indicator cosines."""
    rng = np.random.default_rng(42)
    indicators = {f"t{i}": rng.normal(size=6) for i in range(5)}
    hyper = hf.HyperFilter(d=8, rank=2, depth=1, indicator_dim=6, rng=rng,
                           hidden=16)
    adam = ad.AdamState(lr=1e-2)

    names = sorted(indicators)
    stacked = np.stack([indicators[t] for t in names])

    def current_loss():
        return obj.loss_reg(indicators, hf.filter_gram(hf.target_theta(hyper, stacked)))

    initial = current_loss().item()
    for _ in range(2000):
        loss = current_loss()
        ad.backward(loss)
        ad.adam_step(hyper.group, adam)
    final = current_loss().item()
    assert final < 1e-3 * initial

    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    flat = hf.assemble_theta(hf.target_theta(hyper, stacked)[0]).data.reshape(
        len(names), -1)
    worst = 0.0
    for i, a in enumerate(names):
        for j, b in enumerate(names[i + 1:], start=i + 1):
            gap = abs(cos(flat[i], flat[j]) - cos(indicators[a], indicators[b]))
            worst = max(worst, gap)
    assert worst < 0.05
    announce(f"[8/9] alignment-only training: PASS "
             f"(loss {initial:.2e} -> {final:.2e}, worst cosine gap {worst:.4f})")


CLI_SYNTH_SPEC = """
synth.targets = alpha, beta, gamma
synth.label_rate.alpha = 0.35
synth.label_rate.beta = 0.5
synth.label_rate.gamma = 0.65
synth.n_posts = 240
synth.bias_scale = 1.5
synth.noise = 0.3
synth.dim = 8
synth.seed = 7
"""

CLI_TRAIN_CFG = """
train.hidden_dim = 8
train.hyper_hidden = 4
train.head_hidden = 4
train.batch_size = 32
train.max_rounds = 2
train.seed = 1
split.unseen_targets = gamma
split.validation_fraction = 0.2
split.seed = 2
"""


def test_cli_smoke_pipeline(announce, tmp_path):
    t0 = time.time()
    runner = CliRunner()
    spec = tmp_path / "synth.cfg"
    spec.write_text(CLI_SYNTH_SPEC)
    corpus = tmp_path / "corpus.jsonl"
    vectors = tmp_path / "vectors.txt"
    res = runner.invoke(cli_main, ["synth", str(spec), "-o", str(corpus),
                                   "--vectors-out", str(vectors)])
    assert res.exit_code == 0, res.output

    cfg = tmp_path / "train.cfg"
    cfg.write_text(CLI_TRAIN_CFG)
    run_dir = tmp_path / "run"
    res = runner.invoke(cli_main, ["train", str(cfg), str(corpus),
                                   str(vectors), "-o", str(run_dir)])
    assert res.exit_code == 0, res.output

    eval_dir = tmp_path / "eval"
    res = runner.invoke(cli_main, [
        "eval", str(run_dir / "checkpoint.npz"), str(corpus), str(vectors),
        "-o", str(eval_dir),
        "--split-manifest", str(run_dir / "split_manifest.json"),
        "--split", "test"])
    assert res.exit_code == 0, res.output
    report = json.loads((eval_dir / "report.json").read_text())

    # internal consistency: stored HF equals the harmonic mean of its inputs
    expected_hf = harmonic_fairness(report["nfped"], report["nfned"])
    assert abs(report["hf"] - expected_hf) < 1e-15

    replay = tmp_path / "replay.json"
    res = runner.invoke(cli_main, ["metrics", str(eval_dir / "predictions.csv"),
                                   str(corpus), "-o", str(replay)])
    assert res.exit_code == 0, res.output
    replayed = json.loads(replay.read_text())

    # byte-equal replay of every metric field (metadata records provenance
    # and differs by construction)
    strip = ["metadata"]
    original_bytes = json.dumps(
        {k: v for k, v in report.items() if k not in strip}, sort_keys=True)
    replayed_bytes = json.dumps(
        {k: v for k, v in replayed.items() if k not in strip}, sort_keys=True)
    assert original_bytes == replayed_bytes

    elapsed = time.time() - t0
    assert elapsed < 180.0
    announce(f"[9/9] CLI smoke: PASS "
             f"(synth/train/eval/metrics replay consistent, {elapsed:.0f}s)")
