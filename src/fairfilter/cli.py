"""Command-line surface: synth, train, eval, export-filters, metrics.

Every command is deterministic under (inputs, seed) and writes a manifest
with input digests so runs can be reproduced byte for byte. Exit codes:
0 ok, 2 config, 3 data, 4 numeric divergence, 5 I/O.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import hyperfilter as hfilt
from .config import parse_kv_file, split_spec_from, synth_spec_from, train_config_from
from .data import (load_jsonl, make_split, save_jsonl, synth_generate,
                   synth_indicators)
from .embeddings import build_indicator, load_word_vectors, save_word_vectors, tokenize_target
from .errors import ConfigError, DataError, FairFilterError
from .metrics import build_report
from .trainer import (check_vector_width, checkpoint_load, checkpoint_save,
                      eval_indicators, fit, write_telemetry)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(path, command: str, config: dict, inputs: list, outputs: list,
                    seed: int | None = None, warnings: list | None = None) -> None:
    manifest = {
        "tool": "fairfilter",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "warnings": warnings or [],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _exits(fn):
    """Map package exceptions onto the documented exit-code taxonomy."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except FairFilterError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)
        except OSError as exc:
            click.echo(f"I/O error: {exc}", err=True)
            sys.exit(5)

    return wrapper


@click.group()
@click.version_option(__version__)
def main():
    """Target-aware debiasing filters for hate-speech classifiers."""


@main.command()
@click.argument("spec_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", required=True, type=click.Path(dir_okay=False),
              help="Output corpus (JSONL).")
@click.option("--vectors-out", type=click.Path(dir_okay=False),
              help="Also write a word-vector file with one indicator vector "
                   "per target token.")
@_exits
def synth(spec_file, out, vectors_out):
    """Generate a synthetic corpus with planted target-label correlations."""
    spec = synth_spec_from(parse_kv_file(spec_file))
    records = synth_generate(spec)
    if spec.n_posts == 0:
        click.echo("warning: n_posts = 0, writing an empty corpus", err=True)
    save_jsonl(records, out)
    outputs = [out]
    if vectors_out:
        indicators = synth_indicators(spec)
        vectors = {}
        for name in spec.target_names:
            for token in tokenize_target(name):
                vectors[token] = indicators[name]
        save_word_vectors(vectors, vectors_out)
        outputs.append(vectors_out)
    manifest_path = str(out) + ".manifest.json"
    _write_manifest(manifest_path, "synth",
                    {"spec": {k: v for k, v in sorted(vars(spec).items())}},
                    [spec_file], outputs, seed=spec.seed)
    click.echo(f"wrote {len(records)} posts to {out}")


@main.command()
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("corpus", type=click.Path(exists=True, dir_okay=False))
@click.argument("vectors", type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", "-o", required=True, type=click.Path(file_okay=False))
@_exits
def train(config_file, corpus, vectors, out_dir):
    """Train the debiasing pipeline on a corpus and write the best checkpoint."""
    kv = parse_kv_file(config_file)
    config = train_config_from(kv)
    records = load_jsonl(corpus)
    if not records:
        raise DataError(f"corpus '{corpus}' is empty")
    corpus_targets = {t for r in records for t in r.targets}
    split_spec = split_spec_from(kv, corpus_targets)
    split = make_split(records, split_spec)
    store = load_word_vectors(vectors)
    indicators = {}
    for name in sorted(corpus_targets):
        indicators[name] = build_indicator(name, store).vector

    state = fit(config, split, indicators)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "checkpoint.npz"
    checkpoint_save(state.model, ckpt)
    write_telemetry(state, out / "training_log.csv")
    with open(out / "history.json", "w", encoding="utf-8") as fh:
        json.dump({"epochs": state.history, "validation": state.val_history,
                   "best_round": state.best_round,
                   "best_composite": state.best_composite},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "split_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(split.manifest(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out / "manifest.json", "train",
                    {"train": vars(config), "split": vars(split_spec)},
                    [config_file, corpus, vectors],
                    [ckpt, out / "training_log.csv", out / "history.json",
                     out / "split_manifest.json"],
                    seed=config.seed)
    click.echo(f"best round {state.best_round}, checkpoint at {ckpt}")


def _select_records(corpus, split_manifest, split_name):
    records = load_jsonl(corpus)
    if split_manifest is None:
        return records
    with open(split_manifest, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise DataError(f"split manifest '{split_manifest}' is not JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"split manifest '{split_manifest}' is not a JSON object")
    if split_name not in manifest:
        raise ConfigError(f"split '{split_name}' not present in {split_manifest}")
    ids = manifest[split_name]
    if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
        raise DataError(f"split '{split_name}' in {split_manifest} is not a list of ids")
    wanted = set(ids)
    selected = [r for r in records if r.id in wanted]
    if len(selected) != len(wanted):
        missing = wanted - {r.id for r in selected}
        raise DataError(f"split ids missing from corpus: {sorted(missing)[:5]} ...")
    return selected


@main.command(name="eval")
@click.argument("checkpoint", type=click.Path(exists=True, dir_okay=False))
@click.argument("corpus", type=click.Path(exists=True, dir_okay=False))
@click.argument("vectors", type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", "-o", required=True, type=click.Path(file_okay=False))
@click.option("--split-manifest", type=click.Path(exists=True, dir_okay=False),
              help="Restrict evaluation to one split of a training run.")
@click.option("--split", "split_name", default="test", show_default=True)
@_exits
def eval_cmd(checkpoint, corpus, vectors, out_dir, split_manifest, split_name):
    """Score a corpus with a trained checkpoint and emit the fairness report.

    Filters for targets never seen in training are generated on the fly from
    their word-vector indicators.
    """
    model = checkpoint_load(checkpoint)
    records = _select_records(corpus, split_manifest, split_name)
    if not records:
        raise DataError("no records selected for evaluation")
    store = load_word_vectors(vectors)
    indicators, usable, warn = eval_indicators(model, records, store)
    for message in warn:
        click.echo(f"warning: {message}", err=True)
    if not usable:
        raise DataError("all records excluded (unresolvable targets)")
    scores = model.predict(usable, indicators)
    predictions = {r.id: float(s) for r, s in zip(usable, scores)}

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pred_path = out / "predictions.csv"
    with open(pred_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "score", "label"])
        for r in usable:
            writer.writerow([r.id, repr(predictions[r.id]), r.label])
    report = build_report(predictions, usable,
                          threshold=model.config.threshold,
                          metadata={"split": split_name,
                                    "checkpoint": str(checkpoint),
                                    "seed": model.config.seed,
                                    "excluded_records": len(records) - len(usable),
                                    "warning_count": len(warn)})
    report_path = out / "report.json"
    report.save(report_path)
    inputs = [checkpoint, corpus, vectors]
    if split_manifest:
        inputs.append(split_manifest)
    _write_manifest(out / "manifest.json", "eval",
                    {"split": split_name, "threshold": model.config.threshold},
                    inputs, [pred_path, report_path],
                    seed=model.config.seed, warnings=warn)
    click.echo(f"accuracy={report.accuracy:.4f} f1={report.f1:.4f} "
               f"nFPED={report.nfped:.4f} nFNED={report.nfned:.4f} HF={report.hf:.4f}")
    if warn:
        click.echo(f"{len(warn)} warnings", err=True)


@main.command(name="export-filters")
@click.argument("checkpoint", type=click.Path(exists=True, dir_okay=False))
@click.argument("vectors", type=click.Path(exists=True, dir_okay=False))
@click.argument("targets", nargs=-1, required=True)
@click.option("--out", "-o", required=True, type=click.Path(dir_okay=False))
@_exits
def export_filters(checkpoint, vectors, targets, out):
    """Write indicator vectors and flattened filter matrices for targets.

    Works for training targets and unseen ones alike; feeds external
    projection/visualization tooling.
    """
    model = checkpoint_load(checkpoint)
    store = load_word_vectors(vectors)
    check_vector_width(model, store)
    entries = []
    for name in targets:
        if name in model.indicators:
            vector = model.indicators[name]
            tokens, skipped = tokenize_target(name), []
        else:
            ind = build_indicator(name, store)
            vector, tokens, skipped = ind.vector, ind.tokens, ind.skipped
        thetas = [hfilt.assemble_theta(f).data[0]
                  for f in hfilt.target_theta(model.hyper, vector.reshape(1, -1))]
        entries.append({
            "name": name,
            "tokens": tokens,
            "skipped_tokens": skipped,
            "seen_in_training": name in model.indicators,
            "indicator": [float(v) for v in vector],
            "theta": [[float(v) for v in t.reshape(-1)] for t in thetas],
        })
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"hidden_dim": model.config.hidden_dim,
                   "rank": model.config.rank,
                   "depth": model.config.depth,
                   "filters": entries}, fh)
        fh.write("\n")
    _write_manifest(str(out) + ".manifest.json", "export-filters",
                    {"targets": list(targets)}, [checkpoint, vectors], [out],
                    seed=model.config.seed)
    click.echo(f"exported {len(entries)} filters to {out}")


@main.command(name="metrics")
@click.argument("predictions", type=click.Path(exists=True, dir_okay=False))
@click.argument("corpus", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", required=True, type=click.Path(dir_okay=False))
@click.option("--threshold", default=0.5, show_default=True, type=float)
@_exits
def metrics_cmd(predictions, corpus, out, threshold):
    """Recompute the evaluation report from a stored predictions file."""
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must lie in (0, 1), got {threshold}")
    scores: dict[str, float] = {}
    with open(predictions, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "id" not in reader.fieldnames \
                or "score" not in reader.fieldnames:
            raise DataError(f"'{predictions}' is not an id,score,label CSV")
        for row in reader:
            try:
                scores[row["id"]] = float(row["score"])
            except (TypeError, ValueError):
                raise DataError(f"'{predictions}' line {reader.line_num}: "
                                f"score {row['score']!r} is not a number") from None
    if not scores:
        raise DataError(f"predictions file '{predictions}' is empty")
    records = [r for r in load_jsonl(corpus) if r.id in scores]
    missing = set(scores) - {r.id for r in records}
    if missing:
        raise DataError(f"prediction ids missing from corpus: {sorted(missing)[:5]} ...")
    report = build_report(scores, records, threshold=threshold,
                          metadata={"source": str(predictions)})
    report.save(out)
    _write_manifest(str(out) + ".manifest.json", "metrics",
                    {"threshold": threshold}, [predictions, corpus], [out])
    click.echo(f"accuracy={report.accuracy:.4f} HF={report.hf:.4f}")


if __name__ == "__main__":
    main()
