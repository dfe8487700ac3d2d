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
from .autodiff import no_grad
from .config import parse_kv_file, split_spec_from, synth_spec_from, train_config_from
from .data import (load_jsonl, make_split, save_json, save_jsonl, select_records,
                   synth_generate, synth_indicators)
from .embeddings import load_word_vectors, save_word_vectors, tokenize_target
from .errors import ConfigError, DataError, FairFilterError, utf8_or
from .metrics import build_report
from .trainer import (checkpoint_load, checkpoint_save, eval_indicators, fit,
                      resolve_indicators, write_events)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(path, command: str, config: dict, inputs: list, outputs: list,
                    seed: int | None = None, warnings: list | None = None) -> None:
    save_json({
        "tool": "fairfilter",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "warnings": warnings or [],
    }, path)


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


def _resolve(names, store, model=None):
    """`resolve_indicators`, raising the first failure; returns indicators, warnings."""
    resolved, messages = resolve_indicators(names, store, model)
    for name, message in messages.items():
        if name not in resolved:
            raise DataError(message)
    return resolved, list(messages.values())


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
    spec = synth_spec_from(parse_kv_file(spec_file, sections=("synth",)))
    records = synth_generate(spec)
    if spec.n_posts == 0:
        click.echo("warning: n_posts = 0, writing an empty corpus", err=True)
    save_jsonl(records, out)
    outputs = [out]
    if vectors_out:
        indicators = synth_indicators(spec)
        save_word_vectors({token: indicators[name] for name in spec.target_names
                           for token in tokenize_target(name)}, vectors_out)
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
    kv = parse_kv_file(config_file, sections=("train", "split"))
    config = train_config_from(kv)
    records = load_jsonl(corpus)
    if not records:
        raise DataError(f"corpus '{corpus}' is empty")
    corpus_targets = {t for r in records for t in r.targets}
    split_spec = split_spec_from(kv, corpus_targets)
    split = make_split(records, split_spec)
    resolved, warn = _resolve(sorted(corpus_targets), load_word_vectors(vectors))
    for message in warn:
        click.echo(f"warning: {message}", err=True)

    state = fit(config, split, {t: ind.vector for t, ind in resolved.items()})

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "checkpoint.npz"
    checkpoint_save(state.model, ckpt)
    write_events(state, out / "events.jsonl")
    save_json(split.manifest(), out / "split_manifest.json")
    _write_manifest(out / "manifest.json", "train",
                    {"train": vars(config), "split": vars(split_spec)},
                    [config_file, corpus, vectors],
                    [ckpt, out / "events.jsonl", out / "split_manifest.json"],
                    seed=config.seed, warnings=warn)
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
    return select_records(records, ids, "split")


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
    indicators, usable, warn = eval_indicators(model, records, load_word_vectors(vectors))
    for message in warn:
        click.echo(f"warning: {message}", err=True)
    if not usable:
        raise DataError("all records excluded (unresolvable targets)")
    scores = model.predict(usable, indicators)
    split = split_name if split_manifest else None

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pred_path = out / "predictions.csv"
    with open(pred_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "score", "label"])
        for r, score in zip(usable, scores.tolist()):
            writer.writerow([r.id, repr(score), r.label])
    report = build_report(scores, usable,
                          threshold=model.config.threshold,
                          metadata={"split": split,
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
                    {"split": split, "threshold": model.config.threshold},
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
    resolved, _ = _resolve(targets, load_word_vectors(vectors), model)
    entries = [{
        "name": name,
        "tokens": resolved[name].tokens,
        "skipped_tokens": resolved[name].skipped,
        "seen_in_training": name in model.seen_targets,
        "indicator": [float(v) for v in resolved[name].vector],
    } for name in targets]
    with no_grad():
        thetas = [hfilt.assemble_theta(f).data for f in hfilt.target_theta(
            model.hyper, np.array([entry["indicator"] for entry in entries]))]
    for i, entry in enumerate(entries):
        entry["theta"] = [[float(v) for v in t[i].reshape(-1)] for t in thetas]
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
    with open(predictions, "r", encoding="utf-8", newline="") as fh, \
            utf8_or(DataError, predictions):
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "id" not in reader.fieldnames \
                or "score" not in reader.fieldnames:
            raise DataError(f"'{predictions}' is not an id,score,label CSV")
        for row in reader:
            try:
                score = float(row["score"])
            except (TypeError, ValueError):
                raise DataError(f"'{predictions}' line {reader.line_num}: "
                                f"score {row['score']!r} is not a number") from None
            if not np.isfinite(score):
                raise DataError(f"'{predictions}' line {reader.line_num}: "
                                f"score {row['score']!r} is not finite")
            if row["id"] in scores:
                raise DataError(f"'{predictions}' line {reader.line_num}: "
                                f"duplicate id '{row['id']}'")
            scores[row["id"]] = score
    if not scores:
        raise DataError(f"predictions file '{predictions}' is empty")
    records = select_records(load_jsonl(corpus), scores, "prediction")
    report = build_report([scores[r.id] for r in records], records, threshold=threshold,
                          metadata={"source": str(predictions)})
    report.save(out)
    _write_manifest(str(out) + ".manifest.json", "metrics",
                    {"threshold": threshold}, [predictions, corpus], [out])
    click.echo(f"accuracy={report.accuracy:.4f} HF={report.hf:.4f}")


if __name__ == "__main__":
    main()
