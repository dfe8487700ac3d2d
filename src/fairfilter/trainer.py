"""Alternating adversarial training with freeze semantics and checkpoints.

Each outer round first trains the target discriminator for N epochs (filter,
classifier, and adapter frozen), then trains filter + classifier + adapter
for N' epochs against the synergic loss with the discriminator frozen.
Rounds continue until the round cap or until the validation composite
(F1 - HF) stops improving; the best-validation snapshot is returned.

Both phases run one loop, `_run_phase`, which sets the freeze state, steps
Adam on the phase's trainable groups and records telemetry; a phase is the
groups it trains plus its loss function (`discriminator_losses` or
`synergic_losses`, which the gradient suite checks directly).
"""

from __future__ import annotations

import csv
import json
import os
import zipfile
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import hyperfilter as hf
from . import objectives as obj
from .autodiff import AdamState, ParamGroup, Tensor
from .data import CorpusSplit, PostRecord
from .embeddings import (EncoderAdapter, WordVectorStore, build_indicator,
                         encode_posts)
from .errors import (CheckpointError, ConfigError, DataError, DimensionError,
                     DivergenceError)
from .heads import ClassifierHead, DiscriminatorHead
from .metrics import build_report

CHECKPOINT_VERSION = 1
LOSS_KEYS = ("l_hate", "l_dis", "l_reg", "l_imi", "synergic")
PHASE_OBJECTIVES = {"dis": "discriminator loss", "filter": "synergic loss"}


@dataclass
class TrainConfig:
    """Hyperparameters of the alternating optimization."""

    lam: float = 0.9
    gamma: float = 3.0
    mu: float = 0.9
    rank: int = 1
    depth: int = 1
    hidden_dim: int = 256
    n_dis: int = 1
    n_filter: int = 5
    batch_size: int = 128
    lr: float = 1e-3
    lr_dis: float = 1e-3
    max_rounds: int = 30
    patience: int = 5
    seed: int = 0
    threshold: float = 0.5
    hyper_hidden: int = 128
    head_hidden: int = 256
    adapter_depth: int = 1

    def validate(self) -> "TrainConfig":
        if not all(np.isfinite(v) for v in asdict(self).values()):
            raise ConfigError("config values must be finite")
        if self.lam < 0 or self.gamma < 0 or self.mu < 0:
            raise ConfigError("loss coefficients must be non-negative")
        if self.rank < 1 or self.depth < 1 or self.hidden_dim < 1:
            raise ConfigError("rank, depth, and hidden_dim must be >= 1")
        if self.n_dis < 0 or self.n_filter < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.lr <= 0 or self.lr_dis <= 0:
            raise ConfigError("learning rates must be positive")
        if self.max_rounds < 1:
            raise ConfigError("max_rounds must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must lie in (0, 1)")
        return self


class Model:
    """All trainable parameter groups plus the seen-target indicator table."""

    def __init__(self, config: TrainConfig, d_in: int, indicator_dim: int,
                 seen_targets: list[str], indicators: dict[str, np.ndarray]):
        missing = [t for t in seen_targets if t not in indicators]
        if missing:
            raise ConfigError(f"no indicator for seen targets: {missing}")
        self.config = config
        self.d_in = d_in
        self.indicator_dim = indicator_dim
        self.seen_targets = list(seen_targets)
        self.indicators = {t: np.asarray(indicators[t], dtype=np.float64)
                           for t in seen_targets}
        d = config.hidden_dim
        rng = np.random.default_rng(config.seed)
        self.adapter = EncoderAdapter(d_in, d, rng, depth=config.adapter_depth)
        self.hyper = hf.HyperFilter(d, config.rank, config.depth, indicator_dim,
                                    rng, hidden=config.hyper_hidden)
        self.discriminator = DiscriminatorHead(d, len(seen_targets), rng,
                                               hidden=config.head_hidden)
        self.classifier = ClassifierHead(d, rng, hidden=config.head_hidden)

    @property
    def groups(self) -> dict[str, ParamGroup]:
        return {"enc": self.adapter.group, "hyper": self.hyper.group,
                "dis": self.discriminator.group, "hate": self.classifier.group}

    def multi_hot(self, records: list[PostRecord]) -> np.ndarray:
        return hf.membership([r.targets for r in records], self.seen_targets)

    def filter_batch(self, records: list[PostRecord],
                     indicators: dict[str, np.ndarray] | None = None
                     ) -> tuple[Tensor, Tensor, list[hf.LowRankFactors]]:
        """Encode, then filter each post with its target-set ensemble.

        Filters are generated once for every target in `indicators` (default:
        the seen targets). Returns (unfiltered s, filtered s_tilde, factors),
        rows in `records` order; the factors cover the targets in sorted-name
        order, as the gap-alignment loss expects.
        """
        indicators = indicators if indicators is not None else self.indicators
        factors, mix = hf.ensemble_params(self.hyper, indicators,
                                          [r.targets for r in records])
        s = encode_posts(records, self.adapter)
        return s, hf.apply_filter(s, factors, mix), factors

    def predict(self, records: list[PostRecord],
                indicators: dict[str, np.ndarray]) -> np.ndarray:
        """Hatefulness scores aligned with `records` (filters generated on the fly)."""
        scores = np.empty(len(records))
        for start in range(0, len(records), self.config.batch_size):
            chunk = records[start:start + self.config.batch_size]
            used = {t: indicators[t] for r in chunk for t in r.targets}
            _, s_tilde, _ = self.filter_batch(chunk, used)
            logits = self.classifier.forward(s_tilde)
            scores[start:start + len(chunk)] = ad.sigmoid(logits).data.reshape(-1)
        return scores


@dataclass
class TrainState:
    model: Model
    adam: dict[str, AdamState]
    round: int = 0
    global_step: int = 0
    best_composite: float = -np.inf
    best_round: int = -1
    best_params: dict[str, dict[str, np.ndarray]] | None = None
    history: list[dict] = field(default_factory=list)
    val_history: list[dict] = field(default_factory=list)
    telemetry: list[dict] = field(default_factory=list)


def _minibatches(records: list[PostRecord], batch_size: int,
                 rng: np.random.Generator):
    order = rng.permutation(len(records))
    for start in range(0, len(records), batch_size):
        yield [records[i] for i in order[start:start + batch_size]]


def _batch_stats(records: list[PostRecord]) -> dict:
    embeddings = np.stack([r.embedding for r in records])
    return {"batch_size": len(records),
            "labels_mean": float(np.mean([r.label for r in records])),
            "embedding_absmax": float(np.max(np.abs(embeddings)))}


def discriminator_losses(model: Model, records: list[PostRecord]) -> dict[str, Tensor]:
    """The discriminator phase's objective: recover each post's seen targets
    from its filtered embedding."""
    _, s_tilde, _ = model.filter_batch(records)
    return {"l_dis": obj.loss_dis(model.discriminator.forward(s_tilde),
                                  model.multi_hot(records))}


def synergic_losses(model: Model, records: list[PostRecord]) -> dict[str, Tensor]:
    """The filter phase's four loss terms and their synergic combination,
    keyed by LOSS_KEYS in that order."""
    cfg = model.config
    s, s_tilde, factors = model.filter_batch(records)
    y = np.asarray([r.label for r in records])
    z = model.classifier.forward(s_tilde)
    z_prime = model.classifier.forward(s)
    l_hate = obj.loss_hate(z, y)
    l_dis = obj.loss_dis(model.discriminator.forward(s_tilde), model.multi_hot(records))
    l_imi = obj.loss_imi(z, z_prime)
    if cfg.mu > 0 and len(model.seen_targets) >= 2:
        l_reg = obj.loss_reg(model.indicators, hf.filter_gram(factors))
    else:
        l_reg = ad.constant(0.0)
    combined = obj.synergic(l_hate, l_dis, l_reg, l_imi, cfg.lam, cfg.gamma, cfg.mu)
    return dict(zip(LOSS_KEYS, (l_hate, l_dis, l_reg, l_imi, combined)))


def _run_phase(state: TrainState, records: list[PostRecord], epochs: int,
               rng: np.random.Generator, phase: str, trainable: tuple[str, ...],
               losses_of) -> None:
    """`epochs` epochs of minibatch Adam steps on the `trainable` groups.

    Every other group is frozen. Each step backpropagates the last loss that
    `losses_of(model, batch)` returns and appends a telemetry row; each
    epoch appends the means of the returned losses to the history.
    """
    model = state.model
    for name, group in model.groups.items():
        if name in trainable:
            group.unfreeze()
        else:
            group.freeze()
    for epoch in range(epochs):
        first = len(state.telemetry)
        for batch in _minibatches(records, model.config.batch_size, rng):
            losses = losses_of(model, batch)
            *_, objective = losses.values()
            if not np.isfinite(objective.item()):
                raise DivergenceError(f"non-finite {PHASE_OBJECTIVES[phase]}; "
                                      f"last batch: {json.dumps(_batch_stats(batch))}")
            ad.backward(objective)
            for name in trainable:
                ad.adam_step(model.groups[name], state.adam[name])
            state.global_step += 1
            state.telemetry.append({
                "step": state.global_step, "phase": phase,
                **{k: losses[k].item() if k in losses else "" for k in LOSS_KEYS}})
        rows = state.telemetry[first:]
        state.history.append({
            "round": state.round, "phase": phase, "epoch": epoch,
            **{k: float(np.mean([row[k] for row in rows])) for k in losses}})


def phase_discriminator(state: TrainState, records: list[PostRecord],
                        epochs: int, rng: np.random.Generator) -> None:
    """N epochs of discriminator-only minibatch updates (rest frozen)."""
    _run_phase(state, records, epochs, rng, "dis", ("dis",), discriminator_losses)


def phase_filter(state: TrainState, records: list[PostRecord],
                 epochs: int, rng: np.random.Generator) -> None:
    """N' epochs of synergic-loss updates on filter, classifier, and adapter."""
    _run_phase(state, records, epochs, rng, "filter", ("enc", "hyper", "hate"),
               synergic_losses)


def _snapshot(model: Model) -> dict[str, dict[str, np.ndarray]]:
    return {name: group.state_dict() for name, group in model.groups.items()}


def _restore(model: Model, snapshot: dict[str, dict[str, np.ndarray]]) -> None:
    for name, group in model.groups.items():
        group.load_state_dict(snapshot[name])


def fit(config: TrainConfig, split: CorpusSplit,
        indicators: dict[str, np.ndarray], d_in: int | None = None) -> TrainState:
    """Run the full alternating optimization and return the best snapshot.

    `indicators` must cover every target mentioned in train and validation.
    """
    config.validate()
    if not split.train:
        raise DataError("empty training split")
    seen = sorted({t for r in split.train for t in r.targets})
    if d_in is None:
        d_in = split.train[0].embedding.shape[0]
    indicator_dim = len(next(iter(indicators.values())))
    model = Model(config, d_in, indicator_dim, seen, indicators)
    val_indicators = dict(model.indicators)
    for r in split.validation:
        for t in r.targets:
            if t not in indicators:
                raise ConfigError(f"validation target '{t}' has no indicator")
            val_indicators.setdefault(t, indicators[t])
    adam = {"dis": AdamState(lr=config.lr_dis),
            "enc": AdamState(lr=config.lr),
            "hyper": AdamState(lr=config.lr),
            "hate": AdamState(lr=config.lr)}
    state = TrainState(model=model, adam=adam)
    rng = np.random.default_rng(config.seed + 1)

    rounds_since_best = 0
    for round_no in range(config.max_rounds):
        state.round = round_no
        phase_discriminator(state, split.train, config.n_dis, rng)
        phase_filter(state, split.train, config.n_filter, rng)

        if split.validation:
            scores = model.predict(split.validation, val_indicators)
            report = build_report({r.id: s for r, s in zip(split.validation, scores)},
                                  split.validation, threshold=config.threshold)
            composite = report.f1 - report.hf
            state.val_history.append({
                "round": round_no, "val_f1": report.f1, "val_hf": report.hf,
                "val_accuracy": report.accuracy, "composite": composite})
            if composite > state.best_composite:
                state.best_composite = composite
                state.best_round = round_no
                state.best_params = _snapshot(model)
                rounds_since_best = 0
            else:
                rounds_since_best += 1
            if rounds_since_best > config.patience:
                break

    if state.best_params is not None:
        _restore(model, state.best_params)
    else:
        state.best_params = _snapshot(model)
        state.best_round = state.round
    for group in model.groups.values():
        group.unfreeze()
    return state


def write_telemetry(state: TrainState, path) -> None:
    fields = ["step", "phase", *LOSS_KEYS]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(state.telemetry)


def checkpoint_save(model: Model, path) -> None:
    """Write all parameter groups, indicators, and a versioned header."""
    payload: dict[str, np.ndarray] = {}
    for gname, group in sorted(model.groups.items()):
        for tname, tensor in sorted(group.tensors.items()):
            payload[f"param/{gname}/{tname}"] = tensor.data
    for target in model.seen_targets:
        payload[f"indicator/{target}"] = model.indicators[target]
    meta = {
        "version": CHECKPOINT_VERSION,
        "d_in": model.d_in,
        "indicator_dim": model.indicator_dim,
        "seen_targets": model.seen_targets,
        "config": asdict(model.config),
    }
    payload["__meta__"] = np.array(json.dumps(meta, sort_keys=True))
    ordered = {k: payload[k] for k in sorted(payload)}
    # written beside the target, then renamed over it, so a crash mid-write
    # never leaves a truncated checkpoint under the final name
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **ordered)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def checkpoint_load(path) -> Model:
    """Rebuild a Model from a checkpoint; predictions match the saved model.

    Any unreadable, incomplete or inconsistent archive raises CheckpointError.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            if "__meta__" not in archive:
                raise CheckpointError(f"checkpoint '{path}' lacks a header")
            meta = json.loads(str(archive["__meta__"]))
            if meta.get("version") != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"checkpoint version {meta.get('version')} != {CHECKPOINT_VERSION}")
            config = TrainConfig(**meta["config"]).validate()
            indicators = {t: archive[f"indicator/{t}"] for t in meta["seen_targets"]}
            model = Model(config, meta["d_in"], meta["indicator_dim"],
                          meta["seen_targets"], indicators)
            for gname, group in model.groups.items():
                keys = {k: f"param/{gname}/{k}" for k in group.tensors}
                group.load_state_dict({k: archive[key] for k, key in keys.items()
                                       if key in archive})
    except (OSError, EOFError, zipfile.BadZipFile, AttributeError, KeyError,
            TypeError, ValueError, ConfigError, DimensionError) as exc:
        raise CheckpointError(f"cannot load checkpoint '{path}': "
                              f"{type(exc).__name__}: {exc}") from None
    return model


def check_vector_width(model: Model, store: WordVectorStore) -> None:
    if store.dim != model.indicator_dim:
        raise DataError(f"word vectors have {store.dim} entries, the checkpoint's "
                        f"indicators {model.indicator_dim}")


def eval_indicators(model: Model, records: list[PostRecord],
                    store: WordVectorStore | None
                    ) -> tuple[dict[str, np.ndarray], list[PostRecord], list[str]]:
    """Indicator table covering the records' targets, built on the fly.

    Unresolvable targets (no word vectors) exclude their records; returns
    (indicators, usable records, warning messages).
    """
    if store is not None:
        check_vector_width(model, store)
    indicators = dict(model.indicators)
    warnings_out: list[str] = []
    bad_targets: set[str] = set()
    for record in records:
        for t in record.target_set:
            if t in indicators or t in bad_targets:
                continue
            if store is None:
                bad_targets.add(t)
                warnings_out.append(f"target '{t}': no word-vector store supplied")
                continue
            try:
                ind = build_indicator(t, store)
            except DataError as exc:
                bad_targets.add(t)
                warnings_out.append(str(exc))
                continue
            if ind.skipped:
                warnings_out.append(
                    f"target '{t}': skipped OOV tokens {ind.skipped}")
            indicators[t] = ind.vector
    usable = [r for r in records if not (r.target_set & bad_targets)]
    for r in records:
        dropped = r.target_set & bad_targets
        if dropped:
            warnings_out.append(
                f"record '{r.id}' excluded (unresolvable targets {sorted(dropped)})")
    return indicators, usable, warnings_out
