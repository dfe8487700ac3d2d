"""Alternating adversarial training with freeze semantics and checkpoints.

Each outer round first trains the target discriminator for N epochs (filter,
classifier, and adapter frozen), then trains filter + classifier + adapter
for N' epochs against the synergic loss with the discriminator frozen.
Rounds continue until the round cap or until the validation composite
(F1 - HF) stops improving; the best-validation snapshot is returned.

`fit` tabulates the training posts once (`tabulate`) into rows over the
sorted seen targets, the one target axis of the indicator stack, filters,
mixing rows, discriminator outputs and Gram matrices. Both phases run one
loop, `_run_phase`, which minibatches those rows, sets the freeze state,
steps Adam on the phase's trainable groups and logs a step event per step
and an epoch event per epoch; a phase is the groups it trains plus its loss
function (`discriminator_losses` or `synergic_losses`, which the gradient
suite checks directly). `TrainState.events` is a fit's one log: step, epoch,
validation and a closing best event, which `write_events` writes as JSONL.

`Model.embed` is the one no-tape embedding path, over rows: `Model.predict`
tabulates posts on their own sorted targets and reads it, and the
discriminator phase, whose filters are frozen, reads it once per phase.
Embeddings reach the heads as factored (rows, basis) pairs where the basis
has fewer rows than columns (`filter_batch`, `autodiff.factored`), so a
head folds the basis into its first layer (`autodiff.dense`); the
discriminator phase then keeps the (n, T*K) coefficient rows of s_tilde and
its one basis, not dense (n, d) rows.
`resolve_indicators` is the one lookup from target names to indicators, for
training, scoring (through `eval_indicators`) and filter export alike.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import hyperfilter as hf
from . import objectives as obj
from .autodiff import AdamState, ParamGroup, Tensor
from .data import CorpusSplit, PostRecord, membership
from .embeddings import (EncoderAdapter, TargetIndicator, WordVectorStore, build_indicator,
                         encode_posts, stack_embeddings, tokenize_target)
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
        if min(self.rank, self.depth, self.adapter_depth, self.hidden_dim,
               self.hyper_hidden, self.head_hidden) < 1:
            raise ConfigError("rank, depth, adapter_depth and hidden widths must be >= 1")
        if min(self.n_dis, self.n_filter, self.patience, self.seed) < 0:
            raise ConfigError("epoch counts, patience and seed must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.lr <= 0 or self.lr_dis <= 0:
            raise ConfigError("learning rates must be positive")
        if self.max_rounds < 1:
            raise ConfigError("max_rounds must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must lie in (0, 1)")
        return self


def tabulate(records: list[PostRecord], names: list[str]) -> tuple[np.ndarray, ...]:
    """Embeddings (n, d_in), labels (n,) and membership (n, T) over `names`."""
    return (stack_embeddings(records), np.asarray([r.label for r in records]),
            membership([r.targets for r in records], names))


class Model:
    """All trainable parameter groups plus the seen-target indicator table."""

    def __init__(self, config: TrainConfig, d_in: int, indicator_dim: int,
                 seen_targets: list[str], indicators: dict[str, np.ndarray]):
        bad = [t for t in seen_targets if np.shape(indicators.get(t)) != (indicator_dim,)]
        if bad:
            raise ConfigError(f"no ({indicator_dim},) indicator for seen targets: {bad}")
        repeated = sorted({t for t in seen_targets if seen_targets.count(t) > 1})
        if repeated:
            raise ConfigError(f"seen targets named more than once: {repeated}")
        self.config = config
        self.d_in = d_in
        self.indicator_dim = indicator_dim
        self.seen_targets = sorted(seen_targets)  # the training target axis
        self.seen_indicators = np.stack([np.asarray(indicators[t], dtype=np.float64)
                                         for t in self.seen_targets])
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

    def filter_batch(self, x: np.ndarray, factors: list[hf.LowRankFactors],
                     mix: np.ndarray) -> tuple[Tensor | tuple[Tensor, Tensor], ...]:
        """Encode embedding rows x, then filter each with its target-set
        ensemble: one row of `mix` per row of x over the targets of `factors`.
        Returns (unfiltered s, filtered s_tilde), rows in x's order, each an
        (n, d) tensor or a (rows, basis) pair standing for one
        (`ad.factored`). The filter reads s multiplied out."""
        s = encode_posts(x, self.adapter)
        return s, hf.apply_filter(ad.unfactored(s), factors, mix)

    def embed(self, x: np.ndarray, targets: np.ndarray, indicators: np.ndarray):
        """Yield (s, s_tilde) in `batch_size` chunks of the rows x, with no
        tape; `targets` (n, T) is their membership over the rows of the
        (T, indicator_dim) `indicators` stack, whose filters are made once.

        Each of s and s_tilde comes as `filter_batch` returns it, as arrays:
        a (rows, basis) pair, where rows @ basis, one product apiece, is the
        dense (n, d) embedding, or that (n, d) array. A basis is the same in
        every chunk: s's is the adapter's last weight, s_tilde's the
        (T*K, d) stack of the last filter layer's P.
        """
        with ad.no_grad():
            factors, mix = hf.ensemble_params(self.hyper, indicators, targets)
        for start in range(0, len(x), self.config.batch_size):
            rows = slice(start, start + self.config.batch_size)
            with ad.no_grad():
                s, s_tilde = self.filter_batch(x[rows], factors, mix[rows])
            yield _arrays(s), _arrays(s_tilde)

    def predict(self, records: list[PostRecord],
                indicators: dict[str, np.ndarray]) -> np.ndarray:
        """Hatefulness scores aligned with `records`: the classifier over `embed`."""
        names = sorted({t for r in records for t in r.targets})
        missing = [t for t in names if t not in indicators]
        if missing:
            raise ConfigError(f"no indicator for targets {missing}")
        if not records:
            return np.empty(0)
        x, _, targets = tabulate(records, names)
        stack = np.stack([indicators[t] for t in names])
        with ad.no_grad():
            scores = [ad.logistic(self.classifier.forward(_constants(s_tilde)).data)[1]
                      for _, s_tilde in self.embed(x, targets, stack)]
        return np.concatenate(scores).reshape(-1)


def _arrays(x: Tensor | tuple[Tensor, Tensor]):
    """The arrays of an embedding: a tensor's, or a (rows, basis) pair's two."""
    return tuple(t.data for t in x) if isinstance(x, tuple) else x.data


def _constants(x: np.ndarray | tuple[np.ndarray, np.ndarray]
               ) -> Tensor | tuple[Tensor, Tensor]:
    """`_arrays` back as tape-free tensors."""
    return tuple(map(ad.constant, x)) if isinstance(x, tuple) else ad.constant(x)


@dataclass
class TrainState:
    model: Model
    adam: dict[str, AdamState]
    round: int = 0
    global_step: int = 0
    best_composite: float = -np.inf
    best_round: int = -1
    best_params: dict[str, dict[str, np.ndarray]] | None = None
    events: list[dict] = field(default_factory=list)  # flat dicts; "event" names the kind

    # read-only views for bench/run.py, retired when the benchmark reads
    # `events` (ROADMAP item 8)
    @property
    def telemetry(self) -> list[dict]:
        """The step events."""
        return [e for e in self.events if e["event"] == "step"]

    @property
    def history(self) -> list[dict]:
        """The epoch events without their "event" key."""
        return [{k: v for k, v in e.items() if k != "event"}
                for e in self.events if e["event"] == "epoch"]


def discriminator_losses(model: Model, s_tilde: np.ndarray | tuple[np.ndarray, np.ndarray],
                         targets: np.ndarray) -> dict[str, Tensor]:
    """The discriminator phase's objective: recover each post's seen targets
    (multi-hot rows) from its filtered embedding, the rows of s_tilde given
    as an array or as a (rows, basis) pair of arrays (`Model.embed`)."""
    return {"l_dis": obj.loss_dis(model.discriminator.forward(_constants(s_tilde)),
                                  targets)}


def synergic_losses(model: Model, x: np.ndarray, y: np.ndarray,
                    targets: np.ndarray) -> dict[str, Tensor]:
    """The filter phase's four loss terms and their synergic combination,
    keyed by LOSS_KEYS in that order, over seen-target `tabulate` rows."""
    cfg = model.config
    factors, mix = hf.ensemble_params(model.hyper, model.seen_indicators, targets)
    s, s_tilde = model.filter_batch(x, factors, mix)
    z = model.classifier.forward(s_tilde)
    z_prime = model.classifier.forward(s)
    l_hate = obj.loss_hate(z, y)
    l_dis = obj.loss_dis(model.discriminator.forward(s_tilde), targets)
    l_imi = obj.loss_imi(z, z_prime)
    if cfg.mu > 0 and len(model.seen_targets) >= 2:
        l_reg = obj.loss_reg(model.seen_indicators, hf.filter_gram(factors))
    else:
        l_reg = ad.constant(0.0)
    combined = obj.synergic(l_hate, l_dis, l_reg, l_imi, cfg.lam, cfg.gamma, cfg.mu)
    return dict(zip(LOSS_KEYS, (l_hate, l_dis, l_reg, l_imi, combined)))


def _non_finite(model: Model) -> str:
    """'group.tensor' for each group holding a NaN or an infinity, naming its
    first such tensor, or 'none'. A gradient that went non-finite at one
    step shows here at the next, through Adam's update."""
    found = []
    for name, group in model.groups.items():
        bad = [k for k, t in group.tensors.items() if not np.all(np.isfinite(t.data))]
        if bad:
            found.append(f"{name}.{bad[0]}")
    return ", ".join(found) or "none"


def _run_phase(state: TrainState, x: np.ndarray, y: np.ndarray, epochs: int,
               rng: np.random.Generator, phase: str, trainable: tuple[str, ...],
               losses_of) -> None:
    """`epochs` epochs of minibatch Adam steps on the `trainable` groups, over
    a phase's tabulated embedding rows x and labels y.

    Every other group is frozen. Each step backpropagates the last loss that
    `losses_of(batch)` returns for the batch's row indices and logs a step
    event, with None for each LOSS_KEYS loss the phase does not compute;
    each epoch logs an epoch event with the means of the losses it did.
    """
    model = state.model
    for name, group in model.groups.items():
        if name in trainable:
            group.unfreeze()
        else:
            group.freeze()
    for epoch in range(epochs):
        first = len(state.events)
        order = rng.permutation(len(x))
        for start in range(0, len(x), model.config.batch_size):
            batch = order[start:start + model.config.batch_size]
            losses = losses_of(batch)
            *_, objective = losses.values()
            if not np.isfinite(objective.item()):
                stats = {"batch_size": len(batch), "labels_mean": float(np.mean(y[batch])),
                         "embedding_absmax": float(np.max(np.abs(x[batch])))}
                raise DivergenceError(f"non-finite {PHASE_OBJECTIVES[phase]}; "
                                      f"non-finite parameters: {_non_finite(model)}; "
                                      f"last batch: {json.dumps(stats)}")
            ad.backward(objective)
            for name in trainable:
                ad.adam_step(model.groups[name], state.adam[name])
            state.global_step += 1
            state.events.append({
                "event": "step", "step": state.global_step, "phase": phase,
                **{k: losses[k].item() if k in losses else None for k in LOSS_KEYS}})
        steps = state.events[first:]
        state.events.append({
            "event": "epoch", "round": state.round, "phase": phase, "epoch": epoch,
            **{k: float(np.mean([e[k] for e in steps])) for k in losses}})


def phase_discriminator(state: TrainState, rows: tuple[np.ndarray, ...],
                        epochs: int, rng: np.random.Generator) -> None:
    """N epochs of discriminator-only minibatch updates (rest frozen), over
    filtered embeddings that `Model.embed` computes once for the phase: the
    (n, T*K) coefficient rows of every post and the one basis they share, or
    the (n, d) rows where the basis does not fold."""
    model = state.model
    x, y, targets = rows
    chunks = [s_tilde for _, s_tilde in model.embed(x, targets, model.seen_indicators)]
    if isinstance(chunks[0], tuple):
        s_rows, basis = np.concatenate([c for c, _ in chunks]), chunks[0][1]
    else:
        s_rows, basis = np.concatenate(chunks), None
    _run_phase(state, x, y, epochs, rng, "dis", ("dis",),
               lambda batch: discriminator_losses(
                   model, s_rows[batch] if basis is None else (s_rows[batch], basis),
                   targets[batch]))


def phase_filter(state: TrainState, rows: tuple[np.ndarray, ...],
                 epochs: int, rng: np.random.Generator) -> None:
    """N' epochs of synergic-loss updates on filter, classifier, and adapter."""
    x, y, targets = rows
    _run_phase(state, x, y, epochs, rng, "filter", ("enc", "hyper", "hate"),
               lambda batch: synergic_losses(state.model, x[batch], y[batch],
                                             targets[batch]))


def _snapshot(model: Model) -> dict[str, dict[str, np.ndarray]]:
    return {name: group.state_dict() for name, group in model.groups.items()}


def fit(config: TrainConfig, split: CorpusSplit,
        indicators: dict[str, np.ndarray]) -> TrainState:
    """Run the full alternating optimization and return the best snapshot.

    `indicators` must cover every target mentioned in train and validation,
    and every train and validation record must carry an embedding.
    """
    config.validate()
    if not split.train:
        raise DataError("empty training split")
    seen = sorted({t for r in split.train for t in r.targets})
    rows = tabulate(split.train, seen)
    if split.validation:  # a post without an embedding fails before any step
        stack_embeddings(split.validation)
    if not indicators:
        raise ConfigError(f"the indicator table is empty; training targets "
                          f"{', '.join(seen)} need one indicator each")
    indicator_dim = len(next(iter(indicators.values())))
    model = Model(config, rows[0].shape[1], indicator_dim, seen, indicators)
    missing = sorted({t for r in split.validation for t in r.targets} - indicators.keys())
    if missing:
        raise ConfigError(f"no indicator for validation targets {missing}")
    state = TrainState(model=model, adam={
        name: AdamState(lr=config.lr_dis if name == "dis" else config.lr)
        for name in model.groups})
    rng = np.random.default_rng(config.seed + 1)

    rounds_since_best = 0
    for round_no in range(config.max_rounds):
        state.round = round_no
        phase_discriminator(state, rows, config.n_dis, rng)
        phase_filter(state, rows, config.n_filter, rng)

        if split.validation:
            scores = model.predict(split.validation, indicators)
            report = build_report(scores, split.validation, threshold=config.threshold)
            composite = report.f1 - report.hf
            state.events.append({
                "event": "validation", "round": round_no, "val_f1": report.f1,
                "val_hf": report.hf, "val_accuracy": report.accuracy, "composite": composite})
            if composite > state.best_composite:
                state.best_composite = composite
                state.best_round = round_no
                state.best_params = _snapshot(model)
                rounds_since_best = 0
            else:
                rounds_since_best += 1
            if rounds_since_best > config.patience:
                break

    if state.best_params is None:
        state.best_params, state.best_round = _snapshot(model), state.round
    for name, group in model.groups.items():
        group.load_state_dict(state.best_params[name])
        group.unfreeze()
    state.events.append({"event": "best", "round": state.best_round, "composite":
                         None if state.best_composite == -np.inf else state.best_composite})
    return state


def write_events(state: TrainState, path) -> None:
    """`state.events` as JSONL: one key-sorted object per line, with no NaN
    or Infinity token (a non-finite value raises ValueError)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(e, sort_keys=True, allow_nan=False) + "\n"
                      for e in state.events)


def checkpoint_save(model: Model, path) -> None:
    """Write all parameter groups, indicators, and a versioned header."""
    payload: dict[str, np.ndarray] = {}
    for gname, group in sorted(model.groups.items()):
        for tname, tensor in sorted(group.tensors.items()):
            payload[f"param/{gname}/{tname}"] = tensor.data
    for target, row in zip(model.seen_targets, model.seen_indicators):
        payload[f"indicator/{target}"] = row
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
        # np.load leaves an unreadable archive's file open; the with block closes it
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as archive:
            if "__meta__" not in archive:
                raise CheckpointError(f"checkpoint '{path}' lacks a header")
            meta = json.loads(str(archive["__meta__"]))
            if meta.get("version") != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"checkpoint version {meta.get('version')} != {CHECKPOINT_VERSION}")
            config = TrainConfig(**meta["config"]).validate()
            arrays = {k: archive[k] for k in archive.files if k != "__meta__"}
            non_finite = sorted(k for k, v in arrays.items() if not np.all(np.isfinite(v)))
            if non_finite:
                raise CheckpointError(f"checkpoint '{path}': non-finite values in {non_finite}")
            indicators = {t: arrays[f"indicator/{t}"] for t in meta["seen_targets"]}
            model = Model(config, meta["d_in"], meta["indicator_dim"],
                          meta["seen_targets"], indicators)
            for gname, group in model.groups.items():
                keys = {k: f"param/{gname}/{k}" for k in group.tensors}
                group.load_state_dict({k: arrays[key] for k, key in keys.items()
                                       if key in arrays})
    except (OSError, EOFError, zipfile.BadZipFile, AttributeError, KeyError,
            TypeError, ValueError, ConfigError, DimensionError) as exc:
        raise CheckpointError(f"cannot load checkpoint '{path}': "
                              f"{type(exc).__name__}: {exc}") from None
    return model


def resolve_indicators(names, store: WordVectorStore, model: Model | None = None
                       ) -> tuple[dict[str, TargetIndicator], dict[str, str]]:
    """The indicators of `names`, in their order, and a message per name.

    `model`'s seen targets keep their stored indicators; other names are built
    from `store`. A name that cannot be resolved is left out, its message the
    DataError's; one built with out-of-vocabulary tokens skipped gets a warning.
    """
    if model is not None and store.dim != model.indicator_dim:
        raise DataError(f"word vectors have {store.dim} entries, the checkpoint's "
                        f"indicators {model.indicator_dim}")
    stored = dict(zip(model.seen_targets, model.seen_indicators)) if model else {}
    resolved, messages = {}, {}
    for name in names:
        try:
            resolved[name] = (TargetIndicator(tokenize_target(name), [], stored[name])
                              if name in stored else build_indicator(name, store))
        except DataError as exc:
            messages[name] = str(exc)
        else:
            if resolved[name].skipped:
                messages[name] = f"target '{name}': skipped OOV tokens {resolved[name].skipped}"
    return resolved, messages


def eval_indicators(model: Model, records: list[PostRecord], store: WordVectorStore
                    ) -> tuple[dict[str, np.ndarray], list[PostRecord], list[str]]:
    """Indicators of the records' targets, resolved in order of first appearance.

    Unresolvable targets exclude their records; returns (indicators, usable
    records, warning messages).
    """
    resolved, messages = resolve_indicators(
        dict.fromkeys(t for r in records for t in r.targets), store, model)
    warnings_out = list(messages.values())
    bad_targets = messages.keys() - resolved.keys()
    usable = []
    for r in records:
        dropped = bad_targets.intersection(r.targets)
        if dropped:
            warnings_out.append(
                f"record '{r.id}' excluded (unresolvable targets {sorted(dropped)})")
        else:
            usable.append(r)
    return {t: ind.vector for t, ind in resolved.items()}, usable, warnings_out
