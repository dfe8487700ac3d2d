"""Corpus loading, seen/unseen target splits, and synthetic corpus generation.

Corpora are JSONL files, one post per line with fields: id, text and/or
embedding, targets (non-empty list of names), label (0/1).
"""

from __future__ import annotations

import json
from collections.abc import Collection, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DivergenceError, GraphError, utf8_or


@dataclass
class PostRecord:
    """One labeled post; at least one of text/embedding must be present."""

    id: str
    targets: tuple[str, ...]
    label: int
    text: str | None = None
    embedding: np.ndarray | None = None

    def validate(self) -> "PostRecord":
        if not self.targets:
            raise DataError(f"record '{self.id}': empty target set")
        if self.text is None and self.embedding is None:
            raise DataError(f"record '{self.id}': neither text nor embedding present")
        if isinstance(self.label, bool) or self.label not in (0, 1):
            raise DataError(f"record '{self.id}': label must be 0 or 1, got {self.label}")
        if self.embedding is not None and not np.isfinite(self.embedding).all():
            raise DataError(f"record '{self.id}': non-finite embedding values")
        return self

    @property
    def target_set(self) -> frozenset[str]:
        return frozenset(self.targets)

    def to_json(self) -> dict:
        out: dict = {"id": self.id, "targets": list(self.targets), "label": self.label}
        if self.text is not None:
            out["text"] = self.text
        if self.embedding is not None:
            out["embedding"] = self.embedding.tolist()
        return out


def membership(target_sets: Sequence[Collection[str]], names: Sequence[str]) -> np.ndarray:
    """The (n, T) 0/1 matrix of which of `names` each post's target set names.

    A name repeated within a set counts once; an unknown name, or one listed
    twice in `names`, raises ConfigError, and an empty set GraphError.
    """
    column = {name: j for j, name in enumerate(names)}
    if len(column) < len(names):
        repeated = sorted({n for n in names if list(names).count(n) > 1})
        raise ConfigError(f"target names listed more than once: {repeated}")
    out = np.zeros((len(target_sets), len(names)))
    for row, tset in zip(out, target_sets):
        if not tset:
            raise GraphError("empty target set")
        for t in tset:
            if t not in column:
                raise ConfigError(f"unknown target '{t}'")
            row[column[t]] = 1.0
    return out


def select_records(records: list[PostRecord], ids, what: str) -> list[PostRecord]:
    """The records whose id is in `ids`, in corpus order; ids that no record
    has raise DataError, naming the first five as `what` ids."""
    wanted = set(ids)
    selected = [r for r in records if r.id in wanted]
    missing = wanted.difference(r.id for r in selected)
    if missing:
        raise DataError(f"{what} ids missing from corpus: {sorted(missing)[:5]} ...")
    return selected


@dataclass
class SplitSpec:
    """How to carve a corpus into train/validation/test around unseen targets."""

    seen_targets: list[str]
    unseen_targets: list[str]
    validation_fraction: float = 0.15
    balance_eval: bool = True
    seed: int = 0

    def validate(self) -> "SplitSpec":
        if not self.seen_targets or not self.unseen_targets:
            raise ConfigError("both seen and unseen target lists must be non-empty")
        overlap = set(self.seen_targets) & set(self.unseen_targets)
        if overlap:
            raise ConfigError(f"targets cannot be both seen and unseen: {sorted(overlap)}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        return self


@dataclass
class SyntheticSpec:
    """Recipe for a corpus with planted target-label spurious correlations."""

    n_posts: int
    target_names: list[str]
    label_rates: dict[str, float]
    signal_scale: float = 1.0
    bias_scale: float = 0.0
    noise: float = 0.0
    dim: int = 32
    seed: int = 0

    def validate(self) -> "SyntheticSpec":
        if self.n_posts < 0 or self.seed < 0:
            raise ConfigError("n_posts and seed must be >= 0")
        if not self.target_names:
            raise ConfigError("target_names must be non-empty")
        repeated = sorted({t for t in self.target_names if self.target_names.count(t) > 1})
        if repeated:
            raise ConfigError(f"target names listed more than once: {repeated}")
        missing = [t for t in self.target_names if t not in self.label_rates]
        if missing:
            raise ConfigError(f"label_rates missing for targets: {missing}")
        unknown = sorted(set(self.label_rates) - set(self.target_names))
        if unknown:
            raise ConfigError(f"label_rates given for targets not in target_names: "
                              f"{unknown}")
        for t, rate in self.label_rates.items():
            if not 0.0 < rate < 1.0:
                raise ConfigError(f"label rate for '{t}' must lie in (0, 1), got {rate}")
        if not np.all(np.isfinite([self.signal_scale, self.bias_scale, self.noise])):
            raise ConfigError("signal_scale, bias_scale and noise must be finite")
        if self.signal_scale <= 0:
            raise ConfigError("signal_scale must be > 0")
        if self.bias_scale < 0 or self.noise < 0:
            raise ConfigError("bias_scale and noise must be >= 0")
        if self.dim <= 0:
            raise ConfigError("dim must be positive")
        return self


@dataclass
class CorpusSplit:
    train: list[PostRecord]
    validation: list[PostRecord]
    test: list[PostRecord]

    def manifest(self) -> dict:
        return {
            "train": [r.id for r in self.train],
            "validation": [r.id for r in self.validation],
            "test": [r.id for r in self.test],
        }


_JSON_NUMBERS = frozenset((int, float))  # what json decodes a number to; bool is neither


def _parse_record(obj: dict, line_no: int) -> PostRecord:
    if not isinstance(obj, dict):
        raise DataError(f"line {line_no}: expected a JSON object")
    try:
        rid = str(obj["id"])
        targets = obj["targets"]
        label = obj["label"]
    except KeyError as exc:
        raise DataError(f"line {line_no}: missing field {exc}") from None
    if not isinstance(targets, list) or not all(isinstance(t, str) for t in targets):
        raise DataError(f"line {line_no}: targets must be a list of strings")
    embedding = None
    if "embedding" in obj and obj["embedding"] is not None:
        try:
            embedding = np.asarray(obj["embedding"], dtype=np.float64)
        except (TypeError, ValueError):
            raise DataError(f"line {line_no}: embedding must be a numeric array") from None
        if embedding.ndim != 1:
            raise DataError(f"line {line_no}: embedding must be one-dimensional")
        # float64 conversion also takes JSON strings and booleans
        if not _JSON_NUMBERS.issuperset(map(type, obj["embedding"])):
            raise DataError(f"line {line_no}: embedding must be a numeric array")
        if not embedding.size:
            raise DataError(f"line {line_no}: embedding is empty")
    record = PostRecord(id=rid, targets=tuple(targets), label=label,
                        text=obj.get("text"), embedding=embedding)
    try:
        return record.validate()
    except DataError as exc:
        raise DataError(f"line {line_no}: {exc}") from None


def load_jsonl(path) -> list[PostRecord]:
    """Parse and validate a JSONL corpus; any bad line aborts the whole load.

    Every embedding in one corpus must have the same number of entries.
    """
    records: list[PostRecord] = []
    seen_ids: set[str] = set()
    width: int | None = None
    with open(path, "r", encoding="utf-8") as fh, utf8_or(DataError, path):
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"line {line_no}: malformed JSON ({exc.msg})") from None
            except RecursionError:
                raise DataError(f"line {line_no}: JSON nested too deeply") from None
            record = _parse_record(obj, line_no)
            if record.id in seen_ids:
                raise DataError(f"line {line_no}: duplicate id '{record.id}'")
            if record.embedding is not None:
                if width is None:
                    width = len(record.embedding)
                elif len(record.embedding) != width:
                    raise DataError(f"line {line_no}: embedding has "
                                    f"{len(record.embedding)} entries, expected {width}")
            seen_ids.add(record.id)
            records.append(record)
    return records


def save_jsonl(records: list[PostRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json()) + "\n")


def strict_dumps(obj, path, **kwargs) -> str:
    """`json.dumps` with no NaN or Infinity token: a non-finite value raises
    DivergenceError naming `path`, the file the text is for."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise DivergenceError(f"'{path}' would hold a non-finite value ({exc})") from None


def save_json(obj, path) -> None:
    """Write `obj` as indented, key-sorted strict JSON ending in a newline."""
    text = strict_dumps(obj, path, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _balance(records: list[PostRecord], rng: np.random.Generator) -> list[PostRecord]:
    """Trim the majority class at random so class counts differ by <= 1."""
    pos = [r for r in records if r.label == 1]
    neg = [r for r in records if r.label == 0]
    keep = min(len(pos), len(neg))
    if len(pos) > keep:
        idx = rng.choice(len(pos), size=keep, replace=False)
        pos = [pos[i] for i in sorted(idx)]
    if len(neg) > keep:
        idx = rng.choice(len(neg), size=keep, replace=False)
        neg = [neg[i] for i in sorted(idx)]
    merged = pos + neg
    merged.sort(key=lambda r: r.id)
    return merged


def make_split(records: list[PostRecord], spec: SplitSpec) -> CorpusSplit:
    """Route unseen-target posts to test; split the rest into train/validation."""
    spec.validate()
    unseen = set(spec.unseen_targets)
    present = set()
    for r in records:
        present.update(r.targets)
    absent = [t for t in spec.unseen_targets if t not in present]
    if absent:
        raise ConfigError(f"unseen targets absent from the corpus: {absent}")

    rng = np.random.default_rng(spec.seed)
    test_pool = [r for r in records if unseen & r.target_set]
    rest = [r for r in records if not (unseen & r.target_set)]

    perm = rng.permutation(len(rest))
    n_val = int(round(spec.validation_fraction * len(rest)))
    val_idx = set(perm[:n_val].tolist())
    validation = [rest[i] for i in range(len(rest)) if i in val_idx]
    train = [rest[i] for i in range(len(rest)) if i not in val_idx]

    if spec.balance_eval:
        validation = _balance(validation, rng)
        test_pool = _balance(test_pool, rng)
    return CorpusSplit(train=train, validation=validation, test=test_pool)


# posts per block when synth_generate adds the planted embeddings to the
# noise, which bounds the gathered copy at _BLOCK_ROWS x dim
_BLOCK_ROWS = 1024

# shared-to-specific mix of the planted target directions; cos between any
# two of them is 1/(1 + TARGET_SPREAD^2), mimicking how identity-group names
# cluster in real word-vector spaces
TARGET_SPREAD = 0.6


def synth_directions(spec: SyntheticSpec) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The corpus-level unit vectors: label direction u and one m_t per target.

    The m_t share a common component g and carry per-target orthogonal
    residuals, with u orthogonal to all of them, so removing target
    directions cannot touch the label axis and the m_t have the high,
    uniform pairwise cosines typical of group-name word vectors. Drawn once
    from spec.seed, before any per-post sampling, so the same spec always
    produces the same geometry.
    """
    n = len(spec.target_names)
    if spec.dim < n + 2:
        raise ConfigError(
            f"dim must be >= {n + 2} for {n} targets plus the label and shared axes")
    rng = np.random.default_rng(spec.seed)
    raw = rng.normal(size=(spec.dim, n + 2))
    q, r = np.linalg.qr(raw)
    q = q * np.sign(np.diag(r))
    u = q[:, 0]
    g = q[:, 1]
    scale = 1.0 / np.sqrt(1.0 + TARGET_SPREAD ** 2)
    directions = {name: (g + TARGET_SPREAD * q[:, j + 2]) * scale
                  for j, name in enumerate(spec.target_names)}
    return u, directions


def synth_indicators(spec: SyntheticSpec) -> dict[str, np.ndarray]:
    """Indicator vectors for the synthetic targets.

    The planted directions double as indicators: each target's word vector
    IS the direction its posts lean along, which is what lets a hypernetwork
    trained on seen targets produce sensible filters for unseen ones.
    """
    return synth_directions(spec)[1]


def synth_generate(spec: SyntheticSpec) -> list[PostRecord]:
    """Deterministic synthetic corpus.

    Per post: 1-3 targets uniformly, label ~ Bernoulli(mean label rate of the
    drawn targets), embedding a*y*u + (1/|T|) sum_t (1 + beta_t*(2y-1)) m_t
    + noise. The coupling strength beta_t ramps linearly from 0 to 2*beta
    across the target list (mean beta), so a classifier that exploits the
    leakage is accurate on heavily coupled targets and poor on the rest;
    that spread is the planted per-target disparity. Distinct label rates
    add prior-based disparity on top.

    The random stream is the corpus: one generator seeded spec.seed + 1
    makes, per post and in this order, exactly four calls, rng.integers(1,
    min(3, T) + 1) for the target count k, rng.choice(T, size=k,
    replace=False) for the targets (sorted), rng.random() for the label, and
    rng.normal(scale=noise, size=dim) for the noise (skipped when noise is
    0). All arithmetic on embeddings runs after the loop. The noiseless part
    of an embedding depends only on the post's targets and label, so it is
    formed once per (targets, label) pair that occurs, by the element-wise
    operations in the order above: (a*y)*u, then (coeff_t*m_t)/|T| added
    target by target, then the noise.
    """
    spec.validate()
    u, directions = synth_directions(spec)
    rng = np.random.default_rng(spec.seed + 1)
    names = list(spec.target_names)
    if len(names) == 1:
        betas = [spec.bias_scale]
    else:
        betas = list(spec.bias_scale * np.linspace(0.0, 2.0, len(names)))
    sets: dict[tuple[int, ...], tuple[tuple[str, ...], float]] = {}  # -> names, rate
    kinds: dict[tuple[tuple[int, ...], int], int] = {}  # (set, label) -> table row
    post_targets, labels, rows = [], [], []
    embeddings = np.empty((spec.n_posts, spec.dim))
    for i in range(spec.n_posts):
        k = int(rng.integers(1, min(3, len(names)) + 1))
        chosen = tuple(sorted(rng.choice(len(names), size=k, replace=False).tolist()))
        if chosen not in sets:
            targets = tuple(names[j] for j in chosen)
            sets[chosen] = targets, float(np.mean([spec.label_rates[t] for t in targets]))
        targets, rate = sets[chosen]
        y = int(rng.random() < rate)
        post_targets.append(targets)
        labels.append(y)
        rows.append(kinds.setdefault((chosen, y), len(kinds)))
        if spec.noise > 0:
            embeddings[i] = rng.normal(scale=spec.noise, size=spec.dim)

    def planted(chosen, y):
        x = spec.signal_scale * y * u
        for j in chosen:
            x = x + (1.0 + betas[j] * (2 * y - 1)) * directions[names[j]] / len(chosen)
        return x

    table = np.array([planted(*kind) for kind in kinds])
    rows = np.asarray(rows, dtype=np.intp)
    for lo in range(0, spec.n_posts, _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        if spec.noise > 0:
            embeddings[block] += table[rows[block]]  # noise + x is x + noise, bitwise
        else:
            embeddings[block] = table[rows[block]]
    width = len(str(max(spec.n_posts - 1, 0)))
    return [PostRecord(id=f"s{i:0{width}d}", targets=targets, label=y, embedding=row)
            for i, (targets, y, row) in enumerate(zip(post_targets, labels, embeddings))]
