"""Word-vector store, target indicators, and the trainable encoder adapter.

Target indicators are the mean of a target name's word vectors; they are the
hypernetwork's conditioning input and require no training, which is what
makes zero-shot filters for unseen targets possible (`build_indicator`, which
only `trainer.resolve_indicators` calls). `encode_posts` is the adapter's
one entry (`EncoderAdapter` only holds its parameters): it reads embedding
rows, as `stack_embeddings` builds them from records, and returns the
encoding as the pair (last layer's input, last weight), (x, W0) at the
default depth 1, so a head's first layer folds the weight into its own
instead of forming the (n, d) encoding (`autodiff.dense`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamGroup, Tensor
from .errors import DataError, utf8_or

_TOKEN_SPLIT = re.compile(r"[\s_\-]+")


@dataclass
class WordVectorStore:
    """Immutable token -> vector map loaded from a GloVe-style text file;
    tokens are case-folded."""

    vectors: dict[str, np.ndarray]
    dim: int

    def lookup(self, token: str) -> np.ndarray | None:
        return self.vectors.get(token.lower())


@dataclass
class TargetIndicator:
    """A target's indicator vector plus the tokens that produced it."""

    tokens: list[str]
    skipped: list[str]
    vector: np.ndarray


def load_word_vectors(path) -> WordVectorStore:
    """Parse a 'token v1 ... vD' text file; every line must share one D and
    every entry must be finite. Tokens are stored lower-case; when two lines
    fold to the same token the first one is kept, as files list tokens by
    descending frequency."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open(path, "r", encoding="utf-8") as fh, utf8_or(DataError, path):
        for line_no, line in enumerate(fh, start=1):
            parts = line.rstrip().split(" ")
            if len(parts) < 2:
                raise DataError(f"line {line_no}: expected 'token v1 ... vD'")
            try:
                vec = np.asarray([float(p) for p in parts[1:]], dtype=np.float64)
            except ValueError:
                raise DataError(f"line {line_no}: non-numeric vector entry") from None
            if not np.all(np.isfinite(vec)):
                raise DataError(f"line {line_no}: non-finite vector entry")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise DataError(
                    f"line {line_no}: vector has {len(vec)} entries, expected {dim}")
            vectors.setdefault(parts[0].lower(), vec)
    if dim is None:
        raise DataError(f"word-vector file '{path}' is empty")
    return WordVectorStore(vectors=vectors, dim=dim)


def save_word_vectors(vectors: dict[str, np.ndarray], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for token, vec in vectors.items():
            fh.write(token + " " + " ".join(repr(float(v)) for v in vec) + "\n")


def tokenize_target(name: str) -> list[str]:
    tokens = [t for t in _TOKEN_SPLIT.split(name.lower()) if t]
    if not tokens:
        raise DataError(f"target name '{name}' yields no tokens")
    return tokens


def build_indicator(name: str, store: WordVectorStore) -> TargetIndicator:
    """Mean of the resolvable token vectors; OOV tokens are skipped, not zeroed."""
    tokens = tokenize_target(name)
    found, skipped, vecs = [], [], []
    for token in tokens:
        vec = store.lookup(token)
        if vec is None:
            skipped.append(token)
        else:
            found.append(token)
            vecs.append(vec)
    if not vecs:
        raise DataError(f"target '{name}': no tokens resolvable in the word-vector store")
    vector = np.mean(vecs, axis=0)
    if not np.any(vector):
        raise DataError(f"target '{name}': its word vectors average to all zeros")
    return TargetIndicator(tokens=found, skipped=skipped, vector=vector)


class EncoderAdapter:
    """Parameters of the trainable linear map from raw post embeddings into
    the model space, which `encode_posts` runs.

    Stands in for the finetunable text encoder; a bias-free single layer by
    default, with optional extra depth.
    """

    def __init__(self, d_in: int, d_out: int, rng, depth: int = 1):
        self.d_in = d_in
        self.depth = depth
        self.group = ParamGroup("enc")
        dims = [d_in] + [d_out] * depth
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            if a == b:
                self.group.add(f"W{i}", np.eye(a))
            else:
                self.group.add(f"W{i}", ad.glorot_init((a, b), rng))


def stack_embeddings(records) -> np.ndarray:
    """The records' stored embeddings as one (n, d_in) array."""
    for r in records:
        if r.embedding is None:
            raise DataError(f"record '{r.id}' carries no embedding")
    return np.stack([r.embedding for r in records])


def encode_posts(x: np.ndarray, adapter: EncoderAdapter) -> tuple[Tensor, Tensor]:
    """Run embedding rows x (n, d_in) through the adapter, whose group gets the
    gradients; the (n, d) encoding is the pair (last input, last weight)."""
    if x.shape[1] != adapter.d_in:
        raise DataError(f"adapter expects embeddings of dim {adapter.d_in}, got {x.shape[1]}")
    h = ad.constant(x)
    for i in range(adapter.depth - 1):
        h = ad.relu(ad.matmul(h, adapter.group.tensors[f"W{i}"]))
    return h, adapter.group.tensors[f"W{adapter.depth - 1}"]
