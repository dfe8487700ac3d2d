"""Word-vector store, target indicators, and the trainable encoder adapter.

Target indicators are the mean of a target name's word vectors; they are the
hypernetwork's conditioning input and require no training, which is what
makes zero-shot filters for unseen targets possible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamGroup, Tensor
from .errors import DataError

_TOKEN_SPLIT = re.compile(r"[\s_\-]+")


@dataclass
class WordVectorStore:
    """Immutable token -> vector map loaded from a GloVe-style text file."""

    vectors: dict[str, np.ndarray]
    dim: int
    case_fold: bool = True

    def lookup(self, token: str) -> np.ndarray | None:
        if self.case_fold:
            token = token.lower()
        return self.vectors.get(token)

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass
class TargetIndicator:
    """A target's indicator vector plus the tokens that produced it."""

    name: str
    tokens: list[str]
    skipped: list[str]
    vector: np.ndarray


def load_word_vectors(path, case_fold: bool = True) -> WordVectorStore:
    """Parse a 'token v1 ... vD' text file; every line must share one D and
    every entry must be finite."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.rstrip().split(" ")
            if len(parts) < 2:
                raise DataError(f"line {line_no}: expected 'token v1 ... vD'")
            token = parts[0]
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
            if case_fold:
                token = token.lower()
            vectors[token] = vec
    if dim is None:
        raise DataError(f"word-vector file '{path}' is empty")
    return WordVectorStore(vectors=vectors, dim=dim, case_fold=case_fold)


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
    return TargetIndicator(name=name, tokens=found, skipped=skipped, vector=vector)


class EncoderAdapter:
    """Trainable linear map from raw post embeddings into the model space.

    Stands in for the finetunable text encoder; a bias-free single layer by
    default, with optional extra depth.
    """

    def __init__(self, d_in: int, d_out: int, rng, depth: int = 1):
        self.d_in = d_in
        self.d_out = d_out
        self.depth = depth
        self.group = ParamGroup("enc")
        dims = [d_in] + [d_out] * depth
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            if a == b:
                self.group.add(f"W{i}", np.eye(a))
            else:
                self.group.add(f"W{i}", ad.glorot_init((a, b), rng))

    def encode(self, x: Tensor) -> Tensor:
        """x is (n, d_in); returns (n, d_out) with gradient flow into the group."""
        if x.data.shape[1] != self.d_in:
            raise DataError(
                f"adapter expects embeddings of dim {self.d_in}, got {x.data.shape[1]}")
        h = x
        for i in range(self.depth):
            h = ad.matmul(h, self.group.tensors[f"W{i}"])
            if i < self.depth - 1:
                h = ad.relu(h)
        return h


def encode_posts(records, adapter: EncoderAdapter) -> Tensor:
    """Stack the records' stored embeddings and run them through the adapter."""
    rows = []
    for r in records:
        if r.embedding is None:
            raise DataError(f"record '{r.id}' carries no embedding")
        rows.append(r.embedding)
    x = ad.constant(np.stack(rows))
    return adapter.encode(x)
