"""The two prediction heads: multi-label target discriminator and binary
hate-speech classifier. Both are 3-affine-layer MLPs that return logits; the
losses take logits directly (binary cross-entropy with logits), and
`ad.logistic` turns a logit into a probability where one is needed.

A head reads an (n, d) embedding either as a tensor or as the factored pair
(rows, basis) that the adapter and the filter return when the basis has
fewer rows than columns (`ad.factored`). On a pair, its first layer
computes rows·(basis·W0) + b0 (`ad.dense`); the filtered embeddings' basis
has T*K rows, the unfiltered ones' d_in at the default adapter depth.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError


class DiscriminatorHead:
    """Maps a (filtered) post embedding to independent per-target logits.

    The output arity is fixed at construction to the seen-target count; the
    entries are individual binary scores, not a normalized distribution.
    """

    def __init__(self, d: int, n_targets: int, rng, hidden: int = 256):
        if n_targets < 1:
            raise DimensionError("discriminator needs at least one target")
        self.group = ad.init_mlp("dis", [d, hidden, hidden, n_targets], rng)

    def forward(self, s: Tensor | tuple[Tensor, Tensor]) -> Tensor:
        return ad.mlp_forward(s, self.group)


class ClassifierHead:
    """Maps a post embedding to a single hatefulness logit.

    The same head object scores both filtered and unfiltered embeddings; the
    imitation loss depends on them sharing parameters.
    """

    def __init__(self, d: int, rng, hidden: int = 256):
        self.group = ad.init_mlp("hate", [d, hidden, hidden, 1], rng)

    def forward(self, s: Tensor | tuple[Tensor, Tensor]) -> Tensor:
        return ad.mlp_forward(s, self.group)


def decide(scores: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Binary decisions at a threshold; score > threshold means hateful."""
    return (np.asarray(scores) > threshold).astype(int)
