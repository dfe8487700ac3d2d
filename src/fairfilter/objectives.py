"""The four loss terms and their synergic combination.

All batch losses are means over posts so that coefficient defaults transfer
across batch sizes; the gap-alignment term is a pure sum over unordered
target pairs against indicator cosines formed once per model (`gap_constants`).
Targets are positions in the caller's order, never names.

Each term is one tape node with a closed-form backward (`ad.node`), and so
is their synergic sum. A value is computed with the numpy operations, in
the order, of the term's formula written out as separate tape ops, so it
is bitwise the same; the gradients agree with that form to rounding.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, DivergenceError, GraphError


def _bce(logits: Tensor, p: np.ndarray) -> Tensor:
    """Binary cross-entropy with logits as one node: with z the logits in
    the (n, k) shape of the labels p, per entry softplus(z) - p*z, summed
    over the k columns, mean over the n rows. The slope is (sigmoid(z) - p)/n."""
    z = logits.data.reshape(p.shape)
    softplus, prob, _ = ad.logistic(z)
    n = len(z)
    value = (softplus - p * z).sum(axis=1).sum() * (1.0 / n)
    shape = logits.data.shape
    return ad.node(value, (logits,), lambda g: (((prob - p) * (g / n)).reshape(shape),))


def loss_dis(logits: Tensor, p: np.ndarray) -> Tensor:
    """Binary cross-entropy with logits of the target discriminator.

    Per entry softplus(z) - p*z, which is -log of the probability sigmoid(z)
    gives the label; summed over target entries, mean over posts. p is the
    multi-hot ground truth over the seen-target list.
    """
    p = np.asarray(p, dtype=np.float64)
    if logits.data.shape != p.shape:
        raise DimensionError(
            f"discriminator loss: logits {logits.shape} vs labels {p.shape}")
    return _bce(logits, p)


def gap_constants(indicators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`loss_reg`'s constants for a (T, indicator_dim) indicator stack, which
    a model forms once (`trainer.Model.gap_constants`): the (T, T) cosines of
    its rows, each scaled by its own norm, and the upper-triangle pair mask."""

    def unit(vec: np.ndarray, row: int) -> np.ndarray:
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise GraphError(f"degenerate cosine: zero-norm indicator in row {row}")
        return vec / norm

    units = np.stack([unit(vec, row) for row, vec in enumerate(indicators)])
    n = len(units)
    return units @ units.T, np.triu(np.ones((n, n)), k=1)


def loss_reg(constants: tuple[np.ndarray, np.ndarray], grams: list[Tensor]) -> Tensor:
    """Semantic gap alignment over unordered pairs of training targets.

    For every pair, the squared difference between the indicators' cosine and
    the flattened filter parameters' cosine, summed over filter layers.
    Target t is row and column t of each layer's filter Gram matrix `grams[l]`
    (`hyperfilter.filter_gram`) and of `constants`, from `gap_constants`.
    A cosine is G_ab / sqrt(G_aa G_bb); one node covers every layer. A filter
    that is all zeros has none, a DivergenceError that names its rows.
    """
    ind_cos, pairs = constants
    n = len(ind_cos)
    if n < 2:
        raise ConfigError("gap alignment needs at least two training targets")
    if any(g.data.shape != (n, n) for g in grams):
        raise DimensionError(f"gap alignment: every Gram matrix must be ({n}, {n})")
    total = 0.0
    layers = []
    for layer, gram in enumerate(grams):
        sq_norms = np.diagonal(gram.data)
        dead = np.flatnonzero(sq_norms == 0.0).tolist()
        if dead:
            raise DivergenceError(f"degenerate cosine: layer {layer}'s generated filter is "
                                  f"all zeros for target rows {dead} (a dead generator)")
        root = np.sqrt(sq_norms.reshape(n, 1) * sq_norms.reshape(1, n))
        cos = gram.data / root
        gap = cos - ind_cos
        total = total + (gap * gap * pairs).sum()
        layers.append((sq_norms, root, cos, gap))

    def grads(g):
        # through cos = G / root directly, and through the squared norms G_aa:
        # d cos_ab / d G_aa = -cos_ab / (2 G_aa), from both a row and a column
        out = []
        for sq_norms, root, cos, gap in layers:
            upstream = 2.0 * g * gap * pairs
            flow = upstream * cos
            out.append(upstream / root
                       - np.diag((flow.sum(axis=1) + flow.sum(axis=0)) / (2.0 * sq_norms)))
        return out

    return ad.node(total, tuple(grams), grads)


def loss_hate(logits: Tensor, y: np.ndarray) -> Tensor:
    """Binary cross-entropy with logits of the hate classifier: mean over the
    batch of softplus(z) - y*z."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if logits.data.size != y.size:
        raise DimensionError(f"hate loss: logits {logits.shape} vs labels {y.shape}")
    return _bce(logits, y.reshape(-1, 1))


def loss_imi(logits: Tensor, logits_prime: Tensor) -> Tensor:
    """Imitation loss: KL(filtered prediction || unfiltered prediction).

    Both logits must come from the same classifier head. With z filtered and
    z' unfiltered, the two-class KL(sigmoid(z) || sigmoid(z')) equals
    softplus(z') - softplus(z) + sigmoid(z)*(z - z'); mean over the batch.
    The slopes are sigmoid'(z)(z - z') and sigmoid(z') - sigmoid(z), over n.
    """
    if logits.data.shape != logits_prime.data.shape:
        raise DimensionError(
            f"imitation loss: shapes {logits.shape} vs {logits_prime.shape}")
    z = logits.data.reshape(-1)
    z_prime = logits_prime.data.reshape(-1)
    softplus, prob, slope = ad.logistic(z)
    softplus_prime, prob_prime, _ = ad.logistic(z_prime)
    diff = z - z_prime
    n = z.size
    value = (softplus_prime - softplus + prob * diff).sum() * (1.0 / n)
    shape = logits.data.shape
    return ad.node(value, (logits, logits_prime),
                   lambda g: ((slope * diff * (g / n)).reshape(shape),
                              ((prob_prime - prob) * (g / n)).reshape(shape)))


def synergic(l_hate: Tensor, l_dis: Tensor, l_reg: Tensor, l_imi: Tensor,
             lam: float, gamma: float, mu: float) -> Tensor:
    """Filter-phase objective: l_hate + mu*l_reg + gamma*l_imi - lam*l_dis,
    one weighted-sum node.

    The minus sign makes the filter phase ascend the frozen discriminator's
    loss.
    """
    if lam < 0 or gamma < 0 or mu < 0:
        raise ConfigError("loss coefficients must be non-negative")
    value = l_hate.data + mu * l_reg.data + gamma * l_imi.data - lam * l_dis.data
    return ad.node(value, (l_hate, l_dis, l_reg, l_imi),
                   lambda g: (g, -lam * g, mu * g, gamma * g))
