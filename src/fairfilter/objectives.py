"""The four loss terms and their synergic combination.

All batch losses are means over posts so that coefficient defaults transfer
across batch sizes; the gap-alignment term is a pure sum over unordered
target pairs.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, GraphError


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
    per_entry = ad.softplus(logits) - ad.constant(p) * logits
    return ad.tmean(ad.tsum(per_entry, axis=1))


def loss_reg(indicators: dict[str, np.ndarray], grams: list[Tensor]) -> Tensor:
    """Semantic gap alignment over unordered pairs of training targets.

    For every pair, the squared difference between the indicators' cosine and
    the flattened filter parameters' cosine, summed over filter layers.
    `grams[l]` holds layer l's filter inner products <theta_a, theta_b> with
    rows and columns in sorted-name order (see `hyperfilter.filter_gram`).
    """
    names = sorted(indicators)
    n = len(names)
    if n < 2:
        raise ConfigError("gap alignment needs at least two training targets")
    if any(g.data.shape != (n, n) for g in grams):
        raise DimensionError(f"gap alignment: every Gram matrix must be ({n}, {n})")

    def unit(vec: np.ndarray, what: str) -> np.ndarray:
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise GraphError(f"degenerate cosine: zero-norm {what}")
        return vec / norm

    units = np.stack([unit(indicators[t], f"indicator '{t}'") for t in names])
    ind_cos = units @ units.T
    pairs = np.triu(np.ones((n, n)), k=1)
    eye = np.eye(n)

    total = ad.constant(0.0)
    for gram in grams:
        sq_norms = ad.tsum(gram * eye, axis=1)
        if np.any(sq_norms.data == 0.0):
            raise GraphError("degenerate cosine: zero-norm filter parameters")
        cos = gram / ad.sqrt(ad.reshape(sq_norms, (n, 1)) * ad.reshape(sq_norms, (1, n)))
        gap = cos - ind_cos
        total = total + ad.tsum(gap * gap * pairs)
    return total


def loss_hate(logits: Tensor, y: np.ndarray) -> Tensor:
    """Binary cross-entropy with logits of the hate classifier: mean over the
    batch of softplus(z) - y*z."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if logits.data.size != y.size:
        raise DimensionError(f"hate loss: logits {logits.shape} vs labels {y.shape}")
    z = ad.reshape(logits, (-1,))
    return ad.tmean(ad.softplus(z) - ad.constant(y) * z)


def loss_imi(logits: Tensor, logits_prime: Tensor) -> Tensor:
    """Imitation loss: KL(filtered prediction || unfiltered prediction).

    Both logits must come from the same classifier head. With z filtered and
    z' unfiltered, the two-class KL(sigmoid(z) || sigmoid(z')) equals
    softplus(z') - softplus(z) + sigmoid(z)*(z - z'); mean over the batch.
    """
    if logits.data.shape != logits_prime.data.shape:
        raise DimensionError(
            f"imitation loss: shapes {logits.shape} vs {logits_prime.shape}")
    z = ad.reshape(logits, (-1,))
    z_prime = ad.reshape(logits_prime, (-1,))
    kl = ad.softplus(z_prime) - ad.softplus(z) + ad.sigmoid(z) * (z - z_prime)
    return ad.tmean(kl)


def synergic(l_hate: Tensor, l_dis: Tensor, l_reg: Tensor, l_imi: Tensor,
             lam: float, gamma: float, mu: float) -> Tensor:
    """Filter-phase objective: l_hate + mu*l_reg + gamma*l_imi - lam*l_dis.

    The minus sign makes the filter phase ascend the frozen discriminator's
    loss.
    """
    if lam < 0 or gamma < 0 or mu < 0:
        raise ConfigError("loss coefficients must be non-negative")
    return l_hate + mu * l_reg + gamma * l_imi - lam * l_dis

