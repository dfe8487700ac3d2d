"""The four loss terms and their synergic combination.

All batch losses are means over posts so that coefficient defaults transfer
across batch sizes; the gap-alignment term is a pure sum over unordered
target pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, GraphError


@dataclass
class LossBundle:
    """Scalar values of one step's loss terms, for telemetry."""

    l_hate: float
    l_dis: float
    l_reg: float
    l_imi: float
    synergic: float


def loss_dis(p_hat: Tensor, p: np.ndarray) -> Tensor:
    """Point-wise log loss of the target discriminator.

    Sum over target entries, mean over posts. p is the multi-hot ground
    truth over the seen-target list.
    """
    p = np.asarray(p, dtype=np.float64)
    if p_hat.data.shape != p.shape:
        raise DimensionError(
            f"discriminator loss: predictions {p_hat.shape} vs labels {p.shape}")
    p_const = ad.constant(p)
    per_entry = p_const * ad.log(p_hat) + (1.0 - p_const) * ad.log(1.0 - p_hat)
    return -ad.tmean(ad.tsum(per_entry, axis=1))


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


def loss_hate(y_hat: Tensor, y: np.ndarray) -> Tensor:
    """Binary cross-entropy of the hate classifier, mean over the batch."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y_hat.data.size != y.size:
        raise DimensionError(f"hate loss: predictions {y_hat.shape} vs labels {y.shape}")
    flat = ad.reshape(y_hat, (-1,))
    y_const = ad.constant(y)
    per_post = y_const * ad.log(flat) + (1.0 - y_const) * ad.log(1.0 - flat)
    return -ad.tmean(per_post)


def loss_imi(y_hat: Tensor, y_hat_prime: Tensor) -> Tensor:
    """Imitation loss: KL(filtered prediction || unfiltered prediction).

    Both predictions must come from the same classifier head; mean over the
    batch of the two-class KL divergence.
    """
    if y_hat.data.shape != y_hat_prime.data.shape:
        raise DimensionError(
            f"imitation loss: shapes {y_hat.shape} vs {y_hat_prime.shape}")
    a = ad.reshape(y_hat, (-1,))
    b = ad.reshape(y_hat_prime, (-1,))
    kl = a * (ad.log(a) - ad.log(b)) + (1.0 - a) * (ad.log(1.0 - a) - ad.log(1.0 - b))
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


def bundle(l_hate: Tensor, l_dis: Tensor, l_reg: Tensor, l_imi: Tensor,
           combined: Tensor) -> LossBundle:
    return LossBundle(l_hate=l_hate.item(), l_dis=l_dis.item(),
                      l_reg=l_reg.item(), l_imi=l_imi.item(),
                      synergic=combined.item())
