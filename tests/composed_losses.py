"""The loss terms of `objectives` written out as separate tape ops, as
references for its one-node losses.

Each reference runs the numpy operations of its term in the same order as
the node does, so the values are bitwise equal, while its gradient comes
from the chain rule through every op. softplus and sqrt, which the package
tape does not need, are elementwise `ad.node`s here.
"""

from __future__ import annotations

import numpy as np

from fairfilter import autodiff as ad


def softplus(a):
    e = np.exp(-np.abs(a.data))
    slope = np.where(a.data >= 0, 1.0, e) / (1.0 + e)
    return ad.node(np.maximum(a.data, 0.0) + np.log1p(e), (a,), lambda g: (g * slope,))


def sqrt(a):
    out = np.sqrt(a.data)
    return ad.node(out, (a,), lambda g: (g * 0.5 / out,))


def mean(a):
    return ad.tsum(a) * (1.0 / a.data.size)


def loss_dis(logits, p):
    per_entry = softplus(logits) - ad.constant(np.asarray(p, dtype=np.float64)) * logits
    return mean(ad.tsum(per_entry, axis=1))


def loss_hate(logits, y):
    z = ad.reshape(logits, (-1,))
    return mean(softplus(z) - ad.constant(np.asarray(y, dtype=np.float64).reshape(-1)) * z)


def loss_imi(logits, logits_prime):
    z = ad.reshape(logits, (-1,))
    z_prime = ad.reshape(logits_prime, (-1,))
    return mean(softplus(z_prime) - softplus(z) + ad.sigmoid(z) * (z - z_prime))


def loss_reg(indicators, grams):
    n = len(indicators)
    units = np.stack([vec / np.linalg.norm(vec) for vec in indicators])
    ind_cos = units @ units.T
    pairs = np.triu(np.ones((n, n)), k=1)
    eye = np.eye(n)
    total = ad.constant(0.0)
    for gram in grams:
        sq_norms = ad.tsum(gram * eye, axis=1)
        cos = gram / sqrt(ad.reshape(sq_norms, (n, 1)) * ad.reshape(sq_norms, (1, n)))
        gap = cos - ind_cos
        total = total + ad.tsum(gap * gap * pairs)
    return total


def synergic(l_hate, l_dis, l_reg, l_imi, lam, gamma, mu):
    return l_hate + mu * l_reg + gamma * l_imi - lam * l_dis
