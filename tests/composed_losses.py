"""The loss terms of `objectives` written out as separate tape ops, as
references for its one-node losses, with `gap_constants` for the constants
that `loss_reg` is given.

Each reference runs the numpy operations of its term in the same order as
the node does, so the values are bitwise equal, while its gradient comes
from the chain rule through every op. The ops that no fit or prediction
reaches, and that the package tape therefore leaves out, are `ad.node`s
here: softplus, sqrt and sigmoid, subtraction and division, and sums. The
tests that build scalars from tensors read `tsum` from here too.
"""

from __future__ import annotations

import numpy as np

from fairfilter import autodiff as ad


def _tensor(x):
    return x if isinstance(x, ad.Tensor) else ad.constant(x)


def sub(a, b):
    b = _tensor(b)
    return ad.node(a.data - b.data, (a, b), lambda g: (g, -g))


def div(a, b):
    b = _tensor(b)
    return ad.node(a.data / b.data, (a, b),
                   lambda g: (g / b.data, -g * a.data / (b.data * b.data)))


def tsum(a, axis=None, keepdims=False):
    return ad.node(a.data.sum(axis=axis, keepdims=keepdims), (a,),
                   lambda g: (np.broadcast_to(g if axis is None or keepdims
                                              else np.expand_dims(g, axis), a.data.shape),))


def sigmoid(a):
    _, out, slope = ad.logistic(a.data)
    return ad.node(out, (a,), lambda g: (g * slope,))


def softplus(a):
    e = np.exp(-np.abs(a.data))
    slope = np.where(a.data >= 0, 1.0, e) / (1.0 + e)
    return ad.node(np.maximum(a.data, 0.0) + np.log1p(e), (a,), lambda g: (g * slope,))


def sqrt(a):
    out = np.sqrt(a.data)
    return ad.node(out, (a,), lambda g: (g * 0.5 / out,))


def mean(a):
    return tsum(a) * (1.0 / a.data.size)


def loss_dis(logits, p):
    per_entry = sub(softplus(logits), ad.constant(np.asarray(p, dtype=np.float64)) * logits)
    return mean(tsum(per_entry, axis=1))


def loss_hate(logits, y):
    z = ad.view(logits, shape=(-1,))
    return mean(sub(softplus(z),
                    ad.constant(np.asarray(y, dtype=np.float64).reshape(-1)) * z))


def loss_imi(logits, logits_prime):
    z = ad.view(logits, shape=(-1,))
    z_prime = ad.view(logits_prime, shape=(-1,))
    return mean(sub(softplus(z_prime), softplus(z)) + sigmoid(z) * sub(z, z_prime))


def gap_constants(indicators):
    units = np.stack([vec / np.linalg.norm(vec) for vec in indicators])
    return units @ units.T, np.triu(np.ones((len(units),) * 2), k=1)


def loss_reg(constants, grams):
    ind_cos, pairs = constants
    n = len(ind_cos)
    eye = np.eye(n)
    total = ad.constant(0.0)
    for gram in grams:
        sq_norms = tsum(gram * eye, axis=1)
        cos = div(gram, sqrt(ad.view(sq_norms, shape=(n, 1))
                             * ad.view(sq_norms, shape=(1, n))))
        gap = sub(cos, ind_cos)
        total = total + tsum(gap * gap * pairs)
    return total


def synergic(l_hate, l_dis, l_reg, l_imi, lam, gamma, mu):
    return sub(l_hate + mu * l_reg + gamma * l_imi, lam * l_dis)
