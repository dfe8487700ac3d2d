"""Hypernetwork-generated, low-rank, target-specific debiasing filters.

For each filter layer l a shared 2-layer MLP maps a target indicator to a
flat vector of K*K + 2*d*K + K entries, reshaped (in fixed order) into the
low-rank factors U (d x K), W (K x K), V (K x (d+1)). Their product U W V is
the concatenated [weight | bias] of that layer. Multi-target posts use the
mean of the per-target matrices (parameter ensemble, not embedding fusion).

Filters are applied in factored form and the d x (d+1) matrix is never
built on the training or scoring paths. The generator forms P = (U W)^T,
(K x d) per target, once; every consumer reads P and V. Each layer is
affine in its parameters, so the ensemble of a post i with target set S_i
is exactly

    h_i <- sum_t M[i, t] * P_t^T (V_t[:, :d] h_i + V_t[:, d]),

with M[i, t] = 1/|S_i| for t in S_i and 0 elsewhere. `apply_filter` runs
this as two matrix products per layer over the T*K rank components of all
targets side by side: z = h V' + b, with V' the (d, T*K) stack of the
V_t[:, :d] and b that of the V_t[:, d]; then h = (z * M_rep) P', with P'
the (T*K, d) stack of the P_t and M_rep = M with each column repeated K
times. The last layer's product is left to the consumer: `apply_filter`
returns the pair (z * M_rep, P'), of rank at most T*K, and a head's first
layer folds P' into its weight (`autodiff.dense`), so no (n, d) filtered
embedding is formed on the training or scoring paths.

`target_theta` is the generator's one entry (`HyperFilter` only holds its
parameters): one pass per layer over a (T, indicator_dim) stack of
indicators. Its row t, column t of M and row and column t of a Gram matrix
are one target, in the caller's order, and no function here sees a name.
The gap-alignment loss works in factor space too (`filter_gram`).
`assemble_theta` is the only dense path; `export-filters`, which generates
every requested target in one pass, and tests use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamGroup, Tensor
from .errors import DimensionError


def factor_arity(d: int, rank: int) -> int:
    """Generated entries per filter layer: K^2 + 2dK + K."""
    return rank * rank + 2 * d * rank + rank


@dataclass
class LowRankFactors:
    """One filter layer for T targets: P = (U W)^T and V."""

    p: Tensor  # T x K x d
    v: Tensor  # T x K x (d+1)


class HyperFilter:
    """Parameters of the per-layer generator MLPs; `target_theta` runs them."""

    def __init__(self, d: int, rank: int, depth: int, indicator_dim: int,
                 rng, hidden: int = 128):
        if rank < 1 or depth < 1:
            raise DimensionError("rank and depth must be >= 1")
        self.d = d
        self.rank = rank
        self.depth = depth
        self.indicator_dim = indicator_dim
        self.group = ParamGroup("hyper")
        arity = factor_arity(d, rank)
        for layer in range(depth):
            self.group.add(f"L{layer}.W0", ad.glorot_init((indicator_dim, hidden), rng))
            self.group.add(f"L{layer}.b0", np.zeros(hidden))
            self.group.add(f"L{layer}.W1", ad.glorot_init((hidden, arity), rng))
            self.group.add(f"L{layer}.b1", np.zeros(arity))


def target_theta(hyper: HyperFilter, indicators: np.ndarray) -> list[LowRankFactors]:
    """Per-layer factors for a (T, indicator_dim) stack of target indicators:
    each layer's generator reshapes its flat [U | W | V] output and forms
    P = (U W)^T."""
    if indicators.ndim != 2 or indicators.shape[1] != hyper.indicator_dim:
        raise DimensionError(
            f"indicators shape {indicators.shape} != (T, {hyper.indicator_dim})")
    g, x = hyper.group.tensors, ad.constant(indicators)
    t, d, k = len(indicators), hyper.d, hyper.rank
    factors = []
    for layer in range(hyper.depth):
        # einsum rather than BLAS matmul, here and for P: each target's row is
        # computed the same way whatever else is in the stack, so a target's
        # filter is bitwise independent of the other targets generated with it
        h = ad.relu(ad.einsum("ti,ih->th", x, g[f"L{layer}.W0"]) + g[f"L{layer}.b0"])
        flat = ad.einsum("th,ha->ta", h, g[f"L{layer}.W1"]) + g[f"L{layer}.b1"]
        u = ad.view(flat, np.s_[:, :d * k], shape=(t, d, k))
        w = ad.view(flat, np.s_[:, d * k:d * k + k * k], shape=(t, k, k))
        v = ad.view(flat, np.s_[:, d * k + k * k:], shape=(t, k, d + 1))
        factors.append(LowRankFactors(p=ad.einsum("tdk,tkl->tld", u, w), v=v))
    return factors


def assemble_theta(factors: LowRankFactors) -> Tensor:
    """U W V, the (T, d, d+1) dense [weight | bias] of one layer, for inspection."""
    return ad.einsum("tld,tlj->tdj", factors.p, factors.v)


def ensemble_params(hyper: HyperFilter, indicators: np.ndarray, targets: np.ndarray
                    ) -> tuple[list[LowRankFactors], np.ndarray]:
    """Factors of a (T, indicator_dim) indicator stack plus each post's mixing
    row from its (n, T) 0/1 membership over the stack's rows: M[i, t] is
    1/|S_i| for the targets t in post i's set S_i and 0 elsewhere."""
    return target_theta(hyper, indicators), targets / targets.sum(axis=1, keepdims=True)


def apply_filter(s: Tensor, factors: list[LowRankFactors], mix: np.ndarray
                 ) -> tuple[Tensor, Tensor]:
    """Filter post embeddings s (n, d) through the factored layers.

    Each target's layer is affine, P^T (V[:, :d] h + V[:, d]); a post's
    output is the M-weighted sum over targets, computed as two matrix
    products over all targets' stacked rank components (module docstring).
    ReLU between layers, identity at the end so the output lives in the
    same space as s. The last layer's (n, d) output is returned as the
    pair (z * M_rep, P').
    """
    t, k, d = factors[0].p.shape
    # the first `dense` checks s, but a misshapen mix would broadcast in z * M_rep
    if mix.shape != (s.data.shape[0], t):
        raise DimensionError(
            f"apply_filter: mixing shape {mix.shape} vs ({s.data.shape[0]}, {t})")
    # M_rep repeats each target's column K times, in the t-major order of V' and P'
    m_rep = ad.constant(np.repeat(mix, k, axis=1))
    h = s
    for i, f in enumerate(factors):
        v_in = ad.view(f.v, np.s_[:, :, :d], axes=(2, 0, 1), shape=(d, t * k))
        z = ad.dense(h, v_in, ad.view(f.v, np.s_[:, :, d], shape=(t * k,)))
        h = z * m_rep, ad.view(f.p, shape=(t * k, d))
        if i < len(factors) - 1:
            h = ad.relu(ad.matmul(*h))
    return h


def filter_gram(factors: list[LowRankFactors]) -> list[Tensor]:
    """Per layer, the (T, T) Frobenius inner products of the targets' U W V.

    <P_a^T V_a, P_b^T V_b>_F = sum_kl (P_a P_b^T)_kl (V_a V_b^T)_kl, which
    costs O(T^2 K^2 d) instead of O(T^2 d^2).
    """
    grams = []
    for f in factors:
        left = ad.einsum("akd,bld->abkl", f.p, f.p)
        right = ad.einsum("akj,blj->abkl", f.v, f.v)
        grams.append(ad.einsum("abkl,abkl->ab", left, right))
    return grams
