"""Hypernetwork-generated, low-rank, target-specific debiasing filters.

For each filter layer l a shared 2-layer MLP maps a target indicator to a
flat vector of K*K + 2*d*K + K entries, reshaped (in fixed order) into the
low-rank factors U (d x K), W (K x K), V (K x (d+1)). Their product U W V is
the concatenated [weight | bias] of that layer. Multi-target posts use the
mean of the per-target matrices (parameter ensemble, not embedding fusion).

Filters are applied in factored form and the d x (d+1) matrix is never
built on the training or scoring paths. Each layer is affine in its
parameters, so the ensemble of a post i with target set S_i is exactly

    h_i <- sum_t M[i, t] * U_t W_t (V_t[:, :d] h_i + V_t[:, d]),

with M[i, t] = 1/|S_i| for t in S_i and 0 elsewhere. The generator runs
once per layer over a (T, indicator_dim) stack of indicators. The
gap-alignment loss works in factor space too (`filter_gram`).
`assemble_theta` is the only dense path; `export-filters` and tests use it.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamGroup, Tensor
from .errors import ConfigError, DimensionError, GraphError


def factor_arity(d: int, rank: int) -> int:
    """Generated entries per filter layer: K^2 + 2dK + K."""
    return rank * rank + 2 * d * rank + rank


def dense_arity(d: int) -> int:
    """Entries of a dense d x (d+1) filter layer, for the memory comparison."""
    return d * (d + 1)


@dataclass
class LowRankFactors:
    """The three generated factors of one filter layer for T targets."""

    u: Tensor  # T x d x K
    w: Tensor  # T x K x K
    v: Tensor  # T x K x (d+1)


class HyperFilter:
    """Per-layer generator MLPs that emit low-rank filter factors."""

    def __init__(self, d: int, rank: int, depth: int, indicator_dim: int,
                 rng, hidden: int = 128):
        if rank < 1 or depth < 1:
            raise DimensionError("rank and depth must be >= 1")
        self.d = d
        self.rank = rank
        self.depth = depth
        self.indicator_dim = indicator_dim
        self.hidden = hidden
        self.group = ParamGroup("hyper")
        arity = factor_arity(d, rank)
        for layer in range(depth):
            self.group.add(f"L{layer}.W0", ad.glorot_init((indicator_dim, hidden), rng))
            self.group.add(f"L{layer}.b0", np.zeros(hidden))
            self.group.add(f"L{layer}.W1", ad.glorot_init((hidden, arity), rng))
            self.group.add(f"L{layer}.b1", np.zeros(arity))

    @property
    def arity(self) -> int:
        return factor_arity(self.d, self.rank)

    def generate_factors(self, indicators: np.ndarray, layer: int) -> LowRankFactors:
        """Run generator `layer` on a (T, indicator_dim) stack; reshape U, W, V."""
        if layer < 0 or layer >= self.depth:
            raise DimensionError(f"layer {layer} out of range for depth {self.depth}")
        if indicators.ndim != 2 or indicators.shape[1] != self.indicator_dim:
            raise DimensionError(
                f"indicators shape {indicators.shape} != (T, {self.indicator_dim})")
        # einsum rather than BLAS matmul: each target's row is computed the
        # same way whatever else is in the stack, so a target's filter is
        # bitwise independent of the other targets generated with it
        g = self.group.tensors
        h = ad.relu(ad.einsum("ti,ih->th", ad.constant(indicators), g[f"L{layer}.W0"])
                    + g[f"L{layer}.b0"])
        flat = ad.einsum("th,ha->ta", h, g[f"L{layer}.W1"]) + g[f"L{layer}.b1"]
        t, d, k = len(indicators), self.d, self.rank
        u = ad.reshape(flat[:, :d * k], (t, d, k))
        w = ad.reshape(flat[:, d * k:d * k + k * k], (t, k, k))
        v = ad.reshape(flat[:, d * k + k * k:], (t, k, d + 1))
        return LowRankFactors(u=u, w=w, v=v)


def target_theta(hyper: HyperFilter, indicators: np.ndarray) -> list[LowRankFactors]:
    """Per-layer factors for a (T, indicator_dim) stack of target indicators."""
    return [hyper.generate_factors(indicators, layer) for layer in range(hyper.depth)]


def assemble_theta(factors: LowRankFactors) -> Tensor:
    """U W V, the (T, d, d+1) dense [weight | bias] of one layer, for inspection."""
    uw = ad.einsum("tdk,tkl->tdl", factors.u, factors.w)
    return ad.einsum("tdl,tlj->tdj", uw, factors.v)


def membership(target_sets: Sequence[Collection[str]], names: Sequence[str]) -> np.ndarray:
    """The (n, T) 0/1 matrix of which of `names` each post's target set names.

    A name repeated within a set counts once. An unknown name raises
    ConfigError, an empty set GraphError.
    """
    column = {name: j for j, name in enumerate(names)}
    out = np.zeros((len(target_sets), len(names)))
    for row, tset in zip(out, target_sets):
        if not tset:
            raise GraphError("empty target set")
        for t in tset:
            if t not in column:
                raise ConfigError(f"unknown target '{t}'")
            row[column[t]] = 1.0
    return out


def ensemble_params(hyper: HyperFilter, indicators: dict[str, np.ndarray],
                    target_sets: Sequence[Collection[str]]
                    ) -> tuple[list[LowRankFactors], np.ndarray]:
    """Factors of every target in `indicators` plus each post's mixing row.

    Targets are stacked in sorted-name order, so the result does not depend
    on the order of `indicators`. M[i, t] is 1/|S_i| for the targets t in
    post i's set S_i and 0 elsewhere.
    """
    if not indicators:
        raise GraphError("ensemble_params called with an empty target table")
    names = sorted(indicators)
    mix = membership(target_sets, names)
    mix /= mix.sum(axis=1, keepdims=True)
    factors = target_theta(hyper, np.stack([indicators[n] for n in names]))
    return factors, mix


def apply_filter(s: Tensor, factors: list[LowRankFactors], mix: np.ndarray) -> Tensor:
    """Filter post embeddings s (n, d) through the factored layers.

    Each target's layer is affine, U W (V[:, :d] h + V[:, d]); a post's
    output is the M-weighted sum over targets. ReLU between layers,
    identity at the end so the output lives in the same space as s.
    """
    t, d, _ = factors[0].u.shape
    if s.data.ndim != 2 or s.data.shape[1] != d:
        raise DimensionError(f"apply_filter: embeddings shape {s.shape} vs d={d}")
    if mix.shape != (s.data.shape[0], t):
        raise DimensionError(
            f"apply_filter: mixing shape {mix.shape} vs ({s.data.shape[0]}, {t})")
    m = ad.constant(mix)
    h = s
    for i, f in enumerate(factors):
        z = ad.einsum("tkj,nj->ntk", f.v[:, :, :d], h) + f.v[:, :, d]
        uw = ad.einsum("tdk,tkl->tdl", f.u, f.w)
        h = ad.einsum("nt,ntd->nd", m, ad.einsum("tdl,ntl->ntd", uw, z))
        if i < len(factors) - 1:
            h = ad.relu(h)
    return h


def filter_gram(factors: list[LowRankFactors]) -> list[Tensor]:
    """Per layer, the (T, T) Frobenius inner products of the targets' U W V.

    <P_a V_a, P_b V_b>_F = sum_kl (P_a^T P_b)_kl (V_a V_b^T)_kl with P = U W,
    which costs O(T^2 K^2 d) instead of O(T^2 d^2).
    """
    grams = []
    for f in factors:
        uw = ad.einsum("tdk,tkl->tdl", f.u, f.w)
        left = ad.einsum("adk,bdl->abkl", uw, uw)
        right = ad.einsum("akj,blj->abkl", f.v, f.v)
        grams.append(ad.einsum("abkl,abkl->ab", left, right))
    return grams
