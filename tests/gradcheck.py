"""Finite-difference gradient checking of `trainer.synergic_losses`, the
filter-phase objective that `fit` trains.

The check draws all parameters at O(1) scale and rejects draws where any
ReLU pre-activation sits within a guard band of its kink, since central
differences are invalid across that non-smooth point, or where a head's
logit is large enough to saturate its loss (see `draw_is_smooth`).
"""

from __future__ import annotations

import numpy as np

from fairfilter import autodiff as ad
from fairfilter.data import PostRecord
from fairfilter.trainer import LOSS_KEYS, Model, TrainConfig, synergic_losses

KINK_GUARD = 1e-4
LOGIT_GUARD = 12.0


def build_case(seed: int, d: int = 16, rank: int = 2, depth: int = 2,
               n_targets: int = 4, d_in: int = 6, indicator_dim: int = 4,
               hyper_hidden: int = 4, head_hidden: int = 4,
               batch: int = 6, param_scale: float = 0.5):
    """A model with freshly drawn O(1) parameters plus a random batch."""
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(hidden_dim=d, rank=rank, depth=depth,
                      hyper_hidden=hyper_hidden, head_hidden=head_hidden,
                      seed=seed)
    targets = [f"t{i}" for i in range(n_targets)]
    indicators = {t: rng.normal(size=indicator_dim) for t in targets}
    model = Model(cfg, d_in=d_in, indicator_dim=indicator_dim,
                  seen_targets=targets, indicators=indicators)
    for group in model.groups.values():
        for tensor in group.tensors.values():
            tensor.data = rng.normal(scale=param_scale, size=tensor.data.shape)
    records = []
    for i in range(batch):
        k = int(rng.integers(1, 3))
        chosen = rng.choice(targets, size=k, replace=False)
        records.append(PostRecord(id=f"p{i}", targets=tuple(sorted(chosen)),
                                  label=int(rng.integers(0, 2)),
                                  embedding=rng.normal(size=d_in)))
    return model, records


def draw_is_smooth(model: Model, records) -> bool:
    """Reject draws whose forward pass runs close to a ReLU kink or whose
    head logits exceed LOGIT_GUARD in magnitude.

    The losses are smooth at any logit, but a saturated logit flattens the
    loss so far that some coordinates' slopes fall to the float64 rounding
    floor of a central difference: without the logit guard, a saturated draw
    fails at hyper.L0.W1[79] with rel err 1.7e-4 on an FD slope of 6.6e-7.
    The inputs of `ad.softplus` are exactly the three head outputs.
    """
    min_kink = [np.inf]
    max_logit = [0.0]
    orig_relu, orig_softplus = ad.relu, ad.softplus

    def relu_probe(t):
        if t.data.size:
            min_kink[0] = min(min_kink[0], float(np.min(np.abs(t.data))))
        return orig_relu(t)

    def softplus_probe(t):
        max_logit[0] = max(max_logit[0], float(np.max(np.abs(t.data))))
        return orig_softplus(t)

    ad.relu, ad.softplus = relu_probe, softplus_probe
    try:
        synergic_losses(model, records)
    finally:
        ad.relu, ad.softplus = orig_relu, orig_softplus
    return min_kink[0] > KINK_GUARD and max_logit[0] < LOGIT_GUARD


def smooth_case(seed: int, **kwargs):
    """First smooth draw at or after `seed` (deterministic)."""
    for offset in range(50):
        model, records = build_case(seed + 1000 * offset, **kwargs)
        if draw_is_smooth(model, records):
            return model, records
    raise AssertionError("no smooth parameter draw found")


def analytic_grads(model: Model, records, loss_name: str) -> dict:
    losses = synergic_losses(model, records)
    ad.backward(losses[loss_name])
    out = {}
    for gname, group in model.groups.items():
        for tname, tensor in group.tensors.items():
            grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
            out[(gname, tname)] = grad.copy()
            tensor.grad = None
    return out


def fd_check_all(model: Model, records, eps: float = 1e-5,
                 rel_tol: float = 1e-4, abs_floor: float = 1e-6) -> float:
    """Compare every parameter coordinate's FD slope with the reverse-mode
    gradient, for all five losses at once. Returns the worst relative error.
    """
    grads = {name: analytic_grads(model, records, name) for name in LOSS_KEYS}
    worst = 0.0
    for gname, group in model.groups.items():
        for tname, tensor in group.tensors.items():
            flat = tensor.data.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + eps
                plus = {k: v.item() for k, v in synergic_losses(model, records).items()}
                flat[i] = original - eps
                minus = {k: v.item() for k, v in synergic_losses(model, records).items()}
                flat[i] = original
                for name in LOSS_KEYS:
                    fd = (plus[name] - minus[name]) / (2.0 * eps)
                    an = grads[name][(gname, tname)].reshape(-1)[i]
                    rel = abs(fd - an) / max(abs(fd), abs(an), abs_floor)
                    worst = max(worst, rel)
                    assert rel < rel_tol, (
                        f"{name} grad mismatch at {gname}.{tname}[{i}]: "
                        f"fd={fd:.3e} analytic={an:.3e} rel={rel:.3e}")
    return worst
