"""Flat key-value config files with dotted sections.

One `section.key = value` assignment per line; `#` starts a comment. The
same format drives training configs (train.* / split.*) and synthetic
corpus specs (synth.*).
"""

from __future__ import annotations

from .data import SplitSpec, SyntheticSpec
from .errors import ConfigError
from .trainer import TrainConfig

# config-file key -> TrainConfig field
_TRAIN_KEYS = {
    "lambda": ("lam", float),
    "gamma": ("gamma", float),
    "mu": ("mu", float),
    "rank": ("rank", int),
    "depth": ("depth", int),
    "hidden_dim": ("hidden_dim", int),
    "n_dis": ("n_dis", int),
    "n_filter": ("n_filter", int),
    "batch_size": ("batch_size", int),
    "lr": ("lr", float),
    "lr_dis": ("lr_dis", float),
    "max_rounds": ("max_rounds", int),
    "patience": ("patience", int),
    "seed": ("seed", int),
    "threshold": ("threshold", float),
    "hyper_hidden": ("hyper_hidden", int),
    "head_hidden": ("head_hidden", int),
    "adapter_depth": ("adapter_depth", int),
}


def parse_kv_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ConfigError(f"{path}:{line_no}: empty key")
            if key in out:
                raise ConfigError(f"{path}:{line_no}: duplicate key '{key}'")
            out[key] = value
    return out


def _convert(key: str, value: str, kind):
    try:
        if kind is bool:
            if value.lower() in ("true", "1", "yes"):
                return True
            if value.lower() in ("false", "0", "no"):
                return False
            raise ValueError(value)
        return kind(value)
    except ValueError:
        raise ConfigError(f"key '{key}': cannot parse '{value}' as {kind.__name__}") from None


def _csv_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def train_config_from(kv: dict[str, str]) -> TrainConfig:
    fields = {}
    for key, value in kv.items():
        if not key.startswith("train."):
            continue
        short = key[len("train."):]
        if short not in _TRAIN_KEYS:
            raise ConfigError(f"unknown training key '{key}'")
        name, kind = _TRAIN_KEYS[short]
        fields[name] = _convert(key, value, kind)
    return TrainConfig(**fields).validate()


def split_spec_from(kv: dict[str, str], corpus_targets: set[str]) -> SplitSpec:
    """Split settings; `split.unseen_targets` is mandatory."""
    if "split.unseen_targets" not in kv:
        raise ConfigError("config must declare split.unseen_targets")
    unseen = _csv_list(kv["split.unseen_targets"])
    if not unseen:
        raise ConfigError("split.unseen_targets must name at least one target")
    seen = sorted(corpus_targets - set(unseen))
    spec = SplitSpec(
        seen_targets=seen,
        unseen_targets=unseen,
        validation_fraction=_convert("split.validation_fraction",
                                     kv.get("split.validation_fraction", "0.15"), float),
        balance_eval=_convert("split.balance_eval",
                              kv.get("split.balance_eval", "true"), bool),
        seed=_convert("split.seed", kv.get("split.seed", "0"), int),
    )
    return spec.validate()


def synth_spec_from(kv: dict[str, str]) -> SyntheticSpec:
    if "synth.targets" not in kv:
        raise ConfigError("synthetic spec must declare synth.targets")
    targets = _csv_list(kv["synth.targets"])
    rates = {}
    for key, value in kv.items():
        if key.startswith("synth.label_rate."):
            rates[key[len("synth.label_rate."):]] = _convert(key, value, float)
    spec = SyntheticSpec(
        n_posts=_convert("synth.n_posts", kv.get("synth.n_posts", "1000"), int),
        target_names=targets,
        label_rates=rates,
        signal_scale=_convert("synth.signal_scale",
                              kv.get("synth.signal_scale", "1.0"), float),
        bias_scale=_convert("synth.bias_scale", kv.get("synth.bias_scale", "0.0"), float),
        noise=_convert("synth.noise", kv.get("synth.noise", "0.0"), float),
        dim=_convert("synth.dim", kv.get("synth.dim", "32"), int),
        seed=_convert("synth.seed", kv.get("synth.seed", "0"), int),
    )
    return spec.validate()
