"""Flat key-value config files with dotted sections.

One `section.key = value` assignment per line; `#` starts a comment. The
same format drives training configs (train.* / split.*) and synthetic
corpus specs (synth.*). Each command rejects keys outside the sections it
reads, so a misspelt section is an error rather than a silent default.
"""

from __future__ import annotations

from dataclasses import MISSING, fields

from .data import SplitSpec, SyntheticSpec
from .errors import ConfigError, utf8_or
from .trainer import TrainConfig


def parse_kv_file(path, sections: tuple[str, ...]) -> dict[str, str]:
    """The file's assignments; every key must be `<section>.<name>` for one
    of `sections`."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh, utf8_or(ConfigError, path):
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
            if "." not in key or key.split(".", 1)[0] not in sections:
                raise ConfigError(f"{path}:{line_no}: key '{key}' is outside the "
                                  f"{', '.join(s + '.*' for s in sections)} sections")
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


def _section(kv: dict[str, str], section: str) -> dict[str, str]:
    """The `section.*` entries of `kv`, keyed without the section prefix."""
    prefix = section + "."
    return {k[len(prefix):]: v for k, v in kv.items() if k.startswith(prefix)}


def _fields(section: str, entries: dict[str, str], cls,
            renames: dict[str, str] | None = None) -> dict:
    """Entries as keyword arguments of dataclass `cls`.

    Each key names a field that has a default (`renames` maps a field to
    another key), and its value is parsed as that default's type. Unknown
    keys raise.
    """
    renames = renames or {}
    by_key = {renames.get(f.name, f.name): f for f in fields(cls)
              if f.default is not MISSING}
    out = {}
    for key, value in entries.items():
        if key not in by_key:
            raise ConfigError(f"unknown config key '{section}.{key}'")
        field = by_key[key]
        out[field.name] = _convert(f"{section}.{key}", value, type(field.default))
    return out


def train_config_from(kv: dict[str, str]) -> TrainConfig:
    return TrainConfig(**_fields("train", _section(kv, "train"), TrainConfig,
                                 {"lam": "lambda"})).validate()


def split_spec_from(kv: dict[str, str], corpus_targets: set[str]) -> SplitSpec:
    """Split settings; `split.unseen_targets` is mandatory."""
    entries = _section(kv, "split")
    if "unseen_targets" not in entries:
        raise ConfigError("config must declare split.unseen_targets")
    unseen = _csv_list(entries.pop("unseen_targets"))
    if not unseen:
        raise ConfigError("split.unseen_targets must name at least one target")
    seen = sorted(corpus_targets - set(unseen))
    return SplitSpec(seen_targets=seen, unseen_targets=unseen,
                     **_fields("split", entries, SplitSpec)).validate()


def synth_spec_from(kv: dict[str, str]) -> SyntheticSpec:
    entries = _section(kv, "synth")
    if "targets" not in entries:
        raise ConfigError("synthetic spec must declare synth.targets")
    targets = _csv_list(entries.pop("targets"))
    rates = {}
    for key in [k for k in entries if k.startswith("label_rate.")]:
        rates[key[len("label_rate."):]] = _convert(f"synth.{key}", entries.pop(key), float)
    n_posts = _convert("synth.n_posts", entries.pop("n_posts", "1000"), int)
    return SyntheticSpec(n_posts=n_posts, target_names=targets, label_rates=rates,
                         **_fields("synth", entries, SyntheticSpec)).validate()
