"""JSON parsing that refuses the NaN, Infinity and -Infinity tokens, which
Python's `json` reads and writes by default but no JSON standard allows."""

import json
from pathlib import Path


def _refuse(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_loads(text: str):
    return json.loads(text, parse_constant=_refuse)


def strict_load(path):
    """A .json file's value, or the list of a .jsonl file's line values."""
    text = Path(path).read_text(encoding="utf-8")
    if Path(path).suffix == ".jsonl":
        return [strict_loads(line) for line in text.splitlines()]
    return strict_loads(text)
