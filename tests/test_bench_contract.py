"""The benchmark's span list names package functions that still exist.

`bench/run.py` patches every `(name, owner, attribute, workloads)` entry of
its SPANS list for a traced run. The script is read as source here, never
imported or run, and each `owner.attribute` is resolved on the `fairfilter`
package, so a renamed method fails Tier-1 rather than a traced bench run.
"""

import ast
import importlib
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def span_entries() -> list[tuple[str, str, str]]:
    """(span name, owner expression, attribute) for every SPANS entry."""
    tree = ast.parse(RUN.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets)):
            return [(ast.literal_eval(name), ast.unparse(owner), ast.literal_eval(attr))
                    for name, owner, attr, _ in (entry.elts for entry in node.value.elts)]
    raise AssertionError(f"no SPANS list in {RUN}")


ENTRIES = span_entries()


def test_span_list_is_found():
    assert len(ENTRIES) >= 20


@pytest.mark.parametrize("name,owner,attr", ENTRIES, ids=[e[0] for e in ENTRIES])
def test_span_target_exists(name, owner, attr):
    module, *path = owner.split(".")
    obj = importlib.import_module(f"fairfilter.{module}")
    for part in path:
        obj = getattr(obj, part)
    assert callable(getattr(obj, attr, None)), f"span {name}: {owner}.{attr} is gone"
