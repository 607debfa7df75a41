"""The formula index points at code that exists.

Every dotted name in an entry's ``where`` string (text in parentheses is a
note) must resolve to an attribute of the ``cartanlab`` package, so a
renamed or deleted function cannot leave a dangling reference behind.
Every check of the registry names an anchor of the index.
"""
import importlib
import re

from cartanlab.checks import REGISTRY
from cartanlab.formulas import INDEX


def _dotted_names(where: str) -> list:
    bare = re.sub(r"\([^)]*\)", "", where)
    return [tok for part in bare.split("/") for tok in part.split() if "." in tok]


def _resolves(name: str) -> bool:
    module, *attrs = name.split(".")
    try:
        obj = importlib.import_module(f"cartanlab.{module}")
    except ImportError:
        return False
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_index_where_names_resolve():
    names = [(anchor, name) for anchor, entry in INDEX.items() for name in _dotted_names(entry.where)]
    assert len(names) >= 60  # non-vacuous: the parser finds the index's names
    assert [(a, n) for a, n in names if not _resolves(n)] == []


def test_every_registry_anchor_is_indexed():
    assert [(spec.check_id, spec.anchor) for spec in REGISTRY if spec.anchor not in INDEX] == []
