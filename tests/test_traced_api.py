"""The public functions the benchmark traces exist, so a change that deletes
or renames one fails here rather than in a traced benchmark run."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced() -> list[tuple[str, str]]:
    """The (layer, name) pairs of the literal ``TRACED`` in bench/tracing.py."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]
    ]
    traced = ast.literal_eval(value)
    return [(layer, name) for layer, names in traced.items() for name in names]


@pytest.mark.parametrize("layer,name", _traced())
def test_traced_name_is_a_public_callable(layer, name):
    module = importlib.import_module(f"relaxmdim.{layer}")
    assert callable(getattr(module, name, None)), f"relaxmdim.{layer}.{name}"
