"""The package namespace: every exported name exists, so a deleted or
renamed function fails here rather than at a user's star import, and every
other top-level name of the package is read by its code. Importing the
command line loads neither scipy nor ``numpy.ma``."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import relaxmdim


def test_every_exported_name_is_an_attribute():
    missing = [name for name in relaxmdim.__all__ if not hasattr(relaxmdim, name)]
    assert missing == []


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from relaxmdim import *", namespace)
    assert set(relaxmdim.__all__) <= set(namespace)


def _defined(node: ast.stmt) -> set[str]:
    """The names a module-level statement binds: a function, a class or
    the targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _read(node: ast.stmt) -> set[str]:
    """The names and attributes a statement's code reads; docstrings and
    other strings are not code."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)
    }


def test_every_top_level_name_is_exported_or_read():
    # a function, class or constant that is not exported and that no other
    # statement of the package reads is dead code
    statements = [
        (path.stem, node)
        for path in sorted(Path(relaxmdim.__file__).parent.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    read = [(_defined(node), _read(node)) for _, node in statements]
    unread = [
        f"{module}.{name}"
        for module, node in statements
        for name in sorted(_defined(node))
        if not name.startswith("__")
        and name not in relaxmdim.__all__
        and not any(name in names and name not in own for own, names in read)
    ]
    assert unread == []


def test_cli_import_loads_neither_scipy_nor_numpy_ma():
    # every command pays for its imports; scipy is for the Dijkstra
    # fallback only, and numpy.ma comes in with np.unique and its kin
    code = (
        "import sys, relaxmdim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
