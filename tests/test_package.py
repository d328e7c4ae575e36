"""The package namespace: every exported name exists, so a deleted or
renamed function fails here rather than at a user's star import. Importing
the command line loads neither scipy nor ``numpy.ma``."""

from __future__ import annotations

import subprocess
import sys

import relaxmdim


def test_every_exported_name_is_an_attribute():
    missing = [name for name in relaxmdim.__all__ if not hasattr(relaxmdim, name)]
    assert missing == []


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from relaxmdim import *", namespace)
    assert set(relaxmdim.__all__) <= set(namespace)


def test_cli_import_loads_neither_scipy_nor_numpy_ma():
    # every command pays for its imports; scipy is for the Dijkstra
    # fallback only, and numpy.ma comes in with np.unique and its kin
    code = (
        "import sys, relaxmdim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
