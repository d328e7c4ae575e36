"""The package namespace: every exported name exists, so a deleted or
renamed function fails here rather than at a user's star import."""

from __future__ import annotations

import relaxmdim


def test_every_exported_name_is_an_attribute():
    missing = [name for name in relaxmdim.__all__ if not hasattr(relaxmdim, name)]
    assert missing == []


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from relaxmdim import *", namespace)
    assert set(relaxmdim.__all__) <= set(namespace)
