"""The package's public surface."""

from __future__ import annotations

import mpmcs


def test_export_list_resolves_once():
    """Every ``__all__`` name exists on the package and is listed once, so
    ``from mpmcs import *`` cannot fail on a stale entry."""
    names = mpmcs.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(mpmcs, n)] == []
