"""The package's public names."""

from __future__ import annotations

import specsim


def test_every_public_name_resolves():
    assert len(set(specsim.__all__)) == len(specsim.__all__)
    assert [name for name in specsim.__all__ if not hasattr(specsim, name)] == []
    namespace: dict = {}
    exec("from specsim import *", namespace)
    assert set(specsim.__all__) <= namespace.keys()
