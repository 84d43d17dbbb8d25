"""Every name a module exports resolves, so a deletion cannot leave a stale
entry in `__all__` behind."""

import importlib

import pytest

MODULES = ("surface", "geometry", "scaling", "whitney", "extension", "reports", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"hypwhitney.{name}")
    exported = list(module.__all__)
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from hypwhitney.{name} import *", namespace)
    assert set(exported) <= set(namespace)
