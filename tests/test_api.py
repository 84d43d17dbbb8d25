"""Every name a module exports resolves, so a deletion cannot leave a stale
entry in `__all__` behind, and every exported name has a caller in the
package itself, so no public function exists only for its tests."""

import ast
import importlib
from pathlib import Path

import pytest

import hypwhitney

MODULES = ("surface", "geometry", "scaling", "whitney", "extension", "reports", "cli")

# Exported names with no caller in the package, each kept on purpose.
UNCALLED = {
    "extend_points": "the dense kernel `extend_grid` is tested against",
    "count_pairs": "names the per-layer benchmark metric geometry.count_pairs.s",
    "containing_pairs": "names the per-layer benchmark metric whitney.containing_pairs.calls",
}


def _package_names() -> set:
    """Every identifier the package source reads: `Name` ids and
    `Attribute` attrs, over all modules."""
    names = set()
    for path in Path(hypwhitney.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"hypwhitney.{name}")
    exported = list(module.__all__)
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from hypwhitney.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_every_export_has_a_package_caller():
    used = _package_names()
    exported = {n for name in MODULES for n in importlib.import_module(f"hypwhitney.{name}").__all__}
    assert sorted(exported - used - set(UNCALLED)) == []
    # an exception that gains a caller, or stops being exported, is dropped
    assert sorted(set(UNCALLED) & used) == []
    assert set(UNCALLED) <= exported
