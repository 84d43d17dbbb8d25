"""Every name a module exports resolves, so a deletion cannot leave a stale
entry in `__all__` behind, and every exported name and every public member
of an exported class has a reader in the package itself, so no public
function, method or field exists only for its tests.  A member is read only
through an attribute: a local variable of the same name is not a read."""

import ast
import dataclasses
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

# Public class members with no reader in the package, each kept on purpose.
UNREAD_MEMBERS = {
    "Carrier.subbox": "the sub-carriers of acceptance criterion 7",
    "QuadratureSpec.refine": "the y-refinement step of ROADMAP item 1",
    "GradHess.grad": "the Hessian-inverse oracle for gamma2 in tests/test_surface.py",
    "GradHess.hess": "the Hessian-inverse oracle for gamma2 in tests/test_surface.py",
}


def _package_reads() -> tuple:
    """The identifiers the package source reads, over all modules: the
    `Name` ids and the `Attribute` attrs in load context, apart (a field's
    own declaration or an assignment is not a read)."""
    names, attrs = set(), set()
    for path in Path(hypwhitney.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    return names, attrs


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
    names, attrs = _package_reads()
    used = names | attrs
    exported = {n for name in MODULES for n in importlib.import_module(f"hypwhitney.{name}").__all__}
    assert sorted(exported - used - set(UNCALLED)) == []
    # an exception that gains a caller, or stops being exported, is dropped
    assert sorted(set(UNCALLED) & used) == []
    assert set(UNCALLED) <= exported


def _public_members() -> dict:
    """Map "Class.member" to the member name, for every public name in the
    namespace of each exported non-exception class and every public
    dataclass field (a field without a default is not in the namespace)."""
    members = {}
    for name in MODULES:
        module = importlib.import_module(f"hypwhitney.{name}")
        for export in module.__all__:
            cls = getattr(module, export)
            if not isinstance(cls, type) or issubclass(cls, BaseException):
                continue
            fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
            for attr in set(vars(cls)) | fields:
                if not attr.startswith("_"):
                    members[f"{export}.{attr}"] = attr
    return members


def test_every_public_member_has_a_package_reader():
    used = _package_reads()[1]
    members = _public_members()
    unread = {key for key, attr in members.items() if attr not in used}
    assert sorted(unread - set(UNREAD_MEMBERS)) == []
    # an exception that gains a reader, or stops existing, is dropped
    assert sorted(set(UNREAD_MEMBERS) - unread) == []
