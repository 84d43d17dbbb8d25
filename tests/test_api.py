"""Every name a module exports resolves, so a deletion cannot leave a stale
entry in `__all__` behind, and every exported name and every public member
of an exported class has a reader in the package itself, so no public
function, method or field exists only for its tests.  A member is read only
through an attribute: a local variable of the same name is not a read.
Every defaulted parameter of an exported function or public method is set
by some call in the package, so no keyword is a knob only tests turn."""

import ast
import dataclasses
import importlib
import inspect
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

# Defaulted parameters that no package call sets, each kept on purpose.
UNSET_DEFAULTS = {
    "main.argv": "the entry point's argument list, which the tests and perfbench pass",
    "audit_sumset_cubes.side_factor": "the wide-cube positive control of acceptance criterion 8",
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


def _package_calls() -> dict:
    """Map each called name (a `Name` id or an `Attribute` attr) over the
    package source to (most positional arguments of one call, keywords
    set): a starred or `**` argument sets every parameter."""
    calls = {}
    for path in Path(hypwhitney.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            every = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords)
            positional, keywords = calls.get(name, (0, set()))
            calls[name] = (max(positional, float("inf") if every else len(node.args)),
                           keywords | {k.arg for k in node.keywords} | ({"*"} if every else set()))
    return calls


def _defaulted_parameters() -> dict:
    """Map "function.parameter" and "Class.method.parameter" to (the called
    name, the parameter's position after self or cls, its name), for every
    defaulted parameter of an exported function or of a public method of an
    exported class."""
    functions = []
    for name in MODULES:
        module = importlib.import_module(f"hypwhitney.{name}")
        for export in module.__all__:
            obj = getattr(module, export)
            if inspect.isfunction(obj):
                functions.append((export, export, obj, 0))
            elif isinstance(obj, type) and not issubclass(obj, BaseException):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(member):  # an instance method: skip self
                        functions.append((f"{export}.{attr}", attr, member, 1))
                    elif isinstance(member, (classmethod, staticmethod)):
                        functions.append((f"{export}.{attr}", attr, getattr(obj, attr), 0))
    out = {}
    for key, called, fn, skip in functions:
        for pos, param in enumerate(list(inspect.signature(fn).parameters.values())[skip:]):
            if param.default is not inspect.Parameter.empty:
                keyword_only = param.kind is inspect.Parameter.KEYWORD_ONLY
                out[f"{key}.{param.name}"] = (called, float("inf") if keyword_only else pos, param.name)
    return out


def test_every_default_is_set_by_a_package_caller():
    calls = _package_calls()
    unset = set()
    for key, (called, pos, param) in _defaulted_parameters().items():
        if called in UNCALLED:
            continue
        positional, keywords = calls.get(called, (0, set()))
        if pos >= positional and param not in keywords and "*" not in keywords:
            unset.add(key)
    assert sorted(unset - set(UNSET_DEFAULTS)) == []
    # an exception that gains a caller, or stops existing, is dropped
    assert sorted(set(UNSET_DEFAULTS) - unset) == []


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
