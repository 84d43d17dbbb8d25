"""Per-layer spans recorded from outside the hypwhitney package.

No file of the package is instrumented.  `Tracer.install` replaces every
public function of the package in each package module that binds it, so the
span opens at the name the caller looks up at call time: a call from `cli`
into `whitney.audit_disjoint` goes through `hypwhitney.cli.audit_disjoint`,
a call from `whitney` into `surface.tau` through `hypwhitney.whitney.tau`.
A layer is a package module; a span is named `<defining module>.<function>`.

Spans live in memory as parallel integer arrays (name, start, end, parent,
and whether the span is the outermost open one of its name and of its
layer) and are written once, by `write_spans`, after the run.  Self time is
a span's duration minus the durations of its direct children.

Work counters are taken at the same boundaries ("computed" counters):
- `extension.y_nodes` / `extension.terms`: the y-node count is read from the
  kernel's own panel rule, `extension._y_panels`, as it returns to
  `extend_points`; terms are frequency points times y-nodes of each call;
- `whitney.disjoint_pair_tests`: samples times stored pairs, from the list
  lengths of the decomposition handed to `audit_disjoint`;
- `geometry.pairs_built` / `pairs_rejected`: the types that
  `make_type1_pair` returns.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import time
import types

import numpy as np

PACKAGE = "hypwhitney"
LAYERS = ("surface", "geometry", "scaling", "whitney", "extension", "reports", "cli")
# Private functions that sit on a layer boundary the benchmark reports.
PRIVATE_SPANS = {"cli._write_json", "cli._write_sweep_csv"}


class Tracer:
    """Spans and counters for one traced pass of a workload."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name_layer = array.array("b")
        self.name = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("i")
        self.outer_name = array.array("b")
        self.outer_layer = array.array("b")
        self._stack: list[int] = []
        self._name_depth: list[int] = []
        self._layer_depth = [0] * len(LAYERS)
        self.counters = {
            "extension.freq_points": 0,
            "extension.y_nodes": 0,
            "extension.terms": 0,
            "whitney.disjoint_pair_tests": 0,
            "geometry.pairs_built": 0,
            "geometry.pairs_rejected": 0,
        }
        self._last_y_nodes = 0
        self._patched: list[tuple] = []

    # ------------------------------------------------------------------
    # Installation

    def install(self) -> None:
        """Wrap every public package function at each module binding."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        geometry = modules[LAYERS.index("geometry")]
        extension = modules[LAYERS.index("extension")]
        hooks = {
            "geometry.make_type1_pair": self._count_pair(geometry.AdmissiblePair),
            "extension.extend_points": self._count_terms(extension.extend_points),
            "whitney.audit_disjoint": self._count_disjoint(
                modules[LAYERS.index("whitney")].audit_disjoint),
        }
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                span = _span_name(obj)
                if span is None:
                    continue
                if attr.startswith("_") and span not in PRIVATE_SPANS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, span, hooks.get(span))
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        # Counter only, no span: the panel count extend_points computes.
        self._patched.append((extension, "_y_panels", extension._y_panels))
        extension._y_panels = self._y_panel_probe(extension._y_panels)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _name_id(self, span: str) -> int:
        nid = self._name_ids.get(span)
        if nid is None:
            nid = len(self.span_names)
            self._name_ids[span] = nid
            self.span_names.append(span)
            self._name_layer.append(LAYERS.index(span.split(".", 1)[0]))
            self._name_depth.append(0)
        return nid

    def _wrap(self, fn, span: str, hook):
        nid = self._name_id(span)
        lid = self._name_layer[nid]
        name, start, end, parent = self.name, self.start, self.end, self.parent
        outer_name, outer_layer = self.outer_name, self.outer_layer
        stack, name_depth, layer_depth = self._stack, self._name_depth, self._layer_depth
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer_name.append(name_depth[nid] == 0)
            outer_layer.append(layer_depth[lid] == 0)
            end.append(0)
            start.append(0)
            stack.append(idx)
            name_depth[nid] += 1
            layer_depth[lid] += 1
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                name_depth[nid] -= 1
                layer_depth[lid] -= 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Computed work counters

    def _count_pair(self, pair_cls):
        counters = self.counters

        def hook(args, kwargs, result):
            if isinstance(result, pair_cls):
                counters["geometry.pairs_built"] += 1
            else:
                counters["geometry.pairs_rejected"] += 1

        return hook

    def _count_terms(self, fn):
        sig = inspect.signature(fn)

        def hook(args, kwargs, result):
            xis = sig.bind(*args, **kwargs).arguments["xis"]
            points = int(np.atleast_2d(np.asarray(xis)).shape[0])
            self.counters["extension.freq_points"] += points
            self.counters["extension.terms"] += points * self._last_y_nodes

        return hook

    def _count_disjoint(self, fn):
        sig = inspect.signature(fn)

        def hook(args, kwargs, result):
            bound = sig.bind(*args, **kwargs).arguments
            n, decomp = int(bound["n"]), bound["decomp"]
            stored = sum(len(lst) for lists in decomp.scales.values() for lst in lists)
            self.counters["whitney.disjoint_pair_tests"] += n * stored

        return hook

    def _y_panel_probe(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            panels = fn(*args, **kwargs)
            quad = sig.bind(*args, **kwargs).arguments["quad"]
            self._last_y_nodes = panels * quad.nodes_per_panel
            self.counters["extension.y_nodes"] += self._last_y_nodes
            return panels

        return probe

    # ------------------------------------------------------------------
    # Results

    def _arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "outer_name": np.frombuffer(self.outer_name, dtype=np.int8).astype(bool),
            "outer_layer": np.frombuffer(self.outer_layer, dtype=np.int8).astype(bool),
        }

    def summary(self) -> dict:
        """Per-function and per-layer totals, in seconds, plus counters.

        `<span>.s` sums the outermost spans of that name (recursion counts
        once), `<span>.calls` counts every span, `<layer>.s` sums the
        outermost spans of the layer, `<layer>.self_s` sums self times.
        """
        a = self._arrays()
        dur = (a["end"] - a["start"]).astype(np.float64) / 1e9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = dur - child
        layer = np.asarray(self._name_layer, dtype=np.int64)[a["name"]] if dur.size \
            else np.zeros(0, dtype=np.int64)
        out: dict[str, float] = {}
        for nid, span in enumerate(self.span_names):
            mine = a["name"] == nid
            out[f"{span}.calls"] = int(mine.sum())
            out[f"{span}.s"] = float(dur[mine & a["outer_name"]].sum())
        for lid, lname in enumerate(LAYERS):
            mine = layer == lid
            out[f"{lname}.s"] = float(dur[mine & a["outer_layer"]].sum())
            out[f"{lname}.self_s"] = float(self_s[mine].sum())
        out.update(self.counters)
        out["spans"] = int(dur.size)
        return out

    def write_spans(self, path) -> None:
        """Write every span (name, start, end, parent) as a compressed npz."""
        a = self._arrays()
        np.savez_compressed(path, names=np.array(self.span_names), name=a["name"],
                            start=a["start"], end=a["end"], parent=a["parent"])


def _span_name(obj):
    if not isinstance(obj, types.FunctionType):
        return None
    module = getattr(obj, "__module__", "") or ""
    prefix, _, layer = module.partition(".")
    if prefix != PACKAGE or layer not in LAYERS:
        return None
    return f"{layer}.{obj.__name__}"
