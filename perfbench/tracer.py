"""Spans around the public functions of each pathlift layer, from outside.

`Tracer.install` replaces every public function and method of the layer
modules with a wrapper that records a span: name, start, end, parent
span and op id.  Functions are rebound in every pathlift module that
imported them (so `lifting.prokhorov` and `cli.verify_lift` are traced
too), and methods are patched on their classes, with `__post_init__`
(or `__init__`) recorded as `init`.  `uninstall` restores the originals.

Spans stay in memory in flat arrays until the run ends.  Probes attached
to a span name read the call's arguments and result to keep per-op
tallies; their own time is removed from every later timestamp, so they
cost no layer any self time.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

LAYERS = ("cli", "serialize", "lifting", "cube", "randomvars", "prokhorov", "spaces", "omega")

# Called once per rational in every report; a span each would cost more
# than the call and swamp the serialize numbers.
UNTRACED = frozenset({"serialize.frac_str", "serialize.parse_frac"})

Probe = Callable[["Tracer", int, tuple, object], None]


class Tracer:
    def __init__(self, modules: dict[str, object], probes: dict[str, Probe] | None = None):
        """`modules` maps every loaded pathlift module name to the module."""
        self.modules = modules
        self.probes = probes or {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("I")
        self.span_parent = array("i")
        self.span_op = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_id = 0
        self.tallies: dict[int, dict] = defaultdict(dict)
        self._stack = [-1]
        self._paused = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._name_id(name)
        probe = self.probes.get(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self._stack

        def wrapper(*args, **kwargs):
            idx = len(names)
            parent = stack[-1]
            names.append(nid)
            parents.append(parent)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter() - self._paused)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter() - self._paused
                stack.pop()
            if probe is not None:
                began = perf_counter()
                probe(self, parent, args, result)
                self._paused += perf_counter() - began
            return result

        return functools.update_wrapper(wrapper, fn)

    def tally(self) -> dict:
        """The probe tallies of the current op."""
        return self.tallies[self.op_id]

    def parent_name(self, parent: int) -> str | None:
        return self.names[self.span_name[parent]] if parent >= 0 else None

    # -- patching -------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_class(self, layer: str, cls: type) -> None:
        members = vars(cls)
        init = "__post_init__" if "__post_init__" in members else "__init__"
        for attr, obj in list(members.items()):
            if attr == init:
                label = "init"
            elif attr.startswith("_"):
                continue
            else:
                label = attr
            name = f"{layer}.{cls.__name__}.{label}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self._wrap(obj.__func__, name)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, name))

    def install(self) -> None:
        wrappers: dict[Callable, Callable] = {}
        for layer in LAYERS:
            module = self.modules[f"pathlift.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._patch_class(layer, obj)
                elif inspect.isfunction(obj) and f"{layer}.{attr}" not in UNTRACED:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as raw columns in native byte order after a one-line JSON header."""
        columns = {
            "name": self.span_name,
            "parent": self.span_parent,
            "op": self.span_op,
            "start": self.span_start,
            "end": self.span_end,
        }
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "columns": [[key, col.typecode, col.itemsize] for key, col in columns.items()],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for col in columns.values():
                col.tofile(handle)


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> array:
    """Each span's duration minus the part of it that its child spans cover.

    Spans must be listed in order of start time, each parent before its
    children.  Children may overlap each other or stick out of their
    parent; only the union of their intervals inside the parent counts.
    """
    out = array("d", (e - s for s, e in zip(starts, ends)))
    reach = array("d", starts)  # per span: right end of the covered part so far
    for s, e, p in zip(starts, ends, parents):
        if p < 0:
            continue
        s, e = max(s, reach[p]), min(e, ends[p])
        if e > s:
            out[p] -= e - s
            reach[p] = e
    return out
