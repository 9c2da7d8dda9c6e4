"""Spans around mapcalc's public functions, installed from outside the package.

Every public function of the seven library modules, and every public method
of Gf2Subspace and LinearOp, is replaced by a wrapper that records one span:
name id, parent span, start and end.  A function is rebound in every mapcalc
module that holds it under some name, because `from .gem import gons` makes
search.gons a binding of its own.  Spans live in flat arrays (24 bytes each)
and are written to disk once the traced pass is over.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("gem", "gf2", "spaces", "words", "theorems", "codec", "search")
ITEM_SPAN = "bench.item"


class Tracer:
    """In-memory span store with one open-span stack (single thread)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """fn with one span per call; for a generator, one span per next()."""
        nid = self.name_id(name)
        clock = time.perf_counter
        stack, end = self._stack, self.end
        add_name, add_parent = self.name.append, self.parent.append
        add_start, add_end = self.start.append, self.end.append

        def begin() -> int:
            i = len(end)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(i)
            add_start(clock())
            return i

        def finish(i: int) -> None:
            end[i] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = begin()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        finish(i)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin()
            try:
                return fn(*args, **kwargs)
            finally:
                finish(i)

        return traced

    def install(self) -> list[tuple[object, str, object]]:
        """Wrap the layers' public functions and the two gf2 classes' methods.

        Returns the undo list for uninstall().
        """
        modules = [mod for key, mod in sys.modules.items()
                   if key == "mapcalc" or key.startswith("mapcalc.")]
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"mapcalc.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        undo = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])
        gf2 = sys.modules["mapcalc.gf2"]
        classes = (gf2.Gf2Subspace, gf2.LinearOp)
        shared = set(vars(classes[0])) & set(vars(classes[1]))
        for cls in classes:
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                name = f"gf2.{cls.__name__}.{attr}" if attr in shared else f"gf2.{attr}"
                if isinstance(obj, classmethod):
                    new = classmethod(self.wrap(name, obj.__func__))
                elif inspect.isfunction(obj):
                    new = self.wrap(name, obj)
                else:
                    continue
                undo.append((cls, attr, obj))
                setattr(cls, attr, new)
        return undo

    @staticmethod
    def uninstall(undo: list[tuple[object, str, object]]) -> None:
        for owner, attr, obj in reversed(undo):
            setattr(owner, attr, obj)

    def item(self, fn, *args):
        """Run one benchmark item under a root span."""
        return self.wrap(ITEM_SPAN, fn)(*args)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds).

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it because there is one thread.
        """
        n = len(self.start)
        self_s = [self.end[i] - self.start[i] for i in range(n)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_s[p] -= self.end[i] - self.start[i]
        calls: dict[int, int] = defaultdict(int)
        total: dict[int, float] = defaultdict(float)
        for nid, s in zip(self.name, self_s):
            calls[nid] += 1
            total[nid] += s
        return {self.names[k]: (calls[k], total[k]) for k in calls}

    def write(self, path, meta: dict) -> None:
        """One file: 8-byte little-endian header length, a JSON header with
        the span names and `meta`, then the name-id and parent arrays (int32)
        and the start and end arrays (float64 perf_counter seconds), all in
        the machine's byte order."""
        header = json.dumps({"names": self.names, "spans": len(self.start),
                             "arrays": ["name:i4", "parent:i4", "start:f8", "end:f8"],
                             **meta}).encode()
        with open(path, "wb") as fh:
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
