"""In-memory span recorder for the traced benchmark run.

``SpanRecorder.patch`` wraps every public function of the layer modules and
rebinds the wrapper in every ``jlab`` module that holds the function under
any name, because modules such as ``polar`` and ``extension`` import
``herm_eig`` and ``inverse`` by name and would bypass a patch applied to
``jlab.numkernel`` alone.  Each call records its name, start, end, parent
span and the leading dimension of its first argument.  Nothing is wrapped
outside the ``with`` block, so untraced runs pay nothing.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYER_MODULES = ("numkernel", "conjugation", "jclass", "polar", "extension", "examples")


def public_functions(module):
    """Functions defined in module whose names do not start with an underscore."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def _leading_dim(args):
    shape = getattr(args[0], "shape", None) if args else None
    return int(shape[0]) if shape else -1


class SpanRecorder:
    """Spans in parallel lists; a span's parent is the span open when it began.

    A hook, if given for a span name, sees each call's result or exception
    and returns a note stored with the span.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.size = []
        self.notes = {}
        self._open = [-1]

    def _begin(self, name, size):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._open[-1])
        self.size.append(size)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx):
        self.end[idx] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        idx = self._begin(name, -1)
        try:
            yield idx
        finally:
            self._finish(idx)

    def wrap(self, name, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name, _leading_dim(args))
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._finish(idx)
                if hook is not None:
                    self.notes[idx] = hook(None, exc)
                raise
            self._finish(idx)
            if hook is not None:
                self.notes[idx] = hook(result, None)
            return result

        return traced

    @contextmanager
    def patch(self):
        """Rebind every public layer function to its traced wrapper, then restore."""
        wrappers = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"jlab.{short}")
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self.wrap(f"{short}.{name}", fn))
        patched = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "jlab" or modname.startswith("jlab.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def compact(self):
        """Swap the per-span lists for arrays once recording has finished."""
        self.start = np.asarray(self.start)
        self.end = np.asarray(self.end)
        self.parent = np.asarray(self.parent, dtype=np.int64)
        self.size = np.asarray(self.size, dtype=np.int64)
        return self

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def write(self, path):
        """Write every span as compact JSON (times relative to the first span)."""
        start = np.asarray(self.start)
        t0 = start[0] if len(start) else 0.0
        columns = (
            self.names,
            (start - t0).tolist(),
            (np.asarray(self.end) - t0).tolist(),
            np.asarray(self.parent).tolist(),
            np.asarray(self.size).tolist(),
        )
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "size"],
            "spans": [list(row) for row in zip(*columns)],
            "notes": {str(k): v for k, v in self.notes.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
