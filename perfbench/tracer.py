"""Spans around linrep's public functions, installed from outside the package.

`install` wraps every public function and method of the ten layer modules
and rebinds each wrapper in every linrep namespace that binds the
original (so `rref_array` is traced whether it is called from matrix,
subspace, tiling or hyperfin).  A span is (name, start, end, parent, job)
kept in flat arrays; self time is a span's duration minus that of its
direct children.  A few hooks record what a span alone cannot show:
matrix shapes and field kinds for the kernels, cache growth for
`of_word`, and the result sizes that the accept ratios need.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("field", "matrix", "subspace", "freealg", "repseq", "tiling", "hyperfin",
          "soficam", "ncrat", "cli")
_DUNDERS = {"__init__", "__post_init__", "__add__", "__sub__", "__neg__", "__mul__",
            "__matmul__"}
SMALL = 16   # an elimination is small when both dimensions are at most this


def field_kind(field) -> str:
    return "gf2" if field.q == 2 else "gfp" if field.deg == 1 else "gfpd"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.job_id = -1
        self.kernel_spans: dict[str, list] = defaultdict(list)   # name -> [(span, tag, work)]
        self.counts: dict[str, float] = defaultdict(float)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        stack, start, end = self.stack, self.start, self.end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.job.append(tracer.job_id)
            end.append(0.0)
            stack.append(idx)
            state = hook.before(args) if hook else None
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook:
                hook.after(tracer, idx, args, kwargs, result, state)
            return result

        return traced

    # -- analysis --

    def arrays(self):
        """(name, parent, job, start, end, self time) as numpy arrays."""
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        job = np.array(self.job, dtype=np.int32)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, parent, job, start, end, dur - child

    def save(self, path):
        name, parent, job, start, end, _ = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, job=job,
                 start=start, end=end)


class _Hook:
    def before(self, args):
        return None

    def after(self, tracer, idx, args, kwargs, result, state):
        pass


class _RrefHook(_Hook):
    def after(self, tracer, idx, args, kwargs, result, state):
        rows, cols = args[1].shape
        small = rows <= SMALL and cols <= SMALL
        tracer.kernel_spans["rref"].append((idx, field_kind(args[0]), small,
                                            rows * cols * len(result[1])))


class _MatmulHook(_Hook):
    def after(self, tracer, idx, args, kwargs, result, state):
        a, b = args[1], args[2]
        tracer.kernel_spans["matmul"].append((idx, field_kind(args[0]), False,
                                              a.shape[0] * a.shape[1] * b.shape[1]))


class _OfWordHook(_Hook):
    def before(self, args):
        return len(args[0]._word_cache)

    def after(self, tracer, idx, args, kwargs, result, state):
        if tracer.job_id >= 0:
            tracer.counts["of_word.hits"] += len(args[0]._word_cache) == state


class _ResultCount(_Hook):
    def __init__(self, key, measure):
        self.key, self.measure = key, measure

    def after(self, tracer, idx, args, kwargs, result, state):
        if tracer.job_id >= 0:
            for k, v in self.measure(result).items():
                tracer.counts[f"{self.key}.{k}"] += v


HOOKS = {
    "matrix.rref_array": _RrefHook(),
    "matrix.matmul_data": _MatmulHook(),
    "repseq.Representation.of_word": _OfWordHook(),
    "tiling.greedy_tiling": _ResultCount("greedy_tiling", lambda c: {"centers": len(c.centers)}),
    "hyperfin.witness_search": _ResultCount(
        "witness_search", lambda w: {"tiles": len(w.subspaces) if w else 0}),
    "hyperfin.cheeger_random": _ResultCount("cheeger_random", lambda r: {"samples": r.samples}),
    "ncrat.equiv_probabilistic": _ResultCount(
        "equiv", lambda v: {"common": v.common_domain_points,
                            "counterexamples": v.kind == "counterexample"}),
}


def _own(obj, mod) -> bool:
    return getattr(obj, "__module__", None) == mod.__name__


def install(tracer: Tracer, package: str = "linrep"):
    """Wrap the public surface of each layer module in place."""
    mods = {name: sys.modules[f"{package}.{name}"] for name in LAYERS}
    replaced = {}   # id(original) -> (original, wrapper)
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not _own(obj, mod):
                continue
            if inspect.isclass(obj):
                if not issubclass(obj, BaseException):
                    _wrap_class(tracer, f"{layer}.{attr}", obj)
            elif callable(obj):
                name = f"{layer}.{attr}"
                wrapper = tracer.wrap(name, obj, HOOKS.get(name))
                replaced[id(obj)] = (obj, wrapper)
    for modname, mod in list(sys.modules.items()):
        if modname != package and not modname.startswith(package + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit and hit[0] is obj:
                setattr(mod, attr, hit[1])


def _wrap_class(tracer: Tracer, prefix: str, cls):
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_") and attr not in _DUNDERS:
            continue
        name = f"{prefix}.{attr}"
        if isinstance(obj, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, obj.__func__, HOOKS.get(name))))
        elif isinstance(obj, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, obj.__func__, HOOKS.get(name))))
        elif inspect.isfunction(obj):
            setattr(cls, attr, tracer.wrap(name, obj, HOOKS.get(name)))
