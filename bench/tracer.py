"""In-memory span tracer for the benchmark's traced run.

Every public module-level callable of each layer module is wrapped, and
the wrapper is rebound in every module of the package that holds the
original, so calls through module attributes (``cov.extend_lift``) and
through ``from .x import y`` names (``cli.build_graph``) are both seen.
Functions are found when the tracer is installed, so a layer that gains
or loses a public function needs no change here.

A span opens when a call enters a layer from another layer, and on every
call of a function listed in ``stages``.  A call that stays inside its own
layer and is not a stage passes straight through with no span; that
keeps helpers called hundreds of thousands of times from inside their
own layer (``graphs.canonical_itinerary`` in a level-10 build) cheap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

def public_functions(module):
    """(name, callable) for the public functions a module defines itself."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """Spans as ``(name, layer, parent index, start, end)`` in call order."""

    def __init__(self, package, layers, stages=(), hooks=None):
        self.package = package
        self.layers = tuple(layers)
        self.stages = frozenset(stages)
        self.hooks = dict(hooks or {})  # name -> hook(counters, result, args)
        self.spans = []
        self.counters = defaultdict(float)
        self.wrapped = []
        self._stack = []      # indices of the open spans
        self._top = [None]    # layer of the innermost open span

    def install(self):
        """Wrap the layers' public functions and rebind them package-wide."""
        by_id = {}
        for layer in self.layers:
            module = sys.modules[f"{self.package}.{layer}"]
            for name, fn in list(public_functions(module)):
                qual = f"{layer}.{name}"
                by_id[id(fn)] = (fn, self.wrap(layer, qual, fn))
                self.wrapped.append(qual)
        for modname, module in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(self.package + "."):
                continue
            for name, obj in list(vars(module).items()):
                hit = by_id.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])

    def wrap(self, layer, qual, fn, *, always=False):
        """Return ``fn`` wrapped so that its calls are recorded as spans."""
        spans, stack, top = self.spans, self._stack, self._top
        hook = self.hooks.get(qual)
        counters = self.counters
        always = always or qual in self.stages or hook is not None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = top[0]
            if outer == layer and not always:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            k = len(spans)
            spans.append(None)  # filled in on return, after the children
            stack.append(k)
            top[0] = layer
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[k] = (qual, layer, parent, start, clock())
                stack.pop()
                top[0] = outer
            if hook is not None:
                hook(counters, result, args)
            return result

        return traced

    def summary(self):
        """Self time per layer and per function, and layer entry counts.

        A span's self time is its duration minus that of its child spans.
        A layer's calls are the spans entering it from outside the layer.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, _, parent, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        layer_self = defaultdict(float)
        layer_calls = defaultdict(int)
        func_self = defaultdict(float)
        for k, (name, layer, parent, start, end) in enumerate(spans):
            own = end - start - covered[k]
            layer_self[layer] += own
            func_self[name] += own
            if parent < 0 or spans[parent][1] != layer:
                layer_calls[layer] += 1
        return {
            "layer_self_s": dict(layer_self),
            "layer_calls": dict(layer_calls),
            "func_self_s": dict(func_self),
            "counters": dict(self.counters),
            "wrapped": list(self.wrapped),
            "n_spans": len(spans),
        }
