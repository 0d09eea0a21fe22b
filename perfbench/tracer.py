"""Span tracing of causalkit's layers, installed from outside the package.

``Tracer.install`` replaces the public functions and methods of each layer
module with wrappers that record one span per call: its name, start, end
and parent.  Copies that other modules imported by name (``transform``'s
``subsets_of``, the CLI's ``validate_causal_space``, the package's
re-exports) are rebound to the same wrappers, so every call path is seen.
Generator functions are counted per yielded item instead of timed, since a
call only creates the generator.  ``uninstall`` puts every original back;
nothing under ``src/`` is edited.

Kernel calls are tagged by the layer that made the causal space: spaces
created inside an ``scm`` span (compiled models and their marginals) give
``scm.kernel.*`` spans, every other family (products, renamings,
interventions, pinning spaces, pushforwards) gives ``causal.kernel.*``.
A ``*.kernel.build`` span is a lazy kernel being generated on a cache miss;
a ``*.kernel.call`` span is any ``FiniteCausalSpace.kernel`` call.

Spans live in flat arrays in memory and are written out by ``write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import weakref
from array import array
from collections import Counter

PACKAGE = "causalkit"
LAYERS = ("spaces", "scm", "causal", "transform", "gaussian", "oracle",
          "serialize", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()
        self._undo: list[tuple[object, str, object]] = []
        self._space_layer: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------- recording

    def reset(self) -> None:
        """Forget recorded spans and counters; wrappers stay installed."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def spanned(self, name: str, fn, before=None):
        """``fn`` wrapped so that every call records a span called ``name``.

        ``before(args)``, if given, runs ahead of each call, outside the span.
        """
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    def counted(self, name: str, gen_fn):
        """Generator function wrapped so that each yielded item counts once."""
        tracer = self

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            counters = tracer.counters
            for item in gen_fn(*args, **kwargs):
                counters[name] += 1
                yield item

        return wrapper

    def _enclosing_layer(self) -> str:
        """Layer of the innermost open span outside FiniteCausalSpace itself."""
        for idx in reversed(self.stack[1:]):
            name = self.names[self.span_name[idx]]
            if not name.startswith("causal.FiniteCausalSpace."):
                return name.split(".", 1)[0]
        return ""

    # ----------------------------------------------------------- installing

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        wrapped: dict[int, object] = {}  # id(original function) -> wrapper

        def count_bytes(args):
            try:
                self.counters["serialize.load.bytes"] += os.path.getsize(args[0])
            except OSError:
                pass  # load itself reports the missing file

        def wrap_function(layer: str, qualname: str, fn):
            name = f"{layer}.{qualname}"
            if inspect.isgeneratorfunction(fn):
                w = self.counted(f"{name}.items", fn)
            else:
                w = self.spanned(name, fn, count_bytes if name == "serialize.load" else None)
            wrapped[id(fn)] = w
            return w

        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrap_function(layer, attr, obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj, wrap_function)

        causal = modules["causal"]
        self._wrap_causal_space(causal.FiniteCausalSpace)

        # the subset enumerator behind gaussian's interventional scan is
        # private; count its subsets whatever the module calls it
        gaussian = modules["gaussian"]
        for attr in ("_subsets", "subsets_of"):
            fn = vars(gaussian).get(attr)
            if fn is not None and inspect.isgeneratorfunction(inspect.unwrap(fn)):
                self._set(gaussian, attr, self.counted("gaussian.subsets", fn))

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    self._set(mod, attr, w)

    def _wrap_class(self, layer: str, cls, wrap_function) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            qual = f"{cls.__name__}.{attr}"
            if isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(wrap_function(layer, qual, obj.__func__)))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(wrap_function(layer, qual, obj.__func__)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, wrap_function(layer, qual, obj))

    def _wrap_causal_space(self, cls) -> None:
        """Tag each causal space with its maker's layer; split kernel spans."""
        layers = self._space_layer
        init = cls.__init__
        init_id = self.name_id("causal.FiniteCausalSpace.__init__")
        call_ids = {lay: self.name_id(f"{lay}.kernel.call") for lay in ("scm", "causal")}
        build_ids = {lay: self.name_id(f"{lay}.kernel.build") for lay in ("scm", "causal")}
        tracer = self

        def build_wrapper(layer: str, kernel_fn):
            nid = build_ids[layer]
            rows_key = f"{layer}.kernel.rows"

            def build(subset):
                idx = tracer.open(nid)
                try:
                    k = kernel_fn(subset)
                finally:
                    tracer.close(idx)
                tracer.counters[rows_key] += len(k.rows)
                return k

            return build

        @functools.wraps(init)
        def traced_init(self, space, P, kernels=None, kernel_fn=None):
            idx = tracer.open(init_id)
            try:
                layer = "scm" if tracer._enclosing_layer() == "scm" else "causal"
                if kernel_fn is not None:
                    kernel_fn = build_wrapper(layer, kernel_fn)
                init(self, space, P, kernels=kernels, kernel_fn=kernel_fn)
                layers[self] = layer
            finally:
                tracer.close(idx)

        kernel = inspect.unwrap(cls.__dict__["kernel"])

        @functools.wraps(kernel)
        def traced_kernel(self, subset):
            idx = tracer.open(call_ids[layers.get(self, "causal")])
            try:
                return kernel(self, subset)
            finally:
                tracer.close(idx)

        self._set(cls, "__init__", traced_init)
        self._set(cls, "kernel", traced_kernel)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- reading

    def span_counts(self) -> Counter:
        counts = Counter()
        for nid in self.span_name:
            counts[self.names[nid]] += 1
        return counts

    def metric_times(self, group_of: dict[str, str]) -> Counter:
        """Exclusive seconds per metric group.

        ``group_of`` maps span names to metric groups.  A span outside every
        group belongs to the group of its nearest ancestor that has one.  A
        group's time is the time inside its spans, less the time of nested
        spans that belong to another group, so nested spans of one group
        (``load`` calling ``loads``) count once.
        """
        owner = [None] * len(self.span_name)
        times: Counter = Counter()
        names, parents = self.names, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i, nid in enumerate(self.span_name):
            p = parents[i]
            up = owner[p] if p >= 0 else None
            mine = group_of.get(names[nid], up)
            owner[i] = mine
            if mine != up:
                dt = ends[i] - starts[i]
                if mine is not None:
                    times[mine] += dt
                if up is not None:
                    times[up] -= dt
        return times

    def write(self, path) -> None:
        """Spans as tab-separated lines: id, parent, name, start, end."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, nid in enumerate(self.span_name):
                out.write(f"{i}\t{self.span_parent[i]}\t{self.names[nid]}\t"
                          f"{self.span_start[i] - t0:.9f}\t{self.span_end[i] - t0:.9f}\n")
