"""Span tracing of tempospike from outside the package.

``Tracer.install`` replaces every public function of the layer modules (and
the public methods of their public classes, plus ``Tensor.__init__``) with a
wrapper that records a span, at every place the package binds that function,
so calls between modules are seen too. ``Tracer.restore`` puts every original
object back. Backward closures are timed by wrapping ``tensor.record``, which
tags each closure with the op kind taken from its ``__qualname__``.

A span is ``[name, start, end, parent, step]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``step`` counts completed work items
(training steps or search candidates) at the time the span opened. Spans stay
in memory until ``take`` hands them to ``metrics.SpanTotals``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from collections import Counter

LAYER_MODULES = {
    "tempospike.engine.tensor": "engine",
    "tempospike.engine.ops": "engine",
    "tempospike.neuron": "neuron",
    "tempospike.graph": "graph",
    "tempospike.trainer": "trainer",
    "tempospike.nas": "nas",
    "tempospike.data": "data",
}

# Not spanned: ``record`` is instrumented for backward closures instead, and
# ``active_tape`` is a one-line lookup made by every op.
NOT_SPANNED = {"tempospike.engine.tensor": {"record", "active_tape"}}


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tempospike" or name.startswith("tempospike."))]


def snapshot() -> dict:
    """Identity of every binding the tracer may touch, for restore checks."""
    snap = {}
    for mod in package_modules():
        for name, obj in vars(mod).items():
            snap[(mod.__name__, name)] = id(obj)
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, val in vars(obj).items():
                    snap[(mod.__name__, f"{name}.{attr}")] = id(val)
    return snap


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its direct children cover.

    Children may nest further; a grandchild lies inside its parent, so only
    direct children are merged. Overlapping or out-of-range child intervals
    are clipped and merged, never counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, step in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, step) in enumerate(spans):
        covered = 0.0
        cursor = start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, cursor), min(ce, end)
            if ce > cs:
                covered += ce - cs
                cursor = ce
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans and counters for every call into the layer modules."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = {}
        self.step = 0
        self.last_params: dict | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self.step])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn, name: str, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        hooks = self._hooks()
        for mod in modules:
            layer = LAYER_MODULES.get(mod.__name__)
            if layer is None:
                continue
            skip = NOT_SPANNED.get(mod.__name__, set())
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or name in skip:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if name == "run_forward":
                        wrapper = self._wrap_run_forward(obj)
                    else:
                        wrapper = self._wrap(obj, f"{layer}.{name}",
                                             *hooks.get(f"{layer}.{name}", (None, None)))
                    for other in modules:
                        for bound, val in list(vars(other).items()):
                            if val is obj:
                                self._set(other, bound, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer, hooks)
        self._wrap_record()

    def _wrap_class(self, cls, layer: str, hooks) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if attr == "__init__" and cls.__name__ != "Tensor":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            before, after = hooks.get(name, (None, None))
            if isinstance(val, (classmethod, staticmethod)):
                wrapped = type(val)(self._wrap(val.__func__, name, before, after))
            elif inspect.isfunction(val):
                wrapped = self._wrap(val, name, before, after)
            else:
                continue
            self._set(cls, attr, wrapped)

    def _wrap_run_forward(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(net, x, mode="eval", *args, **kwargs):
            idx = tracer.open(f"graph.run_forward.{mode}")
            try:
                return fn(net, x, mode, *args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    def _wrap_record(self) -> None:
        from tempospike.engine import ops, tensor

        tracer = self
        original = tensor.record

        @functools.wraps(original)
        def record(inputs, out_data, backward_fn):
            kind = backward_fn.__qualname__.split(".", 1)[0]
            name = f"engine.bwd.{kind}"

            def timed(g):
                idx = tracer.open(name)
                try:
                    return backward_fn(g)
                finally:
                    tracer.close(idx)

            timed.kind = kind
            return original(inputs, out_data, timed)

        for mod in (tensor, ops):
            self._set(mod, "record", record)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._stack.clear()

    # -- counters taken at layer boundaries --------------------------------
    def _hooks(self) -> dict:
        tracer = self

        def count_nodes(args, kwargs, result):
            tape = args[0]
            tracer.counts["engine.backward_calls"] += 1
            for node in tape.nodes:
                tracer.counts["engine.nodes." + getattr(node.backward, "kind", "?")] += 1

        def remember_params(args, kwargs, result):
            tracer.last_params = result.params

        def before_clip(args, kwargs):
            grads = args[0]
            params = tracer.last_params or {}
            tracer.sample("trainer.grad_entries_per_param", len(grads) / max(1, len(params)))
            ids = {id(p) for p in params.values()}
            sq = sum(float((g * g).sum()) for t, g in grads.items() if id(t) in ids)
            tracer.sample("trainer.param_grad_norm", math.sqrt(sq))

        def after_clip(args, kwargs, result):
            tracer.sample("trainer.clip_norm", float(result))

        def end_step(args, kwargs, result):
            tracer.step += 1

        def end_candidate(args, kwargs, result):
            tracer.step += 1
            tracer.counts["nas.candidates"] += 1
            tracer.counts["nas.degenerate"] += int(result.degenerate)

        def count_events(args, kwargs, result):
            tracer.counts["data.events"] += len(result)

        return {
            "engine.Tape.backward": (None, count_nodes),
            "graph.Network.build": (None, remember_params),
            "trainer.clip_grads": (before_clip, after_clip),
            "trainer.adam_step": (None, end_step),
            "nas.sahd_score": (None, end_candidate),
            "data.parse_events": (None, count_events),
            "data.parse_audio_events": (None, count_events),
        }
