"""Per-layer spans for the benchmark's span run.

``install()`` wraps the public entry points of every loaded
``repro.<package>`` module from outside the program: public module
functions (rebound in every ``repro`` module that imported them) and
the public methods of every class, each charged to the package that
defines it. Engine callbacks, including those held by ``Timer`` and
``PeriodicTask``, are wrapped when they are scheduled and charged to
the package that defines the callback, so ``sim`` keeps only the heap
and dispatch.

Accounting is a layer switch, not a list of spans: at every span
boundary the time since the previous boundary is charged to the layer
that was running, so a layer's self time is its span time minus its
child spans. ``account()`` reports the self times together with the
time before and after the window; the benchmark checks that they add
up to the run's wall time, timed apart from this clock, so a wrapper
that loses time shows.

A few entry points also count calls and inclusive time (``STATS``),
and a few read simulated quantities off their arguments or results.
Private methods, properties and constructors are not spans; their
time is charged to the caller's layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from typing import Any, Callable, Dict, List

#: Layers reported as ``<layer>.self_s``; every other repro package is
#: reported together as ``other``.
LAYERS = (
    "sim", "faas", "mem", "core", "baselines", "metrics",
    "pool", "tier", "pressure", "obs", "traces",
)
_OUTSIDE = "outside"  # no span open: reported as span.unattributed_s
_BENCH = "bench"  # the benchmark's own post-run bookkeeping, excluded

#: Entry points that also count calls and inclusive seconds:
#: stat name -> (module, class, method).
STATS = {
    "mem.find": ("repro.mem.address_space", "AddressSpace", "find"),
    "mem.pages": ("repro.mem.address_space", "AddressSpace", "pages"),
    "mem.local_regions": ("repro.mem.cgroup", "Cgroup", "local_regions"),
    "mem.touch": ("repro.mem.cgroup", "Cgroup", "touch"),
    "core.on_touched": ("repro.core.pucket", "ContainerMemoryState", "on_touched"),
    "core.semiwarm_timing": ("repro.core.profiler", "FunctionProfiler", "semiwarm_start_timing"),
    "faas.dispatch": ("repro.faas.controller", "Controller", "dispatch"),
    "pool.offload": ("repro.pool.fastswap", "Fastswap", "offload"),
    "pool.fault": ("repro.pool.fastswap", "Fastswap", "fault"),
    "pool.transfer": ("repro.pool.link", "Link", "transfer"),
    "obs.emit": ("repro.obs.trace", "Tracer", "emit"),
    "obs.audit.observe": ("repro.obs.audit", "InvariantAuditor", "observe"),
    "obs.audit.finalize": ("repro.obs.audit", "InvariantAuditor", "finalize"),
}

_now = time.perf_counter
_DONE = object()


class Spans:
    """The layer clock and the per-entry-point counters."""

    def __init__(self) -> None:
        self.layers: List[str] = [_OUTSIDE, _BENCH, "other", *LAYERS]
        self._index = {name: i for i, name in enumerate(self.layers)}
        self.self_s = [0.0] * len(self.layers)
        self.calls: Dict[str, int] = {name: 0 for name in STATS}
        self.inclusive_s: Dict[str, float] = {name: 0.0 for name in STATS}
        # Simulated quantities read at span boundaries.
        self.link_queue_s = 0.0
        self.reuse_samples = 0
        self.percentile_calls = 0
        self._stack: List[int] = []
        self._clock = [0, 0.0]  # running layer, time of the last boundary
        self.started = 0.0
        self.stopped = 0.0

    def layer_of(self, module: str) -> int:
        parts = module.split(".")
        if len(parts) < 2 or parts[0] != "repro":
            return self._index["other"]
        return self._index.get(parts[1], self._index["other"])

    # -- the layer switch ----------------------------------------------------

    def enter(self, layer: int) -> None:
        now = _now()
        clock = self._clock
        self.self_s[clock[0]] += now - clock[1]
        self._stack.append(clock[0])
        clock[0], clock[1] = layer, now

    def leave(self) -> None:
        now = _now()
        clock = self._clock
        self.self_s[clock[0]] += now - clock[1]
        clock[0], clock[1] = self._stack.pop(), now

    def pause(self) -> tuple:
        """Charge what runs until ``resume()`` to the benchmark's bookkeeping.

        The bookkeeping reads the platform through its public methods,
        which are spans; ``resume()`` takes their charges and counts
        back out, so no layer is charged for the benchmark's reads.
        """
        self.enter(self._index[_BENCH])
        return self._clock[1], list(self.self_s), dict(self.calls), dict(self.inclusive_s)

    def resume(self, paused: tuple) -> None:
        since, self_s, calls, inclusive = paused
        now = _now()
        # In place: the wrappers hold these very objects.
        self.self_s[:] = self_s
        self.self_s[self._index[_BENCH]] += now - since
        self.calls.update(calls)
        self.inclusive_s.update(inclusive)
        self._clock[0], self._clock[1] = self._stack.pop(), now

    def start(self) -> None:
        """Open the window: zero the clock, with no span open."""
        assert not self._stack, "start() inside a span"
        self.self_s[:] = [0.0] * len(self.layers)
        self._clock[:] = [0, _now()]
        self.started = self._clock[1]

    def stop(self) -> None:
        """Close the window and freeze what it measured."""
        self.stopped = _now()
        self.self_s[self._clock[0]] += self.stopped - self._clock[1]
        self._clock[1] = self.stopped
        self.self_s, self.calls, self.inclusive_s = (
            list(self.self_s), dict(self.calls), dict(self.inclusive_s)
        )

    @property
    def depth(self) -> int:
        return len(self._stack)

    def seconds(self, layer: str) -> float:
        return self.self_s[self._index[layer]]

    def account(self, started: float, ended: float) -> Dict[str, Any]:
        """Where the time from ``started`` to ``ended`` went.

        ``started`` and ``ended`` enclose the window: the time before
        it (imports, loading and wrapping every module) and after it
        is reported apart from the layers' self times.
        """
        return {
            "span_depth": self.depth,
            "span_pre_s": self.started - started,
            "span_post_s": ended - self.stopped,
            "span_layers": dict(zip(self.layers, self.self_s)),
        }

    # -- wrappers ------------------------------------------------------------

    def span(self, fn: Callable, layer: int) -> Callable:
        if inspect.isgeneratorfunction(fn):
            # The span covers the first resumption, where the program's
            # generators take their snapshot; later items are charged
            # to the consumer.
            enter, leave = self.enter, self.leave

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                iterator = fn(*args, **kwargs)
                enter(layer)
                try:
                    first = next(iterator, _DONE)
                finally:
                    leave()
                if first is _DONE:
                    return
                yield first
                yield from iterator

        else:
            # enter()/leave() inlined: this runs on every entry point.
            self_s, clock = self.self_s, self._clock
            push, pop = self._stack.append, self._stack.pop

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                now = _now()
                running = clock[0]
                self_s[running] += now - clock[1]
                push(running)
                clock[0] = layer
                clock[1] = now
                try:
                    return fn(*args, **kwargs)
                finally:
                    now = _now()
                    self_s[clock[0]] += now - clock[1]
                    clock[0] = pop()
                    clock[1] = now

        wrapper._span_layer = layer  # type: ignore[attr-defined]
        return wrapper

    def callback(self, callback: Callable) -> Callable:
        """Wrap an engine callback in a span of its defining package."""
        if getattr(callback, "_span_layer", None) is not None:
            return callback
        target = getattr(callback, "func", callback)  # functools.partial
        return self.span(callback, self.layer_of(getattr(target, "__module__", "") or ""))

    def stat(self, name: str, fn: Callable) -> Callable:
        """Count calls and outermost inclusive seconds of ``fn``."""
        calls, inclusive = self.calls, self.inclusive_s
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            started = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                inclusive[name] += _now() - started
                depth[0] = 0

        return wrapper


def _install_stats(spans: Spans) -> None:
    for name, (module, cls_name, method) in STATS.items():
        cls = getattr(sys.modules[module], cls_name)
        setattr(cls, method, spans.stat(name, getattr(cls, method)))

    link = sys.modules["repro.pool.link"].Link
    transfer = link.transfer

    @functools.wraps(transfer)
    def timed_transfer(self, now, pages, direction):
        start, completion = transfer(self, now, pages, direction)
        spans.link_queue_s += start - now
        return start, completion

    link.transfer = timed_transfer

    profiler = sys.modules["repro.core.profiler"].FunctionProfiler
    timing = profiler.semiwarm_start_timing

    @functools.wraps(timing)
    def counted_timing(self, function):
        # The history the percentile sees, as semiwarm_start_timing
        # builds it (reuse samples, plus censored cold starts).
        samples = len(self._reuse.get(function, ()))
        if self.config.coldstart_aware_timing:
            samples += self._cold_starts.get(function, 0)
        if samples >= self.config.semiwarm_min_samples:
            spans.reuse_samples += samples
            spans.percentile_calls += 1
        return timing(self, function)

    profiler.semiwarm_start_timing = counted_timing


def _install_callbacks(spans: Spans) -> None:
    engine = sys.modules["repro.sim.engine"].Engine
    schedule_at = engine.schedule_at

    @functools.wraps(schedule_at)
    def spanned_schedule_at(self, time, callback, name=""):
        return schedule_at(self, time, spans.callback(callback), name)

    engine.schedule_at = spanned_schedule_at

    process = sys.modules["repro.sim.process"]
    for cls in (process.Timer, process.PeriodicTask):
        init = cls.__init__

        def spanned_init(self, *args, __init=init, **kwargs):
            __init(self, *args, **kwargs)
            self._callback = spans.callback(self._callback)

        cls.__init__ = functools.wraps(init)(spanned_init)


def _import_all() -> None:
    """Load every repro module, so lazily imported ones are wrapped too."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def install() -> Spans:
    """Import every repro module and wrap its public entry points.

    Wrapping order, innermost first: the counting wrappers of
    ``STATS`` and the callback wrapping of ``Engine.schedule_at``,
    then the span, so each entry point is one span.
    """
    _import_all()
    spans = Spans()
    _install_stats(spans)
    _install_callbacks(spans)
    modules = {
        name: module
        for name, module in sys.modules.items()
        if name.startswith("repro.") and module is not None
    }
    replaced: Dict[int, Callable] = {}
    for name, module in modules.items():
        layer = spans.layer_of(name)
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != name:
                continue
            if inspect.isclass(obj) and not issubclass(obj, BaseException):
                for method, fn in list(vars(obj).items()):
                    if method.startswith("_"):
                        continue
                    if isinstance(fn, (staticmethod, classmethod)):
                        setattr(obj, method, type(fn)(spans.span(fn.__func__, layer)))
                    elif inspect.isfunction(fn):
                        setattr(obj, method, spans.span(fn, layer))
            elif inspect.isfunction(obj) and not attr.startswith("_"):
                replaced[id(obj)] = spans.span(obj, layer)
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    return spans
