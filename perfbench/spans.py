"""Layer spans recorded from outside the program.

The benchmark's traced run installs two kinds of wrappers *before* the
overlay is built, without touching the package source:

* class-level wrappers around each layer's public methods
  (:meth:`Tracer.wrap_class`), so a call into a layer opens a span named
  ``<layer>.<method>``;
* callback wrappers on the public ``Simulator.schedule`` /
  ``schedule_at`` / ``periodic`` (:meth:`Tracer.wrap_simulator`), so
  each simulator event opens a span named after the module that owns
  its callback.

A span's trace id is ``sim.events_run`` when it opens, so every span
caused by one simulator event shares an id. A span's parent is the span
that encloses it; its self time is its duration minus the time its
child spans cover. Wrappers return what they wrap, re-raise what it
raises, and schedule nothing, so event order is unchanged.
"""

from __future__ import annotations

import functools
import inspect
import re
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "MetricNameError",
    "SpanRecord",
    "SpanRecorder",
    "Tracer",
    "check_metric_name",
    "layer_of",
]

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")

#: Attribute set on every wrapper so nothing is wrapped twice.
_SPAN_ATTR = "__perfbench_span__"


class MetricNameError(ValueError):
    """A metric or span name outside ``[A-Za-z0-9_.-]``."""


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise."""
    if not isinstance(name, str) or _NAME_RE.fullmatch(name) is None:
        raise MetricNameError(f"invalid metric name {name!r}")
    return name


def layer_of(module: Optional[str]) -> str:
    """``repro.overlay.gossip`` -> ``overlay.gossip``; others -> ``other``."""
    if module and module.startswith("repro."):
        return module[len("repro."):]
    return "other"


@dataclass
class SpanRecord:
    """One closed span (kept only when the recorder is asked to)."""

    name: str
    trace_id: int
    parent: Optional[int]  # index of the enclosing span's record
    start: float
    duration: float
    self_time: float


class SpanRecorder:
    """Nested span timing with per-name aggregation.

    ``stats[name]`` is ``[calls, total_s, self_s]``. ``top_s`` sums the
    durations of spans with no parent, the time the run spent inside
    *some* span. With ``keep=True`` every closed span is also kept as a
    :class:`SpanRecord` (the self-tests use this; benchmark runs keep
    aggregates only).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        trace_id: Callable[[], int] = lambda: -1,
        keep: bool = False,
    ):
        self.clock = clock
        self.trace_id = trace_id
        self.keep = keep
        self.stats: Dict[str, List[float]] = {}
        self.top_s = 0.0
        self.records: List[SpanRecord] = []
        # Open spans: [name, start, child_s, record index or -1].
        self._stack: List[list] = []

    def open(self, name: str) -> None:
        frame = [name, self.clock(), 0.0, -1]
        if self.keep:
            parent = self._stack[-1][3] if self._stack else None
            frame[3] = len(self.records)
            self.records.append(
                SpanRecord(name, self.trace_id(), parent, frame[1], 0.0, 0.0)
            )
        self._stack.append(frame)

    def close(self) -> None:
        end = self.clock()
        name, start, child_s, index = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_s += duration
        s = self.stats.get(name)
        if s is None:
            self.stats[name] = s = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += duration
        s[2] += duration - child_s
        if index >= 0:
            rec = self.records[index]
            rec.duration = duration
            rec.self_time = duration - child_s

    @property
    def depth(self) -> int:
        return len(self._stack)

    def by_trace(self) -> Dict[int, List[SpanRecord]]:
        """Kept records grouped by trace id."""
        out: Dict[int, List[SpanRecord]] = {}
        for rec in self.records:
            out.setdefault(rec.trace_id, []).append(rec)
        return out


def _callback_name(fn: Any) -> str:
    """``<layer>.<function>`` for a scheduled callback."""
    inner = getattr(fn, "__func__", fn)
    module = getattr(inner, "__module__", None)
    if module is None:
        module = type(fn).__module__
    name = getattr(inner, "__name__", type(fn).__name__)
    return f"{layer_of(module)}.{name.strip('<>_')}"


class Tracer:
    """Installs span wrappers and removes them again.

    Every patch is recorded so :meth:`uninstall` restores the classes
    exactly; use the tracer as a context manager.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._patches: List[Tuple[type, str, Any, bool]] = []
        self._callback_names: Dict[Any, str] = {}

    # ------------------------------------------------------------------
    def _patch(self, cls: type, attr: str, value: Any) -> None:
        had = attr in cls.__dict__
        self._patches.append((cls, attr, cls.__dict__.get(attr), had))
        setattr(cls, attr, value)

    def uninstall(self) -> None:
        for cls, attr, old, had in reversed(self._patches):
            if had:
                setattr(cls, attr, old)
            else:
                delattr(cls, attr)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def method_wrapper(
        self,
        name: str,
        fn: Callable[..., Any],
        observe: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """A span around ``fn``; ``observe(result, *args)`` sees each return."""
        rec = self.recorder
        check_metric_name(name + ".self_s")

        @functools.wraps(fn)
        def wrapper(*args: Any, **kw: Any) -> Any:
            rec.open(name)
            try:
                result = fn(*args, **kw)
            finally:
                rec.close()
            if observe is not None:
                observe(result, *args, **kw)
            return result

        setattr(wrapper, _SPAN_ATTR, name)
        return wrapper

    def wrap_class(
        self,
        cls: type,
        layer: str,
        methods: Optional[List[str]] = None,
        observe: Optional[Dict[str, Callable[..., None]]] = None,
    ) -> None:
        """Wrap ``cls``'s public methods (inherited ones too) as
        ``<layer>.<method>`` spans, or only ``methods`` when given."""
        observe = observe or {}
        if methods is None:
            methods = []
            for attr in sorted(dir(cls)):
                if attr.startswith("_"):
                    continue
                raw = next(k.__dict__[attr] for k in cls.__mro__ if attr in k.__dict__)
                if inspect.isfunction(raw):
                    methods.append(attr)
        for attr in methods:
            fn = getattr(cls, attr)
            if getattr(fn, _SPAN_ATTR, None) is not None:
                continue
            span = f"{layer}.{attr.strip('_') or attr}"
            self._patch(cls, attr, self.method_wrapper(span, fn, observe.get(attr)))

    def wrap_callback(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A span around one scheduled callback, named after its owner."""
        if getattr(fn, _SPAN_ATTR, None) is not None:
            return fn
        key = getattr(fn, "__func__", fn)
        name = self._callback_names.get(key)
        if name is None:
            name = self._callback_names[key] = _callback_name(fn)
        rec = self.recorder

        def callback(*args: Any) -> Any:
            rec.open(name)
            try:
                return fn(*args)
            finally:
                rec.close()

        setattr(callback, _SPAN_ATTR, name)
        return callback

    def wrap_simulator(self, sim_cls: type) -> None:
        """Route every callback handed to the public scheduling API
        through :meth:`wrap_callback`; also bind trace ids to the most
        recently constructed simulator's ``events_run``."""
        wrap = self.wrap_callback
        schedule = sim_cls.schedule
        schedule_at = sim_cls.schedule_at
        periodic = sim_cls.periodic
        init = sim_cls.__init__
        rec = self.recorder

        def traced_init(sim: Any, *args: Any, **kw: Any) -> None:
            init(sim, *args, **kw)
            rec.trace_id = lambda: sim.events_run

        def traced_schedule(sim: Any, delay: float, fn: Callable[..., Any], *args: Any) -> Any:
            return schedule(sim, delay, wrap(fn), *args)

        def traced_schedule_at(sim: Any, at: float, fn: Callable[..., Any], *args: Any) -> Any:
            return schedule_at(sim, at, wrap(fn), *args)

        def traced_periodic(
            sim: Any, period: float, fn: Callable[..., Any], *args: Any, phase: float = 0.0
        ) -> Any:
            return periodic(sim, period, wrap(fn), *args, phase=phase)

        self._patch(sim_cls, "__init__", traced_init)
        self._patch(sim_cls, "schedule", traced_schedule)
        self._patch(sim_cls, "schedule_at", traced_schedule_at)
        self._patch(sim_cls, "periodic", traced_periodic)
