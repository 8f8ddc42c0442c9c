"""Hierarchical wall-clock spans with Chrome trace-event export.

Spans are recorded as plain dicts in the Chrome trace-event format
(``ph: "X"`` complete events with microsecond ``ts``/``dur``), so a
trace file written by :meth:`Tracer.export` loads directly into Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.  Nesting is conveyed
the Chrome way — containment of ``[ts, ts+dur]`` within one
``pid``/``tid`` lane — and additionally recorded as an explicit
``args.parent`` so tools (and tests) need not reconstruct it.

One clock per process: timestamps are wall-clock anchored, a
``time.time()`` epoch taken once per process and refined by
``perf_counter`` deltas, and every :class:`Tracer` of the process reads
that same epoch.  So spans recorded by two tracers of one process nest
exactly, with no skew of a few microseconds either way.

Cross-process collection: a pool worker builds its own short-lived
:class:`Tracer` on its parent's epoch (:attr:`Tracer.epoch`, carried in
the job payload), and its event dicts travel back over the pickle
channel in the job result; the parent merges them with
:meth:`Tracer.add_events`.  ``perf_counter`` reads a monotonic clock
shared by the machine's processes, so a worker records on the parent's
clock however it was started.

The disabled path matters more than the enabled one: ``NULL_TRACER`` is
a process-wide singleton whose :meth:`~NullTracer.span` returns one
shared no-op context manager — entering a span when tracing is off costs
two attribute lookups and no allocation.
"""

import json
import os
import threading
import time

__all__ = ["NULL_TRACER", "NullTracer", "Tracer", "TRACE_SCHEMA"]

# Identifies trace files we wrote (carried in otherData; the traceEvents
# shape itself is Chrome's, not ours).
TRACE_SCHEMA = "repro.obs.trace/v1"


class _NullSpan:
    """The shared do-nothing span."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def note(self, **args):
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every span is the shared no-op."""

    enabled = False

    __slots__ = ()

    def span(self, name, cat="build", **args):
        return _NULL_SPAN

    def instant(self, name, cat="build", **args):
        pass

    def add_events(self, events):
        pass

    @property
    def events(self):
        return []

    def span_names(self):
        return []


NULL_TRACER = NullTracer()

# The process's clock: ``(time.time(), perf_counter())`` read together
# once.  A forked worker inherits it; a spawned one is handed its
# parent's through ``Tracer(epoch=...)``.
_PROCESS_EPOCH = (time.time(), time.perf_counter())


class _Span:
    """One live span; records itself on exit."""

    __slots__ = ("tracer", "name", "cat", "args", "_start_us", "_tid")

    def __init__(self, tracer, name, cat, args):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def note(self, **args):
        """Attach extra ``args`` to the span (visible in the viewer)."""
        self.args.update(args)
        return self

    def __enter__(self):
        self._start_us = self.tracer._now_us()
        stack = self.tracer._stack()
        if stack:
            self.args.setdefault("parent", stack[-1])
        stack.append(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        tracer = self.tracer
        end_us = tracer._now_us()
        stack = tracer._stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        tracer.record(
            {
                "name": self.name,
                "cat": self.cat,
                "ph": "X",
                "ts": self._start_us,
                "dur": end_us - self._start_us,
                "pid": tracer.pid,
                "tid": threading.get_ident() & 0xFFFFFFFF,
                "args": self.args,
            }
        )
        return False


class Tracer:
    """Collects span events; thread-safe; export via :meth:`export`.

    ``bus``, if given, receives every finished span on
    :meth:`~repro.obs.bus.EventBus.span_end` — including events merged
    from workers — so profilers subscribe once and see everything.
    """

    enabled = True

    def __init__(self, bus=None, epoch=None):
        """``epoch`` is another tracer's :attr:`epoch` to record on (a
        pool worker gets its parent's); by default the process's."""
        self.bus = bus
        self.events = []
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._tls = threading.local()
        # Wall-anchored monotonic clock: the epoch's time.time() plus
        # perf_counter deltas (sub-microsecond, never steps back).
        self.epoch = _PROCESS_EPOCH if epoch is None else tuple(epoch)
        self._epoch_wall, self._epoch_perf = self.epoch

    def _now_us(self):
        return (
            self._epoch_wall + (time.perf_counter() - self._epoch_perf)
        ) * 1e6

    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    # -- recording -----------------------------------------------------------

    def span(self, name, cat="build", **args):
        """A context manager timing one unit of work."""
        return _Span(self, name, cat, args)

    def instant(self, name, cat="build", **args):
        """A zero-duration marker event."""
        self.record(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "ts": self._now_us(),
                "s": "t",
                "pid": self.pid,
                "tid": threading.get_ident() & 0xFFFFFFFF,
                "args": args,
            }
        )

    def record(self, event):
        with self._lock:
            self.events.append(event)
        if self.bus is not None and event.get("ph") == "X":
            self.bus.span_end(event)

    def add_events(self, events):
        """Merge span events recorded elsewhere (a pool worker, another
        tracer).  Each merged complete-span is republished on the bus."""
        for event in events:
            self.record(event)

    def trim(self, keep):
        """Drop all but the ``keep`` most recent events.  Long-lived
        processes (the :mod:`repro.serve` daemon) call this after each
        request so the trace buffer stays bounded; dropped spans were
        already published on the bus."""
        with self._lock:
            if len(self.events) > keep:
                del self.events[: len(self.events) - keep]

    # -- export --------------------------------------------------------------

    def to_chrome(self):
        """The Chrome trace-event JSON object (``traceEvents`` + meta)."""
        with self._lock:
            events = sorted(self.events, key=lambda e: e.get("ts", 0))
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": TRACE_SCHEMA, "tool": "mspec"},
        }

    def export(self, path):
        """Write the trace as Chrome trace-event JSON; returns ``path``."""
        doc = self.to_chrome()
        tmp = "%s.tmp.%d" % (path, os.getpid())
        with open(tmp, "w") as f:
            json.dump(doc, f, indent=None, separators=(",", ":"))
        os.replace(tmp, path)
        return path

    def span_names(self):
        """Sorted multiset of complete-span names (the deterministic
        skeleton of a trace: identical for ``jobs=1`` and ``jobs=N``)."""
        return sorted(e["name"] for e in self.events if e.get("ph") == "X")
