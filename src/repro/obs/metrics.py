"""Counters, gauges, and timers in one queryable registry.

The registry is the single store that used to be three disconnected
surfaces — ``PipelineStats`` counters, the artifact cache's hit/miss
tallies, and the specialiser's ``SpecState`` stats.  Components write
through :meth:`MetricsRegistry.counter` / :meth:`gauge` / :meth:`timer`;
``mspec build --metrics out.json`` (or any caller of :meth:`snapshot`)
reads one JSON document with a stable schema:

.. code-block:: json

    {"schema": "repro.obs.metrics/v1",
     "counters": {"faults.retries": 2, "cache.hits": 14},
     "gauges":   {"build.jobs": 4},
     "timers":   {"stage.analyse": {"count": 3, "seconds": 0.41}}}

Snapshots round-trip: ``MetricsRegistry.from_snapshot(snapshot)``
rebuilds an equivalent registry (used to merge metrics across processes
and to regression-test the schema).  Every update is published on the
bus's ``on_metric`` channel when a bus is attached.

Thread safety: a registry may be written by many threads at once (the
specialisation daemon's request handlers all share one), so each cell's
read-modify-write and the registry's get-or-create hold a lock; bus
notification happens outside it (a subscriber may touch other metrics).
Plain ``+=`` on an attribute is *not* atomic under the GIL — a thread
switch between the load and the store loses increments.
"""

import json
import os
import threading
import time
from contextlib import contextmanager

__all__ = ["Counter", "Gauge", "MetricsRegistry", "Timer", "METRICS_SCHEMA"]

METRICS_SCHEMA = "repro.obs.metrics/v1"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value", "_registry", "_lock")

    def __init__(self, name, registry=None):
        self.name = name
        self.value = 0
        self._registry = registry
        self._lock = threading.Lock()

    def inc(self, n=1):
        with self._lock:
            self.value += n
            value = self.value
        if self._registry is not None:
            self._registry._notify(self.name, "counter", value)
        return value


class Gauge:
    """A point-in-time value (last write wins; ``max_of`` keeps peaks)."""

    __slots__ = ("name", "value", "_registry", "_lock")

    def __init__(self, name, registry=None):
        self.name = name
        self.value = 0
        self._registry = registry
        self._lock = threading.Lock()

    def set(self, value):
        with self._lock:
            self.value = value
        if self._registry is not None:
            self._registry._notify(self.name, "gauge", value)
        return value

    def max_of(self, value):
        with self._lock:
            if value <= self.value:
                return self.value
            self.value = value
        if self._registry is not None:
            self._registry._notify(self.name, "gauge", value)
        return value


class Timer:
    """Accumulated wall-clock seconds plus a record count."""

    __slots__ = ("name", "seconds", "count", "_registry", "_lock")

    def __init__(self, name, registry=None):
        self.name = name
        self.seconds = 0.0
        self.count = 0
        self._registry = registry
        self._lock = threading.Lock()

    def add(self, seconds, count=1):
        with self._lock:
            self.seconds += seconds
            self.count += count
            total = self.seconds
        if self._registry is not None:
            self._registry._notify(self.name, "timer", seconds)
        return total

    @contextmanager
    def time(self):
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.add(time.perf_counter() - started)


class MetricsRegistry:
    """Named metrics, created on first use; one snapshot for everything."""

    __slots__ = ("counters", "gauges", "timers", "bus", "_lock")

    def __init__(self, bus=None):
        self.counters = {}
        self.gauges = {}
        self.timers = {}
        self.bus = bus
        self._lock = threading.Lock()

    def _notify(self, name, kind, value):
        if self.bus is not None:
            self.bus.metric(name, kind, value)

    # -- access (get-or-create) ----------------------------------------------

    def counter(self, name):
        c = self.counters.get(name)
        if c is None:
            with self._lock:
                c = self.counters.get(name)
                if c is None:
                    c = self.counters[name] = Counter(name, self)
        return c

    def gauge(self, name):
        g = self.gauges.get(name)
        if g is None:
            with self._lock:
                g = self.gauges.get(name)
                if g is None:
                    g = self.gauges[name] = Gauge(name, self)
        return g

    def timer(self, name):
        t = self.timers.get(name)
        if t is None:
            with self._lock:
                t = self.timers.get(name)
                if t is None:
                    t = self.timers[name] = Timer(name, self)
        return t

    # -- snapshots -----------------------------------------------------------

    def snapshot(self):
        """The stable JSON-ready document (see module docstring).

        When an attached bus has suppressed subscriber exceptions, the
        drop count appears as a ``bus.subscriber_errors`` counter — so a
        buggy observer is visible in the very artifact it was corrupting.
        """
        counters = {name: c.value for name, c in self.counters.items()}
        dropped = getattr(self.bus, "subscriber_errors", 0)
        if dropped:
            counters["bus.subscriber_errors"] = (
                counters.get("bus.subscriber_errors", 0) + dropped
            )
        return {
            "schema": METRICS_SCHEMA,
            "counters": {
                name: counters[name] for name in sorted(counters)
            },
            "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
            "timers": {
                name: {"count": t.count, "seconds": t.seconds}
                for name, t in sorted(self.timers.items())
            },
        }

    @classmethod
    def from_snapshot(cls, doc, bus=None):
        """Rebuild a registry from a :meth:`snapshot` document."""
        if doc.get("schema") != METRICS_SCHEMA:
            raise ValueError(
                "not a %s document (schema=%r)"
                % (METRICS_SCHEMA, doc.get("schema"))
            )
        registry = cls(bus=bus)
        for name, value in doc.get("counters", {}).items():
            registry.counter(name).value = value
        for name, value in doc.get("gauges", {}).items():
            registry.gauge(name).value = value
        for name, rec in doc.get("timers", {}).items():
            t = registry.timer(name)
            t.count = rec.get("count", 0)
            t.seconds = rec.get("seconds", 0.0)
        return registry

    def merge(self, other):
        """Fold another registry (or snapshot dict) into this one:
        counters and timers add, gauges keep the maximum."""
        if isinstance(other, dict):
            other = MetricsRegistry.from_snapshot(other)
        for name, c in other.counters.items():
            self.counter(name).inc(c.value)
        for name, g in other.gauges.items():
            self.gauge(name).max_of(g.value)
        for name, t in other.timers.items():
            self.timer(name).add(t.seconds, t.count)
        return self

    def export(self, path):
        """Write the snapshot as JSON; returns ``path``."""
        tmp = "%s.tmp.%d" % (path, os.getpid())
        with open(tmp, "w") as f:
            json.dump(self.snapshot(), f, indent=2, sort_keys=True)
        os.replace(tmp, path)
        return path
