"""Run-time code generation (the paper's Sec. 8 outlook, via LL94).

``generate(gp, goal, static_args)`` specialises ``goal`` with respect to
the static arguments and immediately compiles the residual program to
Python, returning a callable over the dynamic arguments.  This is the
lightweight-RTCG workflow: the expensive preparation (analysis, cogen)
happened once per module, long before; code generation at run time is
just running the generating extensions plus one ``compile()``.

Serve-many-users path
---------------------

Repeated ``generate`` calls for the same request are the common case
when residual callables back a service (one compiled ``power_3`` serves
every user who asks for cubes).  ``generate`` therefore memoises its
:class:`GeneratedFunction` objects in a bounded, process-wide LRU keyed
exactly like the persistent residual cache
(:func:`repro.speccache.residual_cache_key`): program fingerprint +
goal + canonical static arguments + the semantically relevant
:class:`~repro.api.SpecOptions` fields.  A hit skips *both* the
specialisation run and the ``compile()`` — it is one dict probe — and
counts as ``rtcg.lru_hits`` in the run's metrics registry.  Inserts
that push the cache over capacity count ``rtcg.lru_evictions`` and
every insert refreshes the ``rtcg.lru_len`` gauge, so LRU pressure is
visible in ``--metrics`` output.  Use :func:`configure_lru` /
:func:`clear_lru` to size or reset the cache (capacity 0 disables
memoisation entirely).

The LRU is shared process-wide and the specialisation daemon
(:mod:`repro.serve`) probes it from concurrent request-handler threads,
so every structural operation (probe + move-to-end, insert + evict,
reconfigure, clear) holds :data:`_LRU_LOCK`.  The expensive work — the
specialisation run and the ``compile()`` — happens *outside* the lock;
two threads racing on the same cold key may both compute, and the last
insert wins (both callables are correct, nothing is ever torn).
"""

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.backend.pyemit import compile_program
from repro.genext.engine import specialise


@dataclass
class GeneratedFunction:
    """A residual program compiled to a Python callable."""

    result: object  # the SpecialisationResult
    compiled: object  # the CompiledProgram

    @property
    def python_source(self):
        return self.compiled.source

    def __call__(self, *dynamic_args):
        return self.compiled.call(self.result.entry, *dynamic_args)


_LRU_CAPACITY = 128
_LRU = OrderedDict()  # key -> GeneratedFunction, most-recent last
_LRU_LOCK = threading.RLock()  # guards _LRU and _LRU_CAPACITY


def configure_lru(capacity):
    """Set the LRU's capacity (evicting down if needed); 0 disables."""
    global _LRU_CAPACITY
    if capacity < 0:
        raise ValueError("capacity must be >= 0, got %d" % capacity)
    with _LRU_LOCK:
        _LRU_CAPACITY = capacity
        while len(_LRU) > _LRU_CAPACITY:
            _LRU.popitem(last=False)


def clear_lru():
    """Drop every memoised callable (test isolation, redeploys)."""
    with _LRU_LOCK:
        _LRU.clear()


def lru_len():
    """How many callables are currently memoised."""
    with _LRU_LOCK:
        return len(_LRU)


def generate(gp, goal, static_args=None, options=None, obs=None):
    """Specialise and compile in one step.

    >>> import repro
    >>> from repro.backend import generate
    >>> gp = repro.compile_genexts('''
    ... module Power where
    ...
    ... power n x = if n == 1 then x else x * power (n - 1) x
    ... ''')
    >>> cube = generate(gp, "power", {"n": 3})
    >>> cube(5)
    125
    """
    from repro.api import spec_options
    from repro.obs import Obs

    options = spec_options("generate", options)
    if obs is None:
        obs = Obs()
    static_args = dict(static_args or {})

    key = None
    hit = None
    if options.sink is None:
        fingerprint = getattr(gp, "fingerprint", None)
        fingerprint = fingerprint() if callable(fingerprint) else None
        if fingerprint is not None:
            from repro.speccache import residual_cache_key

            probe_key = residual_cache_key(
                fingerprint, goal, static_args, options
            )
            with _LRU_LOCK:
                if _LRU_CAPACITY > 0:
                    key = probe_key
                    hit = _LRU.get(key)
                    if hit is not None:
                        _LRU.move_to_end(key)
            if hit is not None:
                obs.metrics.counter("rtcg.lru_hits").inc()
                obs.bus.emit("rtcg.lru_hit", goal=goal, key=key)
                return hit
            if key is not None:
                obs.metrics.counter("rtcg.lru_misses").inc()

    result = specialise(gp, goal, static_args, options, obs=obs)
    compiled = compile_program(result.program, filename="<rtcg:%s>" % goal)
    fn = GeneratedFunction(result, compiled)
    if key is not None:
        evicted = 0
        with _LRU_LOCK:
            if _LRU_CAPACITY > 0:
                _LRU[key] = fn
                _LRU.move_to_end(key)
                while len(_LRU) > _LRU_CAPACITY:
                    _LRU.popitem(last=False)
                    evicted += 1
            length = len(_LRU)
        # LRU pressure is part of the performance surface: evictions
        # say the working set outgrew the capacity, the gauge says how
        # full the cache runs (both in docs/performance.md).
        if evicted:
            obs.metrics.counter("rtcg.lru_evictions").inc(evicted)
        obs.metrics.gauge("rtcg.lru_len").set(length)
    return fn
