"""Per-stage instrumentation for the build pipeline.

A :class:`PipelineStats` rides through one :class:`~repro.pipeline.build.
BuildEngine` run and records what a scaling experiment needs: how many
modules were re-analysed vs served from cache, the wave widths the
scheduler found (the available parallelism), and wall time per stage.
``mspec build --stats`` prints :meth:`PipelineStats.report`;
benchmarks serialise :meth:`PipelineStats.as_dict`.

Since the observability layer (``repro.obs``) landed, ``PipelineStats``
is a *view*: every counter and timer lives in a
:class:`~repro.obs.metrics.MetricsRegistry` (``stats.metrics``), shared
with the fault supervisor, the cache accounting, and — through
``mspec build --metrics`` — the exported snapshot.  The scalar
attributes (``retries``, ``timeouts``, ``crashes``, ``degradations``,
``jobs``, ``modules``) are properties over registry metrics, so the
legacy reading *and writing* spellings (``stats.retries += 1``) keep
working and can never disagree with the snapshot.

Metric names (see ``docs/observability.md`` for the full glossary):

========================  ======  =======================================
``cache.hits``            counter modules served from the artifact cache
``cache.misses``          counter modules scheduled for analyse+cogen
``cache.reads_skipped``   counter file reads a matching stat stamp saved
``modules.analysed``      counter modules analysed+cogen'd this build
``modules.failed``        counter modules whose job exhausted retries
``modules.skipped``       counter modules inside a failed cone
``incr.defs_re_derived``  counter defs whose scheme was re-derived
``incr.defs_cut_off``     counter re-derived defs with unchanged digests
``incr.modules_skipped``  counter dep-changed modules saved by cutoff
``link.modules_reused``   counter modules whose linked namespace was reused
``link.modules_executed`` counter modules the link executed
``faults.retries``        counter re-attempts after error/timeout
``faults.timeouts``       counter deadline kills
``faults.crashes``        counter broken worker pools
``faults.degradations``   counter pool → serial downgrades
``build.jobs``            gauge   requested pool width
``build.modules``         gauge   modules discovered by the scan
``build.waves``           gauge   number of scheduling waves
``stage.<name>``          timer   wall seconds per pipeline stage
========================  ======  =======================================
"""

from contextlib import contextmanager

from repro.obs.metrics import MetricsRegistry

# Stage names in pipeline order, for stable reporting.
STAGES = ("scan", "schedule", "cache", "analyse", "publish", "link")

_STAGE_PREFIX = "stage."


def _counter_property(metric, doc):
    def _get(self):
        return self.metrics.counter(metric).value

    def _set(self, value):
        self.metrics.counter(metric).set(value)

    return property(_get, _set, doc=doc)


def _gauge_property(metric, doc):
    def _get(self):
        return self.metrics.gauge(metric).value

    def _set(self, value):
        self.metrics.gauge(metric).set(value)

    return property(_get, _set, doc=doc)


class PipelineStats:
    """Counters and timers for one build, backed by a metrics registry.

    ``metrics`` (or a ``bus`` for a fresh registry) may be supplied to
    share the store with an :class:`~repro.obs.Obs`; by default each
    stats object owns a private registry.
    """

    def __init__(self, metrics=None, bus=None):
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(bus=bus)
        )
        self.jobs = 1
        self.wave_widths = ()
        self.analysed = []  # cache misses, in publish order
        self.cached = []  # cache hits
        self.failed = []  # exhausted retries
        self.skipped = []  # in a failed cone

    # -- registry-backed scalars --------------------------------------------

    jobs = _gauge_property("build.jobs", "requested pool width")
    modules = _gauge_property("build.modules", "modules found by the scan")
    retries = _counter_property(
        "faults.retries", "re-attempts after error/timeout"
    )
    timeouts = _counter_property("faults.timeouts", "deadline kills")
    crashes = _counter_property("faults.crashes", "broken worker pools")
    degradations = _counter_property(
        "faults.degradations", "pool -> serial downgrades"
    )

    @property
    def wave_widths(self):
        return self._wave_widths

    @wave_widths.setter
    def wave_widths(self, widths):
        self._wave_widths = tuple(widths)
        self.metrics.gauge("build.waves").set(len(self._wave_widths))

    # -- recording ----------------------------------------------------------

    @contextmanager
    def stage(self, name):
        """Accumulate wall time under ``name`` (re-entrant per build:
        repeated stages — one analyse burst per wave — sum up)."""
        with self.metrics.timer(_STAGE_PREFIX + name).time():
            yield

    def note_stage(self, name, seconds):
        """Add ``seconds`` to stage ``name`` as one sample (a stage timed
        in pieces, such as the cache stage's per-wave probes)."""
        self.metrics.timer(_STAGE_PREFIX + name).add(seconds)

    def note_cache_hit(self, name):
        self.cached.append(name)
        self.metrics.counter("cache.hits").inc()

    def note_cache_miss(self, name):
        self.metrics.counter("cache.misses").inc()

    def note_analysed(self, name):
        self.analysed.append(name)
        self.metrics.counter("modules.analysed").inc()

    def note_defs(self, re_derived=0, cut_off=0):
        """Per-definition accounting for one module's rebuild."""
        if re_derived:
            self.metrics.counter("incr.defs_re_derived").inc(re_derived)
        if cut_off:
            self.metrics.counter("incr.defs_cut_off").inc(cut_off)

    def note_cutoff_skip(self, name):
        """A cache hit on a module whose deps' interfaces changed this
        build — i.e. a module that def-level keying specifically saved
        from re-analysis (module-level keys would have missed)."""
        self.metrics.counter("incr.modules_skipped").inc()

    def note_failed(self, name):
        self.failed.append(name)
        self.metrics.counter("modules.failed").inc()

    def note_skipped(self, name):
        self.skipped.append(name)
        self.metrics.counter("modules.skipped").inc()

    # -- derived views -------------------------------------------------------

    @property
    def stage_seconds(self):
        """``{stage: seconds}`` — a live view over the registry timers."""
        return {
            name[len(_STAGE_PREFIX):]: t.seconds
            for name, t in self.metrics.timers.items()
            if name.startswith(_STAGE_PREFIX)
        }

    @property
    def total_seconds(self):
        return sum(self.stage_seconds.values())

    def as_dict(self):
        """A JSON-ready snapshot (machine-readable benchmark record)."""
        counter = lambda name: self.metrics.counter(name).value
        return {
            "jobs": self.jobs,
            "modules": self.modules,
            "wave_widths": list(self.wave_widths),
            "analysed": list(self.analysed),
            "cached": list(self.cached),
            "n_analysed": len(self.analysed),
            "n_cached": len(self.cached),
            "defs_re_derived": counter("incr.defs_re_derived"),
            "defs_cut_off": counter("incr.defs_cut_off"),
            "modules_cutoff_skipped": counter("incr.modules_skipped"),
            "failed": list(self.failed),
            "skipped": list(self.skipped),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "degradations": self.degradations,
            "stage_seconds": dict(self.stage_seconds),
            "total_seconds": self.total_seconds,
        }

    def report(self):
        """A human-readable multi-line summary."""
        lines = []
        lines.append(
            "pipeline: %d module(s) in %d wave(s) (widths %s), jobs=%d"
            % (
                self.modules,
                len(self.wave_widths),
                "/".join(str(w) for w in self.wave_widths) or "-",
                self.jobs,
            )
        )
        lines.append(
            "artifacts: %d analysed+cogen'd, %d from cache"
            % (len(self.analysed), len(self.cached))
        )
        cutoff_skips = self.metrics.counter("incr.modules_skipped").value
        if cutoff_skips:
            lines.append(
                "cutoff: %d module(s) cached although an import's "
                "interface changed" % cutoff_skips
            )
        if self.failed or self.skipped:
            lines.append(
                "failures: %d failed, %d skipped (downstream cones)"
                % (len(self.failed), len(self.skipped))
            )
        if self.retries or self.timeouts or self.crashes:
            lines.append(
                "faults: %d retr%s, %d timeout(s), %d crash(es)%s"
                % (
                    self.retries,
                    "y" if self.retries == 1 else "ies",
                    self.timeouts,
                    self.crashes,
                    ", degraded to serial" if self.degradations else "",
                )
            )
        stage_seconds = self.stage_seconds
        known = [s for s in STAGES if s in stage_seconds]
        extra = [s for s in stage_seconds if s not in STAGES]
        for name in known + sorted(extra):
            lines.append("%-10s %8.2f ms" % (name, stage_seconds[name] * 1e3))
        lines.append("%-10s %8.2f ms" % ("total", self.total_seconds * 1e3))
        return "\n".join(lines)
