"""The parallel, incremental analyse→cogen build engine.

The paper's separate-analysis property (Sec. 4.1) says each module can
be analysed and compiled to a generating extension given only the
binding-time *interfaces* of its imports.  The build engine exploits
that twice:

* **Wave scheduling** — the import DAG is partitioned into antichains
  (:meth:`~repro.modsys.graph.ModuleGraph.waves`); every module of a
  wave depends only on interfaces produced by earlier waves, so a
  wave's BTA+cogen jobs run concurrently in a
  :class:`~concurrent.futures.ProcessPoolExecutor` (``jobs=1`` falls
  back to a plain serial loop).  Workers receive *only* a module's
  source text and its imports' interface texts — the paper's interface
  discipline is also the process-communication protocol.

* **Content-addressed caching** — each module's artifacts (interface,
  genext source, compiled code object) are keyed by
  :func:`repro.bt.interface.module_key_v2` (SHA-256 of the source plus
  the scheme digests of the imported definitions it references) and
  stored in an :class:`~repro.pipeline.cache.ArtifactCache`.  A warm
  no-op rebuild performs zero re-analyses; an edit re-does exactly its
  dirty cone, with early cutoff wherever a referenced scheme comes out
  unchanged.

Determinism: a module's artifacts are a pure function of its source and
its imports' interfaces, so ``jobs=1`` and ``jobs=N`` produce
byte-identical interface files and genext sources.

Fault tolerance: jobs run under a
:class:`~repro.pipeline.faults.WaveSupervisor` governed by a
:class:`~repro.pipeline.faults.FaultPolicy` — per-module wall-clock
deadlines, bounded retries with capped backoff, automatic degradation
from the process pool to serial execution when a worker crashes, and a
*keep-going* mode that still builds the maximal cone of modules
unaffected by any failure, reporting every failure in one
:class:`~repro.pipeline.faults.BuildReport`.  A failed module publishes
nothing, so the cache is never poisoned: the next build re-analyses
exactly the failed cone.  See ``docs/robustness.md``.
"""

import hashlib
import marshal
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.bt.analysis import analyse_module
from repro.bt.interface import (
    INTERFACE_SUFFIX,
    Interface,
    InterfaceError,
    InterfaceStore,
    atomic_write_text,
    interface_text,
    module_key_v2,
)
from repro.genext.cogen import (
    GenextModule,
    assemble_module,
    cogen_fragments,
)
from repro.genext.link import GenextProgram, LoadedModule, load_genext
from repro.lang.errors import LangError, LexError, ValidationError
from repro.lang.parser import parse_program
from repro.lang.validate import resolve_module
from repro.lru import LruMemo
from repro.modsys.graph import ModuleGraph
from repro.modsys.program import SOURCE_SUFFIX
from repro.obs import Obs
from repro.obs.trace import NULL_TRACER, Tracer
from repro.pipeline import faultinject
from repro.pipeline.cache import (  # re-exported; the canonical home
    ArtifactCache,
    CODE_KIND,
    GENEXT_KIND,
    IFACE_KIND,
    read_text,
)
from repro.pipeline.faults import (
    KIND_ERROR,
    BuildError,
    BuildReport,
    FaultPolicy,
    ModuleFailure,
    WaveSupervisor,
)
from repro.pipeline.incremental import used_import_digests
from repro.pipeline.report import ModuleRebuild, RebuildReport
from repro.pipeline.stats import PipelineStats

DEFAULT_CACHE_DIRNAME = ".mspec-cache"

# A module's parse is a pure function of its file text, so a rebuild
# should pay a digest for every unchanged file, not a parse.  The scan
# memoises per process, keyed by the text's SHA-256, in a bounded LRU;
# the AST is frozen, so sharing a parsed Program across builds is safe.
# Parse errors are not memoised, and the structural checks run on every
# parse or memo hit; a file whose path and text are those of a module
# the last build built reuses that build's scanned source, checks and
# all (see the dirty-cone walk below).  The capacity covers a
# 10^3-module graph plus its edit history: a sweep over more files than
# this evicts in LRU order, i.e. misses.
_SCAN_MEMO = LruMemo(4096)  # sha256(text) -> Program


def clear_scan_memo():
    """Drop every memoised source parse (test isolation)."""
    _SCAN_MEMO.clear()


def _parse_source(text):
    """``parse_program(text)``, memoised on the text's digest."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    program = _SCAN_MEMO.get(digest)
    if program is None:
        program = parse_program(text)
        _SCAN_MEMO.put(digest, program)
    return program


def _read_source(path):
    """``(text, bytes read)`` of one source file, through the
    stat-checked :func:`~repro.pipeline.cache.read_text`.  Bytes that are
    not UTF-8 raise a :class:`LexError` naming the file, so the scan
    reports them the way it reports a parse error."""
    try:
        return read_text(path)
    except UnicodeDecodeError as exc:
        raise LexError(
            "%s: not UTF-8 text (%s)" % (os.path.basename(path), exc)
        ) from None


# Linking is the cheap step of the paper's pipeline (Sec. 6), so a
# relink should execute only the modules whose code changed.  Generated
# code calls imported functions through the running program's registry
# (``st.mk``), so an executed namespace depends on nothing but its own
# genext source and no link ever writes into it.  The link memo keeps
# one slot per module name: the last genext source linked under that
# name, its code object and its loaded module.  A later link reuses the
# loaded module whenever the source matches, and a program linked
# earlier keeps specialising what it did through its own registry.
# Keyed by name, not by cache root: one copy of each module however
# many caches link it.
_LINK_MEMO = LruMemo(4096)  # module name -> _LinkSlot


@dataclass(frozen=True)
class _LinkSlot:
    """The last link of one module.  ``published`` is the ``(cache root,
    key)`` its code artifact was last written under, if any."""

    source: str
    code: object
    loaded: LoadedModule
    published: Optional[Tuple[str, str]]


def clear_link_memo():
    """Drop every memoised linked module (test isolation)."""
    _LINK_MEMO.clear()


@dataclass(frozen=True)
class SourceModule:
    """One scanned source file (plus its parsed, unresolved module)."""

    name: str
    path: str
    text: str
    imports: Tuple[str, ...]
    module: object = field(default=None, compare=False, repr=False)


# The dirty-cone walk.  The last successful build leaves one record per
# module it built: the scanned source its key was derived from, the
# key, and what the key gave (parsed interface, genext, and the report
# line of a cache hit).  The scan reuses a record's source for a file
# whose path and text are unchanged.  The cache stage reuses a record
# for a module whose text and imports are unchanged and none of whose
# imports' interfaces moved in this build: the key would come out the
# same, so the digest merge, ``module_key_v2`` and the interface parse
# are skipped.  The artifacts are still fetched (through the
# stat-checked reads, so usually without a read) and must equal the
# record's.  The schedule is reused while no import list changed.  One
# map, the last build's, whatever its cache root; the cache stage does
# not consult records of another root or ``force_residual``.
_LAST_BUILD = None  # the last successful build's _LastBuild


@dataclass(frozen=True)
class _ModuleRecord:
    source: SourceModule
    key: str
    iface: Interface
    genext: GenextModule
    rebuild: ModuleRebuild  # this module's line in a build that hits


@dataclass(frozen=True)
class _LastBuild:
    root: str
    force_residual: frozenset
    records: Dict[str, _ModuleRecord]
    schedule: Tuple[Tuple[str, Tuple[str, ...]], ...]  # (module, imports)
    graph: ModuleGraph
    waves: Tuple[Tuple[str, ...], ...]


def clear_build_records():
    """Forget the last build's module records (test isolation)."""
    global _LAST_BUILD
    _LAST_BUILD = None


def _analyse_cogen_worker(payload):
    """Analyse and cogen one module; pure function of its inputs.

    ``payload`` is ``(name, source_text, ((dep, dep_interface_text), ...),
    force_residual_tuple[, trace_epoch])`` — text in, text out, so the
    job crosses process boundaries carrying nothing but what the paper
    says a separate analysis may see.  The source goes through the scan
    memo, so in-process (``jobs=1``) the parse the scan already paid is
    reused.  Returns ``(name, interface_text, genext_source)``, extended
    with the job's span events (plain dicts) when ``trace_epoch`` is
    given: the worker records its own ``job`` / ``analyse`` / ``cogen``
    spans on a short-lived local tracer running on the parent tracer's
    epoch, and the parent merges them into the build trace — one
    timeline, one clock, across processes.  Works identically
    in-process (``jobs=1``), so traces are span-for-span comparable
    between serial and parallel builds.
    """
    name, text, deps, force_residual = payload[:4]
    trace_epoch = payload[4] if len(payload) > 4 else None
    trace = trace_epoch is not None
    tracer = Tracer(epoch=trace_epoch) if trace else NULL_TRACER
    store = InterfaceStore()
    with tracer.span("job:%s" % name, cat="job", module=name):
        faultinject.fire("analyse", name)
        with tracer.span("analyse:%s" % name, cat="analyse", module=name):
            module = _parse_source(text).modules[0]
            visible = {}
            for dep_name, dep_text in deps:
                dep_iface = store.load_text(
                    dep_text, origin="<interface of %s>" % dep_name
                )
                if dep_iface.module != dep_name:
                    raise InterfaceError(
                        "interface for %s names module %s"
                        % (dep_name, dep_iface.module)
                    )
                visible.update(dep_iface.schemes)
            arities = {fname: len(s.args) for fname, s in visible.items()}
            resolved = resolve_module(module, arities)
            analysis = analyse_module(resolved, visible, frozenset(force_residual))
        faultinject.fire("cogen", name)
        with tracer.span("cogen:%s" % name, cat="cogen", module=name):
            fragments = cogen_fragments(analysis)
            genext = assemble_module(name, resolved.imports, fragments)
    iface = interface_text(name, analysis.schemes)
    if trace:
        return name, iface, genext.source, tracer.events
    return name, iface, genext.source


@contextmanager
def _stage(stats, tracer, name):
    """One pipeline stage: a ``stage.<name>`` timer in the metrics
    registry and a ``stage:<name>`` span in the trace."""
    with tracer.span("stage:%s" % name, cat="stage"):
        with stats.stage(name):
            yield


@dataclass
class BuildResult:
    """Everything one build produced.

    Under ``keep_going`` the result may be *partial*: ``genexts`` holds
    only the modules outside every failed cone (an import-closed set,
    so :meth:`link` still works) and :attr:`report` records the rest.
    """

    genexts: Tuple[GenextModule, ...]  # in concatenated-wave (topo) order
    keys: Dict[str, str]  # module name -> content-addressed build key
    waves: Tuple[Tuple[str, ...], ...]
    analysed: List[str]
    cached: List[str]
    stats: PipelineStats
    cache: Optional[ArtifactCache] = field(repr=False, default=None)
    report: BuildReport = field(default_factory=BuildReport)
    obs: Optional[Obs] = field(repr=False, default=None)
    rebuild: RebuildReport = field(default_factory=RebuildReport)

    def link(self):
        """Compile, execute, and link the generating extensions.

        A module whose genext source is unchanged since the last link of
        its name reuses that link's executed namespace (:data:`_LINK_MEMO`):
        generated code reaches its imports through the running program's
        registry, so a namespace never depends on what it imports, and
        the returned program may share a
        :class:`~repro.genext.link.LoadedModule` with programs linked
        earlier.  Any other module takes its code object from the build
        cache, or compiles it; without a cache every such module is
        compiled afresh.  Either way the build cache holds a code
        artifact for every module when the link returns.

        Counts ``link.modules_reused`` and ``link.modules_executed`` in
        the build's metrics registry."""
        loaded = []
        reused = 0
        tracer = self.obs.tracer if self.obs is not None else NULL_TRACER
        with _stage(self.stats, tracer, "link"):
            for m in self.genexts:
                target = None
                if self.cache is not None:
                    target = (self.cache.root, self.keys[m.name])
                slot = _LINK_MEMO.get(m.name)
                if slot is not None and slot.source == m.source:
                    reused += 1
                    new = slot
                else:
                    code = self._code(m)
                    new = _LinkSlot(
                        m.source, code, load_genext(m, code=code), target
                    )
                if target is not None and new.published != target:
                    self.cache.put_bytes(
                        target[1], CODE_KIND, marshal.dumps(new.code)
                    )
                    new = replace(new, published=target)
                if new is not slot:
                    _LINK_MEMO.put(m.name, new)
                module = new.loaded
                if module.imports != m.imports:  # an unused import moved
                    module = replace(module, imports=m.imports)
                loaded.append(module)
            metrics = self.stats.metrics
            metrics.counter("link.modules_reused").inc(reused)
            metrics.counter("link.modules_executed").inc(len(loaded) - reused)
        return GenextProgram(loaded)

    def _code(self, m):
        """The code object of ``m``'s genext source: unmarshalled from
        the build cache, or compiled and published there."""
        if self.cache is not None:
            data = self.cache.get_bytes(self.keys[m.name], CODE_KIND)
            if data is not None:
                try:
                    return marshal.loads(data)
                except (EOFError, ValueError, TypeError):
                    pass  # corrupt or foreign: recompile
        code = compile(m.source, "%s.genext.py" % m.name, "exec")
        if self.cache is not None:
            self.cache.put_bytes(
                self.keys[m.name], CODE_KIND, marshal.dumps(code)
            )
        return code


class BuildEngine:
    """Wave-parallel, cache-aware driver for analyse→cogen.

    ``src_dir`` holds ``*.mod`` sources (one module per file, file name
    matching the module name).  Artifacts land in ``cache_dir``
    (defaults to ``<src_dir>/.mspec-cache``); when ``iface_dir`` /
    ``out_dir`` are given, ``*.bti`` and ``*.genext.py`` are
    additionally published there for the classic on-disk vendor
    workflow (``mspec analyze`` publishes the interfaces alone).
    ``policy`` governs supervision (deadlines, retries, keep-going); the
    default policy fails fast with no deadline, matching the classic
    behaviour.
    """

    def __init__(self, src_dir, options=None, obs=None):
        from repro.api import build_options

        options = build_options("BuildEngine", options)
        self.src_dir = src_dir
        self.options = options
        self.cache = ArtifactCache(
            options.cache_dir or os.path.join(src_dir, DEFAULT_CACHE_DIRNAME)
        )
        self.jobs = options.jobs
        self.force_residual = options.force_residual
        self.iface_dir = options.iface_dir
        self.out_dir = options.out_dir
        self.policy = options.fault_policy()
        self.obs = obs if obs is not None else Obs()

    # -- scanning -----------------------------------------------------------

    def scan(self):
        """Parse every source file (an unchanged text is a memo hit, see
        :data:`_SCAN_MEMO`); returns ``({name: SourceModule},
        {name: ModuleFailure})``.

        Performs the same structural checks as
        :func:`~repro.modsys.program.load_program_dir` (one module per
        file, name matches file name, no functors) but resolves nothing:
        resolution happens per module, against interfaces, inside the
        build jobs.  A file that is not UTF-8 text, fails to parse or fails
        the structural checks does not abort the scan: it becomes a
        :class:`~repro.pipeline.faults.ModuleFailure` under the name the
        file name implies, so the build treats it exactly like a module
        that failed in a worker — its cone is skipped, everything else
        still builds under ``keep_going``."""
        sources = {}
        failures = {}
        last = _LAST_BUILD
        records = last.records if last is not None else {}
        skipped_reads = 0
        prefix = os.path.join(self.src_dir, "")
        for entry in sorted(os.listdir(self.src_dir)):
            if not entry.endswith(SOURCE_SUFFIX):
                continue
            path = prefix + entry
            expected = entry[: -len(SOURCE_SUFFIX)]
            try:
                text, nbytes = _read_source(path)
                skipped_reads += not nbytes
                record = records.get(expected)
                if (
                    record is not None
                    and record.source.path == path
                    and record.source.text == text
                ):
                    # Passed every check below in the last build.
                    sources[expected] = record.source
                    continue
                parsed = _parse_source(text)
                if len(parsed.modules) != 1:
                    raise ValidationError(
                        "%s: expected exactly one module per file" % entry
                    )
                module = parsed.modules[0]
                if module.name != expected:
                    raise ValidationError(
                        "%s: file defines module %s (file name must match)"
                        % (entry, module.name)
                    )
                if module.is_functor:
                    raise ValidationError(
                        "%s: parameterised module %s cannot be built directly "
                        "(instantiate it with repro.functor first)"
                        % (entry, module.name)
                    )
            except LangError as exc:
                failures[expected] = ModuleFailure.from_exception(
                    expected, KIND_ERROR, exc, attempts=1
                )
                continue
            sources[module.name] = SourceModule(
                name=module.name,
                path=path,
                text=text,
                imports=tuple(module.imports),
                module=module,
            )
        if skipped_reads and self.cache.metrics is not None:
            self.cache.metrics.counter("cache.reads_skipped").inc(skipped_reads)
        return sources, failures

    # -- building -----------------------------------------------------------

    def _publish(self, name, iface, genext_source):
        """Mirror one module's artifacts into iface_dir/out_dir (skipping
        byte-identical files so no-op rebuilds do not churn mtimes)."""

        def publish_text(path, text):
            try:
                with open(path, "rb") as f:
                    if f.read() == text.encode("utf-8"):
                        return
            except OSError:
                pass
            atomic_write_text(path, text)

        if self.iface_dir is not None:
            os.makedirs(self.iface_dir, exist_ok=True)
            publish_text(
                os.path.join(self.iface_dir, name + INTERFACE_SUFFIX), iface
            )
        if self.out_dir is not None:
            os.makedirs(self.out_dir, exist_ok=True)
            publish_text(
                os.path.join(self.out_dir, "%s.genext.py" % name), genext_source
            )

    @staticmethod
    def _failure_cone(graph, failures):
        """``{module: root cause}`` for every module with a failed module
        in its import cone (deterministically the alphabetically first
        root cause).  One pass in topological order: a module's roots
        are its failed imports' root causes plus its imports' roots."""
        cone = {}
        for name in graph.topo_order():
            roots = []
            for dep in graph.imports_of(name):
                if dep in failures:
                    roots.append(failures[dep].root_cause)
                if dep in cone:
                    roots.append(cone[dep])
            if roots:
                cone[name] = min(roots)
        return cone

    def build(self, stats=None):
        """Run the pipeline; returns a :class:`BuildResult`.

        With the default fail-fast policy a module failure raises
        :class:`~repro.pipeline.faults.BuildError` (carrying the
        :class:`~repro.pipeline.faults.BuildReport`) once the failing
        wave has been drained.  With ``policy.keep_going`` all failures
        are collected and a partial :class:`BuildResult` is returned;
        inspect ``result.report``."""
        if stats is None:
            stats = PipelineStats(metrics=self.obs.metrics, bus=self.obs.bus)
        obs = self.obs.with_metrics(stats.metrics)
        tracer = obs.tracer
        self.cache.metrics = stats.metrics
        stats.jobs = self.jobs
        with tracer.span(
            "build", cat="build", src_dir=self.src_dir, jobs=self.jobs
        ):
            return self._build(stats, obs, tracer)

    def _build(self, stats, obs, tracer):
        global _LAST_BUILD
        with _stage(stats, tracer, "scan"):
            sources, failures = self.scan()  # name -> ModuleFailure
        stats.modules = len(sources) + len(failures)
        for name in sorted(failures):
            stats.note_failed(name)
        last = _LAST_BUILD
        with _stage(stats, tracer, "schedule"):
            # Unparseable modules enter the graph as import-less nodes:
            # their name is known (from the file name), so importers
            # still land in their cone and are skipped, not crashed.
            schedule = tuple(
                [(s.name, s.imports) for s in sources.values()]
                + [(name, ()) for name in failures]
            )
            if last is not None and last.schedule == schedule:
                graph, waves = last.graph, last.waves
            else:
                graph = ModuleGraph(dict(schedule))
                waves = graph.waves()
        stats.wave_widths = tuple(len(w) for w in waves)
        records = {}
        if (
            last is not None
            and last.root == self.cache.root
            and last.force_residual == self.force_residual
        ):
            records = last.records

        store = InterfaceStore()
        prev_refs = self.cache.read_refs()  # module -> last build's key
        changed = set()  # modules whose interface changed vs. last build
        moved = set()  # modules whose interface differs from their record
        rebuilds = {}  # name -> ModuleRebuild
        built = {}  # name -> _ModuleRecord, this build

        def prev_iface_digests(name):
            """Per-def digests of the module's previous build, if any."""
            prev_key = prev_refs.get(name)
            if prev_key is None:
                return None
            text = self.cache.get_text(prev_key, IFACE_KIND)
            if text is None:
                return None
            try:
                return store.load_text(text, origin="<previous>").digests
            except InterfaceError:
                return None

        def note_interface(name, iface):
            """Track whether the module's interface moved this build:
            against the last build's refs (a hit on a module with a
            changed dep is a module def-level keying specifically saved;
            module-level keys would miss) and against its record (an
            importer may reuse its own record only if none moved)."""
            prev_key = prev_refs.get(name)
            if prev_key is not None and prev_key != keys[name]:
                prev_text = self.cache.get_text(prev_key, IFACE_KIND)
                if prev_text is not None and prev_text != iface.text:
                    changed.add(name)
            record = records.get(name)
            if record is None or record.iface.text != iface.text:
                moved.add(name)

        ifaces = {}  # name -> parsed Interface, this build
        genexts = {}
        keys = {}
        order = []
        skipped = {}  # name -> root-cause module
        cone, cone_of = {}, 0  # _failure_cone of the first cone_of failures

        def failed_root(name):
            """The root-cause module in ``name``'s import cone, or
            ``None``.  Free while nothing has failed; otherwise the cone
            is recomputed only when the failure set has grown."""
            nonlocal cone, cone_of
            if not failures:
                return None
            if cone_of != len(failures):
                cone, cone_of = self._failure_cone(graph, failures), len(failures)
            return cone.get(name)

        if failures and not self.policy.keep_going:
            for name in graph.modules():
                if name in failures:
                    continue
                root = failed_root(name)
                if root is not None:
                    skipped[name] = root
                    stats.note_skipped(name)
            raise BuildError(self._report(failures, skipped, order, stats))
        supervisor = WaveSupervisor(
            _analyse_cogen_worker, self.jobs, self.policy, stats, obs=obs
        )

        def probe(name):
            """Look ``name`` up in the cache; returns whether it hit."""
            src = sources[name]
            record = records.get(name)
            reuse = (
                record is not None
                and record.source.text == src.text
                and record.source.imports == src.imports
                and moved.isdisjoint(src.imports)
            )
            if reuse:
                key = record.key  # what module_key_v2 gave the same inputs
            else:
                # Def-level keying: the key reads only the digests of
                # the imported defs the module references, so an
                # upstream scheme change it never looks at cannot miss
                # it.
                digests = {}
                for dep in src.imports:
                    digests.update(ifaces[dep].digests)
                key = module_key_v2(
                    src.text.encode("utf-8"),
                    src.imports,
                    used_import_digests(src.module, digests),
                    self.force_residual,
                )
            keys[name] = key
            order.append(name)
            iface_text_ = self.cache.get_text(key, IFACE_KIND)
            genext_source = self.cache.get_text(key, GENEXT_KIND)
            if (
                reuse
                and iface_text_ == record.iface.text
                and genext_source == record.genext.source
            ):
                built[name] = record if record.source is src else replace(
                    record, source=src
                )
            elif iface_text_ is not None and genext_source is not None:
                try:
                    iface = store.load_text(
                        iface_text_, origin=self.cache.path(key, IFACE_KIND)
                    )
                except InterfaceError:
                    return False  # corrupt entry: rebuild it
                if iface.module != name:
                    return False
                built[name] = _ModuleRecord(
                    src,
                    key,
                    iface,
                    GenextModule(name, src.imports, genext_source),
                    ModuleRebuild(
                        module=name,
                        action="cached",
                        reused=tuple(src.module.def_names()),
                    ),
                )
            else:
                return False
            hit = built[name]
            ifaces[name] = hit.iface
            genexts[name] = hit.genext
            note_interface(name, hit.iface)
            stats.note_cache_hit(name)
            obs.bus.emit("cache.hit", module=name, key=key)
            rebuilds[name] = hit.rebuild
            if not changed.isdisjoint(src.imports):
                # A dep's interface moved but the def-level key still
                # hit: exactly the re-analysis module-level keying
                # would have paid.
                stats.note_cutoff_skip(name)
            return True

        def analyse_wave(misses):
            """Analyse and cogen one wave's misses, then publish them."""
            payloads = [
                (
                    name,
                    sources[name].text,
                    tuple((dep, ifaces[dep].text) for dep in sources[name].imports),
                    tuple(sorted(self.force_residual)),
                    tracer.epoch if tracer.enabled else None,
                )
                for name in misses
            ]
            with _stage(stats, tracer, "analyse"):
                results, wave_failures = supervisor.run_wave(payloads)
            for name, failure in wave_failures.items():
                failures[name] = failure
                stats.note_failed(name)
                order.remove(name)
                del keys[name]
            with _stage(stats, tracer, "publish"):
                for name in misses:
                    if name not in results:
                        continue
                    res = results[name]
                    iface_text_, genext_source = res[1], res[2]
                    if len(res) > 3:
                        tracer.add_events(res[3])
                    data = faultinject.corrupt(
                        "publish", name, IFACE_KIND, iface_text_.encode("utf-8")
                    )
                    self.cache.put_bytes(keys[name], IFACE_KIND, data)
                    data = faultinject.corrupt(
                        "publish", name, GENEXT_KIND,
                        genext_source.encode("utf-8"),
                    )
                    self.cache.put_bytes(keys[name], GENEXT_KIND, data)
                    # The worker's text is authoritative; the cache copy
                    # may have been corrupted by an injected fault above.
                    src = sources[name]
                    iface = store.load_text(
                        iface_text_, origin="<analysis of %s>" % name
                    )
                    ifaces[name] = iface
                    genexts[name] = GenextModule(name, src.imports, genext_source)
                    note_interface(name, iface)
                    stats.note_analysed(name)
                    prev_digests = prev_iface_digests(name)
                    re_derived = tuple(src.module.def_names())
                    cut = tuple(
                        n
                        for n in re_derived
                        if prev_digests is not None
                        and prev_digests.get(n) == iface.digests.get(n)
                    )
                    stats.note_defs(re_derived=len(re_derived), cut_off=len(cut))
                    rebuilds[name] = ModuleRebuild(
                        module=name,
                        action="analysed",
                        re_derived=re_derived,
                        cut_off=cut,
                    )
                    built[name] = _ModuleRecord(
                        src,
                        keys[name],
                        iface,
                        genexts[name],
                        ModuleRebuild(
                            module=name, action="cached", reused=re_derived
                        ),
                    )

        # The cache stage is one span and one timer sample per build; a
        # wave gets its own span only when it analyses something.
        cache_seconds = 0.0
        try:
            with tracer.span("stage:cache", cat="stage"):
                for wave_index, wave in enumerate(waves):
                    started = time.perf_counter()
                    misses = []
                    for name in wave:
                        if name in failures:  # failed at scan: no source
                            continue
                        root = failed_root(name)
                        if root is not None:
                            skipped[name] = root
                            stats.note_skipped(name)
                            continue
                        if not probe(name):
                            misses.append(name)
                            stats.note_cache_miss(name)
                            obs.bus.emit(
                                "cache.miss", module=name, key=keys[name]
                            )
                    cache_seconds += time.perf_counter() - started
                    if misses:
                        with tracer.span(
                            "wave[%d]" % wave_index, cat="build", width=len(wave)
                        ):
                            analyse_wave(misses)
                    if failures and not self.policy.keep_going:
                        # Fail fast — but name the whole downstream cone,
                        # so the report reads the same as keep-going's.
                        for name in sources:
                            if (
                                name in genexts
                                or name in failures
                                or name in skipped
                            ):
                                continue
                            root = failed_root(name)
                            if root is not None:
                                skipped[name] = root
                                stats.note_skipped(name)
                        raise BuildError(
                            self._report(failures, skipped, order, stats)
                        )
        finally:
            stats.note_stage("cache", cache_seconds)
            supervisor.shutdown()

        with _stage(stats, tracer, "publish"):
            for name in order:
                self._publish(name, ifaces[name].text, genexts[name].source)
        if order:
            # Advance the refs so the *next* build can find this one's
            # interfaces (for the cut-off report) even after an edit
            # changes every key.  A no-op rebuild moves no key and leaves
            # the file untouched.
            refs = self.cache.read_refs()
            merged = dict(refs)
            merged.update({name: keys[name] for name in order})
            if merged != refs:
                self.cache.write_refs(merged)
        _LAST_BUILD = _LastBuild(
            self.cache.root, self.force_residual, built, schedule, graph, waves
        )

        for name in sorted(failures):
            rebuilds[name] = ModuleRebuild(module=name, action="failed")
        for name in sorted(skipped):
            rebuilds[name] = ModuleRebuild(module=name, action="skipped")
        rebuild = RebuildReport(
            modules=tuple(
                rebuilds[name]
                for name in order + sorted(set(rebuilds) - set(order))
            ),
        )

        return BuildResult(
            genexts=tuple(genexts[name] for name in order),
            keys=keys,
            waves=waves,
            analysed=list(stats.analysed),
            cached=list(stats.cached),
            stats=stats,
            cache=self.cache,
            report=self._report(failures, skipped, order, stats),
            obs=obs,
            rebuild=rebuild,
        )

    def _report(self, failures, skipped, order, stats):
        return BuildReport(
            failures=[failures[n] for n in sorted(failures)],
            skipped=dict(skipped),
            succeeded=list(order),
            retries=stats.retries,
            degraded=bool(stats.degradations),
        )


def build_dir(src_dir, options=None, *, stats=None, obs=None):
    """One-call convenience: build a directory of ``*.mod`` sources.

    ``options`` is a :class:`repro.api.BuildOptions`.  When
    ``options.trace_path`` / ``options.metrics_path`` are set the trace
    and metrics snapshot are written there even if the build raises.
    """
    from repro.api import build_options

    options = build_options("build_dir", options)
    if obs is None:
        obs = Obs.enabled() if options.trace_path else Obs()
    engine = BuildEngine(src_dir, options, obs=obs)
    try:
        return engine.build(stats=stats)
    finally:
        if options.trace_path:
            obs.tracer.export(options.trace_path)
        if options.metrics_path:
            registry = stats.metrics if stats is not None else obs.metrics
            registry.export(options.metrics_path)
