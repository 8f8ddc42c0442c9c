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
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.bt.analysis import analyse_module
from repro.bt.interface import (
    INTERFACE_SUFFIX,
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
# scan, hit or miss.  The capacity covers a 10^3-module graph plus its
# edit history: a sweep over more files than this evicts in LRU order,
# i.e. misses.
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
    """The text of one source file.  Bytes that are not UTF-8 raise a
    :class:`LexError` naming the file, so the scan reports them the way
    it reports a parse error."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise LexError(
            "%s: not UTF-8 text (%s)" % (os.path.basename(path), exc)
        ) from None


# Linking is the cheap step of the paper's pipeline (Sec. 6), so a
# relink should execute only the modules whose code or imported
# functions moved.  The link memo keeps one slot per module name: the
# last genext source and imports linked under that name, their code
# object and the executed namespace.  A later link reuses the namespace
# only when ``_link`` would rebind it to the very objects it already
# holds, so no namespace is ever rebound to a different function and a
# program linked earlier keeps specialising what it did.  Keyed by name,
# not by cache root: one copy of each module however many caches link it.
_LINK_MEMO = LruMemo(4096)  # module name -> _LinkSlot


@dataclass(frozen=True)
class _LinkSlot:
    """The last link of one module.  ``loaded`` is ``None`` only while
    a link is building the slot; ``published`` is the ``(cache root,
    key)`` its code artifact was last written under, if any."""

    source: str
    imports: Tuple[str, ...]
    code: object
    loaded: Optional[LoadedModule]
    published: Optional[Tuple[str, str]]


def clear_link_memo():
    """Drop every memoised linked module (test isolation)."""
    _LINK_MEMO.clear()


def _bound_to(loaded, registry):
    """Whether every function ``loaded`` imports is already bound to the
    one ``registry`` gives it, i.e. ``_link`` would rebind nothing."""
    namespace = loaded.namespace
    for src, py in namespace.get("_IMPORTED", {}).items():
        if src not in registry or namespace.get(py) is not registry[src]:
            return False
    return True


@dataclass(frozen=True)
class SourceModule:
    """One scanned source file (plus its parsed, unresolved module)."""

    name: str
    path: str
    text: str
    imports: Tuple[str, ...]
    module: object = field(default=None, compare=False, repr=False)


def _analyse_cogen_worker(payload):
    """Analyse and cogen one module; pure function of its inputs.

    ``payload`` is ``(name, source_text, ((dep, dep_interface_text), ...),
    force_residual_tuple[, trace])`` — text in, text out, so the job
    crosses process boundaries carrying nothing but what the paper says
    a separate analysis may see.  The source goes through the scan memo,
    so in-process (``jobs=1``) the parse the scan already paid is
    reused.  Returns ``(name, interface_text, genext_source)``, extended
    with the job's span events (plain dicts) when ``trace`` is set: the
    worker records its own ``job`` / ``analyse`` / ``cogen`` spans on a
    short-lived local tracer, and the parent merges them into the build
    trace — one timeline across processes.  Works identically in-process
    (``jobs=1``), so traces are span-for-span comparable between serial
    and parallel builds.
    """
    name, text, deps, force_residual = payload[:4]
    trace = payload[4] if len(payload) > 4 else False
    tracer = Tracer() if trace else NULL_TRACER
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

        A module whose genext source and imports are unchanged since the
        last link of its name reuses that link's executed namespace when
        every function it imports is the very one this link gives it
        (:data:`_LINK_MEMO`); the returned program may therefore share a
        :class:`~repro.genext.link.LoadedModule` with programs linked
        earlier.  A module whose imported functions moved re-executes its
        memoised code object.  Any other module takes its code object
        from the build cache, or compiles it; without a cache every such
        module is compiled afresh.  Either way the build cache holds a
        code artifact for every module when the link returns.

        Counts ``link.modules_reused`` and ``link.modules_executed`` in
        the build's metrics registry."""
        loaded = []
        registry = {}  # the exports of the modules linked so far
        reused = 0
        tracer = self.obs.tracer if self.obs is not None else NULL_TRACER
        with _stage(self.stats, tracer, "link"):
            for m in self.genexts:
                target = None
                if self.cache is not None:
                    target = (self.cache.root, self.keys[m.name])
                slot = _LINK_MEMO.get(m.name)
                if slot is None or (slot.source, slot.imports) != (
                    m.source,
                    m.imports,
                ):
                    slot = _LinkSlot(
                        m.source, m.imports, self._code(m), None, target
                    )
                new = slot
                if slot.loaded is not None and _bound_to(slot.loaded, registry):
                    reused += 1
                else:
                    new = replace(new, loaded=load_genext(m, code=slot.code))
                if target is not None and new.published != target:
                    self.cache.put_bytes(
                        target[1], CODE_KIND, marshal.dumps(new.code)
                    )
                    new = replace(new, published=target)
                if new is not slot:
                    _LINK_MEMO.put(m.name, new)
                registry.update(new.loaded.exports)
                loaded.append(new.loaded)
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
        for entry in sorted(os.listdir(self.src_dir)):
            if not entry.endswith(SOURCE_SUFFIX):
                continue
            path = os.path.join(self.src_dir, entry)
            expected = entry[: -len(SOURCE_SUFFIX)]
            try:
                text = _read_source(path)
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
        with _stage(stats, tracer, "scan"):
            sources, failures = self.scan()  # name -> ModuleFailure
        stats.modules = len(sources) + len(failures)
        for name in sorted(failures):
            stats.note_failed(name)
        with _stage(stats, tracer, "schedule"):
            # Unparseable modules enter the graph as import-less nodes:
            # their name is known (from the file name), so importers
            # still land in their cone and are skipped, not crashed.
            graph = ModuleGraph(
                {
                    **{s.name: s.imports for s in sources.values()},
                    **{name: () for name in failures},
                }
            )
            waves = graph.waves()
        stats.wave_widths = tuple(len(w) for w in waves)

        store = InterfaceStore()
        prev_refs = self.cache.read_refs()  # module -> last build's key
        changed = set()  # modules whose interface changed vs. last build
        rebuilds = {}  # name -> ModuleRebuild

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
            """Track whether the module's interface moved this build —
            a hit on a module with a changed dep is a module def-level
            keying specifically saved (module-level keys would miss)."""
            prev_key = prev_refs.get(name)
            if prev_key is not None and prev_key != keys[name]:
                prev_text = self.cache.get_text(prev_key, IFACE_KIND)
                if prev_text is not None and prev_text != iface.text:
                    changed.add(name)

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

        try:
            for wave_index, wave in enumerate(waves):
                misses = []
                with tracer.span(
                    "wave[%d]" % wave_index, cat="build", width=len(wave)
                ):
                    with _stage(stats, tracer, "cache"):
                        for name in wave:
                            if name in failures:  # failed at scan: no source
                                continue
                            src = sources[name]
                            root = failed_root(name)
                            if root is not None:
                                skipped[name] = root
                                stats.note_skipped(name)
                                continue
                            # Def-level keying: the key reads only the
                            # digests of the imported defs the module
                            # references, so an upstream scheme change
                            # it never looks at cannot miss it.
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
                            iface = None
                            if iface_text_ is not None and genext_source is not None:
                                try:
                                    parsed = store.load_text(
                                        iface_text_,
                                        origin=self.cache.path(key, IFACE_KIND),
                                    )
                                    if parsed.module == name:
                                        iface = parsed
                                except InterfaceError:
                                    iface = None  # corrupt entry: rebuild it
                            if iface is not None:
                                ifaces[name] = iface
                                genexts[name] = GenextModule(
                                    name, src.imports, genext_source
                                )
                                note_interface(name, iface)
                                stats.note_cache_hit(name)
                                obs.bus.emit("cache.hit", module=name, key=key)
                                rebuilds[name] = ModuleRebuild(
                                    module=name,
                                    action="cached",
                                    reused=tuple(src.module.def_names()),
                                )
                                if any(dep in changed for dep in src.imports):
                                    # A dep's interface moved but the
                                    # def-level key still hit: exactly
                                    # the re-analysis module-level
                                    # keying would have paid.
                                    stats.note_cutoff_skip(name)
                            else:
                                misses.append(name)
                                stats.note_cache_miss(name)
                                obs.bus.emit("cache.miss", module=name, key=key)
                    if misses:
                        payloads = [
                            (
                                name,
                                sources[name].text,
                                tuple(
                                    (dep, ifaces[dep].text)
                                    for dep in sources[name].imports
                                ),
                                tuple(sorted(self.force_residual)),
                                tracer.enabled,
                            )
                            for name in misses
                        ]
                        with _stage(stats, tracer, "analyse"):
                            results, wave_failures = supervisor.run_wave(
                                payloads
                            )
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
                                    "publish", name, IFACE_KIND,
                                    iface_text_.encode("utf-8"),
                                )
                                self.cache.put_bytes(
                                    keys[name], IFACE_KIND, data
                                )
                                data = faultinject.corrupt(
                                    "publish", name, GENEXT_KIND,
                                    genext_source.encode("utf-8"),
                                )
                                self.cache.put_bytes(
                                    keys[name], GENEXT_KIND, data
                                )
                                # The worker's text is authoritative;
                                # the cache copy may have been corrupted
                                # by an injected fault above.
                                iface = store.load_text(
                                    iface_text_,
                                    origin="<analysis of %s>" % name,
                                )
                                ifaces[name] = iface
                                genexts[name] = GenextModule(
                                    name, sources[name].imports, genext_source
                                )
                                note_interface(name, iface)
                                stats.note_analysed(name)
                                prev_digests = prev_iface_digests(name)
                                re_derived = tuple(
                                    sources[name].module.def_names()
                                )
                                cut = tuple(
                                    n
                                    for n in re_derived
                                    if prev_digests is not None
                                    and prev_digests.get(n)
                                    == iface.digests.get(n)
                                )
                                stats.note_defs(
                                    re_derived=len(re_derived),
                                    cut_off=len(cut),
                                )
                                rebuilds[name] = ModuleRebuild(
                                    module=name,
                                    action="analysed",
                                    re_derived=re_derived,
                                    cut_off=cut,
                                )
                if failures and not self.policy.keep_going:
                    # Fail fast — but name the whole downstream cone, so
                    # the report reads the same as keep-going's.
                    for name in sources:
                        if name in genexts or name in failures or name in skipped:
                            continue
                        root = failed_root(name)
                        if root is not None:
                            skipped[name] = root
                            stats.note_skipped(name)
                    raise BuildError(
                        self._report(failures, skipped, order, stats)
                    )
        finally:
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
