"""The three-tier execution ladder with persistent compiled residuals.

The paper's economics (Sec. 8, via LL94) end at *lowering*: a residual
program only beats the general one decisively once it stops being
interpreted.  This module is that lowering, done once per
(fingerprint, goal, static-args) and kept: a hotness-driven ladder over
three execution tiers and a *persistent* compiled artifact next to the
cached residual payload, so no daemon worker, batch run or fresh
process re-parses ``resid.json`` and re-``compile()``s a hot goal:

* **tier 0** — interpret the general program (cold goals; no
  specialisation run at all);
* **tier 1** — specialise (or hit the residual cache) and interpret
  the residual program;
* **tier 2** — emit the residual as a real Python module via
  :mod:`repro.backend.pyemit`, ``compile()`` it, and run the entry
  natively.

:func:`generate` is run-time code generation in one step — specialise,
compile, hand back the tier-2 callable — through the same tier-2 path
(:meth:`TierLadder.compiled`), memo and artifacts included.

Tier-2 artifacts are stored in the speccache object store under the
same :func:`~repro.speccache.residual_cache_key` as ``resid.json``:

* ``<key>.resid.py`` — the emitted Python source with a one-line
  ``# mspec:tier2 ...`` header naming the (mangled) entry function and
  the dynamic parameters.  This is the durable format: any interpreter
  can recompile it.
* ``<key>.code-<cache_tag>.bin`` — a marshalled record carrying the
  compiled code object, keyed by ``sys.implementation.cache_tag`` so
  interpreters never load each other's bytecode.

Loading probes in fallback order: in-process memo (one dict probe) →
marshalled code object (no parsing, no compiling) → recompile
``resid.py`` (self-healing the code artifact for the next process) →
tier 1.  Every fallback is silent; a damaged artifact is a miss, never
an error.  A persisted artifact counts as a *durable promotion*: a
cold process (e.g. a restarted daemon) serves a previously-hot goal at
tier 2 without re-specialising or re-``compile()``-ing from the AST.

Promotion is driven by per-(fingerprint, goal, static-args) hotness
counters against a :class:`TierPolicy` (``SpecOptions(tier_policy=)``,
``mspec serve --tier-hot N``): a goal is specialised after
``warm_after`` requests and compiled + persisted after ``hot_after``.

Counters land in the attached registry (``tier.t0_runs`` /
``t1_runs`` / ``t2_runs`` / ``memo_hits`` / ``promotions`` /
``code_loads`` / ``source_compiles`` / ``emitted``); each promotion
emits a ``tier.promote`` event on the bus.
"""

import marshal
import sys
import threading
import types
from collections import OrderedDict
from dataclasses import dataclass

from repro.backend.pyemit import _mangle, emit_python, mangle_table
from repro.lru import LruMemo
from repro.pipeline.cache import ArtifactCache, CODE_KIND, RESID_PY_KIND

__all__ = [
    "DEFAULT_TIER_POLICY",
    "TIER2_SCHEMA",
    "TierFunction",
    "TierLadder",
    "TierPolicy",
    "TierRun",
    "clear_tiers",
    "emit_source",
    "generate",
    "load_compiled",
    "note_warm",
    "parse_source_header",
    "validate_code_bytes",
    "validate_source_bytes",
]

TIER2_SCHEMA = "repro.tier2/v1"

_HEADER_PREFIX = "# mspec:tier2 "


def _cache_tag():
    return sys.implementation.cache_tag or "unknown"


@dataclass(frozen=True)
class TierPolicy:
    """When a goal climbs the ladder.

    A goal's ``count``-th request (per fingerprint + goal + static
    args, 1-based) runs at tier 0 while ``count < warm_after``, at
    tier 1 while ``count < hot_after``, and is promoted to tier 2 at
    ``count >= hot_after``.  The defaults reproduce today's behaviour
    for the first requests (specialise immediately) and compile on the
    third."""

    warm_after: int = 1
    hot_after: int = 3

    def __post_init__(self):
        if self.warm_after < 0:
            raise ValueError(
                "warm_after must be >= 0, got %d" % self.warm_after
            )
        if self.hot_after < self.warm_after:
            raise ValueError(
                "hot_after (%d) must be >= warm_after (%d)"
                % (self.hot_after, self.warm_after)
            )


DEFAULT_TIER_POLICY = TierPolicy()


@dataclass(frozen=True)
class TierRun:
    """One ladder execution: the value, the tier that produced it, and
    where the tier-2 callable came from (``interp`` / ``residual`` /
    ``memo`` / ``code`` / ``source`` / ``emitted``)."""

    value: object
    tier: int
    origin: str


# ---------------------------------------------------------------------------
# Process-wide hotness counters and the compiled-callable memo.
#
# Shared across ladders (the daemon rebuilds its ladder on relink; the
# batch driver has no ladder object at all) and probed from concurrent
# request-handler threads.  The hotness table keeps its own lock, held
# across its read-modify-write increment; the memo is an ``LruMemo``.
# The expensive work — specialising, emitting, compiling — happens
# outside the locks.
# ---------------------------------------------------------------------------

_HOT_CAPACITY = 4096
_HOTNESS = OrderedDict()  # key -> request count, most-recent last
_HOT_LOCK = threading.Lock()

_MEMO = LruMemo(128)  # key -> TierFunction


def _bump(key):
    with _HOT_LOCK:
        n = _HOTNESS.get(key, 0) + 1
        _HOTNESS[key] = n
        _HOTNESS.move_to_end(key)
        while len(_HOTNESS) > _HOT_CAPACITY:
            _HOTNESS.popitem(last=False)
        return n


def clear_tiers():
    """Drop every hotness counter and memoised callable (test
    isolation; also how a "cold restart" is simulated in-process)."""
    with _HOT_LOCK:
        _HOTNESS.clear()
    _MEMO.clear()


def _count(obs, name, n=1):
    if obs is not None:
        obs.metrics.counter(name).inc(n)


# ---------------------------------------------------------------------------
# The tier-2 artifact formats.
# ---------------------------------------------------------------------------


class TierFunction:
    """A tier-2 callable: the entry function of a compiled residual."""

    __slots__ = ("entry", "entry_py", "dynamic_params", "namespace",
                 "source", "origin")

    def __init__(self, entry, entry_py, dynamic_params, namespace,
                 source=None, origin="emitted"):
        self.entry = entry
        self.entry_py = entry_py
        self.dynamic_params = tuple(dynamic_params)
        self.namespace = namespace
        self.source = source
        self.origin = origin

    def __call__(self, *dynamic_args):
        fn = self.namespace[self.entry_py]
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old, 100_000))
        try:
            return fn(*dynamic_args)
        finally:
            sys.setrecursionlimit(old)


def emit_source(result):
    """``(source_text, entry_py)`` for one
    :class:`~repro.genext.engine.SpecialisationResult`: the emitted
    Python module prefixed with the self-describing tier-2 header, so
    a loader needs neither ``resid.json`` nor a program parse."""
    program = result.program
    names = mangle_table(program)
    entry_py = names.get(result.entry) or _mangle(result.entry)
    header = "%sentry=%s entry_py=%s dynamic_params=%s\n" % (
        _HEADER_PREFIX,
        result.entry,
        entry_py,
        ",".join(result.dynamic_params),
    )
    return header + emit_python(program, names=names), entry_py


def parse_source_header(text):
    """``(entry, entry_py, dynamic_params)`` from an emitted
    ``resid.py``, or ``None`` when the header is missing/malformed."""
    line = text.split("\n", 1)[0]
    if not line.startswith(_HEADER_PREFIX):
        return None
    fields = {}
    for part in line[len(_HEADER_PREFIX):].split():
        if "=" not in part:
            return None
        k, v = part.split("=", 1)
        fields[k] = v
    entry = fields.get("entry")
    entry_py = fields.get("entry_py")
    if not entry or not entry_py or "dynamic_params" not in fields:
        return None
    params = tuple(p for p in fields["dynamic_params"].split(",") if p)
    return entry, entry_py, params


def _pack_code(entry, entry_py, dynamic_params, code):
    return marshal.dumps({
        "schema": TIER2_SCHEMA,
        "tag": _cache_tag(),
        "entry": entry,
        "entry_py": entry_py,
        "dynamic_params": list(dynamic_params),
        "code": code,
    })


def _unpack_code(data):
    """The tier-2 record in ``data`` if it is loadable by *this*
    interpreter, else ``None`` (any mismatch is a silent miss)."""
    try:
        record = marshal.loads(data)
    except Exception:
        return None
    if not isinstance(record, dict) or record.get("schema") != TIER2_SCHEMA:
        return None
    if record.get("tag") != _cache_tag():
        return None
    if not isinstance(record.get("code"), types.CodeType):
        return None
    if not isinstance(record.get("entry_py"), str):
        return None
    if not isinstance(record.get("dynamic_params"), list):
        return None
    return record


def validate_source_bytes(data):
    """``None`` if ``data`` is a healthy ``resid.py`` artifact, else a
    ``(category, reason)`` pair — ``"corrupt"`` for damage,
    ``"stale"`` for a well-formed artifact the loader would skip
    (fsck's validator for :data:`~repro.pipeline.cache.RESID_PY_KIND`)."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return ("corrupt", "not UTF-8: %s" % exc)
    try:
        compile(text, "<resid.py>", "exec")
    except (SyntaxError, ValueError) as exc:
        return ("corrupt", "emitted source does not compile: %s" % exc)
    if parse_source_header(text) is None:
        return ("stale", "missing or malformed tier-2 header")
    return None


def validate_code_bytes(data):
    """``None`` if ``data`` is a tier-2 code artifact this interpreter
    can load, else ``(category, reason)`` like
    :func:`validate_source_bytes`.  A wrong or missing cache tag is
    ``"stale"``: the bytes are intact but useless here — the loader
    falls back to recompiling ``resid.py``."""
    try:
        record = marshal.loads(data)
    except Exception as exc:
        return ("corrupt", "does not unmarshal: %s" % exc)
    if isinstance(record, types.CodeType):
        # A bare marshalled code object: the store's original CODE_KIND
        # payload, still healthy.
        return None
    if not isinstance(record, dict) or record.get("schema") != TIER2_SCHEMA:
        return ("stale", "not a %s record" % TIER2_SCHEMA)
    if record.get("tag") != _cache_tag():
        return (
            "stale",
            "cache tag %r is not this interpreter's %r"
            % (record.get("tag"), _cache_tag()),
        )
    if not isinstance(record.get("code"), types.CodeType):
        return ("corrupt", "record carries no code object")
    if not isinstance(record.get("entry_py"), str) or not isinstance(
        record.get("dynamic_params"), list
    ):
        return ("corrupt", "missing entry or dynamic_params")
    return None


def _exec_namespace(code):
    namespace = {"__name__": "compiled_program"}
    exec(code, namespace)
    return namespace


def _compile_result(result, obs=None):
    """Emit + compile one specialisation result; returns the
    :class:`TierFunction` and the packed code-artifact bytes."""
    source, entry_py = emit_source(result)
    code = compile(source, "<tier2:%s>" % result.entry, "exec")
    fn = TierFunction(
        result.entry,
        entry_py,
        result.dynamic_params,
        _exec_namespace(code),
        source=source,
        origin="emitted",
    )
    _count(obs, "tier.emitted")
    return fn, _pack_code(result.entry, entry_py, result.dynamic_params, code)


def load_compiled(store, key, obs=None, self_heal=True):
    """Load the persisted tier-2 callable for ``key``, or ``None``.

    Probes the marshalled code object first (no parsing, no
    compiling); on a cache-tag or marshal mismatch falls back to
    recompiling ``resid.py`` — re-publishing a fresh code artifact for
    this interpreter unless ``self_heal`` is off — and on any further
    damage returns ``None`` (the caller drops to tier 1).  The
    fallback is accounted, not silent: each unusable code artifact
    bumps ``tier.code_decode_miss`` and emits a
    ``tier.code_decode_miss`` event naming the key and reason."""
    data = store.get_bytes(key, CODE_KIND)
    if data is not None:
        record = _unpack_code(data)
        namespace = None
        if record is not None:
            try:
                namespace = _exec_namespace(record["code"])
            except Exception:
                namespace = None
        if namespace is not None:
            _count(obs, "tier.code_loads")
            return TierFunction(
                record.get("entry", ""),
                record["entry_py"],
                record["dynamic_params"],
                namespace,
                origin="code",
            )
        # A code artifact existed but could not be used.  Expected
        # across interpreter upgrades (stale cache tag), a bug when it
        # happens on the interpreter that wrote the artifact — so the
        # miss is counted and announced, never silent.
        _count(obs, "tier.code_decode_miss")
        if obs is not None:
            obs.bus.emit(
                "tier.code_decode_miss",
                key=key,
                reason=(
                    "exec failed" if record is not None
                    else (validate_code_bytes(data) or ("stale", "?"))[1]
                ),
            )
    text = store.get_text(key, RESID_PY_KIND)
    if text is None:
        return None
    header = parse_source_header(text)
    if header is None:
        return None
    entry, entry_py, dynamic_params = header
    try:
        code = compile(text, store.path(key, RESID_PY_KIND), "exec")
        namespace = _exec_namespace(code)
    except Exception:
        return None
    _count(obs, "tier.source_compiles")
    if self_heal:
        store.put_bytes(
            key, CODE_KIND, _pack_code(entry, entry_py, dynamic_params, code)
        )
    return TierFunction(
        entry, entry_py, dynamic_params, namespace,
        source=text, origin="source",
    )


def _persist(store, key, fn, code_bytes):
    store.put_text(key, RESID_PY_KIND, fn.source)
    store.put_bytes(key, CODE_KIND, code_bytes)


def _promote(store, key, result, obs, goal):
    """Compile ``result``, persist the artifacts and memoise (when it
    has a key), release its decoded residual, and account the
    promotion."""
    from repro.speccache import release_decoded

    fn, code_bytes = _compile_result(result, obs=obs)
    release_decoded(result.program)
    persisted = store is not None and key is not None
    if persisted:
        _persist(store, key, fn, code_bytes)
    if key is not None:
        _MEMO.put(key, fn)
    _count(obs, "tier.promotions")
    if obs is not None:
        obs.bus.emit(
            "tier.promote", goal=goal, key=key, origin=fn.origin,
            persisted=persisted,
        )
    return fn


def note_warm(cache, key, goal, options, obs=None, result=None, payload=None):
    """Consult the ladder from a warm specialise path (daemon worker,
    batch driver's in-parent hit): bump the key's hotness and, at the
    policy's hot threshold, publish the tier-2 artifacts so executors
    load compiled code instead of re-interpreting.  ``cache`` is a
    :class:`~repro.speccache.SpecCache` or a bare
    :class:`~repro.pipeline.cache.ArtifactCache`; the residual comes
    from ``result`` or is decoded from ``payload`` (memoised, see
    :func:`repro.speccache.decode_result`).  Returns the promoted
    :class:`TierFunction` or ``None``."""
    policy = (options.tier_policy if options is not None else None) or (
        DEFAULT_TIER_POLICY
    )
    count = _bump(key)
    if count < policy.hot_after:
        return None
    fn = _MEMO.get(key)
    if fn is not None:
        return fn
    store = getattr(cache, "store", cache)
    if store is not None and store.has(key, CODE_KIND):
        fn = load_compiled(store, key, obs=obs)
        if fn is not None:
            _MEMO.put(key, fn)
            return fn
    if result is None and payload is not None:
        from repro.speccache import decode_result

        result = decode_result(payload, obs=obs)
    if result is None:
        return None
    return _promote(store, key, result, obs, goal)


# ---------------------------------------------------------------------------
# The ladder.
# ---------------------------------------------------------------------------


class TierLadder:
    """Hotness-driven execution over one linked genext program.

    ``program`` (the *general* :class:`~repro.modsys.program.LinkedProgram`
    the genexts were compiled from) enables tier 0; without it cold
    goals start at tier 1.  ``options.cache_dir`` roots the persistent
    store (both the residual payloads tier 1 hits and the tier-2
    artifacts); ``options.tier_policy`` sets the thresholds.

    >>> import repro
    >>> from repro.backend.tiers import TierLadder
    >>> gp = repro.compile_genexts('''
    ... module Power where
    ...
    ... power n x = if n == 1 then x else x * power (n - 1) x
    ... ''')
    >>> ladder = TierLadder(gp)
    >>> [ladder.call("power", {"n": 3}, (5,)).tier for _ in range(4)]
    [1, 1, 2, 2]
    """

    def __init__(self, gp, options=None, obs=None, program=None, store=None):
        from repro.api import spec_options
        from repro.obs import Obs

        self.gp = gp
        self.options = spec_options("TierLadder", options)
        self.policy = self.options.tier_policy or DEFAULT_TIER_POLICY
        self.obs = obs if obs is not None else Obs()
        self.program = program
        if store is None and self.options.cache_dir is not None:
            store = ArtifactCache(self.options.cache_dir)
        self.store = store
        # Like the residual cache, a run with a sink (its definitions
        # streamed to the caller) has no caching identity.
        fingerprint = getattr(gp, "fingerprint", None)
        if not callable(fingerprint) or self.options.sink is not None:
            self._fingerprint = None
        else:
            self._fingerprint = fingerprint()

    def key_for(self, goal, static_args):
        """The residual cache key of one request (``None`` when the
        program has no fingerprint or the run has a sink — no caching
        identity, no ladder)."""
        if self._fingerprint is None:
            return None
        from repro.speccache import residual_cache_key

        return residual_cache_key(
            self._fingerprint, goal, static_args, self.options
        )

    def call(self, goal, static_args=None, dynamic_args=(), tier=None):
        """Execute ``goal`` on the given arguments; returns a
        :class:`TierRun`.  ``tier`` forces one rung (0/1/2) without
        touching the hotness counters — the differential checker's
        probe; ``None`` lets the ladder decide."""
        static_args = dict(static_args or {})
        dynamic_args = tuple(dynamic_args)
        if tier is not None:
            return self._forced(tier, goal, static_args, dynamic_args)
        key = self.key_for(goal, static_args)
        if key is None:
            return self._tier1(goal, static_args, dynamic_args)
        # The hot path: one dict probe + one native call.
        fn = _MEMO.get(key)
        if fn is not None:
            _count(self.obs, "tier.memo_hits")
            return self._run2(fn, dynamic_args, origin="memo")
        count = _bump(key)
        if self.store is not None:
            # A persisted artifact is a durable promotion: a cold
            # process serves a previously-hot goal at tier 2 at once.
            fn = load_compiled(self.store, key, obs=self.obs)
            if fn is not None:
                _MEMO.put(key, fn)
                return self._run2(fn, dynamic_args)
        if count >= self.policy.hot_after:
            result = self._specialise(goal, static_args)
            fn = _promote(self.store, key, result, self.obs, goal)
            return self._run2(fn, dynamic_args)
        if count >= self.policy.warm_after or self.program is None:
            return self._tier1(goal, static_args, dynamic_args)
        return self._tier0(goal, static_args, dynamic_args)

    def compiled(self, goal, static_args):
        """The tier-2 :class:`TierFunction` for one request, without
        touching the hotness counters: the memo, then the persisted
        artifact, then specialise + emit + ``compile()`` (persisted and
        memoised for the next caller)."""
        key = self.key_for(goal, static_args)
        if key is not None:
            fn = _MEMO.get(key)
            if fn is not None:
                _count(self.obs, "tier.memo_hits")
                return fn
            if self.store is not None:
                fn = load_compiled(self.store, key, obs=self.obs)
                if fn is not None:
                    _MEMO.put(key, fn)
                    return fn
        result = self._specialise(goal, static_args)
        return _promote(self.store, key, result, self.obs, goal)

    # -- the rungs ---------------------------------------------------

    def _forced(self, tier, goal, static_args, dynamic_args):
        if tier == 0:
            return self._tier0(goal, static_args, dynamic_args)
        if tier == 1:
            return self._tier1(goal, static_args, dynamic_args)
        if tier == 2:
            return self._run2(self.compiled(goal, static_args), dynamic_args)
        raise ValueError("tier must be 0, 1 or 2, got %r" % (tier,))

    def _full_args(self, goal, static_args, dynamic_args):
        params = self.gp.signature(goal).params
        dyn = list(dynamic_args)
        args = []
        for p in params:
            if p in static_args:
                args.append(static_args[p])
            elif dyn:
                args.append(dyn.pop(0))
            else:
                raise TypeError(
                    "%s: missing dynamic argument for parameter %r"
                    % (goal, p)
                )
        if dyn:
            raise TypeError(
                "%s: %d extra dynamic argument(s)" % (goal, len(dyn))
            )
        return args

    def _tier0(self, goal, static_args, dynamic_args):
        if self.program is None:
            raise ValueError(
                "tier 0 needs the general source program "
                "(TierLadder(program=...))"
            )
        from repro.interp import run_program

        args = self._full_args(goal, static_args, dynamic_args)
        value = run_program(
            self.program, goal, args, fuel=self.options.fuel
        )
        _count(self.obs, "tier.t0_runs")
        return TierRun(value, 0, "interp")

    def _specialise(self, goal, static_args):
        from repro.genext.engine import specialise

        return specialise(
            self.gp, goal, static_args, self.options, obs=self.obs
        )

    def _tier1(self, goal, static_args, dynamic_args):
        result = self._specialise(goal, static_args)
        value = result.run(*dynamic_args, fuel=self.options.fuel)
        _count(self.obs, "tier.t1_runs")
        return TierRun(value, 1, "residual")

    def _run2(self, fn, dynamic_args, origin=None):
        value = fn(*dynamic_args)
        _count(self.obs, "tier.t2_runs")
        return TierRun(value, 2, origin or fn.origin)


def generate(gp, goal, static_args=None, options=None, obs=None):
    """Run-time code generation: specialise ``goal`` with respect to
    ``static_args`` and return the compiled residual as a Python
    callable over the dynamic arguments — the ladder's tier-2
    :class:`TierFunction` (:meth:`TierLadder.compiled`), so a repeated
    request is one memo probe and, with ``options.cache_dir``, a fresh
    process loads the persisted artifact instead of re-specialising.

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

    ladder = TierLadder(gp, options=spec_options("generate", options), obs=obs)
    return ladder.compiled(goal, dict(static_args or {}))
