"""The persistent residual cache: specialisation results on disk.

PR 1 made *builds* content-addressed; this module does the same for the
specialisation layer.  The paper's economics (Sec. 8, via LL94) are
that analysis and cogen happen once while specialisation is the cheap,
repeated step — but "cheap" still means running the whole generating-
extension pump and assembling a residual program.  Serving many users
means serving *repeated* requests, and a repeated request should cost a
key computation and one read.

Key anatomy
-----------

:func:`residual_cache_key` is a SHA-256 over, in order:

* a salt and :data:`SPECCACHE_VERSION` (plus the build pipeline's
  :data:`~repro.bt.interface.CACHE_EPOCH`, so an analysis/cogen change
  flushes residual programs too);
* the linked program's **fingerprint** — the generating-extension
  module sources and the link topology
  (:meth:`~repro.genext.link.GenextProgram.fingerprint`);
* the **goal** function name;
* the **canonicalised static arguments** (JSON, sorted keys, tuples as
  lists — bools and naturals stay distinct);
* the semantically relevant :class:`~repro.api.SpecOptions` fields:
  ``strategy``, ``monolithic``, and ``max_versions`` (they change what
  the run produces — or whether it fails);  ``fuel``/``timeout``/
  ``sink``/``cache_dir`` do not enter the key (they change how the run
  is executed or consumed, never its result).  The analysis options
  ``force_residual`` and ``unfolding`` do not enter it either: they act
  through the analysis, so they already change the fingerprint.

Editing one module's source, relinking in a different topology, or
changing any keyed option therefore forces a miss; everything else is a
warm hit that returns the residual program (and the original run's
stats) without constructing a :class:`~repro.genext.runtime.SpecState`
at all.

Storage
-------

Payloads are canonical JSON (:data:`SPECCACHE_SCHEMA`) holding the
pretty-printed residual program — the pretty-printer/parser round-trip
is exact, so a decoded result is byte-identical to a cold run's — and
live in the same atomic-write content-addressed object store as the
build artifacts (:class:`~repro.pipeline.cache.ArtifactCache`, kind
``resid.json``): concurrent writers can race safely, readers never see
torn files, ``mspec fsck`` validates and quarantines, and the store may
be shared between processes — which is what gives the batch driver its
cross-process dedup.

Counters (``speccache.hits`` / ``misses`` / ``reads`` / ``writes``) land
in the attached :class:`~repro.obs.metrics.MetricsRegistry`; each probe
also emits a ``speccache.hit`` / ``speccache.miss`` event on the bus.
"""

import hashlib
import json

from repro.bt.interface import CACHE_EPOCH
from repro.lang.errors import LangError
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.lru import LruMemo
from repro.modsys.program import link_program
from repro.pipeline.cache import RESID_KIND, ArtifactCache

__all__ = [
    "SPECCACHE_SCHEMA",
    "SpecCache",
    "canonical_static_args",
    "clear_decode_memo",
    "decode_result",
    "encode_result",
    "release_decoded",
    "residual_cache_key",
    "validate_payload_bytes",
]

SPECCACHE_SCHEMA = "repro.speccache/v1"
SPECCACHE_VERSION = 1

_KEY_SALT = b"mspec-residual-key\x00"


def _canon_value(v):
    """A JSON-encodable canonical form of one static-argument value."""
    if isinstance(v, bool) or isinstance(v, int) or isinstance(v, str):
        # str covers the ("pair", a, b) tag tuples from_python accepts.
        return v
    if isinstance(v, (tuple, list)):
        return [_canon_value(x) for x in v]
    raise TypeError("cannot canonicalise static value %r" % (v,))


def canonical_static_args(static_args):
    """Deterministic text encoding of a static-argument mapping.

    JSON keeps booleans and integers distinct, lists and tuples
    collapse (the object language has only one list), and key order is
    canonicalised — so two requests meaning the same thing always key
    the same."""
    canon = {name: _canon_value(v) for name, v in (static_args or {}).items()}
    return json.dumps(canon, sort_keys=True, separators=(",", ":"))


def residual_cache_key(fingerprint, goal, static_args, options):
    """The content-addressed key of one specialisation request."""
    h = hashlib.sha256()
    h.update(_KEY_SALT)
    h.update(
        b"v=%d epoch=%d\x00" % (SPECCACHE_VERSION, CACHE_EPOCH)
    )
    h.update(fingerprint.encode("utf-8"))
    h.update(b"\x00goal=")
    h.update(goal.encode("utf-8"))
    h.update(b"\x00static=")
    h.update(canonical_static_args(static_args).encode("utf-8"))
    h.update(
        b"\x00opts=strategy:%s;monolithic:%d;max_versions:%s"
        % (
            options.strategy.encode("utf-8"),
            1 if options.monolithic else 0,
            b"none"
            if options.max_versions is None
            else b"%d" % options.max_versions,
        )
    )
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Payload encode/decode.
# ---------------------------------------------------------------------------


def encode_result(result):
    """The JSON-ready payload of a :class:`SpecialisationResult`."""
    return {
        "schema": SPECCACHE_SCHEMA,
        "entry": result.entry,
        "dynamic_params": list(result.dynamic_params),
        "stats": dict(result.stats),
        "module_names": sorted(
            [sorted(placement), name]
            for placement, name in result.module_names.items()
        ),
        "program": pretty_program(result.program),
    }


# Decoding a payload parses and re-links the pretty-printed residual —
# cheap next to a specialisation run, but the daemon's warm path and
# the batch driver's dedup decode the *same* payload over and over.
# The parse/link pair is therefore memoised per process, keyed by the
# program text's digest, in a bounded LRU; the AST and the linked view
# are immutable after construction, so sharing them across results is
# safe (one SpecialisationResult already serves every dedup index in
# the batch driver).  Hits/misses land in the caller's registry as
# ``speccache.decode_hits`` / ``speccache.decode_misses``.
_DECODE_MEMO = LruMemo(256)  # sha256(program) -> (program, linked)


def clear_decode_memo():
    """Drop every memoised parse (test isolation)."""
    _DECODE_MEMO.clear()


def release_decoded(program):
    """Drop the memo entry holding ``program``; returns whether one was
    held.  Called once a residual has been compiled to tier 2: nothing
    in the process decodes it again, so the entry would only pin the
    parsed and linked program in memory."""
    return _DECODE_MEMO.discard_where(lambda entry: entry[0] is program)


def _decode_program(text):
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    hit = _DECODE_MEMO.get(digest)
    if hit is not None:
        return hit + (True,)
    program = parse_program(text)
    linked = link_program(program)
    _DECODE_MEMO.put(digest, (program, linked))
    return program, linked, False


def decode_result(payload, obs=None, fuel=None):
    """Rebuild a :class:`~repro.genext.engine.SpecialisationResult` from
    a payload: parse the pretty-printed residual program and re-link it
    (memoised per process — a repeated warm hit is one digest plus two
    dict probes).  ``fuel`` is the caller's interpretation budget — an
    execution knob, not part of the cached identity."""
    from repro.genext.engine import SpecialisationResult

    program, linked, hit = _decode_program(payload["program"])
    if obs is not None:
        obs.metrics.counter(
            "speccache.decode_hits" if hit else "speccache.decode_misses"
        ).inc()
    result = SpecialisationResult(
        program=program,
        linked=linked,
        entry=payload["entry"],
        dynamic_params=tuple(payload["dynamic_params"]),
        stats=dict(payload["stats"]),
        module_names={
            frozenset(parts): name
            for parts, name in payload["module_names"]
        },
        obs=obs,
    )
    if fuel is not None:
        result.fuel = fuel
    return result


def validate_payload_bytes(data):
    """``None`` if ``data`` is a well-formed cached residual payload,
    else the reason it is not (fsck's validator for ``resid.json``)."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return "not JSON: %s" % exc
    if not isinstance(payload, dict):
        return "not an object"
    if payload.get("schema") != SPECCACHE_SCHEMA:
        return "schema must be %r, got %r" % (
            SPECCACHE_SCHEMA,
            payload.get("schema"),
        )
    for field, types in (
        ("entry", str),
        ("dynamic_params", list),
        ("stats", dict),
        ("module_names", list),
        ("program", str),
    ):
        if not isinstance(payload.get(field), types):
            return "missing or malformed %r field" % field
    try:
        parse_program(payload["program"])
    except LangError as exc:
        # A front-end rejection means a corrupt payload (= cache miss);
        # any other exception is a parser bug and must propagate.
        return "residual program does not parse: %s" % exc
    return None


# ---------------------------------------------------------------------------
# The cache itself.
# ---------------------------------------------------------------------------


class SpecCache:
    """Persistent residual-program cache rooted at ``root``.

    A thin policy layer over :class:`~repro.pipeline.cache.ArtifactCache`
    (same object layout, same atomic publication, same fsck), adding the
    key schema, payload validation, and the ``speccache.*`` accounting.
    """

    def __init__(self, root, metrics=None, bus=None):
        self.store = ArtifactCache(root)
        self.metrics = metrics
        self.bus = bus

    def _count(self, name, n=1):
        if self.metrics is not None:
            self.metrics.counter("speccache." + name).inc(n)

    def _event(self, name, **payload):
        if self.bus is not None:
            self.bus.emit(name, **payload)

    def get(self, key, goal=None):
        """The cached payload dict for ``key``, or ``None`` on a miss
        (absent, torn, or corrupt — a corrupt entry simply recomputes)."""
        data = self.store.get_bytes(key, RESID_KIND)
        if data is not None:
            self._count("reads")
            if validate_payload_bytes(data) is None:
                self._count("hits")
                self._event("speccache.hit", key=key, goal=goal)
                return json.loads(data.decode("utf-8"))
        self._count("misses")
        self._event("speccache.miss", key=key, goal=goal)
        return None

    def put(self, key, payload):
        """Atomically publish one payload; returns its path."""
        self._count("writes")
        data = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        return self.store.put_text(key, RESID_KIND, data)
