"""Binding-time interface files (Sec. 4.1).

"Once a module has been analysed, we write the binding-time types of the
functions it exports to a binding-time interface file.  When analysing
modules which import this one, we read their interface files and use the
information to analyse calls of imported functions."

Interface files are JSON (one per module, suffix ``.bti``), containing
the canonical :class:`~repro.bt.scheme.BTScheme` of every exported
function.  The serialisation is canonical (sorted keys, fixed layout),
so *byte equality of interface files coincides with semantic equality of
interfaces* — the property the content-addressed invalidation scheme
rests on.

Format v2 (``repro.bti/v2``) additionally carries a per-definition
scheme digest table (``"digests"``): the SHA-256 of each exported
scheme's canonical JSON.  Per-def digests are what lets the build key
a dependent module on *only the definitions it actually references*
rather than on the whole interface file — the definition-level early
cutoff.  v1 files (no digest table) are still read transparently; their
digests are derived from the parsed schemes on load.

All v1/v2 parsing, verification and digesting lives in
:class:`InterfaceStore`; the module-level helpers
(:func:`read_interface`, :func:`interface_from_text`) are thin wrappers
kept for compatibility.

The :class:`InterfaceManager` implements the separate-analysis workflow
with **content-digest invalidation**: each module's artifacts are keyed
by the SHA-256 of its source text plus the digests of its imports'
interface files (:func:`module_key`).  A module is re-analysed only when
that key changes — so ``touch`` and fresh checkouts cost nothing, and an
edit that leaves a module's interface byte-identical stops invalidation
propagating any further (early cutoff).  Writes are atomic (temp file +
``os.replace``), so concurrent builders never observe torn artifacts.
"""

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, Optional

from repro.bt.analysis import analyse_module
from repro.bt.bttypes import BTTBase, BTTFun, BTTList, BTTPair, BTTSkel
from repro.bt.scheme import BTScheme
from repro.lru import LruMemo

INTERFACE_SUFFIX = ".bti"
KEY_SUFFIX = ".bti.key"
FORMAT_VERSION = 2
SUPPORTED_FORMATS = (1, 2)

# Bumping this invalidates every cached artifact (interfaces, genext
# sources, code objects) — do so whenever the analysis or the cogen
# changes what it produces for the same input.
CACHE_EPOCH = 2


class InterfaceError(Exception):
    """A malformed or unreadable interface file."""


def _type_to_json(t):
    if isinstance(t, BTTBase):
        return ["base", t.name, t.bt]
    if isinstance(t, BTTSkel):
        return ["skel", t.id, t.bt]
    if isinstance(t, BTTList):
        return ["list", t.bt, _type_to_json(t.elem)]
    if isinstance(t, BTTPair):
        return ["pair", t.bt, _type_to_json(t.fst), _type_to_json(t.snd)]
    if isinstance(t, BTTFun):
        return ["fun", t.bt, _type_to_json(t.arg), _type_to_json(t.res)]
    raise TypeError("not a binding-time type: %r" % (t,))


def _type_from_json(j):
    try:
        tag = j[0]
        if tag == "base":
            return BTTBase(j[1], int(j[2]))
        if tag == "skel":
            return BTTSkel(int(j[1]), int(j[2]))
        if tag == "list":
            return BTTList(int(j[1]), _type_from_json(j[2]))
        if tag == "pair":
            return BTTPair(int(j[1]), _type_from_json(j[2]), _type_from_json(j[3]))
        if tag == "fun":
            return BTTFun(int(j[1]), _type_from_json(j[2]), _type_from_json(j[3]))
    except (IndexError, TypeError, ValueError):
        pass
    raise InterfaceError("malformed binding-time type: %r" % (j,))


def scheme_to_json(scheme):
    """A JSON-serialisable form of a canonical scheme."""
    return {
        "args": [_type_to_json(a) for a in scheme.args],
        "res": _type_to_json(scheme.res),
        "nslots": scheme.nslots,
        "unfold": scheme.unfold,
        "edges": sorted([a, b] for (a, b) in scheme.edges),
        "dyn": sorted(scheme.dyn),
    }


def scheme_from_json(j):
    try:
        return BTScheme(
            args=tuple(_type_from_json(a) for a in j["args"]),
            res=_type_from_json(j["res"]),
            nslots=int(j["nslots"]),
            unfold=int(j["unfold"]),
            edges=frozenset((int(a), int(b)) for a, b in j["edges"]),
            dyn=frozenset(int(s) for s in j["dyn"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise InterfaceError("malformed scheme: %s" % e)


_SCHEME_DIGEST_SALT = b"mspec-scheme-digest\x00"


def scheme_digest(scheme):
    """SHA-256 hex digest of one scheme's canonical JSON serialisation.

    Because schemes are canonicalised before serialisation, equal
    digests mean equal (alpha-equivalent) binding-time schemes — the
    per-definition analogue of the whole-file digest property."""
    payload = json.dumps(
        scheme_to_json(scheme), sort_keys=True, separators=(",", ":")
    )
    h = hashlib.sha256(_SCHEME_DIGEST_SALT)
    h.update(payload.encode("utf-8"))
    return h.hexdigest()


def interface_text(module_name, schemes, format=FORMAT_VERSION):
    """The canonical on-disk serialisation of one interface.

    Deterministic for a given ``(module_name, schemes, format)``: two
    analyses that agree on the schemes produce byte-identical files,
    which is what lets :func:`interface_digest` double as a semantic
    fingerprint.  Format 2 (the default) carries a per-definition
    scheme digest table; pass ``format=1`` to reproduce the legacy
    serialisation (used by the canonicality checker on old files).
    """
    if format not in SUPPORTED_FORMATS:
        raise InterfaceError("cannot serialise interface format %r" % (format,))
    payload = {
        "format": format,
        "module": module_name,
        "schemes": {name: scheme_to_json(s) for name, s in schemes.items()},
    }
    if format >= 2:
        payload["digests"] = {
            name: scheme_digest(s) for name, s in schemes.items()
        }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def atomic_write_text(path, text):
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    Readers never observe a torn file, and a crash mid-write leaves any
    previous contents intact."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix="~")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_interface(path, module_name, schemes):
    """Write one module's binding-time interface file (atomically).

    Returns the serialised text."""
    text = interface_text(module_name, schemes)
    atomic_write_text(path, text)
    return text


@dataclass(frozen=True)
class Interface:
    """One parsed interface document (either on-disk format).

    ``digests`` is always populated — derived from the parsed schemes —
    so callers never branch on the format.  ``stored_digests`` is the
    digest table as present in the file (``None`` for v1 files), kept
    separate so :meth:`InterfaceStore.verify` can detect skew between
    the table and the schemes it claims to describe."""

    module: str
    schemes: Dict[str, BTScheme]
    digests: Dict[str, str]
    stored_digests: Optional[Dict[str, str]]
    format: int
    text: str

    def digest_of_def(self, name):
        """The scheme digest of one exported definition, or ``None``."""
        return self.digests.get(name)


# Parsing an interface re-derives every scheme and its digest, and a
# rebuild loads the same unchanged texts again (cache hits, dependency
# maps, the previous build's digests).  load_text therefore memoises per
# process in a bounded LRU keyed by the exact text — the result is a
# pure function of it, and Interface is frozen.
_LOAD_MEMO = LruMemo(4096)  # interface text -> Interface


def clear_interface_memo():
    """Drop every memoised interface parse (test isolation)."""
    _LOAD_MEMO.clear()


class InterfaceStore:
    """The single place v1/v2 interface documents are parsed, verified
    and digested.

    The three historical interface-reading entry points — the
    :func:`read_interface` helper, the ``repro.check.ifaces`` checker,
    and the pipeline's cache-digest code — all route through this class,
    so format evolution happens in exactly one file.  An optional
    ``iface_dir`` makes the name-based conveniences
    (:meth:`path`, :meth:`digest_of_def`) available."""

    def __init__(self, iface_dir=None):
        self.iface_dir = iface_dir

    def path(self, module_name):
        if self.iface_dir is None:
            raise ValueError("InterfaceStore has no iface_dir")
        return os.path.join(self.iface_dir, module_name + INTERFACE_SUFFIX)

    def load_text(self, text, origin="<interface>"):
        """Parse interface text into an :class:`Interface`.

        Raises :class:`InterfaceError` — naming ``origin`` — on corrupt,
        truncated, or structurally wrong input, never a bare
        ``json.JSONDecodeError``.

        Memoised per process on the exact text (see
        :data:`_LOAD_MEMO`): equal texts return the same
        :class:`Interface`, whose ``schemes``/``digests`` callers must
        therefore never mutate.  Errors are not memoised."""
        iface = _LOAD_MEMO.get(text)
        if iface is None:
            iface = self._parse_text(text, origin)
            _LOAD_MEMO.put(text, iface)
        return iface

    def _parse_text(self, text, origin):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as e:
            raise InterfaceError("corrupt interface file %s: %s" % (origin, e))
        if not isinstance(payload, dict):
            raise InterfaceError(
                "%s: expected a JSON object, got %s"
                % (origin, type(payload).__name__)
            )
        format = payload.get("format")
        if format not in SUPPORTED_FORMATS:
            raise InterfaceError(
                "%s: unsupported interface format %r" % (origin, format)
            )
        module = payload.get("module")
        schemes_json = payload.get("schemes")
        if not isinstance(module, str) or not isinstance(schemes_json, dict):
            raise InterfaceError(
                "%s: missing or malformed 'module'/'schemes' fields" % origin
            )
        try:
            schemes = {
                name: scheme_from_json(j) for name, j in schemes_json.items()
            }
        except InterfaceError as e:
            raise InterfaceError("%s: %s" % (origin, e))
        stored = None
        if format >= 2:
            stored = payload.get("digests")
            if not isinstance(stored, dict) or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in stored.items()
            ):
                raise InterfaceError(
                    "%s: missing or malformed 'digests' table" % origin
                )
        # The authoritative digests are always re-derived from the
        # schemes: a stale stored table can then never poison a cache
        # key — it is surfaced as skew by verify() instead.
        digests = {name: scheme_digest(s) for name, s in schemes.items()}
        return Interface(
            module=module,
            schemes=schemes,
            digests=digests,
            stored_digests=stored,
            format=format,
            text=text,
        )

    def load(self, path):
        """Read and parse one interface file."""
        try:
            with open(path) as f:
                text = f.read()
        except OSError as e:
            raise InterfaceError("cannot read %s: %s" % (path, e))
        return self.load_text(text, origin=path)

    def load_module(self, module_name):
        """Load ``<iface_dir>/<module_name>.bti``."""
        return self.load(self.path(module_name))

    def verify(self, iface):
        """Check a parsed interface's internal consistency.

        Returns a list of ``(rule, def_name, message)`` problems; empty
        means the document is self-consistent.  The interesting rule is
        ``def_digest_skew``: a v2 digest table that disagrees with the
        schemes next to it (a hand edit or a torn merge) — distinct
        from a corrupt file, because the schemes themselves parsed."""
        if iface.stored_digests is None:
            return []
        problems = []
        for name in sorted(set(iface.stored_digests) | set(iface.digests)):
            stored = iface.stored_digests.get(name)
            derived = iface.digests.get(name)
            if stored is None:
                problems.append(
                    (
                        "def_digest_skew",
                        name,
                        "digest table has no entry for exported def %r" % name,
                    )
                )
            elif derived is None:
                problems.append(
                    (
                        "def_digest_skew",
                        name,
                        "digest table names %r but no such scheme is present"
                        % name,
                    )
                )
            elif stored != derived:
                problems.append(
                    (
                        "def_digest_skew",
                        name,
                        "stale digest for %r: table has %s.., scheme derives %s.."
                        % (name, stored[:12], derived[:12]),
                    )
                )
        return problems

    def digest_of_def(self, module_name, def_name):
        """The per-def scheme digest of ``def_name`` as exported by
        ``module_name``'s on-disk interface, or ``None`` when the
        interface or the definition is missing."""
        try:
            iface = self.load_module(module_name)
        except InterfaceError:
            return None
        return iface.digest_of_def(def_name)

    def file_digest(self, path):
        """Whole-file digest (see :func:`interface_digest`)."""
        return interface_digest(path)


_STORE = InterfaceStore()


def interface_from_text(text, origin="<interface>"):
    """Parse interface text; returns ``(module_name, schemes)``.

    Compatibility wrapper over :meth:`InterfaceStore.load_text`."""
    iface = _STORE.load_text(text, origin=origin)
    return iface.module, dict(iface.schemes)


def read_interface(path):
    """Read an interface file; returns ``(module_name, schemes)``.

    Compatibility wrapper over :meth:`InterfaceStore.load`."""
    iface = _STORE.load(path)
    return iface.module, dict(iface.schemes)


# ---------------------------------------------------------------------------
# Content-addressed artifact keys.
# ---------------------------------------------------------------------------

_KEY_SALT = b"mspec-artifact-key\x00"


def interface_digest(path):
    """SHA-256 hex digest of an interface file's bytes, or ``None`` if
    the file does not exist.  Because the serialisation is canonical,
    equal digests mean equal interfaces."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError:
        return None
    return hashlib.sha256(data).hexdigest()


def digest_text(text):
    """SHA-256 hex digest of a text artifact (canonical serialisation)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def module_key(source_bytes, dep_digests, force_residual=frozenset()):
    """The content-addressed cache key of one module's artifacts.

    ``sha256`` over: a salt and :data:`CACHE_EPOCH`, the module's source
    bytes, the analysis options that change its output
    (``force_residual``), and the *interface digests* of its direct
    imports (sorted by name).  Keying on the imports' interfaces — not
    their sources — is what gives early cutoff: an upstream edit that
    leaves an interface byte-identical leaves every downstream key
    unchanged.

    ``dep_digests`` is an iterable of ``(dep_name, digest_hex)``; a
    ``None`` digest (missing dep interface) poisons the key so the
    module can never appear up to date.
    """
    h = hashlib.sha256()
    h.update(_KEY_SALT)
    h.update(b"epoch=%d fmt=%d\x00" % (CACHE_EPOCH, FORMAT_VERSION))
    h.update(source_bytes)
    h.update(b"\x00")
    for name in sorted(force_residual):
        h.update(b"resid:")
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
    for dep, digest in sorted(dep_digests):
        h.update(dep.encode("utf-8"))
        h.update(b"=")
        h.update((digest or "<missing>").encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def module_key_v2(source_bytes, import_names, used_def_digests,
                  force_residual=frozenset()):
    """The definition-keyed cache key of one module's artifacts.

    Like :func:`module_key` but keyed on the *per-definition scheme
    digests of only the imported definitions the module syntactically
    references* (``used_def_digests``: ``(def_name, digest_hex)``
    pairs), not on whole dep interface files.  An upstream edit that
    changes the scheme of a definition this module never mentions —
    or that changes a body without changing any scheme — leaves this
    key unchanged, so the module is never re-analysed: early cutoff at
    definition granularity.

    The import *names* still participate (sorted), so adding or
    removing an import always invalidates even when the used-def set
    happens to be unchanged.  A ``None`` digest poisons the key."""
    h = hashlib.sha256()
    h.update(_KEY_SALT)
    h.update(b"epoch=%d fmt=%d defkeyed\x00" % (CACHE_EPOCH, FORMAT_VERSION))
    h.update(source_bytes)
    h.update(b"\x00")
    for name in sorted(force_residual):
        h.update(b"resid:")
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
    for name in sorted(import_names):
        h.update(b"import:")
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
    for fn, digest in sorted(used_def_digests):
        h.update(b"use:")
        h.update(fn.encode("utf-8"))
        h.update(b"=")
        h.update((digest or "<missing>").encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


class InterfaceManager:
    """Separate analysis driven by content digests.

    Sources live as ``<Module>.mod`` in ``src_dir``; interfaces are kept
    in ``iface_dir`` as ``<Module>.bti``, each alongside a
    ``<Module>.bti.key`` sidecar recording the :func:`module_key` it was
    built from.  ``analyse`` processes modules in dependency order,
    skipping any module whose recorded key still matches — which is
    exactly how a library vendor prepares modules "once and for all",
    and which (unlike timestamps) survives ``touch``, ``git checkout``,
    and edits that do not change an interface."""

    def __init__(self, src_dir, iface_dir=None):
        self.src_dir = src_dir
        self.iface_dir = iface_dir or src_dir

    def source_path(self, module_name):
        return os.path.join(self.src_dir, module_name + ".mod")

    def interface_path(self, module_name):
        return os.path.join(self.iface_dir, module_name + INTERFACE_SUFFIX)

    def key_path(self, module_name):
        return os.path.join(self.iface_dir, module_name + KEY_SUFFIX)

    def current_key(self, module_name, import_names, force_residual=frozenset()):
        """The module's key as computed from what is on disk right now,
        or ``None`` when the source or a dep interface is missing."""
        try:
            with open(self.source_path(module_name), "rb") as f:
                source_bytes = f.read()
        except OSError:
            return None
        deps = []
        for dep in import_names:
            digest = interface_digest(self.interface_path(dep))
            if digest is None:
                return None
            deps.append((dep, digest))
        return module_key(source_bytes, deps, force_residual)

    def is_up_to_date(self, module_name, import_names, force_residual=frozenset()):
        """True when the interface's recorded content key matches the
        key recomputed from the current source and dep interfaces."""
        if not os.path.exists(self.interface_path(module_name)):
            return False
        try:
            with open(self.key_path(module_name)) as f:
                recorded = f.read().strip()
        except OSError:
            return False
        current = self.current_key(module_name, import_names, force_residual)
        return current is not None and recorded == current

    def analyse(self, linked, force_residual=frozenset(), force=False):
        """Analyse every out-of-date module of ``linked``; returns
        ``(schemes, analysed_module_names)``."""
        os.makedirs(self.iface_dir, exist_ok=True)
        schemes = {}
        analysed = []
        for module_name in linked.topo_order:
            module = linked.module(module_name)
            if not force and self.is_up_to_date(
                module_name, module.imports, force_residual
            ):
                _, cached = read_interface(self.interface_path(module_name))
                schemes.update(cached)
                continue
            visible = {}
            for dep in module.imports:
                dep_name, dep_schemes = read_interface(self.interface_path(dep))
                if dep_name != dep:
                    raise InterfaceError(
                        "interface file for %s names module %s" % (dep, dep_name)
                    )
                visible.update(dep_schemes)
            analysis = analyse_module(module, visible, force_residual)
            write_interface(
                self.interface_path(module_name), module_name, analysis.schemes
            )
            key = self.current_key(module_name, module.imports, force_residual)
            atomic_write_text(self.key_path(module_name), key + "\n")
            schemes.update(analysis.schemes)
            analysed.append(module_name)
        return schemes, analysed
