"""Binding-time interface files (Sec. 4.1).

"Once a module has been analysed, we write the binding-time types of the
functions it exports to a binding-time interface file.  When analysing
modules which import this one, we read their interface files and use the
information to analyse calls of imported functions."

Interface files are JSON (one per module, suffix ``.bti``), containing
the canonical :class:`~repro.bt.scheme.BTScheme` of every exported
function.  The serialisation is canonical (sorted keys, fixed layout),
so *byte equality of interface files coincides with semantic equality of
interfaces*.

The file holds the schemes and nothing derived from them (``"format":
3``).  Each parse derives the per-definition scheme digests
(:func:`scheme_digest`, the SHA-256 of a scheme's canonical JSON) that
let the build key a dependent module on *only the definitions it
actually references* (:func:`module_key_v2`) rather than on the whole
interface file — the definition-level early cutoff.

All parsing lives in :class:`InterfaceStore`; :func:`read_interface`
is a thin wrapper over it.  The separate-analysis workflow itself
(analyse each module once, against its imports' interfaces) is
:class:`repro.pipeline.BuildEngine`.
"""

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict

from repro.bt.bttypes import BTTBase, BTTFun, BTTList, BTTPair, BTTSkel
from repro.bt.scheme import BTScheme
from repro.lru import LruMemo

INTERFACE_SUFFIX = ".bti"
FORMAT_VERSION = 3

# Bumping this invalidates every cached artifact (interfaces, genext
# sources, code objects) — do so whenever the analysis or the cogen
# changes what it produces for the same input.
CACHE_EPOCH = 5


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


def interface_text(module_name, schemes):
    """The canonical on-disk serialisation of one interface.

    Deterministic for a given ``(module_name, schemes)``: two analyses
    that agree on the schemes produce byte-identical files."""
    payload = {
        "format": FORMAT_VERSION,
        "module": module_name,
        "schemes": {name: scheme_to_json(s) for name, s in schemes.items()},
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
    """One parsed interface document; ``digests`` is derived from the
    parsed schemes (:func:`scheme_digest`)."""

    module: str
    schemes: Dict[str, BTScheme]
    digests: Dict[str, str]
    text: str


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
    """The single place interface documents are parsed.

    The :func:`read_interface` helper, the ``repro.check.ifaces``
    checker and the build engine all route through this class, so the
    format lives in exactly one file.  An optional ``iface_dir`` makes
    :meth:`path` available."""

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
        if format != FORMAT_VERSION:
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
        digests = {name: scheme_digest(s) for name, s in schemes.items()}
        return Interface(
            module=module, schemes=schemes, digests=digests, text=text
        )

    def load(self, path):
        """Read and parse one interface file."""
        try:
            with open(path) as f:
                text = f.read()
        except OSError as e:
            raise InterfaceError("cannot read %s: %s" % (path, e))
        except UnicodeDecodeError as e:
            raise InterfaceError("corrupt interface file %s: %s" % (path, e))
        return self.load_text(text, origin=path)


def retired_reason(text):
    """Why an interface text an earlier version wrote (a JSON object
    whose integer format is below :data:`FORMAT_VERSION`) cannot be
    read, else ``None``.  Such a text is drift, not damage: this
    version reads no format but its own, and ``mspec fsck`` and
    ``mspec check`` report it as stale with this reason."""
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    format = payload.get("format") if isinstance(payload, dict) else None
    if type(format) is int and 0 < format < FORMAT_VERSION:
        return "retired interface format %d (this version writes %d)" % (
            format,
            FORMAT_VERSION,
        )
    return None


_STORE = InterfaceStore()


def read_interface(path):
    """Read an interface file; returns ``(module_name, schemes)``.

    Compatibility wrapper over :meth:`InterfaceStore.load`."""
    iface = _STORE.load(path)
    return iface.module, dict(iface.schemes)


# ---------------------------------------------------------------------------
# Content-addressed artifact keys.
# ---------------------------------------------------------------------------

_KEY_SALT = b"mspec-artifact-key\x00"


def module_key_v2(source_bytes, import_names, used_def_digests,
                  force_residual=frozenset()):
    """The definition-keyed cache key of one module's artifacts.

    ``sha256`` over: a salt, :data:`CACHE_EPOCH` and
    :data:`FORMAT_VERSION`, the module's source bytes, the analysis
    options that change its output (``force_residual``), its import
    names, and the *per-definition scheme digests of only the imported
    definitions the module syntactically references*
    (``used_def_digests``: ``(def_name, digest_hex)`` pairs).  Keying
    on the imports' schemes, not their sources, is what gives early
    cutoff: an upstream edit that changes the scheme of a definition
    this module never mentions — or that changes a body without
    changing any scheme — leaves this key unchanged, so the module is
    never re-analysed.

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
