"""An on-disk content-addressed artifact store.

Artifacts (binding-time interfaces, generating-extension sources,
compiled code objects) are filed under the SHA-256 *build key* of the
module they belong to (:func:`repro.bt.interface.module_key_v2`) plus a
short ``kind`` tag:

    <root>/objects/<key[:2]>/<key>.<kind>

Keys are immutable — the same key always denotes the same bytes — so a
hit needs no validation beyond reading the file, a cache can be shared
between checkouts, and eviction is safe at any time (a miss merely
recomputes).  All writes go through a temp file in the final directory
followed by ``os.replace``, so parallel workers racing to publish the
same artifact can never expose a torn file; the losing writer simply
overwrites with identical bytes.

Integrity is checked lazily on read (a corrupt entry is a miss) and
eagerly by ``mspec fsck`` (:func:`repro.pipeline.faults.fsck_cache`),
which moves damaged objects into ``<root>/quarantine``.

A rebuild reads the same files as the build before it, so text reads go
through :func:`read_text`, which does not read a file again while its
stat stamp is the one recorded when its bytes were last read.
"""

import json
import os
import sys
import tempfile
import time

from repro.lru import LruMemo

# Compiled code objects are interpreter-specific; the kind tag carries
# the cache tag so interpreters never read each other's bytecode.
CODE_KIND = "code-%s.bin" % (sys.implementation.cache_tag or "unknown")
IFACE_KIND = "bti.json"
GENEXT_KIND = "genext.py"
# Cached residual programs (repro.speccache payloads).  They share the
# object store with the build artifacts: keys come from a different
# hash domain, so the namespaces can never collide, and fsck validates
# the payloads like any other kind.
RESID_KIND = "resid.json"
# The residual program emitted as a real Python module
# (repro.backend.tiers): the durable tier-2 format, stored next to the
# resid.json payload under the same residual cache key.  The matching
# marshalled code object lives under CODE_KIND (cache-tag keyed, so a
# different interpreter recompiles from this source instead).
RESID_PY_KIND = "resid.py"

OBJECTS_DIRNAME = "objects"
QUARANTINE_DIRNAME = "quarantine"
REFS_FILENAME = "refs.json"

TMP_PREFIX = ".tmp."
TMP_SUFFIX = "~"

# Stat-checked reads.  A file whose ``(st_ino, st_size, st_mtime_ns)``
# still equals the stamp recorded when its bytes were last read is not
# read again: its text is the one read then.  A stamp vouches only for
# bytes read back from disk (a write records none), and only when the
# file's mtime was older than the start of that read by RACY_MARGIN_NS:
# a write landing in the same timestamp tick as the read could otherwise
# leave the stamp unchanged (git's racy-timestamp rule, with a margin
# that covers coarse filesystem clocks).  An atomic replace, a
# truncation or a rewrite moves the stamp, so the next read goes to
# disk; what no stamp can see is an in-place rewrite that keeps the size
# and restores the old mtime.  Keyed by path; bounded, so a sweep over
# more files than the capacity just reads them.
RACY_MARGIN_NS = 2_000_000_000
_STAMPED = LruMemo(4096)  # path -> (stamp, text)


def clear_read_memo():
    """Forget every recorded stamp (test isolation)."""
    _STAMPED.clear()


def _stamp(st):
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def read_text(path):
    """The UTF-8 text of the file at ``path``, read from disk only when
    its stamp moved since the last read (see :data:`RACY_MARGIN_NS`).
    Returns ``(text, nbytes)``, ``nbytes`` being the bytes actually read:
    0 when the recorded stamp vouched for the text.  Raises
    :class:`OSError` for a missing file and :class:`UnicodeDecodeError`
    for bytes that are not UTF-8."""
    entry = _STAMPED.get(path)
    if entry is not None:
        try:
            unchanged = _stamp(os.stat(path)) == entry[0]
        except OSError:
            unchanged = False
        if unchanged:
            return entry[1], 0
        _STAMPED.pop(path)
    started = time.time_ns()
    with open(path, "rb") as f:
        stamp = _stamp(os.fstat(f.fileno()))
        data = f.read()
    text = data.decode("utf-8")
    if stamp[2] < started - RACY_MARGIN_NS:
        _STAMPED.put(path, (stamp, text))
    return text, len(data)


class ArtifactCache:
    """Content-addressed artifact storage rooted at ``root``.

    ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry`, set at
    construction or assigned later) makes the store count its own I/O:
    ``cache.reads`` / ``cache.read_bytes`` for successful gets,
    ``cache.reads_skipped`` for text gets a stamp served without a read,
    ``cache.writes`` / ``cache.write_bytes`` for puts.  With no
    registry attached the accounting is a single attribute test.
    """

    def __init__(self, root, metrics=None):
        self.root = root
        self.metrics = metrics
        self._objects = os.path.join(root, OBJECTS_DIRNAME, "")

    def _count(self, name, nbytes):
        if self.metrics is not None:
            self.metrics.counter("cache." + name).inc()
            self.metrics.counter("cache.%s_bytes" % name[:-1]).inc(nbytes)

    def path(self, key, kind):
        """Where an artifact lives (the file may not exist)."""
        return "%s%s%s%s.%s" % (self._objects, key[:2], os.sep, key, kind)

    def has(self, key, kind):
        return os.path.exists(self.path(key, kind))

    def get_bytes(self, key, kind):
        """The artifact's bytes, or ``None`` on a miss."""
        try:
            with open(self.path(key, kind), "rb") as f:
                data = f.read()
        except OSError:
            return None
        self._count("reads", len(data))
        return data

    def get_text(self, key, kind):
        """The artifact decoded as UTF-8; ``None`` on a miss *or* on
        undecodable bytes (a corrupt entry is a miss — the caller
        recomputes and overwrites it).  Read through :func:`read_text`:
        an artifact whose stamp still holds is not read again."""
        try:
            text, nbytes = read_text(self.path(key, kind))
        except OSError:
            return None
        except UnicodeDecodeError as exc:
            self._count("reads", len(exc.object))
            return None
        if nbytes:
            self._count("reads", nbytes)
        elif self.metrics is not None:
            self.metrics.counter("cache.reads_skipped").inc()
        return text

    def put_bytes(self, key, kind, data):
        """Atomically publish an artifact; returns its path."""
        path = self.path(key, kind)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=TMP_PREFIX, suffix=TMP_SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        finally:
            # Remove the temp file iff it is still there — i.e. the
            # write or rename failed for *any* reason, including
            # KeyboardInterrupt/SystemExit, which propagate untouched.
            try:
                os.unlink(tmp)
            except OSError:
                pass
        self._count("writes", len(data))
        return path

    def put_text(self, key, kind, text):
        return self.put_bytes(key, kind, text.encode("utf-8"))

    # -- refs: the one mutable file in the store -------------------------

    def refs_path(self):
        return os.path.join(self.root, REFS_FILENAME)

    def read_refs(self):
        """The ``module name -> last successful build key`` map.

        Refs are the store's only mutable state (git-refs-style): they
        let a rebuild find the *previous* build's interfaces after an
        edit changed every key, to report where invalidation was cut
        off.  A missing or corrupt refs file is an empty map: the next
        build then reports no cut-off definitions."""
        try:
            with open(self.refs_path()) as f:
                refs = json.load(f)
        except (OSError, json.JSONDecodeError):
            return {}
        if not isinstance(refs, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in refs.items()
        ):
            return {}
        return refs

    def write_refs(self, refs):
        """Atomically replace the refs map."""
        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=TMP_PREFIX, suffix=TMP_SUFFIX
        )
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(refs, f, indent=1, sort_keys=True)
                f.write("\n")
            os.replace(tmp, self.refs_path())
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def objects(self):
        """Yield ``(dirpath, filename)`` for every file under
        ``objects/`` (fsck's walk; droppings and misfiled names
        included)."""
        objects_root = os.path.join(self.root, OBJECTS_DIRNAME)
        for dirpath, _, filenames in os.walk(objects_root):
            for filename in sorted(filenames):
                yield dirpath, filename
