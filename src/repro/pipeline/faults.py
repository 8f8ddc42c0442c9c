"""Worker supervision and fault tolerance for the build engine.

The paper's separate-analysis discipline (Sec. 4.1) makes each module's
BTA+cogen job a pure function of its own source and its imports'
interfaces — so one broken module can never *semantically* poison a
module outside its downstream import cone.  This layer makes the build
engine honour that operationally:

* **Deadlines** — every job gets a wall-clock budget
  (:attr:`FaultPolicy.timeout`).  In pool mode a job past its deadline
  is declared dead and the (possibly hung) pool is torn down, its
  worker processes terminated; in serial mode a ``SIGALRM`` timer
  interrupts the job in place.

* **Bounded retries with capped exponential backoff** — transient
  failures (a flaky worker, a hang that a retry resolves) are retried
  up to :attr:`FaultPolicy.retries` times, sleeping
  ``min(cap, base * 2**round)`` between rounds (the sleep function is
  injectable so tests never wait).

* **Degradation** — a worker that dies mid-job breaks the whole
  ``ProcessPoolExecutor`` (``BrokenProcessPool``); victims of the
  breakage never ran, so they are re-executed *serially* — the build
  degrades to ``jobs=1`` for the rest of the run rather than failing
  modules that did nothing wrong.  The rerun does not count against
  the retry budget.

* **Keep-going** — with :attr:`FaultPolicy.keep_going`, a failed module
  removes only its downstream cone from the build; everything outside
  the cone (the maximal unaffected antichain sub-schedule) still
  builds, and all failures are collected into one :class:`BuildReport`
  of structured :class:`ModuleFailure` records instead of fail-fast.

* **fsck** — :func:`fsck_cache` scans the content-addressed store,
  validates every object against its kind (interfaces must parse,
  genext sources must compile, code objects must unmarshal), moves
  damaged objects into ``<root>/quarantine``, and deletes temp-file
  droppings a crashed writer left behind.

Every path above is exercised deterministically by the fault-injection
harness (:mod:`repro.pipeline.faultinject`).
"""

import marshal
import os
import signal
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bt.interface import InterfaceError, InterfaceStore, retired_reason
from repro.pipeline.pool import WorkerPool
from repro.pipeline.cache import (
    CODE_KIND,
    GENEXT_KIND,
    IFACE_KIND,
    QUARANTINE_DIRNAME,
    RESID_KIND,
    RESID_PY_KIND,
    TMP_PREFIX,
    TMP_SUFFIX,
)

# Exit codes, one per failure class (the CLI contract; see
# docs/robustness.md).  Highest-severity class wins for mixed reports.
EXIT_OK = 0
EXIT_ERROR = 3  # a module's analysis/cogen raised
EXIT_TIMEOUT = 4  # a module exceeded its deadline (after retries)
EXIT_CRASH = 5  # a worker process died (after degradation + retries)
EXIT_CORRUPT = 6  # fsck quarantined corrupt cache objects

# Failure kinds carried by ModuleFailure.
KIND_ERROR = "error"
KIND_TIMEOUT = "timeout"
KIND_CRASH = "crash"

_EXIT_BY_KIND = {
    KIND_CRASH: EXIT_CRASH,
    KIND_TIMEOUT: EXIT_TIMEOUT,
    KIND_ERROR: EXIT_ERROR,
}


class DeadlineExceeded(Exception):
    """A supervised job ran past its wall-clock deadline."""


@dataclass(frozen=True)
class ModuleFailure:
    """One module's structured failure diagnostic."""

    module: str
    kind: str  # error | timeout | crash
    error_class: str  # e.g. 'BTError', 'DeadlineExceeded'
    message: str
    root_cause: str  # the module at the root of the failure cone
    attempts: int = 1
    span: Optional[Tuple[int, int]] = None  # (line, column) if known

    @classmethod
    def from_exception(cls, module, kind, exc, attempts):
        span = None
        line = getattr(exc, "line", None)
        column = getattr(exc, "column", None)
        if line is not None:
            span = (line, 0 if column is None else column)
        return cls(
            module=module,
            kind=kind,
            error_class=type(exc).__name__,
            message=str(exc) or type(exc).__name__,
            root_cause=module,
            attempts=attempts,
            span=span,
        )

    def as_dict(self):
        return {
            "module": self.module,
            "kind": self.kind,
            "error_class": self.error_class,
            "message": self.message,
            "root_cause": self.root_cause,
            "attempts": self.attempts,
            "span": list(self.span) if self.span else None,
        }

    def describe(self):
        where = self.module
        if self.span is not None:
            where = "%s:%d:%d" % (self.module, self.span[0], self.span[1])
        return "%s [%s/%s, %d attempt(s)]: %s" % (
            where,
            self.kind,
            self.error_class,
            self.attempts,
            self.message,
        )


@dataclass
class BuildReport:
    """Everything that went wrong (and what survived) in one build."""

    failures: List[ModuleFailure] = field(default_factory=list)
    skipped: Dict[str, str] = field(default_factory=dict)  # module -> root
    succeeded: List[str] = field(default_factory=list)
    retries: int = 0
    degraded: bool = False

    @property
    def ok(self):
        return not self.failures and not self.skipped

    @property
    def exit_code(self):
        if self.ok:
            return EXIT_OK
        # Highest severity wins: crash(5) > timeout(4) > error(3).
        return max(
            (_EXIT_BY_KIND[f.kind] for f in self.failures),
            default=EXIT_ERROR,
        )

    def as_dict(self):
        return {
            "failures": [f.as_dict() for f in self.failures],
            "skipped": dict(self.skipped),
            "succeeded": list(self.succeeded),
            "retries": self.retries,
            "degraded": self.degraded,
            "exit_code": self.exit_code,
        }

    def render(self):
        """A human-readable multi-line account."""
        if self.ok:
            return "build ok: %d module(s)" % len(self.succeeded)
        lines = [
            "build failed: %d failure(s), %d skipped, %d built"
            % (len(self.failures), len(self.skipped), len(self.succeeded))
        ]
        for f in self.failures:
            lines.append("  FAILED  " + f.describe())
        for module in sorted(self.skipped):
            lines.append(
                "  skipped %s (downstream of %s)"
                % (module, self.skipped[module])
            )
        if self.retries:
            lines.append("  %d retr%s spent" % (
                self.retries, "y" if self.retries == 1 else "ies"))
        if self.degraded:
            lines.append("  degraded to serial execution after a worker crash")
        return "\n".join(lines)


class BuildError(Exception):
    """A build with failures, in fail-fast mode.  Carries the report."""

    def __init__(self, report):
        self.report = report
        super().__init__(report.render())


@dataclass(frozen=True)
class FaultPolicy:
    """How the supervisor responds to misbehaving jobs."""

    timeout: Optional[float] = None  # per-module wall-clock deadline (s)
    retries: int = 0  # extra attempts after the first
    backoff_base: float = 0.05  # first retry sleeps this long
    backoff_cap: float = 2.0  # exponential backoff tops out here
    keep_going: bool = False  # collect failures instead of fail-fast
    sleep: Callable = field(default=time.sleep, repr=False)

    def backoff(self, round_index):
        """The capped exponential delay before retry round ``round_index``."""
        return min(self.backoff_cap, self.backoff_base * (2.0 ** round_index))


# ---------------------------------------------------------------------------
# Serial deadlines: a SIGALRM timer (main thread, POSIX).  In-process
# jobs cannot be preempted portably; where the timer is unavailable the
# job simply runs undeadlined (pool mode is the supervised path).
# ---------------------------------------------------------------------------


class _alarm_deadline:
    def __init__(self, seconds):
        self.seconds = seconds
        self.armed = False

    def __enter__(self):
        if (
            self.seconds is None
            or not hasattr(signal, "setitimer")
            or threading.current_thread() is not threading.main_thread()
        ):
            return self

        def _on_alarm(signum, frame):
            raise DeadlineExceeded(
                "job exceeded its %.3gs deadline" % self.seconds
            )

        self._old_handler = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        self.armed = True
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old_handler)
        return False


# ---------------------------------------------------------------------------
# The supervisor.
# ---------------------------------------------------------------------------

# Outcome tags inside one round.
_OK, _ERROR, _TIMEOUT, _CRASH = "ok", KIND_ERROR, KIND_TIMEOUT, KIND_CRASH


class WaveSupervisor:
    """Runs waves of payloads under a :class:`FaultPolicy`.

    ``worker`` is a picklable function of one payload; payloads are
    ``(name, ...)`` tuples whose first element names the module.  The
    supervisor drives at most one executor at a time (through a
    :class:`~repro.pipeline.pool.WorkerPool`), tears it down on hangs
    and breakage, and — once broken — stays degraded to serial
    execution for the rest of the build.

    ``pool`` may supply a *borrowed* :class:`WorkerPool`: the
    supervisor then reuses its already-forked workers and leaves the
    pool running at :meth:`shutdown` (the owner — a daemon, a bench, a
    batch driver serving many calls — shuts it down once, at the end of
    its life).  Hangs and breakage still :meth:`~WorkerPool.kill` the
    borrowed pool's executor — a hung worker must die whoever owns it —
    but the pool respawns transparently on next use.

    Fault accounting goes through the observability layer: counters
    (``faults.retries`` / ``faults.timeouts`` / ``faults.crashes`` /
    ``faults.degradations``) land in the metrics registry shared with
    the build's :class:`~repro.pipeline.stats.PipelineStats`, and each
    incident is published on the event bus (``retry`` / ``timeout`` /
    ``crash`` / ``degraded``) for subscribers such as profilers or
    benchmarks.  ``stats`` is accepted for direct callers and supplies
    the registry when no ``obs`` is given; counters are recorded exactly
    once regardless of how many of the two are passed, because both
    views read the same registry.
    """

    def __init__(self, worker, jobs, policy, stats=None, obs=None, pool=None):
        self.worker = worker
        self.jobs = pool.jobs if pool is not None else jobs
        self.policy = policy
        self.stats = stats
        if obs is not None:
            self.metrics = obs.metrics
            self.bus = obs.bus
        elif stats is not None:
            self.metrics = stats.metrics
            self.bus = stats.metrics.bus
        else:
            self.metrics = None
            self.bus = None
        self.degraded = False
        self._owns_pool = pool is None
        self._pool = pool

    def _count(self, counter):
        if self.metrics is not None:
            self.metrics.counter(counter).inc()

    def _event(self, kind, **payload):
        if self.bus is not None:
            self.bus.emit(kind, **payload)

    # -- pool lifecycle ------------------------------------------------------

    def _ensure_pool(self):
        """The live executor (forked lazily; reused across retry waves
        and, with a borrowed pool, across supervisor lifetimes)."""
        if self._pool is None:
            self._pool = WorkerPool(self.jobs)
        return self._pool.executor()

    def _kill_pool(self, executor=None):
        """Tear the executor down hard: terminate workers (a hung worker
        never returns on its own), then release it.  A borrowed pool
        survives — killed generation-checked, respawned on next use."""
        if self._pool is not None:
            self._pool.kill(executor)

    def shutdown(self):
        """Release an owned pool; a borrowed pool is the owner's to
        shut down and is left running."""
        if self._owns_pool:
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.shutdown()

    # -- one wave ------------------------------------------------------------

    def run_wave(self, payloads):
        """Run one wave; returns ``(results, failures)`` where
        ``results`` maps module name to the worker's return value and
        ``failures`` maps module name to :class:`ModuleFailure`."""
        pending = {p[0]: p for p in payloads}
        attempts = {name: 0 for name in pending}
        results, failures = {}, {}
        backoff_round = 0
        while pending:
            batch, pending = pending, {}
            outcomes = self._run_batch(batch)
            needs_backoff = False
            for name, (tag, value) in outcomes.items():
                if tag == _OK:
                    results[name] = value
                    continue
                if tag == _CRASH:
                    # A broken pool means the job may never have run at
                    # all; the degraded serial rerun is not a "retry".
                    pending[name] = batch[name]
                    continue
                attempts[name] += 1
                if tag == _TIMEOUT:
                    self._count("faults.timeouts")
                    self._event("fault.timeout", module=name, attempt=attempts[name])
                if attempts[name] <= self.policy.retries:
                    pending[name] = batch[name]
                    needs_backoff = True
                    self._count("faults.retries")
                    self._event("fault.retry", module=name, attempt=attempts[name])
                else:
                    failures[name] = ModuleFailure.from_exception(
                        name, tag, value, attempts[name]
                    )
            if pending and needs_backoff:
                self.policy.sleep(self.policy.backoff(backoff_round))
                backoff_round += 1
        return results, failures

    def _run_batch(self, batch):
        # A borrowed pool's workers are already forked: use them even
        # for a single job (so deadlines bind off the main thread and
        # the caller's thread stays free).  An owned pool is only worth
        # forking when there is real parallelism to be had.
        use_pool = not self.degraded and (
            not self._owns_pool or (self.jobs > 1 and len(batch) > 1)
        )
        if use_pool:
            return self._run_batch_pool(batch)
        return self._run_batch_serial(batch)

    def _run_batch_serial(self, batch):
        outcomes = {}
        for name, payload in batch.items():
            try:
                with _alarm_deadline(self.policy.timeout):
                    outcomes[name] = (_OK, self.worker(payload))
            except DeadlineExceeded as exc:
                outcomes[name] = (_TIMEOUT, exc)
            except Exception as exc:
                outcomes[name] = (_ERROR, exc)
        return outcomes

    def _run_batch_pool(self, batch):
        pool = self._ensure_pool()
        outcomes = {}
        broken = False
        hung = False
        futures = {}
        for name, payload in batch.items():
            try:
                futures[name] = pool.submit(self.worker, payload)
            except BrokenProcessPool as exc:
                # A worker died while the batch was still being fed.
                broken = True
                outcomes[name] = (_CRASH, exc)
        for name, future in futures.items():
            if broken:
                # The pool is gone; anything not already finished is a
                # breakage victim and will be re-run serially.
                if future.done() and future.exception() is None:
                    outcomes[name] = (_OK, future.result())
                else:
                    outcomes[name] = (
                        _CRASH,
                        BrokenProcessPool("worker pool broke"),
                    )
                continue
            try:
                outcomes[name] = (
                    _OK,
                    future.result(timeout=self.policy.timeout),
                )
            except FutureTimeoutError:
                hung = True
                outcomes[name] = (
                    _TIMEOUT,
                    DeadlineExceeded(
                        "job exceeded its %.3gs deadline"
                        % (self.policy.timeout,)
                    ),
                )
            except BrokenProcessPool as exc:
                broken = True
                outcomes[name] = (_CRASH, exc)
            except Exception as exc:
                outcomes[name] = (_ERROR, exc)
        if broken:
            self._kill_pool(pool)
            if not self.degraded:
                # One breakage = one crash + one degradation, however
                # many victims it had and however they are re-run; the
                # serial re-execution below never re-enters this path.
                self.degraded = True
                self._count("faults.crashes")
                self._count("faults.degradations")
                self._event("fault.crash", modules=sorted(batch))
                self._event("fault.degraded", jobs=self.jobs)
        elif hung:
            # The pool still holds a wedged worker: scrap it; a fresh
            # one is built lazily if another parallel batch arrives.
            self._kill_pool(pool)
        return outcomes


# ---------------------------------------------------------------------------
# fsck: scan + quarantine for the content-addressed store.
# ---------------------------------------------------------------------------


@dataclass
class FsckReport:
    """What an :func:`fsck_cache` pass found.

    ``quarantined`` is damage (torn, unparseable, wrong-named);
    ``stale`` is a *distinct* finding kind — artifacts that are intact
    but that no loader on this interpreter would use (a tier-2 code
    object with another build's cache tag, an emitted ``resid.py``
    missing its header, an interface of a retired format, an object of
    a retired kind such as ``defs.json``).  Both move to the quarantine
    directory (a stale object is dead weight either way; a live kind
    regenerates on demand), but tooling can tell rot from drift."""

    scanned: int = 0
    quarantined: List[Tuple[str, str]] = field(default_factory=list)
    stale: List[Tuple[str, str]] = field(default_factory=list)
    removed_tmp: List[str] = field(default_factory=list)
    foreign: List[str] = field(default_factory=list)  # other interpreters

    @property
    def ok(self):
        return not self.quarantined and not self.stale

    @property
    def exit_code(self):
        return EXIT_OK if self.ok else EXIT_CORRUPT

    def as_dict(self):
        return {
            "scanned": self.scanned,
            "quarantined": [list(q) for q in self.quarantined],
            "stale": [list(q) for q in self.stale],
            "removed_tmp": list(self.removed_tmp),
            "foreign": list(self.foreign),
            "exit_code": self.exit_code,
        }

    def render(self):
        lines = [
            "fsck: %d object(s) scanned, %d quarantined, %d stale, "
            "%d temp file(s) removed"
            % (
                self.scanned,
                len(self.quarantined),
                len(self.stale),
                len(self.removed_tmp),
            )
        ]
        for name, reason in self.quarantined:
            lines.append("  quarantined %s: %s" % (name, reason))
        for name, reason in self.stale:
            lines.append("  stale %s: %s" % (name, reason))
        for name in self.foreign:
            lines.append("  skipped %s: foreign interpreter tag" % name)
        return "\n".join(lines)


def _validate_object(kind, data):
    """``None`` if ``data`` is a well-formed artifact of ``kind``, else
    a ``(category, reason)`` pair — ``"corrupt"`` for damage,
    ``"stale"`` for intact-but-unusable (see :class:`FsckReport`)."""
    if kind == "defs.json":
        # Earlier versions wrote one per module build; no reader uses it
        # any more, so intact or not it is drift, not damage.
        return (
            "stale",
            "retired artifact kind 'defs.json' (per-definition build record)",
        )
    if not data:
        return ("corrupt", "empty object")
    if kind == IFACE_KIND:
        try:
            text = data.decode("utf-8")
            InterfaceStore().load_text(text, origin="<fsck>")
        except UnicodeDecodeError as exc:
            return ("corrupt", "corrupt interface: %s" % exc)
        except InterfaceError as exc:
            reason = retired_reason(text)
            if reason is None:
                return ("corrupt", "corrupt interface: %s" % exc)
            # Intact, but written by an earlier version: drift, not
            # damage (a fresh build keys its artifacts apart from it).
            return ("stale", reason)
        return None
    if kind == GENEXT_KIND:
        try:
            compile(data.decode("utf-8"), "<fsck>", "exec")
        except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
            return ("corrupt", "corrupt genext source: %s" % exc)
        return None
    if kind == CODE_KIND:
        # Tier-2 code artifacts (repro.backend.tiers): unmarshallable
        # is corruption; a record this interpreter would silently skip
        # (wrong schema, wrong cache tag) is stale.
        from repro.backend.tiers import validate_code_bytes

        problem = validate_code_bytes(data)
        if problem is not None:
            category, reason = problem
            label = (
                "corrupt code object"
                if category == "corrupt"
                else "stale code artifact"
            )
            return (category, "%s: %s" % (label, reason))
        return None
    if kind == RESID_PY_KIND:
        from repro.backend.tiers import validate_source_bytes

        problem = validate_source_bytes(data)
        if problem is not None:
            category, reason = problem
            return (category, "emitted residual source: %s" % reason)
        return None
    if kind == RESID_KIND:
        from repro.speccache import validate_payload_bytes

        reason = validate_payload_bytes(data)
        if reason is not None:
            return ("corrupt", "corrupt residual payload: %s" % reason)
        return None
    return ("corrupt", "unknown artifact kind %r" % kind)


def fsck_cache(cache):
    """Scan ``cache``, quarantining every damaged object.

    Checks, per object file ``objects/<aa>/<key>.<kind>``:

    * leftover atomic-write temp files are deleted outright;
    * the file name must be ``<64-hex-key>.<kind>`` and live in the
      ``<key[:2]>`` fan-out directory;
    * the payload must be well-formed for its kind (interfaces parse,
      genext and emitted residual sources compile, code objects
      unmarshal, nothing empty).

    Intact artifacts no loader on this interpreter would use — a
    tier-2 code record with a foreign cache tag, an emitted
    ``resid.py`` without its header, an interface of a retired format,
    a retired ``defs.json`` record — are quarantined too but reported
    under the distinct ``stale`` finding kind (a live kind regenerates
    on demand; see :class:`FsckReport`).  Code objects of *other*
    interpreters cannot be validated here and are reported as foreign,
    untouched.  Damaged objects move to
    ``<root>/quarantine/<filename>`` (same-filesystem rename), so
    nothing is destroyed — a false positive can be inspected and put
    back by hand.  Returns an :class:`FsckReport`.
    """
    report = FsckReport()
    quarantine_dir = os.path.join(cache.root, QUARANTINE_DIRNAME)

    def quarantine(path, filename, reason, category="corrupt"):
        os.makedirs(quarantine_dir, exist_ok=True)
        os.replace(path, os.path.join(quarantine_dir, filename))
        findings = (
            report.stale if category == "stale" else report.quarantined
        )
        findings.append((filename, reason))

    for dirpath, filename in cache.objects():
        path = os.path.join(dirpath, filename)
        if filename.startswith(TMP_PREFIX) and filename.endswith(TMP_SUFFIX):
            try:
                os.unlink(path)
            except OSError:
                continue
            report.removed_tmp.append(filename)
            continue
        report.scanned += 1
        key, dot, kind = filename.partition(".")
        if (
            not dot
            or len(key) != 64
            or any(c not in "0123456789abcdef" for c in key)
        ):
            quarantine(path, filename, "unrecognised object name")
            continue
        if os.path.basename(dirpath) != key[:2]:
            quarantine(path, filename, "misfiled (wrong fan-out directory)")
            continue
        if kind != CODE_KIND and kind.startswith("code-") and kind.endswith(".bin"):
            report.foreign.append(filename)
            continue
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError as exc:
            quarantine(path, filename, "unreadable: %s" % exc)
            continue
        problem = _validate_object(kind, data)
        if problem is not None:
            category, reason = problem
            quarantine(path, filename, reason, category)
    return report
