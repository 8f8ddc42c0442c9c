"""The repository's benchmark: four seeded workloads, one runner.

    python3 benchmarks/suite/run.py --workload NAME --seed N \\
        [--seconds S] [--trace 0|1] [--trace-dir DIR] [--smoke]

Each invocation runs one workload in a fresh interpreter, so
process-wide memos start cold and the peak RSS belongs to that workload.
A run makes its inputs from ``--seed`` (see ``workloads.py``), sets the
system up ``setup_repeats`` times, measures operations for ``--seconds``
seconds, checks every output against an independent reference, and
prints one JSON object as the last line of standard output::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics declared in
``BENCHMARK.json``.  ``--trace 1`` reports the per-layer metrics: half
the measuring time runs untraced, the other half after a traced set-up
with a span around every layer (``layers.py``); the difference between
the halves is the tracing overhead.  The Chrome trace and a
``layers.json`` go to ``--trace-dir`` (default ``.bench_suite/trace``
under the checkout).

Exit status is 0 only when every operation succeeded with a correct
output.  See ``README.md`` for the workloads, metrics and baseline.
"""

import argparse
import array
import bisect
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.api import BuildOptions, SpecOptions  # noqa: E402
from repro.backend import tiers  # noqa: E402
from repro.genext import engine  # noqa: E402
from repro.interp.eval import run_program  # noqa: E402
from repro.lang.parser import parse_program  # noqa: E402
from repro.lang.pretty import pretty_program  # noqa: E402
from repro.modsys.program import load_program, relink_with  # noqa: E402
from repro.obs import Obs, Tracer  # noqa: E402
from repro.pipeline.build import build_dir  # noqa: E402
from repro.pipeline.cache import RESID_PY_KIND  # noqa: E402
from repro.serve import protocol  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.speccache import clear_decode_memo  # noqa: E402

WORK_ROOT = os.path.join(ROOT, ".bench_suite")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("output_bytes", "bytes"),
)

# Per-layer counts: (reported name, counter in the metrics snapshots).
COUNTS = (
    ("pipeline.modules_cached", "cache.hits"),
    ("incr.defs_re_derived", "incr.defs_re_derived"),
    ("incr.defs_cut_off", "incr.defs_cut_off"),
    ("incr.fallback_errors", "incr.fallback_errors"),
    ("spec.unfolds", "spec.unfolds"),
    ("spec.specialisations", "spec.specialisations"),
    ("serve.coalesced", "serve.coalesced"),
    ("serve.rejections", "serve.rejections"),
    ("tier.memo_hits", "tier.memo_hits"),
)


def per_layer_names():
    """Every per-layer metric a ``--trace 1`` run reports, with units."""
    names = [("%s_pct" % layer, "%") for layer in layers.PCT_LAYERS]
    names += [(name, "count") for name, _ in COUNTS]
    names += [
        ("lang.parse_calls", "count"),
        ("bt.analyse_calls", "count"),
        ("genext.code_loads", "count"),
        ("genext.code_compiles", "count"),
        ("pool.recycles", "count"),
        ("trace.spans", "count"),
        ("spec.memo_hit_ratio", "ratio"),
        ("speccache.hit_ratio", "ratio"),
        ("speccache.decode_memo_hit_ratio", "ratio"),
        ("tier.t2_share", "ratio"),
        ("trace.overhead_pct", "%"),
    ]
    return names


# ---------------------------------------------------------------------------
# Small helpers.
# ---------------------------------------------------------------------------


def percentile(values, q):
    """Linear-interpolated ``q``-th percentile (0 for no samples)."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ratio(num, den):
    return num / den if den else 0.0


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_sources(directory, sources):
    os.makedirs(directory, exist_ok=True)
    for name, text in sources.items():
        with open(os.path.join(directory, name + ".mod"), "w") as f:
            f.write(text)


def full_args(general, goal, static_args, dynamic_args):
    """The general program's argument list for one request."""
    params = general.find_def(goal)[1].params
    dyn = list(dynamic_args)
    return [static_args[p] if p in static_args else dyn.pop(0) for p in params]


def commit_id():
    """The checkout's commit when it is a git work tree, else
    ``unknown`` (reads ``.git`` inside the checkout only)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def calibration_loop():
    """A fixed slice of pure-Python work (string formatting, tuples,
    dict probes): the yardstick for the machine's momentary speed."""
    table = {}
    for i in range(2000):
        key = ("k%d" % (i % 101), i & 7)
        table[key] = table.get(key, 0) + len(key[0])
    return len(table)


class Speed:
    """How fast the machine runs Python during one measuring pass.

    On a shared machine the CPU's speed drifts by tens of percent within
    minutes, moving every time a run measures.  The pass therefore times
    :func:`calibration_loop` before and after every set-up and every
    :data:`INTERVAL_S` between operations — never while the code under
    test runs in this process — and rescales measured intervals to a
    machine whose loop median is :data:`REFERENCE_S`: an operation by
    the samples taken within :data:`WINDOW_S` of it, a set-up (whose
    neighbouring samples catch one instant of a long interval) by every
    sample of the pass.  See README.md for the evidence.
    """

    REFERENCE_S = 0.0006  # the loop's median on the reference machine
    INTERVAL_S = 0.25
    WINDOW_S = 1.0
    MIN_SAMPLES = 16

    def __init__(self):
        self.samples = []  # (perf_counter at start, seconds)
        self._next = 0.0
        self._index = None  # sorted samples and memoised factors

    def sample(self, n=8):
        for _ in range(n):
            t0 = time.perf_counter()
            calibration_loop()
            self.samples.append((t0, time.perf_counter() - t0))
        self._next = time.perf_counter() + self.INTERVAL_S
        self._index = None

    def tick(self):
        """Between two operations: sample once an interval has passed."""
        if time.perf_counter() >= self._next:
            self.sample(4)

    def factor(self, start=None, end=None):
        """Reference time per measured time over ``[start, end]``: from
        the samples within :data:`WINDOW_S` of it, or from every sample
        of the pass when no interval is given or fewer than
        :data:`MIN_SAMPLES` fall there."""
        if self._index is None:
            samples = sorted(self.samples)
            self._index = ([t for t, _ in samples], [s for _, s in samples], {})
        times, seconds, memo = self._index
        lo, hi = 0, len(times)
        if start is not None:
            near = (
                bisect.bisect_left(times, start - self.WINDOW_S),
                bisect.bisect_right(times, end + self.WINDOW_S),
            )
            if near[1] - near[0] >= self.MIN_SAMPLES:
                lo, hi = near
        factor = memo.get((lo, hi))
        if factor is None:
            factor = memo[lo, hi] = self.REFERENCE_S / statistics.median(seconds[lo:hi])
        return factor

    def rescale(self, starts, durations):
        """Measured intervals as seconds at the reference speed."""
        return [s * self.factor(t, t + s) for t, s in zip(starts, durations)]


class Run:
    """One measuring pass: the tracer (``None`` when untraced), the
    ``Obs`` handed to every program entry point that accepts one, and
    the pass's :class:`Speed`."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.obs = Obs(tracer=tracer) if tracer is not None else None
        self.speed = Speed()

    def span(self, name):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, cat="bench")


class Phase:
    """What one measuring pass observed."""

    def __init__(self):
        # Starts and durations of the workload's gated operation, kept
        # compact: the harness's memory shows in ru_maxrss.
        self.gated_starts = array.array("d")
        self.gated_seconds = array.array("d")
        self.kinds = {}  # kind -> [seconds], for the printed summary
        self.ops = 0  # operations of every kind that succeeded
        self.failed = 0
        self.errors = []
        self.busy = 0.0  # seconds the rate is taken over
        self.started = time.perf_counter()
        self.ended = None

    def ok(self, kind, start, seconds, gated=True):
        self.ops += 1
        self.kinds.setdefault(kind, []).append(seconds)
        if gated:
            self.gated_starts.append(start)
            self.gated_seconds.append(seconds)

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    @property
    def attempted(self):
        return self.ops + self.failed


class Workload:
    """The shape every workload has.  ``setup`` returns a state dict
    whose ``root`` is the set-up's scratch directory and whose
    ``output_bytes`` sizes what it produced, unless the workload
    overrides :meth:`output_bytes`."""

    setup_repeats = 1

    def __init__(self, work):
        self.work = work

    def scratch(self):
        return tempfile.mkdtemp(prefix="s", dir=self.work)

    def output_bytes(self, state):
        return state["output_bytes"]

    def peak_rss_mb(self, state):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def remote(self, state):
        """A daemon's counters and vitals, for workloads that run one."""
        return None

    def close(self, state):
        """Release one set-up; returns a daemon's trace events, if any."""
        shutil.rmtree(state["root"], ignore_errors=True)
        return []

    def running(self, phase, seconds):
        """Whether a single-client loop goes on: until ``seconds`` of
        operation time, with a wall-clock guard for failing operations."""
        return (
            phase.busy < seconds
            and time.perf_counter() < phase.started + 3 * seconds + 30
        )


# ---------------------------------------------------------------------------
# build-graph
# ---------------------------------------------------------------------------


class BuildGraph(Workload):
    """Cold build + link of the 10^3-module chain, then one-definition
    edits, each followed by rebuild + link."""

    def __init__(self, inputs, work, smoke):
        super().__init__(work)
        self.setup_repeats = 1 if smoke else 3
        self.src = os.path.join(work, "src")
        self.texts = dict(inputs["chain"])
        write_sources(self.src, self.texts)
        self.edits = inputs["edits"]
        self.next_edit = 0
        self.general = load_program("\n".join(self.texts.values()))

    def setup(self, run):
        root = self.scratch()
        options = BuildOptions(cache_dir=root)
        result = build_dir(self.src, options, obs=run.obs)
        result.link()
        return {
            "root": root,
            "options": options,
            "output_bytes": sum(len(m.source.encode("utf-8")) for m in result.genexts),
        }

    def measure(self, state, seconds, run):
        phase = Phase()
        with run.span("bench:loop"):
            while self.running(phase, seconds):
                run.speed.tick()
                module, def_name, value = self.edits[self.next_edit % len(self.edits)]
                self.next_edit += 1
                text = workloads.edit_literal(self.texts[module], def_name, value)
                self.texts[module] = text
                with open(os.path.join(self.src, module + ".mod"), "w") as f:
                    f.write(text)
                try:
                    with run.span("bench:op"):
                        t0 = time.perf_counter()
                        gp = build_dir(self.src, state["options"], obs=run.obs).link()
                        elapsed = time.perf_counter() - t0
                    phase.busy += elapsed
                    with run.span("bench:check"):
                        self.check(gp, module, def_name, text)
                except Exception as exc:
                    phase.fail("edit %s: %s: %s" % (def_name, type(exc).__name__, exc))
                    continue
                phase.ok("edit-rebuild-link", t0, elapsed)
        phase.ended = time.perf_counter()
        return phase

    def check(self, gp, module, def_name, text):
        """The edited definition and its importer's first definition,
        specialised to ``n = 3``, against the general program."""
        self.general = relink_with(self.general, parse_program(text).modules)
        goals = [def_name]
        above = int(module[1:]) + 1
        if above < len(self.texts):
            goals.append("m%d_f0" % above)
        for goal in goals:
            residual = engine.specialise(gp, goal, {"n": 3})
            for x in (1, 7):
                want = run_program(self.general, goal, [3, x])
                got = residual.run(x)
                if got != want:
                    raise AssertionError(
                        "%s 3 %d: residual gives %r, expected %r" % (goal, x, got, want)
                    )


# ---------------------------------------------------------------------------
# spec-cold
# ---------------------------------------------------------------------------


class SpecCold(Workload):
    """Fresh in-process specialisations, no residual cache."""

    def __init__(self, inputs, work, smoke):
        super().__init__(work)
        self.setup_repeats = 1 if smoke else 5
        self.src = os.path.join(work, "src")
        write_sources(self.src, inputs["sources"])
        self.general = load_program("\n".join(inputs["sources"].values()))
        self.requests = inputs["requests"]
        self.cycle = inputs["cycle"]
        self.next = 0
        self.sizes = {}  # request index -> residual bytes, first cycle

    def setup(self, run):
        root = self.scratch()
        gp = build_dir(self.src, BuildOptions(cache_dir=root), obs=run.obs).link()
        return {"root": root, "gp": gp}

    def output_bytes(self, state):
        return sum(self.sizes.values())

    def measure(self, state, seconds, run):
        phase = Phase()
        with run.span("bench:loop"):
            while self.running(phase, seconds):
                run.speed.tick()
                index = self.next
                self.next += 1
                goal, static_args, dyns = self.requests[index % len(self.requests)]
                try:
                    with run.span("bench:op"):
                        t0 = time.perf_counter()
                        result = engine.specialise(state["gp"], goal, static_args, obs=run.obs)
                        elapsed = time.perf_counter() - t0
                    phase.busy += elapsed
                    with run.span("bench:check"):
                        self.check(result, index, goal, static_args, dyns)
                except Exception as exc:
                    phase.fail("request %d: %s: %s" % (index, type(exc).__name__, exc))
                    continue
                phase.ok(goal, t0, elapsed)
        phase.ended = time.perf_counter()
        return phase

    def check(self, result, index, goal, static_args, dyns):
        for d in dyns:
            want = run_program(
                self.general, goal, full_args(self.general, goal, static_args, d)
            )
            got = result.run(*d)
            if got != want:
                raise AssertionError(
                    "%s on %r: residual gives %r, expected %r" % (goal, d, got, want)
                )
        if index < self.cycle:
            self.sizes[index] = len(pretty_program(result.program).encode("utf-8"))


# ---------------------------------------------------------------------------
# exec-hot
# ---------------------------------------------------------------------------


class ExecHot(Workload):
    """Zipf-drawn calls through an in-process ``TierLadder`` whose hot
    set was promoted to tier 2 during set-up."""

    traced_max_ops = 20_000  # bounds the trace's size

    def __init__(self, inputs, work, smoke):
        super().__init__(work)
        self.setup_repeats = 1 if smoke else 3
        self.src = os.path.join(work, "src")
        write_sources(self.src, inputs["sources"])
        general = load_program("\n".join(inputs["sources"].values()))
        self.hot = inputs["hot"]
        self.calls = inputs["calls"]
        self.next = 0
        # The reference table: every (key, dynamic input) pair's value
        # from the general program, computed before anything is timed.
        self.expected = [
            [
                run_program(general, goal, full_args(general, goal, static_args, d))
                for d in dyns
            ]
            for goal, static_args, dyns in self.hot
        ]

    def setup(self, run):
        # A cold process: no promoted callables, no decoded payloads.
        tiers.clear_tiers()
        clear_decode_memo()
        root = self.scratch()
        gp = build_dir(
            self.src, BuildOptions(cache_dir=os.path.join(root, "build")), obs=run.obs
        ).link()
        ladder = tiers.TierLadder(
            gp,
            SpecOptions(
                cache_dir=os.path.join(root, "spec"),
                tier_policy=tiers.TierPolicy(hot_after=2),
            ),
            obs=run.obs,
        )
        for goal, static_args, dyns in self.hot:
            ladder.call(goal, static_args, dyns[0])
            if ladder.call(goal, static_args, dyns[0]).tier != 2:
                raise RuntimeError("%s was not promoted to tier 2" % goal)
        return {"root": root, "ladder": ladder}

    def output_bytes(self, state):
        ladder = state["ladder"]
        return sum(
            len(ladder.store.get_text(ladder.key_for(g, s), RESID_PY_KIND).encode("utf-8"))
            for g, s, _ in self.hot
        )

    def measure(self, state, seconds, run):
        phase = Phase()
        ladder = state["ladder"]
        hot, expected, calls = self.hot, self.expected, self.calls
        limit = self.traced_max_ops if run.tracer is not None else None
        with run.span("bench:loop"):
            while self.running(phase, seconds) and (
                limit is None or phase.ops < limit
            ):
                run.speed.tick()
                k, d = calls[self.next % len(calls)]
                self.next += 1
                goal, static_args, dyns = hot[k]
                try:
                    with run.span("bench:op"):
                        t0 = time.perf_counter()
                        value = ladder.call(goal, static_args, dyns[d]).value
                        elapsed = time.perf_counter() - t0
                    phase.busy += elapsed
                    if value != expected[k][d]:
                        raise AssertionError(
                            "%s key %d on %r: got %r, expected %r"
                            % (goal, k, dyns[d], value, expected[k][d])
                        )
                except Exception as exc:
                    phase.fail("call %d: %s: %s" % (self.next, type(exc).__name__, exc))
                    continue
                phase.ok("ladder-call", t0, elapsed)
        phase.ended = time.perf_counter()
        return phase


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------


def _children(pid):
    kids = []
    try:
        for tid in os.listdir("/proc/%d/task" % pid):
            with open("/proc/%d/task/%s/children" % (pid, tid)) as f:
                kids.extend(int(p) for p in f.read().split())
    except OSError:
        pass
    return kids


def _vm_hwm_kb(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Daemon:
    """One daemon subprocess with ``--jobs 1``: ``mspec serve``
    untraced, or the suite's ``traced_serve.py`` launcher, which records
    layer spans and writes them to ``trace_out`` at shutdown."""

    def __init__(self, src, root, trace_out=None):
        self.trace_out = trace_out
        # A relative socket path keeps the checkout's location out of
        # the unix-socket path length limit.
        self.socket = os.path.relpath(os.path.join(root, "d.sock"))
        if trace_out is None:
            argv = [sys.executable, "-m", "repro.cli", "serve", src]
        else:
            argv = [
                sys.executable, os.path.join(HERE, "traced_serve.py"), src,
                "--trace-out", trace_out,
            ]
        argv += ["--socket", self.socket, "--jobs", "1", "--cache-dir", root]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.log_path = os.path.join(root, "daemon.log")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                argv, env=env, stdout=log, stderr=subprocess.STDOUT
            )

    def connect(self, wait=False):
        if wait:
            return ServeClient.wait_ready(
                self.socket, timeout=60.0, request_timeout=60.0
            )
        return ServeClient.connect(self.socket, request_timeout=60.0)

    def peak_rss_mb(self):
        """VmHWM of the daemon plus its pool workers."""
        pids = [self.proc.pid] + _children(self.proc.pid)
        return sum(_vm_hwm_kb(p) for p in pids) / 1024.0

    def stop(self):
        """Graceful shutdown; a daemon that does not exit in time is
        killed together with its workers."""
        try:
            with self.connect() as client:
                client.shutdown()
            self.proc.wait(timeout=60)
        except Exception:
            for pid in _children(self.proc.pid):
                try:
                    os.kill(pid, 9)
                except OSError:
                    pass
            self.proc.kill()
            self.proc.wait(timeout=60)
            raise
        if self.proc.returncode != 0:
            with open(self.log_path) as f:
                raise RuntimeError(
                    "daemon exited %d: %s" % (self.proc.returncode, f.read()[-2000:])
                )


class ServeMix(Workload):
    """Two closed-loop clients against a real daemon subprocess: warm
    hits, cold misses and ``run`` ops over one cache."""

    def __init__(self, inputs, work, smoke):
        super().__init__(work)
        self.setup_repeats = 1 if smoke else 3
        self.src = os.path.join(work, "src")
        self.sources = inputs["sources"]
        write_sources(self.src, self.sources)
        self.hot = inputs["hot"]
        self.misses = inputs["misses"]
        self.schedules = inputs["schedules"]
        self.cursor = [0, 0]

    def setup(self, run):
        root = self.scratch()
        trace_out = None
        if run.tracer is not None:
            trace_out = os.path.join(self.work, os.path.basename(root) + ".trace.json")
        daemon = Daemon(self.src, root, trace_out)
        try:
            sizes = 0
            with daemon.connect(wait=True) as client:
                for goal, static_args, _ in self.hot:
                    response = client.specialise(goal, static_args)
                    if not response.get("ok"):
                        raise RuntimeError("warm-up failed: %r" % response.get("error"))
                    sizes += len(response["result"]["program"].encode("utf-8"))
                for goal, static_args, dyns in self.hot:
                    for _ in range(3):  # the default policy promotes on the 3rd
                        response = client.run(goal, static_args, dyns[0])
                        if not response.get("ok"):
                            raise RuntimeError("warm-up failed: %r" % response.get("error"))
        except BaseException:
            daemon.stop()
            raise
        return {"root": root, "daemon": daemon, "output_bytes": sizes}

    def request(self, client, kind, key, d):
        """Send one scheduled request; returns the response."""
        if kind == workloads.SERVE_RUN:
            goal, static_args, dyns = self.hot[key]
            return client.run(goal, static_args, dyns[d])
        if kind == workloads.SERVE_HIT:
            goal, static_args, _ = self.hot[key]
        else:
            goal, static_args = "client", self.misses[key]
        return client.specialise(goal, static_args)

    def measure(self, state, seconds, run):
        daemon = state["daemon"]
        records = []
        crashed = []
        deadline = time.perf_counter() + seconds

        def client_loop(thread):
            schedule = self.schedules[thread]
            try:
                with run.span("bench:loop"), daemon.connect() as client:
                    while time.perf_counter() < deadline:
                        # Sampled while the daemon serves the other
                        # client: it works on one CPU, this on the other.
                        run.speed.tick()
                        kind, key, d = schedule[self.cursor[thread] % len(schedule)]
                        self.cursor[thread] += 1
                        try:
                            with run.span("bench:op"):
                                t0 = time.perf_counter()
                                response = self.request(client, kind, key, d)
                                elapsed = time.perf_counter() - t0
                        except Exception as exc:
                            records.append((kind, key, d, t0, None, "%s: %s" % (type(exc).__name__, exc)))
                            continue
                        if not response.get("ok"):
                            answer = "error response %r" % response.get("error")
                            elapsed = None
                        elif kind == workloads.SERVE_RUN:
                            answer = protocol.value_from_json(response["value"])
                        else:
                            answer = sha(response["result"]["program"])
                        records.append((kind, key, d, t0, elapsed, answer))
            except Exception as exc:
                crashed.append("client %d: %s: %s" % (thread, type(exc).__name__, exc))

        phase = Phase()
        threads = [threading.Thread(target=client_loop, args=(t,)) for t in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        phase.ended = time.perf_counter()
        phase.busy = phase.ended - phase.started
        for message in crashed:
            phase.fail(message)
        with run.span("bench:check"):
            self.check(records, phase)
        return phase

    def check(self, records, phase):
        """Byte-compare every specialise answer with an in-process
        specialisation of the same request, and every ``run`` value
        with the general program's."""
        root = self.scratch()
        gp = build_dir(self.src, BuildOptions(cache_dir=root)).link()
        shutil.rmtree(root, ignore_errors=True)
        general = load_program("\n".join(self.sources.values()))
        expected = {}
        for kind, key, d, start, elapsed, answer in records:
            if elapsed is None:
                phase.fail("%s %s: %s" % (kind, key, answer))
                continue
            ident = (kind, key, d)
            if ident not in expected:
                if kind == workloads.SERVE_RUN:
                    goal, static_args, dyns = self.hot[key]
                    expected[ident] = run_program(
                        general, goal, full_args(general, goal, static_args, dyns[d])
                    )
                else:
                    if kind == workloads.SERVE_HIT:
                        goal, static_args, _ = self.hot[key]
                    else:
                        goal, static_args = "client", self.misses[key]
                    result = engine.specialise(gp, goal, static_args)
                    expected[ident] = sha(pretty_program(result.program))
            if answer != expected[ident]:
                phase.fail("%s %s: answer differs from the reference" % (kind, key))
                continue
            phase.ok(kind, start, elapsed, gated=kind == workloads.SERVE_HIT)

    def peak_rss_mb(self, state):
        return state["daemon"].peak_rss_mb()

    def remote(self, state):
        with state["daemon"].connect() as client:
            return {
                "snapshot": client.metrics()["metrics"],
                "health": client.health(),
            }

    def close(self, state):
        daemon = state["daemon"]
        try:
            daemon.stop()
            if daemon.trace_out is None:
                return []
            with open(daemon.trace_out) as f:
                return json.load(f)["traceEvents"]
        finally:
            shutil.rmtree(state["root"], ignore_errors=True)


WORKLOADS = {
    "build-graph": BuildGraph,
    "spec-cold": SpecCold,
    "serve-mix": ServeMix,
    "exec-hot": ExecHot,
}


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def end_to_end(setups, phase, speed, peak_rss_mb, output_bytes):
    """The end-to-end metrics, times at the reference speed; ``setups``
    are the set-ups' durations."""
    gated = speed.rescale(phase.gated_starts, phase.gated_seconds)
    busy = phase.busy * speed.factor(phase.started, phase.ended)
    values = {
        "setup_s": statistics.median(setups) * speed.factor(),
        "peak_rss_mb": peak_rss_mb,
        "op_p50_ms": percentile(gated, 50) * 1e3,
        "op_p90_ms": percentile(gated, 90) * 1e3,
        "ops_per_s": ratio(phase.ops, busy),
        "output_bytes": output_bytes,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(run, remote_events, remote, base, base_speed, traced):
    """The per-layer metrics of a traced pass, plus the detail that goes
    to ``layers.json``.  ``base`` is the untraced pass, measured at
    ``base_speed``.  Shares and span counts cover the traced measuring
    pass, the time the gated operations explain; the traced set-up's
    breakdown goes to ``layers.json``.  Counts from the metrics
    snapshots cover the traced set-up and pass together."""
    snapshots = [run.obs.metrics.snapshot()]
    queue_wait_us = 0.0
    if remote is not None:
        snapshots.append(remote["snapshot"])
        wait = remote["snapshot"]["timers"].get("serve.queue_wait")
        queue_wait_us = wait["seconds"] * 1e6 if wait else 0.0
    counters = {}
    for snapshot in snapshots:
        for name, value in snapshot["counters"].items():
            counters[name] = counters.get(name, 0) + value
    c = lambda name: counters.get(name, 0)  # noqa: E731

    scopes = {}
    # Set-up is one client at a time: every queue wait is in the pass.
    for scope, root, wait_us in (
        ("loop", "bench:loop", queue_wait_us), ("setup", "bench:setup", 0.0)
    ):
        by_layer, spans, traced_us = layers.attribute(
            run.tracer.events, root, remote_events, wait_us
        )
        scopes[scope] = {
            "traced_us": traced_us,
            "attributed_us": sum(rec["self_us"] for rec in by_layer.values()),
            "layers": by_layer,
            "spans": spans,
            "unclassified": sorted(n for n in spans if layers.layer_of(n) is None),
        }
    by_layer = scopes["loop"]["layers"]
    spans = scopes["loop"]["spans"]
    total = scopes["loop"]["attributed_us"]

    def calls(name):
        return spans.get(name, {"calls": 0})["calls"]

    values = {
        "%s_pct" % layer: 100.0 * ratio(by_layer.get(layer, {"self_us": 0.0})["self_us"], total)
        for layer in layers.PCT_LAYERS
    }
    values.update((name, c(counter)) for name, counter in COUNTS)
    base_p50 = percentile(base_speed.rescale(base.gated_starts, base.gated_seconds), 50)
    traced_p50 = percentile(run.speed.rescale(traced.gated_starts, traced.gated_seconds), 50)
    values.update({
        "lang.parse_calls": calls("lang.parse"),
        "bt.analyse_calls": calls("bt.analyse"),
        "genext.code_compiles": calls("genext.compile"),
        "genext.code_loads": calls("genext.load") - calls("genext.compile"),
        "pool.recycles": remote["health"]["pool_recycles"] if remote else 0,
        "trace.spans": sum(rec["calls"] for rec in spans.values()),
        "spec.memo_hit_ratio": ratio(
            c("spec.memo_hits"), c("spec.memo_hits") + c("spec.specialisations")
        ),
        "speccache.hit_ratio": ratio(
            c("speccache.hits"), c("speccache.hits") + c("speccache.misses")
        ),
        "speccache.decode_memo_hit_ratio": ratio(
            c("speccache.decode_hits"),
            c("speccache.decode_hits") + c("speccache.decode_misses"),
        ),
        "tier.t2_share": ratio(
            c("tier.t2_runs"), c("tier.t0_runs") + c("tier.t1_runs") + c("tier.t2_runs")
        ),
        "trace.overhead_pct": 100.0 * (ratio(traced_p50, base_p50) - 1.0),
    })
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()
    }
    detail = {
        "op_p50_ms": {"untraced": base_p50 * 1e3, "traced": traced_p50 * 1e3},
        "counters": counters,
        **scopes,
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def print_summary(name, seed, inputs, smoke, setup_times, phases):
    """The human-readable lines above the result: what ran, and every
    operation kind's latencies as measured (not rescaled)."""
    print("workload %s  seed %d%s" % (name, seed, "  (smoke)" if smoke else ""))
    print("cpus %d  python %s  commit %s" % (cpus(), platform.python_version(), commit_id()))
    print("inputs sha256 %s" % inputs["digest"])
    if setup_times:
        print("setup runs (s): %s" % ", ".join("%.3f" % t for t in setup_times))
    for label, phase, speed in phases:
        print("%-8s speed factor %.4f" % (label, speed.factor(phase.started, phase.ended)))
        for kind, xs in sorted(phase.kinds.items()):
            # p99 only where at least ten samples lie beyond it.
            p99 = "%.3f ms" % (percentile(xs, 99) * 1e3) if len(xs) >= 1000 else "n/a"
            print(
                "%-8s %-17s n=%-6d p50 %.3f ms  p90 %.3f ms  p99 %s"
                % (label, kind, len(xs), percentile(xs, 50) * 1e3,
                   percentile(xs, 90) * 1e3, p99)
            )
        for message in phase.errors:
            print("%-8s FAILED %s" % (label, message))


def measure_untraced(wl, seconds):
    """``setup_repeats`` set-ups (the last one kept), then one pass."""
    run = Run()
    setups = []
    state = None
    for _ in range(wl.setup_repeats):
        if state is not None:
            wl.close(state)
        run.speed.sample()
        t0 = time.perf_counter()
        state = wl.setup(run)
        setups.append(time.perf_counter() - t0)
    try:
        run.speed.sample()
        phase = wl.measure(state, seconds, run)
        # Read before computing metrics, whose lists would count.
        peak_rss_mb = wl.peak_rss_mb(state)
        run.speed.sample()
        metrics = end_to_end(
            setups, phase, run.speed, peak_rss_mb, wl.output_bytes(state)
        )
    finally:
        wl.close(state)
    return metrics, setups, [("untraced", phase, run.speed)]


def measure_traced(wl, seconds, name, seed, out_dir):
    """An untraced half for the baseline, then a traced set-up and half."""
    untraced = Run()
    state = wl.setup(untraced)
    try:
        untraced.speed.sample()
        base = wl.measure(state, seconds / 2.0, untraced)
        untraced.speed.sample()
    finally:
        wl.close(state)
    run = Run(Tracer())
    run.speed.sample()
    with layers.installed(run.tracer):
        with run.span("bench:setup"):
            state = wl.setup(run)
        remote_events = []
        try:
            run.speed.sample()
            phase = wl.measure(state, seconds / 2.0, run)
            run.speed.sample()
            remote = wl.remote(state)
        finally:
            remote_events = wl.close(state)
    metrics, detail = per_layer(
        run, remote_events, remote, base, untraced.speed, phase
    )
    os.makedirs(out_dir, exist_ok=True)
    run.tracer.add_events(remote_events)
    run.tracer.export(os.path.join(out_dir, "trace.json"))
    with open(os.path.join(out_dir, "layers.json"), "w") as f:
        json.dump(
            {"workload": name, "seed": seed, "metrics": metrics, **detail},
            f, indent=1, sort_keys=True,
        )
    phases = [
        ("untraced", base, untraced.speed),
        ("traced", phase, run.speed),
    ]
    return metrics, phases


def run_workload(name, seed, seconds, trace=False, trace_dir=None, smoke=False):
    """Run one workload; returns the result document."""
    inputs = workloads.INPUTS[name](seed, smoke)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=name + "-", dir=WORK_ROOT)
    try:
        wl = WORKLOADS[name](inputs, work, smoke)
        if trace:
            out_dir = os.path.join(trace_dir or os.path.join(WORK_ROOT, "trace"), name)
            metrics, phases = measure_traced(wl, seconds, name, seed, out_dir)
            print_summary(name, seed, inputs, smoke, [], phases)
            print("trace written to %s" % out_dir)
        else:
            metrics, setup_times, phases = measure_untraced(wl, seconds)
            print_summary(name, seed, inputs, smoke, setup_times, phases)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(p.failed for _, p, _ in phases)
    return {
        "correct": failed == 0,
        "attempted": sum(p.attempted for _, p, _ in phases),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small inputs and one set-up, for the self-test",
    )
    args = parser.parse_args(argv)
    # A terminated run unwinds like an exception, so the daemon and the
    # scratch directory are released by the same finally blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.trace_dir, args.smoke,
    )
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
