"""Schema validation for the observability JSON artifacts.

Zero-dependency structural validators (no jsonschema in the image) for
the documents the toolchain emits:

* Chrome trace files (``mspec build --trace``) — checked against the
  trace-event subset we generate (``X`` complete spans / ``i`` instants
  with microsecond ``ts``, ``pid``/``tid`` lanes, ``args`` dicts);
* metrics snapshots (``mspec build --metrics``,
  :meth:`repro.obs.metrics.MetricsRegistry.snapshot`);
* ``mspec ... --json`` reports (``mspec.report/v1``);
* ``mspec soak`` reports (``repro.bench.soak/v1``), among them the
  committed ``benchmarks/BENCH_soak.json``.

Each ``validate_*`` returns a list of problem strings (empty = valid).
``python -m repro.obs.schema FILE...`` validates files (kind inferred
from content) and exits non-zero on the first invalid one — CI runs it
on the artifacts of a traced smoke build.
"""

import json
import sys

from repro.obs.metrics import METRICS_SCHEMA

__all__ = [
    "BENCH_SOAK_SCHEMA",
    "REPORT_SCHEMA",
    "WELL_KNOWN_COUNTERS",
    "validate_bench_soak",
    "validate_metrics",
    "validate_report",
    "validate_trace",
    "validate_file",
]

REPORT_SCHEMA = "mspec.report/v1"

BENCH_SOAK_SCHEMA = "repro.bench.soak/v1"

_REPORT_COMMANDS = ("build", "specialise", "fsck", "check")

_NUMBER = (int, float)

# Counters with a pinned meaning across the toolchain: event *counts*,
# so a snapshot carrying one must report a non-negative integer.
# (Arbitrary counter names remain legal — user code may count anything —
# but these names are part of the documented performance surface; see
# docs/performance.md.)
WELL_KNOWN_COUNTERS = frozenset(
    [
        "speccache.hits",
        "speccache.misses",
        "speccache.reads",
        "speccache.writes",
        # Warm-hit payload decoding (repro.speccache.decode_result):
        # memo hits skip the parse/re-link of the residual text.
        "speccache.decode_hits",
        "speccache.decode_misses",
        # The execution ladder (repro.backend.tiers, docs/performance.md
        # "Execution tiers"): runs per tier, memoised-callable probes,
        # promotions, and how tier-2 callables were obtained (loaded
        # marshalled code / recompiled resid.py / emitted from the AST).
        "tier.t0_runs",
        "tier.t1_runs",
        "tier.t2_runs",
        "tier.memo_hits",
        "tier.promotions",
        "tier.code_loads",
        "tier.source_compiles",
        "tier.emitted",
        "batch.requests",
        "batch.deduped",
        "batch.failed",
        "cache.hits",
        "cache.misses",
        # Definition-level early cutoff (docs/pipeline.md): defs whose
        # scheme was re-derived, re-derived defs whose scheme digest
        # came out unchanged (the early-cutoff points), and cache-hit
        # modules whose deps' interfaces changed (saved specifically by
        # def-level keying).
        "incr.defs_re_derived",
        "incr.defs_cut_off",
        "incr.modules_skipped",
        # BuildResult.link (docs/pipeline.md): modules whose memoised
        # namespace was reused as it was, and modules the link executed
        # (new or changed genext source).
        "link.modules_reused",
        "link.modules_executed",
        # Execution-ladder artifacts whose marshalled code object could
        # not be decoded or exec'd (version skew, corruption): the run
        # falls back a tier, but the miss is counted, not silent.
        "tier.code_decode_miss",
        "faults.retries",
        "faults.timeouts",
        "faults.crashes",
        "faults.degradations",
        "bus.subscriber_errors",
        "check.programs",
        "check.divergences",
        "check.lint_findings",
        "check.iface_findings",
        "check.bundles",
        "check.minimise_deletions",
        # The serve daemon's request accounting (docs/serving.md):
        # every specialise request increments serve.requests and exactly
        # one of warm/cold (answered) or rejections/failures/
        # deadline_kills (refused/failed); coalesced marks followers of
        # an identical in-flight request; relinks counts source-change
        # re-links of the served program.
        "serve.requests",
        "serve.warm",
        "serve.cold",
        "serve.rejections",
        "serve.deadline_kills",
        "serve.failures",
        "serve.relinks",
        "serve.coalesced",
        # Tiered execution requests (the `run` op): answered by the
        # daemon's TierLadder, one per request.
        "serve.runs",
        # Chaos/resilience accounting (docs/robustness.md): recycles
        # counts graceful worker-generation retirements, faults_injected
        # the serve-phase faults actually performed.
        "serve.recycles",
        "serve.faults_injected",
        # The soak harness (`mspec soak`, repro.soak): requests it sent,
        # how they ended, retries the resilient client performed, and
        # the differential checks/divergences observed.
        "soak.requests",
        "soak.ok",
        "soak.client_errors",
        "soak.retries",
        "soak.rejected",
        "soak.batch_requests",
        "soak.checks",
        "soak.divergences",
    ]
)


def _problems_prefix(problems, prefix):
    return ["%s: %s" % (prefix, p) for p in problems]


def validate_trace(doc):
    """Problems with a Chrome trace-event document (empty list = ok)."""
    problems = []
    if not isinstance(doc, dict):
        return ["trace document must be a JSON object, got %s" % type(doc).__name__]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, e in enumerate(events):
        where = "traceEvents[%d]" % i
        if not isinstance(e, dict):
            problems.append("%s: not an object" % where)
            continue
        if not isinstance(e.get("name"), str) or not e.get("name"):
            problems.append("%s: missing/empty name" % where)
        ph = e.get("ph")
        if ph not in ("X", "i", "M"):
            problems.append("%s: unsupported ph %r" % (where, ph))
            continue
        if ph == "M":
            continue
        if not isinstance(e.get("ts"), _NUMBER) or e.get("ts", -1) < 0:
            problems.append("%s: ts must be a non-negative number" % where)
        if ph == "X" and (
            not isinstance(e.get("dur"), _NUMBER) or e.get("dur", -1) < 0
        ):
            problems.append("%s: X event needs a non-negative dur" % where)
        for lane in ("pid", "tid"):
            if not isinstance(e.get(lane), int):
                problems.append("%s: %s must be an integer" % (where, lane))
        if "cat" in e and not isinstance(e["cat"], str):
            problems.append("%s: cat must be a string" % where)
        if "args" in e and not isinstance(e["args"], dict):
            problems.append("%s: args must be an object" % where)
    return problems


def validate_metrics(doc):
    """Problems with a metrics snapshot (empty list = ok)."""
    if not isinstance(doc, dict):
        return ["metrics document must be a JSON object"]
    problems = []
    if doc.get("schema") != METRICS_SCHEMA:
        problems.append(
            "schema must be %r, got %r" % (METRICS_SCHEMA, doc.get("schema"))
        )
    for section in ("counters", "gauges"):
        table = doc.get(section)
        if not isinstance(table, dict):
            problems.append("%s must be an object" % section)
            continue
        for name, value in table.items():
            if not isinstance(name, str):
                problems.append("%s key %r is not a string" % (section, name))
            if not isinstance(value, _NUMBER) or isinstance(value, bool):
                problems.append("%s[%r] must be a number" % (section, name))
            elif section == "counters" and name in WELL_KNOWN_COUNTERS:
                if not isinstance(value, int) or value < 0:
                    problems.append(
                        "counters[%r] is a well-known event count and "
                        "must be a non-negative integer, got %r"
                        % (name, value)
                    )
    timers = doc.get("timers")
    if not isinstance(timers, dict):
        problems.append("timers must be an object")
    else:
        for name, rec in timers.items():
            if not isinstance(rec, dict):
                problems.append("timers[%r] must be an object" % name)
                continue
            if not isinstance(rec.get("count"), int):
                problems.append("timers[%r].count must be an integer" % name)
            if not isinstance(rec.get("seconds"), _NUMBER):
                problems.append("timers[%r].seconds must be a number" % name)
    return problems


def validate_report(doc):
    """Problems with an ``mspec --json`` report (empty list = ok)."""
    if not isinstance(doc, dict):
        return ["report document must be a JSON object"]
    problems = []
    if doc.get("schema") != REPORT_SCHEMA:
        problems.append(
            "schema must be %r, got %r" % (REPORT_SCHEMA, doc.get("schema"))
        )
    if doc.get("command") not in _REPORT_COMMANDS:
        problems.append(
            "command must be one of %s, got %r"
            % ("/".join(_REPORT_COMMANDS), doc.get("command"))
        )
    if not isinstance(doc.get("exit_code"), int):
        problems.append("exit_code must be an integer")
    if not isinstance(doc.get("ok"), bool):
        problems.append("ok must be a boolean")
    if not isinstance(doc.get("report"), dict):
        problems.append("report must be an object")
    if "metrics" in doc:
        problems.extend(_problems_prefix(validate_metrics(doc["metrics"]), "metrics"))
    return problems


def validate_bench_soak(doc):
    """Problems with a ``BENCH_soak.json`` document (empty list = ok).

    The document is what ``mspec soak`` (:mod:`repro.soak`) emits: the
    workload shape, request/outcome tallies, the differential-check
    verdict, and the error-budget verdict."""
    if not isinstance(doc, dict):
        return ["bench document must be a JSON object"]
    problems = []
    if doc.get("schema") != BENCH_SOAK_SCHEMA:
        problems.append(
            "schema must be %r, got %r"
            % (BENCH_SOAK_SCHEMA, doc.get("schema"))
        )
    if not isinstance(doc.get("cpus"), int) or doc.get("cpus", 0) < 1:
        problems.append("cpus must be a positive integer")
    if not isinstance(doc.get("workload"), dict):
        problems.append("workload must be an object")
    if not isinstance(doc.get("ok"), bool):
        problems.append("ok must be a boolean")
    if (
        not isinstance(doc.get("seconds"), _NUMBER)
        or isinstance(doc.get("seconds"), bool)
        or doc.get("seconds", -1) < 0
    ):
        problems.append("seconds must be a non-negative number")
    for section in ("requests", "checks", "faults"):
        table = doc.get(section)
        if not isinstance(table, dict):
            problems.append("%s must be an object" % section)
            continue
        for name, value in table.items():
            if not isinstance(name, str):
                problems.append("%s key %r is not a string" % (section, name))
            if (
                not isinstance(value, int)
                or isinstance(value, bool)
                or value < 0
            ):
                problems.append(
                    "%s[%r] must be a non-negative integer" % (section, name)
                )
    checks = doc.get("checks")
    if isinstance(checks, dict):
        for key in ("performed", "divergences"):
            if not isinstance(checks.get(key), int):
                problems.append("checks.%s must be an integer" % key)
    budget = doc.get("error_budget")
    if not isinstance(budget, dict):
        problems.append("error_budget must be an object")
    elif not isinstance(budget.get("ok"), bool):
        problems.append("error_budget.ok must be a boolean")
    return problems


def validate_file(path):
    """``(kind, problems)`` for a JSON file; kind inferred from content."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        return "unknown", ["cannot load %s: %s" % (path, exc)]
    if isinstance(doc, dict) and "traceEvents" in doc:
        return "trace", validate_trace(doc)
    if isinstance(doc, dict) and doc.get("schema") == METRICS_SCHEMA:
        return "metrics", validate_metrics(doc)
    if isinstance(doc, dict) and doc.get("schema") == REPORT_SCHEMA:
        return "report", validate_report(doc)
    if isinstance(doc, dict) and doc.get("schema") == BENCH_SOAK_SCHEMA:
        return "bench", validate_bench_soak(doc)
    return "unknown", ["unrecognised document (no known schema marker)"]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python -m repro.obs.schema FILE.json ...", file=sys.stderr)
        return 2
    status = 0
    for path in argv:
        kind, problems = validate_file(path)
        if problems:
            status = 1
            print("%s: INVALID %s" % (path, kind))
            for p in problems:
                print("  - " + p)
        else:
            print("%s: valid %s" % (path, kind))
    return status


if __name__ == "__main__":
    sys.exit(main())
