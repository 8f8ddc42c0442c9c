"""The observability layer: tracer spans, metrics registry, event bus,
profiler, trace determinism across pool widths, and the CLI sinks."""

import json
import os
import time

import pytest

from repro.api import BuildOptions, SpecOptions
from repro.bench.generators import wide_program
from repro.obs import Obs
from repro.obs.bus import EventBus
from repro.obs.metrics import METRICS_SCHEMA, MetricsRegistry
from repro.obs.profile import Profiler
from repro.obs.schema import (
    REPORT_SCHEMA,
    validate_file,
    validate_metrics,
    validate_report,
    validate_trace,
)
from repro.obs.trace import NULL_TRACER, TRACE_SCHEMA, Tracer
from repro.pipeline import Fault, FaultPlan, FaultPolicy, build_dir
from repro.pipeline.build import BuildEngine, _analyse_cogen_worker

POWER = "module Power where\n\npower n x = if n == 1 then x else x * power (n - 1) x\n"
MAIN = "module Main where\nimport Power\n\ncube y = power 3 y\n"


def _write_two_modules(path):
    (path / "Power.mod").write_text(POWER)
    (path / "Main.mod").write_text(MAIN)


# ---------------------------------------------------------------------------
# Tracer.
# ---------------------------------------------------------------------------


def test_spans_nest_and_record_parent():
    tracer = Tracer()
    with tracer.span("outer", cat="build"):
        with tracer.span("inner", cat="build", detail=7):
            pass
    names = tracer.span_names()
    assert names == ["inner", "outer"]
    inner = next(e for e in tracer.events if e["name"] == "inner")
    outer = next(e for e in tracer.events if e["name"] == "outer")
    assert inner["args"]["parent"] == "outer"
    assert inner["args"]["detail"] == 7
    assert "parent" not in outer["args"]
    # The child is contained in the parent's [ts, ts+dur] window.
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1.0


def test_span_note_adds_args():
    tracer = Tracer()
    with tracer.span("pump") as span:
        span.note(drained=3)
    (event,) = [e for e in tracer.events if e["ph"] == "X"]
    assert event["args"]["drained"] == 3


def test_trace_document_is_schema_valid(tmp_path):
    tracer = Tracer()
    with tracer.span("build"):
        tracer.instant("mark", note="hello")
    doc = tracer.to_chrome()
    assert validate_trace(doc) == []
    assert doc["otherData"]["schema"] == TRACE_SCHEMA
    path = str(tmp_path / "t.json")
    tracer.export(path)
    kind, problems = validate_file(path)
    assert (kind, problems) == ("trace", [])


def test_null_tracer_records_nothing():
    with NULL_TRACER.span("anything", cat="x", k=1) as span:
        span.note(ignored=True)
    NULL_TRACER.instant("mark")
    assert list(NULL_TRACER.events) == []
    assert NULL_TRACER.span_names() == []


def test_add_events_merges_worker_batches():
    parent = Tracer()
    worker = Tracer()
    with worker.span("job:M"):
        pass
    parent.add_events(worker.events)
    assert parent.span_names() == ["job:M"]


def test_tracers_of_one_process_share_one_clock():
    a, b = Tracer(), Tracer()
    assert a.epoch == b.epoch
    with a.span("outer"):
        with b.span("inner"):
            pass
    assert _within(b.events[0], a.events[0])


def test_worker_records_on_the_epoch_it_is_handed():
    # A clock anchored 1000 s after the Unix epoch: the worker's spans
    # must read it, not the worker process's own.
    epoch = (1000.0, time.perf_counter())
    payload = ("Power", POWER, (), (), epoch)
    events = _analyse_cogen_worker(payload)[3]
    assert {e["name"] for e in events} == {
        "job:Power", "analyse:Power", "cogen:Power",
    }
    for e in events:
        assert 1000e6 <= e["ts"] < 1060e6


def test_tracer_publishes_span_ends_on_bus():
    bus = EventBus()
    seen = []
    bus.on_span_end(lambda e: seen.append(e["name"]))
    tracer = Tracer(bus=bus)
    with tracer.span("a"):
        pass
    assert seen == ["a"]


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def test_metrics_snapshot_roundtrip():
    reg = MetricsRegistry()
    reg.counter("cache.hits").inc(3)
    reg.gauge("build.jobs").set(4)
    reg.timer("stage.analyse").add(0.25, count=2)
    doc = reg.snapshot()
    assert doc["schema"] == METRICS_SCHEMA
    assert validate_metrics(doc) == []
    clone = MetricsRegistry.from_snapshot(doc)
    assert clone.snapshot() == doc
    # And it survives a real JSON round trip byte-for-byte.
    assert MetricsRegistry.from_snapshot(
        json.loads(json.dumps(doc))
    ).snapshot() == doc


def test_metrics_merge_sums_counters_and_maxes_gauges():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("c").inc(2)
    b.counter("c").inc(5)
    a.gauge("g").set(9)
    b.gauge("g").set(4)
    b.timer("t").add(1.0)
    a.merge(b)
    snap = a.snapshot()
    assert snap["counters"]["c"] == 7
    assert snap["gauges"]["g"] == 9
    assert snap["timers"]["t"]["count"] == 1


def test_metrics_export(tmp_path):
    reg = MetricsRegistry()
    reg.counter("x").inc()
    path = str(tmp_path / "m.json")
    reg.export(path)
    kind, problems = validate_file(path)
    assert (kind, problems) == ("metrics", [])


def test_registry_publishes_on_bus():
    bus = EventBus()
    seen = []
    bus.on_metric(lambda name, kind, value: seen.append((name, kind, value)))
    reg = MetricsRegistry(bus=bus)
    reg.counter("n").inc(2)
    assert ("n", "counter", 2) in seen


# ---------------------------------------------------------------------------
# The build pipeline under observation.
# ---------------------------------------------------------------------------


def test_build_populates_metrics_and_spans(tmp_path):
    _write_two_modules(tmp_path)
    obs = Obs.enabled()
    engine = BuildEngine(
        str(tmp_path), BuildOptions(cache_dir=str(tmp_path / "cache")), obs=obs
    )
    result = engine.build()
    snap = result.stats.metrics.snapshot()
    assert snap["counters"]["cache.misses"] == 2
    assert snap["counters"]["modules.analysed"] == 2
    assert snap["gauges"]["build.modules"] == 2
    assert snap["gauges"]["build.waves"] == 2
    names = obs.tracer.span_names()
    assert "build" in names
    assert "wave[0]" in names and "wave[1]" in names
    assert "analyse:Power" in names and "cogen:Main" in names
    for stage in ("scan", "schedule", "cache", "analyse", "publish", "link"):
        assert "stage.%s" % stage in snap["timers"] or stage in (
            "link",
        ), "stage timer missing: %s" % stage
    assert validate_trace(obs.tracer.to_chrome()) == []


def test_cache_counts_its_own_io(tmp_path):
    _write_two_modules(tmp_path)
    result = build_dir(
        str(tmp_path), BuildOptions(cache_dir=str(tmp_path / "cache"))
    )
    snap = result.stats.metrics.snapshot()
    assert snap["counters"]["cache.writes"] >= 4, "iface+genext per module"
    assert snap["counters"]["cache.write_bytes"] > 0
    warm = build_dir(
        str(tmp_path), BuildOptions(cache_dir=str(tmp_path / "cache"))
    )
    snap = warm.stats.metrics.snapshot()
    assert snap["counters"]["cache.reads"] >= 4
    assert snap["counters"]["cache.read_bytes"] > 0


def test_cache_events_reach_the_bus(tmp_path):
    _write_two_modules(tmp_path)
    cache_dir = str(tmp_path / "cache")
    build_dir(str(tmp_path), BuildOptions(cache_dir=cache_dir))
    obs = Obs()
    seen = []
    obs.bus.subscribe(
        "cache.hit", lambda kind, payload: seen.append(payload["module"])
    )
    BuildEngine(str(tmp_path), BuildOptions(cache_dir=cache_dir), obs=obs).build()
    assert sorted(seen) == ["Main", "Power"]


@pytest.mark.parametrize("layers,width", [(3, 3)])
def test_trace_skeleton_deterministic_across_pool_widths(
    tmp_path, layers, width
):
    src = tmp_path / "src"
    src.mkdir()
    for name, text in wide_program(layers, width, defs_per_module=2, seed=3).items():
        (src / (name + ".mod")).write_text(text)
    skeletons = {}
    for jobs in (1, 4):
        obs = Obs.enabled()
        engine = BuildEngine(
            str(src),
            BuildOptions(cache_dir=str(tmp_path / ("cache%d" % jobs)), jobs=jobs),
            obs=obs,
        )
        engine.build()
        skeletons[jobs] = obs.tracer.span_names()
    assert skeletons[1] == skeletons[4], (
        "span multiset must not depend on pool width"
    )


def _within(inner, outer):
    return (
        outer["ts"] <= inner["ts"]
        and inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_spans_nest_inside_their_job_and_stage(tmp_path, jobs):
    """Worker spans and the build's own are on one clock, so they nest
    exactly: each ``analyse:M`` and ``cogen:M`` lies within its
    ``job:M``, and each ``job:M`` within a ``stage:analyse``."""
    src = tmp_path / "src"
    src.mkdir()
    for name, text in wide_program(3, 3, defs_per_module=2, seed=3).items():
        (src / (name + ".mod")).write_text(text)
    obs = Obs.enabled()
    BuildEngine(
        str(src),
        BuildOptions(cache_dir=str(tmp_path / "cache"), jobs=jobs),
        obs=obs,
    ).build()
    spans = [e for e in obs.tracer.events if e.get("ph") == "X"]
    by_name = {e["name"]: e for e in spans}
    stages = [e for e in spans if e["name"] == "stage:analyse"]
    jobs_ = [e for e in spans if e["name"].startswith("job:")]
    assert len(jobs_) == 9 and stages
    for job in jobs_:
        module = job["name"][len("job:"):]
        for kind in ("analyse", "cogen"):
            assert _within(by_name["%s:%s" % (kind, module)], job), (kind, module)
        assert any(_within(job, stage) for stage in stages), module


def test_disabled_observation_is_the_default(tmp_path):
    _write_two_modules(tmp_path)
    result = build_dir(str(tmp_path), BuildOptions(cache_dir=str(tmp_path / "cache")))
    assert result.obs.tracer is NULL_TRACER
    assert list(result.obs.tracer.events) == []


def test_build_dir_writes_sinks(tmp_path):
    _write_two_modules(tmp_path)
    trace_path = str(tmp_path / "t.json")
    metrics_path = str(tmp_path / "m.json")
    build_dir(
        str(tmp_path),
        BuildOptions(
            cache_dir=str(tmp_path / "cache"),
            jobs=2,
            trace_path=trace_path,
            metrics_path=metrics_path,
        ),
    )
    assert validate_file(trace_path) == ("trace", [])
    assert validate_file(metrics_path) == ("metrics", [])
    with open(trace_path) as f:
        doc = json.load(f)
    names = [e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert "job:Power" in names, "pool-worker spans must reach the trace"


# ---------------------------------------------------------------------------
# Fault counters: stats and the registry can never disagree (the
# double-count regression on the serial-degradation path).
# ---------------------------------------------------------------------------


def test_degradation_counts_once_in_stats_and_registry(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    for i in range(3):
        (src / ("A%d.mod" % i)).write_text(
            "module A%d where\n\nf%d n = n + %d\n" % (i, i, i)
        )
    plan = FaultPlan(
        faults=(Fault(module="A1", action="crash", times=1),),
        state_dir=str(tmp_path / "fstate"),
    )
    plan.install(str(tmp_path / "plan.json"))
    try:
        result = build_dir(
            str(src),
            BuildOptions(
                cache_dir=str(tmp_path / "cache"),
                jobs=2,
                policy=FaultPolicy(keep_going=True, sleep=lambda s: None),
            ),
        )
    finally:
        FaultPlan.uninstall()
    stats = result.stats
    assert stats.crashes == 1
    assert stats.degradations == 1
    assert stats.retries == 0
    # Recovery re-runs the wave serially; no module may be counted twice.
    assert sorted(stats.analysed) == ["A0", "A1", "A2"]
    assert len(stats.analysed) == len(set(stats.analysed))
    snap = stats.metrics.snapshot()
    assert snap["counters"]["faults.crashes"] == stats.crashes
    assert snap["counters"]["faults.degradations"] == stats.degradations
    assert snap["counters"]["modules.analysed"] == len(stats.analysed)
    d = stats.as_dict()
    assert d["crashes"] == snap["counters"]["faults.crashes"]


# ---------------------------------------------------------------------------
# The specialiser under observation.
# ---------------------------------------------------------------------------


def test_specialise_spans_and_spec_counters():
    import repro

    gp = repro.compile_genexts(POWER)
    obs = Obs.enabled()
    result = repro.specialise(gp, "power", {"n": 3}, obs=obs)
    assert result.run(2) == 8
    names = obs.tracer.span_names()
    assert "specialise" in names and "assemble" in names
    snap = obs.metrics.snapshot()
    assert snap["counters"]["spec.unfolds"] == 3


def test_specialise_mk_resid_spans():
    import repro

    gp = repro.compile_genexts(POWER, SpecOptions(force_residual={"power"}))
    obs = Obs.enabled()
    repro.specialise(gp, "power", {"n": 3}, obs=obs)
    names = obs.tracer.span_names()
    assert "pending-pump" in names
    assert any(n.startswith("mk_resid:power") for n in names)


# ---------------------------------------------------------------------------
# Profiler.
# ---------------------------------------------------------------------------


def test_profiler_attributes_time_per_module(tmp_path):
    _write_two_modules(tmp_path)
    obs = Obs.enabled()
    profiler = Profiler(obs.bus)
    BuildEngine(
        str(tmp_path),
        BuildOptions(cache_dir=str(tmp_path / "cache"), jobs=2),
        obs=obs,
    ).build()
    rows = profiler.top("job")
    assert any(name == "job:Power" for name, _, _ in rows)
    d = profiler.as_dict()
    assert "job:job:Power" in d["spans"] or "job:Power" in "".join(d["spans"])
    report = profiler.report()
    assert "Power" in report
    assert profiler.seconds("stage") >= 0.0


# ---------------------------------------------------------------------------
# CLI sinks and --json.
# ---------------------------------------------------------------------------


def test_cli_build_trace_and_metrics_files(tmp_path, capsys):
    from repro.cli import main

    _write_two_modules(tmp_path)
    trace = str(tmp_path / "t.json")
    metrics = str(tmp_path / "m.json")
    assert (
        main(["build", str(tmp_path), "--jobs", "2", "--trace", trace,
              "--metrics", metrics]) == 0
    )
    capsys.readouterr()
    assert validate_file(trace) == ("trace", [])
    assert validate_file(metrics) == ("metrics", [])


def test_cli_schema_validator_tool(tmp_path, capsys):
    from repro.cli import main
    from repro.obs import schema

    _write_two_modules(tmp_path)
    trace = str(tmp_path / "t.json")
    assert main(["build", str(tmp_path), "--trace", trace]) == 0
    capsys.readouterr()
    assert schema.main([trace]) == 0
    out = capsys.readouterr().out
    assert "valid trace" in out
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as f:
        f.write("{}")
    assert schema.main([bad]) == 1


def test_cli_build_json_report(tmp_path, capsys):
    from repro.cli import main

    _write_two_modules(tmp_path)
    assert main(["build", str(tmp_path), "--jobs", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == REPORT_SCHEMA
    assert doc["command"] == "build"
    assert doc["exit_code"] == 0 and doc["ok"] is True
    assert validate_report(doc) == []
    assert doc["metrics"]["counters"]["modules.analysed"] == 2


def test_cli_specialize_alias_json(tmp_path, capsys):
    from repro.cli import main

    _write_two_modules(tmp_path)
    assert main(
        ["specialize", str(tmp_path), "cube", "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "specialise"
    assert validate_report(doc) == []
    assert doc["report"]["entry"] == "cube"


def test_cli_fsck_json(tmp_path, capsys):
    from repro.cli import main

    _write_two_modules(tmp_path)
    assert main(["build", str(tmp_path)]) == 0
    capsys.readouterr()
    cache = os.path.join(str(tmp_path), ".mspec-cache")
    assert main(["fsck", cache, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "fsck"
    assert validate_report(doc) == []


def test_cli_help_lists_exit_codes(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "exit codes" in out.lower()


# ---------------------------------------------------------------------------
# Well-known performance counters and the committed bench record.
# ---------------------------------------------------------------------------


def _metrics_doc(counters):
    return {
        "schema": METRICS_SCHEMA,
        "counters": counters,
        "gauges": {},
        "timers": {},
    }


def test_well_known_counters_must_be_nonnegative_integers():
    assert validate_metrics(_metrics_doc({"speccache.hits": 3})) == []
    problems = validate_metrics(_metrics_doc({"speccache.hits": 1.5}))
    assert any("well-known" in p for p in problems)
    problems = validate_metrics(_metrics_doc({"tier.memo_hits": -1}))
    assert any("well-known" in p for p in problems)


def test_arbitrary_counters_may_still_be_any_number():
    assert validate_metrics(_metrics_doc({"my.custom.rate": 1.5})) == []


def test_speccache_counters_flow_into_a_valid_snapshot(tmp_path):
    import repro

    obs = Obs()
    gp = repro.compile_genexts(POWER)
    options = SpecOptions(cache_dir=str(tmp_path / "cache"))
    repro.specialise(gp, "power", {"n": 3}, options, obs=obs)
    repro.specialise(gp, "power", {"n": 3}, options, obs=obs)
    snapshot = obs.metrics.snapshot()
    assert validate_metrics(snapshot) == []
    assert snapshot["counters"]["speccache.hits"] == 1
    assert snapshot["counters"]["speccache.writes"] == 1


_SOAK_RECORD = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "BENCH_soak.json"
)


def test_validate_file_recognises_bench_documents(tmp_path):
    with open(_SOAK_RECORD) as f:
        doc = json.load(f)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(doc))
    assert validate_file(str(path)) == ("bench", [])
    doc["checks"] = {"performed": -1}
    path.write_text(json.dumps(doc))
    kind, problems = validate_file(str(path))
    assert kind == "bench"
    assert problems


def test_committed_bench_document_is_valid():
    assert validate_file(_SOAK_RECORD) == ("bench", [])


# ---------------------------------------------------------------------------
# The benchmark suite's layer wrappers.
# ---------------------------------------------------------------------------


def test_suite_wrap_sites_install_and_restore():
    """Every name ``benchmarks/suite/layers.py`` wraps for a traced run
    still exists (a missing one kills every traced suite run), and
    leaving the block puts the original back."""
    import importlib.util

    from repro.pipeline import incremental

    path = os.path.join(
        os.path.dirname(__file__), "..", "benchmarks", "suite", "layers.py"
    )
    spec = importlib.util.spec_from_file_location("suite_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    original = incremental.cogen_def
    with layers.installed(Tracer()):
        assert incremental.cogen_def is not original
    assert incremental.cogen_def is original
