"""Fault tolerance of the build engine: keep-going cone skipping,
retries with backoff, deadline kills, pool degradation, cache
corruption recovery, and fsck — every path driven deterministically by
the fault-injection harness (``repro.pipeline.faultinject``)."""

import marshal
import os

import pytest

from repro.pipeline import (
    ArtifactCache,
    BuildError,
    Fault,
    FaultInjected,
    FaultPlan,
    FaultPolicy,
    build_dir,
    fsck_cache,
)
from repro.pipeline import faultinject, faults
from repro.api import BuildOptions
from repro.pipeline.cache import (
    CODE_KIND,
    GENEXT_KIND,
    IFACE_KIND,
    QUARANTINE_DIRNAME,
)

# A 3-wave / 9-module grid: three independent chains A_i -> B_i -> C_i,
# so one chain's failure cone never touches the other two.
GRID = {}
for i in range(3):
    GRID["A%d" % i] = "module A%d where\n\nfA%d n = n + 1\n" % (i, i)
    GRID["B%d" % i] = (
        "module B%d where\nimport A%d\n\nfB%d n = fA%d (n + 1)\n"
        % (i, i, i, i)
    )
    GRID["C%d" % i] = (
        "module C%d where\nimport B%d\n\nfC%d n = fB%d (n + 1)\n"
        % (i, i, i, i)
    )

POWER = "module Power where\n\npower n x = if n == 1 then x else x * power (n - 1) x\n"
MAIN = "module Main where\nimport Power\n\ncube y = power 3 y\n"


@pytest.fixture(autouse=True)
def _disarm_fault_plans():
    """No plan leaks into (or out of) any test."""
    FaultPlan.uninstall()
    yield
    FaultPlan.uninstall()


def _write_grid(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    for name, text in GRID.items():
        (src / (name + ".mod")).write_text(text)
    return str(src)


def _install(tmp_path, *planned):
    plan = FaultPlan(faults=tuple(planned), state_dir=str(tmp_path / "fstate"))
    plan.install(str(tmp_path / "plan.json"))
    return plan


# ---------------------------------------------------------------------------
# Keep-going and fail-fast.
# ---------------------------------------------------------------------------


def test_keep_going_builds_everything_outside_the_cone(tmp_path):
    src = _write_grid(tmp_path)
    cache_dir = str(tmp_path / "cache")
    _install(tmp_path, Fault(module="B1", action="raise", times=99))

    result = build_dir(src, BuildOptions(cache_dir=cache_dir, policy=FaultPolicy(keep_going=True)))
    report = result.report
    assert [f.module for f in report.failures] == ["B1"]
    failure = report.failures[0]
    assert failure.kind == "error"
    assert failure.error_class == "FaultInjected"
    assert failure.root_cause == "B1"
    assert report.skipped == {"C1": "B1"}
    assert sorted(report.succeeded) == ["A0", "A1", "A2", "B0", "B2", "C0", "C2"]
    assert report.exit_code == faults.EXIT_ERROR
    assert not report.ok
    assert "B1" in report.render() and "C1" in report.render()

    # The partial result is import-closed and linkable.
    names = {m.name for m in result.genexts}
    assert names == set(report.succeeded)
    result.link()

    # The cache was never poisoned: a clean rebuild re-analyses exactly
    # the failed cone and serves everything else from cache.
    FaultPlan.uninstall()
    clean = build_dir(src, BuildOptions(cache_dir=cache_dir))
    assert sorted(clean.analysed) == ["B1", "C1"]
    assert sorted(clean.cached) == ["A0", "A1", "A2", "B0", "B2", "C0", "C2"]
    assert clean.report.ok


def test_fail_fast_raises_build_error_naming_the_cone(tmp_path):
    src = _write_grid(tmp_path)
    _install(tmp_path, Fault(module="B1", action="raise", times=99))
    with pytest.raises(BuildError) as excinfo:
        build_dir(src, BuildOptions(cache_dir=str(tmp_path / "cache")))
    report = excinfo.value.report
    assert [f.module for f in report.failures] == ["B1"]
    assert report.skipped == {"C1": "B1"}
    assert "B1" in str(excinfo.value)


def test_unparseable_module_fails_only_its_cone(tmp_path):
    """A file that does not even parse fails at scan time — before any
    worker runs — yet keep-going still treats it like any other failed
    module: its importers are skipped, everything else builds."""
    src = _write_grid(tmp_path)
    with open(os.path.join(src, "B1.mod"), "w") as f:
        f.write("module B1 where\nimport A1\n\nfB1 n = @@@\n")

    result = build_dir(
        src,
        BuildOptions(
            cache_dir=str(tmp_path / "cache"),
            policy=FaultPolicy(keep_going=True),
        ),
    )
    report = result.report
    assert [f.module for f in report.failures] == ["B1"]
    failure = report.failures[0]
    assert failure.kind == "error"
    assert failure.error_class == "ParseError"
    assert failure.span == (4, 9)
    assert report.skipped == {"C1": "B1"}
    assert sorted(report.succeeded) == ["A0", "A1", "A2", "B0", "B2", "C0", "C2"]
    result.link()


def test_unparseable_module_fails_fast_with_a_report(tmp_path):
    src = _write_grid(tmp_path)
    with open(os.path.join(src, "B1.mod"), "w") as f:
        f.write("module B1 where\nimport A1\n\nfB1 n = @@@\n")
    with pytest.raises(BuildError) as excinfo:
        build_dir(src, BuildOptions(cache_dir=str(tmp_path / "cache")))
    report = excinfo.value.report
    assert [f.module for f in report.failures] == ["B1"]
    assert report.failures[0].error_class == "ParseError"
    assert report.skipped == {"C1": "B1"}
    assert report.succeeded == []  # scan failure: nothing was attempted


def test_misnamed_module_file_is_a_structured_failure(tmp_path):
    src = _write_grid(tmp_path)
    with open(os.path.join(src, "B1.mod"), "w") as f:
        f.write("module NotB1 where\n\nf n = n\n")
    result = build_dir(
        src,
        BuildOptions(
            cache_dir=str(tmp_path / "cache"),
            policy=FaultPolicy(keep_going=True),
        ),
    )
    [failure] = result.report.failures
    assert failure.module == "B1"  # the name the file name implies
    assert failure.error_class == "ValidationError"
    assert result.report.skipped == {"C1": "B1"}


def test_two_independent_failures_one_report(tmp_path):
    src = _write_grid(tmp_path)
    _install(
        tmp_path,
        Fault(module="A0", action="raise", times=99),
        Fault(module="B2", action="raise", times=99),
    )
    result = build_dir(
        src,
        BuildOptions(
            cache_dir=str(tmp_path / "cache"),
            policy=FaultPolicy(keep_going=True),
        ),
    )
    report = result.report
    assert [f.module for f in report.failures] == ["A0", "B2"]
    assert report.skipped == {"B0": "A0", "C0": "A0", "C2": "B2"}
    assert sorted(report.succeeded) == ["A1", "A2", "B1", "C1"]


# ---------------------------------------------------------------------------
# Retries and backoff.
# ---------------------------------------------------------------------------


def test_transient_failure_retried_with_capped_backoff(tmp_path):
    src = _write_grid(tmp_path)
    _install(tmp_path, Fault(module="B1", action="raise", times=2))
    sleeps = []
    policy = FaultPolicy(
        retries=3, backoff_base=0.01, backoff_cap=0.015, sleep=sleeps.append
    )
    result = build_dir(src, BuildOptions(cache_dir=str(tmp_path / "cache"), policy=policy))
    assert result.report.ok
    assert sorted(m.name for m in result.genexts) == sorted(GRID)
    assert result.stats.retries == 2
    # Exponential from the base, capped: 0.01, then min(0.015, 0.02).
    assert sleeps == [0.01, 0.015]


def test_retry_budget_exhausted_is_a_failure(tmp_path):
    src = _write_grid(tmp_path)
    _install(tmp_path, Fault(module="B1", action="raise", times=99))
    policy = FaultPolicy(retries=2, keep_going=True, sleep=lambda s: None)
    result = build_dir(src, BuildOptions(cache_dir=str(tmp_path / "cache"), policy=policy))
    assert [f.module for f in result.report.failures] == ["B1"]
    assert result.report.failures[0].attempts == 3  # 1 try + 2 retries
    assert result.stats.retries == 2


# ---------------------------------------------------------------------------
# Deadlines: hung jobs are killed and retried.
# ---------------------------------------------------------------------------


def test_pool_hang_killed_at_deadline_and_retried(tmp_path):
    src = _write_grid(tmp_path)
    _install(tmp_path, Fault(module="B1", action="hang", seconds=120.0, times=1))
    policy = FaultPolicy(timeout=2.0, retries=1, sleep=lambda s: None)
    result = build_dir(src, BuildOptions(cache_dir=str(tmp_path / "cache"), jobs=2, policy=policy))
    assert result.report.ok
    assert result.stats.timeouts == 1
    assert result.stats.retries == 1
    assert sorted(m.name for m in result.genexts) == sorted(GRID)


def test_serial_hang_killed_by_alarm_deadline(tmp_path):
    src = _write_grid(tmp_path)
    _install(tmp_path, Fault(module="B1", action="hang", seconds=120.0, times=1))
    policy = FaultPolicy(timeout=0.5, retries=1, sleep=lambda s: None)
    result = build_dir(src, BuildOptions(cache_dir=str(tmp_path / "cache"), jobs=1, policy=policy))
    assert result.report.ok
    assert result.stats.timeouts == 1


def test_hang_with_no_retries_reports_timeout_exit_code(tmp_path):
    src = _write_grid(tmp_path)
    _install(tmp_path, Fault(module="B1", action="hang", seconds=120.0, times=99))
    policy = FaultPolicy(timeout=0.5, keep_going=True, sleep=lambda s: None)
    result = build_dir(src, BuildOptions(cache_dir=str(tmp_path / "cache"), jobs=1, policy=policy))
    report = result.report
    assert [f.module for f in report.failures] == ["B1"]
    assert report.failures[0].kind == "timeout"
    assert report.exit_code == faults.EXIT_TIMEOUT
    assert report.skipped == {"C1": "B1"}


# ---------------------------------------------------------------------------
# Worker crashes: pool breakage degrades to serial execution.
# ---------------------------------------------------------------------------


def test_worker_crash_degrades_to_serial_and_recovers(tmp_path):
    src = _write_grid(tmp_path)
    _install(tmp_path, Fault(module="B1", action="crash", times=1))
    result = build_dir(
        src,
        BuildOptions(
            cache_dir=str(tmp_path / "cache"),
            jobs=3,
            policy=FaultPolicy(keep_going=True, sleep=lambda s: None),
        ),
    )
    # The breakage victims were re-run serially; nothing actually failed.
    assert result.report.ok
    assert sorted(m.name for m in result.genexts) == sorted(GRID)
    assert result.stats.crashes == 1
    assert result.stats.degradations == 1
    assert result.report.degraded


def test_persistent_crasher_fails_only_its_own_cone(tmp_path):
    src = _write_grid(tmp_path)
    _install(tmp_path, Fault(module="B1", action="crash", times=99))
    result = build_dir(
        src,
        BuildOptions(
            cache_dir=str(tmp_path / "cache"),
            jobs=3,
            policy=FaultPolicy(keep_going=True, sleep=lambda s: None),
        ),
    )
    # After degradation the crash fires in-process as an exception, so
    # only the true culprit fails; its pool-breakage victims recovered.
    report = result.report
    assert [f.module for f in report.failures] == ["B1"]
    assert report.skipped == {"C1": "B1"}
    assert sorted(report.succeeded) == ["A0", "A1", "A2", "B0", "B2", "C0", "C2"]
    assert result.stats.degradations == 1


# ---------------------------------------------------------------------------
# Corrupt artifacts: detection on read, recovery, and fsck.
# ---------------------------------------------------------------------------


def test_corrupt_artifact_quarantined_by_fsck_and_rebuilt(tmp_path):
    src = _write_grid(tmp_path)
    cache_dir = str(tmp_path / "cache")
    _install(
        tmp_path,
        Fault(module="B1", action="corrupt", phase="publish", kind=IFACE_KIND),
    )
    first = build_dir(src, BuildOptions(cache_dir=cache_dir))
    assert first.report.ok  # the torn write is silent at build time
    key = first.keys["B1"]
    cache = ArtifactCache(cache_dir)
    assert cache.get_bytes(key, IFACE_KIND).startswith(b"\x00")

    FaultPlan.uninstall()
    report = fsck_cache(cache)
    assert not report.ok
    assert report.exit_code == faults.EXIT_CORRUPT
    names = [name for name, _ in report.quarantined]
    assert names == ["%s.%s" % (key, IFACE_KIND)]
    assert "corrupt interface" in report.quarantined[0][1]
    assert not cache.has(key, IFACE_KIND)
    assert os.path.exists(
        os.path.join(cache_dir, QUARANTINE_DIRNAME, names[0])
    )

    # The rebuild redoes exactly the damaged module; early cutoff keeps
    # its importer cached (the recomputed interface is identical).
    again = build_dir(src, BuildOptions(cache_dir=cache_dir))
    assert again.cached and "B1" not in again.cached
    assert again.analysed == ["B1"]
    assert again.report.ok


def test_corrupt_entry_is_a_miss_even_without_fsck(tmp_path):
    src = _write_grid(tmp_path)
    cache_dir = str(tmp_path / "cache")
    _install(
        tmp_path,
        Fault(module="B1", action="corrupt", phase="publish", kind=IFACE_KIND),
    )
    build_dir(src, BuildOptions(cache_dir=cache_dir))
    FaultPlan.uninstall()
    again = build_dir(src, BuildOptions(cache_dir=cache_dir))
    assert "B1" not in again.cached
    assert again.analysed == ["B1"]


def test_fsck_quarantines_every_damaged_object_kind(tmp_path):
    cache = ArtifactCache(str(tmp_path / "cache"))
    good_iface_key = "a" * 64
    # A valid interface from a real build, so fsck sees a healthy one.
    src = tmp_path / "src"
    src.mkdir()
    (src / "Power.mod").write_text(POWER)
    real = build_dir(str(src), BuildOptions(cache_dir=cache.root))
    good_iface = cache.get_text(real.keys["Power"], IFACE_KIND)
    cache.put_text(good_iface_key, IFACE_KIND, good_iface)
    cache.put_text("b" * 64, GENEXT_KIND, "x = 1\n")
    cache.put_bytes("c" * 64, CODE_KIND, marshal.dumps(compile("1", "<t>", "eval")))
    # Damaged objects, one per failure mode.
    cache.put_text("d" * 64, IFACE_KIND, '{"torn":')
    cache.put_bytes("6" * 64, IFACE_KIND, b'{"format": 2, "module": "\xe9"}')
    cache.put_text("e" * 64, GENEXT_KIND, "def broken(:\n")
    cache.put_bytes("f" * 64, CODE_KIND, b"\x00garbage")
    cache.put_bytes("9" * 64, IFACE_KIND, b"")
    cache.put_text("8" * 64, "mystery.kind", "data")
    # A temp-file dropping and a misfiled object.
    fan_dir = os.path.join(cache.root, "objects", "aa")
    with open(os.path.join(fan_dir, ".tmp.dropping~"), "w") as f:
        f.write("partial")
    misfiled = os.path.join(cache.root, "objects", "00")
    os.makedirs(misfiled)
    with open(os.path.join(misfiled, "7" * 64 + "." + IFACE_KIND), "w") as f:
        f.write(good_iface)
    with open(os.path.join(misfiled, "not-a-key"), "w") as f:
        f.write("junk")

    report = fsck_cache(cache)
    reasons = dict(report.quarantined)
    assert "corrupt interface" in reasons["d" * 64 + "." + IFACE_KIND]
    assert "corrupt interface" in reasons["6" * 64 + "." + IFACE_KIND]
    assert "corrupt genext source" in reasons["e" * 64 + "." + GENEXT_KIND]
    assert "corrupt code object" in reasons["f" * 64 + "." + CODE_KIND]
    assert "empty object" in reasons["9" * 64 + "." + IFACE_KIND]
    assert "unknown artifact kind" in reasons["8" * 64 + ".mystery.kind"]
    assert "misfiled" in reasons["7" * 64 + "." + IFACE_KIND]
    assert "unrecognised object name" in reasons["not-a-key"]
    assert report.removed_tmp == [".tmp.dropping~"]
    # Healthy objects are untouched...
    assert cache.has(good_iface_key, IFACE_KIND)
    assert cache.has("b" * 64, GENEXT_KIND)
    assert cache.has("c" * 64, CODE_KIND)
    # ...and a second pass is clean.
    second = fsck_cache(cache)
    assert second.ok and not second.removed_tmp
    import json

    json.loads(json.dumps(report.as_dict()))


def test_fsck_skips_foreign_interpreter_code_objects(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    cache.put_bytes("a" * 64, "code-otherpython-999.bin", b"opaque")
    report = fsck_cache(cache)
    assert report.ok
    assert report.foreign == ["a" * 64 + ".code-otherpython-999.bin"]


def test_fsck_reports_a_leftover_defs_record_as_stale(tmp_path):
    """Caches written before the per-definition records were retired
    still hold ``<key>.defs.json`` objects: drift, not damage."""
    src = _write_grid(tmp_path)
    cache_dir = str(tmp_path / "cache")
    result = build_dir(src, BuildOptions(cache_dir=cache_dir))
    cache = ArtifactCache(cache_dir)
    key = result.keys["B1"]
    cache.put_text(key, "defs.json", '{"module": "B1", "sccs": []}\n')
    report = fsck_cache(cache)
    assert report.quarantined == []
    (finding,) = report.stale
    assert finding[0] == "%s.defs.json" % key
    assert "retired" in finding[1] and "defs.json" in finding[1]
    assert not cache.has(key, "defs.json")
    assert fsck_cache(cache).ok, "the rest of the cache is intact"


# ---------------------------------------------------------------------------
# The injection harness itself.
# ---------------------------------------------------------------------------


def test_fault_budget_is_spent_exactly_times(tmp_path):
    _install(tmp_path, Fault(module="M", action="raise", times=2))
    with pytest.raises(FaultInjected):
        faultinject.fire("analyse", "M")
    with pytest.raises(FaultInjected):
        faultinject.fire("analyse", "M")
    faultinject.fire("analyse", "M")  # budget exhausted: a no-op
    faultinject.fire("analyse", "Other")  # different module: a no-op
    faultinject.fire("cogen", "M")  # different phase: a no-op


def test_no_plan_means_no_op():
    faultinject.fire("analyse", "Anything")
    assert faultinject.corrupt("publish", "X", IFACE_KIND, b"data") == b"data"


def test_seeded_plans_are_deterministic_and_round_trip(tmp_path):
    first = FaultPlan.seeded(
        7, ["A", "B", "C"], str(tmp_path / "s"), actions=("raise", "hang")
    )
    second = FaultPlan.seeded(
        7, ["C", "B", "A"], str(tmp_path / "s"), actions=("raise", "hang")
    )
    assert first.faults == second.faults
    assert FaultPlan.from_dict(first.as_dict()) == first


def test_unknown_action_rejected():
    with pytest.raises(ValueError):
        Fault(module="M", action="meltdown")


# ---------------------------------------------------------------------------
# BuildResult without a cache (satellite: Optional cache field).
# ---------------------------------------------------------------------------


def test_link_works_without_a_cache(tmp_path):
    import repro
    from repro.genext.engine import specialise
    from repro.pipeline import BuildResult, PipelineStats

    src = tmp_path / "src"
    src.mkdir()
    (src / "Power.mod").write_text(POWER)
    (src / "Main.mod").write_text(MAIN)
    genexts = repro.cogen_program(
        repro.analyse_program(repro.load_program_dir(str(src)))
    )
    result = BuildResult(
        genexts=tuple(genexts),
        keys={},
        waves=(),
        analysed=[],
        cached=[],
        stats=PipelineStats(),
        cache=None,
    )
    gp = result.link()
    assert specialise(gp, "cube", {}).run(3) == 27


# ---------------------------------------------------------------------------
# CLI: exit codes, keep-going output, fsck.
# ---------------------------------------------------------------------------


def test_cli_keep_going_exit_code_and_output(tmp_path, capsys):
    from repro.cli import main

    src = _write_grid(tmp_path)
    _install(tmp_path, Fault(module="B1", action="raise", times=99))
    rc = main(["build", src, "--keep-going"])
    assert rc == faults.EXIT_ERROR
    captured = capsys.readouterr()
    assert "FAILED" in captured.out
    assert "skipped (downstream of B1)" in captured.out
    assert "build failed" in captured.err


def test_cli_fail_fast_exit_code(tmp_path, capsys):
    from repro.cli import main

    src = _write_grid(tmp_path)
    _install(tmp_path, Fault(module="B1", action="raise", times=99))
    rc = main(["build", src])
    assert rc == faults.EXIT_ERROR
    assert "FAILED" in capsys.readouterr().err


def test_cli_fsck(tmp_path, capsys):
    from repro.cli import main

    src = tmp_path / "src"
    src.mkdir()
    (src / "Power.mod").write_text(POWER)
    assert main(["build", str(src)]) == 0
    assert main(["fsck", str(src)]) == 0
    assert "0 quarantined" in capsys.readouterr().out

    # Corrupt the cached interface behind the cache's back: the one
    # interface object is Power's.
    cache = ArtifactCache(str(src / ".mspec-cache"))
    (path,) = [
        os.path.join(dirpath, filename)
        for dirpath, filename in cache.objects()
        if filename.endswith("." + IFACE_KIND)
    ]
    with open(path, "wb") as f:
        f.write(b"\x00torn write")
    rc = main(["fsck", str(src)])
    assert rc == faults.EXIT_CORRUPT
    assert "quarantined" in capsys.readouterr().out


def test_cli_build_timeout_and_retries_flags(tmp_path, capsys):
    from repro.cli import main

    src = _write_grid(tmp_path)
    _install(tmp_path, Fault(module="B1", action="raise", times=1))
    rc = main(["build", src, "--retries", "2", "--timeout", "30"])
    assert rc == 0
    assert "analysed" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Serve-phase faults and the plan cache.
# ---------------------------------------------------------------------------


def test_plan_rewritten_in_place_is_picked_up(tmp_path):
    import json

    path = str(tmp_path / "plan.json")
    plan_a = FaultPlan(
        faults=(Fault(module="A0", action="raise"),),
        state_dir=str(tmp_path / "fstate"),
    )
    plan_a.install(path)
    first = faultinject.active_plan()
    assert first.faults[0].action == "raise"
    # A second access with an unchanged file hits the cache (identity).
    assert faultinject.active_plan() is first

    # Rewrite the file in place — no re-install, same path, same env
    # var.  The (mtime, size) stamp changes, so the cache must miss.
    plan_b = FaultPlan(
        faults=(
            Fault(
                module="A0", action="hang",
                message="rewritten plan, longer message",
            ),
        ),
        state_dir=str(tmp_path / "fstate"),
    )
    with open(path, "w") as f:
        json.dump(plan_b.as_dict(), f)
    assert faultinject.active_plan().faults[0].action == "hang"


def test_wildcard_module_matches_any_victim(tmp_path):
    plan = _install(
        tmp_path,
        Fault(module="*", phase="serve", action="drop-connection"),
    )
    fault = plan.claim("serve", "anything-at-all", action="drop-connection")
    assert fault is not None and fault.action == "drop-connection"
    # times=1: the budget is spent.
    assert plan.claim("serve", "other", action="drop-connection") is None


def test_claim_exclude_skips_without_spending(tmp_path):
    plan = _install(
        tmp_path,
        Fault(module="power", phase="serve", action="kill-worker"),
    )
    assert plan.claim("serve", "power", exclude=("kill-worker",)) is None
    # The budget survived the excluded pass and is claimable later.
    fault = plan.claim("serve", "power")
    assert fault is not None and fault.action == "kill-worker"


def test_fire_never_spends_transport_actions(tmp_path):
    plan = _install(
        tmp_path,
        Fault(module="*", phase="serve", action="drop-connection"),
        Fault(module="*", phase="serve", action="stall"),
        Fault(module="*", phase="serve", action="corrupt-response"),
    )
    # An implicit in-job firing must not consume transport budgets.
    faultinject.fire("serve", "power")
    for action in faultinject.TRANSPORT_ACTIONS:
        assert (
            faultinject.claim_action("serve", "power", action) is not None
        )


def test_fire_kill_worker_in_parent_skips_and_preserves_budget(tmp_path):
    plan = _install(
        tmp_path,
        Fault(module="*", phase="serve", action="kill-worker"),
    )
    # This process is not a pool worker: fire() must neither kill us
    # nor spend the budget meant for a real worker.
    faultinject.fire("serve", "power")
    assert plan.claim("serve", "power") is not None


def test_action_partition_is_total():
    assert set(faultinject.ACTIONS) == (
        set(faultinject.WORKER_ACTIONS)
        | {"corrupt"}
        | set(faultinject.TRANSPORT_ACTIONS)
    )
