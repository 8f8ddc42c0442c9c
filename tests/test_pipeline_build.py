"""The parallel incremental build engine: cache hits/misses, dirty
cones, early cutoff, artifact publication, linking, CLI."""

import os

import pytest

import repro
from repro.bench.generators import layered_program
from repro.genext.engine import specialise
from repro.pipeline import ArtifactCache, BuildEngine, build_dir
from repro.pipeline.build import GENEXT_KIND, IFACE_KIND, CODE_KIND
from repro.api import BuildOptions

POWER = "module Power where\n\npower n x = if n == 1 then x else x * power (n - 1) x\n"
MAIN = "module Main where\nimport Power\n\ncube y = power 3 y\n"


def _write(path, name, text):
    with open(os.path.join(str(path), name + ".mod"), "w") as f:
        f.write(text)


def _layered(path, n=4, defs=2, seed=5):
    sources = layered_program(n, defs, seed=seed)
    for name, text in sources.items():
        _write(path, name, text)
    return sources


def test_cold_then_warm_noop(tmp_path):
    _layered(tmp_path)
    cache = str(tmp_path / "cache")
    cold = build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    assert cold.analysed == ["M0", "M1", "M2", "M3"]
    assert cold.cached == []
    warm = build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    assert warm.analysed == [], "warm no-op rebuild re-analyses nothing"
    assert warm.cached == ["M0", "M1", "M2", "M3"]
    assert [m.source for m in warm.genexts] == [m.source for m in cold.genexts]
    assert warm.keys == cold.keys


def test_fresh_checkout_hits_shared_cache(tmp_path):
    """A second checkout of the same sources (different directory, new
    mtimes) gets full cache hits — content addressing, not timestamps."""
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    sources = _layered(a)
    for name, text in sources.items():
        _write(b, name, text)
    cache = str(tmp_path / "cache")
    build_dir(str(a), BuildOptions(cache_dir=cache))
    again = build_dir(str(b), BuildOptions(cache_dir=cache))
    assert again.analysed == []
    assert len(again.cached) == len(sources)


def test_leaf_edit_rebuilds_exactly_the_leaf(tmp_path):
    sources = _layered(tmp_path)
    cache = str(tmp_path / "cache")
    build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    _write(tmp_path, "M3", sources["M3"] + "extra n x = x + n\n")
    result = build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    assert result.analysed == ["M3"]
    assert sorted(result.cached) == ["M0", "M1", "M2"]


def test_root_edit_rebuilds_dirty_cone_with_early_cutoff(tmp_path):
    sources = _layered(tmp_path)
    cache = str(tmp_path / "cache")
    build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    # A comment-only edit: M0's interface is unchanged, so the cone
    # stops at M0 itself, which is re-analysed whole.
    _write(tmp_path, "M0", "-- tweaked\n" + sources["M0"])
    result = build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    assert result.analysed == ["M0"]
    assert sorted(result.cached) == ["M1", "M2", "M3"]
    # A new definition changes M0's interface, but no importer
    # references it, so every dependent module's def-level key still
    # hits.
    _write(tmp_path, "M0", sources["M0"] + "m0_new n x = x\n")
    result = build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    assert result.analysed == ["M0"]
    assert sorted(result.cached) == ["M1", "M2", "M3"]


def test_force_residual_is_part_of_the_key(tmp_path):
    _write(tmp_path, "Power", POWER)
    cache = str(tmp_path / "cache")
    plain = build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    forced = build_dir(
        str(tmp_path),
        BuildOptions(cache_dir=cache, force_residual=frozenset(["power"])),
    )
    assert forced.cached == [], "different options, different key"
    assert forced.analysed == ["Power"]
    assert forced.keys["Power"] != plain.keys["Power"]
    again = build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    assert again.analysed == [], "the plain entry is still cached"


def test_corrupt_cache_entry_is_rebuilt(tmp_path):
    _write(tmp_path, "Power", POWER)
    cache_dir = str(tmp_path / "cache")
    first = build_dir(str(tmp_path), BuildOptions(cache_dir=cache_dir))
    cache = ArtifactCache(cache_dir)
    key = first.keys["Power"]
    good = cache.get_text(key, IFACE_KIND)
    cache.put_text(key, IFACE_KIND, '{"torn":')
    result = build_dir(str(tmp_path), BuildOptions(cache_dir=cache_dir))
    assert result.cached == [], "corrupt entry treated as a miss"
    assert result.analysed == ["Power"]
    assert cache.get_text(key, IFACE_KIND) == good


def _age(root, seconds=60):
    """Move every file's mtime under ``root`` back by ``seconds``, past
    the stat-checked reads' racy margin."""
    back = seconds * 10**9
    for dirpath, _, files in os.walk(str(root)):
        for f in files:
            path = os.path.join(dirpath, f)
            st = os.stat(path)
            os.utime(path, ns=(st.st_atime_ns - back, st.st_mtime_ns - back))


def test_rebuild_of_files_older_than_the_margin_reads_nothing(tmp_path):
    sources = _layered(tmp_path)
    options = BuildOptions(cache_dir=str(tmp_path / "cache"))
    build_dir(str(tmp_path), options)
    _age(tmp_path)
    build_dir(str(tmp_path), options)  # reads and records every stamp
    warm = build_dir(str(tmp_path), options)
    counters = warm.stats.metrics.snapshot()["counters"]
    assert warm.cached == sorted(sources)
    assert counters.get("cache.reads", 0) == 0
    assert counters.get("cache.read_bytes", 0) == 0
    # Every source and both artifacts of every module: no byte read.
    assert counters["cache.reads_skipped"] == 3 * len(sources)


def test_racy_in_place_rewrite_is_read_again(tmp_path):
    """A source rewritten inside the margin, at the same size and with
    its mtime put back, keeps its stamp; the stamp was recorded too close
    to its mtime to vouch for anything, so the file is read again."""
    sources = _layered(tmp_path)
    options = BuildOptions(cache_dir=str(tmp_path / "cache"))
    first = build_dir(str(tmp_path), options)
    path = os.path.join(str(tmp_path), "M1.mod")
    before = os.stat(path)
    edited = sources["M1"].replace("(x * 2)", "(x * 3)")
    assert edited != sources["M1"] and len(edited) == len(sources["M1"])
    with open(path, "r+") as f:
        f.write(edited)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
        before.st_ino, before.st_size, before.st_mtime_ns,
    )
    second = build_dir(str(tmp_path), options)
    assert second.analysed == ["M1"]
    assert second.keys["M1"] != first.keys["M1"]


def test_published_artifacts_and_no_temp_droppings(tmp_path, capsys):
    from repro.cli import main

    src = tmp_path / "src"
    src.mkdir()
    _write(src, "Power", POWER)
    _write(src, "Main", MAIN)
    iface_dir = str(tmp_path / "iface")
    out_dir = str(tmp_path / "out")
    build_dir(str(src), BuildOptions(iface_dir=iface_dir, out_dir=out_dir))
    assert sorted(os.listdir(iface_dir)) == ["Main.bti", "Power.bti"]
    assert sorted(os.listdir(out_dir)) == ["Main.genext.py", "Power.genext.py"]
    for root, _, files in os.walk(str(tmp_path)):
        for f in files:
            assert not f.startswith(".tmp."), "temp file leaked: %s" % f

    # analyze after build is a no-op: same default cache, same keys.
    assert main(["analyze", str(src), "--iface-dir", iface_dir]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[:2]] == [
        ["Power", "up", "to", "date"],
        ["Main", "up", "to", "date"],
    ]
    assert sorted(os.listdir(iface_dir)) == ["Main.bti", "Power.bti"]


def test_non_utf8_published_interface_is_republished(tmp_path):
    _write(tmp_path, "Power", POWER)
    _write(tmp_path, "Main", MAIN)
    options = BuildOptions(
        cache_dir=str(tmp_path / "cache"), iface_dir=str(tmp_path)
    )
    build_dir(str(tmp_path), options)
    published = tmp_path / "Main.bti"
    good = published.read_bytes()
    published.write_bytes(b"\xff\xfe\x00garbage")
    result = build_dir(str(tmp_path), options)
    assert result.cached == ["Power", "Main"]
    assert published.read_bytes() == good


def test_build_matches_classic_pipeline_and_specialises(tmp_path):
    _write(tmp_path, "Power", POWER)
    _write(tmp_path, "Main", MAIN)
    result = build_dir(str(tmp_path), BuildOptions(cache_dir=str(tmp_path / "cache")))
    classic = repro.cogen_program(
        repro.analyse_program(repro.load_program_dir(str(tmp_path)))
    )
    assert {m.name: m.source for m in result.genexts} == {
        m.name: m.source for m in classic
    }
    gp = result.link()
    spec = specialise(gp, "cube", {})
    assert spec.run(3) == 27

    # Relinking warm pulls the compiled code objects from the cache.
    cache = ArtifactCache(str(tmp_path / "cache"))
    assert cache.has(result.keys["Power"], CODE_KIND)
    warm = build_dir(str(tmp_path), BuildOptions(cache_dir=str(tmp_path / "cache")))
    assert specialise(warm.link(), "cube", {}).run(2) == 8


def test_stats_instrumentation(tmp_path):
    _layered(tmp_path)
    result = build_dir(str(tmp_path), BuildOptions(cache_dir=str(tmp_path / "cache"), jobs=1))
    stats = result.stats
    assert stats.modules == 4
    assert stats.wave_widths == (1, 1, 1, 1)
    assert len(stats.analysed) == 4 and stats.cached == []
    for stage in ("scan", "schedule", "cache", "analyse", "publish"):
        assert stage in stats.stage_seconds
    d = stats.as_dict()
    assert d["n_analysed"] == 4 and d["jobs"] == 1
    assert d["total_seconds"] == pytest.approx(stats.total_seconds)
    report = stats.report()
    assert "4 module(s)" in report and "analyse" in report

    # And it round-trips through JSON (the benchmark emitter's contract).
    import json

    json.loads(json.dumps(d))


def test_bad_jobs_rejected(tmp_path):
    with pytest.raises(ValueError):
        BuildEngine(str(tmp_path), BuildOptions(jobs=0))


def test_cli_build(tmp_path, capsys):
    from repro.cli import main

    _write(tmp_path, "Power", POWER)
    _write(tmp_path, "Main", MAIN)
    assert main(["build", str(tmp_path), "--stats"]) == 0
    out = capsys.readouterr().out
    assert "analysed" in out and "pipeline:" in out
    assert os.path.exists(os.path.join(str(tmp_path), "Power.bti"))
    assert os.path.exists(os.path.join(str(tmp_path), "Main.genext.py"))
    assert os.path.isdir(os.path.join(str(tmp_path), ".mspec-cache"))
    assert main(["build", str(tmp_path), "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "cached" in out and "analysed" not in out


# ---------------------------------------------------------------------------
# A warm rebuild pays per changed file: the failure cone and the scan memo.
# ---------------------------------------------------------------------------


def _no_reachability(monkeypatch):
    from repro.modsys.graph import ModuleGraph

    def refuse(self, name):
        raise AssertionError("reachable_from(%r) walked" % name)

    monkeypatch.setattr(ModuleGraph, "reachable_from", refuse)


def test_a_build_without_failures_never_walks_reachability(
    tmp_path, monkeypatch
):
    _no_reachability(monkeypatch)
    sources = _layered(tmp_path)
    cache = str(tmp_path / "cache")
    cold = build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    assert cold.report.ok and sorted(cold.analysed) == sorted(sources)
    warm = build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    assert warm.report.ok and sorted(warm.cached) == sorted(sources)


def test_failure_cone_names_the_first_root_cause(tmp_path, monkeypatch):
    """Two failed modules under one importer: the importer and its own
    importer are skipped, each attributed to the alphabetically first
    root cause, and the cone is found without per-module walks."""
    from repro.pipeline import BuildError, FaultPolicy

    _no_reachability(monkeypatch)
    _write(tmp_path, "Zed", "module Zed where\n\nz n = @@@\n")
    _write(tmp_path, "Alpha", "module Alpha where\n\na n = @@@\n")
    _write(tmp_path, "Ok", "module Ok where\n\nk n = n + 1\n")
    _write(
        tmp_path, "Mid",
        "module Mid where\nimport Zed\nimport Ok\nimport Alpha\n\n"
        "m n = z (k (a n))\n",
    )
    _write(tmp_path, "Top", "module Top where\nimport Mid\n\nt n = m n\n")
    _write(tmp_path, "Side", "module Side where\nimport Ok\n\ns n = k n\n")
    cache = str(tmp_path / "cache")
    result = build_dir(
        str(tmp_path),
        BuildOptions(cache_dir=cache, policy=FaultPolicy(keep_going=True)),
    )
    report = result.report
    assert [f.module for f in report.failures] == ["Alpha", "Zed"]
    assert report.skipped == {"Mid": "Alpha", "Top": "Alpha"}
    assert sorted(report.succeeded) == ["Ok", "Side"]
    with pytest.raises(BuildError) as excinfo:
        build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    assert excinfo.value.report.skipped == report.skipped


def test_scan_memo_hit_still_checks_the_file_name(tmp_path):
    _write(tmp_path, "Power", POWER)
    engine = BuildEngine(str(tmp_path))
    sources, failures = engine.scan()
    assert list(sources) == ["Power"] and failures == {}
    # The same text under another file name is a memo hit for the
    # parse, but the structural checks run again and reject it.
    _write(tmp_path, "Other", POWER)
    sources, failures = engine.scan()
    assert list(sources) == ["Power"]
    assert list(failures) == ["Other"]
    assert failures["Other"].error_class == "ValidationError"
    assert "file name must match" in failures["Other"].message


def test_non_utf8_source_is_a_module_failure(tmp_path, capsys):
    from repro.cli import main
    from repro.pipeline import FaultPolicy

    _write(tmp_path, "Power", POWER)
    with open(os.path.join(str(tmp_path), "Bad.mod"), "wb") as f:
        f.write(b"module Bad where\n\n-- caf\xe9\nb n = n\n")
    result = build_dir(
        str(tmp_path),
        BuildOptions(
            cache_dir=str(tmp_path / "cache"),
            policy=FaultPolicy(keep_going=True),
        ),
    )
    (failure,) = result.report.failures
    assert failure.module == "Bad"
    assert failure.kind == "error"
    assert "Bad.mod" in failure.message
    assert result.report.succeeded == ["Power"]
    assert result.analysed == ["Power"]

    for command in ("build", "analyze"):
        assert main([command, str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert "Bad" in captured.err and "Bad.mod" in captured.err
        assert "Traceback" not in captured.err


def test_noop_rebuild_writes_nothing_under_the_cache_root(tmp_path):
    _write(tmp_path, "Power", POWER)
    cache = str(tmp_path / "cache")

    def snapshot():
        out = {}
        for dirpath, _, filenames in os.walk(cache):
            for filename in filenames:
                st = os.stat(os.path.join(dirpath, filename))
                out[os.path.join(dirpath, filename)] = (
                    st.st_ino,
                    st.st_mtime_ns,
                )
        return out

    build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    before = snapshot()
    again = build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    assert again.cached == ["Power"]
    assert again.stats.metrics.counter("cache.writes").value == 0
    assert snapshot() == before
