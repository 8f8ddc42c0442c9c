"""Definition-level early cutoff: def-level keys, byte identity of
rebuilds against from-scratch builds, the InterfaceStore facade, and
the def_digest_skew finding."""

import json
import os
import glob

import pytest

from repro.api import BuildOptions
from repro.bt.interface import (
    InterfaceStore,
    interface_text,
    scheme_digest,
)
from repro.bt.scheme import BTScheme
from repro.check.ifaces import check_interfaces
from repro.pipeline import ArtifactCache, build_dir, fsck_cache
from repro.pipeline.cache import IFACE_KIND

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_SEEDS = sorted(glob.glob(os.path.join(CORPUS_DIR, "seed*.json")))

POWER = (
    "module Power where\n\n"
    "power n x = if n == 1 then x else x * power (n - 1) x\n"
)


def _write(path, name, text):
    with open(os.path.join(str(path), name + ".mod"), "w") as f:
        f.write(text)


def _chain(n):
    """An n-module import chain where each module exports ``m<i>_f0``
    (called by the next module) and ``m<i>_f1`` (referenced by
    nobody)."""
    out = {}
    for m in range(n):
        name = "M%d" % m
        lines = ["module %s where" % name]
        if m:
            lines.append("import M%d" % (m - 1))
        lines.append("")
        if m:
            lines.append(
                "m%d_f0 n x = if n == 0 then x else m%d_f0 (n - 1) (x + 1)"
                % (m, m - 1)
            )
        else:
            lines.append(
                "m0_f0 n x = if n == 0 then x else m0_f0 (n - 1) (x + 1)"
            )
        lines.append(
            "m%d_f1 n x = if n == 0 then x else m%d_f1 (n - 1) (x * 2)"
            % (m, m)
        )
        lines.append("")
        out[name] = "\n".join(lines)
    return out


def _write_all(path, sources):
    for name, text in sources.items():
        _write(path, name, text)


def _artifacts(result):
    """``{module: (iface_text, genext_source)}`` for one build."""
    out = {}
    for m in result.genexts:
        iface = result.cache.get_text(result.keys[m.name], IFACE_KIND)
        out[m.name] = (iface, m.source)
    return out


# ---------------------------------------------------------------------------
# The chain: cutoff behaviour.
# ---------------------------------------------------------------------------


def test_body_edit_cuts_off_inside_the_module(tmp_path):
    sources = _chain(8)
    _write_all(tmp_path, sources)
    cache = str(tmp_path / "cache")
    build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    # Change m0_f1's body without changing its scheme (a different
    # multiplier): M0 is re-analysed whole, every def lands on an
    # identical scheme digest, and every other module is untouched.
    _write(tmp_path, "M0", sources["M0"].replace("x * 2", "x * 3"))
    result = build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    assert result.analysed == ["M0"]
    assert sorted(result.cached) == sorted("M%d" % i for i in range(1, 8))
    (entry,) = result.rebuild.by_action("analysed")
    assert entry.module == "M0"
    assert entry.reused == ()
    assert entry.re_derived == ("m0_f0", "m0_f1")
    assert entry.cut_off == ("m0_f0", "m0_f1")
    stats = result.stats.as_dict()
    assert stats["defs_cut_off"] == 2
    assert stats["defs_re_derived"] == 2


def test_body_edit_output_is_byte_identical_to_cold_build(tmp_path):
    sources = _chain(8)
    edited = dict(sources, M0=sources["M0"].replace("x * 2", "x * 3"))
    warm_dir, cold_dir = tmp_path / "warm", tmp_path / "cold"
    warm_dir.mkdir(), cold_dir.mkdir()
    _write_all(warm_dir, sources)
    build_dir(str(warm_dir), BuildOptions(cache_dir=str(tmp_path / "wc")))
    _write_all(warm_dir, edited)
    incr = build_dir(str(warm_dir), BuildOptions(cache_dir=str(tmp_path / "wc")))
    assert incr.analysed == ["M0"]

    _write_all(cold_dir, edited)
    cold = build_dir(str(cold_dir), BuildOptions(cache_dir=str(tmp_path / "cc")))
    assert sorted(cold.analysed) == sorted(sources)

    assert incr.keys == cold.keys
    assert _artifacts(incr) == _artifacts(cold)


def test_scheme_change_skips_every_dependent_module(tmp_path):
    n = 8
    sources = _chain(n)
    _write_all(tmp_path, sources)
    cache = str(tmp_path / "cache")
    build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    # Change m0_f1's *scheme* (the recursive loop becomes the identity
    # on x).  M0's interface changes — but no importer references
    # m0_f1, so every dependent module's def-level key still hits.
    _write(
        tmp_path,
        "M0",
        sources["M0"].replace(
            "m0_f1 n x = if n == 0 then x else m0_f1 (n - 1) (x * 2)",
            "m0_f1 n x = x",
        ),
    )
    result = build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    assert result.analysed == ["M0"], "no dependent module was re-analysed"
    assert sorted(result.cached) == sorted("M%d" % i for i in range(1, n))
    (entry,) = result.rebuild.by_action("analysed")
    assert entry.re_derived == ("m0_f0", "m0_f1")
    assert entry.cut_off == ("m0_f0",), "m0_f1's scheme really changed"
    # Only the direct importer was ever at risk: M0's interface text
    # changed, but M1's def-level key ignores the unreferenced def, so
    # M1 stays cached — and because M1's interface is then unchanged,
    # M2..M7 never even see a changed dependency.
    stats = result.stats.as_dict()
    assert stats["modules_cutoff_skipped"] == 1


def test_rebuild_report_shape(tmp_path):
    sources = _chain(3)
    _write_all(tmp_path, sources)
    cache = str(tmp_path / "cache")
    result = build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    doc = result.rebuild.as_dict()
    assert "incremental" not in doc
    assert "incremental" not in doc["totals"]
    assert doc["totals"]["analysed"] == 3
    assert [m["module"] for m in doc["modules"]] == ["M0", "M1", "M2"]
    for m in doc["modules"]:
        assert m["action"] == "analysed"
        assert sorted(m["re_derived"]) == sorted(
            ["m%s_f0" % m["module"][1:], "m%s_f1" % m["module"][1:]]
        )
    assert "rebuild:" in result.rebuild.render()


def test_cli_json_carries_the_rebuild_report(tmp_path, capsys):
    from repro.cli import main
    from repro.obs.schema import validate_report

    _write(tmp_path, "Power", POWER)
    assert main(["build", str(tmp_path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert validate_report(doc) == []
    rebuild = doc["report"]["rebuild"]
    assert rebuild["totals"]["analysed"] == 1
    assert rebuild["modules"][0]["module"] == "Power"
    # And the stats view carries the incr.* counters.
    assert doc["report"]["stats"]["defs_cut_off"] == 0


# ---------------------------------------------------------------------------
# Corpus property: rebuilt output == from-scratch output, per seed.
# ---------------------------------------------------------------------------


def _split_modules(source):
    """One corpus program text -> ``[(module_name, module_text)]``."""
    parts = []
    current = []
    for line in source.splitlines():
        if line.startswith("module ") and current:
            parts.append(current)
            current = [line]
        else:
            current.append(line)
    parts.append(current)
    out = []
    for lines in parts:
        header = next(l for l in lines if l.startswith("module "))
        out.append((header.split()[1], "\n".join(lines).strip("\n") + "\n"))
    return out


def _single_def_edit(text):
    """Wrap the first definition's body in a static conditional — the
    body changes, its semantics and (for these programs) its scheme do
    not."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if (
            " = " in line
            and not line.startswith(("module ", "import ", "--"))
            and line.strip()
        ):
            lhs, rhs = line.split(" = ", 1)
            lines[i] = "%s = if 0 == 0 then (%s) else (%s)" % (lhs, rhs, rhs)
            return "\n".join(lines) + "\n", lhs.split()[0]
    raise AssertionError("no definition line found")


@pytest.mark.parametrize(
    "seed_path", CORPUS_SEEDS, ids=[os.path.basename(p) for p in CORPUS_SEEDS]
)
def test_corpus_single_def_edit_is_byte_identical_to_cold(tmp_path, seed_path):
    with open(seed_path) as f:
        doc = json.load(f)
    assert doc["schema"] == "repro.check.corpus/v1"
    modules = _split_modules(doc["source"])
    edited_first, _ = _single_def_edit(modules[0][1])
    edited = [(modules[0][0], edited_first)] + modules[1:]

    warm_dir, cold_dir = tmp_path / "warm", tmp_path / "cold"
    warm_dir.mkdir(), cold_dir.mkdir()
    for name, text in modules:
        _write(warm_dir, name, text)
    build_dir(str(warm_dir), BuildOptions(cache_dir=str(tmp_path / "wc")))
    for name, text in edited:
        _write(warm_dir, name, text)
    incr = build_dir(str(warm_dir), BuildOptions(cache_dir=str(tmp_path / "wc")))
    assert incr.report.ok

    for name, text in edited:
        _write(cold_dir, name, text)
    cold = build_dir(str(cold_dir), BuildOptions(cache_dir=str(tmp_path / "cc")))

    assert incr.keys == cold.keys
    assert _artifacts(incr) == _artifacts(cold)


def test_corpus_edit_residuals_agree_with_cold_build(tmp_path):
    """Differential spot-check (first three seeds): the rebuilt program
    and a from-scratch build specialise every corpus goal variant to
    byte-identical residuals and values."""
    import repro
    from repro.api import SpecOptions

    for seed_path in CORPUS_SEEDS[:3]:
        with open(seed_path) as f:
            doc = json.load(f)
        modules = _split_modules(doc["source"])
        edited_first, _ = _single_def_edit(modules[0][1])
        edited = [(modules[0][0], edited_first)] + modules[1:]
        base = tmp_path / os.path.basename(seed_path)
        warm_dir, cold_dir = base / "warm", base / "cold"
        os.makedirs(str(warm_dir)), os.makedirs(str(cold_dir))
        for name, text in modules:
            _write(warm_dir, name, text)
        build_dir(str(warm_dir), BuildOptions(cache_dir=str(base / "wc")))
        for name, text in edited:
            _write(warm_dir, name, text)
        incr = build_dir(str(warm_dir), BuildOptions(cache_dir=str(base / "wc")))
        for name, text in edited:
            _write(cold_dir, name, text)
        cold = build_dir(str(cold_dir), BuildOptions(cache_dir=str(base / "cc")))
        gp_incr, gp_cold = incr.link(), cold.link()
        for variant, expected_values in zip(doc["static_variants"], doc["values"]):
            a = repro.specialise(gp_incr, doc["goal"], variant, SpecOptions())
            b = repro.specialise(gp_cold, doc["goal"], variant, SpecOptions())
            assert repro.pretty_program(a.program) == repro.pretty_program(
                b.program
            )
            for vec, expected in zip(doc["dyn_inputs"], expected_values):
                assert a.run(*vec) == expected


# ---------------------------------------------------------------------------
# The interface store facade and digest skew.
# ---------------------------------------------------------------------------


def _power_schemes(tmp_path):
    _write(tmp_path, "Power", POWER)
    result = build_dir(
        str(tmp_path), BuildOptions(cache_dir=str(tmp_path / "cache"))
    )
    store = InterfaceStore()
    iface = store.load_text(
        result.cache.get_text(result.keys["Power"], IFACE_KIND)
    )
    return iface.schemes


def test_store_detects_def_digest_skew(tmp_path):
    schemes = _power_schemes(tmp_path)
    payload = json.loads(interface_text("Power", schemes))
    payload["digests"]["power"] = "0" * 64
    skewed = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    store = InterfaceStore()
    iface = store.load_text(skewed)
    problems = store.verify(iface)
    assert [p[0] for p in problems] == ["def_digest_skew"]
    assert problems[0][1] == "power"
    # The derived digest (not the stored one) is authoritative.
    assert iface.digests["power"] == scheme_digest(schemes["power"])


def test_check_reports_def_digest_skew(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    _write(src, "Power", POWER)
    iface_dir = str(tmp_path / "iface")
    build_dir(
        str(src),
        BuildOptions(cache_dir=str(tmp_path / "cache"), iface_dir=iface_dir),
    )
    bti = os.path.join(iface_dir, "Power.bti")
    with open(bti) as f:
        payload = json.load(f)
    payload["digests"]["power"] = "f" * 64
    with open(bti, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
    findings, checked = check_interfaces(str(src), iface_dir)
    assert checked == 1
    rules = [f.rule for f in findings]
    assert "def_digest_skew" in rules
    assert "corrupt-interface" not in rules, "skew is not corruption"
    assert "non-canonical" not in rules, "skew is the distinct finding"


def test_fsck_quarantines_digest_skew_distinctly(tmp_path):
    _write(tmp_path, "Power", POWER)
    cache_dir = str(tmp_path / "cache")
    result = build_dir(str(tmp_path), BuildOptions(cache_dir=cache_dir))
    cache = ArtifactCache(cache_dir)
    key = result.keys["Power"]
    payload = json.loads(cache.get_text(key, IFACE_KIND))
    payload["digests"]["power"] = "f" * 64
    cache.put_text(
        key, IFACE_KIND, json.dumps(payload, indent=1, sort_keys=True) + "\n"
    )
    report = fsck_cache(cache)
    # Intact but self-inconsistent: the distinct *stale* finding kind,
    # not generic corruption (it still moves to quarantine/ and still
    # fails the scan).
    assert not report.quarantined
    assert len(report.stale) == 1
    name, reason = report.stale[0]
    assert name == "%s.%s" % (key, IFACE_KIND)
    assert reason.startswith("iface.def_digest_skew")
    assert not report.ok


def test_build_publishes_no_defs_record_and_advances_refs(tmp_path):
    sources = _chain(2)
    _write_all(tmp_path, sources)
    result = build_dir(
        str(tmp_path), BuildOptions(cache_dir=str(tmp_path / "cache"))
    )
    objects = [filename for _, filename in result.cache.objects()]
    assert objects
    assert not [f for f in objects if f.endswith(".defs.json")]
    refs = result.cache.read_refs()
    assert refs == result.keys


def test_isomorphic_scheme_reuse_survives_missing_refs(tmp_path):
    """Deleting refs.json only loses the cut-off report: the rebuild
    has no previous interface to compare against."""
    sources = _chain(3)
    _write_all(tmp_path, sources)
    cache_dir = str(tmp_path / "cache")
    build_dir(str(tmp_path), BuildOptions(cache_dir=cache_dir))
    os.unlink(ArtifactCache(cache_dir).refs_path())
    _write(tmp_path, "M0", sources["M0"].replace("x * 2", "x * 3"))
    result = build_dir(str(tmp_path), BuildOptions(cache_dir=cache_dir))
    assert result.analysed == ["M0"]
    assert result.cached == ["M1", "M2"]
    (entry,) = result.rebuild.by_action("analysed")
    assert entry.cut_off == (), "no refs: nothing to compare against"
    assert result.report.ok


# ---------------------------------------------------------------------------
# Content-keyed memos: a warm rebuild pays per changed file.
# ---------------------------------------------------------------------------


def test_one_literal_edit_on_a_60_module_chain_parses_one_file(
    tmp_path, monkeypatch
):
    from repro.pipeline import build

    sources = _chain(60)
    _write_all(tmp_path, sources)
    cache = str(tmp_path / "cache")
    build_dir(str(tmp_path), BuildOptions(cache_dir=cache))

    parsed = []
    real_parse = build.parse_program

    def counting_parse(text):
        parsed.append(text)
        return real_parse(text)

    monkeypatch.setattr(build, "parse_program", counting_parse)
    edited = sources["M30"].replace("x * 2", "x * 5")
    _write(tmp_path, "M30", edited)
    result = build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    assert parsed == [edited]
    assert result.analysed == ["M30"]
    assert len(result.cached) == 59

    # A no-op rebuild parses nothing at all.
    parsed.clear()
    build_dir(str(tmp_path), BuildOptions(cache_dir=cache))
    assert parsed == []


def test_edit_then_revert_yields_the_right_module_each_time(tmp_path):
    from repro.lang.pretty import pretty_def
    from repro.pipeline import BuildEngine

    sources = _chain(4)
    edited = dict(sources, M0=sources["M0"].replace("x * 2", "x * 3"))
    src = tmp_path / "src"
    src.mkdir()
    _write_all(src, sources)
    options = BuildOptions(cache_dir=str(tmp_path / "cache"))
    original = build_dir(str(src), options)
    for step, version in enumerate((edited, sources, edited, sources)):
        _write(src, "M0", version["M0"])
        scanned, failures = BuildEngine(str(src), options).scan()
        assert failures == {}
        body = pretty_def(scanned["M0"].module.defs[1])
        assert ("x * 3" if version is edited else "x * 2") in body
        result = build_dir(str(src), options)
        cold_dir = tmp_path / ("cold%d" % step)
        cold_dir.mkdir()
        _write_all(cold_dir, version)
        cold = build_dir(
            str(cold_dir), BuildOptions(cache_dir=str(cold_dir / "cache"))
        )
        assert result.keys == cold.keys
        assert _artifacts(result) == _artifacts(cold)
    assert result.keys == original.keys


def test_equal_interface_texts_load_equal_interfaces(tmp_path):
    schemes = _power_schemes(tmp_path)
    text = interface_text("Power", schemes)
    copy = "".join(list(text))  # equal text, a distinct str object
    assert copy is not text
    first = InterfaceStore().load_text(text, origin="<first>")
    second = InterfaceStore().load_text(copy, origin="<second>")
    assert first == second
    assert first.schemes == schemes
    assert first.digests == {n: scheme_digest(s) for n, s in schemes.items()}


def test_corrupt_interface_names_its_origin_on_every_call():
    from repro.bt.interface import InterfaceError

    store = InterfaceStore()
    for origin in ("<first>", "<second>", "<first>"):
        with pytest.raises(InterfaceError, match=origin):
            store.load_text('{"format": 2, "module": "M"', origin=origin)


def test_memo_clear_helpers_force_a_fresh_parse(tmp_path, monkeypatch):
    from repro.bt.interface import clear_interface_memo
    from repro.pipeline import BuildEngine, build, incremental

    _write(tmp_path, "Power", POWER)
    engine = BuildEngine(str(tmp_path))
    first = engine.scan()[0]["Power"].module
    assert engine.scan()[0]["Power"].module is first  # a memo hit
    names = incremental.referenced_names(first)
    assert incremental.referenced_names(first) is names

    (tmp_path / "p").mkdir()
    text = interface_text("Power", _power_schemes(tmp_path / "p"))
    iface = InterfaceStore().load_text(text)
    assert InterfaceStore().load_text(text) is iface

    build.clear_scan_memo()
    incremental.clear_referenced_names_memo()
    clear_interface_memo()
    again = engine.scan()[0]["Power"].module
    assert again is not first and again == first
    assert incremental.referenced_names(first) is not names
    assert InterfaceStore().load_text(text) is not iface


def test_lru_memo_is_bounded_and_evicts_least_recently_used():
    from repro.lru import LruMemo

    memo = LruMemo(2)
    memo.put("a", 1)
    memo.put("b", 2)
    assert memo.get("a") == 1  # "b" is now least recently used
    memo.put("c", 3)
    assert len(memo) == 2
    assert (memo.get("a"), memo.get("b"), memo.get("c")) == (1, None, 3)
    assert memo.discard_where(lambda v: v == 3)
    assert not memo.discard_where(lambda v: v == 3)
    assert len(memo) == 1


def test_lru_memo_stays_bounded_and_consistent_under_threads():
    import sys
    import threading

    from repro.lru import LruMemo

    memo = LruMemo(8)
    errors = []

    def hammer(seed):
        try:
            for i in range(3000):
                key = (seed * 7 + i) % 32
                value = memo.get(key)
                if value is not None and value != ("v", key):
                    errors.append((key, value))
                memo.put(key, ("v", key))
                if len(memo) > 8:
                    errors.append(("size", len(memo)))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(memo) == 8


# ---------------------------------------------------------------------------
# The link memo: a relink pays per changed module.
# ---------------------------------------------------------------------------


def _link_counts(result):
    """``(reused, executed)`` as the link counted them."""
    metrics = result.stats.metrics
    return (
        metrics.counter("link.modules_reused").value,
        metrics.counter("link.modules_executed").value,
    )


def _residual(gp, goal, static):
    from repro.genext.engine import specialise
    from repro.lang.pretty import pretty_program

    return pretty_program(specialise(gp, goal, static).program)


def _cold_residual(result, goal, static):
    """The residual of a link that shares nothing with any other."""
    from repro.genext.link import link_genexts

    return _residual(link_genexts(result.genexts), goal, static)


def _recording_build_globals(monkeypatch):
    """Record what ``BuildResult.link`` unmarshals and compiles, through
    the build module's own ``marshal`` and ``compile`` globals."""
    import marshal
    import types

    from repro.pipeline import build

    unmarshalled, compiled = [], []

    def loads(data):
        unmarshalled.append(data)
        return marshal.loads(data)

    def counting_compile(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(
        build, "marshal", types.SimpleNamespace(loads=loads, dumps=marshal.dumps)
    )
    monkeypatch.setattr(build, "compile", counting_compile, raising=False)
    return unmarshalled, compiled


def test_relink_executes_only_modules_whose_code_or_imports_moved(
    tmp_path, monkeypatch
):
    sources = _chain(60)
    _write_all(tmp_path, sources)
    options = BuildOptions(cache_dir=str(tmp_path / "cache"))
    cold = build_dir(str(tmp_path), options)
    cold.link()
    assert _link_counts(cold) == (0, 60)
    unmarshalled, compiled = _recording_build_globals(monkeypatch)

    noop = build_dir(str(tmp_path), options)
    noop.link()
    assert _link_counts(noop) == (60, 0)
    assert (unmarshalled, compiled) == ([], [])

    _write(tmp_path, "M59", sources["M59"].replace("x * 2", "x * 5"))
    top = build_dir(str(tmp_path), options)
    gp = top.link()
    assert _link_counts(top) == (59, 1)
    assert (unmarshalled, compiled) == ([], ["M59.genext.py"])
    assert _residual(gp, "m59_f1", {"n": 2}) == _cold_residual(
        top, "m59_f1", {"n": 2}
    )

    # An edit at the bottom moves every function above it, but no
    # namespace holds an imported function: only M0 executes again.
    compiled.clear()
    _write(tmp_path, "M0", sources["M0"].replace("(x + 1)", "(x + 5)"))
    bottom = build_dir(str(tmp_path), options)
    gp = bottom.link()
    assert _link_counts(bottom) == (59, 1)
    assert (unmarshalled, compiled) == ([], ["M0.genext.py"])
    assert _residual(gp, "m59_f0", {"n": 61}) == _cold_residual(
        bottom, "m59_f0", {"n": 61}
    )

    # Reverting the edit finds the old code artifact: one unmarshal, one
    # execution.
    compiled.clear()
    _write(tmp_path, "M0", sources["M0"])
    reverted = build_dir(str(tmp_path), options)
    reverted.link()
    assert _link_counts(reverted) == (59, 1)
    assert (len(unmarshalled), compiled) == (1, [])


_DIAMOND = {
    "A": "module A where\n\na n x = if n == 0 then x else a (n - 1) (x * 2)\n",
    "B": "module B where\nimport A\n\nb n x = a n (x + 1)\n",
    "S": "module S where\n\ns n x = if n == 0 then x else s (n - 1) (x + 3)\n",
    "T": "module T where\nimport S\n\nt n x = s n (x + 4)\n",
    "Top": "module Top where\nimport B\nimport T\n\ntop n x = b n (t n x)\n",
}


def test_relink_never_rebinds_a_namespace_an_earlier_program_holds(tmp_path):
    _write_all(tmp_path, _DIAMOND)
    options = BuildOptions(cache_dir=str(tmp_path / "cache"))
    first = build_dir(str(tmp_path), options)
    p1 = first.link()
    before = _residual(p1, "top", {"n": 2})
    assert before == _cold_residual(first, "top", {"n": 2})

    _write(tmp_path, "A", _DIAMOND["A"].replace("x * 2", "x * 7"))
    second = build_dir(str(tmp_path), options)
    p2 = second.link()
    assert _link_counts(second) == (4, 1)
    after = _residual(p2, "top", {"n": 2})
    assert after == _cold_residual(second, "top", {"n": 2})
    assert after != before
    assert _residual(p1, "top", {"n": 2}) == before

    shared = sorted(n for n in p2.modules if p2.modules[n] is p1.modules[n])
    assert shared == ["B", "S", "T", "Top"]
    # Imported calls go through the running program's registry: no
    # namespace of either program holds an imported function.
    for program in (p1, p2):
        for module in program.modules.values():
            imported = [program.registry[n] for n in module.namespace["_IMPORTED"]]
            assert imported or module.name in ("A", "S")
            for value in module.namespace.values():
                assert not any(value is fn for fn in imported)


def test_relink_into_another_cache_publishes_every_code_artifact(tmp_path):
    import marshal
    import types

    from repro.pipeline.cache import CODE_KIND

    sources = _chain(6)
    src = tmp_path / "src"
    src.mkdir()
    _write_all(src, sources)
    build_dir(str(src), BuildOptions(cache_dir=str(tmp_path / "c1"))).link()

    second = build_dir(str(src), BuildOptions(cache_dir=str(tmp_path / "c2")))
    second.link()
    assert _link_counts(second) == (6, 0)
    store = ArtifactCache(str(tmp_path / "c2"))
    for name in sources:
        data = store.get_bytes(second.keys[name], CODE_KIND)
        assert isinstance(marshal.loads(data), types.CodeType)

    # A comment moves M2's key but not its genext source: the reused
    # module's code is published under the new key too.
    _write(src, "M2", "-- a comment\n" + sources["M2"])
    third = build_dir(str(src), BuildOptions(cache_dir=str(tmp_path / "c2")))
    third.link()
    assert third.keys["M2"] != second.keys["M2"]
    assert _link_counts(third) == (6, 0)
    assert store.has(third.keys["M2"], CODE_KIND)


def test_relink_recompiles_a_corrupt_code_artifact_of_an_edited_module(
    tmp_path, monkeypatch
):
    import marshal

    from repro.pipeline.cache import CODE_KIND

    sources = _chain(4)
    _write_all(tmp_path, sources)
    options = BuildOptions(cache_dir=str(tmp_path / "cache"))
    build_dir(str(tmp_path), options).link()
    edited = sources["M1"].replace("x * 2", "x * 3")
    _write(tmp_path, "M1", edited)
    build_dir(str(tmp_path), options).link()
    _write(tmp_path, "M1", sources["M1"])
    result = build_dir(str(tmp_path), options)
    store = ArtifactCache(str(tmp_path / "cache"))
    store.put_bytes(result.keys["M1"], CODE_KIND, b"\x00garbage")

    unmarshalled, compiled = _recording_build_globals(monkeypatch)
    gp = result.link()
    assert len(unmarshalled) == 1  # the corrupt artifact, rejected
    assert compiled == ["M1.genext.py"]
    code = marshal.loads(store.get_bytes(result.keys["M1"], CODE_KIND))
    assert code.co_filename == "M1.genext.py"
    assert _residual(gp, "m3_f0", {"n": 5}) == _cold_residual(
        result, "m3_f0", {"n": 5}
    )


def test_threads_relinking_two_edit_states_match_a_cold_link(tmp_path):
    import sys
    import threading

    sources = _chain(8)
    states = []
    for index, step in enumerate(("(x + 1)", "(x + 4)")):
        src = tmp_path / ("src%d" % index)
        src.mkdir()
        _write_all(src, dict(sources, M0=sources["M0"].replace("(x + 1)", step)))
        result = build_dir(
            str(src), BuildOptions(cache_dir=str(tmp_path / ("c%d" % index)))
        )
        states.append((result, _cold_residual(result, "m7_f0", {"n": 9})))
    assert states[0][1] != states[1][1]
    programs, errors = [], []

    def relink(first):
        try:
            for i in range(12):
                result, want = states[(first + i) % 2]
                gp = result.link()
                got = _residual(gp, "m7_f0", {"n": 9})
                if got != want:
                    errors.append((first, i))
                programs.append((gp, want))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=relink, args=(n % 2,)) for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # No later link rebound a namespace an earlier program holds.
    for gp, want in programs:
        assert _residual(gp, "m7_f0", {"n": 9}) == want


def test_threads_rebuilding_two_source_states_match_cold_builds(tmp_path):
    """The last build's records and the recorded stamps are process-wide:
    builds of two source states racing on one cache must each still get
    exactly what a cold build of their state gets."""
    import sys
    import threading

    sources = _chain(8)
    states = []
    for index, step in enumerate(("(x * 2)", "(x * 9)")):
        src = tmp_path / ("src%d" % index)
        src.mkdir()
        _write_all(src, dict(sources, M3=sources["M3"].replace("(x * 2)", step)))
        cold = build_dir(
            str(src), BuildOptions(cache_dir=str(tmp_path / ("cold%d" % index)))
        )
        states.append((str(src), cold.keys, [m.source for m in cold.genexts]))
    assert states[0][2] != states[1][2]
    options = BuildOptions(cache_dir=str(tmp_path / "shared"))
    for src, _, _ in states:
        build_dir(src, options)
    # Past the racy margin, so rebuilds are served by recorded stamps.
    back = 60 * 10**9
    for dirpath, _, files in os.walk(str(tmp_path)):
        for f in files:
            path = os.path.join(dirpath, f)
            st = os.stat(path)
            os.utime(path, ns=(st.st_atime_ns - back, st.st_mtime_ns - back))
    errors = []

    def rebuild(first):
        try:
            for i in range(10):
                src, keys, genexts = states[(first + i) % 2]
                result = build_dir(src, options)
                if result.keys != keys or [
                    m.source for m in result.genexts
                ] != genexts or result.analysed:
                    errors.append((first, i))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=rebuild, args=(n % 2,)) for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
