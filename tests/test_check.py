"""The correctness harness (``repro.check``) and its satellite fixes.

Covers: the seed-pinned golden corpus, the four-way differential
oracle (including byte-identity across ``--jobs`` widths), the
annotation lint (each Fig. 2 rule, positive and negative), the
interface fsck against deliberately skewed ``*.bti`` files, repro
bundles and replay, the ddmin-lite minimiser, the ``mspec check`` CLI,
and regression tests that the narrowed exception handlers (bus,
residual assembly, fault supervisor, residual cache) now let
programming errors surface.
"""

import dataclasses
import glob
import json
import logging
import os
import shutil

import pytest

from repro.anno.ast import ACoerce, AExpr, walk_aexpr
from repro.api import BuildOptions
from repro.bt.analysis import analyse_program
from repro.bt.bt import D, S
from repro.bt.interface import FORMAT_VERSION
from repro.check import EXIT_CHECK_FAILED, run_check
from repro.check.diff import DIFF_FUEL, minimise_case, run_case
from repro.check.driver import case_from_bundle, replay
from repro.check.gen import generate_case, generate_cases
from repro.check.lint import lint_aprogram, lint_linked
from repro.check.ifaces import check_interfaces
from repro.check.report import (
    CHECK_BUNDLE_SCHEMA,
    Finding,
    make_bundle,
    read_bundle,
    validate_bundle,
    write_bundle,
)
from repro.genext.cogen import cogen_program
from repro.genext.engine import specialise
from repro.genext.link import link_genexts
from repro.interp import run_program
from repro.lang.pretty import pretty_program
from repro.modsys.program import load_program, load_program_dir
from repro.pipeline import build_dir

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "seed*.json")))

EXAMPLES = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "modules"
)

TWO_MODULE_SOURCE = {
    "Power.mod": """\
module Power where

power n x = if n == 0 then 1 else x * power (n - 1) x
""",
    "Main.mod": """\
module Main where
import Power

main s d = power s d + power 2 d
""",
}


def _write_two_module_dir(path):
    os.makedirs(path, exist_ok=True)
    for name, text in TWO_MODULE_SOURCE.items():
        with open(os.path.join(path, name), "w") as f:
            f.write(text)
    return path


@pytest.fixture
def src_dir(tmp_path):
    return _write_two_module_dir(str(tmp_path / "src"))


@pytest.fixture
def analysed_dir(src_dir):
    """A source dir with freshly published ``*.bti`` files."""
    build_dir(src_dir, BuildOptions(iface_dir=src_dir))
    return src_dir


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_deterministic(self):
        a, b = generate_case(7), generate_case(7)
        assert a == b

    def test_distinct_seeds_distinct_programs(self):
        cases = generate_cases(6, seed=100)
        assert len({c.source for c in cases}) > 1

    def test_cases_are_runnable(self):
        for case in generate_cases(4, seed=40):
            linked = load_program(case.source)
            for valuation in case.static_variants:
                for vec in case.dyn_inputs:
                    run_program(
                        linked,
                        case.goal,
                        case.full_args(valuation, vec),
                        fuel=DIFF_FUEL,
                    )

    def test_static_split_is_proper(self):
        case = generate_case(3)
        assert case.static_args
        assert set(case.static_args) < set(case.params)


# ---------------------------------------------------------------------------
# Seed-pinned corpus: byte-identical residuals, agreeing values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "corpus_file", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_corpus_golden(corpus_file):
    with open(corpus_file) as f:
        doc = json.load(f)
    assert doc["schema"] == "repro.check.corpus/v1"
    linked = load_program(doc["source"])
    gp = link_genexts(cogen_program(analyse_program(linked)))
    for vi, valuation in enumerate(doc["static_variants"]):
        result = specialise(gp, doc["goal"], dict(valuation))
        assert pretty_program(result.program) == doc["residuals"][vi], (
            "residual for %s variant %d drifted from the pinned golden "
            "text — if intended, re-run tests/corpus/regenerate.py"
            % (os.path.basename(corpus_file), vi)
        )
        for vec, want in zip(doc["dyn_inputs"], doc["values"][vi]):
            got = result.run(*vec, fuel=DIFF_FUEL)
            listy = tuple(want) if isinstance(want, list) else want
            assert got == listy


def test_corpus_is_complete():
    assert len(CORPUS_FILES) == 25


def _case_from_corpus(doc):
    from repro.check.gen import GeneratedCase

    return GeneratedCase(
        seed=doc["seed"],
        source=doc["source"],
        goal=doc["goal"],
        static_args=dict(doc["static_args"]),
        static_variants=tuple(dict(v) for v in doc["static_variants"]),
        dyn_inputs=tuple(tuple(v) for v in doc["dyn_inputs"]),
        params=tuple(doc["params"]),
    )


@pytest.mark.parametrize(
    "corpus_file", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_corpus_agrees_across_tiers_and_widths(corpus_file):
    """Every pinned seed runs byte-identically through all five
    differential ways — including each rung of the execution ladder
    (interp / residual / compiled Python) — at --jobs widths 1 and 4."""
    with open(corpus_file) as f:
        doc = json.load(f)
    failures = run_case(_case_from_corpus(doc), jobs_widths=(1, 4))
    assert failures == [], failures


# ---------------------------------------------------------------------------
# Differential oracle
# ---------------------------------------------------------------------------


class TestDiffOracle:
    def test_fuzz_agrees_across_ways_and_widths(self):
        for case in generate_cases(6, seed=0):
            failures = run_case(case, jobs_widths=(1, 2))
            assert failures == [], "seed %d diverged: %r" % (
                case.seed,
                failures,
            )

    def test_detects_planted_value_divergence(self, monkeypatch):
        """A residual that runs to the wrong value must be reported."""
        import repro.check.diff as diff_mod

        case = generate_case(1)
        real = diff_mod._run_residual

        def skewed(result, vec, fuel=DIFF_FUEL):
            return real(result, vec, fuel) + 1

        monkeypatch.setattr(diff_mod, "_run_residual", skewed)
        failures = run_case(case, jobs_widths=(), check_cache=False)
        assert any(f["kind"] == "value" for f in failures)


# ---------------------------------------------------------------------------
# Annotation lint
# ---------------------------------------------------------------------------


def _map_aexpr(fn, e):
    kw = {}
    for f in dataclasses.fields(e):
        v = getattr(e, f.name)
        if isinstance(v, AExpr):
            kw[f.name] = _map_aexpr(fn, v)
        elif isinstance(v, tuple) and v and all(
            isinstance(x, AExpr) for x in v
        ):
            kw[f.name] = tuple(_map_aexpr(fn, x) for x in v)
    return fn(dataclasses.replace(e, **kw) if kw else e)


def _tamper_first_def(aprogram, predicate, rewrite):
    """``aprogram`` with the first def satisfying ``predicate``
    replaced by ``rewrite(def)``; asserts one was found."""
    mods, done = [], False
    for m in aprogram.modules:
        defs = []
        for d in m.defs:
            if not done and predicate(d):
                d = rewrite(d)
                done = True
            defs.append(d)
        mods.append(dataclasses.replace(m, defs=tuple(defs)))
    assert done, "no definition matched the tamper predicate"
    return dataclasses.replace(aprogram, modules=tuple(mods))


class TestLint:
    @pytest.fixture
    def annotated(self):
        return analyse_program(load_program_dir(EXAMPLES)).annotated

    def test_clean_program_lints_clean(self, annotated):
        assert lint_aprogram(annotated) == []

    def test_lint_linked_clean(self):
        assert lint_linked(load_program_dir(EXAMPLES)) == []

    def test_inflated_unfold_flag_detected(self, annotated):
        tampered = _tamper_first_def(
            annotated,
            lambda d: d.unfold == S,
            lambda d: dataclasses.replace(d, unfold=D),
        )
        rules = {f.rule for f in lint_aprogram(tampered)}
        assert "unfold-lub" in rules

    def test_downward_coercion_detected(self, annotated):
        def has_proper_coercion(d):
            return any(
                isinstance(n, ACoerce) and n.src != n.dst
                for n in walk_aexpr(d.body)
            )

        def flip(d):
            def swap(e):
                if isinstance(e, ACoerce) and e.src != e.dst:
                    return dataclasses.replace(e, src=e.dst, dst=e.src)
                return e

            return dataclasses.replace(d, body=_map_aexpr(swap, d.body))

        tampered = _tamper_first_def(annotated, has_proper_coercion, flip)
        findings = lint_aprogram(tampered)
        assert any(f.rule == "coercion-upward" for f in findings)
        assert all(f.check_pass == "lint" for f in findings)

    def test_mis_annotation_fails_whole_check(self, monkeypatch, tmp_path):
        """End to end: a lint error turns into ``mspec check`` exit 7."""
        import repro.check.driver as driver_mod

        monkeypatch.setattr(
            driver_mod,
            "lint_linked",
            lambda linked, force_residual, **strategies: [
                Finding(
                    check_pass="lint",
                    rule="coercion-upward",
                    where="X.f",
                    message="planted",
                )
            ],
        )
        report = run_check(EXAMPLES, fuzz=0)
        assert not report.ok
        assert report.exit_code == EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Interface fsck
# ---------------------------------------------------------------------------


class TestInterfaceFsck:
    def test_clean_interfaces_pass(self, analysed_dir):
        findings, checked = check_interfaces(analysed_dir)
        assert findings == []
        assert checked == 2

    def test_no_interfaces_means_skipped(self, src_dir):
        report = run_check(src_dir, fuzz=0)
        assert report.ok
        assert "ifaces" in report.skipped

    def test_skewed_interface_detected(self, analysed_dir):
        """Hand-edit one binding time inside ``Power.bti``: the fsck
        must flag the skew."""
        path = os.path.join(analysed_dir, "Power.bti")
        with open(path) as f:
            doc = json.load(f)
        # Skew the unfold slot of the first scheme to a nonsense value.
        fn = sorted(doc["schemes"])[0]
        doc["schemes"][fn]["unfold"] += 7
        with open(path, "w") as f:
            json.dump(doc, f, sort_keys=True, indent=1)
            f.write("\n")

        report = run_check(analysed_dir, fuzz=0)
        assert not report.ok
        assert report.exit_code == EXIT_CHECK_FAILED
        rules = {f.rule for f in report.findings}
        assert "scheme-skew" in rules
        skew = next(f for f in report.findings if f.rule == "scheme-skew")
        details = dict(skew.details)
        assert "committed" in details and "derived" in details

    def test_wrong_checkout_interface_detected(self, analysed_dir):
        """Replace ``Power.bti`` with ``Main``'s interface — the
        wrong-module guard fires before any scheme diffing."""
        shutil.copyfile(
            os.path.join(analysed_dir, "Main.bti"),
            os.path.join(analysed_dir, "Power.bti"),
        )
        findings, checked = check_interfaces(analysed_dir)
        assert checked == 2
        assert any(f.rule == "wrong-module" for f in findings)

    def test_non_canonical_serialisation_is_warning(self, analysed_dir):
        path = os.path.join(analysed_dir, "Power.bti")
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(text + "\n")
        findings, _ = check_interfaces(analysed_dir)
        non_canon = [f for f in findings if f.rule == "non-canonical"]
        assert non_canon and non_canon[0].severity == "warning"

    def test_source_edited_after_publishing_is_scheme_skew(
        self, analysed_dir
    ):
        """Interfaces published before an edit that moves a scheme: the
        re-derivation from the edited source disagrees with the edited
        module's interface and with its importer's, which was analysed
        against the old scheme."""
        with open(os.path.join(analysed_dir, "Power.mod"), "w") as f:
            f.write("module Power where\n\npower n x = x\n")
        findings, checked = check_interfaces(analysed_dir)
        assert checked == 2
        assert sorted((f.rule, f.where) for f in findings) == [
            ("scheme-skew", "Main.bti:main"),
            ("scheme-skew", "Power.bti:power"),
        ]

    def test_corrupt_interface_detected(self, analysed_dir):
        path = os.path.join(analysed_dir, "Power.bti")
        with open(path, "w") as f:
            f.write("{ not json")
        findings, _ = check_interfaces(analysed_dir)
        assert any(f.rule == "corrupt-interface" for f in findings)

    def test_non_utf8_interface_is_corrupt(self, analysed_dir):
        path = os.path.join(analysed_dir, "Main.bti")
        with open(path, "wb") as f:
            f.write(b"\xff\xfe\x00garbage")
        findings, _ = check_interfaces(analysed_dir)
        corrupt = [f for f in findings if f.rule == "corrupt-interface"]
        assert [f.where for f in corrupt] == ["Main.bti"]
        assert "Main.bti" in corrupt[0].message

    def test_retired_format_interface_is_stale(self, analysed_dir):
        """An interface an earlier version published is drift, with
        fsck's reason, not damage; it is still an error."""
        path = os.path.join(analysed_dir, "Power.bti")
        with open(path) as f:
            doc = json.load(f)
        doc["format"] = 2
        with open(path, "w") as f:
            json.dump(doc, f, sort_keys=True, indent=1)
        findings, _ = check_interfaces(analysed_dir)
        assert [(f.rule, f.where, f.severity) for f in findings] == [
            ("stale-interface", "Power.bti", "error")
        ]
        assert findings[0].message == (
            "retired interface format 2 (this version writes %d)"
            % FORMAT_VERSION
        )


# ---------------------------------------------------------------------------
# Repro bundles, replay, minimisation
# ---------------------------------------------------------------------------


class TestBundles:
    def test_round_trip(self, tmp_path):
        case = generate_case(11)
        failures = [{"way": "mix", "kind": "bytes", "message": "differs"}]
        path = str(tmp_path / "bundle.json")
        write_bundle(path, make_bundle(case, failures, "module M where"))
        doc = read_bundle(path)
        assert doc["schema"] == CHECK_BUNDLE_SCHEMA
        assert doc["seed"] == 11
        assert doc["failures"] == failures
        rebuilt = case_from_bundle(doc)
        assert rebuilt == case
        reduced = case_from_bundle(doc, minimised=True)
        assert reduced.source == "module M where"

    def test_validate_rejects_junk(self):
        assert validate_bundle([]) != []
        assert validate_bundle({"schema": "nope"}) != []
        good = make_bundle(generate_case(2), [])
        assert validate_bundle(good) == []

    def test_replay_of_fixed_divergence_is_clean(self, tmp_path):
        """Replaying a bundle whose bug has since been 'fixed' (the
        case actually agrees) reports no failures."""
        case = generate_case(5)
        path = str(tmp_path / "b.json")
        write_bundle(
            path,
            make_bundle(
                case, [{"way": "genext", "kind": "value", "message": "old"}]
            ),
        )
        _, failures = replay(path, jobs_widths=())
        assert failures == []

    def test_minimise_noop_when_case_passes(self):
        case = generate_case(9)
        assert minimise_case(case) == case.source

    def test_minimise_deletes_irrelevant_defs(self, monkeypatch):
        """With a planted failure predicate ('any program containing
        the goal fails'), minimisation strips everything else while
        keeping the program well-formed."""
        import repro.check.diff as diff_mod

        case = generate_case(13)
        full_defs = case.source.count("=")

        def planted(reduced, jobs_widths=(), check_cache=True, timeout=None, obs=None,
                    strategy_matrix=True):
            return [{"way": "genext", "kind": "value", "message": "planted"}]

        monkeypatch.setattr(diff_mod, "run_case", planted)
        reduced = minimise_case(case)
        # Still a valid program containing the goal, with fewer defs.
        linked = load_program(reduced)
        assert any(
            d.name == case.goal for _, d in linked.program.all_defs()
        )
        assert reduced.count("=") <= full_defs


# ---------------------------------------------------------------------------
# Driver + CLI
# ---------------------------------------------------------------------------


class TestDriverAndCli:
    def test_run_check_clean(self):
        report = run_check(EXAMPLES, fuzz=3, jobs_widths=(1,))
        assert report.ok
        assert report.exit_code == 0
        assert report.counters.get("check.programs") == 3
        assert "check.divergences" not in report.counters

    def test_run_check_writes_bundle_on_divergence(
        self, monkeypatch, tmp_path
    ):
        import repro.check.driver as driver_mod

        def planted(case, jobs_widths=(1,), check_cache=True, timeout=None, obs=None,
                    strategy_matrix=True):
            return [{"way": "mix", "kind": "bytes", "message": "planted"}]

        monkeypatch.setattr(driver_mod, "run_case", planted)
        bundle_dir = str(tmp_path / "bundles")
        report = run_check(
            EXAMPLES,
            fuzz=1,
            seed=21,
            bundle_dir=bundle_dir,
            minimise=False,
        )
        assert not report.ok
        assert report.counters.get("check.divergences") == 1
        assert len(report.bundles) == 1
        doc = read_bundle(report.bundles[0])
        assert doc["seed"] == 21

    def test_cli_check_ok(self, capsys):
        from repro.cli import main

        assert main(["check", EXAMPLES, "--fuzz", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_cli_check_json_is_valid_report(self, capsys):
        from repro.cli import main
        from repro.obs.schema import validate_report

        assert main(["check", EXAMPLES, "--fuzz", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_report(doc) == []
        assert doc["command"] == "check"

    def test_cli_check_skewed_dir_exits_7(self, analysed_dir, capsys):
        from repro.cli import main

        path = os.path.join(analysed_dir, "Power.bti")
        with open(path) as f:
            doc = json.load(f)
        fn = sorted(doc["schemes"])[0]
        doc["schemes"][fn]["unfold"] += 7
        with open(path, "w") as f:
            json.dump(doc, f)
        code = main(["check", analysed_dir, "--fuzz", "0"])
        assert code == EXIT_CHECK_FAILED
        assert "scheme-skew" in capsys.readouterr().out

    def test_cli_replay(self, tmp_path, capsys):
        from repro.cli import main

        case = generate_case(4)
        path = str(tmp_path / "b.json")
        write_bundle(path, make_bundle(case, [{"way": "x", "kind": "y", "message": "z"}]))
        assert main(["check", "--replay", path]) == 0
        assert "no longer reproduces" in capsys.readouterr().out

    def test_cli_requires_dir_or_replay(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["check"])

    def test_cli_rejects_bad_jobs_widths(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["check", EXAMPLES, "--jobs-widths", "1,zero"])


# ---------------------------------------------------------------------------
# Narrowed exception handlers (the silent-failure sweep)
# ---------------------------------------------------------------------------


class TestBusAccounting:
    def _bus(self):
        from repro.obs.bus import EventBus

        return EventBus(strict=False)

    def test_default_bus_counts_and_logs_once(self, caplog):
        bus = self._bus()

        def bad(kind, payload):
            raise RuntimeError("boom")

        bus.subscribe("tick", bad)
        with caplog.at_level(logging.WARNING, logger="repro.obs.bus"):
            bus.emit("tick")
            bus.emit("tick")
            bus.emit("tick")
        assert bus.subscriber_errors == 3
        warnings = [
            r for r in caplog.records if "suppressed" in r.getMessage()
        ]
        assert len(warnings) == 1  # first failure only

    def test_strict_bus_raises(self):
        from repro.obs.bus import EventBus

        bus = EventBus(strict=True)
        bus.on_metric(lambda *a: (_ for _ in ()).throw(ValueError("x")))
        with pytest.raises(ValueError):
            bus.metric("n", "counter", 1)

    def test_test_suite_buses_are_strict_by_default(self):
        # The autouse conftest fixture flips the default for the suite.
        from repro.obs.bus import EventBus

        assert EventBus().strict

    def test_errors_surface_in_metrics_snapshot(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.schema import validate_metrics

        bus = self._bus()
        registry = MetricsRegistry(bus)
        bus.on_span_end(lambda e: 1 / 0)
        bus.span_end({"name": "s"})
        bus.span_end({"name": "s"})
        snap = registry.snapshot()
        assert snap["counters"]["bus.subscriber_errors"] == 2
        assert validate_metrics(snap) == []

    def test_one_channel_failure_does_not_starve_others(self):
        bus = self._bus()
        seen = []
        bus.subscribe("tick", lambda k, p: 1 / 0)
        bus.subscribe("tick", lambda k, p: seen.append(k))
        bus.emit("tick")
        assert seen == ["tick"]
        assert bus.subscriber_errors == 1


class TestNarrowedHandlers:
    def test_speccache_parse_rejection_is_cache_miss(self):
        from repro.speccache import SPECCACHE_SCHEMA, validate_payload_bytes

        payload = {
            "schema": SPECCACHE_SCHEMA,
            "entry": "f",
            "dynamic_params": [],
            "stats": {},
            "module_names": [],
            "program": "module ( garbage",
        }
        reason = validate_payload_bytes(json.dumps(payload).encode())
        assert reason is not None
        assert "does not parse" in reason

    def test_speccache_programming_error_propagates(self, monkeypatch):
        import repro.speccache as speccache
        from repro.speccache import SPECCACHE_SCHEMA, validate_payload_bytes

        def buggy_parser(text):
            raise TypeError("parser bug")

        monkeypatch.setattr(speccache, "parse_program", buggy_parser)
        payload = {
            "schema": SPECCACHE_SCHEMA,
            "entry": "f",
            "dynamic_params": [],
            "stats": {},
            "module_names": [],
            "program": "module M where",
        }
        with pytest.raises(TypeError):
            validate_payload_bytes(json.dumps(payload).encode())

    def test_kill_pool_swallows_dead_worker_errors_only(self):
        # The narrowed handler lives in WorkerPool.kill (the shared
        # pool-lifecycle seam behind the supervisor and the daemon).
        from repro.pipeline.pool import WorkerPool

        class Proc:
            def __init__(self, exc):
                self.exc = exc
                self.terminated = False

            def terminate(self):
                if self.exc is not None:
                    raise self.exc
                self.terminated = True

        class Executor:
            def __init__(self, procs):
                self._processes = dict(enumerate(procs))
                self.shut_down = False

            def shutdown(self, wait=False, cancel_futures=True):
                self.shut_down = True

        pool = WorkerPool(1)
        ok = Proc(None)
        executor = Executor([Proc(OSError("gone")), ok])
        pool._executor = executor
        pool.kill()  # OSError from an already-dead worker: fine
        assert ok.terminated and executor.shut_down

        pool._executor = Executor([Proc(TypeError("bug"))])
        with pytest.raises(TypeError):
            pool.kill()

    def test_residual_cycle_is_structure_error(self):
        from repro.lang.ast import Call, Def, Var
        from repro.residual.module import (
            ResidualStructureError,
            assemble_program,
        )

        placed = [
            (frozenset({"A"}), Def("f", ("x",), Call("g", (Var("x"),)))),
            (frozenset({"B"}), Def("g", ("x",), Call("f", (Var("x"),)))),
        ]
        with pytest.raises(ResidualStructureError, match="cyclic"):
            assemble_program(placed)

    def test_residual_assembly_bug_propagates(self, monkeypatch):
        from repro.lang.ast import Def, Lit
        from repro.modsys.graph import ModuleGraph
        from repro.residual.module import assemble_program

        def buggy(self):
            raise TypeError("graph bug")

        monkeypatch.setattr(ModuleGraph, "topo_order", buggy)
        placed = [(frozenset({"A"}), Def("f", ("x",), Lit(1)))]
        with pytest.raises(TypeError):
            assemble_program(placed)
