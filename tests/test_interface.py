"""Binding-time interface files: serialisation round-trips, the module
key, and separate analysis through the build engine (content-digest
invalidation)."""

import json
import os

import pytest

from repro.api import BuildOptions
from repro.bt.analysis import analyse_program
from repro.bt.interface import (
    InterfaceError,
    module_key_v2,
    read_interface,
    scheme_from_json,
    scheme_to_json,
    write_interface,
)
from repro.modsys.program import load_program, load_program_dir
from repro.pipeline import build_dir

LIB = "module Lib where\n\npower n x = if n == 1 then x else x * power (n - 1) x\nident x = x\n"
APP = "module App where\nimport Lib\n\ncube y = power 3 y\n"


def all_schemes(source):
    return analyse_program(load_program(source)).schemes


def test_scheme_json_roundtrip():
    for name, scheme in all_schemes(LIB).items():
        assert scheme_from_json(scheme_to_json(scheme)) == scheme


def test_scheme_json_roundtrip_higher_order():
    src = (
        "module M where\n\n"
        "map f xs = if null xs then nil else (f @ head xs) : map f (tail xs)\n"
        "swap p = pair (snd p) (fst p)\n"
    )
    for scheme in all_schemes(src).values():
        assert scheme_from_json(scheme_to_json(scheme)) == scheme


def test_json_is_actually_json():
    scheme = all_schemes(LIB)["power"]
    text = json.dumps(scheme_to_json(scheme))
    assert scheme_from_json(json.loads(text)) == scheme


def test_interface_file_roundtrip(tmp_path):
    schemes = all_schemes(LIB)
    path = str(tmp_path / "Lib.bti")
    write_interface(path, "Lib", schemes)
    name, loaded = read_interface(path)
    assert name == "Lib"
    assert loaded == schemes


def test_malformed_interface_rejected(tmp_path):
    path = str(tmp_path / "Bad.bti")
    (tmp_path / "Bad.bti").write_text("{not json")
    with pytest.raises(InterfaceError):
        read_interface(path)


def test_truncated_interface_rejected(tmp_path):
    """A partially written (torn) file raises InterfaceError naming the
    path, never a bare json.JSONDecodeError."""
    good = str(tmp_path / "Lib.bti")
    write_interface(good, "Lib", all_schemes(LIB))
    text = open(good).read()
    bad = tmp_path / "Torn.bti"
    bad.write_text(text[: len(text) // 2])
    with pytest.raises(InterfaceError) as excinfo:
        read_interface(str(bad))
    assert "Torn.bti" in str(excinfo.value)


@pytest.mark.parametrize(
    "payload",
    [
        "[1, 2, 3]",  # valid JSON, wrong top-level shape
        '"just a string"',
        '{"format": 2, "schemes": {}}',  # module missing
        '{"format": 2, "module": "X"}',  # schemes missing
        '{"format": 2, "module": "X", "schemes": []}',  # schemes wrong type
        '{"format": 2, "module": "X", "schemes": {"f": {"args": "?"}}}',
    ],
)
def test_structurally_wrong_interface_rejected(tmp_path, payload):
    path = tmp_path / "Bad.bti"
    path.write_text(payload)
    with pytest.raises(InterfaceError):
        read_interface(str(path))


def test_wrong_format_version_rejected(tmp_path):
    path = str(tmp_path / "Bad.bti")
    for version in (999, 1):
        (tmp_path / "Bad.bti").write_text(
            '{"format": %d, "module": "X", "schemes": {}}' % version
        )
        with pytest.raises(InterfaceError, match="unsupported interface format"):
            read_interface(path)


def test_write_interface_is_atomic(tmp_path, monkeypatch):
    """A crash mid-serialisation must leave the previous file intact and
    no temp droppings behind."""
    path = str(tmp_path / "Lib.bti")
    schemes = all_schemes(LIB)
    write_interface(path, "Lib", schemes)
    before = open(path).read()

    import repro.bt.interface as iface_mod

    def explode(*args, **kwargs):
        raise RuntimeError("disk full")

    monkeypatch.setattr(iface_mod, "interface_text", explode)
    with pytest.raises(RuntimeError):
        write_interface(path, "Lib", schemes)
    monkeypatch.undo()
    assert open(path).read() == before

    # Interrupt *after* serialisation, inside the actual write.
    real_replace = os.replace

    def no_replace(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", no_replace)
    with pytest.raises(OSError):
        write_interface(path, "Lib", schemes)
    monkeypatch.setattr(os, "replace", real_replace)
    assert open(path).read() == before
    assert sorted(os.listdir(str(tmp_path))) == ["Lib.bti"], "no temp leftovers"


def test_interface_serialisation_is_canonical(tmp_path):
    """Writing the same schemes twice gives byte-identical files — the
    property the digest scheme equates with semantic equality."""
    schemes = all_schemes(LIB)
    a, b = str(tmp_path / "A.bti"), str(tmp_path / "B.bti")
    write_interface(a, "Lib", schemes)
    write_interface(b, "Lib", dict(reversed(list(schemes.items()))))
    assert open(a).read() == open(b).read()


def test_module_key_v2_is_pinned():
    """A module hashes the same bytes for as long as ``CACHE_EPOCH``
    stands, so build artifacts cached by earlier releases stay warm.
    Pinned at epoch 4: the bump from 3 came with one generating
    primitive per operator and skeleton-free base coercions in the
    generated code, which changed every genext source."""
    key = module_key_v2(
        APP.encode("utf-8"), ("Lib",), [("power", "ab" * 32)], {"cube"}
    )
    assert key == (
        "2453021794917e244fe59272f56ee3ee840cb64426a29129748256118d3233af"
    )


def _write_sources(tmp_path):
    (tmp_path / "Lib.mod").write_text(LIB)
    (tmp_path / "App.mod").write_text(APP)


def _analyse(tmp_path, cache_dir=None):
    """Bring every ``*.bti`` in ``tmp_path`` up to date, as ``mspec
    analyze`` does; returns ``(schemes, modules re-analysed)``."""
    result = build_dir(
        str(tmp_path), BuildOptions(cache_dir=cache_dir, iface_dir=str(tmp_path))
    )
    schemes = {}
    for m in result.rebuild.modules:
        schemes.update(read_interface(str(tmp_path / (m.module + ".bti")))[1])
    analysed = [m.module for m in result.rebuild.modules if m.action != "cached"]
    return schemes, analysed


def test_manager_analyses_in_dependency_order(tmp_path):
    _write_sources(tmp_path)
    schemes, analysed = _analyse(tmp_path)
    assert analysed == ["Lib", "App"]
    assert set(schemes) == {"power", "ident", "cube"}
    assert os.path.exists(str(tmp_path / "Lib.bti"))
    assert os.path.exists(str(tmp_path / "App.bti"))


def test_manager_skips_up_to_date_modules(tmp_path):
    _write_sources(tmp_path)
    _analyse(tmp_path)
    _, analysed = _analyse(tmp_path)
    assert analysed == []


def test_manager_reanalyses_on_source_change(tmp_path):
    _write_sources(tmp_path)
    _analyse(tmp_path)
    (tmp_path / "App.mod").write_text(APP + "quad y = power 4 y\n")
    _, analysed = _analyse(tmp_path)
    assert analysed == ["App"]


def test_manager_reanalyses_importers_when_library_interface_changes(tmp_path):
    _write_sources(tmp_path)
    _analyse(tmp_path)
    # A new export changes Lib's interface, but App's key reads only
    # the scheme of the one definition it calls: App stays cached.
    (tmp_path / "Lib.mod").write_text(LIB + "twice x = x + x\n")
    _, analysed = _analyse(tmp_path)
    assert analysed == ["Lib"]
    # A new scheme for power changes App's key too.
    (tmp_path / "Lib.mod").write_text(
        "module Lib where\n\npower n x = x\nident x = x\n"
    )
    _, analysed = _analyse(tmp_path)
    assert analysed == ["Lib", "App"]


def test_manager_ignores_touch(tmp_path):
    """Timestamps are irrelevant: utime without a content change (touch,
    fresh checkout) must not re-analyse anything."""
    _write_sources(tmp_path)
    _analyse(tmp_path)
    import time

    future = time.time() + 100
    os.utime(str(tmp_path / "Lib.mod"), (future, future))
    os.utime(str(tmp_path / "App.mod"), (future, future))
    _, analysed = _analyse(tmp_path)
    assert analysed == []


def test_early_cutoff_stops_propagation_at_unchanged_interface(tmp_path):
    """Editing Lib in a way that leaves its *interface* byte-identical
    (a comment) re-analyses Lib but — early cutoff — not App, because
    App's key is built from Lib's scheme digests, not Lib's source."""
    _write_sources(tmp_path)
    _analyse(tmp_path)
    iface_before = open(str(tmp_path / "Lib.bti")).read()
    (tmp_path / "Lib.mod").write_text("-- a comment\n" + LIB)
    _, analysed = _analyse(tmp_path)
    assert analysed == ["Lib"], "the edit dirties Lib alone"
    assert open(str(tmp_path / "Lib.bti")).read() == iface_before
    # And the transitive case: a *semantic* Lib change must still reach
    # an importer-of-an-importer when the middle interface changes.
    (tmp_path / "Top.mod").write_text(
        "module Top where\nimport App\n\nmain z = cube z + 1\n"
    )
    _, analysed = _analyse(tmp_path)
    assert analysed == ["Top"]
    (tmp_path / "Lib.mod").write_text(LIB + "cubeof x = x * x * x\n")
    _, analysed = _analyse(tmp_path)
    # Lib's interface changed, but App references no new definition:
    # the cutoff is at App's import, so App and Top stay cached.
    assert analysed == ["Lib"]
    # When a scheme the middle module exports, and Top uses, changes,
    # propagation reaches the importer-of-an-importer.
    (tmp_path / "App.mod").write_text(APP.replace("power 3 y", "27"))
    _, analysed = _analyse(tmp_path)
    assert analysed == ["App", "Top"]


def test_manager_matches_whole_program_analysis(tmp_path):
    _write_sources(tmp_path)
    schemes, _ = _analyse(tmp_path)
    whole = analyse_program(load_program_dir(str(tmp_path))).schemes
    assert schemes == whole


def test_manager_force_reanalyses_everything(tmp_path):
    """Re-analysing everything means a fresh cache, and it rewrites no
    interface byte."""
    _write_sources(tmp_path)
    _analyse(tmp_path)
    before = {m: (tmp_path / (m + ".bti")).read_bytes() for m in ("Lib", "App")}
    _, analysed = _analyse(tmp_path, cache_dir=str(tmp_path / "fresh"))
    assert analysed == ["Lib", "App"]
    assert before == {
        m: (tmp_path / (m + ".bti")).read_bytes() for m in ("Lib", "App")
    }
