"""End-to-end integration across the on-disk artefact formats:

source .mod files → .bti interfaces → .genext.py modules → residual .mod
files → reload and run.  This is the full vendor/client story with every
artefact actually written to and read back from disk."""

import os

import pytest

import repro
from repro.genext.cogen import cogen_program
from repro.genext.link import load_genext_dir, write_genexts
from repro.interp import run_program
from repro.modsys.program import load_program_dir
from repro.residual.emit import TwoPassEmitter, emit_program_dir
from repro.api import BuildOptions, SpecOptions

LIB = """\
module Lib where

power n x = if n == 1 then x else x * power (n - 1) x
sumto n acc = if n == 0 then acc else sumto (n - 1) (acc + n)
"""

APP = """\
module App where
import Lib

main y = power 3 y + sumto 4 0
"""


@pytest.fixture
def project(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "Lib.mod").write_text(LIB)
    (src / "App.mod").write_text(APP)
    return tmp_path


def test_full_disk_pipeline(project):
    src_dir = str(project / "src")
    dist_dir = str(project / "dist")
    out_dir = str(project / "residual")

    # 1. Separate analysis with interface files on disk.
    built = repro.build_dir(src_dir, BuildOptions(iface_dir=src_dir))
    assert built.analysed == ["Lib", "App"]
    assert (project / "src" / "Lib.bti").exists()

    # 2. Cogen to disk.
    linked = load_program_dir(src_dir)
    analysis = repro.analyse_program(linked)
    write_genexts(cogen_program(analysis), dist_dir)
    assert sorted(os.listdir(dist_dir)) == ["App.genext.py", "Lib.genext.py"]

    # 3. Link from disk only (no sources consulted).
    gp = load_genext_dir(dist_dir)

    # 4. Specialise with streaming two-pass emission to disk.
    emitter = TwoPassEmitter(out_dir)
    result = repro.specialise(gp, "main", {}, SpecOptions(sink=emitter))
    emitter.finish()

    # 5. Reload the emitted residual modules and run them.
    # The streaming emitter wrote the memoised specialisations; the
    # in-memory program additionally carries the entry definition.
    emit_program_dir(result.program, out_dir)
    reloaded = load_program_dir(out_dir)
    for y in (0, 1, 2, 5):
        assert run_program(reloaded, result.entry, [y]) == y ** 3 + 10


def test_incremental_edit_only_reanalyses_app(project):
    src_dir = str(project / "src")
    options = BuildOptions(iface_dir=src_dir)
    repro.build_dir(src_dir, options)
    # Edit App only (content change; a mere touch would re-do nothing).
    (project / "src" / "App.mod").write_text(APP + "alt y = power 2 y\n")
    rebuilt = repro.build_dir(src_dir, options)
    assert rebuilt.analysed == ["App"]


def test_residual_emission_roundtrip_machine_compiler(tmp_path):
    from repro.bench.generators import machine_interpreter_source, random_machine_program
    from repro.modsys.program import load_program

    gp = repro.compile_genexts(machine_interpreter_source())
    prog = random_machine_program(15, seed=3)
    result = repro.specialise(gp, "run", {"prog": prog})
    out = str(tmp_path / "compiled")
    emit_program_dir(result.program, out)
    reloaded = load_program_dir(out)
    source = load_program(machine_interpreter_source())
    for acc in (0, 2, 7):
        assert run_program(reloaded, result.entry, [acc]) == run_program(
            source, "run", [prog, acc], fuel=10_000_000
        )
