"""Linker tests: in-memory and on-disk generating extensions."""

import os

import pytest

import repro
from repro.bench.generators import power_twice_main_source
from repro.bt.analysis import analyse_program
from repro.genext.cogen import cogen_program
from repro.genext.link import (
    GenextProgram,
    link_genexts,
    load_genext,
    load_genext_dir,
    write_genexts,
)
from repro.modsys.program import load_program


def genexts(source, force_residual=frozenset()):
    return cogen_program(
        analyse_program(load_program(source), force_residual=force_residual)
    )


def test_link_collects_exports_and_signatures():
    gp = link_genexts(genexts(power_twice_main_source()))
    assert set(gp.registry) == {"power", "twice", "main"}
    assert gp.signature("power").params == ("n", "x")
    assert gp.fn_info["twice"].module == "Twice"


def test_link_rejects_missing_dependency():
    modules = genexts(power_twice_main_source())
    without_power = [m for m in modules if m.name != "Power"]
    with pytest.raises(Exception):
        link_genexts(without_power)


def test_unresolved_import_fails_at_link_time():
    """A late-bound call is still checked when the program is linked,
    not first met while specialising."""
    from dataclasses import replace

    main = [m for m in genexts(power_twice_main_source()) if m.name == "Main"][0]
    # Without its imports the graph check would object first.
    alone = load_genext(replace(main, imports=()))
    with pytest.raises(ValueError) as exc:
        GenextProgram([alone])
    assert str(exc.value) == "unresolved functions at link time: power, twice"


def test_link_rejects_duplicate_functions():
    modules = genexts("module A where\n\nf x = x\n") + genexts(
        "module B where\n\nf x = x\n"
    )
    with pytest.raises(ValueError):
        link_genexts(list(modules))


def test_cross_module_calls_resolve_after_link():
    gp = link_genexts(genexts(power_twice_main_source()))
    result = repro.specialise(gp, "main", {})
    assert result.run(2) == 512


def test_write_and_load_genext_dir(tmp_path):
    modules = genexts(
        power_twice_main_source(), force_residual={"power", "twice", "main"}
    )
    write_genexts(modules, str(tmp_path))
    files = sorted(os.listdir(str(tmp_path)))
    assert files == ["Main.genext.py", "Power.genext.py", "Twice.genext.py"]
    gp = load_genext_dir(str(tmp_path))
    result = repro.specialise(gp, "main", {})
    assert result.run(2) == 512
    assert {m.name for m in result.program.modules} == {
        "Main",
        "Power",
        "PowerTwice",
    }


def test_loaded_dir_recovers_import_structure(tmp_path):
    modules = genexts(power_twice_main_source())
    write_genexts(modules, str(tmp_path))
    gp = load_genext_dir(str(tmp_path))
    assert set(gp.graph.imports_of("Main")) == {"Power", "Twice"}


def test_genexts_do_not_need_sources(tmp_path):
    """The black-box property: specialisation works from the generated
    files alone, with no ``.mod`` source present anywhere."""
    modules = genexts(power_twice_main_source())
    write_genexts(modules, str(tmp_path))
    assert not any(f.endswith(".mod") for f in os.listdir(str(tmp_path)))
    gp = load_genext_dir(str(tmp_path))
    result = repro.specialise(gp, "power", {"n": 3})
    assert result.run(2) == 8


def test_generated_module_compiles_standalone():
    (module,) = genexts("module M where\n\nf x = x + 1\n")
    loaded = load_genext(module)
    assert "f" in loaded.exports
    assert loaded.signatures["f"].params == ("x",)


def test_new_state_strategy_passthrough():
    gp = link_genexts(genexts("module M where\n\nf x = x\n"))
    assert gp.new_state("dfs").strategy == "dfs"
