"""Module system tests: graphs, topological order, loaders."""

import os

import pytest

from repro.lang.errors import LangError, ValidationError
from repro.modsys.graph import CyclicImportError, ModuleGraph
from repro.modsys.program import (
    link_program,
    load_program,
    load_program_dir,
    relink_with,
)
from repro.lang.ast import Program
from repro.lang.parser import parse_module, parse_program


def graph(**imports):
    return ModuleGraph({k: tuple(v) for k, v in imports.items()})


def test_topo_order_respects_imports():
    g = graph(A=[], B=["A"], C=["A", "B"])
    order = g.topo_order()
    assert order.index("A") < order.index("B") < order.index("C")


def test_topo_order_is_deterministic():
    g1 = graph(A=[], B=["A"], C=["A"])
    g2 = graph(A=[], B=["A"], C=["A"])
    assert g1.topo_order() == g2.topo_order()


def test_cycle_detection_reports_the_cycle():
    g = graph(A=["B"], B=["C"], C=["A"])
    with pytest.raises(CyclicImportError) as exc:
        g.topo_order()
    assert set(exc.value.cycle) >= {"A", "B", "C"}


def test_self_import_is_a_cycle():
    with pytest.raises(CyclicImportError):
        graph(A=["A"]).topo_order()


def test_unknown_import_rejected():
    with pytest.raises(LangError):
        graph(A=["Nowhere"])


def test_reachability_is_transitive():
    g = graph(A=[], B=["A"], C=["B"])
    assert g.reachable_from("C") == {"A", "B"}
    assert g.reachable_from("A") == frozenset()
    assert g.imports_transitively("C", "A")
    assert not g.imports_transitively("A", "C")


def test_dominance_reduction_drops_imported_modules():
    # C imports A: a combination {A, C} reduces to {C} (Sec. 5: "remove
    # any which are imported into others").
    g = graph(A=[], B=["A"], C=["A"])
    assert g.reduce_by_dominance({"A", "C"}) == frozenset({"C"})
    assert g.reduce_by_dominance({"B", "C"}) == frozenset({"B", "C"})
    assert g.reduce_by_dominance({"A"}) == frozenset({"A"})
    assert g.reduce_by_dominance(set()) == frozenset()


def test_dominance_reduction_chain():
    g = graph(A=[], B=["A"], C=["B"])
    assert g.reduce_by_dominance({"A", "B", "C"}) == frozenset({"C"})


# -- program loading ---------------------------------------------------------


def test_link_program_orders_and_resolves():
    lp = load_program(
        "module B where\nimport A\n\ng x = f x\n"
        "module A where\n\nf x = x\n"
    )
    assert lp.topo_order == ("A", "B")
    assert lp.symbols.module_of("g") == "B"
    assert lp.symbols.arity_of("f") == 1


def test_find_def():
    lp = load_program("module A where\n\nf x = x\n")
    module, d = lp.find_def("f")
    assert module.name == "A" and d.name == "f"


def test_load_program_dir(tmp_path):
    (tmp_path / "A.mod").write_text("module A where\n\nf x = x\n")
    (tmp_path / "B.mod").write_text("module B where\nimport A\n\ng x = f x\n")
    lp = load_program_dir(str(tmp_path))
    assert set(lp.program.module_names()) == {"A", "B"}


def test_load_program_dir_name_mismatch(tmp_path):
    (tmp_path / "A.mod").write_text("module Wrong where\n\nf x = x\n")
    with pytest.raises(ValidationError):
        load_program_dir(str(tmp_path))


def test_load_program_dir_multiple_modules_per_file_rejected(tmp_path):
    (tmp_path / "A.mod").write_text(
        "module A where\n\nf x = x\nmodule B where\n\ng x = x\n"
    )
    with pytest.raises(ValidationError):
        load_program_dir(str(tmp_path))


def test_relink_with_replaces_module():
    lp = load_program("module A where\n\nf x = x\n")
    new_a = parse_module("module A where\n\nf x = x + 1\n")
    lp2 = relink_with(lp, [new_a])
    assert lp2.module("A").defs[0].body != lp.module("A").defs[0].body


def test_relink_with_adds_module():
    lp = load_program("module A where\n\nf x = x\n")
    new_b = parse_module("module B where\nimport A\n\ng x = f x\n")
    lp2 = relink_with(lp, [new_b])
    assert lp2.topo_order == ("A", "B")


def _chain_modules(n=60):
    """An n-module import chain: ``m<i>_f0`` calls the module below's,
    ``m<i>_f1`` is called by nobody."""
    modules = []
    for i in range(n):
        below = "m%d_f0 (n - 1) (x + 1)" % (i - 1) if i else "x + 1"
        modules.append(
            parse_module(
                "module M%d where\n%s\nm%d_f0 n x = if n == 0 then x else %s\n"
                "m%d_f1 x = x * 2\n"
                % (i, "import M%d\n" % (i - 1) if i else "", i, below, i)
            )
        )
    return modules


def _replaced(modules, new):
    return Program(tuple(new if m.name == new.name else m for m in modules))


def test_relink_with_equals_a_full_link_and_reuses_untouched_modules():
    modules = _chain_modules()
    lp = link_program(Program(tuple(modules)))
    edited = parse_module(
        "module M30 where\nimport M29\n\n"
        "m30_f0 n x = if n == 0 then x else m29_f0 (n - 1) (x + 7)\n"
        "m30_f1 x = x * 2\n"
    )
    lp2 = relink_with(lp, [edited])
    want = link_program(_replaced(modules, edited))
    assert lp2.program == want.program
    assert lp2.topo_order == want.topo_order
    assert lp2.symbols.names() == want.symbols.names()
    assert lp2.module("M30") != lp.module("M30")
    assert [m.name for m in lp2.program.modules if m is not lp.module(m.name)] == [
        "M30"
    ]


def test_relink_with_re_resolves_an_importer_whose_import_changed_arity():
    modules = _chain_modules()
    lp = link_program(Program(tuple(modules)))
    edited = parse_module(
        "module M30 where\nimport M29\n\n"
        "m30_f0 n x = if n == 0 then x else m29_f0 (n - 1) (x + 1)\n"
        "m30_f1 x y = x * y\n"
    )
    lp2 = relink_with(lp, [edited])
    assert lp2.program == link_program(_replaced(modules, edited)).program
    fresh = [m.name for m in lp2.program.modules if m is not lp.module(m.name)]
    assert fresh == ["M30", "M31"]  # M32 reads only M31's unchanged table


def test_relink_with_still_rejects_a_bad_call():
    modules = _chain_modules()
    lp = link_program(Program(tuple(modules)))
    for bad in (
        # M31's call of m30_f0 is no longer saturated.
        "module M30 where\nimport M29\n\nm30_f0 n x y = x\nm30_f1 x = x\n",
        # A call of a function nobody defines.
        "module M30 where\nimport M29\n\nm30_f0 n x = nowhere x\nm30_f1 x = x\n",
    ):
        edited = parse_module(bad)
        with pytest.raises(ValidationError) as want:
            link_program(_replaced(modules, edited))
        with pytest.raises(ValidationError) as got:
            relink_with(lp, [edited])
        assert str(got.value) == str(want.value)


def test_cyclic_program_rejected_at_link():
    src = (
        "module A where\nimport B\n\nf x = x\n"
        "module B where\nimport A\n\ng x = x\n"
    )
    with pytest.raises(CyclicImportError):
        load_program(src)
