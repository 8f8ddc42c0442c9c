"""Python-backend tests: compiled programs agree with the interpreter."""

import pytest

import repro
from repro.backend import compile_program, emit_python, generate
from repro.interp import run_program
from repro.lang.prims import make_pair
from repro.modsys.program import load_program


def compiled(source):
    return compile_program(load_program(source))


def test_arithmetic():
    c = compiled("module M where\n\nf x y = x * 2 + y\n")
    assert c.call("f", 3, 4) == 10


def test_monus_subtraction():
    c = compiled("module M where\n\nf x y = x - y\n")
    assert c.call("f", 3, 5) == 0
    assert c.call("f", 5, 3) == 2


def test_division_faults_match_object_semantics():
    c = compiled("module M where\n\nf x = div x 0\n")
    with pytest.raises(Exception) as exc:
        c.call("f", 1)
    assert "division by zero" in str(exc.value)


def test_recursion():
    c = compiled(
        "module M where\n\nfact n = if n == 0 then 1 else n * fact (n - 1)\n"
    )
    assert c.call("fact", 10) == 3628800


def test_deep_recursion_supported():
    c = compiled(
        "module M where\n\ncount n = if n == 0 then 0 else 1 + count (n - 1)\n"
    )
    assert c.call("count", 20_000) == 20_000


def test_lists_and_pairs():
    c = compiled(
        "module M where\n\n"
        "rev xs = revacc xs nil\n"
        "revacc xs acc = if null xs then acc else revacc (tail xs) (head xs : acc)\n"
        "swap p = pair (snd p) (fst p)\n"
    )
    assert c.call("rev", (1, 2, 3)) == (3, 2, 1)
    assert c.call("swap", make_pair(1, 2)) == make_pair(2, 1)


def test_head_of_empty_faults():
    c = compiled("module M where\n\nf xs = head xs\n")
    with pytest.raises(Exception):
        c.call("f", ())


def test_higher_order():
    c = compiled(
        "module M where\n\n"
        "map f xs = if null xs then nil else (f @ head xs) : map f (tail xs)\n"
        "go k xs = map (\\x -> x * k) xs\n"
    )
    assert c.call("go", 3, (1, 2)) == (3, 6)


def test_keyword_and_prime_names_mangle():
    c = compiled("module M where\n\nf class' = class' + 1\n")
    assert c.call("f", 1) == 2


def test_underscore_leading_names_mangle():
    c = compiled("module M where\n\n_f _x = _x + _helper _x\n_helper y = y * 2\n")
    assert c.call("_f", 3) == 9


def test_colliding_mangles_stay_distinct():
    """``class'`` and ``class_q`` both naively mangle to ``class_q``;
    ``for`` and ``for_v`` both to ``for_v``.  The per-program mangle
    table must keep every pair apart and runnable."""
    c = compiled(
        "module M where\n\n"
        "go x = class' x + class_q x + for x + for_v x\n"
        "class' x = x * 2\n"
        "class_q x = x * 3\n"
        "for x = x * 5\n"
        "for_v x = x * 7\n"
    )
    assert c.call("go", 1) == 17
    assert c.call("class'", 4) == 8
    assert c.call("class_q", 4) == 12
    assert c.call("for", 4) == 20
    assert c.call("for_v", 4) == 28


def test_mangle_table_is_injective_and_deterministic():
    from repro.backend.pyemit import mangle_table

    lp = load_program(
        "module M where\n\n"
        "go x = class' x + class_q x + for x + for_v x + _x x\n"
        "class' x = x\nclass_q x = x\nfor x = x\nfor_v x = x\n_x x = x\n"
    )
    table = mangle_table(lp.program)
    assert len(set(table.values())) == len(table)
    assert table == mangle_table(lp.program)
    # Collision-free names keep their historical base mangling; the
    # sorted-first owner of a colliding base keeps it, later owners get
    # a _vN suffix.
    assert table["go"] == "go"
    assert table["class'"] == "class_q"
    assert table["class_q"] == "class_q_v2"
    assert table["for"] == "for_v"
    assert table["for_v"] == "for_v_v2"


def test_cross_module_programs_compile_into_one_unit():
    c = compiled(
        "module A where\n\ninc x = x + 1\n"
        "module B where\nimport A\n\ntwice x = inc (inc x)\n"
    )
    assert c.call("twice", 5) == 7
    assert "# module A" in c.source and "# module B" in c.source


def test_compiled_agrees_with_interpreter_on_corpus(corpus_case):
    case = corpus_case
    linked = load_program(case["source"])
    c = compile_program(linked)
    sig_params = linked.find_def(case["goal"])[1].params
    for dyn in case["dyn_inputs"]:
        dyn_iter = iter(dyn)
        args = [
            case["static"][p] if p in case["static"] else next(dyn_iter)
            for p in sig_params
        ]
        assert c.call(case["goal"], *args) == run_program(
            linked, case["goal"], args
        )


def test_emit_python_is_deterministic():
    lp = load_program("module M where\n\nf x = x + 1\n")
    assert emit_python(lp.program) == emit_python(lp.program)


# -- run-time code generation ----------------------------------------------------


def test_rtcg_generate_power():
    gp = repro.compile_genexts(
        "module Power where\n\n"
        "power n x = if n == 1 then x else x * power (n - 1) x\n"
    )
    cube = generate(gp, "power", {"n": 3})
    assert cube(5) == 125
    assert "def power" in cube.source


def test_rtcg_residual_loop():
    gp = repro.compile_genexts(
        "module Power where\n\n"
        "power n x = if n == 1 then x else x * power (n - 1) x\n"
    )
    pow2 = generate(gp, "power", {"x": 2})
    assert pow2(10) == 1024


def test_rtcg_machine_compiler():
    from repro.bench.generators import machine_interpreter_source

    gp = repro.compile_genexts(machine_interpreter_source())
    prog = (make_pair(1, 2), make_pair(0, 10))
    run = generate(gp, "run", {"prog": prog})
    assert run(5) == 20
    # The generated Python is straight-line residual code.
    assert "_head" not in run.source.split("# module")[1]


def test_rtcg_compiled_residual_agrees_with_interpreted_residual(corpus_case, corpus_genexts):
    case = corpus_case
    gp = corpus_genexts[case["name"]]
    fn = generate(gp, case["goal"], case["static"])
    result = repro.specialise(gp, case["goal"], case["static"])
    for dyn in case["dyn_inputs"]:
        assert fn(*dyn) == result.run(*dyn)
