"""E3: the cogen output for ``power`` has the structure of Fig. 3.

Fig. 3 shows ``mk-power`` (deciding unfold/residualise via ``mk-resid``
with the identification triple, the unfold thunk, and the body builder)
and ``mk-power-body`` (one ``mk-op`` per operation with a binding-time
parameter, coercions included).
"""

import pytest

from repro.bt.analysis import analyse_program
from repro.bench.generators import power_source
from repro.genext.cogen import cogen_module, cogen_program, mangle, mk_name
from repro.modsys.program import load_program


@pytest.fixture(scope="module")
def power_genext():
    analysis = analyse_program(load_program(power_source()))
    return cogen_module(analysis.modules[0])


def test_module_identity(power_genext):
    assert power_genext.name == "Power"
    assert power_genext.imports == ()


def test_mk_power_pair_exists(power_genext):
    src = power_genext.source
    assert "def mk_power(st, t, u, n, x):" in src
    assert "def mk_power_body(st, t, u, n, x):" in src


def test_mk_power_calls_mk_resid_with_triple(power_genext):
    src = power_genext.source
    # unfold binding time t, name, binding times, arguments.
    assert "rt.mk_resid(st, t, _QUAL + 'power', (t, u), (n, x)," in src


def test_unfold_thunk_and_body_builder(power_genext):
    src = power_genext.source
    assert "lambda: mk_power_body(st, t, u, n, x)" in src
    assert "lambda _a: mk_power_body(st, t, u, _a[0], _a[1])" in src


def test_operations_carry_binding_times(power_genext):
    src = power_genext.source
    assert "rt.mk_if(st, t," in src
    # One generating primitive per operator, binding time first.
    assert "rt.mk_eq(st, t, n," in src
    assert "rt.mk_mul(st, rt.lub(t, u)," in src
    assert "rt.mk_sub(st, t, n," in src
    assert "rt.mk_prim(" not in src


def test_coercions_present(power_genext):
    src = power_genext.source
    # Base-type coercions carry their target binding time, not a type
    # skeleton: a literal is emitted at that binding time directly.
    assert "rt.lit_at(t, 1)" in src
    assert "rt.coerce_base(st, x, rt.lub(t, u), 'Nat')" in src
    assert "rt.TBase(" not in src.split("_SIGNATURES = {}")[0]


def test_recursive_call_is_direct(power_genext):
    assert "mk_power(st, t, u, rt.mk_sub(st, t, n," in power_genext.source


def test_metadata_tables(power_genext):
    src = power_genext.source
    assert "_SIGNATURES[_QUAL + 'power'] = rt.Signature(bt_params=('t', 'u')" in src
    assert ("_FN_INFO[_QUAL + 'power'] = rt.FnInfo(_QUAL + 'power', _MODULE, "
        "('n', 'x'), (_QUAL + 'power',))") in src
    assert "_EXPORTS = {(_QUAL + 'power'): mk_power}" in src


def test_generated_source_compiles():
    analysis = analyse_program(load_program(power_source()))
    module = cogen_module(analysis.modules[0])
    compile(module.source, "<power genext>", "exec")


def test_cogen_is_deterministic():
    a1 = analyse_program(load_program(power_source()))
    a2 = analyse_program(load_program(power_source()))
    assert cogen_module(a1.modules[0]).source == cogen_module(a2.modules[0]).source


def test_cogen_per_module_independence():
    # The genext of a module is identical whether the module is compiled
    # alone or as part of a larger program — the paper's black-box
    # modularity property.
    alone = analyse_program(load_program(power_source()))
    together = analyse_program(
        load_program(
            power_source()
            + "\nmodule Use where\nimport Power\n\ncube y = power 3 y\n"
        )
    )
    assert (
        cogen_module(alone.modules[0]).source
        == cogen_module(together.modules[0]).source
    )


def test_imported_functions_are_linked_not_inlined():
    analysis = analyse_program(
        load_program(
            power_source()
            + "\nmodule Use where\nimport Power\n\ncube y = power 3 y\n"
        )
    )
    use = cogen_program(analysis)[1]
    assert use.name == "Use"
    assert "_IMPORTED = ('power',)" in use.source
    # Late-bound through the running program's registry, never a global.
    assert "st.mk['power'](st, " in use.source
    assert "def mk_power(" not in use.source  # not copied in


def test_mangle():
    assert mangle("foo") == "foo"
    assert mangle("x'") == "x_q"
    assert mangle("lambda") == "lambda_v"
    assert mangle("st") == "st_v"
    assert mk_name("f'") == "mk_f_q"


def test_lambda_helpers_are_hoisted():
    analysis = analyse_program(
        load_program(
            "module M where\n\n"
            "apply f x = f @ x\n"
            "go k x = apply (\\y -> y + k) x\n"
        )
    )
    src = cogen_module(analysis.modules[0]).source
    assert "def _go_lam1(" in src
    assert "rt.mk_lam(st, 'y', _go_lam1," in src
    assert "'go.lam1'" in src
