"""Specialisation-runtime unit tests: partially static values, splitting,
coercion/dynamisation, generating versions of the primitives."""

import pytest

from repro.genext import runtime as rt
from repro.lang.ast import Call, If, Lam, Lit, Prim, Var
from repro.modsys.graph import ModuleGraph


def state(strategy="bfs"):
    fn_info = {
        "f": rt.FnInfo("f", "A", ("a", "b"), ("f",)),
        "g": rt.FnInfo("g", "B", ("x",), ("g",)),
    }
    graph = ModuleGraph({"A": (), "B": ("A",)})
    return rt.SpecState(fn_info, graph, strategy=strategy)


# -- value injection -----------------------------------------------------------


def test_from_python_base_values():
    assert rt.from_python(5) == rt.SBase(5)
    assert rt.from_python(True) == rt.SBase(True)


def test_from_python_lists_and_pairs():
    pe = rt.from_python((1, 2))
    assert pe == rt.SList((rt.SBase(1), rt.SBase(2)))
    pe = rt.from_python(("pair", 1, (2,)))
    assert pe == rt.SPair(rt.SBase(1), rt.SList((rt.SBase(2),)))


def test_to_python_roundtrip():
    for v in (0, True, (1, 2, 3), ("pair", 1, 2), ((1,), (2, 3))):
        assert rt.to_python(rt.from_python(v)) == v


def test_to_python_rejects_dynamic():
    with pytest.raises(rt.SpecError):
        rt.to_python(rt.DCode(Var("x")))


# -- dynamisation -----------------------------------------------------------------


def test_dynamize_base():
    st = state()
    assert rt.dynamize(st, rt.SBase(7)) == rt.DCode(Lit(7))


def test_dynamize_list_builds_cons_chain():
    st = state()
    out = rt.dynamize(st, rt.SList((rt.SBase(1), rt.DCode(Var("y")))))
    assert out.code == Prim(
        "cons", (Lit(1), Prim("cons", (Var("y"), Lit(()))))
    )


def test_dynamize_pair():
    st = state()
    out = rt.dynamize(st, rt.SPair(rt.SBase(1), rt.SBase(2)))
    assert out.code == Prim("pair", (Lit(1), Lit(2)))


def test_dynamize_is_identity_on_code():
    st = state()
    d = rt.DCode(Var("x"))
    assert rt.dynamize(st, d) is d


def test_dynamize_closure_residualises_lambda():
    st = state()

    def helper(st_, arg):
        return rt.mk_prim(st_, "+", rt.D, (arg, rt.DCode(Lit(1))))

    clo = rt.SClo("x", helper, (), (), "lab", ())
    out = rt.dynamize(st, clo)
    assert isinstance(out.code, Lam)
    assert out.code.body == Prim("+", (Var(out.code.var), Lit(1)))


# -- coercion ---------------------------------------------------------------------


def test_coerce_static_base_target_is_identity():
    st = state()
    pe = rt.SBase(3)
    assert rt.coerce(st, pe, rt.TBase("Nat", rt.S)) is pe


def test_coerce_dynamic_base_lifts():
    st = state()
    assert rt.coerce(st, rt.SBase(3), rt.TBase("Nat", rt.D)) == rt.DCode(Lit(3))


def test_coerce_partially_static_list():
    st = state()
    pe = rt.SList((rt.SBase(1), rt.SBase(2)))
    out = rt.coerce(st, pe, rt.TList(rt.S, rt.TBase("Nat", rt.D)))
    assert out == rt.SList((rt.DCode(Lit(1)), rt.DCode(Lit(2))))


def test_coerce_dynamic_list_dynamises_fully():
    st = state()
    pe = rt.SList((rt.SBase(1),))
    out = rt.coerce(st, pe, rt.TList(rt.D, rt.TBase("Nat", rt.D)))
    assert out.code == Prim("cons", (Lit(1), Lit(())))


def test_coerce_pair_componentwise():
    st = state()
    pe = rt.SPair(rt.SBase(1), rt.SBase(2))
    out = rt.coerce(
        st, pe, rt.TPair(rt.S, rt.TBase("Nat", rt.S), rt.TBase("Nat", rt.D))
    )
    assert out == rt.SPair(rt.SBase(1), rt.DCode(Lit(2)))


def test_coerce_skel_static_identity():
    st = state()
    pe = rt.SBase(1)
    assert rt.coerce(st, pe, rt.TSkel(rt.S)) is pe


def test_coerce_skel_dynamic_dynamises():
    st = state()
    assert rt.coerce(st, rt.SBase(1), rt.TSkel(rt.D)) == rt.DCode(Lit(1))


def test_coerce_code_where_static_spine_needed_fails():
    st = state()
    with pytest.raises(rt.SpecError):
        rt.coerce(
            st, rt.DCode(Var("x")), rt.TList(rt.S, rt.TBase("Nat", rt.S))
        )


# -- generating versions of primitives -----------------------------------------------


def test_mk_prim_static_arithmetic():
    st = state()
    out = rt.mk_prim(st, "+", rt.S, (rt.SBase(2), rt.SBase(3)))
    assert out == rt.SBase(5)


def test_mk_prim_dynamic_builds_code():
    st = state()
    out = rt.mk_prim(st, "+", rt.D, (rt.DCode(Var("x")), rt.DCode(Lit(1))))
    assert out.code == Prim("+", (Var("x"), Lit(1)))


def test_mk_prim_static_cons_preserves_partial_values():
    st = state()
    out = rt.mk_prim(
        st, "cons", rt.S, (rt.DCode(Var("x")), rt.SList((rt.SBase(1),)))
    )
    assert out == rt.SList((rt.DCode(Var("x")), rt.SBase(1)))


def test_mk_prim_static_head_and_null():
    st = state()
    xs = rt.SList((rt.SBase(1), rt.SBase(2)))
    assert rt.mk_prim(st, "head", rt.S, (xs,)) == rt.SBase(1)
    assert rt.mk_prim(st, "null", rt.S, (xs,)) == rt.SBase(False)
    assert rt.mk_prim(st, "tail", rt.S, (xs,)) == rt.SList((rt.SBase(2),))


def test_mk_prim_static_error_surfaces_as_spec_error():
    st = state()
    with pytest.raises(rt.SpecError):
        rt.mk_prim(st, "head", rt.S, (rt.SList(()),))
    with pytest.raises(rt.SpecError):
        rt.mk_prim(st, "div", rt.S, (rt.SBase(1), rt.SBase(0)))


def test_mk_if_static_takes_one_branch():
    st = state()
    taken = []
    out = rt.mk_if(
        st,
        rt.S,
        rt.SBase(True),
        lambda: taken.append("then") or rt.SBase(1),
        lambda: taken.append("else") or rt.SBase(2),
    )
    assert out == rt.SBase(1)
    assert taken == ["then"]


def test_mk_if_dynamic_builds_both_branches():
    st = state()
    out = rt.mk_if(
        st,
        rt.D,
        rt.DCode(Var("c")),
        lambda: rt.DCode(Lit(1)),
        lambda: rt.DCode(Lit(2)),
    )
    assert out.code == If(Var("c"), Lit(1), Lit(2))


def test_mk_if_static_requires_boolean():
    st = state()
    with pytest.raises(rt.SpecError):
        rt.mk_if(st, rt.S, rt.SBase(3), lambda: None, lambda: None)


def test_mk_app_static_unfolds_closure():
    st = state()
    clo = rt.SClo(
        "x",
        lambda st_, arg: rt.mk_prim(st_, "+", rt.S, (arg, rt.SBase(1))),
        (),
        (),
        "lab",
        (),
    )
    assert rt.mk_app(st, rt.S, clo, rt.SBase(41)) == rt.SBase(42)


def test_mk_app_dynamic_builds_application():
    st = state()
    out = rt.mk_app(st, rt.D, rt.DCode(Var("f")), rt.DCode(Lit(1)))
    from repro.lang.ast import App

    assert out.code == App(Var("f"), Lit(1))


# -- mk_resid -------------------------------------------------------------------------


def _build_id_body(args):
    return rt.DCode(args[0].code)


def test_mk_resid_unfolds_when_static():
    st = state()
    out = rt.mk_resid(
        st, rt.S, "f", (rt.S,), (rt.SBase(1),),
        lambda: rt.SBase(99),
        _build_id_body,
    )
    assert out == rt.SBase(99)
    assert st.stats.unfolds == 1
    assert st.stats.specialisations == 0


def test_mk_resid_creates_residual_function():
    st = state()
    out = rt.mk_resid(
        st, rt.D, "f", (rt.D,), (rt.DCode(Var("q")),),
        lambda: pytest.fail("must not unfold"),
        _build_id_body,
    )
    assert isinstance(out.code, Call)
    assert out.code.args == (Var("q"),)
    st.run_pending()
    assert len(st.defs) == 1
    placement, d = st.defs[0]
    assert placement == frozenset({"A"})


def test_mk_resid_memoises_on_static_parts():
    st = state()
    common = dict(
        unfolded=lambda: None,
    )
    out1 = rt.mk_resid(
        st, rt.D, "f", (rt.S, rt.D), (rt.SBase(3), rt.DCode(Var("a"))),
        lambda: None, lambda args: rt.DCode(args[0].code if isinstance(args[0], rt.DCode) else Lit(0)),
    )
    out2 = rt.mk_resid(
        st, rt.D, "f", (rt.S, rt.D), (rt.SBase(3), rt.DCode(Var("b"))),
        lambda: None, lambda args: rt.DCode(Lit(0)),
    )
    assert out1.code.func == out2.code.func  # same residual function
    assert out1.code.args == (Var("a"),)
    assert out2.code.args == (Var("b"),)
    assert st.stats.specialisations == 1
    assert st.stats.memo_hits == 1


def test_mk_resid_distinguishes_binding_times():
    st = state()
    a = rt.mk_resid(
        st, rt.D, "f", (rt.S,), (rt.SBase(1),), lambda: None,
        lambda args: rt.DCode(Lit(1)),
    )
    b = rt.mk_resid(
        st, rt.D, "f", (rt.D,), (rt.DCode(Lit(1)),), lambda: None,
        lambda args: rt.DCode(Lit(1)),
    )
    assert a.code.func != b.code.func


def test_mk_resid_closure_static_part_in_key():
    st = state()

    def helper(st_, arg, k):
        return arg

    def call_with(kval, varname):
        clo = rt.SClo("x", helper, (), (("k", kval),), "lab", ("g",))
        return rt.mk_resid(
            st, rt.D, "f", (rt.S,), (clo,), lambda: None,
            lambda args: rt.DCode(Lit(0)),
        )

    a = call_with(rt.SBase(1), "p")
    b = call_with(rt.SBase(1), "q")
    c = call_with(rt.SBase(2), "r")
    assert a.code.func == b.code.func
    assert a.code.func != c.code.func


def test_mk_resid_closure_dynamic_env_becomes_parameter():
    st = state()

    def helper(st_, arg, k):
        return rt.mk_prim(st_, "+", rt.D, (arg, k))

    clo = rt.SClo("x", helper, (), (("k", rt.DCode(Var("z")),),), "lab", ("g",))
    out = rt.mk_resid(
        st, rt.D, "f", (rt.S,), (clo,), lambda: None,
        lambda args: args[0].apply(st, rt.DCode(Var("w"))),
    )
    # The dynamic environment component is passed as an argument.
    assert out.code.args == (Var("z"),)
    st.run_pending()


def test_placement_uses_closure_fvs():
    st = state()
    clo = rt.SClo("x", lambda st_, a: a, (), (), "lab", ("g",))
    placement = st.place("f", (clo,))
    # f lives in A, g in B; B imports A, so the combination reduces to B.
    assert placement == frozenset({"B"})


def test_fresh_names_are_deterministic():
    st = state()
    assert st.fresh_fun_name("f") == "f_1"
    assert st.fresh_fun_name("f") == "f_2"
    assert st.fresh_var("x") == "x_1"


def test_invalid_strategy_rejected():
    with pytest.raises(ValueError):
        rt.SpecState({}, ModuleGraph({}), strategy="zigzag")


# -- one generating primitive per operator -------------------------------------


def _pe(v):
    return v if isinstance(v, rt.PE) else rt.from_python(v)


# Well-typed static operands of every operator, as plain values.
_WELL_TYPED = {
    "or": (False, True),
    "and": (True, True),
    "==": (3, 3),
    "<": (2, 3),
    "<=": (3, 2),
    "cons": (1, (2, 3)),
    "+": (2, 3),
    "-": (2, 5),
    "*": (4, 5),
    "div": (7, 2),
    "mod": (7, 2),
    "not": (False,),
    "head": ((1, 2),),
    "tail": ((1, 2),),
    "null": ((),),
    "pair": (1, (2,)),
    "fst": (("pair", 1, (2,)),),
    "snd": (("pair", 1, (2,)),),
}

_CODE = rt.DCode(Var("d"))

# Ill-typed static operands and the error each must raise, verbatim.
_ILL_TYPED = [
    ("or", (1, True), "primitive failed during specialisation: expected a boolean, got 1"),
    ("or", (_CODE, True), "static 'or' applied to non-static operand"),
    ("and", (True, 0), "primitive failed during specialisation: expected a boolean, got 0"),
    ("==", (True, 1), "primitive failed during specialisation: expected a natural, got True"),
    ("<", (1, _CODE), "static '<' applied to non-static operand"),
    ("<=", (1, False), "primitive failed during specialisation: expected a natural, got False"),
    ("cons", (1, _CODE), "static 'cons' onto non-static list"),
    ("+", (True, 1), "primitive failed during specialisation: expected a natural, got True"),
    ("+", (_CODE, 1), "static '+' applied to non-static operand"),
    ("-", (1, True), "primitive failed during specialisation: expected a natural, got True"),
    ("*", ((), 2), "static '*' applied to non-static operand"),
    ("div", (1, 0), "primitive failed during specialisation: division by zero"),
    ("div", (True, 2), "primitive failed during specialisation: expected a natural, got True"),
    ("mod", (1, 0), "primitive failed during specialisation: modulo by zero"),
    ("not", (3,), "primitive failed during specialisation: expected a boolean, got 3"),
    ("not", (_CODE,), "static 'not' applied to non-static operand"),
    ("head", ((),), "head of empty list during specialisation"),
    ("head", (_CODE,), "static 'head' of non-static list"),
    ("tail", ((),), "tail of empty list during specialisation"),
    ("tail", (_CODE,), "static 'tail' of non-static list"),
    ("null", (_CODE,), "static 'null' of non-static list"),
    ("fst", ((1, 2),), "static 'fst' of non-static pair"),
    ("snd", (4,), "static 'snd' of non-static pair"),
]


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except rt.SpecError as e:
        return ("error", str(e))


def test_every_operator_has_one_generating_primitive():
    from repro.lang.prims import PRIMS

    assert set(rt.PRIMITIVES) == set(PRIMS)
    for op, fn in rt.PRIMITIVES.items():
        assert getattr(rt, fn.__name__) is fn


@pytest.mark.parametrize("op", sorted(_WELL_TYPED))
def test_primitive_static_agrees_with_the_interpreter(op):
    from repro.lang.prims import apply_prim

    st = state()
    plain = _WELL_TYPED[op]
    args = tuple(_pe(v) for v in plain)
    got = _outcome(rt.PRIMITIVES[op], st, rt.S, *args)
    assert got == ("value", rt.from_python(apply_prim(op, list(plain))))
    assert _outcome(rt.mk_prim, st, op, rt.S, args) == got


def test_static_monus_cuts_off_at_zero():
    st = state()
    assert rt.mk_sub(st, rt.S, rt.SBase(5), rt.SBase(2)) == rt.SBase(3)
    assert rt.mk_sub(st, rt.S, rt.SBase(2), rt.SBase(5)) == rt.SBase(0)


@pytest.mark.parametrize("op,plain,message", _ILL_TYPED)
def test_primitive_ill_typed_operands_raise_verbatim(op, plain, message):
    st = state()
    args = tuple(_pe(v) for v in plain)
    got = _outcome(rt.PRIMITIVES[op], st, rt.S, *args)
    assert got == ("error", message)
    assert _outcome(rt.mk_prim, st, op, rt.S, args) == got


def test_every_operator_has_an_ill_typed_case():
    assert {op for op, _, _ in _ILL_TYPED} == set(rt.PRIMITIVES) - {"pair"}


@pytest.mark.parametrize("op", sorted(_WELL_TYPED))
def test_primitive_dynamic_builds_the_prim_node(op):
    st = state()
    codes = tuple(Var("v%d" % i) for i in range(len(_WELL_TYPED[op])))
    args = tuple(rt.DCode(c) for c in codes)
    got = rt.PRIMITIVES[op](st, rt.D, *args)
    assert got == rt.DCode(Prim(op, codes))
    assert rt.mk_prim(st, op, rt.D, args) == got


def test_dynamic_primitive_rejects_a_static_operand():
    st = state()
    x, y = rt.SBase(1), rt.DCode(Var("x"))
    with pytest.raises(rt.SpecError, match="expected a dynamic value"):
        rt.mk_add(st, rt.D, x, y)
    with pytest.raises(rt.SpecError, match="expected a dynamic value"):
        rt.mk_prim(st, "+", rt.D, (x, y))


@pytest.mark.parametrize("bt", [rt.S, rt.D], ids=["S", "D"])
@pytest.mark.parametrize("value", [0, 7, True, False])
def test_lit_at_agrees_with_coercing_a_literal(bt, value):
    st = state()
    name = "Bool" if isinstance(value, bool) else "Nat"
    want = rt.coerce(st, rt.lit(value), rt.TBase(name, bt))
    got = rt.lit_at(bt, value)
    assert got == want and type(got) is type(want)
    if not bt.dyn:
        assert type(got.value) is type(value)  # True stays a boolean


@pytest.mark.parametrize("bt", [rt.S, rt.D], ids=["S", "D"])
@pytest.mark.parametrize(
    "pe", [rt.SBase(3), rt.SBase(True), rt.DCode(Var("x")), rt.SList(())]
)
def test_coerce_base_agrees_with_coerce(bt, pe):
    st = state()
    want = _outcome(rt.coerce, st, pe, rt.TBase("Nat", bt))
    assert _outcome(rt.coerce_base, st, pe, bt, "Nat") == want
