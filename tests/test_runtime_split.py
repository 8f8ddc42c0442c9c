"""Deep tests of mk_resid argument splitting and memoisation keys."""

import pytest

from repro.genext import runtime as rt
from repro.lang.ast import Call, Lit, Var
from repro.modsys.graph import ModuleGraph


def state():
    fn_info = {"f": rt.FnInfo("A", ("a",))}
    return rt.SpecState(fn_info, ModuleGraph({"A": ()}))


def resid(st, arg, build=None):
    return rt.mk_resid(
        st, rt.D, "f", (rt.D,), (arg,),
        lambda: pytest.fail("must not unfold"),
        build or (lambda args: rt.DCode(Lit(0))),
    )


def test_partially_static_list_splits_per_element():
    st = state()
    arg = rt.SList((rt.SBase(1), rt.DCode(Var("p")), rt.SBase(2),
                    rt.DCode(Var("q"))))
    out = resid(st, arg)
    # Dynamic leaves become arguments, in order.
    assert out.code.args == (Var("p"), Var("q"))


def test_rebuild_preserves_structure():
    st = state()
    seen = {}

    def build(args):
        seen["arg"] = args[0]
        return rt.DCode(Lit(0))

    arg = rt.SPair(rt.SBase(7), rt.DCode(Var("d")))
    resid(st, arg, build)
    st.run_pending()
    rebuilt = seen["arg"]
    assert isinstance(rebuilt, rt.SPair)
    assert rebuilt.fst == rt.SBase(7)
    assert isinstance(rebuilt.snd, rt.DCode)
    # The dynamic leaf was renamed to a fresh formal parameter.
    assert rebuilt.snd.code != Var("d")


def test_keys_distinguish_static_structure():
    st = state()
    a = resid(st, rt.SList((rt.SBase(1), rt.DCode(Var("x")))))
    b = resid(st, rt.SList((rt.DCode(Var("x")), rt.SBase(1))))
    assert a.code.func != b.code.func  # different static skeletons


def test_keys_ignore_dynamic_contents():
    st = state()
    a = resid(st, rt.SList((rt.SBase(1), rt.DCode(Var("x")))))
    b = resid(st, rt.SList((rt.SBase(1), rt.DCode(Call("g", ()))))
    )
    assert a.code.func == b.code.func
    assert st.stats.memo_hits == 1


def test_nested_closures_in_environments_split():
    st = state()

    def inner_helper(st_, arg, k):
        return arg

    inner = rt.SClo("y", inner_helper, (), (("k", rt.DCode(Var("kd"))),),
                    "inner", ("g",))

    def outer_helper(st_, arg, c):
        return arg

    outer = rt.SClo("x", outer_helper, (), (("c", inner),), "outer", ())
    out = resid(st, outer)
    # The dynamic leaf buried two closures deep surfaces as an argument.
    assert out.code.args == (Var("kd"),)


def test_closure_labels_key_specialisations():
    st = state()

    def helper(st_, arg):
        return arg

    a = resid(st, rt.SClo("x", helper, (), (), "lab1", ()))
    b = resid(st, rt.SClo("x", helper, (), (), "lab2", ()))
    assert a.code.func != b.code.func


def test_closure_binding_times_in_key():
    st = state()

    def helper(st_, t, arg):
        return arg

    a = resid(st, rt.SClo("x", helper, (rt.S,), (), "lab", ()))
    b = resid(st, rt.SClo("x", helper, (rt.D,), (), "lab", ()))
    assert a.code.func != b.code.func


def test_fresh_parameter_hints_come_from_fn_info():
    st = state()
    resid(st, rt.DCode(Var("whatever")))
    st.run_pending()
    (placement, d), = st.defs
    assert d.params[0].startswith("a_")  # hint 'a' from FnInfo params


def test_pair_of_pairs_key_roundtrip():
    st = state()
    v = rt.SPair(rt.SPair(rt.SBase(1), rt.SBase(2)), rt.SBase(3))
    a = resid(st, v)
    b = resid(st, v)
    assert a.code.func == b.code.func
    assert a.code.args == ()


# -- ground static data is memoised whole ---------------------------------


def test_ground_list_splits_whole_to_its_plain_value():
    xs = rt.SList((rt.SBase(1), rt.SBase(2), rt.SBase(3)))
    split = rt._split(xs, "a")
    assert split.key == (1, 2, 3) == rt.to_python(xs)
    assert split.dyn == () and split.hints == ()
    assert split.rebuild([]) is xs


def test_nested_ground_value_splits_whole():
    v = rt.SList((rt.SPair(rt.SBase(1), rt.SList((rt.SBase(2),))),))
    split = rt._split(v, "a")
    assert split.key == rt.to_python(v)
    assert split.dyn == ()
    assert split.rebuild([]) is v


def test_list_with_a_dynamic_leaf_splits_per_element():
    xs = rt.SList((rt.SBase(1), rt.DCode(Var("p")), rt.SBase(2)))
    split = rt._split(xs, "a")
    assert split.key == ("l", 1, ("d",), 2)
    assert split.dyn == (Var("p"),) and split.hints == ("a",)
    rebuilt = split.rebuild([rt.DCode(Var("q"))])
    assert rebuilt == rt.SList((rt.SBase(1), rt.DCode(Var("q")), rt.SBase(2)))


def test_list_with_a_closure_splits_per_element():
    clo = rt.SClo("x", lambda st_, arg: arg, (), (), "lab", ("g",))
    xs = rt.SList((rt.SBase(1), clo))
    split = rt._split(xs, "a")
    assert split.key == ("l", 1, ("c", "lab", (), ("c",)))
    assert split.dyn == ()
    assert split.rebuild([]) == xs


def test_equal_ground_tables_share_one_version():
    st = state()
    a = resid(st, rt.SList((rt.SBase(4), rt.SBase(5))))
    b = resid(st, rt.SList((rt.SBase(4), rt.SBase(5))))
    c = resid(st, rt.SList((rt.SBase(5), rt.SBase(4))))
    assert a.code == b.code and a.code.args == ()
    assert c.code.func != a.code.func
    assert st.stats.memo_hits == 1 and st.stats.specialisations == 2


def test_ground_and_partially_static_keys_never_meet():
    st = state()
    ground = resid(st, rt.SList((rt.SBase(1),)))
    partial = resid(st, rt.SList((rt.DCode(Var("x")),)))
    empty = resid(st, rt.SList(()))
    pair = resid(st, rt.SPair(rt.SBase(1), rt.SBase(1)))
    calls = (ground, partial, empty, pair)
    assert len({c.code.func for c in calls}) == 4


def test_placement_skips_ground_tables_but_not_closures():
    fn_info = {
        "f": rt.FnInfo("A", ("a",)),
        "g": rt.FnInfo("B", ("x",)),
    }
    st = rt.SpecState(fn_info, ModuleGraph({"A": (), "B": ("A",)}))
    table = rt.SList(tuple(rt.SBase(i) for i in range(8)))
    assert st.place("f", (table,)) == frozenset({"A"})
    clo = rt.SClo("x", lambda st_, a: a, (), (), "lab", ("g",))
    assert st.place("f", (rt.SList((rt.SBase(1), clo)),)) == frozenset({"B"})
