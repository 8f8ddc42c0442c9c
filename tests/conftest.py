"""Shared fixtures: a corpus of programs exercised by many test modules."""

import pytest

import repro
from repro.api import SpecOptions
from repro.bench.generators import (
    machine_interpreter_source,
    power_source,
    power_twice_main_source,
)

# ---------------------------------------------------------------------------
# Corpus: (name, source, goal, static args, dynamic sample inputs, force_residual)
# Every entry must be a well-typed program whose goal terminates on the
# sample inputs both at specialisation time and at run time.
# ---------------------------------------------------------------------------

LISTS_LIBRARY = """\
module Lists where

map f xs = if null xs then nil else (f @ head xs) : map f (tail xs)
append xs ys = if null xs then ys else head xs : append (tail xs) ys
length xs = if null xs then 0 else 1 + length (tail xs)
take n xs = if n == 0 then nil else if null xs then nil else head xs : take (n - 1) (tail xs)
sum xs = if null xs then 0 else head xs + sum (tail xs)
replicate n x = if n == 0 then nil else x : replicate (n - 1) x
"""

CORPUS = [
    dict(
        name="power-static-n",
        source=power_source(),
        goal="power",
        static={"n": 5},
        dyn_inputs=[(0,), (1,), (2,), (7,)],
    ),
    dict(
        name="power-static-x",
        source=power_source(),
        goal="power",
        static={"x": 3},
        dyn_inputs=[(1,), (2,), (5,)],
    ),
    dict(
        name="power-twice-main",
        source=power_twice_main_source(),
        goal="main",
        static={},
        dyn_inputs=[(0,), (1,), (2,), (3,)],
        force_residual={"power", "twice", "main"},
    ),
    dict(
        name="power-twice-main-unforced",
        source=power_twice_main_source(),
        goal="main",
        static={},
        dyn_inputs=[(2,), (3,)],
    ),
    dict(
        name="scale-list",
        source=LISTS_LIBRARY
        + """
module Client where
import Lists

scale k xs = map (\\x -> k * x) xs
""",
        goal="scale",
        static={"k": 7},
        dyn_inputs=[((),), ((1,),), ((1, 2, 3),)],
    ),
    dict(
        name="take-static-n",
        source=LISTS_LIBRARY
        + """
module Client where
import Lists

firstk k xs = take k xs
""",
        goal="firstk",
        static={"k": 3},
        dyn_inputs=[((),), ((5,),), ((5, 6, 7, 8, 9),)],
    ),
    dict(
        name="static-list-fold",
        source=LISTS_LIBRARY
        + """
module Client where
import Lists

dotk ks xs = if null ks then 0 else head ks * head xs + dotk (tail ks) (tail xs)
""",
        goal="dotk",
        static={"ks": (2, 3, 4)},
        dyn_inputs=[((1, 1, 1),), ((5, 0, 2),)],
    ),
    dict(
        name="machine-interpreter",
        source=machine_interpreter_source(),
        goal="run",
        static={
            "prog": (
                ("pair", 1, 2),
                ("pair", 0, 10),
                ("pair", 2, 4),
                ("pair", 1, 3),
            )
        },
        dyn_inputs=[(0,), (1,), (5,), (13,)],
    ),
    dict(
        name="rpn-compiler",
        source=LISTS_LIBRARY.replace(
            "replicate n x = if n == 0 then nil else x : replicate (n - 1) x\n",
            "replicate n x = if n == 0 then nil else x : replicate (n - 1) x\n"
            "nth xs n = if n == 0 then head xs else nth (tail xs) (n - 1)\n",
        )
        + """
module Rpn where
import Lists

exec prog env stack =
  if null prog then head stack
  else if fst (head prog) == 0 then exec (tail prog) env (snd (head prog) : stack)
  else if fst (head prog) == 1 then exec (tail prog) env (nth env (snd (head prog)) : stack)
  else if fst (head prog) == 2 then exec (tail prog) env ((head (tail stack) + head stack) : tail (tail stack))
  else exec (tail prog) env ((head (tail stack) * head stack) : tail (tail stack))

run prog env = exec prog env nil
""",
        goal="run",
        static={
            "prog": (
                ("pair", 1, 0),
                ("pair", 0, 1),
                ("pair", 2, 0),
                ("pair", 1, 1),
                ("pair", 3, 0),
            )
        },
        dyn_inputs=[((0, 0),), ((3, 4),), ((9, 1),)],
    ),
    dict(
        name="higher-order-twice",
        source="""\
module HO where

twice f x = f @ (f @ x)
compose f g = \\x -> f @ (g @ x)

module Use where
import HO

addk k x = x + k
go k x = twice (compose (\\a -> addk k a) (\\b -> b * 2)) x
""",
        goal="go",
        static={"k": 4},
        dyn_inputs=[(0,), (3,), (10,)],
    ),
    dict(
        name="pairs-static",
        source="""\
module Pairs where

swap p = pair (snd p) (fst p)
addp p = fst p + snd p
go a b = addp (swap (pair a b)) * fst (pair a 9)
""",
        goal="go",
        static={"a": 11},
        dyn_inputs=[(1,), (4,)],
    ),
    dict(
        name="glob-matcher",
        source="""\
module Glob where

match p s =
  if null p then null s
  else if head p == 301 then match (tail p) s || (if null s then false else match p (tail s))
  else if null s then false
  else if head p == 300 then match (tail p) (tail s)
  else (head p == head s) && match (tail p) (tail s)
""",
        goal="match",
        static={"p": (97, 301, 98, 300, 99)},  # a*b?c
        dyn_inputs=[
            ((97, 98, 120, 99),),
            ((97, 122, 122, 98, 113, 99),),
            ((97, 98, 99),),
            ((),),
        ],
    ),
    dict(
        name="closure-result",
        source="""\
module M where

pick c = if c then (\\x -> x + 1) else (\\x -> x * 2)
use c y = pick c @ y
""",
        goal="use",
        static={"c": True},
        dyn_inputs=[(0,), (5,), (9,)],
    ),
    dict(
        name="booleans",
        source="""\
module Bools where

xor a b = (a || b) && not (a && b)
go a b = if xor a true then (if b then 1 else 2) else 3
""",
        goal="go",
        static={"a": False},
        dyn_inputs=[(True,), (False,)],
    ),
]


@pytest.fixture(autouse=True)
def _fresh_tier_state():
    """Process-wide execution-ladder state (hotness counters, compiled
    memo, decode memo) never leaks between tests."""
    from repro.backend.tiers import clear_tiers
    from repro.speccache import clear_decode_memo

    clear_tiers()
    clear_decode_memo()


@pytest.fixture(autouse=True)
def _fresh_build_memos():
    """The build's process-wide memos (source scan, interface parse,
    referenced names, linked modules, stat-checked reads, the last
    build's module records) start empty in every test."""
    from repro.bt.interface import clear_interface_memo
    from repro.pipeline.build import (
        clear_build_records,
        clear_link_memo,
        clear_scan_memo,
    )
    from repro.pipeline.cache import clear_read_memo
    from repro.pipeline.incremental import clear_referenced_names_memo

    clear_scan_memo()
    clear_interface_memo()
    clear_referenced_names_memo()
    clear_link_memo()
    clear_read_memo()
    clear_build_records()


@pytest.fixture(autouse=True)
def _strict_event_bus(monkeypatch):
    """Run every in-process EventBus in strict mode: a subscriber that
    raises fails the test instead of being counted and suppressed.
    Tests of the accounting path construct ``EventBus(strict=False)``
    explicitly."""
    from repro.obs.bus import EventBus

    original = EventBus.__init__

    def strict_init(self, strict=True):
        original(self, strict=strict)

    monkeypatch.setattr(EventBus, "__init__", strict_init)


def corpus_ids():
    return [c["name"] for c in CORPUS]


@pytest.fixture(params=CORPUS, ids=corpus_ids())
def corpus_case(request):
    return request.param


@pytest.fixture(scope="session")
def corpus_genexts():
    """Linked generating extensions for every corpus entry (cached)."""
    out = {}
    for case in CORPUS:
        out[case["name"]] = repro.compile_genexts(case["source"], SpecOptions(force_residual=frozenset(case.get("force_residual", ()))))
    return out
