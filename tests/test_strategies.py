"""The analysis strategies (docs/analyses.md): size-change unfolding as a
property over the pinned corpus and the E5/E6 lookups, and the default
division's per-call-site binding times."""

import json
import os

import pytest

import repro
from repro.api import SpecOptions
from repro.bench.generators import (
    dual_pattern_program,
    library_lookup_program,
    memory_lookup_program,
)
from repro.genext.batch import specialise_many
from repro.genext.engine import specialise
from repro.interp import run_program
from repro.lang.pretty import pretty_program
from repro.modsys.program import load_program

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_FILES = sorted(
    os.path.join(CORPUS_DIR, f)
    for f in os.listdir(CORPUS_DIR)
    if f.endswith(".json")
)


def _spec(source, goal, static, **strategies):
    opts = SpecOptions(**strategies)
    gp = repro.compile_genexts(source, opts)
    res = specialise(gp, goal, static, options=opts)
    return res, pretty_program(res.program)


def _interpret(source, goal, static, dyn_params, vec):
    """``run_program`` on the goal's full argument list."""
    linked = load_program(source)
    values = dict(static)
    values.update(zip(dyn_params, vec))
    _, goal_def = linked.find_def(goal)
    return run_program(linked, goal, [values[p] for p in goal_def.params])


# ---------------------------------------------------------------------------
# The default division already specialises per call site
# ---------------------------------------------------------------------------


def test_default_division_specialises_each_call_site_at_its_pattern():
    """Each definition's binding-time scheme is polymorphic, so the
    static-count calls unfold while the dynamic-count calls leave one
    residual loop each: no lub of the two patterns."""
    source, goal, static, dyn = dual_pattern_program(2, seed=3)
    res, text = _spec(source, goal, static)
    assert (
        "client d = d + 4 + 4 + 4 + g0_1 d d + (d + 9 + 9 + 9 + 9) + g1_1 d d"
        in text.splitlines()
    )
    for d in (0, 1, 5):
        assert res.run(d) == _interpret(source, goal, static, dyn, (d,))


# ---------------------------------------------------------------------------
# Size-change shrinks the E5/E6 lookups
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "program, vectors",
    [
        (memory_lookup_program(8, seed=7), ((0,), (1,), (7,), (11,))),
        (library_lookup_program(4, 8, seed=7), ((0,), (4,), (7,))),
    ],
    ids=["memory-lookup", "library-lookup"],
)
def test_size_change_shrinks_lookup_residuals(program, vectors):
    source, goal, static, dyn = program
    lub_res, lub_text = _spec(source, goal, static)
    sc_res, sc_text = _spec(source, goal, static, unfolding="size-change")
    assert len(sc_text) < len(lub_text)
    for vec in vectors:
        want = _interpret(source, goal, static, dyn, vec)
        assert lub_res.run(*vec) == want
        assert sc_res.run(*vec) == want


# ---------------------------------------------------------------------------
# The pinned 25-seed corpus under size-change unfolding
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "corpus_file", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_pinned_corpus_strategies(corpus_file):
    """Every pinned seed: the size-change residual must compute the
    pinned values and come out byte-identical across batch widths 1
    and 4."""
    with open(corpus_file) as f:
        doc = json.load(f)

    sc_opts = SpecOptions(unfolding="size-change")
    sc_gp = repro.compile_genexts(doc["source"], sc_opts)
    requests = [
        (doc["goal"], dict(valuation)) for valuation in doc["static_variants"]
    ]
    texts_by_width = {}
    for width in (1, 4):
        batch = specialise_many(sc_gp, requests, sc_opts, jobs=width)
        assert not batch.failures
        texts = []
        for vi, result in enumerate(batch.results):
            texts.append(pretty_program(result.program))
            for vec, want in zip(doc["dyn_inputs"], doc["values"][vi]):
                got = result.run(*vec, fuel=600_000)
                listy = tuple(want) if isinstance(want, list) else want
                assert got == listy
        texts_by_width[width] = texts
    assert texts_by_width[1] == texts_by_width[4]
