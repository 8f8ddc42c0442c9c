"""E7 (Sec. 5): breadth-first vs depth-first specialisation space.

"Assigning functions to modules is an intrinsically depth-first problem
[...] which unfortunately may lead to very many specialisations being
active simultaneously, and may in turn require a great deal of space
[...] we instead use a breadth-first strategy [...] Our experiments show
that this strategy is considerably more space efficient."

We measure, on residualised call chains and call trees:

* peak simultaneously active specialisations (the structural counter);
* peak Python heap during the run (tracemalloc), with residual
  definitions streamed to a null sink so finished specialisations are
  not retained (the paper's writes-to-file-immediately discipline).
"""

import sys
import tracemalloc

import pytest

import repro
from repro.bench.generators import chain_program, fanout_program
from repro.genext.engine import specialise
from repro.api import SpecOptions


def _peak_memory(gp, goal, strategy):
    sink = lambda placement, d: None
    tracemalloc.start()
    tracemalloc.reset_peak()
    specialise(gp, goal, {}, SpecOptions(strategy=strategy, sink=sink))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def _sweep():
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100_000)
    rows = []
    try:
        for label, source, goal in [
            ("chain depth 100", chain_program(100), "c0"),
            ("chain depth 400", chain_program(400), "c0"),
            ("tree depth 6 width 2", *_fan(6, 2)),
            ("tree depth 4 width 4", *_fan(4, 4)),
        ]:
            gp = repro.compile_genexts(source)
            bfs = specialise(gp, goal, {}, SpecOptions(strategy="bfs"))
            dfs = specialise(gp, goal, {}, SpecOptions(strategy="dfs"))
            mem_bfs = _peak_memory(gp, goal, "bfs")
            mem_dfs = _peak_memory(gp, goal, "dfs")
            rows.append(
                [
                    label,
                    bfs.stats["specialisations"],
                    bfs.stats["active_peak"],
                    dfs.stats["active_peak"],
                    bfs.stats["pending_peak"],
                    "%.0f KiB" % (mem_bfs / 1024),
                    "%.0f KiB" % (mem_dfs / 1024),
                ]
            )
            assert bfs.stats["active_peak"] <= 1
            assert dfs.stats["active_peak"] >= 4
    finally:
        sys.setrecursionlimit(old_limit)
    return rows


def _fan(depth, width):
    source, root = fanout_program(depth, width)
    return source, root


def test_bfs_vs_dfs_space(benchmark, table):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table(
        "E7 — breadth-first vs depth-first specialisation",
        [
            "workload",
            "specialisations",
            "BFS active peak",
            "DFS active peak",
            "BFS pending peak",
            "BFS heap peak",
            "DFS heap peak",
        ],
        rows,
    )


def test_bfs_speed_on_chain(benchmark):
    gp = repro.compile_genexts(chain_program(200))
    benchmark(specialise, gp, "c0", {}, SpecOptions(strategy="bfs"))


def test_dfs_speed_on_chain(benchmark):
    gp = repro.compile_genexts(chain_program(200))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(100_000)
    try:
        benchmark(specialise, gp, "c0", {}, SpecOptions(strategy="dfs"))
    finally:
        sys.setrecursionlimit(old)
