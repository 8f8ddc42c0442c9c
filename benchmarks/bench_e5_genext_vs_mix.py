"""E5 (Sec. 4): "Running a generating extension is always faster than
running the corresponding specialiser, because there is no need to
inspect and interpret the source code of the program to be specialised."

We compare, per workload:

* **genext** — time to run the linked generating extensions (the per-run
  cost after the once-and-for-all preparation);
* **mix (spec only)** — the interpretive specialiser's specialisation
  phase on the pre-analysed program;
* **mix (full)** — parse + analyse + specialise, the cost an ordinary
  specialiser pays on every run.

The shape to reproduce: genext < mix(spec) < mix(full) on every row.
"""

import time

import pytest

import repro
from repro.bench.generators import (
    chain_program,
    machine_interpreter_source,
    power_source,
    random_machine_program,
    synthetic_module_source,
)
from repro.genext.engine import specialise as engine_specialise
from repro.specialiser import MixProgram

# Workloads sized so the genext-vs-interpretation gap dominates noise
# (sub-100-microsecond specialisations flip on scheduler jitter).
WORKLOADS = [
    ("residual chain (60 fns)", chain_program(60), "c0", {}),
    (
        "machine prog (20 instrs)",
        machine_interpreter_source(),
        "run",
        {"prog": random_machine_program(20, seed=3)},
    ),
    (
        "synthetic module (30 defs)",
        synthetic_module_source("M", 30, seed=5),
        "f0",
        {"n": 6},
    ),
]


def _best_of_rounds(fns, rounds=9):
    """``[(best seconds, last result), ...]``, one pair per function.
    Each round times one call of every function in turn, so a drift in
    machine speed lands on all the contenders alike instead of on
    whichever one was being sampled when it happened."""
    best = [float("inf")] * len(fns)
    out = [None] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            out[i] = fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return list(zip(best, out))


def _spec_phase_only(provider, goal, static):
    """Run exactly the specialisation phase — goal setup, the generating
    run, the pending list — without residual-module assembly (which is
    identical for both contenders and would dilute the comparison the
    paper makes)."""
    from repro.genext.engine import goal_binding_times
    from repro.genext.runtime import DCode, coerce, deep_recursion, dynamize, from_python
    from repro.lang.ast import Var

    signature = provider.signature(goal)
    env = goal_binding_times(signature, set(static))
    types = signature.param_types(env)
    st = provider.new_state()
    args = []
    for param, t in zip(signature.params, types):
        if param in static:
            args.append(coerce(st, from_python(static[param]), t))
        else:
            args.append(DCode(Var(param)))
    bts = [env[b] for b in signature.bt_params]
    with deep_recursion():
        result = provider.mk(goal)(st, *bts, *args)
        st.run_pending()
        dynamize(st, result)
        st.run_pending()
    return st


def _rows():
    rows = []
    for name, source, goal, static in WORKLOADS:
        gp = repro.compile_genexts(source)
        mp = MixProgram.from_source(source)
        timed = _best_of_rounds(
            [
                lambda: _spec_phase_only(gp, goal, static),
                lambda: _spec_phase_only(mp, goal, static),
                lambda: engine_specialise(
                    MixProgram.from_source(source), goal, static
                ),
            ]
        )
        (t_genext, st1), (t_mix_spec, st2), (t_mix_full, _) = timed
        r1 = engine_specialise(gp, goal, static)
        r2 = engine_specialise(mp, goal, static)
        assert r1.program == r2.program
        assert st1.stats.specialisations == st2.stats.specialisations
        rows.append(
            [
                name,
                "%.3f ms" % (t_genext * 1e3),
                "%.3f ms" % (t_mix_spec * 1e3),
                "%.3f ms" % (t_mix_full * 1e3),
                "%.1fx" % (t_mix_spec / t_genext),
                "%.1fx" % (t_mix_full / t_genext),
            ]
        )
        assert t_genext < t_mix_spec, "genext must beat interpretive mix"
        assert t_mix_spec < t_mix_full, "front end must cost something"
    return rows


def test_genext_vs_mix(benchmark, table):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    table(
        "E5 — specialisation time: generating extensions vs mix",
        ["workload", "genext", "mix (spec only)", "mix (full)", "spec speedup", "full speedup"],
        rows,
    )


def test_genext_specialisation_speed(benchmark):
    gp = repro.compile_genexts(power_source())
    benchmark(engine_specialise, gp, "power", {"x": 2})


def test_mix_specialisation_speed(benchmark):
    mp = MixProgram.from_source(power_source())
    benchmark(engine_specialise, mp, "power", {"x": 2})


def test_mix_full_pipeline_speed(benchmark):
    def full():
        return engine_specialise(
            MixProgram.from_source(power_source()), "power", {"x": 2}
        )

    benchmark(full)
