"""Extension bench: residual programs lowered to Python (Sec. 8 outlook).

Compares three ways of running the same computation:

* the general program, interpreted;
* the specialised residual program, interpreted;
* the specialised residual program compiled to Python (the
  run-time-code-generation path: ``generate`` hands back the execution
  ladder's tier-2 callable).

The shape: specialisation wins over generality, and native lowering wins
over interpreting the residual — the full chain the paper sketches for
future work.  The chain summary enforces the timing floor: the compiled
residual runs at least 10x faster than the interpreted one.
"""

import pytest

import repro
from repro.backend import compile_program, generate
from repro.bench.generators import machine_interpreter_source, random_machine_program
from repro.interp import Interpreter
from repro.modsys.program import load_program


@pytest.fixture(scope="module")
def setup():
    source = machine_interpreter_source()
    gp = repro.compile_genexts(source)
    linked = load_program(source)
    prog = random_machine_program(25, seed=4)
    result = repro.specialise(gp, "run", {"prog": prog})
    fn = generate(gp, "run", {"prog": prog})
    # All three agree.
    expected = Interpreter(linked, fuel=10_000_000).call("run", [prog, 5])
    assert result.run(5) == expected
    assert fn(5) == expected
    return linked, prog, result, fn


def test_general_interpreted(benchmark, setup):
    linked, prog, _, _ = setup
    benchmark(
        lambda: Interpreter(linked, fuel=10_000_000).call("run", [prog, 5])
    )


def test_residual_interpreted(benchmark, setup):
    _, _, result, _ = setup
    benchmark(lambda: Interpreter(result.linked).call(result.entry, [5]))


def test_residual_compiled_to_python(benchmark, setup):
    _, _, _, fn = setup
    benchmark(fn, 5)


def test_code_generation_cost(benchmark, setup):
    """The one-off cost of lowering a residual program to Python."""
    _, _, result, _ = setup
    benchmark(compile_program, result.program)


def test_chain_summary(benchmark, table, setup):
    import time

    linked, prog, result, fn = setup

    def measure():
        def best(f, n=20):
            out = float("inf")
            for _ in range(n):
                t0 = time.perf_counter()
                f()
                out = min(out, time.perf_counter() - t0)
            return out

        t_general = best(
            lambda: Interpreter(linked, fuel=10_000_000).call("run", [prog, 5])
        )
        t_residual = best(
            lambda: Interpreter(result.linked).call(result.entry, [5])
        )
        t_python = best(lambda: fn(5))
        return t_general, t_residual, t_python

    t_general, t_residual, t_python = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    table(
        "Backend — general vs residual vs compiled-to-Python",
        ["form", "time", "speedup over general"],
        [
            ["general, interpreted", "%.3f ms" % (t_general * 1e3), "1.0x"],
            [
                "residual, interpreted",
                "%.3f ms" % (t_residual * 1e3),
                "%.1fx" % (t_general / t_residual),
            ],
            [
                "residual, compiled to Python",
                "%.4f ms" % (t_python * 1e3),
                "%.0fx" % (t_general / t_python),
            ],
        ],
    )
    assert t_residual < t_general
    assert t_residual >= 10 * t_python, (
        "compiled residual only %.1fx faster than the interpreted one"
        % (t_residual / t_python)
    )
