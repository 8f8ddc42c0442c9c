"""Source-program generators for benchmarks and tests.

All generators are deterministic (seeded where randomised) and produce
concrete syntax, so every experiment exercises the full pipeline from
the parser onward.
"""

import random

from repro.lang.prims import make_pair

# ---------------------------------------------------------------------------
# The paper's own example programs.
# ---------------------------------------------------------------------------

POWER = """\
module Power where

power n x = if n == 1 then x else x * power (n - 1) x
"""

POWER_TWICE_MAIN = """\
module Power where

power n x = if n == 1 then x else x * power (n - 1) x

module Twice where

twice f x = f @ (f @ x)

module Main where
import Power
import Twice

main y = twice (\\x -> power 3 x) y
"""

MACHINE_INTERPRETER = """\
module Machine where

index xs n = if n == 0 then head xs else index (tail xs) (n - 1)
size xs = if null xs then 0 else 1 + size (tail xs)

step prog pc acc =
  if pc == size prog then acc
  else if fst (index prog pc) == 0 then step prog (pc + 1) (acc + snd (index prog pc))
  else if fst (index prog pc) == 1 then step prog (pc + 1) (acc * snd (index prog pc))
  else if fst (index prog pc) == 2 then (if acc == 0 then step prog (snd (index prog pc)) acc else step prog (pc + 1) acc)
  else step prog (pc + 1) (snd (index prog pc))

run prog acc = step prog 0 acc
"""


def power_source():
    """The paper's ``power`` module."""
    return POWER


def power_twice_main_source():
    """The paper's Sec. 5 three-module example."""
    return POWER_TWICE_MAIN


def machine_interpreter_source():
    """A register-machine interpreter (instructions are (op, arg) pairs:
    0 add, 1 mul, 2 jump-if-zero, 3 load); specialising ``run`` to a
    static program performs the first Futamura projection."""
    return MACHINE_INTERPRETER


GUARDED_LOOKUP = """\
module Lookup where

lookup xs i = if null xs then 0 else (if i == 0 then head xs else lookup (tail xs) (i - 1))
"""


def guarded_lookup_source():
    """A guarded list lookup: the flagship size-change workload.

    With ``xs`` static and ``i`` dynamic the Similix lub rule
    residualises the whole loop (``i == 0`` is dynamic), but the
    ``tail xs`` argument strictly decreases, so size-change unfolding
    turns the residual into a closed chain of conditionals over the
    static table — no residual recursion at all."""
    return GUARDED_LOOKUP


def memory_lookup_program(n_cells, seed=0):
    """E5-family scenario: a machine's static memory consulted at a
    dynamic address.  ``read`` is a guarded lookup over a static
    ``n_cells``-element memory; ``main`` reads one dynamic address (one
    call site — unfolding never duplicates the chain).  Returns
    ``(source, goal, static_args, dyn_params)``."""
    rng = random.Random(seed)
    source = (
        "module Memory where\n"
        "\n"
        "read xs i = if null xs then 0 else "
        "(if i == 0 then head xs else read (tail xs) (i - 1))\n"
        "\n"
        "main m a = read m a\n"
    )
    mem = tuple(rng.randint(0, 99) for _ in range(n_cells))
    return source, "main", {"m": mem}, ("a",)


def library_lookup_program(n_tables, n_cells, seed=0):
    """E6-family scenario: a library of static lookup tables, a client
    consulting each at one dynamic index.  Returns
    ``(source, goal, static_args, dyn_params)`` — every ``t{k}`` table
    parameter is static, the index ``i`` dynamic."""
    rng = random.Random(seed)
    lines = ["module Tables where", ""]
    lines.append(
        "get xs i = if null xs then 0 else "
        "(if i == 0 then head xs else get (tail xs) (i - 1))"
    )
    lines.append("")
    lines.append("module Client where")
    lines.append("import Tables")
    lines.append("")
    params = " ".join("t%d" % k for k in range(n_tables))
    calls = " + ".join("get t%d i" % k for k in range(n_tables))
    lines.append("client %s i = %s" % (params, calls))
    lines.append("")
    static_args = {
        "t%d" % k: tuple(rng.randint(0, 99) for _ in range(n_cells))
        for k in range(n_tables)
    }
    return "\n".join(lines), "client", static_args, ("i",)


def dual_pattern_program(n_funcs, seed=0):
    """E4-family scenario with two binding-time patterns per library
    loop: each is called at ``(S, D)`` (static count, dynamic seed,
    recursion unfolds) and at ``(D, D)`` (fully dynamic, recursion
    residualises).  Each definition's binding-time scheme is polymorphic,
    so every call site is specialised at its own pattern: nothing is
    lubbed.  Returns ``(source, goal, static_args, dyn_params)``."""
    rng = random.Random(seed)
    lines = ["module Lib where", ""]
    for k in range(n_funcs):
        lines.append(
            "g%d n x = if n == 0 then x else g%d (n - 1) (x + %d)"
            % (k, k, rng.randint(1, 9))
        )
    lines.append("")
    lines.append("module Client where")
    lines.append("import Lib")
    lines.append("")
    calls = " + ".join(
        "g%d %d d + g%d d d" % (k, rng.randint(2, 5), k)
        for k in range(n_funcs)
    )
    lines.append("client d = %s" % calls)
    lines.append("")
    return "\n".join(lines), "client", {}, ("d",)


def random_machine_program(length, seed=0):
    """A random machine program of ``length`` instructions ending in a
    halt-friendly suffix (jump targets stay forward to guarantee
    termination)."""
    rng = random.Random(seed)
    instructions = []
    for i in range(length):
        op = rng.choice([0, 0, 1, 2, 3])
        if op == 2:
            arg = rng.randint(i + 1, length)  # forward jump only
        elif op == 1:
            arg = rng.randint(2, 3)
        else:
            arg = rng.randint(0, 9)
        instructions.append(make_pair(op, arg))
    return tuple(instructions)


# ---------------------------------------------------------------------------
# Synthetic modules for scaling experiments.
# ---------------------------------------------------------------------------


def synthetic_module_source(name, n_defs, arms=3, seed=0):
    """A module of ``n_defs`` first-order recursive definitions.

    Each definition dispatches on a static selector and recurses on a
    counter, giving bodies with conditionals, arithmetic, and calls —
    the mix the genext-size experiment (Sec. 6) needs.  Definitions call
    their successors, so the module is one connected program.
    """
    rng = random.Random(seed)
    lines = ["module %s where" % name, ""]
    for i in range(n_defs):
        fname = "f%d" % i
        body = "y + %d" % rng.randint(1, 9)
        for a in range(arms):
            callee = "f%d" % rng.randint(i + 1, n_defs - 1) if i + 1 < n_defs else None
            if callee is not None and a == 0:
                arm = "%s (n - 1) (y * %d)" % (callee, rng.randint(2, 5))
            else:
                arm = "y * %d + %d" % (rng.randint(2, 7), rng.randint(0, 9))
            body = "if n == %d then %s else %s" % (a, arm, body)
        lines.append("%s n y = if n == 0 then y else %s" % (fname, body))
    lines.append("")
    return "\n".join(lines)


def library_program(n_library_defs, n_used, seed=0):
    """A large library module plus a small client using ``n_used`` of its
    definitions (Sec. 4's general-purpose-library scenario).

    Library functions are independent recursive loops; the client calls
    the first ``n_used`` with a static iteration count, so specialising
    the client touches exactly those."""
    rng = random.Random(seed)
    lines = ["module Lib where", ""]
    for i in range(n_library_defs):
        k = rng.randint(2, 9)
        lines.append(
            "lib%d n x = if n == 0 then x else lib%d (n - 1) (x * %d + %d)"
            % (i, i, k, rng.randint(0, 5))
        )
    lines.append("")
    lines.append("module Client where")
    lines.append("import Lib")
    lines.append("")
    calls = " + ".join("lib%d m x" % i for i in range(n_used))
    lines.append("client m x = %s" % (calls or "x"))
    lines.append("")
    return "\n".join(lines)


def layered_program(n_modules, defs_per_module, seed=0):
    """A program of ``n_modules`` modules in an import chain
    (``M0 <- M1 <- ... <- M{n-1}``), each with ``defs_per_module``
    definitions; definitions may call into the directly imported layer.
    Used by the separate-analysis experiments.  Returns a dict of module
    name -> source text (one module per entry, loader-ready)."""
    rng = random.Random(seed)
    out = {}
    for m in range(n_modules):
        name = "M%d" % m
        lines = ["module %s where" % name]
        if m > 0:
            lines.append("import M%d" % (m - 1))
        lines.append("")
        for i in range(defs_per_module):
            fname = "m%d_f%d" % (m, i)
            if m > 0 and i == 0:
                callee = "m%d_f%d" % (m - 1, rng.randrange(defs_per_module))
                body = (
                    "if n == 0 then x else %s (n - 1) (x + %d)"
                    % (callee, rng.randint(1, 5))
                )
            else:
                body = (
                    "if n == 0 then x else %s (n - 1) (x * %d)"
                    % (fname, rng.randint(2, 4))
                )
            lines.append("%s n x = %s" % (fname, body))
        lines.append("")
        out[name] = "\n".join(lines)
    return out


def wide_program(layers, width, defs_per_module=4, seed=0):
    """A layered DAG of ``layers`` × ``width`` modules for parallel-build
    experiments: module ``L{i}W{j}`` imports every module of layer
    ``i-1``, so the wave schedule is exactly the layers and each wave is
    ``width`` modules wide — the shape that exposes maximal parallelism
    to the build pipeline.  Definitions are recursive loops; layer ``i``
    definitions call into layer ``i-1``.  Returns a dict of module name
    -> source text (one module per entry, loader-ready)."""
    rng = random.Random(seed)
    out = {}
    for i in range(layers):
        for j in range(width):
            name = "L%dW%d" % (i, j)
            lines = ["module %s where" % name]
            if i > 0:
                for jj in range(width):
                    lines.append("import L%dW%d" % (i - 1, jj))
            lines.append("")
            for k in range(defs_per_module):
                fname = "f_%d_%d_%d" % (i, j, k)
                if i > 0:
                    callee = "f_%d_%d_%d" % (
                        i - 1,
                        rng.randrange(width),
                        rng.randrange(defs_per_module),
                    )
                    body = "if n == 0 then x else %s (n - 1) (x + %d)" % (
                        callee,
                        rng.randint(1, 9),
                    )
                else:
                    body = "if n == 0 then x else %s (n - 1) (x * %d)" % (
                        fname,
                        rng.randint(2, 5),
                    )
                lines.append("%s n x = %s" % (fname, body))
            lines.append("")
            out[name] = "\n".join(lines)
    return out


def chain_program(depth):
    """A chain of ``depth`` mutually calling, always-residualised
    functions: ``c0 -> c1 -> ... -> c(depth-1)``.

    Every body has a dynamic conditional, so every function is
    residualised; a depth-first specialiser keeps ``depth``
    specialisations active at once while the breadth-first pending list
    stays flat — the Sec. 5 space comparison."""
    lines = ["module Chain where", ""]
    for i in range(depth):
        if i + 1 < depth:
            rec = "c%d (x + 1)" % (i + 1)
        else:
            rec = "x"
        lines.append("c%d x = if x == 0 then 0 else %s" % (i, rec))
    lines.append("")
    return "\n".join(lines)


def fanout_program(depth, width):
    """A tree of residualised functions: each level-``i`` function calls
    ``width`` distinct functions at level ``i+1``.  Stress test for the
    pending list and for depth-first recursion."""
    lines = ["module Fan where", ""]
    names = {}
    counter = [0]

    def make(level):
        idx = counter[0]
        counter[0] += 1
        fname = "t%d_%d" % (level, idx)
        if level + 1 < depth:
            children = [make(level + 1) for _ in range(width)]
            call = " + ".join("%s (x + %d)" % (c, i) for i, c in enumerate(children))
        else:
            call = "x + 1"
        lines.append("%s x = if x == 0 then 0 else %s" % (fname, call))
        return fname

    root = make(0)
    lines.append("root x = %s x" % root)
    lines.append("")
    return "\n".join(lines), "root"
