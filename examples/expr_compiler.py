#!/usr/bin/env python3
"""Compiling an embedded RPN expression language by specialisation.

A stack machine for arithmetic expressions in reverse Polish notation is
written in the object language.  Instructions are ``(op, arg)`` pairs:

====  =====================================
op    meaning
====  =====================================
0     push the literal ``arg``
1     push variable ``arg`` (environment index)
2     pop two, push their sum
3     pop two, push their product
====  =====================================

Specialising ``run`` with respect to a *static* instruction list and a
*dynamic* environment is a compelling partial-evaluation showcase:

* the program list and the instruction dispatch are static — every
  conditional in ``exec`` tests static data, so ``exec`` *unfolds
  completely*;
* the evaluation stack is **partially static**: its spine (the stack
  shape at each program point) is static while its contents are dynamic
  code fragments;
* the residual program is a single expression — the compiled form of
  the RPN program — with no stack, no dispatch, no interpretation.

The residual is finally lowered to Python by the run-time-code-generation
backend (the paper's Sec. 8 outlook).

Run:  python examples/expr_compiler.py
"""

import repro
from repro.backend import generate
from repro.lang.prims import make_pair
from repro.stdlib import stdlib_source

INTERPRETER = stdlib_source(("Lists",)) + """
module Rpn where
import Lists

exec prog env stack =
  if null prog then head stack
  else if fst (head prog) == 0 then exec (tail prog) env (snd (head prog) : stack)
  else if fst (head prog) == 1 then exec (tail prog) env (nth env (snd (head prog)) : stack)
  else if fst (head prog) == 2 then exec (tail prog) env ((head (tail stack) + head stack) : tail (tail stack))
  else exec (tail prog) env ((head (tail stack) * head stack) : tail (tail stack))

run prog env = exec prog env nil
"""


def push(n):
    return make_pair(0, n)


def var(i):
    return make_pair(1, i)


ADD = make_pair(2, 0)
MUL = make_pair(3, 0)


def main():
    gp = repro.compile_genexts(INTERPRETER)

    # (x + 1) * (y + 2), i.e.  x 1 + y 2 + *
    rpn = (var(0), push(1), ADD, var(1), push(2), ADD, MUL)
    print("== Compiling  (x + 1) * (y + 2)  from RPN ==")
    result = repro.specialise(gp, "run", {"prog": rpn})
    print(repro.pretty_program(result.program))
    for env in [(0, 0), (3, 4), (9, 1)]:
        x, y = env
        print(
            "env=%s -> %s (expected %s)"
            % (env, result.run(env), (x + 1) * (y + 2))
        )
    print("stats:", result.stats)
    print()

    print("== Constant folding: all-static programs become literals ==")
    const = repro.specialise(
        gp, "run", {"prog": (push(6), push(7), MUL), "env": ()}
    )
    print(repro.pretty_program(const.program))
    print()

    print("== Run-time code generation: straight to a Python callable ==")
    fn = generate(gp, "run", {"prog": (var(0), var(0), MUL, push(1), ADD)})
    print("# compiled Python:")
    print(fn.source.split("# module")[1].strip())
    print("fn([6]) =", fn((6,)), "(expected 37)")


if __name__ == "__main__":
    main()
