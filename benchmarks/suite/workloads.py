"""Seeded, frozen inputs for the benchmark suite.

The generators below are the suite's own copies of the register-machine
interpreter, the random machine programs, the library-lookup program and
the layered import chain from ``repro.bench.generators``.  The copies
exist so that a later edit to that module (a new default, a different
random draw) cannot silently change what the suite measures: the suite's
inputs change only when this file changes.

Every workload's inputs are a pure function of ``(seed, smoke)``.  The
seed draws *contents* (instructions, table cells, edit sites, dynamic
arguments, the order of draws); the *shapes* (program lengths, table
lengths, the share of each request kind) are fixed ladders, so two seeds
exercise the same cost profile with different data and run-to-run
spread measures the system rather than the dice.
"""

import hashlib
import json
import random

# ---------------------------------------------------------------------------
# Frozen program generators.
# ---------------------------------------------------------------------------

MACHINE_SOURCE = """\
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

N_TABLES = 8

TABLES_SOURCE = """\
module Tables where

get xs i = if null xs then 0 else (if i == 0 then head xs else get (tail xs) (i - 1))
"""


def client_source():
    """The ``Client`` module: one dynamic index into each static table."""
    params = " ".join("t%d" % k for k in range(N_TABLES))
    calls = " + ".join("get t%d i" % k for k in range(N_TABLES))
    return "module Client where\nimport Tables\n\nclient %s i = %s\n" % (
        params,
        calls,
    )


def mixed_sources():
    """``{module: source}`` of the directory the specialisation
    workloads serve: the machine interpreter plus the lookup library."""
    return {
        "Machine": MACHINE_SOURCE,
        "Tables": TABLES_SOURCE,
        "Client": client_source(),
    }


def machine_program(rng, length):
    """A random machine program of ``length`` ``(op, arg)`` instructions
    (0 add, 1 mul, 2 jump-if-zero, 3 load); jumps go forward only, so
    every program terminates."""
    prog = []
    for i in range(length):
        op = rng.choice([0, 0, 1, 2, 3])
        if op == 2:
            arg = rng.randint(i + 1, length)
        elif op == 1:
            arg = rng.randint(2, 3)
        else:
            arg = rng.randint(0, 9)
        prog.append(("pair", op, arg))
    return tuple(prog)


def unfolding_program(rng, length):
    """A :func:`machine_program` whose first instruction loads a nonzero
    constant: the accumulator is static from the start, so specialising
    ``run`` unfolds the whole program into a constant (a ~40 B
    residual) at a cost set by the program's length.  Left to chance,
    where the first load falls decides how long the accumulator stays
    dynamic, and specialisation cost varies fivefold between programs
    of one length."""
    prog = list(machine_program(rng, length))
    prog[0] = ("pair", 3, rng.randint(1, 9))
    return tuple(prog)


def lookup_tables(rng, length):
    """Static arguments of ``client``: :data:`N_TABLES` tables of
    ``length`` cells each."""
    return {
        "t%d" % k: tuple(rng.randint(0, 99) for _ in range(length))
        for k in range(N_TABLES)
    }


def layered_chain(rng, n_modules, defs_per_module):
    """``{module: source}`` of an import chain ``M0 <- M1 <- ...``; each
    module's first definition calls into the layer below, the others
    recurse on themselves.  Every definition ends in one integer literal
    (``x + K`` or ``x * K``), the site :func:`edit_literal` rewrites."""
    out = {}
    for m in range(n_modules):
        lines = ["module M%d where" % m]
        if m > 0:
            lines.append("import M%d" % (m - 1))
        lines.append("")
        for i in range(defs_per_module):
            name = "m%d_f%d" % (m, i)
            if m > 0 and i == 0:
                callee = "m%d_f%d" % (m - 1, rng.randrange(defs_per_module))
                body = "%s (n - 1) (x + %d)" % (callee, rng.randint(1, 5))
            else:
                body = "%s (n - 1) (x * %d)" % (name, rng.randint(2, 4))
            lines.append("%s n x = if n == 0 then x else %s" % (name, body))
        lines.append("")
        out["M%d" % m] = "\n".join(lines)
    return out


def edit_literal(text, def_name, value):
    """``text`` with the trailing literal of ``def_name``'s body replaced
    by ``value`` — a one-definition edit that leaves every binding-time
    scheme unchanged."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line.startswith(def_name + " "):
            head, _, tail = line.rpartition(" ")
            if not tail.endswith(")") or not tail[:-1].isdigit():
                raise ValueError("no trailing literal in %r" % line)
            lines[i] = "%s %d)" % (head, value)
            return "\n".join(lines)
    raise ValueError("no definition %s" % def_name)


# ---------------------------------------------------------------------------
# Shape ladders and draws.
# ---------------------------------------------------------------------------


def ladder(lo, hi, n):
    """``n`` integers spread evenly over ``[lo, hi]``."""
    if n == 1:
        return [lo]
    return [lo + round(i * (hi - lo) / (n - 1)) for i in range(n)]


def spread_order(n):
    """A fixed permutation of ``range(n)`` (bit-reversed order): consecutive
    popularity ranks get sizes from all over the ladder, so the popular
    keys are not all small or all large."""
    bits = max(1, (n - 1).bit_length())
    order = sorted(range(1 << bits), key=lambda i: int(format(i, "0%db" % bits)[::-1], 2))
    return [i for i in order if i < n]


def zipf_block(n, s, size):
    """``size`` Zipf(``s``) draws over ranks ``0..n-1`` as exact counts:
    each rank appears in proportion to ``1 / (rank + 1) ** s``, rounded
    by largest remainder."""
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    quotas = [w * size / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    short = size - sum(counts)
    for rank in sorted(range(n), key=lambda r: counts[r] - quotas[r])[:short]:
        counts[rank] += 1
    return [rank for rank in range(n) for _ in range(counts[rank])]


class Draws:
    """An endless stream of items from ``block``, one seeded shuffle of
    it after another: every block-length stretch has the block's exact
    composition (stratified sampling), so two seeds draw the same mix in
    different orders."""

    def __init__(self, rng, block):
        self.rng = rng
        self.block = list(block)
        self.pending = []

    def next(self):
        if not self.pending:
            self.pending = self.block[:]
            self.rng.shuffle(self.pending)
        return self.pending.pop()


def interleave(first, second):
    """``first[0], second[0], first[1], ...``, then the longer list's
    tail: one popularity order over two classes of keys."""
    out = [x for pair in zip(first, second) for x in pair]
    n = min(len(first), len(second))
    return out + list(first[n:]) + list(second[n:])


def digest(*parts):
    """SHA-256 over the canonical JSON of ``parts`` (tuples as lists)."""
    text = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rng(seed, stream):
    """An independent generator per ``(seed, stream)``."""
    return random.Random("%d/%s" % (seed, stream))


# ---------------------------------------------------------------------------
# The four workloads' inputs.  Requests carry their dynamic inputs as
# tuples of arguments.
# ---------------------------------------------------------------------------


def build_graph_inputs(seed, smoke=False):
    """The 10^3-module chain and a seeded sequence of edits, each
    ``(module, definition, new literal)``."""
    n_modules = 60 if smoke else 1000
    defs = 4
    rng = _rng(seed, "build-graph")
    chain = layered_chain(rng, n_modules, defs)
    edits = []
    current = {}
    for _ in range(400):
        module = "M%d" % rng.randrange(n_modules)
        index = rng.randrange(defs)
        def_name = "m%s_f%d" % (module[1:], index)
        lo, hi = (1, 5) if module != "M0" and index == 0 else (2, 4)
        old = current.get(def_name)
        if old is None:
            line = next(
                l for l in chain[module].split("\n") if l.startswith(def_name + " ")
            )
            old = int(line.rpartition(" ")[2][:-1])
        value = rng.choice([v for v in range(lo, hi + 1) if v != old])
        current[def_name] = value
        edits.append((module, def_name, value))
    return {
        "chain": chain,
        "edits": edits,
        "digest": digest("build-graph", smoke, chain, edits),
    }


def spec_cold_inputs(seed, smoke=False):
    """Fresh requests alternating the two shapes: machine programs of
    length 24-72 and 8 lookup tables of length 16-64.  Each cycle of 32
    requests visits every rung of both ladders once, in a seeded order.
    Each request is ``(goal, static_args, [dynamic inputs])``."""
    rng = _rng(seed, "spec-cold")
    machine_lengths = ladder(24, 72, 16)
    table_lengths = ladder(16, 64, 16)
    requests = []
    for _ in range(2 if smoke else 16):
        ms = machine_lengths[:]
        ts = table_lengths[:]
        rng.shuffle(ms)
        rng.shuffle(ts)
        for m, t in zip(ms, ts):
            prog = unfolding_program(rng, m)
            requests.append(("run", {"prog": prog}, [(rng.randint(0, 9),)]))
            tables = lookup_tables(rng, t)
            requests.append(("client", tables, [(rng.randrange(t + 2),) for _ in range(3)]))
    return {
        "sources": mixed_sources(),
        "requests": requests,
        "cycle": 32,
        "digest": digest("spec-cold", smoke, requests),
    }


def _hot_set(rng, n_machine, machine_lengths, n_lookup, table_lengths):
    """Hot keys in popularity order per class, each ``(goal,
    static_args, [dynamic inputs])``; sizes follow :func:`spread_order`
    over the ladders.  A machine key has two accumulator values, a
    lookup key four indices, some past the end of the tables."""
    machine = []
    for rank in spread_order(n_machine):
        prog = unfolding_program(rng, machine_lengths[rank])
        machine.append(("run", {"prog": prog}, [(0,), (rng.randint(1, 9),)]))
    lookups = []
    for rank in spread_order(n_lookup):
        length = table_lengths[rank]
        dyn = [(rng.randrange(length + 2),) for _ in range(4)]
        lookups.append(("client", lookup_tables(rng, length), dyn))
    return machine, lookups


SERVE_HIT, SERVE_MISS, SERVE_RUN = "hit", "miss", "run"


def serve_mix_inputs(seed, smoke=False):
    """Two closed-loop clients' request schedules over a 32-key hot set
    (machine programs of length 24-72 and lookups with tables of length
    4-64).  Of every ten requests seven are warm ``specialise`` hits
    (machine keys take three in ten hits), one is a cold ``specialise``
    on fresh tables, and two ``run`` a hot key.  Keys are drawn
    Zipf(1.1) by popularity rank.  A schedule entry is ``(kind, key,
    dynamic-input index)``."""
    rng = _rng(seed, "serve-mix")
    n_machine, n_lookup = (2, 6) if smoke else (10, 22)
    machine, lookups = _hot_set(
        rng, n_machine, ladder(24, 72, n_machine),
        n_lookup, ladder(4, 64, n_lookup),
    )
    hot = machine + lookups
    misses = []
    for _ in range(4 if smoke else 25):
        lengths = ladder(4, 64, 16)
        rng.shuffle(lengths)
        misses.extend(lookup_tables(rng, n) for n in lengths)
    run_order = interleave(range(n_machine), range(n_machine, len(hot)))
    schedules = []
    for thread in range(2):
        trng = _rng(seed, "serve-mix/%d" % thread)
        kinds = Draws(trng, [SERVE_HIT] * 7 + [SERVE_MISS] + [SERVE_RUN] * 2)
        hit_class = Draws(trng, [True] * 3 + [False] * 7)
        machine_keys = Draws(trng, zipf_block(n_machine, 1.1, 100))
        lookup_keys = Draws(trng, [n_machine + r for r in zipf_block(n_lookup, 1.1, 200)])
        run_keys = Draws(trng, [run_order[r] for r in zipf_block(len(hot), 1.1, 200)])
        schedule = []
        next_miss = thread  # the two clients take alternate fresh tables
        for _ in range(400 if smoke else 4000):
            kind = kinds.next()
            if kind == SERVE_HIT:
                key = machine_keys.next() if hit_class.next() else lookup_keys.next()
                schedule.append((kind, key, 0))
            elif kind == SERVE_MISS:
                schedule.append((kind, next_miss % len(misses), 0))
                next_miss += 2
            else:
                key = run_keys.next()
                schedule.append((kind, key, trng.randrange(len(hot[key][2]))))
        schedules.append(schedule)
    return {
        "sources": mixed_sources(),
        "hot": hot,
        "misses": misses,
        "schedules": schedules,
        "digest": digest("serve-mix", smoke, hot, misses, schedules),
    }


def exec_hot_inputs(seed, smoke=False):
    """A 64-key hot set (machine programs of length 8-96, lookups with
    tables of length 4-64) and a Zipf(1.1) call sequence of ``(key,
    dynamic-input index)`` pairs into the keys' reference tables."""
    rng = _rng(seed, "exec-hot")
    n = 4 if smoke else 32
    machine, lookups = _hot_set(rng, n, ladder(8, 96, n), n, ladder(4, 64, n))
    hot = interleave(machine, lookups)
    keys = Draws(rng, zipf_block(len(hot), 1.1, 1000))
    calls = []
    for _ in range(2000 if smoke else 150_000):
        key = keys.next()
        calls.append((key, rng.randrange(len(hot[key][2]))))
    return {
        "sources": mixed_sources(),
        "hot": hot,
        "calls": calls,
        "digest": digest("exec-hot", smoke, hot, calls),
    }


INPUTS = {
    "build-graph": build_graph_inputs,
    "spec-cold": spec_cold_inputs,
    "serve-mix": serve_mix_inputs,
    "exec-hot": exec_hot_inputs,
}
