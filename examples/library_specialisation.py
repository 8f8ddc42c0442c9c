#!/usr/bin/env python3
"""The library-vendor workflow (Secs. 4 and 6).

A list-processing library is prepared for specialisation *once and for
all*: the vendor analyses it (writing a binding-time interface file) and
runs the cogen (writing a generating-extension module).  A client
program is later specialised by linking only the *generated* artefacts —
the library's source never has to be shown to the client-side
specialiser, which is the paper's answer to specialising commercial
libraries.

Run:  python examples/library_specialisation.py
"""

import os
import tempfile

import repro
from repro.api import BuildOptions
from repro.bt.interface import read_interface
from repro.genext.cogen import cogen_program
from repro.genext.link import load_genext_dir, write_genexts

LIBRARY = """\
module Lists where

map f xs = if null xs then nil else (f @ head xs) : map f (tail xs)
filter p xs = if null xs then nil else if p @ head xs then head xs : filter p (tail xs) else filter p (tail xs)
foldr f z xs = if null xs then z else f @ head xs @ foldr f z (tail xs)
append xs ys = if null xs then ys else head xs : append (tail xs) ys
length xs = if null xs then 0 else 1 + length (tail xs)
take n xs = if n == 0 then nil else if null xs then nil else head xs : take (n - 1) (tail xs)
drop n xs = if n == 0 then xs else if null xs then nil else drop (n - 1) (tail xs)
replicate n x = if n == 0 then nil else x : replicate (n - 1) x
sum xs = if null xs then 0 else head xs + sum (tail xs)
iota n = if n == 0 then nil else append (iota (n - 1)) [n]
"""

CLIENT = """\
module Client where
import Lists

scale k xs = map (\\x -> k * x) xs
sumsq xs = sum (map (\\x -> x * x) xs)
firstk k xs = take k xs
"""


def main():
    workspace = tempfile.mkdtemp(prefix="library-example-")
    src_dir = os.path.join(workspace, "src")
    dist_dir = os.path.join(workspace, "dist")
    os.makedirs(src_dir)

    # ------------------------------------------------------------------
    # Vendor side: ship interface + generating extension, not sources.
    # ------------------------------------------------------------------
    with open(os.path.join(src_dir, "Lists.mod"), "w") as f:
        f.write(LIBRARY)
    built = repro.build_dir(
        src_dir, BuildOptions(iface_dir=src_dir, out_dir=dist_dir)
    )
    print("Vendor analysed modules:", ", ".join(built.analysed))
    _, schemes = read_interface(os.path.join(src_dir, "Lists.bti"))
    print("Sample schemes:")
    for name in ("map", "take", "sum"):
        print("  %s : %s" % (name, schemes[name]))
    print("Shipped artefacts:", sorted(os.listdir(dist_dir)))
    print()

    # ------------------------------------------------------------------
    # Client side: the client module is analysed against the interface
    # file alone, cogen'd, and linked with the *generated* library.
    # ------------------------------------------------------------------
    with open(os.path.join(src_dir, "Client.mod"), "w") as f:
        f.write(CLIENT)
    client_program = repro.load_program_dir(src_dir)
    client_analysis = repro.analyse_program(client_program)
    client_genexts = [
        m for m in cogen_program(client_analysis) if m.name == "Client"
    ]
    write_genexts(client_genexts, dist_dir)
    gp = load_genext_dir(dist_dir)  # no .mod sources involved from here on

    print("== scale with k = 10 static ==")
    result = repro.specialise(gp, "scale", {"k": 10})
    print(repro.pretty_program(result.program))
    print("scale([1,2,3]) =", result.run((1, 2, 3)))
    print()

    print("== firstk with k = 2 static ==")
    result = repro.specialise(gp, "firstk", {"k": 2})
    print(repro.pretty_program(result.program))
    print("firstk([7,8,9]) =", result.run((7, 8, 9)))
    print()

    print("== sumsq with xs = [1,2,3,4] static (computed away) ==")
    result = repro.specialise(gp, "sumsq", {"xs": (1, 2, 3, 4)})
    print(repro.pretty_program(result.program))
    print("sumsq() =", result.run())


if __name__ == "__main__":
    main()
