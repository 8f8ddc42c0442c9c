"""Generating extensions: the cogen, its runtime library, and the linker.

This is the paper's core contribution (Secs. 2, 4.2, 6):

* :mod:`repro.genext.cogen` — the cogen proper: compiles one *annotated*
  module into a generating-extension module (generated Python source in
  the shape of Fig. 3: one ``mk_f`` / ``mk_f_body`` pair per function).
  Runs once per module, independently of all other modules.
* :mod:`repro.genext.runtime` — the runtime library linked with every
  generating extension: partially static values, ``mk_resid`` with its
  pending/done discipline, ``mk_if``/``mk_app`` and one generating
  primitive per operator (``mk_add``, ``mk_eq``, ...), binding-time
  coercions, static closures carrying body generators, residual-module
  placement, and statistics.
* :mod:`repro.genext.link` — compiles and links generating-extension
  modules into a runnable whole (no source code needed).
* :mod:`repro.genext.engine` — drives specialisation: sets up a goal,
  runs the breadth-first (or depth-first) engine, and assembles the
  residual program.
"""

from repro.genext.cogen import cogen_module, cogen_program
from repro.genext.engine import SpecialisationResult, specialise
from repro.genext.link import GenextProgram, link_genexts
from repro.genext.runtime import SpecError, SpecState

__all__ = [
    "GenextProgram",
    "SpecError",
    "SpecState",
    "SpecialisationResult",
    "cogen_module",
    "cogen_program",
    "link_genexts",
    "specialise",
]
