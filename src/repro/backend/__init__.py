"""Compiling residual programs to executable Python.

The paper's Further Work (Sec. 8) proposes "constructing generating
extensions that produce native code directly — partial evaluators which
do so already exist.  This also paves the way for applying our ideas in
run-time code generation."  This package is that extension, with Python
as the "native" target:

* :mod:`repro.backend.pyemit` — a code generator from object-language
  programs (typically residual programs) to Python source;
* :mod:`repro.backend.tiers` — the three-tier execution ladder:
  hotness-promoted goals climb interpret → residual-interpret →
  compiled, with the compiled artifact persisted in the speccache
  store (see docs/performance.md, "Execution tiers").  Its
  :func:`~repro.backend.tiers.generate` is run-time code generation in
  one step: specialise, compile the residual program to Python, and
  hand back the ladder's tier-2 callable; as the paper notes, in this
  mode the residual program never needs to be divided into modules.
"""

from repro.backend.pyemit import CompiledProgram, compile_program, emit_python
from repro.backend.tiers import TierLadder, TierPolicy, TierRun, generate

__all__ = [
    "CompiledProgram",
    "TierLadder",
    "TierPolicy",
    "TierRun",
    "compile_program",
    "emit_python",
    "generate",
]
