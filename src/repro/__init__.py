"""Module-sensitive program specialisation.

A reproduction of Dussart, Heldal & Hughes, *Module-Sensitive Program
Specialisation* (PLDI 1997): an offline partial evaluator for a small
polymorphic higher-order functional language with modules, built around
a compiler generator (cogen) that turns each module — independently of
all others — into a *generating extension*.  Linked generating
extensions specialise programs without ever interpreting source code,
and the residual program is broken into modules derived from the source
module structure.

High-level API
--------------

>>> import repro
>>> gp = repro.compile_genexts('''
... module Power where
...
... power n x = if n == 1 then x else x * power (n - 1) x
... ''')
>>> result = repro.specialise(gp, 'power', {'n': 3})
>>> result.run(2)
8

See :mod:`repro.lang` (the object language), :mod:`repro.bt` (the
polymorphic binding-time analysis), :mod:`repro.anno` (annotated
programs), :mod:`repro.genext` (cogen, runtime, linker, engine),
:mod:`repro.residual` (residual module structure),
:mod:`repro.specialiser` (the interpretive baseline ``mix``), and
:mod:`repro.interp` (the object-language interpreter).
"""

from repro.api import BuildOptions, SpecOptions
from repro.bt.analysis import analyse_program
from repro.genext.batch import BatchResult, specialise_many
from repro.genext.cogen import cogen_program
from repro.genext.engine import SpecialisationResult, specialise
from repro.genext.link import link_genexts, load_genext_dir, write_genexts
from repro.interp import run_main, run_program
from repro.lang.pretty import pretty_module, pretty_program
from repro.modsys.program import LinkedProgram, load_program, load_program_dir
from repro.obs import Obs
from repro.pipeline import BuildEngine, build_dir

__version__ = "1.0.0"

__all__ = [
    "BatchResult",
    "BuildEngine",
    "BuildOptions",
    "LinkedProgram",
    "Obs",
    "SpecOptions",
    "SpecialisationResult",
    "analyse_program",
    "build_dir",
    "cogen_program",
    "compile_genexts",
    "link_genexts",
    "load_genext_dir",
    "load_program",
    "load_program_dir",
    "pretty_module",
    "pretty_program",
    "run_main",
    "run_program",
    "specialise",
    "specialise_many",
    "write_genexts",
]


def compile_genexts(source, options=None):
    """Front-to-back convenience: parse, analyse, cogen, and link.

    ``source`` is either program text or an already linked
    :class:`~repro.modsys.program.LinkedProgram`.  ``options`` is a
    :class:`repro.api.SpecOptions`; its ``force_residual`` set names
    definitions to annotate non-unfoldable (the paper hand-annotates its
    Sec. 5 examples this way).  Returns a linked
    :class:`~repro.genext.link.GenextProgram` ready for
    :func:`specialise`.
    """
    from repro.api import spec_options

    options = spec_options("compile_genexts", options)
    linked = source if isinstance(source, LinkedProgram) else load_program(source)
    analysis = analyse_program(
        linked,
        force_residual=options.force_residual,
        unfolding=options.unfolding,
    )
    return link_genexts(cogen_program(analysis))
