"""Program loading: parse, check the module structure, resolve names.

A :class:`LinkedProgram` bundles a resolved program with its module graph,
topological order, and global symbol table.  Every later stage — type
inference, binding-time analysis, cogen, specialisation — starts from one
of these.
"""

import os
from dataclasses import dataclass
from typing import Tuple

from repro.lang.ast import Module, Program
from repro.lang.errors import ValidationError
from repro.lang.parser import parse_program
from repro.lang.validate import resolve_module
from repro.modsys.graph import ModuleGraph
from repro.modsys.symbols import SymbolTable

SOURCE_SUFFIX = ".mod"


@dataclass(frozen=True)
class LinkedProgram:
    """A validated, name-resolved program with its derived structures."""

    program: Program
    graph: ModuleGraph
    symbols: SymbolTable
    topo_order: Tuple[str, ...]

    def module(self, name):
        return self.program.module(name)

    def find_def(self, name):
        """Locate the definition of function ``name`` anywhere in the
        program; returns ``(module, def)``."""
        symbol = self.symbols.lookup(name)
        module = self.program.module(symbol.module)
        d = module.find(name)
        assert d is not None
        return module, d


def link_program(program):
    """Validate and resolve a parsed :class:`Program`.

    Checks module-name uniqueness, import acyclicity, and global
    function-name uniqueness, then resolves each module (in topological
    order) against the arities of the functions it imports.
    """
    return _link_reusing(program)


def _exports(module):
    """A module's ``(name, arity)`` table: all an importer's resolution
    reads of it."""
    return tuple((d.name, d.arity) for d in module.defs)


def _link_reusing(program, previous=None, replaced=frozenset()):
    """:func:`link_program`, reusing resolutions from ``previous`` (a
    :class:`LinkedProgram`): a module not named in ``replaced`` whose
    imports all export the same ``(name, arity)`` table as they did in
    ``previous`` resolves to the very module it did there."""
    seen, dupes = set(), set()
    for m in program.modules:
        (dupes if m.name in seen else seen).add(m.name)
    if dupes:
        raise ValidationError("duplicate module name(s): %s" % ", ".join(sorted(dupes)))
    functors = [m.name for m in program.modules if m.is_functor]
    if functors:
        raise ValidationError(
            "parameterised module(s) cannot be linked directly: %s "
            "(instantiate them with repro.functor first)"
            % ", ".join(sorted(functors))
        )
    graph = ModuleGraph.of_program(program)
    topo = graph.topo_order()
    symbols = SymbolTable.of_program(program)
    by_name = {m.name: m for m in program.modules}
    old = {} if previous is None else {m.name: m for m in previous.program.modules}
    moved = {
        name
        for name in replaced
        if name not in old or _exports(old[name]) != _exports(by_name[name])
    }
    resolved = {}
    for module_name in topo:
        module = by_name[module_name]
        if (
            module_name in old
            and module_name not in replaced
            and moved.isdisjoint(module.imports)
        ):
            resolved[module_name] = old[module_name]
            continue
        imported = {}
        for dep in module.imports:
            for d in resolved[dep].defs:
                imported[d.name] = d.arity
        resolved[module_name] = resolve_module(module, imported)
    new_program = Program(tuple(resolved[m.name] for m in program.modules))
    return LinkedProgram(new_program, graph, symbols, topo)


def load_program(source):
    """Parse and link a whole program from one source string."""
    return link_program(parse_program(source))


def load_program_dir(path):
    """Load a program from a directory of ``*.mod`` files.

    Each file holds one module; the file name (sans suffix) must match
    the module name, mirroring how a compiler locates modules on disk.
    """
    modules = []
    for entry in sorted(os.listdir(path)):
        if not entry.endswith(SOURCE_SUFFIX):
            continue
        with open(os.path.join(path, entry)) as f:
            text = f.read()
        parsed = parse_program(text)
        if len(parsed.modules) != 1:
            raise ValidationError("%s: expected exactly one module per file" % entry)
        module = parsed.modules[0]
        expected = entry[: -len(SOURCE_SUFFIX)]
        if module.name != expected:
            raise ValidationError(
                "%s: file defines module %s (file name must match)"
                % (entry, module.name)
            )
        modules.append(module)
    return link_program(Program(tuple(modules)))


def relink_with(linked, new_modules):
    """Return a new :class:`LinkedProgram` with some modules replaced or
    added.  ``new_modules`` is an iterable of :class:`Module`; modules with
    matching names are replaced, others appended (imports must stay
    acyclic).  Every check of :func:`link_program` runs again, but a
    module that is not replaced and whose imports export the same
    ``(name, arity)`` tables keeps its resolved form from ``linked`` (the
    same object).  Used by tests and the benchmark suite."""
    by_name = {m.name: m for m in linked.program.modules}
    order = list(by_name)
    replaced = set()
    for module in new_modules:
        if module.name not in by_name:
            order.append(module.name)
        by_name[module.name] = module
        replaced.add(module.name)
    return _link_reusing(
        Program(tuple(by_name[n] for n in order)), linked, replaced
    )
