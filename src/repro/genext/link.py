"""Compiling and linking generating extensions.

"Runnable generating extensions are produced by linking together the
modules produced by cogen with libraries providing the basic mechanisms
of specialisation" (Sec. 6).  Here each generated module is compiled
with CPython and executed in its own namespace, and linking collects
every module's exported ``mk_f`` functions into one registry per
program.  Generated code reaches an imported function through the
registry of the program that runs it (``st.mk``, handed to every
:class:`~repro.genext.runtime.SpecState` by :meth:`GenextProgram.new_state`),
so linking writes nothing into a module's namespace.  Only the
*generated* modules are needed — never the source of the modules they
came from, which is the paper's black-box property for libraries.

A :class:`LoadedModule` may therefore be shared by any number of
programs: the build's relink
(:meth:`repro.pipeline.build.BuildResult.link`) reuses an executed
namespace whenever its genext source is unchanged, and every program,
holding its own registry, keeps specialising what it did.
"""

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.genext.cogen import GenextModule
from repro.genext.runtime import SpecState
from repro.modsys.graph import ModuleGraph


@dataclass
class LoadedModule:
    """A compiled, executed generating-extension module.

    ``source`` is the module's generated Python text when it is known
    (always, for the in-tree loaders); it feeds the program fingerprint
    that keys the residual caches (:mod:`repro.speccache`)."""

    name: str
    imports: Tuple[str, ...]
    namespace: dict
    source: Optional[str] = None

    @property
    def exports(self):
        return self.namespace["_EXPORTS"]

    @property
    def signatures(self):
        return self.namespace["_SIGNATURES"]

    @property
    def fn_info(self):
        return self.namespace["_FN_INFO"]


class GenextProgram:
    """A linked set of generating-extension modules, ready to run."""

    def __init__(self, modules):
        self.modules = {m.name: m for m in modules}
        self.graph = ModuleGraph({m.name: m.imports for m in modules})
        self.graph.check_acyclic()
        self.registry = {}
        self.signatures = {}
        self.fn_info = {}
        for m in modules:
            for fname, fn in m.exports.items():
                if fname in self.registry:
                    raise ValueError("duplicate function %r at link time" % fname)
                self.registry[fname] = fn
            self.signatures.update(m.signatures)
            self.fn_info.update(m.fn_info)
        missing = set()
        for m in modules:
            for needed in m.namespace.get("_IMPORTED", ()):
                if needed not in self.registry:
                    missing.add(needed)
        if missing:
            raise ValueError(
                "unresolved functions at link time: %s" % ", ".join(sorted(missing))
            )
        self._fingerprint = None

    def fingerprint(self):
        """A SHA-256 hex digest identifying this linked program: the
        generating-extension module *sources* plus the link topology
        (module names and import lists).  Two programs with the same
        fingerprint specialise identically, so it anchors the keys of
        the persistent residual cache (:mod:`repro.speccache`) and the
        execution ladder's compiled-callable memo.  ``None`` when any
        module was loaded without its source text (caching is then
        disabled)."""
        if self._fingerprint is None:
            h = hashlib.sha256(b"mspec-genext-fingerprint\x00")
            for name in sorted(self.modules):
                m = self.modules[name]
                if m.source is None:
                    return None
                h.update(name.encode("utf-8"))
                h.update(b"(%s)" % ",".join(m.imports).encode("utf-8"))
                h.update(hashlib.sha256(m.source.encode("utf-8")).digest())
                h.update(b"\x00")
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def new_state(
        self,
        strategy="bfs",
        sink=None,
        max_versions=10_000,
        deadline=None,
        obs=None,
    ):
        """A fresh :class:`SpecState` for one specialisation run.

        ``deadline`` is a wall-clock budget in seconds (see
        :meth:`SpecState.check_deadline`); ``obs`` an optional
        :class:`repro.obs.Obs` whose tracer receives the run's spans.
        The state carries this program's registry, through which the
        generated code makes its cross-module calls."""
        return SpecState(
            self.fn_info,
            self.graph,
            strategy=strategy,
            sink=sink,
            max_versions=max_versions,
            deadline=deadline,
            obs=obs,
            registry=self.registry,
        )

    def genext_modules(self):
        """The :class:`GenextModule` records this program links, or
        ``None`` when any source is missing.  The batch driver ships
        these across process boundaries (text, per the paper's
        interface discipline) so workers can re-link the program."""
        out = []
        for name in sorted(self.modules):
            m = self.modules[name]
            if m.source is None:
                return None
            out.append(GenextModule(name, m.imports, m.source))
        return out

    def mk(self, fname):
        """The generating version of ``fname``."""
        return self.registry[fname]

    def signature(self, fname):
        return self.signatures[fname]


def load_genext(genext_module, filename=None, code=None):
    """Compile and execute one generated module.

    ``code`` may supply an already compiled code object of the module's
    source (e.g. from the build pipeline's artifact cache), skipping
    compilation."""
    if code is None:
        code = compile(
            genext_module.source,
            filename or "<genext:%s>" % genext_module.name,
            "exec",
        )
    namespace = {"__name__": "genext_%s" % genext_module.name}
    exec(code, namespace)
    return LoadedModule(
        genext_module.name,
        genext_module.imports,
        namespace,
        source=genext_module.source,
    )


def link_genexts(genext_modules):
    """Compile, execute, and link a collection of generated modules."""
    return GenextProgram([load_genext(m) for m in genext_modules])


def write_genexts(genext_modules, directory):
    """Write generated modules to ``directory`` as ``*.genext.py`` files
    (the on-disk form a library vendor would ship)."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for m in genext_modules:
        path = os.path.join(directory, "%s.genext.py" % m.name)
        with open(path, "w") as f:
            f.write(m.source)
        paths.append(path)
    return paths


def load_genext_dir(directory):
    """Load and link every ``*.genext.py`` module in ``directory``.

    The import list of each module is recovered from its ``_IMPORTED``
    table (mapping to defining modules is only needed for placement, and
    that arrives through ``_FN_INFO``), so the original sources are not
    required."""
    sources = {}
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".genext.py"):
            continue
        name = entry[: -len(".genext.py")]
        with open(os.path.join(directory, entry)) as f:
            sources[name] = f.read()
    # First pass: execute everything to get _EXPORTS for import recovery.
    loaded = [
        load_genext(GenextModule(name, (), source), "%s.genext.py" % name)
        for name, source in sources.items()
    ]
    module_of = {}
    for m in loaded:
        for fname in m.exports:
            module_of[fname] = m.name
    for m in loaded:
        m.imports = tuple(
            sorted(
                {
                    module_of[f]
                    for f in m.namespace.get("_IMPORTED", ())
                    if f in module_of and module_of[f] != m.name
                }
            )
        )
    return GenextProgram(loaded)
