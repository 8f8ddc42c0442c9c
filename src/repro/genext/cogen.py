"""The cogen: compiles annotated modules to generating extensions.

This is the "hand-written cogen" of the paper (Secs. 2 and 6): a purely
syntactic translation from an annotated module to a generating-extension
module — generated Python source in the exact shape of Fig. 3.  For each
function ``f`` it emits:

* ``mk_f`` — decides unfold/residualise through ``rt.mk_resid``, passing
  the identification triple, the unfold thunk, and the body builder;
* ``mk_f_body`` — builds specialised versions of ``f``'s body, with one
  ``rt.mk_*`` call per operation carrying the operation's binding time
  (a lub over the function's binding-time parameters, computed at
  specialisation time).  A primitive calls its operator's own generating
  primitive (``rt.mk_eq(st, t, n, ...)``: no operator string to
  dispatch on); a literal coerced to a base type is built at its target
  binding time (``rt.lit_at(t, 1)``), and any other base coercion names
  its binding time and type with no skeleton
  (``rt.coerce_base(st, x, t, 'Nat')``);
* one hoisted helper per lambda (the closure's body generator);
* metadata: executable signatures for goal setup, per-function
  :class:`~repro.genext.runtime.FnInfo` for residual-module placement,
  and ``_IMPORTED``, the names of the imported functions it calls.

A call to a function of the same module is a direct call of its
``mk_f``.  A call to an *imported* function is late-bound: it goes
through the registry of the program that runs the extension, reached
from the state (``st.mk['f'](st, ...)``).  So a generating extension's
code depends on nothing but its own annotated module, and linking it
never rebinds anything in its namespace: an executed module can be
shared by every program that links it.  The one exception is a
functor's parameters, which each instantiation binds in its own fresh
namespace (:meth:`repro.functor.core.FunctorTemplate.instantiate`).

The translation needs nothing but the annotated module itself — modules
are compiled to generating extensions one at a time, in any order.
"""

import keyword
from dataclasses import dataclass
from typing import Tuple

from repro.anno.ast import (
    AApp,
    ACall,
    ACoerce,
    AIf,
    ALam,
    ALit,
    APrim,
    AVar,
    acalled_functions,
)
from repro.bt.bttypes import BTTBase, BTTFun, BTTList, BTTPair, BTTSkel
from repro.genext.runtime import PRIMITIVES

HEADER = '''\
"""Generating extension of module %(name)s.

Generated by the repro cogen; do not edit.  Link with
repro.genext.runtime and the generating extensions of the imported
modules, then run to specialise.
"""

from repro.genext import runtime as rt

# Functor instantiation may pre-seed these to relocate the module: every
# exported name is prefixed with _QUAL and placement uses _MODULE.
_MODULE = globals().get("_MODULE_OVERRIDE", %(name)r)
_QUAL = globals().get("_QUAL_OVERRIDE", "")
'''


@dataclass(frozen=True)
class GenextModule:
    """One generated generating-extension module."""

    name: str
    imports: Tuple[str, ...]  # imported *module* names (for linking order)
    source: str


def mangle(name):
    """Map an object-language identifier to a Python identifier."""
    out = name.replace("'", "_q")
    if keyword.iskeyword(out) or out in ("st", "rt") or out.startswith("_"):
        out += "_v"
    return out


def mk_name(fname):
    return "mk_" + mangle(fname)


def _tuple_src(items):
    items = list(items)
    if not items:
        return "()"
    if len(items) == 1:
        return "(%s,)" % items[0]
    return "(%s)" % ", ".join(items)


class _DefCompiler:
    """Compiles one annotated definition into Python source lines."""

    def __init__(self, adef, own=frozenset(), params=frozenset()):
        self.adef = adef
        self.own = own  # functions defined in the same module
        self.params = params  # functor parameters, bound per instance
        self.bt_params = adef.bt_params
        self.helpers = []
        self._rename = {}
        for p in adef.params:
            self._rename[p] = self._pick(p)

    def _pick(self, name):
        candidate = mangle(name)
        taken = set(self.bt_params) | set(self._rename.values())
        while candidate in taken:
            candidate += "_v"
        return candidate

    def pyvar(self, name):
        if name not in self._rename:
            self._rename[name] = self._pick(name)
        return self._rename[name]

    # -- binding times and types --------------------------------------------

    def bt_src(self, b, env_fmt=None):
        """Compile a symbolic binding time to a Python expression.

        ``env_fmt`` renders a parameter reference (defaults to the bare
        parameter name, which is in scope in generated functions)."""
        fmt = env_fmt or (lambda n: n)
        if b.dyn:
            return "rt.D"
        names = sorted(b.params)
        if not names:
            return "rt.S"
        if len(names) == 1:
            return fmt(names[0])
        return "rt.lub(%s)" % ", ".join(fmt(n) for n in names)

    def type_src(self, t, env_fmt=None):
        bt = self.bt_src(t.bt, env_fmt)
        if isinstance(t, BTTBase):
            return "rt.TBase(%r, %s)" % (t.name, bt)
        if isinstance(t, BTTSkel):
            return "rt.TSkel(%s)" % bt
        if isinstance(t, BTTList):
            return "rt.TList(%s, %s)" % (bt, self.type_src(t.elem, env_fmt))
        if isinstance(t, BTTPair):
            return "rt.TPair(%s, %s, %s)" % (
                bt,
                self.type_src(t.fst, env_fmt),
                self.type_src(t.snd, env_fmt),
            )
        if isinstance(t, BTTFun):
            return "rt.TFun(%s, %s, %s)" % (
                bt,
                self.type_src(t.arg, env_fmt),
                self.type_src(t.res, env_fmt),
            )
        raise TypeError("not a binding-time type: %r" % (t,))

    # -- expressions ----------------------------------------------------------

    def expr_src(self, e):
        if isinstance(e, ALit):
            if e.value == ():
                return "rt.nil()"
            return "rt.lit(%r)" % (e.value,)
        if isinstance(e, AVar):
            return self.pyvar(e.name)
        if isinstance(e, APrim):
            parts = ["st", self.bt_src(e.bt)]
            parts += [self.expr_src(a) for a in e.args]
            return "rt.%s(%s)" % (PRIMITIVES[e.op].__name__, ", ".join(parts))
        if isinstance(e, AIf):
            return "rt.mk_if(st, %s, %s, lambda: %s, lambda: %s)" % (
                self.bt_src(e.bt),
                self.expr_src(e.cond),
                self.expr_src(e.then_branch),
                self.expr_src(e.else_branch),
            )
        if isinstance(e, ACall):
            parts = ["st"]
            parts += [self.bt_src(b) for b in e.bt_args]
            parts += [self.expr_src(a) for a in e.args]
            if e.func in self.own or e.func in self.params:
                callee = mk_name(e.func)
            else:
                callee = "st.mk[%r]" % e.func
            return "%s(%s)" % (callee, ", ".join(parts))
        if isinstance(e, ALam):
            return self._lam_src(e)
        if isinstance(e, AApp):
            return "rt.mk_app(st, %s, %s, %s)" % (
                self.bt_src(e.bt),
                self.expr_src(e.fun),
                self.expr_src(e.arg),
            )
        if isinstance(e, ACoerce):
            return self._coerce_src(e)
        raise TypeError("not an annotated expression: %r" % (e,))

    def _coerce_src(self, e):
        """A coercion.  A base-type target is emitted at its binding
        time with no type skeleton: a literal as ``rt.lit_at``, any other
        operand through ``rt.coerce_base``."""
        if isinstance(e.dst, BTTBase):
            bt = self.bt_src(e.dst.bt)
            if isinstance(e.expr, ALit) and e.expr.value != ():
                return "rt.lit_at(%s, %r)" % (bt, e.expr.value)
            return "rt.coerce_base(st, %s, %s, %r)" % (
                self.expr_src(e.expr),
                bt,
                e.dst.name,
            )
        return "rt.coerce(st, %s, %s)" % (
            self.expr_src(e.expr),
            self.type_src(e.dst),
        )

    def _lam_src(self, e):
        helper = "_" + mangle(e.label.replace(".", "_"))
        arg_py = self.pyvar(e.var)
        free_py = [self.pyvar(v) for v in e.free]
        params = ["st"] + list(self.bt_params) + [arg_py] + free_py
        body = self.expr_src(e.body)
        self.helpers.append(
            "def %s(%s):\n    return %s\n" % (helper, ", ".join(params), body)
        )
        env = _tuple_src("(%r, %s)" % (v, self.pyvar(v)) for v in e.free)
        return "rt.mk_lam(st, %r, %s, %s, %s, %r, %s)" % (
            e.var,
            helper,
            _tuple_src(self.bt_params),
            env,
            e.label,
            _tuple_src(
                "_QUAL + %r" % f if f in self.own else repr(f) for f in e.fvs
            ),
        )

    # -- the mk_f / mk_f_body pair -------------------------------------------

    def compile(self):
        d = self.adef
        fn = mk_name(d.name)
        body_fn = fn + "_body"
        bt_list = list(self.bt_params)
        param_py = [self.pyvar(p) for p in d.params]
        head_args = ["st"] + bt_list + param_py
        body_src = self.expr_src(d.body)

        lines = list(self.helpers)
        fresh_args = ["_a[%d]" % i for i in range(len(param_py))]
        rebuilt = ", ".join(["st"] + bt_list + fresh_args)
        lines.append(
            "def %s(%s):\n"
            "    return rt.mk_resid(st, %s, _QUAL + %r, %s, %s,\n"
            "                       lambda: %s(%s),\n"
            "                       lambda _a: %s(%s))\n"
            % (
                fn,
                ", ".join(head_args),
                self.bt_src(d.unfold),
                d.name,
                _tuple_src(self.bt_params),
                _tuple_src(param_py),
                body_fn,
                ", ".join(head_args),
                body_fn,
                rebuilt,
            )
        )
        lines.append(
            "def %s(%s):\n    return %s\n"
            % (body_fn, ", ".join(head_args), body_src)
        )
        return "\n".join(lines)

    # -- metadata --------------------------------------------------------------

    def signature_src(self, scheme):
        from repro.bt.scheme import param_own_names, result_input_names

        d = self.adef
        env_fmt = lambda n: "_e[%r]" % n
        type_items = ", ".join(
            self.type_src(t, env_fmt) for t in d.param_types
        )
        if len(d.param_types) == 1:
            type_items += ","
        param_bts = _tuple_src(
            _tuple_src(repr(n) for n in names)
            for names in param_own_names(scheme)
        )
        return (
            "rt.Signature(bt_params=%s, params=%s, param_bts=%s,\n"
            "    param_types=lambda _e: (%s),\n"
            "    quals=%s, dyn_inputs=%s, result_inputs=%s)"
            % (
                _tuple_src(repr(b) for b in d.bt_params),
                _tuple_src(repr(p) for p in d.params),
                param_bts,
                type_items,
                _tuple_src(
                    repr(q) for q in _signature_quals(d)
                ),
                _tuple_src(repr(n) for n in _dyn_inputs(d)),
                _tuple_src(repr(n) for n in result_input_names(scheme)),
            )
        )


def _signature_quals(d):
    """Qualifications between binding-time parameters.

    The finalised annotated types already absorb every constraint edge:
    a slot constrained from several parameters is annotated with their
    lub, so ``param_bts`` lists all parameters each object parameter
    depends on and the engine's saturation makes any qualification hold
    automatically.  Nothing is left to record explicitly; the field is
    kept so hand-written generating extensions can state qualifications.
    """
    return ()


def _dyn_inputs(d):
    """Binding-time parameters forced dynamic regardless of the goal.

    Forced-dynamic slots are annotated ``D`` outright and have no
    parameters, so no *parameter* is ever forced; the engine saturates
    via ``param_bts`` instead.  Kept for hand-written extensions."""
    return ()


@dataclass(frozen=True)
class DefFragment:
    """Everything the cogen emits for one definition: a pure function
    of its annotated form and scheme, which :func:`assemble_module`
    joins into a module's genext source."""

    name: str
    chunk: str  # helpers + mk_f + mk_f_body source
    sig_line: str
    info_line: str
    imported: Tuple[str, ...]  # sorted names of the imported callees


def cogen_def(adef, scheme, own, params=frozenset()):
    """Compile one annotated definition into a :class:`DefFragment`.

    ``own`` is the set of function names defined in the same module
    (they qualify differently from imported names); ``params`` are a
    functor's parameter names, called directly like ``own`` ones."""
    compiler = _DefCompiler(adef, own, params)
    chunk = compiler.compile()
    sig_line = "_SIGNATURES[_QUAL + %r] = %s" % (
        adef.name,
        compiler.signature_src(scheme),
    )
    # Calls from inside this module resolve within this namespace, so
    # the fvs recorded for placement are the *qualified* names.
    fvs = tuple(sorted(acalled_functions(adef.body) | {adef.name}))
    fvs_src = _tuple_src("_QUAL + %r" % f if f in own else repr(f) for f in fvs)
    info_line = "_FN_INFO[_QUAL + %r] = rt.FnInfo(_QUAL + %r, _MODULE, %s, %s)" % (
        adef.name,
        adef.name,
        _tuple_src(repr(p) for p in adef.params),
        fvs_src,
    )
    imported = tuple(
        callee for callee in sorted(acalled_functions(adef.body)) if callee not in own
    )
    return DefFragment(
        name=adef.name,
        chunk=chunk,
        sig_line=sig_line,
        info_line=info_line,
        imported=imported,
    )


def assemble_module(name, imports, fragments):
    """Assemble per-definition fragments into one :class:`GenextModule`.

    Deterministic in ``(name, imports, fragments)``, so ``jobs=1`` and
    ``jobs=N`` builds publish byte-identical genext sources."""
    chunks = [HEADER % {"name": name}]
    imported = set()
    for fr in fragments:
        chunks.append(fr.chunk)
        imported.update(fr.imported)
    chunks.append("_SIGNATURES = {}\n")
    chunks.extend(fr.sig_line + "\n" for fr in fragments)
    chunks.append("\n_FN_INFO = {}\n")
    chunks.extend(fr.info_line + "\n" for fr in fragments)
    chunks.append("\n_IMPORTED = %r\n" % (tuple(sorted(imported)),))
    chunks.append(
        "_EXPORTS = {%s}\n"
        % ", ".join(
            "(_QUAL + %r): %s" % (fr.name, mk_name(fr.name))
            for fr in fragments
        )
    )
    return GenextModule(
        name=name,
        imports=tuple(imports),
        source="\n".join(chunks),
    )


def cogen_fragments(analysis, params=frozenset()):
    """One :class:`DefFragment` per definition of a module analysis."""
    amodule = analysis.annotated
    own = {d.name for d in amodule.defs}
    return [
        cogen_def(d, analysis.schemes[d.name], own, params) for d in amodule.defs
    ]


def cogen_module(analysis, params=frozenset()):
    """Compile one :class:`~repro.bt.analysis.ModuleAnalysis` into a
    :class:`GenextModule` (generated Python source).  ``params`` names a
    functor's parameters (see :func:`cogen_def`)."""
    amodule = analysis.annotated
    return assemble_module(
        amodule.name, amodule.imports, cogen_fragments(analysis, params)
    )


def cogen_program(program_analysis):
    """Run the cogen over every module of a program analysis."""
    return tuple(cogen_module(m) for m in program_analysis.modules)
