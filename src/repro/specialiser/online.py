"""An *online* specialiser, for contrast with the offline pipeline.

Sec. 2 of the paper motivates offline specialisation: "An obvious way
for a specialiser to decide whether an operation should be static is to
inspect its operands" — that is online specialisation.  It needs no
binding-time analysis and no annotations, but the decisions are taken at
specialisation time by inspecting values, which is exactly what makes
self-application/generating extensions blow up — and, with a
termination-safe unfolding strategy, it typically unfolds *less* than an
offline specialiser armed with binding-time information.

Strategy implemented here (conservative, terminating wherever the
offline specialiser terminates):

* primitives/conditionals/applications are performed when their operands
  are inspectably static, residualised otherwise;
* a named call is **unfolded only when all its arguments are fully
  static** (then specialisation is just evaluation, which diverges only
  if the program would); otherwise it is **residualised polyvariantly**
  with the same memoisation/pending machinery as the offline engine.

The benchmark ``bench_online_vs_offline`` quantifies the cost: on
``power {S D}``-style goals the online strategy produces a chain of
residual functions where the offline one inlines completely.
"""

from repro.genext import runtime as rt
from repro.genext.engine import _attach_entry
from repro.lang.ast import App, Call, If, Lam, Lit, Prim, Var
from repro.lang.names import called_functions
from repro.modsys.program import link_program
from repro.residual.module import assemble_monolithic, assemble_program


def fully_static(pe):
    """Is this value completely known (usable as evaluation input)?"""
    if isinstance(pe, rt.SBase):
        return True
    if isinstance(pe, rt.SList):
        return all(fully_static(v) for v in pe.items)
    if isinstance(pe, rt.SPair):
        return fully_static(pe.fst) and fully_static(pe.snd)
    if isinstance(pe, rt.SClo):
        return all(fully_static(v) for _, v in pe.env)
    return False


_BASE_OPS = (
    "+", "-", "*", "div", "mod", "==", "<", "<=", "and", "or", "not"
)


class OnlineSpecialiser:
    """Specialises a linked program by value inspection."""

    def __init__(self, linked):
        self.linked = linked
        self.defs = {}
        for module, d in linked.program.all_defs():
            self.defs[d.name] = d
        self.fn_info = {
            name: rt.FnInfo(linked.symbols.module_of(name), d.params)
            for name, d in self.defs.items()
        }
        self._lam_labels = {}

    # -- driving ------------------------------------------------------------

    def specialise(
        self, goal, static_args=None, strategy="bfs", sink=None, monolithic=False
    ):
        from repro.genext.engine import SpecialisationResult

        static_args = dict(static_args or {})
        d = self.defs[goal]
        unknown = set(static_args) - set(d.params)
        if unknown:
            raise rt.SpecError(
                "%r has no parameter(s) %s" % (goal, ", ".join(sorted(unknown)))
            )
        st = rt.SpecState(
            self.fn_info, self.linked.graph, strategy=strategy, sink=sink
        )
        args = []
        dynamic_params = []
        for p in d.params:
            if p in static_args:
                args.append(rt.from_python(static_args[p]))
            else:
                dynamic_params.append(p)
                args.append(rt.DCode(Var(p)))
        with rt.deep_recursion():
            result = self.call(st, goal, tuple(args))
            st.run_pending()
            entry_code = rt.dynamize(st, result).code
            st.run_pending()
        entry, placed = _attach_entry(
            st, goal, args, entry_code, tuple(dynamic_params), list(st.defs)
        )
        if monolithic:
            program = assemble_monolithic(placed)
            names = {frozenset(["Residual"]): "Residual"}
        else:
            program, names = assemble_program(placed)
        return SpecialisationResult(
            program=program,
            linked=link_program(program),
            entry=entry,
            dynamic_params=tuple(dynamic_params),
            stats=st.stats.as_dict(),
            module_names=names,
        )

    # -- calls ---------------------------------------------------------------

    def call(self, st, fname, args):
        d = self.defs[fname]
        unfold = rt.S if all(fully_static(a) for a in args) else rt.D
        return rt.mk_resid(
            st,
            unfold,
            fname,
            (),
            args,
            lambda: self._body(st, d, args),
            # Unlike the offline pipeline, no coercion guarantees the
            # body of a residual version is dynamic code — dynamise it.
            lambda fresh: rt.dynamize(st, self._body(st, d, fresh)),
        )

    def _body(self, st, d, args):
        return self.eval(st, d.body, dict(zip(d.params, args)))

    # -- evaluation -------------------------------------------------------------

    def eval(self, st, e, env):
        if isinstance(e, Lit):
            return rt.nil() if e.value == () else rt.lit(e.value)
        if isinstance(e, Var):
            return env[e.name]
        if isinstance(e, Prim):
            return self._prim(st, e, env)
        if isinstance(e, If):
            cond = self.eval(st, e.cond, env)
            if isinstance(cond, rt.SBase):
                branch = e.then_branch if cond.value else e.else_branch
                return self.eval(st, branch, env)
            return rt.DCode(
                If(
                    rt.code_of(cond),
                    rt.dynamize(st, self.eval(st, e.then_branch, env)).code,
                    rt.dynamize(st, self.eval(st, e.else_branch, env)).code,
                )
            )
        if isinstance(e, Call):
            args = tuple(self.eval(st, a, env) for a in e.args)
            return self.call(st, e.func, args)
        if isinstance(e, Lam):
            return self._closure(e, env)
        if isinstance(e, App):
            fun = self.eval(st, e.fun, env)
            arg = self.eval(st, e.arg, env)
            if isinstance(fun, rt.SClo):
                return fun.apply(st, arg)
            return rt.DCode(
                App(rt.code_of(fun), rt.dynamize(st, arg).code)
            )
        raise TypeError("not an expression: %r" % (e,))

    def _prim(self, st, e, env):
        args = tuple(self.eval(st, a, env) for a in e.args)
        op = e.op
        static = False
        if op in _BASE_OPS:
            static = all(isinstance(a, rt.SBase) for a in args)
        elif op == "cons":
            static = isinstance(args[1], rt.SList)
        elif op in ("head", "tail", "null"):
            static = isinstance(args[0], rt.SList)
        elif op == "pair":
            static = True
        elif op in ("fst", "snd"):
            static = isinstance(args[0], rt.SPair)
        if static:
            return rt.mk_prim(st, op, rt.S, args)
        return rt.mk_prim(
            st, op, rt.D, tuple(rt.dynamize(st, a) for a in args)
        )

    def _closure(self, e, env):
        label = self._lam_labels.get(id(e))
        if label is None:
            label = "online.lam%d" % (len(self._lam_labels) + 1)
            self._lam_labels[id(e)] = label
            self._lam_labels[label] = e  # keep the node alive
        free = sorted(
            name for name in _free_vars(e.body, {e.var}) if name in env
        )
        captured = tuple((name, env[name]) for name in free)
        fvs = tuple(sorted(called_functions(e.body)))

        def helper(st, arg, *env_values):
            inner = dict(zip(free, env_values))
            inner[e.var] = arg
            return self.eval(st, e.body, inner)

        return rt.mk_lam(None, e.var, helper, (), captured, label, fvs)


def _free_vars(e, bound):
    from repro.lang.names import free_vars

    return free_vars(e, frozenset(bound))


def online_specialise(source, goal, static_args=None, **kwargs):
    """Convenience: parse + link + online-specialise in one call."""
    from repro.modsys.program import load_program

    linked = source if hasattr(source, "program") else load_program(source)
    return OnlineSpecialiser(linked).specialise(goal, static_args, **kwargs)
