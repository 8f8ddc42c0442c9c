"""Per-module polymorphic binding-time analysis (Sec. 4.1).

The analysis processes one module at a time, needing only the binding-time
interfaces of imported modules (never the uses of the module being
analysed).  For each definition it infers a *principal* binding-time
scheme — polymorphic in binding-time variables, with subtype
qualifications — and elaborates the definition into annotated form
(Fig. 2) with symbolic annotations over the definition's binding-time
parameters.

Inference is constraint-based: every binding-time slot is a variable in a
:class:`~repro.bt.graph.ConstraintGraph`; lubs and well-formedness are
``<=`` edges; the principal solution is the least model.  Recursive
definitions get *polymorphic recursion* in binding times (DHM95) by
Kleene iteration per strongly connected component of the call graph,
starting from the most general (unconstrained) signature.

The unfold/residualise annotation of a definition is the lub of the
binding times of all conditionals in its body, and flows into the top of
the result type (a residualised function yields a dynamic result) — the
paper's conservative Similix-style strategy.

One optional strategy upgrade (``repro.api.SpecOptions``) sits on top:
``unfolding="size-change"`` replaces the Similix unfold rule for the
recursive components where :mod:`repro.bt.sizechange` proves that
unfolding quasi-terminates.  The unfold flag becomes the lub of the
*proof's required parameters* instead of the body's conditionals, so a
provably decreasing loop over a static structure unfolds even under
dynamic control.
"""

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.anno.ast import (
    AApp,
    ACall,
    ACoerce,
    ADef,
    AIf,
    ALam,
    ALit,
    AModule,
    APrim,
    AProgram,
    AVar,
    acalled_functions,
    afree_vars,
)
from repro.bt import bt as btmod
from repro.bt.bttypes import (
    BTTBase,
    BTTFun,
    BTTList,
    BTTPair,
    BTTSkel,
    BTUnifier,
    BTUnifyError,
    map_bts,
)
from repro.bt.graph import ConstraintGraph
from repro.bt.scheme import (
    BTScheme,
    Canonicaliser,
    input_name,
    instantiate,
)
from repro.bt.sizechange import sct_unfold_params
from repro.types.infer import module_def_sccs

_MAX_FIXPOINT_ITERATIONS = 50

UNFOLDINGS = ("lub", "size-change")

_ARITH = ("+", "-", "*", "div", "mod")
_CMP = ("==", "<", "<=")
_BOOL2 = ("and", "or")


class BTAError(Exception):
    """The binding-time analysis failed (shape error, divergence, ...)."""


def most_general_scheme(arity):
    """The unconstrained signature assumed for a recursive definition on
    the first fixed-point iteration: fresh skeleton variables everywhere,
    no constraints."""
    args = tuple(BTTSkel(i, i) for i in range(arity))
    res = BTTSkel(arity, arity)
    return BTScheme(
        args=args,
        res=res,
        nslots=arity + 2,
        unfold=arity + 1,
        edges=frozenset(),
        dyn=frozenset(),
    )


@dataclass
class ModuleAnalysis:
    """The result of analysing one module: its binding-time interface
    (one scheme per definition) plus the annotated module."""

    name: str
    schemes: Dict[str, BTScheme]
    annotated: AModule


@dataclass
class ProgramAnalysis:
    """Analyses of every module, in topological order."""

    modules: Tuple[ModuleAnalysis, ...]
    schemes: Dict[str, BTScheme]
    annotated: AProgram


class _DefInference:
    """One inference pass over one definition."""

    def __init__(self, def_name, env, force_residual, sct_params=None):
        self.def_name = def_name
        self.env = env  # function name -> BTScheme
        self.graph = ConstraintGraph()
        self.unifier = BTUnifier(self.graph)
        self.cond_bts = []
        self.force_residual = force_residual
        # Size-change unfolding: parameters whose binding times gate the
        # unfold flag instead of the body's conditionals (None = Similix).
        self.sct_params = sct_params
        self._lam_counter = 0

    # -- fresh skeleton constructors (always well-formed) -----------------

    def _base(self, name):
        return BTTBase(name, self.graph.fresh())

    def _fresh_list(self):
        t = BTTList(self.graph.fresh(), self.unifier.fresh_skel())
        self.unifier.well_formed(t)
        return t

    def _fresh_pair(self):
        t = BTTPair(
            self.graph.fresh(), self.unifier.fresh_skel(), self.unifier.fresh_skel()
        )
        self.unifier.well_formed(t)
        return t

    def _fresh_fun(self):
        t = BTTFun(
            self.graph.fresh(), self.unifier.fresh_skel(), self.unifier.fresh_skel()
        )
        self.unifier.well_formed(t)
        return t

    # -- plumbing -----------------------------------------------------------

    def _fail(self, message):
        raise BTAError("in %s: %s" % (self.def_name, message))

    def _unify(self, a, b, what):
        previous = self.graph.set_context(what)
        try:
            self.unifier.unify(a, b)
        except BTUnifyError as e:
            self._fail("%s: %s" % (what, e))
        finally:
            self.graph.set_context(previous)

    def _coerce_expr(self, aexpr, src, dst, what="coercion"):
        """Record that ``aexpr : src`` is used at type ``dst``; wraps the
        expression in a (possibly identity) coercion node."""
        previous = self.graph.set_context(what)
        try:
            self.unifier.coerce(src, dst)
        except BTUnifyError as e:
            self._fail("%s: %s" % (what, e))
        finally:
            self.graph.set_context(previous)
        return ACoerce(src, dst, aexpr)

    def _join_shape(self, a, b, what):
        """A fresh upper-bound skeleton for two same-shaped types.

        Base/list/pair nodes get fresh binding times (so branch binding
        times are properly lubbed, not equated); function children are
        taken from one side (the subsequent coercions equate them)."""
        a = self.unifier.resolve(a)
        b = self.unifier.resolve(b)
        if isinstance(a, BTTSkel) and isinstance(b, BTTSkel):
            # Both branches of unknown structure: nothing to copy, so the
            # branches are equated (the unavoidable conservatism of
            # joining two type variables).
            self._unify(a, b, what)
            return self.unifier.resolve(a)
        if isinstance(a, BTTSkel):
            return self._join_shape(self.unifier.instantiate_like(b), b, what)
        if isinstance(b, BTTSkel):
            return self._join_shape(a, self.unifier.instantiate_like(a), what)
        if isinstance(a, BTTBase) and isinstance(b, BTTBase):
            if a.name != b.name:
                self._fail("%s: %s vs %s" % (what, a.name, b.name))
            return BTTBase(a.name, self.graph.fresh())
        if isinstance(a, BTTList) and isinstance(b, BTTList):
            t = BTTList(self.graph.fresh(), self._join_shape(a.elem, b.elem, what))
            self.unifier.well_formed(t)
            return t
        if isinstance(a, BTTPair) and isinstance(b, BTTPair):
            t = BTTPair(
                self.graph.fresh(),
                self._join_shape(a.fst, b.fst, what),
                self._join_shape(a.snd, b.snd, what),
            )
            self.unifier.well_formed(t)
            return t
        if isinstance(a, BTTFun) and isinstance(b, BTTFun):
            t = BTTFun(self.graph.fresh(), a.arg, a.res)
            self.unifier.well_formed(t)
            return t
        self._fail(
            "%s: shape mismatch %s vs %s"
            % (what, type(a).__name__, type(b).__name__)
        )

    # -- inference ---------------------------------------------------------

    def infer_expr(self, expr, locals_):
        from repro.lang.ast import App, Call, If, Lam, Lit, Prim, Var

        g = self.graph
        if isinstance(expr, Lit):
            if isinstance(expr.value, bool):
                return self._base("Bool"), ALit(expr.value)
            if expr.value == ():
                return self._fresh_list(), ALit(expr.value)
            return self._base("Nat"), ALit(expr.value)
        if isinstance(expr, Var):
            return locals_[expr.name], AVar(expr.name)
        if isinstance(expr, Prim):
            return self._infer_prim(expr, locals_)
        if isinstance(expr, If):
            tc, ac = self.infer_expr(expr.cond, locals_)
            bc = g.fresh()
            ac = self._coerce_expr(ac, tc, BTTBase("Bool", bc), "condition")
            self.cond_bts.append(bc)
            t1, a1 = self.infer_expr(expr.then_branch, locals_)
            t2, a2 = self.infer_expr(expr.else_branch, locals_)
            rho = self._join_shape(t1, t2, "branches of 'if'")
            previous = g.set_context(
                "the result of a conditional depends on its test"
            )
            g.edge(bc, rho.bt)
            g.set_context(previous)
            a1 = self._coerce_expr(a1, t1, rho, "then-branch")
            a2 = self._coerce_expr(a2, t2, rho, "else-branch")
            return rho, AIf(bc, ac, a1, a2)
        if isinstance(expr, Call):
            scheme = self.env.get(expr.func)
            if scheme is None:
                self._fail("no binding-time scheme for %r" % expr.func)
            fargs, fres, slot_map = instantiate(scheme, g, self.unifier)
            if len(fargs) != len(expr.args):
                self._fail(
                    "%r expects %d arguments, got %d"
                    % (expr.func, len(fargs), len(expr.args))
                )
            coerced = []
            for i, a in enumerate(expr.args):
                ti, ai = self.infer_expr(a, locals_)
                coerced.append(
                    self._coerce_expr(
                        ai, ti, fargs[i], "argument %d of %r" % (i + 1, expr.func)
                    )
                )
            bt_args = tuple(slot_map[s] for s in scheme.inputs())
            return fres, ACall(expr.func, bt_args, tuple(coerced))
        if isinstance(expr, Lam):
            tx = self.unifier.fresh_skel()
            inner = dict(locals_)
            inner[expr.var] = tx
            tb, ab = self.infer_expr(expr.body, inner)
            t = BTTFun(g.fresh(), tx, tb)
            self.unifier.well_formed(t)
            self._lam_counter += 1
            label = "%s.lam%d" % (self.def_name, self._lam_counter)
            return t, ALam(expr.var, ab, label, type=t)
        if isinstance(expr, App):
            tf, af = self.infer_expr(expr.fun, locals_)
            fun = self._fresh_fun()
            self._unify(tf, fun, "'@' application")
            ta, aa = self.infer_expr(expr.arg, locals_)
            aa = self._coerce_expr(aa, ta, fun.arg, "'@' argument")
            return self.unifier.resolve(fun.res), AApp(fun.bt, af, aa)
        raise TypeError("not an expression: %r" % (expr,))

    def _infer_prim(self, expr, locals_):
        g = self.graph
        op = expr.op
        inferred = [self.infer_expr(a, locals_) for a in expr.args]
        if op in _ARITH or op in _CMP:
            o = g.fresh()
            dst = BTTBase("Nat", o)
            args = tuple(
                self._coerce_expr(a, t, dst, "operand of %r" % op)
                for (t, a) in inferred
            )
            res_name = "Bool" if op in _CMP else "Nat"
            return BTTBase(res_name, o), APrim(op, o, args)
        if op in _BOOL2 or op == "not":
            o = g.fresh()
            dst = BTTBase("Bool", o)
            args = tuple(
                self._coerce_expr(a, t, dst, "operand of %r" % op)
                for (t, a) in inferred
            )
            return BTTBase("Bool", o), APrim(op, o, args)
        if op == "cons":
            (t1, a1), (t2, a2) = inferred
            lst = self._fresh_list()
            self._unify(t2, lst, "second operand of 'cons'")
            r = g.fresh()
            res = BTTList(r, lst.elem)
            self.unifier.well_formed(res)
            g.edge(lst.bt, r)
            a1 = self._coerce_expr(
                a1, t1, self.unifier.resolve(lst.elem), "first operand of 'cons'"
            )
            a2 = self._coerce_expr(a2, lst, res, "second operand of 'cons'")
            return res, APrim(op, r, (a1, a2))
        if op in ("head", "tail", "null"):
            ((t1, a1),) = inferred
            lst = self._fresh_list()
            self._unify(t1, lst, "operand of %r" % op)
            if op == "head":
                return self.unifier.resolve(lst.elem), APrim(op, lst.bt, (a1,))
            if op == "tail":
                return lst, APrim(op, lst.bt, (a1,))
            o = g.fresh()
            g.edge(lst.bt, o)
            return BTTBase("Bool", o), APrim(op, o, (a1,))
        if op == "pair":
            (t1, a1), (t2, a2) = inferred
            p = g.fresh()
            res = BTTPair(p, t1, t2)
            self.unifier.well_formed(res)
            return res, APrim(op, p, (a1, a2))
        if op in ("fst", "snd"):
            ((t1, a1),) = inferred
            pr = self._fresh_pair()
            self._unify(t1, pr, "operand of %r" % op)
            component = pr.fst if op == "fst" else pr.snd
            return self.unifier.resolve(component), APrim(op, pr.bt, (a1,))
        self._fail("unknown primitive %r" % op)

    def infer_def(self, d):
        """Infer ``d``; returns ``(scheme, finalise_closure)`` where the
        closure produces the annotated definition on demand."""
        param_types = tuple(self.unifier.fresh_skel() for _ in d.params)
        locals_ = dict(zip(d.params, param_types))
        res_type, abody = self.infer_expr(d.body, locals_)
        unfold_var = self.graph.fresh()
        if self.sct_params is not None:
            # Size-change termination is proved: unfolding is gated only
            # by the staticness of the decreasing parameters, not by the
            # body's conditionals.
            previous = self.graph.set_context(
                "unfolding is safe while the size-change proof's "
                "decreasing parameters stay static"
            )
            index_of = {p: i for i, p in enumerate(d.params)}
            for p in self.sct_params:
                t = self.unifier.resolve(param_types[index_of[p]])
                self.graph.edge(t.bt, unfold_var)
            self.graph.set_context(previous)
        else:
            previous = self.graph.set_context(
                "the definition is residualised if any conditional in its "
                "body is dynamic (the Similix rule)"
            )
            for c in self.cond_bts:
                self.graph.edge(c, unfold_var)
            self.graph.set_context(previous)
        if self.force_residual:
            self.graph.force_dynamic(unfold_var)
        # A residualised function delivers a dynamic result.
        previous = self.graph.set_context(
            "a residualised definition delivers a dynamic result"
        )
        self.graph.edge(unfold_var, self.unifier.resolve(res_type).bt)
        self.graph.set_context(previous)
        canon = Canonicaliser(self.unifier)
        scheme = canon.build(
            self.graph,
            [self.unifier.deep(t) for t in param_types],
            self.unifier.deep(res_type),
            unfold_var,
        )
        finaliser = _Finaliser(
            self, d, scheme, canon, param_types, res_type, unfold_var, abody
        )
        return scheme, finaliser


class _Finaliser:
    """Turns a proto-annotated definition (raw graph-variable slots) into
    a finished :class:`ADef` with symbolic binding times."""

    def __init__(self, inf, d, scheme, canon, param_types, res_type, unfold_var, abody):
        self.inf = inf
        self.d = d
        self.scheme = scheme
        self.canon = canon
        self.param_types = param_types
        self.res_type = res_type
        self.unfold_var = unfold_var
        self.abody = abody

    def finalise(self):
        inf = self.inf
        # Recover the real graph variables behind the canonical inputs.
        slot_to_real = {}
        for real, slot in self.canon.slot_of.items():
            slot_to_real.setdefault(slot, real)
        input_slots = self.scheme.inputs()
        input_reals = [slot_to_real[s] for s in input_slots]
        names = {
            real: input_name(i) for i, real in enumerate(input_reals)
        }
        solution = inf.graph.solve(input_reals)

        def final_bt(v):
            params, dyn = solution[v]
            if dyn:
                return btmod.D
            return btmod.BT(frozenset(names[p] for p in params), False)

        def final_type(t):
            return map_bts(inf.unifier.deep(t), final_bt)

        body = _final_expr(self.abody, final_bt, final_type)
        return ADef(
            name=self.d.name,
            bt_params=tuple(input_name(i) for i in range(len(input_reals))),
            params=self.d.params,
            body=body,
            unfold=final_bt(self.unfold_var),
            param_types=tuple(final_type(t) for t in self.param_types),
            res_type=final_type(self.res_type),
        )


def _final_expr(e, final_bt, final_type):
    if isinstance(e, (ALit, AVar)):
        return e
    if isinstance(e, APrim):
        return APrim(
            e.op,
            final_bt(e.bt),
            tuple(_final_expr(a, final_bt, final_type) for a in e.args),
        )
    if isinstance(e, AIf):
        return AIf(
            final_bt(e.bt),
            _final_expr(e.cond, final_bt, final_type),
            _final_expr(e.then_branch, final_bt, final_type),
            _final_expr(e.else_branch, final_bt, final_type),
        )
    if isinstance(e, ACall):
        return ACall(
            e.func,
            tuple(final_bt(b) for b in e.bt_args),
            tuple(_final_expr(a, final_bt, final_type) for a in e.args),
        )
    if isinstance(e, ALam):
        body = _final_expr(e.body, final_bt, final_type)
        return ALam(
            e.var,
            body,
            e.label,
            free=tuple(sorted(afree_vars(body, frozenset([e.var])))),
            fvs=tuple(sorted(acalled_functions(body))),
            type=final_type(e.type),
        )
    if isinstance(e, AApp):
        return AApp(
            final_bt(e.bt),
            _final_expr(e.fun, final_bt, final_type),
            _final_expr(e.arg, final_bt, final_type),
        )
    if isinstance(e, ACoerce):
        src = final_type(e.src)
        dst = final_type(e.dst)
        inner = _final_expr(e.expr, final_bt, final_type)
        if src == dst:
            return inner
        return ACoerce(src, dst, inner)
    raise TypeError("not an annotated expression: %r" % (e,))


def analyse_scc(by_name, group, env, force_residual=frozenset(),
                unfolding="lub"):
    """Fixpoint-analyse one strongly connected component of definitions.

    ``by_name`` maps def names to (resolved) :class:`~repro.lang.ast.Def`
    nodes; ``group`` lists the SCC's members; ``env`` maps every name
    visible to the group (imports plus already-analysed same-module
    defs) to its :class:`BTScheme`.  Recursion inside the group gets
    polymorphic recursion by Kleene iteration from the most general
    signature.

    Returns ``(schemes, annotated)``, two dicts keyed by def name.

    With ``unfolding="size-change"`` the component is first put through
    :func:`~repro.bt.sizechange.sct_unfold_params`; a successful proof
    swaps the Similix unfold rule for the proof's parameter gates.  The
    proof is purely syntactic, so it is computed once, outside the
    Kleene iteration."""
    sct = None
    if unfolding == "size-change":
        sct = sct_unfold_params(by_name, group)
    assumed = {name: most_general_scheme(by_name[name].arity) for name in group}
    finalisers = {}
    for _ in range(_MAX_FIXPOINT_ITERATIONS):
        results = {}
        for name in group:
            inf = _DefInference(
                name, {**env, **assumed}, name in force_residual,
                sct_params=None if sct is None else sct.get(name),
            )
            try:
                results[name] = inf.infer_def(by_name[name])
            except BTUnifyError as e:
                raise BTAError("in %s: %s" % (name, e))
        new = {name: scheme for name, (scheme, _) in results.items()}
        finalisers = {name: fin for name, (_, fin) in results.items()}
        if new == assumed:
            break
        assumed = new
    else:
        raise BTAError(
            "binding-time analysis did not converge for %s"
            % ", ".join(group)
        )
    annotated = {name: finalisers[name].finalise() for name in group}
    return assumed, annotated


def analyse_module(module, imported_schemes, force_residual=frozenset(),
                   unfolding="lub"):
    """Analyse one module given its imports' binding-time interfaces.

    ``imported_schemes`` maps function names to :class:`BTScheme`;
    ``force_residual`` names definitions to annotate non-unfoldable
    regardless of their conditionals (the paper hand-annotates its
    Sec. 5 examples this way).  ``unfolding`` picks the analysis
    strategy (see the module docstring); the default reproduces the
    paper's behaviour exactly.
    """
    if unfolding not in UNFOLDINGS:
        raise ValueError(
            "unfolding must be one of %r, got %r" % (UNFOLDINGS, unfolding)
        )
    env = dict(imported_schemes)
    schemes = {}
    annotated = {}
    by_name = {d.name: d for d in module.defs}
    for group in module_def_sccs(module):
        group_schemes, group_annotated = analyse_scc(
            by_name, group, env, force_residual, unfolding=unfolding
        )
        schemes.update(group_schemes)
        env.update(group_schemes)
        annotated.update(group_annotated)
    amodule = AModule(
        module.name,
        module.imports,
        tuple(annotated[d.name] for d in module.defs),
    )
    return ModuleAnalysis(module.name, schemes, amodule)


def analyse_program(linked, force_residual=frozenset(), unfolding="lub"):
    """Analyse every module of ``linked`` in topological order.

    This mirrors the paper's workflow: each module is analysed once,
    consulting only the interface information of the modules it imports.
    """
    interfaces = {}
    analyses = []
    by_name = {m.name: m for m in linked.program.modules}
    results = {}
    for module_name in linked.topo_order:
        module = by_name[module_name]
        visible = {}
        for dep in module.imports:
            visible.update(results[dep].schemes)
            # Re-exported names from transitive imports are not visible;
            # the language's import relation is non-transitive, matching
            # the source-level name resolution.
        analysis = analyse_module(
            module, visible, force_residual, unfolding=unfolding
        )
        results[module_name] = analysis
    for m in linked.program.modules:
        analyses.append(results[m.name])
    schemes = {}
    for a in analyses:
        schemes.update(a.schemes)
    annotated = AProgram(tuple(a.annotated for a in analyses))
    return ProgramAnalysis(tuple(analyses), schemes, annotated)
