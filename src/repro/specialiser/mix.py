"""``mix``: the interpretive offline specialiser baseline.

``mix`` walks annotated syntax trees at specialisation time, dispatching
on node types and looking up variables in environment dictionaries.  It
shares the specialisation *mechanisms* (partially static values,
``mk_resid`` memoisation, coercions, placement) with the generating
extensions, so residual programs are identical; the difference is purely
the interpretive overhead plus the obligation to parse and analyse the
whole program up front.  That makes it the right baseline for the
paper's claim that "running a generating extension is always faster than
running the corresponding specialiser".

:class:`MixProgram` implements the same protocol as
:class:`~repro.genext.link.GenextProgram` (``signature`` / ``mk`` /
``new_state``), so :func:`repro.genext.engine.specialise` drives both.
"""

import time

from repro.anno.ast import (
    AApp,
    ACall,
    ACoerce,
    AIf,
    ALam,
    ALit,
    APrim,
    AVar,
)
from repro.bt.bt import evaluate
from repro.bt.bttypes import BTTBase, BTTFun, BTTList, BTTPair, BTTSkel
from repro.genext import runtime as rt
from repro.genext.engine import specialise as engine_specialise


def runtime_type(t, btenv):
    """Evaluate a symbolic binding-time type to a runtime type."""
    if isinstance(t, BTTBase):
        return rt.TBase(t.name, evaluate(t.bt, btenv))
    if isinstance(t, BTTSkel):
        return rt.TSkel(evaluate(t.bt, btenv))
    if isinstance(t, BTTList):
        return rt.TList(evaluate(t.bt, btenv), runtime_type(t.elem, btenv))
    if isinstance(t, BTTPair):
        return rt.TPair(
            evaluate(t.bt, btenv),
            runtime_type(t.fst, btenv),
            runtime_type(t.snd, btenv),
        )
    if isinstance(t, BTTFun):
        return rt.TFun(
            evaluate(t.bt, btenv),
            runtime_type(t.arg, btenv),
            runtime_type(t.res, btenv),
        )
    raise TypeError("not a binding-time type: %r" % (t,))


def _signature_of(adef, scheme):
    """Build an executable :class:`~repro.genext.runtime.Signature` from
    an annotated definition (the same information a generating extension
    embeds)."""
    from repro.bt.scheme import param_own_names, result_input_names

    def param_types(env):
        btenv = {n: env[n] for n in adef.bt_params}
        return tuple(runtime_type(t, btenv) for t in adef.param_types)

    return rt.Signature(
        bt_params=adef.bt_params,
        params=adef.params,
        param_bts=param_own_names(scheme),
        param_types=param_types,
        result_inputs=result_input_names(scheme),
    )


class MixProgram:
    """A whole program loaded into the interpretive specialiser."""

    def __init__(self, program_analysis, module_graph):
        self.analysis = program_analysis
        self.graph = module_graph
        self.defs = {}
        for m in program_analysis.annotated.modules:
            for d in m.defs:
                self.defs[d.name] = (m.name, d)
        self.fn_info = {
            name: rt.FnInfo(module, d.params)
            for name, (module, d) in self.defs.items()
        }
        self._signatures = {
            name: _signature_of(d, program_analysis.schemes[name])
            for name, (_, d) in self.defs.items()
        }
        self._fingerprint = None

    def fingerprint(self):
        """Cache identity of this program (see
        :meth:`repro.genext.link.GenextProgram.fingerprint`); set by
        :meth:`from_source`, ``None`` (caching disabled) for programs
        constructed directly from an analysis."""
        return self._fingerprint

    # -- front end ----------------------------------------------------------

    @classmethod
    def from_source(cls, source, force_residual=frozenset(),
                    unfolding="lub"):
        """Parse, link, and analyse a whole program — the cost a
        specialiser pays on every run and a generating extension pays
        never.  Records the front-end time in ``front_end_seconds``.

        ``unfolding`` picks the unfold-annotation strategy (see
        :mod:`repro.bt.analysis`); it changes the residual program, so
        it enters the fingerprint."""
        from repro.bt.analysis import analyse_program
        from repro.modsys.program import load_program

        import hashlib

        started = time.perf_counter()
        linked = load_program(source)
        analysis = analyse_program(
            linked, force_residual=force_residual, unfolding=unfolding
        )
        mp = cls(analysis, linked.graph)
        mp.front_end_seconds = time.perf_counter() - started
        h = hashlib.sha256(b"mspec-mix-fingerprint\x00")
        h.update(source.encode("utf-8"))
        for name in sorted(force_residual):
            h.update(b"\x00resid:")
            h.update(name.encode("utf-8"))
        if unfolding != "lub":
            h.update(b"\x00unfolding:")
            h.update(unfolding.encode("utf-8"))
        mp._fingerprint = h.hexdigest()
        return mp

    # -- the GenextProgram protocol -------------------------------------------

    def signature(self, fname):
        return self._signatures[fname]

    def new_state(
        self,
        strategy="bfs",
        sink=None,
        max_versions=10_000,
        deadline=None,
        obs=None,
    ):
        return rt.SpecState(
            self.fn_info,
            self.graph,
            strategy=strategy,
            sink=sink,
            max_versions=max_versions,
            deadline=deadline,
            obs=obs,
        )

    def mk(self, fname):
        _, d = self.defs[fname]
        nbt = len(d.bt_params)

        def mk_f(st, *rest):
            bts = tuple(rest[:nbt])
            args = tuple(rest[nbt:])
            return self.call(st, fname, bts, args)

        return mk_f

    # -- the interpreter ---------------------------------------------------------

    def call(self, st, fname, bts, args):
        _, d = self.defs[fname]
        btenv = dict(zip(d.bt_params, bts))
        unfold = evaluate(d.unfold, btenv)
        return rt.mk_resid(
            st,
            unfold,
            fname,
            bts,
            args,
            lambda: self._body(st, d, btenv, args),
            lambda fresh: self._body(st, d, btenv, fresh),
        )

    def _body(self, st, d, btenv, args):
        env = dict(zip(d.params, args))
        return self.eval(st, d.body, env, btenv)

    def eval(self, st, e, env, btenv):
        if isinstance(e, ALit):
            if e.value == ():
                return rt.nil()
            return rt.lit(e.value)
        if isinstance(e, AVar):
            return env[e.name]
        if isinstance(e, APrim):
            args = tuple(self.eval(st, a, env, btenv) for a in e.args)
            return rt.mk_prim(st, e.op, evaluate(e.bt, btenv), args)
        if isinstance(e, AIf):
            return rt.mk_if(
                st,
                evaluate(e.bt, btenv),
                self.eval(st, e.cond, env, btenv),
                lambda: self.eval(st, e.then_branch, env, btenv),
                lambda: self.eval(st, e.else_branch, env, btenv),
            )
        if isinstance(e, ACall):
            bts = tuple(evaluate(b, btenv) for b in e.bt_args)
            args = tuple(self.eval(st, a, env, btenv) for a in e.args)
            return self.call(st, e.func, bts, args)
        if isinstance(e, ALam):
            return self._make_closure(e, env, btenv)
        if isinstance(e, AApp):
            fun = self.eval(st, e.fun, env, btenv)
            arg = self.eval(st, e.arg, env, btenv)
            return rt.mk_app(st, evaluate(e.bt, btenv), fun, arg)
        if isinstance(e, ACoerce):
            pe = self.eval(st, e.expr, env, btenv)
            return rt.coerce(st, pe, runtime_type(e.dst, btenv))
        raise TypeError("not an annotated expression: %r" % (e,))

    def _make_closure(self, e, env, btenv):
        """An interpretive static closure: its body generator re-enters
        :meth:`eval` (unlike a generating extension's compiled helper)."""
        free_names = e.free
        captured = tuple((name, env[name]) for name in free_names)
        bt_names = tuple(sorted(btenv))
        bts = tuple(btenv[n] for n in bt_names)

        def helper(st, *rest):
            nbt = len(bt_names)
            inner_btenv = dict(zip(bt_names, rest[:nbt]))
            arg = rest[nbt]
            env_values = rest[nbt + 1 :]
            inner_env = dict(zip(free_names, env_values))
            inner_env[e.var] = arg
            return self.eval(st, e.body, inner_env, inner_btenv)

        return rt.mk_lam(None, e.var, helper, bts, captured, e.label, e.fvs)


def mix_specialise(source, goal, static_args=None, options=None, obs=None):
    """Whole-pipeline specialisation with the interpretive baseline:
    parse + analyse the complete program, then specialise.  Returns the
    same :class:`~repro.genext.engine.SpecialisationResult` as the
    generating-extension path.

    ``options`` is a :class:`repro.api.SpecOptions`; its
    ``force_residual`` set feeds the analysis front end."""
    from repro.api import spec_options

    options = spec_options("mix_specialise", options)
    mp = MixProgram.from_source(
        source,
        force_residual=options.force_residual,
        unfolding=options.unfolding,
    )
    return engine_specialise(
        mp, goal, static_args=static_args, options=options, obs=obs
    )
