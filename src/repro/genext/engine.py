"""Driving a specialisation run end to end.

Given a linked :class:`~repro.genext.link.GenextProgram`, a goal function
and a division of its arguments into static (values supplied) and dynamic
(values unknown), this module:

1. derives the goal binding-time instantiation from the embedded
   signatures (saturating shared binding-time parameters: a parameter
   mentioned by any dynamic argument becomes ``D``);
2. injects the static values as partially static values, coercing them
   to the instantiated parameter types (which may dynamise components);
3. calls the goal's generating version and runs the pending list to
   exhaustion (breadth-first) or lets recursion finish (depth-first);
4. assembles the residual program: placed definitions become modules with
   computed imports, plus an entry definition carrying the goal's name.

The result can be pretty-printed, written to disk, or run directly with
the object-language interpreter.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.genext.runtime import (
    DCode,
    S,
    D,
    SpecError,
    deep_recursion,
    TBase,
    TFun,
    TList,
    TPair,
    TSkel,
    coerce,
    dynamize,
    from_python,
)
from repro.lang.ast import Call, Def, Var
from repro.lang.names import called_functions
from repro.modsys.program import link_program
from repro.residual.module import assemble_monolithic, assemble_program


@dataclass
class SpecialisationResult:
    """Everything a specialisation run produced."""

    program: object  # residual lang Program
    linked: object  # residual LinkedProgram (validated, runnable)
    entry: str  # name of the entry function
    dynamic_params: Tuple[str, ...]
    stats: Dict[str, int]
    module_names: Dict[frozenset, str]
    obs: Optional[object] = None  # the run's repro.obs.Obs, if any
    fuel: int = 1_000_000  # default fuel for :meth:`run`

    def run(self, *dynamic_args, fuel=None):
        """Run the residual program on the dynamic arguments."""
        from repro.interp import run_program

        fuel = self.fuel if fuel is None else fuel
        return run_program(self.linked, self.entry, list(dynamic_args), fuel=fuel)


def _is_fully_dynamic(t):
    if isinstance(t, (TBase, TSkel)):
        return t.bt.dyn
    if isinstance(t, TList):
        return t.bt.dyn and _is_fully_dynamic(t.elem)
    if isinstance(t, TPair):
        return t.bt.dyn and _is_fully_dynamic(t.fst) and _is_fully_dynamic(t.snd)
    if isinstance(t, TFun):
        return t.bt.dyn and _is_fully_dynamic(t.arg) and _is_fully_dynamic(t.res)
    raise SpecError("bad runtime type %r" % (t,))


def goal_binding_times(signature, static_names):
    """The binding-time environment for a goal: parameters of dynamic
    arguments become ``D``, everything else stays ``S``."""
    env = {b: S for b in signature.bt_params}
    for param, mentioned in zip(signature.params, signature.param_bts):
        if param in static_names:
            continue
        for b in mentioned:
            env[b] = D
    # Contravariant result inputs: the residual program's returned
    # closures face unknown (dynamic) contexts.
    for b in signature.result_inputs:
        env[b] = D
    return env


def _absorb_spec_stats(metrics, stats):
    """Unify a run's :class:`~repro.genext.runtime.Stats` into the
    metrics registry (``spec.*``): counts become counters, peaks become
    max-gauges, so repeated runs against one registry accumulate."""
    for name, value in stats.as_dict().items():
        if name.endswith("_peak"):
            metrics.gauge("spec." + name).max_of(value)
        else:
            metrics.counter("spec." + name).inc(value)


def specialise(gp, goal, static_args=None, options=None, obs=None):
    """Specialise ``goal`` with respect to ``static_args``.

    ``static_args`` maps parameter names of the goal function to Python
    values; parameters not mentioned stay dynamic and become the
    parameters of the residual entry function.

    ``options`` is a :class:`repro.api.SpecOptions`.  Its ``timeout`` is a
    wall-clock budget in seconds for the whole run — the time-domain
    companion of the ``max_versions`` (polyvariance) and interpreter
    ``fuel`` guards.  Past it the run is aborted with
    :class:`~repro.genext.runtime.SpecTimeout`, so a pathological
    division cannot wedge an unattended build worker.

    ``obs``, if given, receives the run's spans (``specialise`` →
    ``pending-pump`` → ``mk_resid:<version>``) and its ``spec.*``
    metrics.

    With ``options.cache_dir`` set, results are kept in the persistent
    residual cache (:mod:`repro.speccache`): a warm hit decodes the
    stored residual program — byte-identical to a cold run's — without
    constructing a :class:`~repro.genext.runtime.SpecState` at all.
    Runs with a ``sink`` bypass the cache, as do programs that cannot
    report a :meth:`~repro.genext.link.GenextProgram.fingerprint`.
    """
    from repro.api import spec_options
    from repro.obs import Obs

    options = spec_options("specialise", options)
    if obs is None:
        obs = Obs()
    tracer = obs.tracer
    static_args = dict(static_args or {})

    cache = key = None
    if options.cache_dir is not None and options.sink is None:
        fingerprint = getattr(gp, "fingerprint", None)
        fingerprint = fingerprint() if callable(fingerprint) else None
        if fingerprint is not None:
            from repro.speccache import (
                SpecCache,
                decode_result,
                residual_cache_key,
            )

            cache = SpecCache(
                options.cache_dir, metrics=obs.metrics, bus=obs.bus
            )
            key = residual_cache_key(fingerprint, goal, static_args, options)
            payload = cache.get(key, goal=goal)
            if payload is not None:
                return decode_result(payload, obs=obs, fuel=options.fuel)

    signature = gp.signature(goal)
    unknown = set(static_args) - set(signature.params)
    if unknown:
        raise SpecError(
            "%r has no parameter(s) %s" % (goal, ", ".join(sorted(unknown)))
        )
    env = goal_binding_times(signature, set(static_args))
    types = signature.param_types(env)
    st = gp.new_state(
        strategy=options.strategy,
        sink=options.sink,
        max_versions=options.max_versions,
        deadline=options.timeout,
        obs=obs,
    )

    args = []
    dynamic_params = []
    for param, t in zip(signature.params, types):
        if param in static_args:
            args.append(coerce(st, from_python(static_args[param]), t))
        else:
            if not _is_fully_dynamic(t):
                raise SpecError(
                    "parameter %r of %r cannot be dynamic: its binding-time "
                    "type has a static component" % (param, goal)
                )
            dynamic_params.append(param)
            args.append(DCode(Var(param)))

    bt_values = [env[b] for b in signature.bt_params]
    with tracer.span(
        "specialise", cat="spec", goal=goal, strategy=options.strategy
    ):
        with deep_recursion():
            result = gp.mk(goal)(st, *bt_values, *args)
            st.run_pending()

            entry_code = dynamize(st, result).code
            st.run_pending()  # dynamisation may residualise further calls

            placed = list(st.defs)
            entry_name, placed = _attach_entry(
                st, goal, args, entry_code, tuple(dynamic_params), placed
            )

            with tracer.span("assemble", cat="spec"):
                if options.monolithic:
                    program = assemble_monolithic(placed)
                    names = {frozenset(["Residual"]): "Residual"}
                else:
                    program, names = assemble_program(placed)
                # Linking walks the (possibly very deep) residual
                # expressions.
                linked = link_program(program)
    _absorb_spec_stats(obs.metrics, st.stats)
    result = SpecialisationResult(
        program=program,
        linked=linked,
        entry=entry_name,
        dynamic_params=tuple(dynamic_params),
        stats=st.stats.as_dict(),
        module_names=names,
        obs=obs,
        fuel=options.fuel,
    )
    if cache is not None:
        from repro.speccache import encode_result

        cache.put(key, encode_result(result))
    return result


def _attach_entry(st, goal, args, entry_code, dynamic_params, placed):
    """Add the entry definition, folding away a trivial wrapper.

    If the goal itself was residualised, the entry code is just a call
    of that residual version on the goal's dynamic parameters; in that
    case the residual version is renamed to the goal's name instead of
    generating a one-line wrapper (this reproduces the paper's residual
    ``main``)."""
    if (
        isinstance(entry_code, Call)
        and entry_code.args == tuple(Var(p) for p in dynamic_params)
    ):
        target = entry_code.func
        refs = 0
        for _, d in placed:
            if target in called_functions(d.body):
                refs += 1
        if refs == 0:
            out = []
            for placement, d in placed:
                if d.name == target:
                    out.append((placement, Def(goal, d.params, d.body)))
                else:
                    out.append((placement, d))
            return goal, _rename_calls(out, target, goal)
    placement = st.place(goal, args)
    return goal, placed + [(placement, Def(goal, dynamic_params, entry_code))]


def _rename_calls(placed, old, new):
    from repro.lang.ast import App, If, Lam, Lit, Prim

    def go(e):
        if isinstance(e, (Lit, Var)):
            return e
        if isinstance(e, Prim):
            return Prim(e.op, tuple(go(a) for a in e.args))
        if isinstance(e, If):
            return If(go(e.cond), go(e.then_branch), go(e.else_branch))
        if isinstance(e, Call):
            func = new if e.func == old else e.func
            return Call(func, tuple(go(a) for a in e.args))
        if isinstance(e, Lam):
            return Lam(e.var, go(e.body))
        if isinstance(e, App):
            return App(go(e.fun), go(e.arg))
        raise TypeError(e)

    return [(pl, Def(d.name, d.params, go(d.body))) for pl, d in placed]
