"""Functor analysis, subsumption checking, and instantiation."""

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.bt.analysis import analyse_module
from repro.bt.bttypes import BTTBase, BTTFun, BTTList, BTTPair, BTTSkel
from repro.bt.scheme import BTScheme
from repro.genext.cogen import cogen_module, mk_name
from repro.genext.link import LoadedModule
from repro.lang.validate import resolve_module


class FunctorError(Exception):
    """A functor was declared, analysed, or instantiated incorrectly."""


def default_param_scheme(arity):
    """The default binding-time signature for a functor parameter: a
    strict first-order function — its result's binding time is the lub
    of its arguments' (top) binding times, and it residualises exactly
    when an argument is dynamic.

    Shape-wise the arguments and result are skeleton variables, so the
    functor body can use the parameter at any type.
    """
    args = tuple(BTTSkel(i, i) for i in range(arity))
    res = BTTSkel(arity, arity)
    edges = set()
    for i in range(arity):
        edges.add((i, arity))  # result absorbs every argument
        edges.add((i, arity + 1))  # unfold absorbs every argument
    edges.add((arity + 1, arity))  # residual result is dynamic
    return BTScheme(
        args=args,
        res=res,
        nslots=arity + 2,
        unfold=arity + 1,
        edges=frozenset(edges),
        dyn=frozenset(),
    )


# ---------------------------------------------------------------------------
# Scheme subsumption.
# ---------------------------------------------------------------------------


def _align(assumed, actual, mapping):
    """Map each slot of ``assumed`` to the corresponding slot of
    ``actual``; an assumed skeleton swallows the actual subtree, mapping
    only its top.  Returns False on shape mismatch."""
    if isinstance(assumed, BTTSkel):
        mapping.setdefault(assumed.bt, actual.bt)
        return mapping[assumed.bt] == actual.bt
    if type(assumed) is not type(actual):
        return False
    mapping.setdefault(assumed.bt, actual.bt)
    if mapping[assumed.bt] != actual.bt:
        return False
    if isinstance(assumed, BTTBase):
        return assumed.name == actual.name
    if isinstance(assumed, BTTList):
        return _align(assumed.elem, actual.elem, mapping)
    if isinstance(assumed, BTTPair):
        return _align(assumed.fst, actual.fst, mapping) and _align(
            assumed.snd, actual.snd, mapping
        )
    if isinstance(assumed, BTTFun):
        return _align(assumed.arg, actual.arg, mapping) and _align(
            assumed.res, actual.res, mapping
        )
    raise TypeError("not a binding-time type: %r" % (assumed,))


def scheme_subsumes(actual, assumed):
    """Is ``actual`` usable where ``assumed`` was promised?

    Sound when every constraint the actual function imposes was already
    assumed: after aligning slots, the actual's closure edges must be
    entailed by (reachable in) the assumed's closure, and its forced-
    dynamic slots must already be forced in the assumption.  Constraints
    wholly inside subtrees the assumption treats as opaque skeletons are
    the actual's own business — except edges *out of* such interior
    slots into visible ones, which the functor could not have known
    about and which therefore reject.
    """
    if len(actual.args) != len(assumed.args):
        return False
    mapping = {}  # assumed slot -> actual slot
    for a_assumed, a_actual in zip(assumed.args, actual.args):
        if not _align(a_assumed, a_actual, mapping):
            return False
    if not _align(assumed.res, actual.res, mapping):
        return False
    mapping[assumed.unfold] = actual.unfold

    # ABI compatibility: the functor's call sites pass binding-time
    # arguments for the *assumed* inputs, positionally; the actual's
    # generating version must accept exactly those.  Every actual input
    # must therefore be the image of the corresponding assumed input.
    assumed_inputs = assumed.inputs()
    actual_inputs = actual.inputs()
    if len(assumed_inputs) != len(actual_inputs):
        return False
    for a_slot, b_slot in zip(assumed_inputs, actual_inputs):
        if mapping.get(a_slot) != b_slot:
            return False

    visible = {v: k for k, v in mapping.items()}  # actual -> assumed
    # Reachability in the assumed scheme's constraint set.
    succ = {}
    for (a, b) in assumed.edges:
        succ.setdefault(a, set()).add(b)

    def reaches(a, b):
        seen = set()
        stack = [a]
        while stack:
            v = stack.pop()
            if v == b:
                return True
            if v in seen:
                continue
            seen.add(v)
            stack.extend(succ.get(v, ()))
        return a == b

    dyn_assumed = set(assumed.dyn)
    # Saturate assumed-dynamic forward.
    changed = True
    while changed:
        changed = False
        for (a, b) in assumed.edges:
            if a in dyn_assumed and b not in dyn_assumed:
                dyn_assumed.add(b)
                changed = True

    for (a, b) in actual.edges:
        va, vb = visible.get(a), visible.get(b)
        if vb is None:
            continue  # flows into opaque interior: invisible to the functor
        if va is None:
            return False  # interior constrains a visible slot: unknowable
        if not (reaches(va, vb) or vb in dyn_assumed):
            return False
    for s in actual.dyn:
        vs = visible.get(s)
        if vs is None:
            # A forced-dynamic interior slot in an argument would impose
            # structure on the values the functor passes in.
            if any(
                s in _slots(arg) for arg in actual.args
            ):
                return False
            continue
        if vs not in dyn_assumed:
            return False
    return True


def _slots(t):
    out = [t.bt]
    if isinstance(t, BTTList):
        out += _slots(t.elem)
    elif isinstance(t, BTTPair):
        out += _slots(t.fst) + _slots(t.snd)
    elif isinstance(t, BTTFun):
        out += _slots(t.arg) + _slots(t.res)
    return out


def _make_adapter(actual, assumed):
    """Wrap the actual parameter's generating version so its result is
    coerced to the binding-time type the functor assumed.  The actual
    function is late-bound, like any imported call: it is looked up in
    the registry of the program that runs the instance (``st.mk``).

    Subsumption guarantees the actual's result is *at most as dynamic*
    as assumed, so a value-directed coercion to the assumed type (which
    dynamises exactly where the assumption says dynamic) restores the
    representation the functor's call sites were compiled against."""
    from repro.bt.bttypes import map_bts
    from repro.genext import runtime as rt
    from repro.specialiser.mix import runtime_type

    sol = assumed.solve_symbolic()
    res_sym = map_bts(assumed.res, lambda s: sol[s])
    names = assumed.input_names()
    n = len(names)

    def adapter(st, *rest):
        bts = rest[:n]
        args = rest[n:]
        out = st.mk[actual](st, *bts, *args)
        btenv = dict(zip(names, bts))
        return rt.coerce(st, out, runtime_type(res_sym, btenv))

    return adapter


# ---------------------------------------------------------------------------
# Templates and instantiation.
# ---------------------------------------------------------------------------


@dataclass
class FunctorTemplate:
    """An analysed, cogen'd functor — prepared once and for all."""

    name: str
    params: Tuple[Tuple[str, int], ...]
    param_schemes: Dict[str, BTScheme]
    schemes: Dict[str, BTScheme]
    genext_source: str
    imports: Tuple[str, ...]

    def def_names(self):
        return tuple(self.schemes)

    def instantiate(self, inst_name, bindings, actual_schemes, check=True):
        """Create an instantiation as a loadable generating extension.

        ``bindings`` maps parameter names to actual function names;
        ``actual_schemes`` maps those actual names to their
        :class:`BTScheme` (from the analysis of their modules, e.g.
        ``analysis.schemes``).  Every exported function is renamed
        ``<prefix><name>`` where the prefix is the lower-cased
        instantiation name plus ``_``.
        """
        missing = {p for p, _ in self.params} - set(bindings)
        if missing:
            raise FunctorError(
                "instantiation %s leaves parameter(s) unbound: %s"
                % (inst_name, ", ".join(sorted(missing)))
            )
        if check:
            for pname, arity in self.params:
                actual = bindings[pname]
                if actual not in actual_schemes:
                    raise FunctorError(
                        "no binding-time scheme for actual parameter %r" % actual
                    )
                assumed = self.param_schemes[pname]
                if len(actual_schemes[actual].args) != arity:
                    raise FunctorError(
                        "parameter %r has arity %d but %r takes %d arguments"
                        % (pname, arity, actual, len(actual_schemes[actual].args))
                    )
                if not scheme_subsumes(actual_schemes[actual], assumed):
                    raise FunctorError(
                        "actual parameter %r does not satisfy the "
                        "binding-time signature assumed for %r:\n"
                        "  assumed: %s\n  actual:  %s"
                        % (actual, pname, assumed, actual_schemes[actual])
                    )
        prefix = inst_name[0].lower() + inst_name[1:] + "_"
        namespace = {
            "__name__": "genext_%s" % inst_name,
            "_MODULE_OVERRIDE": inst_name,
            "_QUAL_OVERRIDE": prefix,
        }
        code = compile(
            self.genext_source, "<functor:%s as %s>" % (self.name, inst_name), "exec"
        )
        exec(code, namespace)
        # The functor's calls of a parameter stay direct calls of
        # ``mk_<param>``, bound here in this instance's own namespace to
        # the actual function — through an adapter that coerces results
        # back to the binding-time type the functor's call sites assumed
        # (the actual may return a more static representation than the
        # assumption promises).
        params = {p for p, _ in self.params}
        for pname in params:
            namespace[mk_name(pname)] = _make_adapter(
                bindings[pname], self.param_schemes[pname]
            )
        namespace["_IMPORTED"] = tuple(
            sorted({bindings[n] if n in params else n for n in namespace["_IMPORTED"]})
        )
        return LoadedModule(inst_name, self.imports, namespace), prefix


def make_functor(module, imported_schemes=None, param_schemes=None,
                 force_residual=frozenset()):
    """Analyse and cogen a functor module (once and for all).

    ``module`` is a parsed :class:`~repro.lang.ast.Module` with
    parameters; ``imported_schemes`` are the binding-time interfaces of
    its imports; ``param_schemes`` override the default signature per
    parameter name.
    """
    if not module.is_functor:
        raise FunctorError("module %s has no parameters" % module.name)
    param_schemes = dict(param_schemes or {})
    for pname, arity in module.params:
        scheme = param_schemes.setdefault(pname, default_param_scheme(arity))
        if len(scheme.args) != arity:
            raise FunctorError(
                "signature for parameter %r has arity %d, declared %d"
                % (pname, len(scheme.args), arity)
            )
    imported = dict(imported_schemes or {})
    arities = {name: len(s.args) for name, s in imported.items()}
    for pname, arity in module.params:
        arities[pname] = arity
    resolved = resolve_module(module, arities)
    env = dict(imported)
    env.update({p: param_schemes[p] for p, _ in module.params})
    analysis = analyse_module(resolved, env, force_residual)
    genext = cogen_module(analysis, params={p for p, _ in module.params})
    return FunctorTemplate(
        name=module.name,
        params=module.params,
        param_schemes=param_schemes,
        schemes=analysis.schemes,
        genext_source=genext.source,
        imports=genext.imports,
    )
