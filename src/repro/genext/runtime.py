"""The specialisation runtime linked with every generating extension.

This corresponds to the paper's ~300 lines of "libraries providing the
basic mechanisms of specialisation, and generating versions of the
language primitives" (Sec. 6).  Generated modules import it as ``rt``.

Partially static values
-----------------------

Specialisation-time values (:class:`PE`) mirror the binding-time types:

* :class:`SBase` — a known base value;
* :class:`SList` — a list with a known spine (elements are again
  :class:`PE`, so lists may be partially static);
* :class:`SPair` — a pair of :class:`PE`;
* :class:`SClo` — a static closure; following the paper it carries the
  bound variable, the environment, *and a function which generates
  specialisations of the closure's body* (so generating extensions never
  interpret source code), plus a label and the free function names of
  its body (for residual-module placement, Sec. 5);
* :class:`DCode` — a dynamic value: residual object-language code.

Generating primitives
---------------------

Generated code does static work directly, without interpreting it:

* one generating primitive per operator (``mk_add(st, bt, x, y)``,
  ``mk_eq``, ``mk_tail``, ... — :data:`PRIMITIVES`): at a static
  binding time it is the Python operation behind exact-type guards, at
  a dynamic one it builds the residual ``Prim``.  :func:`mk_prim` keeps
  the operator as data for the interpretive specialisers and looks it
  up in the same table;
* a literal coerced to a base type is built at its binding time
  (:func:`lit_at`), and any other base coercion needs no type skeleton
  (:func:`coerce_base`).

``mk_resid``
------------

The exact shape of Fig. 3: it receives the (evaluated) unfold binding
time, an identification triple ``(name, binding-times, arguments)``, a
thunk giving the result of unfolding the call, and a function building
the body of a new specialised version from fresh formal parameters.  The
first time a triple is seen it allocates a residual name, *places* the
specialisation in a residual module (before the body exists, from the
free function names of the call), and schedules the body for
construction — on the pending list (breadth-first, the paper's choice)
or immediately (depth-first, kept for the space-consumption comparison).
The identification of an argument with no dynamic leaf and no closure
(a static table, say) is the plain value it denotes, taken whole.
"""

import sys
import time
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Callable, Dict, Optional, Tuple

from repro.bt.bt import BT, D, S, bt_lub
from repro.lang.ast import App, Call, If, Lam, Lit, Prim, Var, count_nodes
from repro.lang.names import NameSupply
from repro.lang.prims import PrimError, apply_prim, is_pair, make_pair
from repro.obs.trace import NULL_TRACER

# ``slots=True`` (3.10+) removes the per-instance ``__dict__`` from the
# partially static values and runtime types — the two object families a
# specialisation run allocates by the million.
_DC_SLOTS = {"frozen": True}
if sys.version_info >= (3, 10):
    _DC_SLOTS["slots"] = True

# The ``rt.lub`` of generated code.  Generated code only ever passes
# concrete S/D operands, for which :func:`~repro.bt.bt.bt_lub` returns
# the shared singletons on an allocation-free path — measurably cheaper
# than memoising the call (see docs/performance.md, "Runtime
# micro-optimisations").
lub = bt_lub

__all__ = [
    "BT",
    "D",
    "DCode",
    "PE",
    "PRIMITIVES",
    "S",
    "SBase",
    "SClo",
    "SList",
    "SPair",
    "Signature",
    "SpecError",
    "SpecState",
    "SpecTimeout",
    "TBase",
    "TFun",
    "TList",
    "TPair",
    "TSkel",
    "code_of",
    "coerce",
    "coerce_base",
    "deep_recursion",
    "dynamize",
    "from_python",
    "lit",
    "lit_at",
    "lub",
    "mk_app",
    "mk_if",
    "mk_lam",
    "mk_prim",
    "mk_resid",
    "nil",
    "to_python",
]


class SpecError(Exception):
    """A specialisation-time error (the static part of the program went
    wrong, or generated code violated an invariant)."""


class SpecTimeout(SpecError):
    """The wall-clock deadline of a specialisation run expired.

    The ``fuel``/``max_versions`` guards bound *logical* work; this one
    bounds *time*, so a pathological division cannot wedge an unattended
    build worker even when each individual step is cheap."""


class deep_recursion:
    """Context manager giving specialisation a deep Python stack and
    turning stack exhaustion into a diagnostic :class:`SpecError`
    (static unfolding mirrors the program's own recursion depth)."""

    def __init__(self, limit=200_000):
        self.limit = limit

    def __enter__(self):
        import sys

        self._old = sys.getrecursionlimit()
        sys.setrecursionlimit(max(self._old, self.limit))
        return self

    def __exit__(self, exc_type, exc, tb):
        import sys

        sys.setrecursionlimit(self._old)
        if exc_type is RecursionError:
            raise SpecError(
                "specialisation recursed too deeply: static unfolding "
                "does not terminate for this division (or the program "
                "recurses extremely deeply on its static data)"
            ) from None
        return False


# ---------------------------------------------------------------------------
# Runtime binding-time types (concrete S/D in every slot).
# ---------------------------------------------------------------------------


@dataclass(**_DC_SLOTS)
class TBase:
    name: str
    bt: BT


@dataclass(**_DC_SLOTS)
class TList:
    bt: BT
    elem: object


@dataclass(**_DC_SLOTS)
class TPair:
    bt: BT
    fst: object
    snd: object


@dataclass(**_DC_SLOTS)
class TFun:
    bt: BT
    arg: object
    res: object


@dataclass(**_DC_SLOTS)
class TSkel:
    """A still-polymorphic position; coercion through it is an identity
    unless the target is dynamic."""

    bt: BT


# ---------------------------------------------------------------------------
# Partially static values.
# ---------------------------------------------------------------------------


class PE:
    """Base class of specialisation-time values."""

    __slots__ = ()


@dataclass(**_DC_SLOTS)
class SBase(PE):
    """A known base value (natural or boolean)."""

    value: object


@dataclass(**_DC_SLOTS)
class SList(PE):
    """A list with known spine; elements are partially static values."""

    items: Tuple[PE, ...]


@dataclass(**_DC_SLOTS)
class SPair(PE):
    """A known pair of partially static values."""

    fst: PE
    snd: PE


@dataclass(**_DC_SLOTS)
class DCode(PE):
    """A dynamic value: a fragment of residual code."""

    code: object  # repro.lang.ast.Expr


@dataclass(**_DC_SLOTS)
class SClo(PE):
    """A static closure.

    ``helper`` is the compiled body generator: called as
    ``helper(st, *bts, arg, *env_values)`` it builds a specialisation of
    the closure's body — the extra field the paper adds to Similix-style
    closures so that generating extensions need never interpret a body.
    ``env`` is an ordered tuple of ``(name, PE)``; ``fvs`` are the named
    functions free in the body (with those of nested lambdas), used by
    the placement algorithm.
    """

    var: str
    helper: Callable
    bts: Tuple[BT, ...]
    env: Tuple[Tuple[str, PE], ...]
    label: str
    fvs: Tuple[str, ...]

    def apply(self, st, arg):
        """Unfold the closure on ``arg`` (a :class:`PE`)."""
        return self.helper(st, *self.bts, arg, *(v for _, v in self.env))


def lit(value):
    """The partially static value of a literal."""
    return SBase(value)


def lit_at(bt, value):
    """A literal coerced to a base type at binding time ``bt``: what
    ``coerce(st, lit(value), TBase(name, bt))`` returns, with neither
    the static box nor the type skeleton allocated on the way."""
    return DCode(Lit(value)) if bt.dyn else SBase(value)


def nil():
    return SList(())


# Static truth values are two shared boxes, so a comparison allocates
# nothing and ``mk_if`` recognises its test by identity.
_TRUE = SBase(True)
_FALSE = SBase(False)


def from_python(value):
    """Convert a plain Python value into a fully static :class:`PE`."""
    if isinstance(value, bool) or isinstance(value, int):
        return SBase(value)
    if is_pair(value):
        return SPair(from_python(value[1]), from_python(value[2]))
    if isinstance(value, (tuple, list)):
        return SList(tuple(from_python(v) for v in value))
    raise SpecError("cannot inject %r into the object language" % (value,))


def to_python(pe):
    """Convert a fully static :class:`PE` back to a Python value."""
    if isinstance(pe, SBase):
        return pe.value
    if isinstance(pe, SList):
        return tuple(to_python(v) for v in pe.items)
    if isinstance(pe, SPair):
        return ("pair", to_python(pe.fst), to_python(pe.snd))
    raise SpecError("value is not fully static: %r" % (pe,))


def code_of(pe):
    """The residual code of a dynamic value (it must be one)."""
    if isinstance(pe, DCode):
        return pe.code
    raise SpecError(
        "expected a dynamic value, got %s (the binding-time analysis "
        "should have inserted a coercion)" % type(pe).__name__
    )


# ---------------------------------------------------------------------------
# Dynamisation and coercion.
# ---------------------------------------------------------------------------


def dynamize(st, pe):
    """Coerce any partially static value all the way to residual code."""
    if isinstance(pe, DCode):
        return pe
    if isinstance(pe, SBase):
        return DCode(Lit(pe.value))
    if isinstance(pe, SList):
        code = Lit(())
        for item in reversed(pe.items):
            code = Prim("cons", (dynamize(st, item).code, code))
        return DCode(code)
    if isinstance(pe, SPair):
        return DCode(
            Prim("pair", (dynamize(st, pe.fst).code, dynamize(st, pe.snd).code))
        )
    if isinstance(pe, SClo):
        # Residualise the lambda: apply the body generator to a fresh
        # dynamic variable.  Well-annotatedness guarantees the body then
        # produces dynamic code.
        fresh = st.fresh_var(pe.var)
        body = pe.apply(st, DCode(Var(fresh)))
        return DCode(Lam(fresh, dynamize(st, body).code))
    raise SpecError("cannot dynamize %r" % (pe,))


def coerce(st, pe, dst):
    """Coerce ``pe`` to the runtime binding-time type ``dst``.

    Value-directed: only the *target* type matters.  Static targets are
    identities; dynamic targets lift/residualise; partially static list
    and pair targets recurse.
    """
    if isinstance(dst, TSkel):
        return dynamize(st, pe) if dst.bt.dyn else pe
    if isinstance(dst, TBase):
        return coerce_base(st, pe, dst.bt, dst.name)
    if isinstance(dst, TList):
        if dst.bt.dyn:
            return dynamize(st, pe)
        if not isinstance(pe, SList):
            raise SpecError(
                "value %r where a static-spine list is required" % (pe,)
            )
        return SList(tuple(coerce(st, item, dst.elem) for item in pe.items))
    if isinstance(dst, TPair):
        if dst.bt.dyn:
            return dynamize(st, pe)
        if not isinstance(pe, SPair):
            raise SpecError("value %r where a static pair is required" % (pe,))
        return SPair(coerce(st, pe.fst, dst.fst), coerce(st, pe.snd, dst.snd))
    if isinstance(dst, TFun):
        # Function components are invariant; only full dynamisation
        # changes the representation.
        if dst.bt.dyn:
            return dynamize(st, pe)
        if not isinstance(pe, SClo):
            raise SpecError(
                "value %r where a static closure is required" % (pe,)
            )
        return pe
    raise SpecError("bad coercion target %r" % (dst,))


def coerce_base(st, pe, bt, name):
    """Coerce ``pe`` to the base type ``name`` at binding time ``bt``.

    Generated code calls this directly for every base-type target, so a
    coercion allocates no :class:`TBase`; :func:`coerce` delegates its
    ``TBase`` case here."""
    if bt.dyn:
        return dynamize(st, pe)
    if type(pe) is not SBase:
        raise SpecError(
            "value %r does not fit binding-time type %s" % (pe, name)
        )
    return pe


# ---------------------------------------------------------------------------
# Argument splitting for mk_resid.
# ---------------------------------------------------------------------------


@dataclass(**({"slots": True} if sys.version_info >= (3, 10) else {}))
class _Split:
    """One argument split into a memoisation key, dynamic code leaves,
    fresh-name hints for those leaves, and a rebuild function taking
    replacement leaves (as PEs)."""

    key: object
    dyn: tuple
    hints: tuple
    rebuild: Callable


# Memo-key helpers for ``_split``.  A ground value (no dynamic leaf, no
# closure) is memoised whole: its key is the plain value it denotes (what
# :func:`to_python` returns), so hashing the key runs in C with no call
# per element, and the body builder receives the value unchanged.  The
# all-dynamic leaf shares one key object, as do the empty dyn/hint
# tuples.  Keys of the two kinds cannot meet: a partially static key is
# a tuple whose first item is a one-letter tag.
_DYN_KEY = ("d",)
_EMPTY = ()
_SBASE_ONLY = frozenset((SBase,))
_VALUE = attrgetter("value")
_ONLY_LEAF = itemgetter(0)


def _ground_value(pe):
    """The plain value of ``pe`` when it holds no dynamic leaf and no
    closure, else ``None``."""
    t = type(pe)
    if t is SBase:
        return pe.value
    if t is SList:
        items = pe.items
        # A flat list of base values (a static table) is read at C speed.
        if _SBASE_ONLY.issuperset(map(type, items)):
            return tuple(map(_VALUE, items))
        values = tuple(map(_ground_value, items))
        return None if None in values else values
    if t is SPair:
        a = _ground_value(pe.fst)
        b = _ground_value(pe.snd)
        return None if a is None or b is None else make_pair(a, b)
    return None


def _split(pe, hint):
    t = type(pe)
    if t is DCode:
        return _Split(_DYN_KEY, (pe.code,), (hint,), _ONLY_LEAF)
    key = _ground_value(pe)
    if key is not None:
        return _Split(key, _EMPTY, _EMPTY, lambda leaves: pe)
    if t is SList:
        parts = [_split(item, hint) for item in pe.items]
        return _combine("l", parts, lambda rebuilt: SList(tuple(rebuilt)))
    if t is SPair:
        parts = [_split(pe.fst, hint), _split(pe.snd, hint)]
        return _combine("p", parts, lambda rebuilt: SPair(rebuilt[0], rebuilt[1]))
    if t is SClo:
        parts = [_split(v, name) for name, v in pe.env]
        names = tuple(name for name, _ in pe.env)

        def rebuild_clo(rebuilt):
            return SClo(
                pe.var,
                pe.helper,
                pe.bts,
                tuple(zip(names, rebuilt)),
                pe.label,
                pe.fvs,
            )

        split = _combine("c", parts, rebuild_clo)
        split.key = ("c", pe.label, pe.bts, split.key)
        return split
    raise SpecError("cannot split %r" % (pe,))


def _combine(tag, parts, assemble):
    key = (tag,) + tuple(p.key for p in parts)
    dyn = tuple(c for p in parts for c in p.dyn)
    hints = tuple(h for p in parts for h in p.hints)
    sizes = [len(p.dyn) for p in parts]

    def rebuild(leaves):
        rebuilt = []
        i = 0
        for p, n in zip(parts, sizes):
            rebuilt.append(p.rebuild(leaves[i : i + n]))
            i += n
        return assemble(rebuilt)

    return _Split(key, dyn, hints, rebuild)


def _closure_fvs(pe, out):
    """Collect free function names of all closures inside ``pe`` (a
    flat list of base values holds none and is skipped whole)."""
    t = type(pe)
    if t is SClo:
        out.update(pe.fvs)
        for _, v in pe.env:
            _closure_fvs(v, out)
    elif t is SList:
        items = pe.items
        if not _SBASE_ONLY.issuperset(map(type, items)):
            for v in items:
                _closure_fvs(v, out)
    elif t is SPair:
        _closure_fvs(pe.fst, out)
        _closure_fvs(pe.snd, out)


# ---------------------------------------------------------------------------
# Specialisation state.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    """Goal-setup information embedded in a generating extension for each
    exported function (binding-time interface, in executable form).
    :func:`~repro.genext.engine.goal_binding_times` makes dynamic every
    binding-time parameter that ``param_bts`` lists for a dynamic
    argument, and every one in ``result_inputs``."""

    bt_params: Tuple[str, ...]
    params: Tuple[str, ...]
    param_bts: Tuple[Tuple[str, ...], ...]  # bt params mentioned per param
    param_types: Callable  # bt-env dict -> tuple of runtime types
    result_inputs: Tuple[str, ...] = ()  # contravariant result params


@dataclass(frozen=True)
class FnInfo:
    """Per-function metadata a generating extension registers with the
    linker: the defining module (residual placement) and the parameter
    names (fresh-variable hints)."""

    module: str
    params: Tuple[str, ...]


@dataclass
class _ResidInfo:
    name: str
    placement: frozenset
    params: Tuple[str, ...]


@dataclass
class Stats:
    """Counters for the paper's performance/space claims."""

    specialisations: int = 0
    unfolds: int = 0
    memo_hits: int = 0
    pending_peak: int = 0
    active_peak: int = 0
    residual_nodes: int = 0

    def as_dict(self):
        return dict(self.__dict__)


class SpecState:
    """All mutable state of one specialisation run.

    The paper keeps this in a monad; we pass it explicitly (``st``) to
    every generated function.  ``st.mk`` is the registry of the linked
    program being run (qualified function name -> generating function):
    generated code calls every *imported* function through it, so the
    same executed module serves every program that links it, each with
    its own registry.
    """

    def __init__(
        self,
        fn_info,
        module_graph,
        strategy="bfs",
        sink=None,
        max_versions=10_000,
        deadline=None,
        obs=None,
        registry=None,
    ):
        """``fn_info`` maps function names to :class:`FnInfo`;
        ``module_graph`` is the *source* import graph (placement needs
        its transitive-import relation); ``strategy`` is ``'bfs'`` or
        ``'dfs'``; ``sink``, if given, receives each finished residual
        definition as ``sink(placement, definition)``; ``registry`` is
        the linked program's generating functions by name (``st.mk``).

        ``max_versions`` bounds the polyvariance of any single function:
        a division with unbounded static variation (the classic
        static-under-dynamic-control pitfall, e.g. a program counter
        that only stops on a dynamic test) would otherwise specialise
        forever; exceeding the bound raises a diagnostic
        :class:`SpecError` instead.  ``None`` disables the guard.

        ``deadline`` is a wall-clock budget in seconds for the whole
        run; past it, :meth:`check_deadline` raises
        :class:`SpecTimeout`.  ``None`` (the default) disables the
        clock entirely.

        ``obs``, if given, is a :class:`repro.obs.Obs`: every
        pending-pump drain and every residual version built get spans on
        its tracer (``pending-pump`` / ``mk_resid:<name>``), so
        ``mspec specialise --trace`` shows where a run's time went."""
        if strategy not in ("bfs", "dfs"):
            raise ValueError("strategy must be 'bfs' or 'dfs'")
        self.fn_info = fn_info
        self.module_graph = module_graph
        self.mk = registry if registry is not None else {}
        self.strategy = strategy
        self.sink = sink
        self.max_versions = max_versions
        self.pending = deque()
        self.done = {}
        self.defs = []  # list of (placement, Def)
        self.stats = Stats()
        self._names = NameSupply()
        self._vars = NameSupply()
        self._versions = {}
        self._active = 0
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        self.deadline = deadline
        self._deadline_at = (
            None if deadline is None else time.monotonic() + deadline
        )

    def check_deadline(self):
        """Raise :class:`SpecTimeout` once the wall-clock budget is
        spent.  Called on every ``mk_resid`` and every pending-list
        step — the two places all specialisation loops pass through —
        so even a non-terminating unfold is cut off promptly."""
        if self._deadline_at is not None and time.monotonic() >= self._deadline_at:
            raise SpecTimeout(
                "specialisation exceeded its %.3gs deadline "
                "(%d specialisation(s), %d unfold(s) so far)"
                % (self.deadline, self.stats.specialisations, self.stats.unfolds)
            )

    def count_version(self, fname):
        """Record one more specialised version of ``fname``; raise when
        the polyvariance bound is exceeded."""
        n = self._versions.get(fname, 0) + 1
        self._versions[fname] = n
        if self.max_versions is not None and n > self.max_versions:
            raise SpecError(
                "more than %d specialised versions of %r: the chosen "
                "division has unbounded static variation (a static value "
                "changes under dynamic control); make that argument "
                "dynamic or raise max_versions" % (self.max_versions, fname)
            )

    # -- name supplies ------------------------------------------------------

    def fresh_fun_name(self, base):
        return self._names.fresh(base + "_")

    def fresh_var(self, hint):
        return self._vars.fresh(hint + "_")

    # -- placement (Sec. 5) --------------------------------------------------

    def place(self, fname, args):
        """Choose the residual module for a specialisation of ``fname``
        with static parts ``args`` — *before* its body is constructed.

        Collects the function names free in the call (the callee plus
        the free function names of every static closure reachable in the
        static parts), maps them to their defining modules, removes
        modules imported (transitively) into others, and returns the
        remaining combination."""
        names = {fname}
        for a in args:
            _closure_fvs(a, names)
        modules = {self.fn_info[n].module for n in names if n in self.fn_info}
        return self.module_graph.reduce_by_dominance(modules)

    # -- the engine ----------------------------------------------------------

    def _emit(self, info, body_pe):
        body = code_of(body_pe)
        d = _make_def(info.name, info.params, body)
        self.stats.residual_nodes += count_nodes(body)
        self.defs.append((info.placement, d))
        if self.sink is not None:
            self.sink(info.placement, d)

    def _build_now(self, info, build):
        self._active += 1
        self.stats.active_peak = max(self.stats.active_peak, self._active)
        try:
            with self._tracer.span(
                "mk_resid:%s" % info.name,
                cat="mk_resid",
                version=info.name,
                placement="+".join(sorted(info.placement)),
            ):
                self._emit(info, build())
        finally:
            self._active -= 1

    def schedule(self, info, build):
        if self.strategy == "dfs":
            self._build_now(info, build)
            return
        self.pending.append((info, build))
        self.stats.pending_peak = max(self.stats.pending_peak, len(self.pending))

    def run_pending(self):
        """Process the pending list to exhaustion (breadth-first mode)."""
        if not self.pending:
            return
        with self._tracer.span("pending-pump", cat="spec") as span:
            drained = 0
            while self.pending:
                self.check_deadline()
                info, build = self.pending.popleft()
                self._build_now(info, build)
                drained += 1
            span.note(drained=drained)


def _make_def(name, params, body):
    from repro.lang.ast import Def

    return Def(name, tuple(params), body)


# ---------------------------------------------------------------------------
# Generating versions of the language constructs.
# ---------------------------------------------------------------------------


def mk_resid(st, unfold, fname, bts, args, unfolded, build):
    """Create a specialised call of ``fname`` (Fig. 3's ``mk-resid``).

    ``unfold`` is the callee's evaluated unfold binding time: static
    means the call is unfolded (``unfolded`` is forced), dynamic means a
    residual version is looked up or created and a residual call
    returned.
    """
    st.check_deadline()
    if not unfold.dyn:
        st.stats.unfolds += 1
        return unfolded()
    splits = [
        _split(a, hint)
        for a, hint in zip(args, _param_hints(st, fname, len(args)))
    ]
    key = (fname, tuple(bts), tuple(s.key for s in splits))
    info = st.done.get(key)
    if info is None:
        st.count_version(fname)
        st.stats.specialisations += 1
        fresh = [st.fresh_var(h) for s in splits for h in s.hints]
        it = iter(fresh)
        fresh_per_split = [[next(it) for _ in s.hints] for s in splits]
        info = _ResidInfo(
            name=st.fresh_fun_name(fname),
            placement=st.place(fname, args),
            params=tuple(fresh),
        )
        st.done[key] = info
        rebuilt = [
            s.rebuild([DCode(Var(v)) for v in names])
            for s, names in zip(splits, fresh_per_split)
        ]
        st.schedule(info, lambda: build(rebuilt))
    else:
        st.stats.memo_hits += 1
    dyn_args = tuple(c for s in splits for c in s.dyn)
    return DCode(Call(info.name, dyn_args))


# Hoisted fallback hints for functions with no FnInfo: one shared tuple,
# grown on demand, instead of a fresh 64-tuple per mk_resid call.  Sizing
# it to the actual argument count matters for correctness, not just
# speed: a fixed-size tuple would silently truncate the ``zip(args,
# hints)`` in mk_resid for functions with more parameters, dropping
# their argument splits.
_FALLBACK_HINTS = tuple("a%d" % i for i in range(64))


def _param_hints(st, fname, nargs):
    """Fresh-variable hints for the ``nargs`` parameters of ``fname``."""
    fn = st.fn_info.get(fname)
    if fn is not None and fn.params:
        return fn.params
    global _FALLBACK_HINTS
    if nargs > len(_FALLBACK_HINTS):
        _FALLBACK_HINTS = tuple("a%d" % i for i in range(nargs))
    return _FALLBACK_HINTS


def mk_if(st, bt, cond, then_thunk, else_thunk):
    """Generating version of the conditional."""
    if not bt.dyn:
        if cond is _TRUE:
            return then_thunk()
        if cond is _FALSE:
            return else_thunk()
        if type(cond) is not SBase or type(cond.value) is not bool:
            raise SpecError("static conditional on non-boolean %r" % (cond,))
        return then_thunk() if cond.value else else_thunk()
    return DCode(
        If(code_of(cond), code_of(then_thunk()), code_of(else_thunk()))
    )


# -- the primitives: one generating primitive per operator -----------------
#
# Cogen emits ``rt.mk_add(st, bt, x, y)`` and so on: operands positional,
# no operator string.  A dynamic binding time builds the residual
# ``Prim``.  A static one runs the Python operation itself, behind
# exact-type guards (``type(a) is int`` excludes ``bool`` exactly as
# :func:`repro.lang.prims._nat` does); any operand the guards do not take
# goes to :func:`_static_slow`.


def mk_add(st, bt, x, y):
    if bt.dyn:
        return DCode(Prim("+", (code_of(x), code_of(y))))
    if type(x) is SBase and type(y) is SBase:
        a, b = x.value, y.value
        if type(a) is int and type(b) is int:
            return SBase(a + b)
    return _static_slow("+", (x, y))


def mk_sub(st, bt, x, y):
    """Monus: subtraction cut off at zero."""
    if bt.dyn:
        return DCode(Prim("-", (code_of(x), code_of(y))))
    if type(x) is SBase and type(y) is SBase:
        a, b = x.value, y.value
        if type(a) is int and type(b) is int:
            return SBase(a - b if a > b else 0)
    return _static_slow("-", (x, y))


def mk_mul(st, bt, x, y):
    if bt.dyn:
        return DCode(Prim("*", (code_of(x), code_of(y))))
    if type(x) is SBase and type(y) is SBase:
        a, b = x.value, y.value
        if type(a) is int and type(b) is int:
            return SBase(a * b)
    return _static_slow("*", (x, y))


def mk_div(st, bt, x, y):
    if bt.dyn:
        return DCode(Prim("div", (code_of(x), code_of(y))))
    if type(x) is SBase and type(y) is SBase:
        a, b = x.value, y.value
        if type(a) is int and type(b) is int and b:
            return SBase(a // b)
    return _static_slow("div", (x, y))


def mk_mod(st, bt, x, y):
    if bt.dyn:
        return DCode(Prim("mod", (code_of(x), code_of(y))))
    if type(x) is SBase and type(y) is SBase:
        a, b = x.value, y.value
        if type(a) is int and type(b) is int and b:
            return SBase(a % b)
    return _static_slow("mod", (x, y))


def mk_eq(st, bt, x, y):
    if bt.dyn:
        return DCode(Prim("==", (code_of(x), code_of(y))))
    if type(x) is SBase and type(y) is SBase:
        a, b = x.value, y.value
        if type(a) is int and type(b) is int:
            return _TRUE if a == b else _FALSE
    return _static_slow("==", (x, y))


def mk_lt(st, bt, x, y):
    if bt.dyn:
        return DCode(Prim("<", (code_of(x), code_of(y))))
    if type(x) is SBase and type(y) is SBase:
        a, b = x.value, y.value
        if type(a) is int and type(b) is int:
            return _TRUE if a < b else _FALSE
    return _static_slow("<", (x, y))


def mk_le(st, bt, x, y):
    if bt.dyn:
        return DCode(Prim("<=", (code_of(x), code_of(y))))
    if type(x) is SBase and type(y) is SBase:
        a, b = x.value, y.value
        if type(a) is int and type(b) is int:
            return _TRUE if a <= b else _FALSE
    return _static_slow("<=", (x, y))


def mk_and(st, bt, x, y):
    if bt.dyn:
        return DCode(Prim("and", (code_of(x), code_of(y))))
    if type(x) is SBase and type(y) is SBase:
        a, b = x.value, y.value
        if type(a) is bool and type(b) is bool:
            return _TRUE if a and b else _FALSE
    return _static_slow("and", (x, y))


def mk_or(st, bt, x, y):
    if bt.dyn:
        return DCode(Prim("or", (code_of(x), code_of(y))))
    if type(x) is SBase and type(y) is SBase:
        a, b = x.value, y.value
        if type(a) is bool and type(b) is bool:
            return _TRUE if a or b else _FALSE
    return _static_slow("or", (x, y))


def mk_not(st, bt, x):
    if bt.dyn:
        return DCode(Prim("not", (code_of(x),)))
    if type(x) is SBase and type(x.value) is bool:
        return _FALSE if x.value else _TRUE
    return _static_slow("not", (x,))


def mk_cons(st, bt, x, xs):
    if bt.dyn:
        return DCode(Prim("cons", (code_of(x), code_of(xs))))
    if type(xs) is SList:
        return SList((x,) + xs.items)
    return _static_slow("cons", (x, xs))


def mk_head(st, bt, xs):
    if bt.dyn:
        return DCode(Prim("head", (code_of(xs),)))
    if type(xs) is SList and xs.items:
        return xs.items[0]
    return _static_slow("head", (xs,))


def mk_tail(st, bt, xs):
    if bt.dyn:
        return DCode(Prim("tail", (code_of(xs),)))
    if type(xs) is SList and xs.items:
        return SList(xs.items[1:])
    return _static_slow("tail", (xs,))


def mk_null(st, bt, xs):
    if bt.dyn:
        return DCode(Prim("null", (code_of(xs),)))
    if type(xs) is SList:
        return _TRUE if xs.items == () else _FALSE
    return _static_slow("null", (xs,))


def mk_pair(st, bt, x, y):
    if bt.dyn:
        return DCode(Prim("pair", (code_of(x), code_of(y))))
    return SPair(x, y)


def mk_fst(st, bt, p):
    if bt.dyn:
        return DCode(Prim("fst", (code_of(p),)))
    if type(p) is SPair:
        return p.fst
    return _static_slow("fst", (p,))


def mk_snd(st, bt, p):
    if bt.dyn:
        return DCode(Prim("snd", (code_of(p),)))
    if type(p) is SPair:
        return p.snd
    return _static_slow("snd", (p,))


# The generating primitive of each operator of repro.lang.prims.PRIMS.
PRIMITIVES = {
    "or": mk_or, "and": mk_and, "not": mk_not,
    "==": mk_eq, "<": mk_lt, "<=": mk_le,
    "+": mk_add, "-": mk_sub, "*": mk_mul, "div": mk_div, "mod": mk_mod,
    "cons": mk_cons, "head": mk_head, "tail": mk_tail, "null": mk_null,
    "pair": mk_pair, "fst": mk_fst, "snd": mk_snd,
}

# For the structural primitives: the operand that must be a static
# container, its type, and the error when it is not.
_CONTAINER = {
    "cons": (1, SList, "static 'cons' onto non-static list"),
    "head": (0, SList, "static 'head' of non-static list"),
    "tail": (0, SList, "static 'tail' of non-static list"),
    "null": (0, SList, "static 'null' of non-static list"),
    "fst": (0, SPair, "static 'fst' of non-static pair"),
    "snd": (0, SPair, "static 'snd' of non-static pair"),
}


def _static_slow(op, args):
    """The static case of ``op`` that its primitive's guards did not
    take: an operand outside the operator's domain.  Base operators are
    evaluated by :func:`~repro.lang.prims.apply_prim`, the interpreter's
    own, so a domain error reads the same at both stages."""
    container = _CONTAINER.get(op)
    if container is not None:
        i, cls, message = container
        if type(args[i]) is not cls:
            raise SpecError(message)
        raise SpecError("%s of empty list during specialisation" % op)
    values = []
    for a in args:
        if type(a) is not SBase:
            raise SpecError("static %r applied to non-static operand" % op)
        values.append(a.value)
    try:
        return SBase(apply_prim(op, values))
    except PrimError as e:
        raise SpecError("primitive failed during specialisation: %s" % e)


def mk_prim(st, op, bt, args):
    """Generating version of a primitive named by data (``mix`` and
    ``online`` hold the operator as a string): a lookup in
    :data:`PRIMITIVES`, so each operator has one implementation."""
    return PRIMITIVES[op](st, bt, *args)


def mk_app(st, bt, fun, arg):
    """Generating version of ``@``: unfold static closures, residualise
    dynamic applications."""
    if not bt.dyn:
        if not isinstance(fun, SClo):
            raise SpecError("static application of a non-closure")
        return fun.apply(st, arg)
    return DCode(App(code_of(fun), code_of(arg)))


def mk_lam(st, var, helper, bts, env, label, fvs):
    """Build a static closure for a lambda."""
    return SClo(var, helper, tuple(bts), tuple(env), label, tuple(fvs))
