"""Binding-time types: type skeletons carrying binding times.

A binding-time type mirrors the underlying Hindley–Milner type and
carries a binding time on **every** node (Sec. 4.1: expressions of base
type get a simple binding time, anonymous functions get types of the form
``a ->b p``; we extend the same idea to lists and pairs).  Type
polymorphism is represented by *skeleton variables* (:class:`BTTSkel`),
which stand for an unknown type structure but still expose a top binding
time; they are the extension the paper made to handle Hindley–Milner
typed programs.

The ``bt`` field of a node is polymorphic in representation:

* during inference it is an ``int`` — a variable in the
  :class:`~repro.bt.graph.ConstraintGraph`;
* in canonical schemes it is a small canonical slot index;
* in annotated programs it is a symbolic :class:`~repro.bt.bt.BT`;
* at specialisation time it is the concrete ``S`` or ``D``.

Well-formedness (a dynamic value has only dynamic components) is enforced
by generating ``parent <= child`` edges whenever a node is built during
inference — see :func:`well_formed`.
"""

from dataclasses import dataclass
from typing import Tuple


class BTType:
    """Base class of binding-time types."""

    __slots__ = ()


@dataclass(frozen=True)
class BTTBase(BTType):
    """A base type (``Nat`` or ``Bool``) with its binding time."""

    name: str
    bt: object


@dataclass(frozen=True)
class BTTList(BTType):
    """A list type: spine binding time plus element binding-time type."""

    bt: object
    elem: BTType


@dataclass(frozen=True)
class BTTPair(BTType):
    """A pair type: constructor binding time plus component types."""

    bt: object
    fst: BTType
    snd: BTType


@dataclass(frozen=True)
class BTTFun(BTType):
    """An anonymous-function type ``arg ->bt res`` (Fig. 2's ``T ->B T``)."""

    bt: object
    arg: BTType
    res: BTType


@dataclass(frozen=True)
class BTTSkel(BTType):
    """A skeleton variable: unknown structure with a top binding time.

    ``id`` identifies the variable; two occurrences with the same id
    stand for the same (unknown) structure.
    """

    id: int
    bt: object


def top(t):
    """The binding time at the root of ``t``."""
    return t.bt


def btt_children(t):
    if isinstance(t, (BTTBase, BTTSkel)):
        return ()
    if isinstance(t, BTTList):
        return (t.elem,)
    if isinstance(t, BTTPair):
        return (t.fst, t.snd)
    if isinstance(t, BTTFun):
        return (t.arg, t.res)
    raise TypeError("not a binding-time type: %r" % (t,))


def map_bts(t, f):
    """Rebuild ``t`` applying ``f`` to every binding-time slot."""
    if isinstance(t, BTTBase):
        return BTTBase(t.name, f(t.bt))
    if isinstance(t, BTTSkel):
        return BTTSkel(t.id, f(t.bt))
    if isinstance(t, BTTList):
        return BTTList(f(t.bt), map_bts(t.elem, f))
    if isinstance(t, BTTPair):
        return BTTPair(f(t.bt), map_bts(t.fst, f), map_bts(t.snd, f))
    if isinstance(t, BTTFun):
        return BTTFun(f(t.bt), map_bts(t.arg, f), map_bts(t.res, f))
    raise TypeError("not a binding-time type: %r" % (t,))


def bt_slots(t):
    """All binding-time slots of ``t`` in preorder (with repetition)."""
    out = [t.bt]
    for c in btt_children(t):
        out.extend(bt_slots(c))
    return out


def skel_vars(t):
    """All skeleton-variable ids in ``t``, preorder, with repetition."""
    if isinstance(t, BTTSkel):
        return [t.id]
    out = []
    for c in btt_children(t):
        out.extend(skel_vars(c))
    return out


class BTUnifyError(Exception):
    """Two binding-time types have incompatible shapes."""


class BTUnifier:
    """Unification and coercion generation over binding-time types.

    Owns the skeleton-variable bindings; binding-time constraints go into
    the :class:`~repro.bt.graph.ConstraintGraph` supplied at construction.
    """

    def __init__(self, graph):
        self.graph = graph
        self._next_skel = 0
        self._binding = {}  # skel id -> BTType

    def alloc_skel_id(self):
        """Allocate a fresh skeleton-variable id (no binding time)."""
        self._next_skel += 1
        return self._next_skel

    def fresh_skel(self):
        """A fresh skeleton variable with a fresh top binding time."""
        return BTTSkel(self.alloc_skel_id(), self.graph.fresh())

    def resolve(self, t):
        """Follow skeleton-variable bindings at the root.

        The variable's own top was equated with the structure's top when
        the binding was made, so resolution is a pure query.
        """
        while isinstance(t, BTTSkel) and t.id in self._binding:
            t = self._binding[t.id]
        return t

    def deep(self, t):
        """Fully resolve ``t`` (children included)."""
        t = self.resolve(t)
        if isinstance(t, (BTTBase, BTTSkel)):
            return t
        if isinstance(t, BTTList):
            return BTTList(t.bt, self.deep(t.elem))
        if isinstance(t, BTTPair):
            return BTTPair(t.bt, self.deep(t.fst), self.deep(t.snd))
        if isinstance(t, BTTFun):
            return BTTFun(t.bt, self.deep(t.arg), self.deep(t.res))
        raise TypeError("not a binding-time type: %r" % (t,))

    def _occurs(self, skel_id, t):
        t = self.resolve(t)
        if isinstance(t, BTTSkel):
            return t.id == skel_id
        return any(self._occurs(skel_id, c) for c in btt_children(t))

    def unify(self, a, b):
        """Equate ``a`` and ``b``: same shape, equal binding times."""
        a = self.resolve(a)
        b = self.resolve(b)
        if isinstance(a, BTTSkel) and isinstance(b, BTTSkel) and a.id == b.id:
            self.graph.equate(a.bt, b.bt)
            return
        if isinstance(a, BTTSkel):
            if self._occurs(a.id, b):
                raise BTUnifyError("occurs check in binding-time skeleton")
            self.graph.equate(a.bt, b.bt)
            self._binding[a.id] = b
            return
        if isinstance(b, BTTSkel):
            self.unify(b, a)
            return
        if isinstance(a, BTTBase) and isinstance(b, BTTBase):
            if a.name != b.name:
                raise BTUnifyError("cannot unify %s with %s" % (a.name, b.name))
            self.graph.equate(a.bt, b.bt)
            return
        if isinstance(a, BTTList) and isinstance(b, BTTList):
            self.graph.equate(a.bt, b.bt)
            self.unify(a.elem, b.elem)
            return
        if isinstance(a, BTTPair) and isinstance(b, BTTPair):
            self.graph.equate(a.bt, b.bt)
            self.unify(a.fst, b.fst)
            self.unify(a.snd, b.snd)
            return
        if isinstance(a, BTTFun) and isinstance(b, BTTFun):
            self.graph.equate(a.bt, b.bt)
            self.unify(a.arg, b.arg)
            self.unify(a.res, b.res)
            return
        raise BTUnifyError(
            "shape mismatch: %s vs %s" % (type(a).__name__, type(b).__name__)
        )

    def instantiate_like(self, t):
        """A fresh type with the same shape as ``t`` but fresh binding
        times everywhere (unbound skeleton children become fresh
        skeletons).  Well-formedness edges are generated for the copy."""
        t = self.resolve(t)
        if isinstance(t, BTTSkel):
            return self.fresh_skel()
        if isinstance(t, BTTBase):
            return BTTBase(t.name, self.graph.fresh())
        if isinstance(t, BTTList):
            out = BTTList(self.graph.fresh(), self.instantiate_like(t.elem))
        elif isinstance(t, BTTPair):
            out = BTTPair(
                self.graph.fresh(),
                self.instantiate_like(t.fst),
                self.instantiate_like(t.snd),
            )
        elif isinstance(t, BTTFun):
            out = BTTFun(
                self.graph.fresh(),
                self.instantiate_like(t.arg),
                self.instantiate_like(t.res),
            )
        else:
            raise TypeError("not a binding-time type: %r" % (t,))
        self.well_formed(out)
        return out

    def coerce(self, a, b):
        """Constrain "a value of type ``a`` can be coerced to type ``b``".

        Coercions may only *raise* binding times (``S < D``), covariantly
        at base, list, and pair nodes.  Function components are equated:
        a closure coerced into a more dynamic context must already expect
        dynamic argument/result (well-formedness then makes the whole
        closure residualisable), which matches the paper's treatment of
        static functions passed to residual positions.

        An *unbound* skeleton variable on one side is first bound to a
        fresh same-shaped copy of the other side, then coerced
        structurally (instantiate-then-coerce).  Binding it directly to
        the other side would *equate* the binding times, aliasing
        parameters with the operations performed on them and losing
        principality (a dynamic use would drag unrelated parameters
        dynamic).  Only when both sides are unknown structure do we fall
        back to unification.
        """
        a = self.resolve(a)
        b = self.resolve(b)
        if isinstance(a, BTTSkel) and isinstance(b, BTTSkel):
            self.unify(a, b)
            return
        if isinstance(a, BTTSkel):
            if self._occurs(a.id, b):
                raise BTUnifyError("occurs check in binding-time coercion")
            copy = self.instantiate_like(b)
            self.graph.equate(a.bt, copy.bt)
            self._binding[a.id] = copy
            self.coerce(copy, b)
            return
        if isinstance(b, BTTSkel):
            if self._occurs(b.id, a):
                raise BTUnifyError("occurs check in binding-time coercion")
            copy = self.instantiate_like(a)
            self.graph.equate(b.bt, copy.bt)
            self._binding[b.id] = copy
            self.coerce(a, copy)
            return
        if isinstance(a, BTTBase) and isinstance(b, BTTBase):
            if a.name != b.name:
                raise BTUnifyError("cannot coerce %s to %s" % (a.name, b.name))
            self.graph.edge(a.bt, b.bt)
            return
        if isinstance(a, BTTList) and isinstance(b, BTTList):
            self.graph.edge(a.bt, b.bt)
            self.coerce(a.elem, b.elem)
            return
        if isinstance(a, BTTPair) and isinstance(b, BTTPair):
            self.graph.edge(a.bt, b.bt)
            self.coerce(a.fst, b.fst)
            self.coerce(a.snd, b.snd)
            return
        if isinstance(a, BTTFun) and isinstance(b, BTTFun):
            self.graph.edge(a.bt, b.bt)
            self.unify(a.arg, b.arg)
            self.unify(a.res, b.res)
            return
        raise BTUnifyError(
            "shape mismatch in coercion: %s vs %s"
            % (type(a).__name__, type(b).__name__)
        )

    def well_formed(self, t):
        """Generate well-formedness edges for a freshly built skeleton.

        Every composite node's binding time flows to its children's tops:
        if the node is dynamic, everything inside is dynamic (the paper's
        "dynamic function types must have purely dynamic arguments and
        results", generalised to lists and pairs).
        """
        previous = self.graph.set_context(
            "well-formedness: components of a dynamic value are dynamic"
        )
        try:
            self._well_formed(t)
        finally:
            self.graph.set_context(previous)

    def _well_formed(self, t):
        t = self.resolve(t)
        for c in btt_children(t):
            c = self.resolve(c)
            self.graph.edge(t.bt, c.bt)
            self._well_formed(c)
