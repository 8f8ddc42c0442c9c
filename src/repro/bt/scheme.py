"""Principal binding-time schemes (qualified binding-time types).

A :class:`BTScheme` is the canonical, property-independent signature of a
named function: binding-time types for its arguments and result over
small canonical slot indices, the slot of its unfold/residualise
annotation, and the projection of the constraint set onto those slots
(edges plus slots forced dynamic).  This is what Sec. 4.1 writes to a
binding-time interface file, what generating extensions embed, and what
the analysis of an importing module instantiates at each call.

*Inputs* are the slots occurring in argument positions: they become the
binding-time parameters of the function (the ``{t u}`` of Fig. 2).
Every other slot's least solution is a lub of inputs (plus possibly
``D``), recoverable from the closure edges; edges between inputs are the
scheme's *qualifications* (``{t <= u}`` in the paper's example).
"""

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.bt import bt as btmod
from repro.bt.bttypes import (
    BTTBase,
    BTTFun,
    BTTList,
    BTTPair,
    BTTSkel,
    BTType,
    map_bts,
)

_INPUT_LETTERS = "tuvwabcdefgh"


def input_name(index):
    """Paper-style name for the ``index``-th binding-time parameter."""
    if index < len(_INPUT_LETTERS):
        return _INPUT_LETTERS[index]
    return "t%d" % index


@dataclass(frozen=True)
class BTScheme:
    """Canonical principal binding-time signature of one function."""

    args: Tuple[BTType, ...]
    res: BTType
    nslots: int
    unfold: int  # canonical slot of the unfold/residualise annotation
    edges: FrozenSet[Tuple[int, int]]
    dyn: FrozenSet[int]

    # -- derived views ----------------------------------------------------

    def inputs(self):
        """Canonical slots the *context* chooses: every slot in argument
        positions, plus the contravariant slots of the result type
        (argument subtrees of functions returned to the caller — the
        caller decides what those closures are applied to, so their
        binding times are free parameters, not derived outputs)."""
        seen = []
        for a in self.args:
            for s in _slots_preorder(a):
                if s not in seen:
                    seen.append(s)
        for s in _negative_slots(self.res):
            if s not in seen:
                seen.append(s)
        return tuple(seen)

    def input_names(self):
        return tuple(input_name(i) for i in range(len(self.inputs())))

    def qualifications(self):
        """Edges between input slots: constraints callers must respect."""
        ins = set(self.inputs())
        return frozenset((a, b) for (a, b) in self.edges if a in ins and b in ins)

    def solve_symbolic(self):
        """Map every canonical slot to a symbolic :class:`~repro.bt.bt.BT`
        over the input names (the least solution of the signature)."""
        inputs = self.inputs()
        names = {slot: input_name(i) for i, slot in enumerate(inputs)}
        # Forward-propagate reach sets over the closure edges.
        reach = {s: set() for s in range(self.nslots)}
        for i, slot in enumerate(inputs):
            reach[slot].add(names[slot])
        dyn = set(self.dyn)
        changed = True
        while changed:
            changed = False
            for (a, b) in self.edges:
                if a in dyn and b not in dyn:
                    dyn.add(b)
                    changed = True
                if not reach[b] >= reach[a]:
                    reach[b] |= reach[a]
                    changed = True
        out = {}
        for s in range(self.nslots):
            if s in dyn:
                out[s] = btmod.D
            else:
                out[s] = btmod.BT(frozenset(reach[s]), False)
        return out

    def __str__(self):
        # Input slots print as bare parameter names with explicit
        # qualifications, the way the paper writes qualified types
        # (e.g. "forall t,u. {t <= u} => t -> u -> u"); other slots print
        # their least value as a lub of the inputs.
        sol = self.solve_symbolic()
        inputs = self.inputs()
        bare = {slot: input_name(i) for i, slot in enumerate(inputs)}
        for slot, name in bare.items():
            sol[slot] = btmod.BT(frozenset([name]), False)
        parts = [btt_to_str(map_bts(a, lambda s: sol[s])) for a in self.args]
        res = btt_to_str(map_bts(self.res, lambda s: sol[s]))
        quals = sorted(
            "%s <= %s" % (bare[a], bare[b]) for (a, b) in self.qualifications()
        )
        quals = sorted("%s = D" % bare[s] for s in self.dyn if s in bare) + quals
        names = self.input_names()
        head = ("forall %s. " % ",".join(names)) if names else ""
        qual = ("{%s} => " % ", ".join(quals)) if quals else ""
        arrow = " -> ".join(parts + [res]) if parts else res
        return "%s%s%s  [unfold: %s]" % (head, qual, arrow, sol[self.unfold])


def result_input_names(scheme):
    """Names of inputs that live in the result type's contravariant
    positions (not in any argument).  A specialisation *goal* must treat
    these as dynamic: whatever closure the residual program returns will
    be applied by unknown residual contexts."""
    arg_slots = set()
    for a in scheme.args:
        arg_slots.update(_slots_preorder(a))
    return tuple(
        input_name(i)
        for i, slot in enumerate(scheme.inputs())
        if slot not in arg_slots
    )


def param_own_names(scheme):
    """For each argument, the input names of its own slots (preorder).

    These are the binding-time parameters a goal must force to ``D``
    when it makes that argument dynamic — as opposed to the names
    merely *absorbed* into the argument's solved annotations, which are
    lower bounds from elsewhere and must not be forced."""
    inputs = scheme.inputs()
    name_of = {slot: input_name(i) for i, slot in enumerate(inputs)}
    return tuple(
        tuple(name_of[s] for s in _slots_preorder(a)) for a in scheme.args
    )


def _negative_slots(t):
    """Contravariant slots of a type in result position: everything
    under the argument of a function, recursively through the covariant
    structure (lists, pairs, function results)."""
    if isinstance(t, (BTTBase, BTTSkel)):
        return []
    if isinstance(t, BTTList):
        return _negative_slots(t.elem)
    if isinstance(t, BTTPair):
        return _negative_slots(t.fst) + _negative_slots(t.snd)
    if isinstance(t, BTTFun):
        return _slots_preorder(t.arg) + _negative_slots(t.res)
    raise TypeError("not a binding-time type: %r" % (t,))


def _slots_preorder(t):
    out = [t.bt]
    if isinstance(t, BTTList):
        out += _slots_preorder(t.elem)
    elif isinstance(t, BTTPair):
        out += _slots_preorder(t.fst) + _slots_preorder(t.snd)
    elif isinstance(t, BTTFun):
        out += _slots_preorder(t.arg) + _slots_preorder(t.res)
    return out


def btt_to_str(t):
    """Render a binding-time type whose slots are printable values."""
    if isinstance(t, BTTBase):
        return "%s^%s" % (t.name, t.bt)
    if isinstance(t, BTTSkel):
        return "a%d^%s" % (t.id, t.bt)
    if isinstance(t, BTTList):
        return "[%s]^%s" % (btt_to_str(t.elem), t.bt)
    if isinstance(t, BTTPair):
        return "(%s, %s)^%s" % (btt_to_str(t.fst), btt_to_str(t.snd), t.bt)
    if isinstance(t, BTTFun):
        return "(%s ->%s %s)" % (btt_to_str(t.arg), t.bt, btt_to_str(t.res))
    raise TypeError("not a binding-time type: %r" % (t,))


class Canonicaliser:
    """Builds a :class:`BTScheme` from raw inference results.

    Maps real graph variables and skeleton ids to dense canonical
    indices, in order of first appearance walking the arguments and then
    the result.  The unfold variable gets the final slot.
    """

    def __init__(self, unifier):
        self.unifier = unifier
        self.slot_of = {}
        self.skel_of = {}

    def _slot(self, var):
        if var not in self.slot_of:
            self.slot_of[var] = len(self.slot_of)
        return self.slot_of[var]

    def _canon_type(self, t):
        t = self.unifier.resolve(t)
        if isinstance(t, BTTBase):
            return BTTBase(t.name, self._slot(t.bt))
        if isinstance(t, BTTSkel):
            if t.id not in self.skel_of:
                self.skel_of[t.id] = len(self.skel_of)
            return BTTSkel(self.skel_of[t.id], self._slot(t.bt))
        if isinstance(t, BTTList):
            slot = self._slot(t.bt)
            return BTTList(slot, self._canon_type(t.elem))
        if isinstance(t, BTTPair):
            slot = self._slot(t.bt)
            return BTTPair(slot, self._canon_type(t.fst), self._canon_type(t.snd))
        if isinstance(t, BTTFun):
            slot = self._slot(t.bt)
            return BTTFun(slot, self._canon_type(t.arg), self._canon_type(t.res))
        raise TypeError("not a binding-time type: %r" % (t,))

    def build(self, graph, arg_types, res_type, unfold_var):
        args = tuple(self._canon_type(a) for a in arg_types)
        res = self._canon_type(res_type)
        unfold_slot = self._slot(unfold_var)
        interface = list(self.slot_of)
        edges, dyn = graph.closure(interface)
        return BTScheme(
            args=args,
            res=res,
            nslots=len(self.slot_of),
            unfold=unfold_slot,
            edges=frozenset(
                (self.slot_of[a], self.slot_of[b]) for (a, b) in edges
            ),
            dyn=frozenset(self.slot_of[v] for v in dyn),
        )


def instantiate(scheme, graph, unifier):
    """Instantiate ``scheme`` with fresh variables in ``graph``.

    Returns ``(arg_types, res_type, slot_map)`` where ``slot_map`` maps
    canonical slots to the fresh graph variables.  Closure edges and
    forced-dynamic slots are replayed into the graph.
    """
    slot_map = {s: graph.fresh() for s in range(scheme.nslots)}
    skel_map = {}

    def rebuild(t):
        if isinstance(t, BTTBase):
            return BTTBase(t.name, slot_map[t.bt])
        if isinstance(t, BTTSkel):
            if t.id not in skel_map:
                skel_map[t.id] = unifier.alloc_skel_id()
            return BTTSkel(skel_map[t.id], slot_map[t.bt])
        if isinstance(t, BTTList):
            return BTTList(slot_map[t.bt], rebuild(t.elem))
        if isinstance(t, BTTPair):
            return BTTPair(slot_map[t.bt], rebuild(t.fst), rebuild(t.snd))
        if isinstance(t, BTTFun):
            return BTTFun(slot_map[t.bt], rebuild(t.arg), rebuild(t.res))
        raise TypeError("not a binding-time type: %r" % (t,))

    args = tuple(rebuild(a) for a in scheme.args)
    res = rebuild(scheme.res)
    for (a, b) in scheme.edges:
        graph.edge(slot_map[a], slot_map[b])
    for s in scheme.dyn:
        graph.force_dynamic(slot_map[s])
    return args, res, slot_map
