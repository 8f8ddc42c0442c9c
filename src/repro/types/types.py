"""The type language: Nat, Bool, lists, pairs, functions, variables.

Types are immutable and hashable.  Type variables are identified by
integers from a supply; :class:`Scheme` closes over a tuple of quantified
variable ids.
"""

from dataclasses import dataclass
from typing import Tuple


class Type:
    """Base class of monotypes."""

    __slots__ = ()


@dataclass(frozen=True)
class TCon(Type):
    """A nullary type constructor: ``Nat`` or ``Bool``."""

    name: str


@dataclass(frozen=True)
class TVar(Type):
    """A type variable, identified by an integer id."""

    id: int


@dataclass(frozen=True)
class TList(Type):
    """``[t]``."""

    elem: Type


@dataclass(frozen=True)
class TPair(Type):
    """``(t, u)`` built by the ``pair`` primitive."""

    fst: Type
    snd: Type


@dataclass(frozen=True)
class TFun(Type):
    """``t -> u`` — the type of anonymous functions."""

    arg: Type
    res: Type


NAT = TCon("Nat")
BOOL = TCon("Bool")


@dataclass(frozen=True)
class Scheme:
    """A type scheme ``forall vars. type`` (vars are TVar ids)."""

    vars: Tuple[int, ...]
    type: Type


def type_children(t):
    if isinstance(t, (TCon, TVar)):
        return ()
    if isinstance(t, TList):
        return (t.elem,)
    if isinstance(t, TPair):
        return (t.fst, t.snd)
    if isinstance(t, TFun):
        return (t.arg, t.res)
    raise TypeError("not a type: %r" % (t,))


def free_type_vars(t):
    """The set of TVar ids occurring in ``t``."""
    out = set()
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, TVar):
            out.add(x.id)
        else:
            stack.extend(type_children(x))
    return out


def substitute(t, mapping):
    """Replace TVars by types according to ``mapping`` (id -> Type)."""
    if isinstance(t, TCon):
        return t
    if isinstance(t, TVar):
        return mapping.get(t.id, t)
    if isinstance(t, TList):
        return TList(substitute(t.elem, mapping))
    if isinstance(t, TPair):
        return TPair(substitute(t.fst, mapping), substitute(t.snd, mapping))
    if isinstance(t, TFun):
        return TFun(substitute(t.arg, mapping), substitute(t.res, mapping))
    raise TypeError("not a type: %r" % (t,))


_VAR_NAMES = "abcdefghijklmnopqrstuvwxyz"


def _var_name(index):
    name = _VAR_NAMES[index % 26]
    if index >= 26:
        name += str(index // 26)
    return name


def type_to_str(t, names=None):
    """Render a type with letters for variables, Haskell-style."""
    if names is None:
        names = {}
        for vid in sorted(free_type_vars(t)):
            names[vid] = _var_name(len(names))

    def go(t, parens_fun):
        if isinstance(t, TCon):
            return t.name
        if isinstance(t, TVar):
            return names.get(t.id, "t%d" % t.id)
        if isinstance(t, TList):
            return "[%s]" % go(t.elem, False)
        if isinstance(t, TPair):
            return "(%s, %s)" % (go(t.fst, False), go(t.snd, False))
        if isinstance(t, TFun):
            body = "%s -> %s" % (go(t.arg, True), go(t.res, False))
            return "(%s)" % body if parens_fun else body
        raise TypeError("not a type: %r" % (t,))

    return go(t, False)
