"""First-order unification with an in-place substitution.

A :class:`Unifier` owns a variable supply and a binding map with path
compression.  This is shared infrastructure: plain HM inference uses it
directly, and the binding-time analysis builds its annotated-skeleton
unifier on top of the same discipline.
"""

from repro.types.types import TCon, TFun, TList, TPair, TVar


class UnifyError(Exception):
    """Two types do not unify (mismatch or occurs-check failure)."""


class Unifier:
    """A variable supply plus a growing substitution."""

    def __init__(self):
        self._next = 0
        self._binding = {}  # var id -> Type

    def fresh(self):
        """A fresh type variable."""
        self._next += 1
        return TVar(self._next)

    def resolve(self, t):
        """Follow bindings at the root of ``t`` (one level, compressed)."""
        seen = []
        while isinstance(t, TVar) and t.id in self._binding:
            seen.append(t.id)
            t = self._binding[t.id]
        for vid in seen[:-1]:
            self._binding[vid] = t
        return t

    def deep(self, t):
        """Fully apply the substitution to ``t``."""
        t = self.resolve(t)
        if isinstance(t, (TCon, TVar)):
            return t
        if isinstance(t, TList):
            return TList(self.deep(t.elem))
        if isinstance(t, TPair):
            return TPair(self.deep(t.fst), self.deep(t.snd))
        if isinstance(t, TFun):
            return TFun(self.deep(t.arg), self.deep(t.res))
        raise TypeError("not a type: %r" % (t,))

    def _occurs(self, vid, t):
        t = self.resolve(t)
        if isinstance(t, TVar):
            return t.id == vid
        if isinstance(t, TCon):
            return False
        if isinstance(t, TList):
            return self._occurs(vid, t.elem)
        if isinstance(t, TPair):
            return self._occurs(vid, t.fst) or self._occurs(vid, t.snd)
        if isinstance(t, TFun):
            return self._occurs(vid, t.arg) or self._occurs(vid, t.res)
        raise TypeError("not a type: %r" % (t,))

    def unify(self, a, b):
        """Make ``a`` and ``b`` equal, extending the substitution.

        Raises :class:`UnifyError` on constructor mismatch or an occurs
        violation (infinite type).
        """
        a = self.resolve(a)
        b = self.resolve(b)
        if isinstance(a, TVar) and isinstance(b, TVar) and a.id == b.id:
            return
        if isinstance(a, TVar):
            if self._occurs(a.id, b):
                raise UnifyError("occurs check: t%d in %r" % (a.id, b))
            self._binding[a.id] = b
            return
        if isinstance(b, TVar):
            self.unify(b, a)
            return
        if isinstance(a, TCon) and isinstance(b, TCon):
            if a.name != b.name:
                raise UnifyError("cannot unify %s with %s" % (a.name, b.name))
            return
        if isinstance(a, TList) and isinstance(b, TList):
            self.unify(a.elem, b.elem)
            return
        if isinstance(a, TPair) and isinstance(b, TPair):
            self.unify(a.fst, b.fst)
            self.unify(a.snd, b.snd)
            return
        if isinstance(a, TFun) and isinstance(b, TFun):
            self.unify(a.arg, b.arg)
            self.unify(a.res, b.res)
            return
        raise UnifyError("cannot unify %r with %r" % (a, b))
