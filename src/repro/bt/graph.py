"""The binding-time constraint graph.

All constraints the analysis generates are inequalities ``a <= b``
between binding-time variables and the constant ``D`` (``S`` is bottom,
so ``S <= x`` is vacuous and never stored).  Least upper bounds need no
special node: ``r = a ⊔ b`` in the *least* model is exactly the two edges
``a <= r`` and ``b <= r``.  Well-formedness of binding-time types
("anything inside a dynamic value is dynamic") is the edge from a node's
binding time to each child's binding time.

The principal solution of Henglein–Mossin-style analysis is the least
model of the constraint set, so after inference each variable's symbolic
value is simply *the set of parameter variables that reach it* (plus
``D`` if the ``D`` node reaches it).  :meth:`ConstraintGraph.solve`
computes that by a forward fixed point; :meth:`ConstraintGraph.closure`
projects the constraint set onto a set of interface variables, which is
how principal signatures are extracted.
"""

D_NODE = -1


class ConstraintGraph:
    """A growable graph of ``<=`` edges over integer variable ids."""

    def __init__(self):
        self._next = 0
        self._succ = {D_NODE: set()}
        self._reasons = {}
        self._context = None

    def fresh(self):
        """Allocate a fresh binding-time variable."""
        self._next += 1
        self._succ[self._next] = set()
        return self._next

    def set_context(self, text):
        """Set the provenance recorded on subsequently added edges (used
        by the analysis so :mod:`repro.bt.explain` can answer "why is
        this dynamic?").  Returns the previous context."""
        previous = self._context
        self._context = text
        return previous

    def reason(self, a, b):
        """The provenance of the edge ``a <= b`` (or ``None``)."""
        return self._reasons.get((a, b))

    def edge(self, a, b):
        """Add the constraint ``a <= b``."""
        if a == b:
            return
        self._succ[a].add(b)
        if self._context is not None and (a, b) not in self._reasons:
            self._reasons[(a, b)] = self._context

    def equate(self, a, b):
        """Constrain ``a = b`` (edges both ways)."""
        self.edge(a, b)
        self.edge(b, a)

    def force_dynamic(self, v):
        """Constrain ``v = D``."""
        self.edge(D_NODE, v)

    def successors(self, v):
        return self._succ[v]

    def find_path(self, src, dst):
        """A shortest edge path from ``src`` to ``dst`` (BFS), as a list
        of ``(a, b)`` edges, or ``None`` if unreachable.  Used by the
        explanation tool."""
        if src == dst:
            return []
        parent = {src: None}
        frontier = [src]
        while frontier:
            next_frontier = []
            for v in frontier:
                for w in self._succ[v]:
                    if w in parent:
                        continue
                    parent[w] = v
                    if w == dst:
                        path = []
                        node = dst
                        while parent[node] is not None:
                            path.append((parent[node], node))
                            node = parent[node]
                        return list(reversed(path))
                    next_frontier.append(w)
            frontier = next_frontier
        return None

    def reachable_from(self, start):
        """All variables reachable from ``start`` (excluding ``start``
        unless it lies on a cycle)."""
        seen = set()
        stack = list(self._succ[start])
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(self._succ[v])
        return seen

    def solve(self, params):
        """Least solution as symbolic reach-sets.

        ``params`` is an ordered sequence of variable ids treated as free
        inputs.  Returns a dict mapping *every* variable id to a pair
        ``(frozenset of param ids reaching it, bool D-reaches-it)``.  A
        parameter always reaches itself.
        """
        reach = {}
        for p in params:
            hit = self.reachable_from(p)
            hit.add(p)
            for v in hit:
                reach.setdefault(v, set()).add(p)
        dyn = self.reachable_from(D_NODE)
        dyn.add(D_NODE)
        solution = {}
        for v in self._succ:
            if v == D_NODE:
                continue
            if v in dyn:
                solution[v] = (frozenset(), True)
            else:
                solution[v] = (frozenset(reach.get(v, ())), False)
        return solution

    def closure(self, interface):
        """Project the constraint set onto ``interface`` variables.

        Returns ``(edges, dyn)`` where ``edges`` is a frozenset of pairs
        ``(v, w)`` with ``v, w`` interface variables, ``v`` reaches ``w``
        in the full graph, and ``v != w``; and ``dyn`` is the frozenset of
        interface variables reachable from ``D``.  This is the paper's
        "property-independent" signature information: everything a caller
        ever needs to know about the constraints inside a definition.
        """
        interface = list(interface)
        interface_set = set(interface)
        edges = set()
        for v in interface:
            for w in self.reachable_from(v):
                if w in interface_set and w != v:
                    edges.add((v, w))
        dyn = frozenset(self.reachable_from(D_NODE) & interface_set)
        return frozenset(edges), dyn
