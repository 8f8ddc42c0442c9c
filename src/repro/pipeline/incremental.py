"""Definition-level cache-key edges.

The module-granular cache keys a module's artifacts on its source plus
its imports' interfaces.  :func:`repro.bt.interface.module_key_v2`
narrows the imported side to the scheme digests of exactly the imported
definitions a module references, so an upstream scheme change the
module never looks at cannot miss its cache.  This module computes that
reference set: :func:`referenced_names` per parsed module and
:func:`used_import_digests` against the imports' merged digest tables.

A module whose key misses is always analysed and cogen'd whole (the
paper's unit of separate analysis, Sec. 4.1); early cutoff between
modules comes from the digests alone.
"""

from repro.lang.names import called_functions, free_vars
from repro.lru import LruMemo

# Unused here: the benchmark suite's WRAP_SITES wraps them at this module.
from repro.bt.analysis import analyse_scc
from repro.genext.cogen import assemble_module, cogen_def

# referenced_names is memoised per parsed module *object*: the build's
# scan memo hands back the same frozen Module for an unchanged file, so a
# rebuild walks only the edited module's bodies.  Keyed by id(), with
# the module itself kept in the entry so the id cannot be reused while
# the entry lives (hashing the frozen tree would cost a walk too).
_REFS_MEMO = LruMemo(4096)  # id(module) -> (module, frozenset of names)


def clear_referenced_names_memo():
    """Drop every memoised reference set (test isolation)."""
    _REFS_MEMO.clear()


def referenced_names(module):
    """Every function name a module's definitions could reference.

    Computed *before* resolution, so it must be conservative: a
    0-arity function reference still parses as a ``Var`` until
    resolution turns it into a ``Call``, hence free variables count as
    potential references alongside call heads.  Intersected with the
    imports' exported names, this is the set of definitions a module's
    cache key may legitimately depend on."""
    hit = _REFS_MEMO.get(id(module))
    if hit is not None:
        return hit[1]
    names = set()
    for d in module.defs:
        names |= called_functions(d.body)
        names |= free_vars(d.body, frozenset(d.params))
    names = frozenset(names)
    _REFS_MEMO.put(id(module), (module, names))
    return names


def used_import_digests(module, visible_digests):
    """Sorted ``(def_name, scheme_digest)`` pairs for exactly the
    imported definitions ``module`` syntactically references — the
    def-level dependency edge set its build key hashes."""
    own = set(module.def_names())
    return sorted(
        (name, visible_digests[name])
        for name in referenced_names(module) & set(visible_digests)
        if name not in own
    )
