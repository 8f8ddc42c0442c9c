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

# Unused here: the benchmark suite's WRAP_SITES wraps them at this module.
from repro.bt.analysis import analyse_scc
from repro.genext.cogen import assemble_module, cogen_def


def referenced_names(module):
    """Every function name a module's definitions could reference and
    the module does not define itself.

    Computed *before* resolution, so it must be conservative: a
    0-arity function reference still parses as a ``Var`` until
    resolution turns it into a ``Call``, hence free variables count as
    potential references alongside call heads.  Intersected with the
    imports' exported names, this is the set of definitions a module's
    cache key may legitimately depend on.  The build computes it once
    per parsed file and keeps it on the scanned source
    (``SourceModule.refs``)."""
    names = set()
    for d in module.defs:
        names |= called_functions(d.body)
        names |= free_vars(d.body, frozenset(d.params))
    return frozenset(names.difference(module.def_names()))


def used_import_digests(refs, visible_digests):
    """Sorted ``(def_name, scheme_digest)`` pairs for exactly the
    imported definitions in ``refs`` (a module's
    :func:`referenced_names`) — the def-level dependency edge set its
    build key hashes."""
    return sorted(
        (name, visible_digests[name])
        for name in refs.intersection(visible_digests)
    )
