"""Definition-level incremental recompilation with early cutoff.

The module-granular cache (PR 1) keys a module's artifacts on its source
plus its imports' *whole interface files*: one changed scheme upstream
re-analyses every dependent module whose digest chain moves.  This
module pushes the paper's separate-analysis claim — analyse a module
without knowing its uses — down to the *definition* level:

* every successful build publishes a **per-definition record**
  (``defs.json``, :data:`repro.pipeline.cache.DEFS_KIND`) next to the
  module's interface and genext source: for each intra-module SCC, the
  schemes, the scheme digests, the dependency reads the analysis made,
  and the cogen fragments (:class:`repro.genext.cogen.DefFragment`);

* each SCC's record carries an :func:`scc_key` — a hash of the SCC's
  (resolved, canonically printed) definition sources, the scheme
  digests of every external definition it calls, and its
  forced-residual members;

* on a rebuild whose module key missed, :func:`try_incremental` walks
  the SCCs in dependency order against the *previous* build's record
  (found via the cache's refs): an SCC whose key is unchanged is reused
  verbatim — schemes, annotations, fragments — and an SCC that must be
  re-derived but lands on byte-identical scheme digests **cuts off**
  invalidation: every downstream key (built from digests, not files)
  stays unchanged, so dependent modules hit their caches without being
  re-analysed.

Reassembly is exact: :func:`repro.genext.cogen.assemble_module` rebuilds
the genext source from any mix of cached and fresh fragments
byte-identically to a cold cogen run, and the interface text is
re-serialised from the (partly reused) schemes — so incremental output
is indistinguishable from a from-scratch build, which the property tests
check seed-by-seed against the pinned corpus.

The path is deliberately conservative: any structural change (import
list, definition list), any malformed record, or any exception at all
falls back to whole-module analysis in the worker pool — correctness
never depends on this module, only speed does.
"""

import hashlib
import json
from dataclasses import dataclass
from typing import List

from repro.bt.analysis import analyse_scc
from repro.bt.interface import (
    CACHE_EPOCH,
    interface_text,
    scheme_digest,
    scheme_from_json,
    scheme_to_json,
)
from repro.genext.cogen import (
    DefFragment,
    GenextModule,
    assemble_module,
    cogen_def,
)
from repro.lang.names import called_functions, def_called_functions, free_vars
from repro.lang.pretty import pretty_def
from repro.lang.validate import resolve_module
from repro.lru import LruMemo
from repro.types.infer import module_def_sccs

DEFS_FORMAT = "repro.defs/v1"

_SCC_KEY_SALT = b"mspec-scc-key\x00"


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


def scc_key(module_name, by_name, group, digests, force_residual):
    """The content key of one SCC's analysis+cogen work.

    Hashes the SCC members' resolved definition sources (canonical
    pretty-printing), the scheme digests of every *external* definition
    they call, and the members forced residual.  Unchanged key ⇒ the
    fixpoint would re-derive byte-identical schemes and fragments, so
    the previous build's record is reused without running it."""
    h = hashlib.sha256(_SCC_KEY_SALT)
    h.update(b"epoch=%d\x00" % CACHE_EPOCH)
    h.update(module_name.encode("utf-8"))
    h.update(b"\x00")
    external = set()
    for name in group:
        external |= def_called_functions(by_name[name])
    external -= set(group)
    for name in sorted(group):
        h.update(b"def:")
        h.update(name.encode("utf-8"))
        h.update(b"=")
        h.update(pretty_def(by_name[name]).encode("utf-8"))
        h.update(b"\x00")
    for callee in sorted(external):
        h.update(b"read:")
        h.update(callee.encode("utf-8"))
        h.update(b"=")
        h.update((digests.get(callee) or "<missing>").encode("utf-8"))
        h.update(b"\x00")
    for name in sorted(set(group) & set(force_residual)):
        h.update(b"resid:")
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def build_defs_doc(resolved, schemes, deps, fragments, visible_digests,
                   force_residual):
    """The per-definition build record published alongside a module's
    interface and genext source (``repro.defs/v1``).

    ``fragments`` maps def names to :class:`DefFragment`; ``deps`` maps
    def names to the function names the analysis actually read.  The
    record is what a later :func:`try_incremental` run mines for
    reusable SCCs."""
    force = frozenset(force_residual)
    digests = dict(visible_digests)
    digests.update({n: scheme_digest(s) for n, s in schemes.items()})
    by_name = {d.name: d for d in resolved.defs}
    sccs = []
    for group in module_def_sccs(resolved):
        payload = {}
        for name in group:
            fr = fragments[name]
            payload[name] = {
                "scheme": scheme_to_json(schemes[name]),
                "digest": digests[name],
                "deps": sorted(deps.get(name, frozenset())),
                "chunk": fr.chunk,
                "sig_line": fr.sig_line,
                "info_line": fr.info_line,
                "imported": [list(pair) for pair in fr.imported],
            }
        sccs.append(
            {
                "defs": list(group),
                "key": scc_key(resolved.name, by_name, group, digests, force),
                "payload": payload,
            }
        )
    return {
        "format": DEFS_FORMAT,
        "module": resolved.name,
        "imports": list(resolved.imports),
        "def_order": list(resolved.def_names()),
        "sccs": sccs,
    }


def defs_doc_text(doc):
    """Canonical serialisation of a defs record."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def parse_defs_doc(text):
    """Parse a defs record; ``None`` on anything malformed (a corrupt
    record merely disables the per-def path for one rebuild)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not isinstance(doc, dict) or doc.get("format") != DEFS_FORMAT:
        return None
    return doc


@dataclass
class ModuleIncrement:
    """The outcome of one per-definition module rebuild."""

    name: str
    iface_text: str
    genext: GenextModule
    defs_doc: dict
    reused: List[str]
    re_derived: List[str]
    cut_off: List[str]


def try_incremental(module, visible_schemes, visible_digests, prev_doc,
                    force_residual=frozenset()):
    """Rebuild one module per-definition against its previous record.

    ``module`` is the parsed (unresolved) module; ``visible_schemes`` /
    ``visible_digests`` merge its imports' current interfaces;
    ``prev_doc`` is the previous build's parsed defs record.

    Returns a :class:`ModuleIncrement`, or ``None`` when the
    prerequisites fail — no usable record, or the module's top-level
    structure (import list, definition list) changed, where whole-module
    analysis is the honest cost.  Any other failure (malformed record,
    resolution error) raises and the caller falls back to the pool."""
    if prev_doc is None or prev_doc.get("format") != DEFS_FORMAT:
        return None
    if list(module.imports) != list(prev_doc.get("imports", ())):
        return None
    if list(module.def_names()) != list(prev_doc.get("def_order", ())):
        return None
    force = frozenset(force_residual)
    arities = {name: len(s.args) for name, s in visible_schemes.items()}
    resolved = resolve_module(module, arities)
    by_name = {d.name: d for d in resolved.defs}
    own = set(resolved.def_names())

    prev_sccs = {}
    prev_digests = {}
    for rec in prev_doc.get("sccs", ()):
        prev_sccs[frozenset(rec["defs"])] = rec
        for name, payload in rec["payload"].items():
            prev_digests[name] = payload.get("digest")

    env = dict(visible_schemes)
    digests = dict(visible_digests)
    schemes = {}
    fragments = {}
    deps = {}
    reused, re_derived, cut_off = [], [], []
    for group in module_def_sccs(resolved):
        key = scc_key(resolved.name, by_name, group, digests, force)
        rec = prev_sccs.get(frozenset(group))
        if rec is not None and rec.get("key") == key:
            # Unchanged sources, unchanged read digests: the fixpoint
            # would reproduce this record byte-for-byte — skip it.
            for name in group:
                payload = rec["payload"][name]
                scheme = scheme_from_json(payload["scheme"])
                schemes[name] = scheme
                env[name] = scheme
                digests[name] = scheme_digest(scheme)
                deps[name] = frozenset(payload.get("deps", ()))
                fragments[name] = DefFragment(
                    name=name,
                    chunk=payload["chunk"],
                    sig_line=payload["sig_line"],
                    info_line=payload["info_line"],
                    imported=tuple(
                        (src, py) for src, py in payload["imported"]
                    ),
                )
                reused.append(name)
            continue
        group_schemes, group_annotated, group_reads = analyse_scc(
            by_name, group, env, force
        )
        for name in group:
            scheme = group_schemes[name]
            schemes[name] = scheme
            env[name] = scheme
            new_digest = scheme_digest(scheme)
            fragments[name] = cogen_def(group_annotated[name], scheme, own)
            deps[name] = group_reads[name]
            re_derived.append(name)
            if prev_digests.get(name) == new_digest:
                # Early cutoff: the body changed but its scheme did
                # not, so every downstream key — built from this
                # digest — is already unchanged.
                cut_off.append(name)
            digests[name] = new_digest
    genext = assemble_module(
        resolved.name,
        resolved.imports,
        [fragments[d.name] for d in resolved.defs],
    )
    return ModuleIncrement(
        name=resolved.name,
        iface_text=interface_text(resolved.name, schemes),
        genext=genext,
        defs_doc=build_defs_doc(
            resolved, schemes, deps, fragments, visible_digests, force
        ),
        reused=reused,
        re_derived=re_derived,
        cut_off=cut_off,
    )


def defs_doc_for_analysis(resolved, analysis, fragments, visible_digests,
                          force_residual=frozenset()):
    """Build the defs record for a freshly analysed module (the worker
    path).  ``fragments`` is the :func:`cogen_fragments` list the genext
    source was assembled from — shared, not recomputed."""
    return build_defs_doc(
        resolved,
        analysis.schemes,
        analysis.deps,
        {fr.name: fr for fr in fragments},
        visible_digests,
        force_residual,
    )
