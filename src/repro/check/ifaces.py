"""Interface fsck: committed ``*.bti`` files vs re-derived truth.

The separate-analysis workflow (Sec. 4.1) trusts interface files twice:
a module's artifacts are keyed by the scheme digests of the imported
definitions it references, and importers are analysed against the
schemes those files contain.  The digest cache detects *changed*
schemes — it cannot detect a file that is simply *wrong* (hand-edited,
restored from the wrong checkout, produced by an older analysis, or
published before an edit to its source).  This pass can:

* re-derives every module's principal binding-time schemes from source,
  in dependency order, against the *fresh* schemes of its imports —
  never against anything on disk;
* diffs the committed interface against the re-derivation, per function
  (missing, extra, or differing schemes are each separate findings);
* checks the committed file is the canonical serialisation of its own
  schemes (a non-canonical file breaks the byte-equality-is-semantic-
  equality property);
* tells drift from damage as ``mspec fsck`` does: a file an earlier
  version published in a retired format is ``stale-interface``, bytes
  that are not an interface at all are ``corrupt-interface``.
"""

import os

from repro.bt.analysis import BTAError, analyse_module
from repro.bt.interface import (
    INTERFACE_SUFFIX,
    InterfaceError,
    InterfaceStore,
    interface_text,
    retired_reason,
)
from repro.check.report import SEVERITY_WARNING, Finding
from repro.lang.errors import LangError
from repro.modsys.program import load_program_dir


def _finding(rule, where, message, severity="error", **details):
    return Finding(
        check_pass="ifaces",
        rule=rule,
        where=where,
        message=message,
        severity=severity,
        details=tuple(sorted(details.items())),
    )


def _scheme_str(scheme):
    """``str(scheme)`` hardened against structurally nonsense schemes
    (a skewed interface can name slots that do not exist)."""
    try:
        return str(scheme)
    except Exception:
        return "<unprintable scheme: %r>" % (scheme,)


def derive_schemes(linked, force_residual=frozenset()):
    """Principal schemes per module, re-derived purely from source:
    ``{module_name: {fn_name: BTScheme}}``."""
    by_module = {}
    all_schemes = {}
    for module_name in linked.topo_order:
        module = linked.module(module_name)
        visible = {}
        for dep in module.imports:
            visible.update(by_module[dep])
        analysis = analyse_module(module, visible, force_residual)
        by_module[module_name] = dict(analysis.schemes)
        all_schemes.update(analysis.schemes)
    return by_module


def check_interfaces(src_dir, iface_dir=None, force_residual=frozenset()):
    """The fsck itself; returns ``(findings, checked)`` where ``checked``
    is the number of interface files examined (0 = nothing on disk, the
    caller should report the pass as skipped)."""
    findings = []
    try:
        linked = load_program_dir(src_dir)
    except (LangError, OSError) as exc:
        return [_finding("load", src_dir, str(exc))], 0

    store = InterfaceStore(iface_dir or src_dir)
    present = [
        name for name in linked.topo_order if os.path.exists(store.path(name))
    ]
    if not present:
        return [], 0

    try:
        fresh_by_module = derive_schemes(linked, force_residual)
    except BTAError as exc:
        return [_finding("analyse", src_dir, str(exc))], 0

    for module_name in linked.topo_order:
        path = store.path(module_name)
        where = module_name + INTERFACE_SUFFIX
        if not os.path.exists(path):
            findings.append(
                _finding(
                    "missing-interface",
                    where,
                    "module %s has no committed interface while other "
                    "modules do" % module_name,
                )
            )
            continue
        try:
            committed_iface = store.load(path)
        except InterfaceError as exc:
            # A file an earlier version published is drift, as in fsck:
            # the next build republishes it.
            try:
                with open(path, encoding="utf-8") as f:
                    stale = retired_reason(f.read())
            except (OSError, UnicodeDecodeError):
                stale = None
            if stale is None:
                findings.append(_finding("corrupt-interface", where, str(exc)))
            else:
                findings.append(_finding("stale-interface", where, stale))
            continue
        committed_name = committed_iface.module
        committed = committed_iface.schemes
        if committed_name != module_name:
            findings.append(
                _finding(
                    "wrong-module",
                    where,
                    "interface file names module %r" % committed_name,
                )
            )
            continue

        fresh = fresh_by_module[module_name]
        for fn in sorted(set(fresh) - set(committed)):
            findings.append(
                _finding(
                    "scheme-missing",
                    "%s:%s" % (where, fn),
                    "exported function %s has no committed scheme" % fn,
                )
            )
        for fn in sorted(set(committed) - set(fresh)):
            findings.append(
                _finding(
                    "scheme-extra",
                    "%s:%s" % (where, fn),
                    "committed scheme for %s, which the module does not "
                    "define" % fn,
                )
            )
        for fn in sorted(set(committed) & set(fresh)):
            if committed[fn] != fresh[fn]:
                findings.append(
                    _finding(
                        "scheme-skew",
                        "%s:%s" % (where, fn),
                        "committed binding-time scheme disagrees with "
                        "the re-derived principal scheme",
                        committed=_scheme_str(committed[fn]),
                        derived=_scheme_str(fresh[fn]),
                    )
                )

        canonical = interface_text(module_name, committed)
        if committed_iface.text != canonical:
            findings.append(
                _finding(
                    "non-canonical",
                    where,
                    "interface file is not the canonical serialisation "
                    "of its own schemes (byte-equality no longer implies "
                    "semantic equality)",
                    severity=SEVERITY_WARNING,
                )
            )
    return findings, len(present)
