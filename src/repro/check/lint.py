"""Annotation lint: the Fig. 2 global invariants over analysed programs.

:mod:`repro.anno.check` verifies well-annotatedness definition by
definition; this pass extends it with the three *global* invariants the
paper's annotated language (Fig. 2) promises, and reports structured
findings instead of raising on the first problem:

* ``coercion-upward`` — every coercion ``[α → β] e`` only raises
  binding times (``α ⊑ β`` pointwise on an identical shape; function
  components invariant);
* ``unfold-lub`` — each definition's unfold/residualise flag is
  *exactly* the least upper bound of its body's conditional binding
  times (the analysis computes the least solution, so anything above
  the lub is an annotation bug, not just imprecision); definitions
  forced residual by ``force_residual`` are only required to dominate
  the lub;
* ``static-position`` — no dynamic value flows into a static position
  uncoerced (the full well-annotatedness discipline, run per
  definition so one bad definition cannot mask another).

The pass is strategy-aware (``docs/analyses.md``): under
``unfolding="size-change"`` the ``unfold-lub`` rule is skipped (the
strategy's whole point is annotating below the lub) and the
well-annotatedness re-check drops unfold domination.
"""

from repro.anno.ast import ACoerce, AIf, walk_aexpr
from repro.anno.check import (
    AnnotationError,
    _Checker,
    bt_leq,
    coercion_violation,
)
from repro.bt.analysis import analyse_program
from repro.bt.bt import S, bt_lub
from repro.check.report import Finding


def _finding(rule, where, message, **details):
    return Finding(
        check_pass="lint",
        rule=rule,
        where=where,
        message=message,
        details=tuple(sorted(details.items())),
    )


def lint_def(module_name, d, defs, force_residual=frozenset(),
             unfolding="lub"):
    """Findings for one annotated definition."""
    findings = []
    where = "%s.%s" % (module_name, d.name)

    # Rule 1: every coercion is upward.
    for node in walk_aexpr(d.body):
        if isinstance(node, ACoerce):
            reason = coercion_violation(node.src, node.dst)
            if reason is not None:
                findings.append(
                    _finding("coercion-upward", where, reason)
                )

    # Rule 2: unfold flag = lub of the body's conditional binding times.
    # Only meaningful under the Similix lub rule: size-change unfolding
    # annotates below the lub by design.
    if unfolding == "lub":
        conds = [n.bt for n in walk_aexpr(d.body) if isinstance(n, AIf)]
        lub = bt_lub(*conds) if conds else S
        if not bt_leq(lub, d.unfold):
            findings.append(
                _finding(
                    "unfold-lub",
                    where,
                    "unfold annotation %s does not dominate the lub %s of "
                    "the body's conditionals" % (d.unfold, lub),
                    unfold=str(d.unfold),
                    lub=str(lub),
                )
            )
        elif d.name not in force_residual and d.unfold != lub:
            findings.append(
                _finding(
                    "unfold-lub",
                    where,
                    "unfold annotation %s is not the lub %s of the body's "
                    "conditional binding times (not the least solution)"
                    % (d.unfold, lub),
                    unfold=str(d.unfold),
                    lub=str(lub),
                )
            )

    # Rule 3: nothing dynamic reaches a static position uncoerced —
    # the full per-definition well-annotatedness re-check.
    checker = _Checker(defs)
    checker.where = where
    try:
        checker.check_def(d, unfold_dominates=(unfolding == "lub"))
    except AnnotationError as exc:
        findings.append(_finding("static-position", where, str(exc)))
    return findings


def lint_aprogram(aprogram, force_residual=frozenset(), unfolding="lub"):
    """Findings over a whole annotated program."""
    defs = {}
    for m in aprogram.modules:
        for d in m.defs:
            defs[d.name] = d
    findings = []
    for m in aprogram.modules:
        for d in m.defs:
            findings.extend(
                lint_def(m.name, d, defs, force_residual, unfolding=unfolding)
            )
    return findings


def lint_linked(linked, force_residual=frozenset(), unfolding="lub"):
    """Analyse a linked program, then lint the annotation."""
    analysis = analyse_program(
        linked, force_residual=force_residual, unfolding=unfolding
    )
    return lint_aprogram(
        analysis.annotated, force_residual, unfolding=unfolding
    )
