"""The ``mspec check`` driver: lint + interface fsck + bounded fuzzing.

Produces one :class:`~repro.check.report.CheckReport` and maintains the
``check.*`` metrics:

* ``check.programs`` — generated programs put through the oracle;
* ``check.divergences`` — programs on which any way disagreed;
* ``check.lint_findings`` / ``check.iface_findings`` — per-pass finding
  counts (errors and warnings);
* ``check.bundles`` — repro bundles written;
* ``check.minimise_deletions`` — definitions removed while minimising.

Spans (under an enabled tracer): ``check`` → ``check.lint`` /
``check.ifaces`` / ``check.diff`` (one per generated program, tagged
with its seed).
"""

import os

from repro.check.diff import minimise_case, run_case
from repro.check.gen import GeneratedCase, generate_case
from repro.check.ifaces import check_interfaces
from repro.check.lint import lint_linked
from repro.check.report import (
    CheckReport,
    Finding,
    make_bundle,
    read_bundle,
    write_bundle,
)
from repro.lang.errors import LangError
from repro.modsys.program import load_program_dir

DEFAULT_BUNDLE_DIRNAME = ".mspec-check"


def _summarise(failures):
    first = failures[0]
    extra = "" if len(failures) == 1 else (
        " (+%d more)" % (len(failures) - 1)
    )
    return "%s/%s: %s%s" % (
        first.get("way"),
        first.get("kind"),
        first.get("message"),
        extra,
    )


def _program_size(source):
    return len([ln for ln in source.splitlines() if ln.strip()])


def run_check(
    src_dir,
    fuzz=10,
    seed=0,
    jobs_widths=(1,),
    bundle_dir=None,
    iface_dir=None,
    force_residual=frozenset(),
    timeout=None,
    minimise=True,
    obs=None,
    strategy_matrix=True,
):
    """Run all three passes over ``src_dir``; returns a
    :class:`CheckReport`.  ``fuzz`` bounds the generated-program count
    (0 disables the differential pass); ``jobs_widths`` are the batch
    pool widths whose residuals must agree byte-for-byte;
    ``strategy_matrix`` additionally lints and differentially checks
    size-change unfolding (``docs/analyses.md``)."""
    from repro.obs import Obs

    obs = obs if obs is not None else Obs()
    tracer, metrics = obs.tracer, obs.metrics
    report = CheckReport()
    force_residual = frozenset(force_residual or ())

    with tracer.span("check", cat="check", dir=str(src_dir)):
        # -- pass 1: annotation lint -------------------------------------
        with tracer.span("check.lint", cat="check"):
            try:
                linked = load_program_dir(src_dir)
            except (LangError, OSError) as exc:
                report.findings.append(
                    Finding(
                        check_pass="lint",
                        rule="load",
                        where=str(src_dir),
                        message=str(exc),
                    )
                )
                linked = None
            if linked is not None:
                findings = lint_linked(linked, force_residual)
                if strategy_matrix:
                    # Size-change swaps the unfold rule for proof-based
                    # checks: same source, a second annotation to lint.
                    findings = findings + lint_linked(
                        linked, force_residual, unfolding="size-change"
                    )
                report.extend(findings)
                metrics.counter("check.lint_findings").inc(len(findings))
                report.count("check.lint_findings", len(findings))

        # -- pass 2: interface fsck --------------------------------------
        with tracer.span("check.ifaces", cat="check"):
            findings, checked = check_interfaces(
                src_dir, iface_dir, force_residual
            )
            if checked == 0 and not findings:
                report.skipped["ifaces"] = (
                    "no interface files on disk (run `mspec build` or "
                    "`mspec analyze` first)"
                )
            else:
                report.extend(findings)
                metrics.counter("check.iface_findings").inc(len(findings))
                report.count("check.iface_findings", len(findings))

        # -- pass 3: differential fuzzing --------------------------------
        for i in range(fuzz):
            case = generate_case(seed + i)
            with tracer.span(
                "check.diff", cat="check", seed=case.seed
            ):
                failures = run_case(
                    case,
                    jobs_widths=jobs_widths,
                    timeout=timeout,
                    obs=obs,
                    strategy_matrix=strategy_matrix,
                )
            metrics.counter("check.programs").inc()
            report.count("check.programs")
            if not failures:
                continue
            metrics.counter("check.divergences").inc()
            report.count("check.divergences")
            minimised = None
            if minimise:
                minimised = minimise_case(case, timeout=timeout)
                removed = _program_size(case.source) - _program_size(
                    minimised
                )
                if removed > 0:
                    metrics.counter("check.minimise_deletions").inc(
                        removed
                    )
            bundle_path = _write_case_bundle(
                src_dir, bundle_dir, case, failures, minimised
            )
            report.bundles.append(bundle_path)
            metrics.counter("check.bundles").inc()
            report.findings.append(
                Finding(
                    check_pass="diff",
                    rule="divergence",
                    where="seed %d" % case.seed,
                    message=_summarise(failures),
                    details=(("bundle", bundle_path),),
                )
            )
    return report


def _write_case_bundle(src_dir, bundle_dir, case, failures, minimised):
    bundle_dir = bundle_dir or os.path.join(
        str(src_dir), DEFAULT_BUNDLE_DIRNAME
    )
    os.makedirs(bundle_dir, exist_ok=True)
    path = os.path.join(bundle_dir, "bundle-seed%06d.json" % case.seed)
    write_bundle(path, make_bundle(case, failures, minimised))
    return path


def replay(bundle_path, jobs_widths=(1,), timeout=None, obs=None):
    """Re-run a repro bundle; returns ``(case, failures)`` — an empty
    failure list means the divergence no longer reproduces."""
    doc = read_bundle(bundle_path)
    case = case_from_bundle(doc)
    failures = run_case(
        case, jobs_widths=jobs_widths, timeout=timeout, obs=obs
    )
    return case, failures


def case_from_bundle(doc, minimised=False):
    """Rebuild the :class:`GeneratedCase` a bundle captured.  With
    ``minimised=True`` (and a minimised source present) the reduced
    program is replayed instead of the full one."""
    source = doc["source"]
    if minimised and doc.get("minimised_source"):
        source = doc["minimised_source"]
    return GeneratedCase(
        seed=int(doc["seed"]),
        source=source,
        goal=doc["goal"],
        static_args=dict(doc["static_args"]),
        static_variants=tuple(
            dict(v) for v in doc.get("static_variants", [doc["static_args"]])
        ),
        dyn_inputs=tuple(tuple(v) for v in doc["dyn_inputs"]),
        params=tuple(doc["params"]),
    )
