"""Differential testing: five execution ways, one answer.

For one :class:`~repro.check.gen.GeneratedCase` the oracle runs the
program:

1. **interp** — direct interpretation of the source program on the full
   argument list (the ground truth);
2. **genext** — cogen + link + run the generating extensions, then run
   the residual program on the dynamic arguments;
3. **mix** — the interpretive specialiser baseline, whose residual
   program must be *byte-identical* to the genext one;
4. **cache** — specialise twice against a fresh persistent residual
   cache: the warm replay must decode a byte-identical residual without
   running the specialiser;
5. **tiers** — every rung of the execution ladder
   (:mod:`repro.backend.tiers`) forced in turn: the general
   interpreter, the residual interpreter, and the emitted + compiled
   Python must all agree with the ground truth;
6. **strategy[size-change]** — the non-default analysis strategy
   (``docs/analyses.md``): ``unfolding="size-change"`` residuals must
   produce the interpreter's values, and genext and mix, which share
   the strategy, must again agree byte-for-byte.

On top of that, the goal's alternate static valuations are pushed
through the parallel batch driver at every requested ``--jobs`` width;
all widths (and the direct run) must agree byte-for-byte, warm or cold.

Any disagreement — a differing value, a differing residual text, or an
unexpected exception in any way — is reported as a failure record; the
case is then *minimised* by iterative definition deletion
(:func:`minimise_case`) and written as a replayable JSON repro bundle
(:mod:`repro.check.report`).
"""

import tempfile
from dataclasses import replace

from repro.api import SpecOptions
from repro.bt.analysis import analyse_program
from repro.genext.batch import specialise_many
from repro.genext.cogen import cogen_program
from repro.genext.link import link_genexts
from repro.genext.engine import specialise
from repro.interp import run_program
from repro.lang.ast import Module, Program
from repro.lang.pretty import pretty_program
from repro.modsys.program import load_program
from repro.specialiser import mix_specialise
from repro.types import infer_program

DIFF_FUEL = 600_000
DEFAULT_SPEC_TIMEOUT = 30.0

def _failure(way, kind, message, **details):
    doc = {"way": way, "kind": kind, "message": str(message)}
    doc.update(details)
    return doc


def _run_residual(result, vec, fuel=DIFF_FUEL):
    return result.run(*vec, fuel=fuel)


def run_case(case, jobs_widths=(1,), check_cache=True, timeout=None, obs=None,
             strategy_matrix=True):
    """Run every way and cross-check; returns a list of failure records
    (empty = the case agrees everywhere)."""
    timeout = DEFAULT_SPEC_TIMEOUT if timeout is None else timeout
    failures = []

    # -- way 1: ground truth --------------------------------------------------
    try:
        linked = load_program(case.source)
    except Exception as exc:
        return [_failure("interp", "load", exc)]
    expected = {}
    for vi, valuation in enumerate(case.static_variants):
        for vec in case.dyn_inputs:
            try:
                expected[(vi, vec)] = run_program(
                    linked,
                    case.goal,
                    case.full_args(valuation, vec),
                    fuel=DIFF_FUEL,
                )
            except Exception as exc:
                failures.append(
                    _failure(
                        "interp", "run", exc, variant=vi, dyn=list(vec)
                    )
                )
    if failures:
        return failures

    options = SpecOptions(timeout=timeout)

    # -- way 2: generating extensions ----------------------------------------
    try:
        gp = link_genexts(cogen_program(analyse_program(linked)))
        genext_result = specialise(
            gp, case.goal, dict(case.static_args), options, obs=obs
        )
        genext_text = pretty_program(genext_result.program)
    except Exception as exc:
        return failures + [_failure("genext", "specialise", exc)]
    for vec in case.dyn_inputs:
        try:
            got = _run_residual(genext_result, vec)
        except Exception as exc:
            failures.append(
                _failure("genext", "run", exc, variant=0, dyn=list(vec))
            )
            continue
        if got != expected[(0, vec)]:
            failures.append(
                _failure(
                    "genext",
                    "value",
                    "residual disagrees with interpreter",
                    variant=0,
                    dyn=list(vec),
                    expected=expected[(0, vec)],
                    got=got,
                )
            )

    # -- way 3: the interpretive baseline ------------------------------------
    try:
        mix_result = mix_specialise(
            case.source, case.goal, dict(case.static_args), options, obs=obs
        )
        mix_text = pretty_program(mix_result.program)
    except Exception as exc:
        return failures + [_failure("mix", "specialise", exc)]
    if mix_text != genext_text:
        failures.append(
            _failure(
                "mix",
                "bytes",
                "mix residual differs from genext residual",
                genext=genext_text,
                mix=mix_text,
            )
        )
    else:
        for vec in case.dyn_inputs:
            try:
                got = _run_residual(mix_result, vec)
            except Exception as exc:
                failures.append(
                    _failure("mix", "run", exc, variant=0, dyn=list(vec))
                )
                continue
            if got != expected[(0, vec)]:
                failures.append(
                    _failure(
                        "mix",
                        "value",
                        "mix residual disagrees with interpreter",
                        variant=0,
                        dyn=list(vec),
                        expected=expected[(0, vec)],
                        got=got,
                    )
                )

    # -- way 4: warm-cache replay --------------------------------------------
    if check_cache:
        with tempfile.TemporaryDirectory(prefix="mspec-check-") as tmp:
            copts = options.replace(cache_dir=tmp)
            try:
                cold = specialise(
                    gp, case.goal, dict(case.static_args), copts, obs=obs
                )
                warm = specialise(
                    gp, case.goal, dict(case.static_args), copts, obs=obs
                )
                cold_text = pretty_program(cold.program)
                warm_text = pretty_program(warm.program)
            except Exception as exc:
                failures.append(_failure("cache", "specialise", exc))
            else:
                if cold_text != genext_text:
                    failures.append(
                        _failure(
                            "cache",
                            "bytes",
                            "cold cached residual differs from uncached",
                        )
                    )
                if warm_text != cold_text:
                    failures.append(
                        _failure(
                            "cache",
                            "bytes",
                            "warm replay differs from cold residual",
                            cold=cold_text,
                            warm=warm_text,
                        )
                    )
                else:
                    for vec in case.dyn_inputs:
                        try:
                            got = _run_residual(warm, vec)
                        except Exception as exc:
                            failures.append(
                                _failure(
                                    "cache", "run", exc, dyn=list(vec)
                                )
                            )
                            continue
                        if got != expected[(0, vec)]:
                            failures.append(
                                _failure(
                                    "cache",
                                    "value",
                                    "warm replay disagrees with "
                                    "interpreter",
                                    variant=0,
                                    dyn=list(vec),
                                    expected=expected[(0, vec)],
                                    got=got,
                                )
                            )

    # -- way 5: the execution ladder ------------------------------------------
    from repro.backend.tiers import TierLadder

    with tempfile.TemporaryDirectory(prefix="mspec-check-") as tmp:
        ladder = TierLadder(
            gp, options=options.replace(cache_dir=tmp), obs=obs,
            program=linked,
        )
        for tier in (0, 1, 2):
            for vec in case.dyn_inputs:
                try:
                    run = ladder.call(
                        case.goal, dict(case.static_args), vec, tier=tier
                    )
                except Exception as exc:
                    failures.append(
                        _failure(
                            "tiers", "run", exc, tier=tier, dyn=list(vec)
                        )
                    )
                    continue
                if run.value != expected[(0, vec)]:
                    failures.append(
                        _failure(
                            "tiers",
                            "value",
                            "tier %d disagrees with interpreter" % tier,
                            tier=tier,
                            dyn=list(vec),
                            expected=expected[(0, vec)],
                            got=run.value,
                        )
                    )

    # -- way 6: size-change unfolding -----------------------------------------
    if strategy_matrix:
        failures.extend(
            _check_size_change(case, linked, expected, options, obs)
        )

    # -- jobs widths through the batch driver --------------------------------
    if jobs_widths:
        failures.extend(
            _check_jobs_widths(
                case, gp, genext_text, expected, jobs_widths, options, obs
            )
        )
    return failures


def _check_size_change(case, linked, expected, options, obs):
    """Differentially check size-change unfolding.

    It legitimately changes the residual, so it is value-checked
    against the interpreter instead of the baseline's bytes — and the
    genext and mix paths, which share the strategy, must still agree
    byte-for-byte."""
    from repro import compile_genexts

    way = "strategy[size-change]"
    sopts = options.replace(unfolding="size-change")
    try:
        sgp = compile_genexts(linked, sopts)
        result = specialise(
            sgp, case.goal, dict(case.static_args), sopts, obs=obs
        )
        text = pretty_program(result.program)
    except Exception as exc:
        return [_failure(way, "specialise", exc)]
    failures = []
    for vec in case.dyn_inputs:
        try:
            got = _run_residual(result, vec)
        except Exception as exc:
            failures.append(
                _failure(way, "run", exc, variant=0, dyn=list(vec))
            )
            continue
        if got != expected[(0, vec)]:
            failures.append(
                _failure(
                    way,
                    "value",
                    "strategy residual disagrees with interpreter",
                    variant=0,
                    dyn=list(vec),
                    expected=expected[(0, vec)],
                    got=got,
                )
            )
    try:
        mix_result = mix_specialise(
            case.source, case.goal, dict(case.static_args), sopts, obs=obs
        )
        mix_text = pretty_program(mix_result.program)
    except Exception as exc:
        failures.append(_failure(way, "specialise", exc, baseline="mix"))
        return failures
    if mix_text != text:
        failures.append(
            _failure(
                way,
                "bytes",
                "mix residual differs from genext residual "
                "under size-change unfolding",
                genext=text,
                mix=mix_text,
            )
        )
    return failures


def _check_jobs_widths(case, gp, genext_text, expected, widths, options, obs):
    """Specialise every static variant at every pool width; all widths
    must produce byte-identical residual programs (and correct values)."""
    failures = []
    requests = [
        {"goal": case.goal, "static_args": dict(v)}
        for v in case.static_variants
    ]
    texts_by_width = {}
    for width in widths:
        with tempfile.TemporaryDirectory(prefix="mspec-check-") as tmp:
            try:
                batch = specialise_many(
                    gp,
                    requests,
                    options.replace(cache_dir=tmp),
                    jobs=width,
                    obs=obs,
                )
            except Exception as exc:
                failures.append(
                    _failure("batch", "specialise", exc, jobs=width)
                )
                continue
            texts = []
            for i, result in enumerate(batch.results):
                if result is None:
                    failures.append(
                        _failure(
                            "batch",
                            "request",
                            batch.failures[i].message,
                            jobs=width,
                            variant=i,
                        )
                    )
                    texts.append(None)
                    continue
                texts.append(pretty_program(result.program))
                for vec in case.dyn_inputs:
                    try:
                        got = _run_residual(result, vec)
                    except Exception as exc:
                        failures.append(
                            _failure(
                                "batch",
                                "run",
                                exc,
                                jobs=width,
                                variant=i,
                                dyn=list(vec),
                            )
                        )
                        continue
                    if got != expected[(i, vec)]:
                        failures.append(
                            _failure(
                                "batch",
                                "value",
                                "batch residual disagrees with "
                                "interpreter",
                                jobs=width,
                                variant=i,
                                dyn=list(vec),
                                expected=expected[(i, vec)],
                                got=got,
                            )
                        )
            texts_by_width[width] = texts
    if len(texts_by_width) > 1:
        base_width = sorted(texts_by_width)[0]
        base = texts_by_width[base_width]
        for width in sorted(texts_by_width)[1:]:
            if texts_by_width[width] != base:
                failures.append(
                    _failure(
                        "batch",
                        "bytes",
                        "residuals differ between --jobs %d and "
                        "--jobs %d" % (base_width, width),
                    )
                )
    if texts_by_width:
        first = texts_by_width[sorted(texts_by_width)[0]]
        if first and first[0] is not None and first[0] != genext_text:
            failures.append(
                _failure(
                    "batch",
                    "bytes",
                    "batch residual for the primary static valuation "
                    "differs from the direct genext residual",
                )
            )
    return failures


# ---------------------------------------------------------------------------
# Divergence minimisation: iterative definition deletion.
# ---------------------------------------------------------------------------


def _delete_def(program, module_name, def_name):
    """``program`` with one definition removed; empty modules disappear
    and imports of vanished modules are pruned."""
    modules = []
    dropped_modules = set()
    for m in program.modules:
        if m.name != module_name:
            modules.append(m)
            continue
        defs = tuple(d for d in m.defs if d.name != def_name)
        if defs:
            modules.append(Module(m.name, m.imports, defs, m.params))
        else:
            dropped_modules.add(m.name)
    if dropped_modules:
        modules = [
            Module(
                m.name,
                tuple(i for i in m.imports if i not in dropped_modules),
                m.defs,
                m.params,
            )
            for m in modules
        ]
    return Program(tuple(modules))


def _still_fails(case, source, timeout):
    """Does the (reduced) source still diverge?  Reduction candidates
    that no longer parse / link / type-check do not count."""
    try:
        infer_program(load_program(source))
    except Exception:
        return False
    reduced = replace(case, source=source)
    try:
        return bool(
            run_case(
                reduced, jobs_widths=(), check_cache=True, timeout=timeout
            )
        )
    except Exception:
        # The harness itself crashing on the reduced case is still a
        # reproduction of *a* failure.
        return True


def minimise_case(case, timeout=None, max_rounds=8):
    """Greedy ddmin-lite: repeatedly delete single definitions while the
    failure persists; returns the minimised source (possibly the
    original)."""
    timeout = DEFAULT_SPEC_TIMEOUT if timeout is None else timeout
    source = case.source
    for _ in range(max_rounds):
        program = load_program(source).program
        progressed = False
        for m in program.modules:
            for d in m.defs:
                if d.name == case.goal:
                    continue
                candidate = pretty_program(
                    _delete_def(program, m.name, d.name)
                )
                if _still_fails(case, candidate, timeout):
                    source = candidate
                    progressed = True
                    break
            if progressed:
                break
        if not progressed:
            return source
    return source
