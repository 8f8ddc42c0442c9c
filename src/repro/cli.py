"""Command-line driver: ``mspec``.

Subcommands mirror the paper's workflow:

* ``mspec analyze DIR [--iface-dir D]`` — separate binding-time
  analysis of a directory of ``*.mod`` files: the ``build`` pipeline
  with the default cache, publishing ``*.bti`` interface files and no
  generating extensions (only out-of-date modules are re-analysed).
* ``mspec cogen DIR [-o OUT]``   — run the cogen, writing one
  ``*.genext.py`` per module.
* ``mspec build DIR [--jobs N] [--cache-dir D] [--stats]
  [--keep-going] [--timeout S] [--retries N]`` — the parallel,
  incremental pipeline: wave-scheduled separate analysis and cogen
  backed by a content-addressed artifact cache; writes ``*.bti`` and
  ``*.genext.py`` like ``analyze`` + ``cogen`` but re-does only the
  dirty cone of an edit.  ``--keep-going`` builds everything outside a
  failed module's downstream cone and reports all failures at once;
  ``--timeout``/``--retries`` supervise the workers.  Exit codes name
  the failure class: 3 module error, 4 deadline, 5 worker crash.
* ``mspec fsck DIR [--cache-dir D]`` — scan the artifact cache,
  quarantine corrupt/truncated objects (exit 6 when any were found).
* ``mspec specialise DIR GOAL [name=value...]`` — link the generating
  extensions and specialise ``GOAL`` with the given static arguments
  (unlisted parameters stay dynamic); prints the residual program or
  writes it as modules with ``-o``.  ``--cache-dir`` enables the
  persistent residual cache (repeated requests are answered from
  disk); ``--batch requests.json [--jobs N]`` specialises a whole
  batch of requests through the parallel batch driver with
  deduplication and a shared cache (default ``DIR/.mspec-cache``),
  writing per-request subdirectories with ``-o``.  (``specialize`` is
  an alias.)
* ``mspec run DIR GOAL [values...]`` — interpret a program directly.
* ``mspec show DIR``             — print schemes and annotated modules.
* ``mspec serve DIR [--socket P | --tcp H:P] [--jobs N]
  [--max-inflight N] [--queue N] [--deadline S]`` — the persistent
  specialisation daemon (see ``docs/serving.md``): loads and links
  ``DIR`` once, pre-forks a worker pool, keeps the residual cache hot,
  and answers ``repro.serve/v1`` requests over a unix socket (default
  ``DIR/.mspec-serve.sock``) or TCP until told to shut down.  Requests
  beyond the admission bounds are rejected with backpressure (client
  exit 8); an edited module triggers one controlled re-link.
* ``mspec client [--socket P | --tcp H:P] OP [GOAL] [name=value...]``
  — one request against a running daemon: ``ping`` / ``health`` /
  ``metrics`` / ``trace`` / ``specialise`` / ``shutdown``.  A
  ``specialise`` answer prints the residual program byte-identically
  to ``mspec specialise``; error codes map to the same exit codes the
  one-shot pipeline uses (3/4/5), plus 8 for rejected/draining.
* ``mspec check DIR [--fuzz N] [--seed S] [--jobs-widths 1,4]`` — the
  correctness harness (see ``docs/correctness.md``): annotation lint,
  interface fsck (committed ``*.bti`` vs re-derived schemes), and
  bounded differential fuzzing of the whole toolchain; divergences are
  minimised and written as replayable JSON repro bundles
  (``--bundle-dir``, default ``DIR/.mspec-check``).  ``mspec check
  --replay bundle.json`` re-runs one bundle.  Exit 7 when anything was
  found.
* ``mspec soak DIR --requests MIX.json [--socket P | --tcp H:P |
  --spawn] [--count N] [--duration S] [--clients N]`` — the endurance
  harness (see ``docs/robustness.md``): hammer a live daemon (or one
  spawned under supervision with ``--spawn``) with a seeded request
  mix through resilient clients, differentially checking every Nth
  response against a locally computed reference and interp ground
  truth; arm a fault plan (``--faults`` / ``MSPEC_FAULTS``) to soak
  under chaos.  Emits a ``repro.bench.soak/v1`` report (``--report``);
  exit 7 on any error-budget breach.

Observability (see ``docs/observability.md``): ``build`` and
``specialise`` accept ``--trace out.json`` (Chrome trace-event JSON,
loadable in Perfetto), ``--metrics out.json`` (metrics snapshot), and
``--profile`` (wall-clock attribution per module / residual version);
``build``, ``specialise``, and ``fsck`` accept ``--json`` to print one
machine-readable ``mspec.report/v1`` document instead of prose.

Static values are Python-literal syntax: naturals, ``true``/``false``,
and lists like ``[1,2,3]``.
"""

import argparse
import json
import sys

from repro.bt.analysis import analyse_program
from repro.genext.cogen import cogen_program
from repro.genext.engine import specialise
from repro.genext.link import link_genexts, write_genexts
from repro.interp import run_program
from repro.lang.pretty import pretty_program
from repro.modsys.program import load_program_dir
from repro.residual.emit import emit_program_dir

EXIT_CODES_HELP = """\
exit codes:
  0  success
  2  usage error (argparse)
  3  module failed to analyse/compile
  4  a module exceeded its --timeout deadline
  5  a worker process crashed
  6  fsck found (and quarantined) corrupt cache objects
  7  check found correctness problems (lint/iface/divergence findings)
  8  serve daemon rejected the request (admission queue full / draining)
"""


def _make_obs(args):
    """The Obs bundle an observability-aware subcommand asked for,
    plus the Profiler when ``--profile`` was given."""
    from repro.obs import Obs, Profiler

    enabled = bool(
        getattr(args, "trace", None) or getattr(args, "profile", False)
    )
    obs = Obs.enabled() if enabled else Obs()
    profiler = Profiler(obs.bus) if getattr(args, "profile", False) else None
    return obs, profiler


def _finish_obs(args, obs, profiler):
    """Export --trace/--metrics sinks and print the --profile report.
    Runs even when the command failed, so a crashed build still leaves
    its trace behind."""
    if getattr(args, "trace", None):
        obs.tracer.export(args.trace)
    if getattr(args, "metrics", None):
        obs.metrics.export(args.metrics)
    if profiler is not None:
        print(file=sys.stderr)
        print(profiler.report(), file=sys.stderr)


def _emit_json(command, exit_code, report, metrics=None):
    """Print the one shared ``mspec.report/v1`` document."""
    from repro.obs.schema import REPORT_SCHEMA

    doc = {
        "schema": REPORT_SCHEMA,
        "command": command,
        "exit_code": exit_code,
        "ok": exit_code == 0,
        "report": report,
    }
    if metrics is not None:
        doc["metrics"] = metrics
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    print()
    return exit_code


def _parse_value(text):
    text = text.strip()
    if text == "true":
        return True
    if text == "false":
        return False
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return ()
        return tuple(_parse_value(part) for part in inner.split(","))
    return int(text)


def _parse_bindings(pairs):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit("expected name=value, got %r" % pair)
        name, _, value = pair.partition("=")
        out[name] = _parse_value(value)
    return out


def cmd_analyze(args):
    from repro.api import BuildOptions
    from repro.bt.interface import InterfaceStore
    from repro.pipeline import BuildError, build_dir

    store = InterfaceStore(args.iface_dir or args.dir)
    options = BuildOptions(
        force_residual=frozenset(args.residual or []),
        iface_dir=store.iface_dir,
    )
    try:
        result = build_dir(args.dir, options)
    except BuildError as e:
        print(e.report.render(), file=sys.stderr)
        return e.report.exit_code
    schemes = {}
    for wave in result.waves:
        for name in wave:
            status = "analysed" if name in result.analysed else "up to date"
            print("%-20s %s" % (name, status))
            schemes.update(store.load(store.path(name)).schemes)
    for fname in sorted(schemes):
        print("  %s : %s" % (fname, schemes[fname]))
    return 0


def cmd_build(args):
    from repro.api import BuildOptions
    from repro.pipeline import BuildError, build_dir

    options = BuildOptions(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        force_residual=frozenset(args.residual or []),
        iface_dir=args.iface_dir or args.dir,
        out_dir=args.out or args.dir,
        keep_going=args.keep_going,
        timeout=args.timeout,
        retries=args.retries,
        trace_path=args.trace,
        metrics_path=args.metrics,
    )
    obs, profiler = _make_obs(args)
    try:
        # build_dir exports the trace/metrics sinks itself (also on
        # failure); _finish_obs only adds the --profile report here.
        result = build_dir(args.dir, options, obs=obs)
    except BuildError as e:
        if profiler is not None:
            print(profiler.report(), file=sys.stderr)
        if args.json:
            return _emit_json(
                "build",
                e.report.exit_code,
                e.report.as_dict(),
                metrics=obs.metrics.snapshot(),
            )
        print(e.report.render(), file=sys.stderr)
        return e.report.exit_code
    report = result.report
    if args.json:
        doc = report.as_dict()
        doc["stats"] = result.stats.as_dict()
        doc["rebuild"] = result.rebuild.as_dict()
        doc["waves"] = [list(w) for w in result.waves]
        if profiler is not None:
            doc["profile"] = profiler.as_dict()
        return _emit_json(
            "build",
            report.exit_code,
            doc,
            metrics=result.stats.metrics.snapshot(),
        )
    analysed = set(result.analysed)
    failed = {f.module for f in report.failures}
    for wave_idx, wave in enumerate(result.waves):
        for name in wave:
            if name in failed:
                status = "FAILED"
            elif name in report.skipped:
                status = "skipped (downstream of %s)" % report.skipped[name]
            elif name in analysed:
                status = "analysed"
            else:
                status = "cached"
            print("%-20s wave %-3d %s" % (name, wave_idx, status))
    if args.stats:
        print()
        print(result.stats.report())
        print(result.rebuild.render())
    if profiler is not None:
        print(file=sys.stderr)
        print(profiler.report(), file=sys.stderr)
    if not report.ok:
        print(file=sys.stderr)
        print(report.render(), file=sys.stderr)
    return report.exit_code


def cmd_fsck(args):
    import os

    from repro.pipeline import ArtifactCache, fsck_cache
    from repro.pipeline.build import DEFAULT_CACHE_DIRNAME

    cache = ArtifactCache(
        args.cache_dir or os.path.join(args.dir, DEFAULT_CACHE_DIRNAME)
    )
    report = fsck_cache(cache)
    if args.json:
        return _emit_json("fsck", report.exit_code, report.as_dict())
    print(report.render())
    return report.exit_code


def cmd_cogen(args):
    linked = load_program_dir(args.dir)
    analysis = analyse_program(
        linked, force_residual=frozenset(args.residual or [])
    )
    modules = cogen_program(analysis)
    out = args.out or args.dir
    for path in write_genexts(modules, out):
        print("wrote", path)
    return 0


def _load_batch_requests(path):
    """Parse a ``--batch`` file: a JSON list of
    ``{"goal": ..., "static_args": {...}}`` objects (or an object with
    a ``"requests"`` list).  JSON lists become object-language lists."""

    def conv(v):
        if isinstance(v, list):
            return tuple(conv(x) for x in v)
        return v

    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        doc = doc.get("requests")
    if not isinstance(doc, list):
        raise SystemExit(
            '--batch file must be a JSON list of requests, or an object '
            'with a "requests" list'
        )
    out = []
    for i, r in enumerate(doc):
        if not isinstance(r, dict) or not isinstance(r.get("goal"), str):
            raise SystemExit(
                'request #%d must be an object with a "goal" name' % i
            )
        static = {
            name: conv(v) for name, v in (r.get("static_args") or {}).items()
        }
        out.append({"goal": r["goal"], "static_args": static})
    return out


def _cmd_specialise_batch(args, gp, options, obs, profiler):
    import os

    from repro.genext.batch import specialise_many
    from repro.pipeline.faults import EXIT_ERROR, EXIT_TIMEOUT, EXIT_CRASH

    requests = _load_batch_requests(args.batch)
    cache_dir = args.cache_dir or os.path.join(args.dir, ".mspec-cache")
    options = options.replace(cache_dir=cache_dir)
    try:
        batch = specialise_many(gp, requests, options, jobs=args.jobs, obs=obs)
    finally:
        _finish_obs(args, obs, profiler)

    exit_code = 0
    kind_codes = {"error": EXIT_ERROR, "timeout": EXIT_TIMEOUT, "crash": EXIT_CRASH}
    for failure in batch.failures.values():
        exit_code = max(exit_code, kind_codes.get(failure.kind, EXIT_ERROR))

    written = {}
    if args.out:
        for i, result in enumerate(batch.results):
            if result is None:
                continue
            out_dir = os.path.join(args.out, "req%d" % i)
            written[i] = list(emit_program_dir(result.program, out_dir))

    if args.json:
        docs = []
        for i, (request, result) in enumerate(zip(requests, batch.results)):
            doc = {"goal": request["goal"], "static_args": request["static_args"]}
            if result is not None:
                doc.update(
                    ok=True,
                    entry=result.entry,
                    dynamic_params=list(result.dynamic_params),
                    modules=sorted(
                        name for _, name in result.module_names.items()
                    ),
                    program=pretty_program(result.program),
                )
            else:
                doc.update(ok=False, failure=batch.failures[i].as_dict())
            docs.append(doc)
        return _emit_json(
            "specialise",
            exit_code,
            {"batch": batch.stats, "requests": docs},
            metrics=obs.metrics.snapshot(),
        )

    for i, (request, result) in enumerate(zip(requests, batch.results)):
        static = ", ".join(
            "%s=%s" % (k, v)
            for k, v in sorted(request["static_args"].items())
        )
        head = "req%d %s(%s)" % (i, request["goal"], static)
        if result is None:
            f = batch.failures[i]
            print("%s: FAILED [%s] %s" % (head, f.kind, f.message))
            continue
        if args.out:
            print("%s: wrote %d module(s)" % (head, len(written.get(i, ()))))
        else:
            print("-- %s" % head)
            print(pretty_program(result.program), end="")
    print(
        "-- %(requests)d request(s): %(unique)d unique, %(deduped)d "
        "deduplicated, %(failed)d failed (jobs=%(jobs)d)" % batch.stats,
        file=sys.stderr,
    )
    return exit_code


def cmd_specialise(args):
    from repro.api import SpecOptions

    linked = load_program_dir(args.dir)
    analysis = analyse_program(
        linked, force_residual=frozenset(args.residual or [])
    )
    gp = link_genexts(cogen_program(analysis))
    options = SpecOptions(
        strategy=args.strategy,
        timeout=args.timeout,
        cache_dir=args.cache_dir,
    )
    obs, profiler = _make_obs(args)
    if args.batch:
        if args.goal is not None or args.bindings:
            raise SystemExit(
                "--batch replaces the GOAL and name=value arguments"
            )
        return _cmd_specialise_batch(args, gp, options, obs, profiler)
    if args.goal is None:
        raise SystemExit("a GOAL function is required (or use --batch)")
    static = _parse_bindings(args.bindings)
    try:
        result = specialise(gp, args.goal, static, options, obs=obs)
    finally:
        _finish_obs(args, obs, profiler)
    if args.optimise:
        from repro.modsys.program import link_program
        from repro.residual.optimise import optimise_program

        optimised = optimise_program(result.program)
        result.program = optimised
        result.linked = link_program(optimised)
    if args.json:
        doc = {
            "entry": result.entry,
            "dynamic_params": list(result.dynamic_params),
            "stats": dict(result.stats),
            "modules": sorted(
                name for _, name in result.module_names.items()
            ),
            "program": pretty_program(result.program),
        }
        if profiler is not None:
            doc["profile"] = profiler.as_dict()
        if args.out:
            for path in emit_program_dir(result.program, args.out):
                pass
        return _emit_json(
            "specialise", 0, doc, metrics=obs.metrics.snapshot()
        )
    if args.out:
        for path in emit_program_dir(result.program, args.out):
            print("wrote", path)
    else:
        print(pretty_program(result.program), end="")
    print(
        "-- entry %s(%s); %d specialisation(s), %d unfold(s)"
        % (
            result.entry,
            ", ".join(result.dynamic_params),
            result.stats["specialisations"],
            result.stats["unfolds"],
        ),
        file=sys.stderr,
    )
    return 0


def _parse_jobs_widths(text):
    try:
        widths = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise SystemExit("--jobs-widths must be a comma-separated list "
                         "of integers, got %r" % text)
    if not widths or any(w < 1 for w in widths):
        raise SystemExit("--jobs-widths needs at least one width >= 1")
    return widths


def cmd_check(args):
    from repro.check import EXIT_CHECK_FAILED, run_check
    from repro.check.driver import replay

    jobs_widths = _parse_jobs_widths(args.jobs_widths)
    obs, profiler = _make_obs(args)

    if args.replay:
        try:
            try:
                case, failures = replay(
                    args.replay,
                    jobs_widths=jobs_widths,
                    timeout=args.timeout,
                    obs=obs,
                )
            except (OSError, ValueError) as exc:
                raise SystemExit("mspec check --replay: %s" % exc)
        finally:
            _finish_obs(args, obs, profiler)
        exit_code = EXIT_CHECK_FAILED if failures else 0
        if args.json:
            return _emit_json(
                "check",
                exit_code,
                {
                    "replay": args.replay,
                    "seed": case.seed,
                    "reproduces": bool(failures),
                    "failures": failures,
                },
                metrics=obs.metrics.snapshot(),
            )
        if failures:
            print("%s: still diverges (%d failure(s))"
                  % (args.replay, len(failures)))
            for f in failures:
                print("  [%s/%s] %s"
                      % (f.get("way"), f.get("kind"), f.get("message")))
        else:
            print("%s: no longer reproduces" % args.replay)
        return exit_code

    if not args.dir:
        raise SystemExit("mspec check: DIR is required (or use --replay)")
    try:
        report = run_check(
            args.dir,
            fuzz=args.fuzz,
            seed=args.seed,
            jobs_widths=jobs_widths,
            bundle_dir=args.bundle_dir,
            iface_dir=args.iface_dir,
            force_residual=frozenset(args.residual or []),
            timeout=args.timeout,
            minimise=not args.no_minimise,
            obs=obs,
            strategy_matrix=not args.no_strategy_matrix,
        )
    finally:
        _finish_obs(args, obs, profiler)
    if args.json:
        return _emit_json(
            "check",
            report.exit_code,
            report.as_dict(),
            metrics=obs.metrics.snapshot(),
        )
    print(report.render())
    return report.exit_code


def _parse_tcp(text):
    host, _, port = text.rpartition(":")
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError:
        raise SystemExit("--tcp expects HOST:PORT, got %r" % text)


def cmd_serve(args):
    from repro.api import SpecOptions
    from repro.serve import ServeConfig, serve_forever

    config = ServeConfig(
        dir=args.dir,
        socket_path=args.socket,
        tcp=_parse_tcp(args.tcp) if args.tcp else None,
        jobs=args.jobs,
        max_inflight=args.max_inflight,
        queue=args.queue,
        deadline=args.deadline,
        drain_timeout=args.drain_timeout,
        cache_dir=args.cache_dir,
        options=SpecOptions(
            strategy=args.strategy,
            force_residual=frozenset(args.residual or []),
        ),
        retries=args.retries,
        watch_source=not args.no_watch,
        warm_pool=not args.no_warm,
        metrics_path=args.metrics,
        max_requests_per_worker=args.max_requests_per_worker,
        max_worker_rss_mb=args.max_worker_rss_mb,
        tier_hot=args.tier_hot,
    )

    if args.supervise:
        from repro.serve.supervise import supervise

        def on_event(event, info):
            print(
                "mspec serve[supervise]: %s %s"
                % (event, " ".join("%s=%s" % kv for kv in sorted(info.items()))),
                file=sys.stderr,
            )

        print(
            "mspec serve: supervising %s at %s (max restarts: %s)"
            % (
                args.dir,
                config.address,
                "unbounded" if args.max_restarts is None else args.max_restarts,
            ),
            file=sys.stderr,
        )
        return supervise(
            config, max_restarts=args.max_restarts, on_event=on_event
        )

    def announce(server, transport):
        import os

        print(
            "mspec serve: %s at %s (pid %d, jobs %d, max-inflight %d, "
            "queue %d)"
            % (
                args.dir,
                config.address,
                os.getpid(),
                config.jobs,
                config.max_inflight,
                config.queue,
            ),
            file=sys.stderr,
        )

    return serve_forever(config, ready=announce)


def cmd_client(args):
    from repro.serve import ServeClient, ServeClientError, exit_code_for

    if (args.socket is None) == (args.tcp is None):
        raise SystemExit("give exactly one of --socket or --tcp")
    tcp = _parse_tcp(args.tcp) if args.tcp else None
    dynamic = []
    if args.op == "run":
        # name=value entries are static; bare values are dynamic.
        static = _parse_bindings([b for b in args.bindings if "=" in b])
        dynamic = [_parse_value(b) for b in args.bindings if "=" not in b]
    else:
        static = _parse_bindings(args.bindings)
    if static and args.op not in ("specialise", "run"):
        raise SystemExit("name=value arguments only apply to specialise/run")
    if args.op in ("specialise", "run") and not args.goal:
        raise SystemExit("%s needs a GOAL function name" % args.op)
    if args.op not in ("specialise", "run") and args.goal:
        raise SystemExit("%s takes no GOAL argument" % args.op)

    try:
        if args.wait:
            client = ServeClient.wait_ready(args.socket, tcp, timeout=args.wait)
        else:
            client = ServeClient.connect(args.socket, tcp)
    except ServeClientError as exc:
        print("mspec client: %s" % exc, file=sys.stderr)
        return 3
    try:
        if args.op == "specialise":
            response = client.specialise(
                args.goal, static, deadline=args.deadline
            )
        elif args.op == "run":
            response = client.run(
                args.goal, static, dynamic, deadline=args.deadline
            )
        else:
            response = client.request({"op": args.op})
    except ServeClientError as exc:
        print("mspec client: %s" % exc, file=sys.stderr)
        return 3
    finally:
        client.close()

    exit_code = exit_code_for(response)
    if args.json:
        json.dump(response, sys.stdout, indent=2, sort_keys=True)
        print()
        return exit_code
    if not response.get("ok"):
        error = response.get("error") or {}
        print(
            "mspec client: %s [%s] %s"
            % (args.op, error.get("code"), error.get("message")),
            file=sys.stderr,
        )
        return exit_code
    if args.op == "specialise":
        # Byte-identical to `mspec specialise DIR GOAL ...` on stdout.
        result = response["result"]
        print(result["program"], end="")
        print(
            "-- served %s in %.6fs; entry %s(%s)"
            % (
                response.get("served"),
                response.get("seconds", 0.0),
                result["entry"],
                ", ".join(result["dynamic_params"]),
            ),
            file=sys.stderr,
        )
    elif args.op == "run":
        from repro.serve.protocol import value_from_json

        print(value_from_json(response.get("value")))
        print(
            "-- tier %s (%s) in %.6fs"
            % (
                response.get("tier"),
                response.get("origin"),
                response.get("seconds", 0.0),
            ),
            file=sys.stderr,
        )
    elif args.op == "ping":
        print("pong")
    else:
        # health/metrics/trace are data: print the meat as JSON.
        body = {
            k: v
            for k, v in response.items()
            if k not in ("schema", "op", "ok", "id")
        }
        json.dump(body, sys.stdout, indent=2, sort_keys=True)
        print()
    return exit_code


def cmd_soak(args):
    import contextlib
    import os

    from repro.api import SpecOptions
    from repro.pipeline.faultinject import PLAN_ENV
    from repro.soak import SoakConfig, load_request_mix, run_soak

    if args.spawn and (args.socket or args.tcp):
        raise SystemExit("--spawn starts its own daemon; drop --socket/--tcp")
    if not args.spawn and (args.socket is None) == (args.tcp is None):
        raise SystemExit("give exactly one of --socket, --tcp, or --spawn")
    try:
        mix = load_request_mix(args.requests)
    except (OSError, ValueError) as exc:
        raise SystemExit("mspec soak: %s" % exc)
    if args.faults:
        os.environ[PLAN_ENV] = os.path.abspath(args.faults)

    options = SpecOptions(
        strategy=args.strategy,
        force_residual=frozenset(args.residual or []),
    )
    stack = contextlib.ExitStack()
    with stack:
        if args.spawn:
            from repro.serve import ServeConfig
            from repro.serve.supervise import supervised_daemon

            serve_config = ServeConfig(
                dir=args.dir,
                jobs=args.jobs,
                options=options,
                max_requests_per_worker=args.max_requests_per_worker,
            )
            stack.enter_context(supervised_daemon(serve_config))
            socket_path, tcp = serve_config.socket_path, None
            print(
                "mspec soak: spawned supervised daemon at %s"
                % serve_config.address,
                file=sys.stderr,
            )
        else:
            socket_path = args.socket
            tcp = _parse_tcp(args.tcp) if args.tcp else None

        config = SoakConfig(
            dir=args.dir,
            requests=mix,
            socket_path=socket_path,
            tcp=tcp,
            max_requests=args.count,
            duration=args.duration,
            clients=args.clients,
            check_every=args.check_every,
            batch_every=args.batch_every,
            batch_jobs=args.batch_jobs,
            seed=args.seed,
            request_timeout=args.request_timeout,
            retry_attempts=args.retry_attempts,
            max_client_errors=args.max_client_errors,
            max_divergences=args.max_divergences,
            options=options,
            report_path=args.report,
        )
        obs, profiler = _make_obs(args)
        try:
            exit_code, report = run_soak(config, obs=obs)
        finally:
            _finish_obs(args, obs, profiler)

    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
        return exit_code
    requests = report["requests"]
    checks = report["checks"]
    print(
        "mspec soak: %d sent, %d ok (%d warm / %d cold), "
        "%d retries, %d reconnects, %d client errors, %d skipped"
        % (
            requests["sent"], requests["ok"], requests["warm"],
            requests["cold"], requests["retries"], requests["reconnects"],
            requests["client_errors"], requests["skipped"],
        )
    )
    if requests["batch"]:
        print(
            "mspec soak: %d via batch driver (%d failures)"
            % (requests["batch"], requests["batch_failures"])
        )
    print(
        "mspec soak: %d differential checks, %d divergences; "
        "faults planned %d, injected %d; %.1fs"
        % (
            checks["performed"], checks["divergences"],
            report["faults"]["planned"], report["faults"]["injected"],
            report["seconds"],
        )
    )
    for detail in report.get("details", []):
        print("  - %s" % json.dumps(detail, sort_keys=True))
    print(
        "mspec soak: %s"
        % ("error budget held" if report["ok"] else "ERROR BUDGET BREACHED")
    )
    return exit_code


def cmd_run(args):
    linked = load_program_dir(args.dir)
    values = [_parse_value(v) for v in args.values]
    static = _parse_bindings(args.static or [])

    if args.backend == "interp":
        if static:
            raise SystemExit(
                "mspec run: --static needs --backend tiers or compiled"
            )
        result = None
        for _ in range(args.repeat):
            result = run_program(linked, args.goal, values)
        print(result)
        return 0

    from repro.api import SpecOptions
    from repro.backend.tiers import TierLadder, TierPolicy

    options = SpecOptions(
        force_residual=frozenset(args.residual or []),
        cache_dir=args.cache_dir,
        tier_policy=TierPolicy(
            warm_after=args.tier_warm, hot_after=args.tier_hot
        ),
    )
    analysis = analyse_program(linked, force_residual=options.force_residual)
    gp = link_genexts(cogen_program(analysis))
    ladder = TierLadder(gp, options=options, program=linked)
    forced = 2 if args.backend == "compiled" else None
    run = None
    for _ in range(args.repeat):
        run = ladder.call(args.goal, static, tuple(values), tier=forced)
    print(run.value)
    print(
        "-- tier %d (%s), %d call(s)" % (run.tier, run.origin, args.repeat),
        file=sys.stderr,
    )
    return 0


def cmd_explain(args):
    from repro.bt.explain import explain_function, to_dot

    linked = load_program_dir(args.dir)
    report = explain_function(
        linked, args.goal, force_residual=frozenset(args.residual or [])
    )
    if args.dot:
        print(to_dot(report))
        return 0
    print("== result ==")
    print(report.why_result())
    print()
    print("== unfold/residualise ==")
    print(report.why_unfold())
    return 0


def cmd_show(args):
    linked = load_program_dir(args.dir)
    analysis = analyse_program(
        linked, force_residual=frozenset(args.residual or [])
    )
    from repro.anno.pretty import pretty_aprogram

    for fname in sorted(analysis.schemes):
        print("%s : %s" % (fname, analysis.schemes[fname]))
    print()
    print(pretty_aprogram(analysis.annotated), end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mspec",
        description="Module-sensitive program specialisation",
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("dir", help="directory of *.mod module files")
        p.add_argument(
            "--residual",
            action="append",
            metavar="FUNC",
            help="force FUNC to be residualised (repeatable)",
        )

    def observability(p, sinks=True):
        if sinks:
            p.add_argument(
                "--trace", metavar="FILE",
                help="write a Chrome trace-event JSON timeline to FILE "
                "(open in https://ui.perfetto.dev)",
            )
            p.add_argument(
                "--metrics", metavar="FILE",
                help="write the metrics snapshot (repro.obs.metrics/v1 "
                "JSON) to FILE",
            )
            p.add_argument(
                "--profile", action="store_true",
                help="print wall-clock attribution per module / residual "
                "version to stderr",
            )
        p.add_argument(
            "--json", action="store_true",
            help="print one machine-readable mspec.report/v1 JSON "
            "document on stdout instead of prose",
        )

    p = sub.add_parser("analyze", help="separate binding-time analysis")
    common(p)
    p.add_argument("--iface-dir", help="where to publish *.bti files")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "build", help="parallel incremental analyse + cogen (cached)"
    )
    common(p)
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="process-pool width for per-wave BTA+cogen (default 1: serial)",
    )
    p.add_argument(
        "--cache-dir",
        help="content-addressed artifact cache (default DIR/.mspec-cache)",
    )
    p.add_argument("--iface-dir", help="where to publish *.bti files")
    p.add_argument("-o", "--out", help="where to publish *.genext.py files")
    p.add_argument(
        "--stats", action="store_true",
        help="print per-stage timings, wave widths, and cache counters",
    )
    p.add_argument(
        "-k", "--keep-going", action="store_true",
        help="on a module failure, still build everything outside its "
        "downstream cone and report all failures at the end",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-module wall-clock deadline; a job past it is killed "
        "(and retried, if --retries allows)",
    )
    p.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry a failed/hung module up to N times with capped "
        "exponential backoff (default 0)",
    )
    observability(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser(
        "fsck", help="scan the artifact cache, quarantine corrupt objects"
    )
    p.add_argument("dir", help="directory of *.mod module files")
    p.add_argument(
        "--cache-dir",
        help="content-addressed artifact cache (default DIR/.mspec-cache)",
    )
    observability(p, sinks=False)
    p.set_defaults(fn=cmd_fsck)

    p = sub.add_parser("cogen", help="generate generating extensions")
    common(p)
    p.add_argument("-o", "--out", help="output directory for *.genext.py")
    p.set_defaults(fn=cmd_cogen)

    p = sub.add_parser(
        "specialise",
        aliases=["specialize"],
        help="specialise a goal function (alias: specialize)",
    )
    common(p)
    p.add_argument(
        "goal", nargs="?", default=None,
        help="function to specialise (omit with --batch)",
    )
    p.add_argument("bindings", nargs="*", help="static arguments: name=value")
    p.add_argument("-o", "--out", help="write residual modules here")
    p.add_argument(
        "--strategy", choices=("bfs", "dfs"), default="bfs",
        help="pending-list discipline (default bfs)",
    )
    p.add_argument(
        "--batch", metavar="FILE",
        help="specialise a JSON batch of requests "
        '([{"goal": ..., "static_args": {...}}]) instead of one GOAL',
    )
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="process-pool width for --batch (default 1: serial)",
    )
    p.add_argument(
        "--cache-dir", metavar="DIR",
        help="persistent residual cache; repeated requests are answered "
        "from disk (default for --batch: DIR/.mspec-cache, else off)",
    )
    p.add_argument(
        "--optimise", action="store_true",
        help="run the residual-program optimiser (CSE + folding)",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline for the specialisation run",
    )
    observability(p)
    p.set_defaults(fn=cmd_specialise)

    p = sub.add_parser(
        "check",
        help="correctness harness: lint + interface fsck + differential "
        "fuzzing (exit 7 on findings)",
    )
    p.add_argument(
        "dir", nargs="?", default=None,
        help="directory of *.mod module files (omit with --replay)",
    )
    p.add_argument(
        "--residual",
        action="append",
        metavar="FUNC",
        help="force FUNC to be residualised (repeatable)",
    )
    p.add_argument(
        "--fuzz", type=int, default=10, metavar="N",
        help="generated programs to put through the differential oracle "
        "(default 10; 0 disables the pass)",
    )
    p.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="base generator seed (program i uses seed S+i; default 0)",
    )
    p.add_argument(
        "--jobs-widths", default="1", metavar="W1,W2,...",
        help="batch pool widths whose residuals must be byte-identical "
        "(default 1)",
    )
    p.add_argument(
        "--bundle-dir", metavar="DIR",
        help="where to write repro bundles (default DIR/.mspec-check)",
    )
    p.add_argument("--iface-dir", help="where the *.bti files live")
    p.add_argument(
        "--replay", metavar="FILE",
        help="re-run one repro bundle instead of checking a directory",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline per specialisation run",
    )
    p.add_argument(
        "--no-minimise", action="store_true",
        help="skip minimising divergent programs before bundling",
    )
    p.add_argument(
        "--no-strategy-matrix", action="store_true",
        help="skip the size-change unfolding strategy in lint and "
        "fuzzing",
    )
    observability(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "serve",
        help="run the persistent specialisation daemon (repro.serve/v1)",
    )
    common(p)
    p.add_argument(
        "--socket", metavar="PATH",
        help="unix socket to listen on (default DIR/.mspec-serve.sock)",
    )
    p.add_argument(
        "--tcp", metavar="HOST:PORT",
        help="listen on TCP instead of a unix socket",
    )
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker-pool width, pre-forked at startup (default 1)",
    )
    p.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="concurrent specialisations admitted (default: --jobs)",
    )
    p.add_argument(
        "--queue", type=int, default=None, metavar="N",
        help="requests allowed to wait beyond --max-inflight before "
        "backpressure rejection (default: 4x max-inflight)",
    )
    p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request deadline, queue wait included "
        "(a request may narrow it, never widen it)",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="how long a graceful shutdown waits for in-flight requests "
        "(default 30)",
    )
    p.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry a failed/hung specialisation up to N times (default 0)",
    )
    p.add_argument(
        "--cache-dir", metavar="DIR",
        help="persistent residual cache (default DIR/.mspec-cache)",
    )
    p.add_argument(
        "--strategy", choices=("bfs", "dfs"), default="bfs",
        help="pending-list discipline (default bfs)",
    )
    p.add_argument(
        "--tier-hot", type=int, default=None, metavar="N",
        help="compile + persist a goal's residual after its N-th request "
        "(arms the execution ladder for `run` requests and warm-hit "
        "promotion; default: run requests only, default thresholds)",
    )
    p.add_argument(
        "--no-warm", action="store_true",
        help="skip pre-forking the worker pool at startup",
    )
    p.add_argument(
        "--no-watch", action="store_true",
        help="do not watch DIR for source changes (skip the per-request "
        "digest check)",
    )
    p.add_argument(
        "--metrics", metavar="FILE",
        help="write the final metrics snapshot to FILE on shutdown "
        "(live metrics are always available via `mspec client metrics`)",
    )
    p.add_argument(
        "--max-requests-per-worker", type=int, default=None, metavar="N",
        help="gracefully recycle the worker pool after jobs*N cold "
        "requests (leaky workers are retired, not kept)",
    )
    p.add_argument(
        "--max-worker-rss-mb", type=float, default=None, metavar="MB",
        help="recycle the pool when any worker's resident set exceeds "
        "MB megabytes (Linux /proc check)",
    )
    p.add_argument(
        "--supervise", action="store_true",
        help="run the daemon in a supervised child process, restarting "
        "it with backoff if it crashes (exit 0 stops supervision)",
    )
    p.add_argument(
        "--max-restarts", type=int, default=None, metavar="N",
        help="give up after N crash restarts (default: restart forever)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "client",
        help="send one request to a running serve daemon",
    )
    p.add_argument(
        "op",
        choices=("ping", "health", "metrics", "trace", "specialise",
                 "run", "shutdown"),
        help="the protocol operation",
    )
    p.add_argument(
        "goal", nargs="?", default=None,
        help="function to specialise or run (specialise/run only)",
    )
    p.add_argument(
        "bindings", nargs="*",
        help="static arguments: name=value; for run, bare values are "
        "dynamic arguments",
    )
    p.add_argument("--socket", metavar="PATH", help="daemon's unix socket")
    p.add_argument("--tcp", metavar="HOST:PORT", help="daemon's TCP address")
    p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request deadline (queue wait included)",
    )
    p.add_argument(
        "--wait", type=float, default=None, metavar="SECONDS",
        help="wait up to SECONDS for the daemon to become ready "
        "(for scripts that just started it)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the raw repro.serve/v1 response document",
    )
    p.set_defaults(fn=cmd_client)

    p = sub.add_parser(
        "soak",
        help="endurance-test a live serve daemon under an armed fault plan",
    )
    common(p)
    p.add_argument(
        "--requests", required=True, metavar="MIX.json",
        help="JSON request mix: [{goal, static_args, dyn_inputs?}, ...]",
    )
    p.add_argument("--socket", metavar="PATH", help="daemon's unix socket")
    p.add_argument("--tcp", metavar="HOST:PORT", help="daemon's TCP address")
    p.add_argument(
        "--spawn", action="store_true",
        help="spawn a supervised daemon for the run (and drain it after)",
    )
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker-pool width for a --spawn'ed daemon (default 1)",
    )
    p.add_argument(
        "--count", type=int, default=200, metavar="N",
        help="requests to schedule (default 200)",
    )
    p.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="wall-clock bound; scheduled requests past it are skipped",
    )
    p.add_argument(
        "--clients", type=int, default=2, metavar="N",
        help="concurrent resilient clients (default 2)",
    )
    p.add_argument(
        "--check-every", type=int, default=5, metavar="N",
        help="differentially check every Nth response (default 5)",
    )
    p.add_argument(
        "--batch-every", type=int, default=0, metavar="N",
        help="route every Nth request through the parallel batch driver "
        "instead of the daemon (default 0 = daemon only)",
    )
    p.add_argument(
        "--batch-jobs", type=int, default=2, metavar="N",
        help="pool width for the batch-driver lane (default 2)",
    )
    p.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="request-schedule seed (default 0)",
    )
    p.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request wire deadline (default 30)",
    )
    p.add_argument(
        "--retry-attempts", type=int, default=6, metavar="N",
        help="total tries per idempotent request (default 6)",
    )
    p.add_argument(
        "--max-client-errors", type=int, default=0, metavar="N",
        help="error budget: client-visible failures allowed (default 0)",
    )
    p.add_argument(
        "--max-divergences", type=int, default=0, metavar="N",
        help="error budget: differential divergences allowed (default 0)",
    )
    p.add_argument(
        "--max-requests-per-worker", type=int, default=None, metavar="N",
        help="worker recycling for a --spawn'ed daemon",
    )
    p.add_argument(
        "--faults", metavar="PLAN.json",
        help="arm this fault plan (sets MSPEC_FAULTS for the run, "
        "including a --spawn'ed daemon)",
    )
    p.add_argument(
        "--report", metavar="FILE",
        help="write the repro.bench.soak/v1 report to FILE",
    )
    p.add_argument(
        "--strategy", choices=("bfs", "dfs"), default="bfs",
        help="pending-list discipline (must match the daemon's; default bfs)",
    )
    observability(p)
    p.set_defaults(fn=cmd_soak)

    p = sub.add_parser(
        "run", help="execute a program (interpreted or via the tier ladder)"
    )
    common(p)
    p.add_argument("goal", help="function to run")
    p.add_argument("values", nargs="*", help="dynamic argument values")
    p.add_argument(
        "--backend", choices=("interp", "tiers", "compiled"),
        default="interp",
        help="interp: the general interpreter (default); tiers: the "
        "hotness-promoted execution ladder; compiled: force tier 2 "
        "(emit + compile the residual to Python)",
    )
    p.add_argument(
        "--static", action="append", metavar="NAME=VALUE",
        help="static argument for the tiers/compiled backends "
        "(repeatable); remaining values are dynamic",
    )
    p.add_argument(
        "--cache-dir", metavar="DIR",
        help="persistent store for residuals and tier-2 artifacts",
    )
    p.add_argument(
        "--tier-warm", type=int, default=1, metavar="N",
        help="calls before a goal leaves the general interpreter "
        "(default 1)",
    )
    p.add_argument(
        "--tier-hot", type=int, default=3, metavar="N",
        help="calls before a goal is compiled and persisted (default 3)",
    )
    p.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="call the goal N times (exercises tier promotion)",
    )
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("show", help="print schemes and annotated modules")
    common(p)
    p.set_defaults(fn=cmd_show)

    p = sub.add_parser(
        "explain", help="explain a function's binding-time annotations"
    )
    common(p)
    p.add_argument("goal", help="function to explain")
    p.add_argument(
        "--dot", action="store_true",
        help="emit the constraint graph as Graphviz dot",
    )
    p.set_defaults(fn=cmd_explain)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
