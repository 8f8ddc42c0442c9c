"""The serve daemon with the suite's layer spans, for traced runs.

    python3 benchmarks/suite/traced_serve.py DIR --socket PATH \\
        --jobs 1 --cache-dir CACHE --trace-out FILE

Runs the same daemon ``mspec serve DIR --socket PATH --jobs 1
--cache-dir CACHE`` runs, with the wrappers of ``layers.py`` installed
on the daemon's tracer, and writes every span (a Chrome trace) to
``FILE`` when the daemon shuts down.  ``run.py --trace 1`` starts it for
the serve-mix workload.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"), HERE]

import layers  # noqa: E402
from repro.obs import EventBus, MetricsRegistry, Obs, Tracer  # noqa: E402
from repro.serve.daemon import ServeConfig, serve_forever  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir")
    parser.add_argument("--socket", required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)
    # The daemon trims its tracer after every request; a buffer larger
    # than any run keeps every span until shutdown.
    config = ServeConfig(
        dir=args.dir,
        socket_path=args.socket,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        trace_buffer=10 ** 6,
    )
    bus = EventBus()
    tracer = Tracer(bus=bus)
    obs = Obs(tracer=tracer, metrics=MetricsRegistry(bus=bus), bus=bus)
    with layers.installed(tracer):
        try:
            return serve_forever(config, obs=obs)
        finally:
            tracer.export(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
