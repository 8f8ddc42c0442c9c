"""The persistent specialisation service: ``mspec serve`` / ``mspec client``.

The CLI pays the whole pipeline — parse, analyse, cogen, link, pool
fork — on every invocation, for requests that cost microseconds once the
caches are warm.  This package keeps everything resident instead:

* :mod:`.daemon` — the long-lived server: the module directory loaded
  and linked **once**, a pre-forked :class:`~repro.pipeline.pool.WorkerPool`
  whose workers inherit the linked program, the persistent residual
  cache and the execution ladder hot across requests, an
  admission/backpressure layer, per-request deadlines, live
  observability, graceful drain, and digest-based re-link when the
  source directory changes.
* :mod:`.client` — :class:`~repro.serve.client.ServeClient`, the Python
  client (and the engine behind ``mspec client``): per-request wire
  deadlines (:class:`~repro.serve.client.ServeTimeout`), transparent
  reconnect with capped-backoff retries for idempotent ops
  (:class:`~repro.serve.client.RetryPolicy`), and a closed/open/half-open
  :class:`~repro.serve.client.CircuitBreaker`.
* :mod:`.supervise` — ``mspec serve --supervise``: restart a crashed
  daemon process with backoff; stale sockets are reclaimed and the
  atomic residual store makes recovery crash-consistent.
* :mod:`.protocol` — the ``repro.serve/v1`` newline-delimited JSON wire
  format and its error-code → exit-code contract.

See ``docs/serving.md`` for the protocol reference, the daemon
lifecycle, and the failure-mode matrix.
"""

from repro.serve.client import (
    CircuitBreaker,
    CircuitOpen,
    RetryPolicy,
    ServeClient,
    ServeClientError,
    ServeTimeout,
)
from repro.serve.daemon import ServeConfig, SpecServer, serve_forever
from repro.serve.protocol import (
    EXIT_REJECTED,
    OPS,
    SERVE_SCHEMA,
    ProtocolError,
    exit_code_for,
)
from repro.serve.supervise import Supervisor, supervise

__all__ = [
    "CircuitBreaker",
    "CircuitOpen",
    "EXIT_REJECTED",
    "OPS",
    "ProtocolError",
    "RetryPolicy",
    "SERVE_SCHEMA",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "ServeTimeout",
    "SpecServer",
    "Supervisor",
    "serve_forever",
    "supervise",
    "exit_code_for",
]
