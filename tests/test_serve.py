"""The serve daemon: protocol, request brain, sockets, lifecycle.

The load-bearing property mirrors the batch driver's: the daemon is
pure performance, never semantics — every answer's residual program is
byte-identical to what a one-shot ``specialise`` produces for the same
request, warm or cold, at any concurrency.  Around that: the
``repro.serve/v1`` wire contract, the admission/backpressure layer,
per-request deadlines that kill hung workers, source-change re-links,
coalescing of identical in-flight requests, graceful drain, and both
transports.
"""

import json
import os
import threading
import time

import pytest

import repro
from repro.api import SpecOptions
from repro.obs.schema import validate_metrics, validate_trace
from repro.serve import (
    ServeClient,
    ServeClientError,
    ServeConfig,
    SpecServer,
    protocol,
)
from repro.serve.daemon import make_transport, serve_forever

POWER = """\
module Power where

power n x = if n == 1 then x else x * power (n - 1) x

module Sum where
import Power

sumpow n x y = power n x + power n y
"""

# Specialising `spin` w.r.t. static `n` never terminates: the deadline
# path's workload.
SPIN = """\
module Spin where

spin n x = spin (n + 1) x
"""


def _write_modules(path, source=POWER):
    """Split a multi-module source into the one-file-per-module layout
    ``load_program_dir`` expects."""
    os.makedirs(str(path), exist_ok=True)
    current, name = [], None
    chunks = []
    for line in source.splitlines(keepends=True):
        if line.startswith("module "):
            if name:
                chunks.append((name, "".join(current)))
            name = line.split()[1]
            current = [line]
        else:
            current.append(line)
    chunks.append((name, "".join(current)))
    for name, text in chunks:
        with open(os.path.join(str(path), name + ".mod"), "w") as f:
            f.write(text)


@pytest.fixture
def moddir(tmp_path):
    d = tmp_path / "modules"
    _write_modules(d)
    return str(d)


def _server(moddir, **overrides):
    kw = dict(dir=moddir, jobs=1, warm_pool=False)
    kw.update(overrides)
    return SpecServer(ServeConfig(**kw))


def _specialise(server, goal, static, **extra):
    doc = {"op": "specialise", "goal": goal, "static_args": static}
    doc.update(extra)
    return server.handle_request(doc)


# ---------------------------------------------------------------------------
# Protocol.
# ---------------------------------------------------------------------------


def test_parse_request_rejects_garbage():
    for line, fragment in [
        (b"\xff\xfe", "UTF-8"),
        (b"not json", "not JSON"),
        (b"[1,2]", "JSON object"),
        (b'{"op":"dance"}', "op must be one of"),
        (b'{"op":"specialise"}', "goal"),
        (b'{"op":"specialise","goal":""}', "goal"),
        (b'{"op":"specialise","goal":"f","static_args":[1]}', "static_args"),
        (b'{"op":"specialise","goal":"f","deadline":0}', "deadline"),
        (b'{"op":"specialise","goal":"f","deadline":true}', "deadline"),
    ]:
        with pytest.raises(protocol.ProtocolError, match=fragment):
            protocol.parse_request(line)


def test_parse_request_converts_static_lists_to_tuples():
    doc = protocol.parse_request(
        b'{"op":"specialise","goal":"run",'
        b'"static_args":{"prog":[["pair",1,2],["pair",0,3]]}}'
    )
    assert doc["static_args"]["prog"] == (("pair", 1, 2), ("pair", 0, 3))


def test_encode_decode_roundtrip():
    doc = protocol.ok_response("ping", request_id="r1", extra=3)
    line = protocol.encode(doc)
    assert line.endswith(b"\n")
    assert protocol.decode_line(line) == doc


def test_exit_codes_cover_the_documented_contract():
    assert protocol.exit_code_for(protocol.ok_response("specialise")) == 0
    for code, exit_code in [
        (protocol.ERR_BAD_REQUEST, 3),
        (protocol.ERR_ERROR, 3),
        (protocol.ERR_DEADLINE, 4),
        (protocol.ERR_CRASH, 5),
        (protocol.ERR_REJECTED, 8),
        (protocol.ERR_SHUTTING_DOWN, 8),
    ]:
        response = protocol.error_response("specialise", code, "boom")
        assert protocol.exit_code_for(response) == exit_code


def test_error_code_for_kind_mirrors_module_failures():
    assert protocol.error_code_for_kind("timeout") == protocol.ERR_DEADLINE
    assert protocol.error_code_for_kind("crash") == protocol.ERR_CRASH
    assert protocol.error_code_for_kind("error") == protocol.ERR_ERROR


# ---------------------------------------------------------------------------
# The request brain (no sockets).
# ---------------------------------------------------------------------------


def test_ping_health_metrics_trace(moddir):
    server = _server(moddir)
    try:
        assert server.handle_request({"op": "ping"})["ok"]

        health = server.handle_request({"op": "health"})
        assert health["ok"] and health["pid"] == os.getpid()
        assert health["inflight"] == 0 and not health["draining"]
        assert health["fingerprint"] == server.state.fingerprint

        metrics = server.handle_request({"op": "metrics"})["metrics"]
        assert validate_metrics(metrics) == []

        trace = server.handle_request({"op": "trace"})["trace"]
        assert validate_trace(trace) == []
        # The startup link span is already in the ring.
        assert any(
            e["name"] == "serve:link" for e in trace["traceEvents"]
        )
    finally:
        server.close()


def test_unknown_op_is_a_bad_request(moddir):
    server = _server(moddir)
    try:
        response = server.handle_request({"op": "dance"})
        assert not response["ok"]
        assert response["error"]["code"] == protocol.ERR_BAD_REQUEST
    finally:
        server.close()


def test_cold_then_warm_byte_identical_to_one_shot(moddir, tmp_path):
    server = _server(moddir)
    try:
        # A separate cache dir: the reference run must not pre-warm the
        # daemon's cache, or the first request would not be cold.
        expected = repro.pretty_program(
            repro.specialise(
                server.state.gp,
                "power",
                {"n": 4},
                server.options.replace(cache_dir=str(tmp_path / "ref")),
            ).program
        )
        cold = _specialise(server, "power", {"n": 4}, id="c")
        assert cold["ok"] and cold["served"] == "cold" and cold["id"] == "c"
        assert cold["result"]["program"] == expected

        warm = _specialise(server, "power", {"n": 4})
        assert warm["ok"] and warm["served"] == "warm"
        assert warm["result"]["program"] == expected

        counters = server.obs.metrics.snapshot()["counters"]
        assert counters["serve.requests"] == 2
        assert counters["serve.cold"] == 1
        assert counters["serve.warm"] == 1
    finally:
        server.close()


def test_unknown_goal_is_an_error_not_a_crash(moddir):
    server = _server(moddir)
    try:
        response = _specialise(server, "nosuch", {})
        assert not response["ok"]
        assert response["error"]["code"] == protocol.ERR_ERROR
        assert protocol.exit_code_for(response) == 3
        assert server.obs.metrics.snapshot()["counters"]["serve.failures"] == 1
        # The daemon still answers afterwards.
        assert _specialise(server, "power", {"n": 2})["ok"]
    finally:
        server.close()


def test_bad_static_value_is_a_bad_request(moddir):
    server = _server(moddir)
    try:
        response = _specialise(server, "power", {"n": 1.5})
        assert not response["ok"]
        assert response["error"]["code"] == protocol.ERR_BAD_REQUEST
    finally:
        server.close()


def test_backpressure_rejects_beyond_queue(moddir):
    server = _server(moddir, max_inflight=1, queue=0)
    try:
        with server._adm:
            server.inflight = 1  # pin the only slot
        response = _specialise(server, "power", {"n": 2})
        assert not response["ok"]
        assert response["error"]["code"] == protocol.ERR_REJECTED
        assert protocol.exit_code_for(response) == protocol.EXIT_REJECTED
        counters = server.obs.metrics.snapshot()["counters"]
        assert counters["serve.rejections"] == 1
        with server._adm:
            server.inflight = 0
            server._adm.notify_all()
        assert _specialise(server, "power", {"n": 2})["ok"]
    finally:
        server.close()


def test_deadline_expires_while_queued(moddir):
    server = _server(moddir, max_inflight=1, queue=4)
    try:
        with server._adm:
            server.inflight = 1  # never released: the queue wait must
        started = time.perf_counter()  # be bounded by the deadline
        response = _specialise(server, "power", {"n": 2}, deadline=0.2)
        waited = time.perf_counter() - started
        assert not response["ok"]
        assert response["error"]["code"] == protocol.ERR_DEADLINE
        assert response["error"]["kind"] == "timeout"
        assert waited < 5.0
        with server._adm:
            server.inflight = 0
    finally:
        server.close()


def test_draining_refuses_new_requests(moddir):
    server = _server(moddir)
    try:
        assert server.drain(timeout=1.0)
        response = _specialise(server, "power", {"n": 2})
        assert not response["ok"]
        assert response["error"]["code"] == protocol.ERR_SHUTTING_DOWN
        assert protocol.exit_code_for(response) == protocol.EXIT_REJECTED
    finally:
        server.close()


def test_deadline_kills_hung_worker_and_daemon_recovers(tmp_path):
    d = tmp_path / "spin"
    _write_modules(d, SPIN + "\n" + POWER)
    server = _server(str(d), jobs=1, warm_pool=True)
    try:
        response = _specialise(server, "spin", {"n": 1}, deadline=0.5)
        assert not response["ok"]
        assert response["error"]["code"] == protocol.ERR_DEADLINE
        assert server.pool.kills >= 1  # the wedged worker was terminated
        counters = server.obs.metrics.snapshot()["counters"]
        assert counters["serve.deadline_kills"] == 1
        # The pool respawns transparently; later requests still work.
        follow = _specialise(server, "power", {"n": 3})
        assert follow["ok"]
    finally:
        server.close()


def test_source_change_triggers_one_relink_never_stale(moddir):
    server = _server(moddir)
    try:
        before = _specialise(server, "power", {"n": 3})
        assert before["ok"]
        # A semantic edit: power now squares at the base case.
        with open(os.path.join(moddir, "Power.mod"), "w") as f:
            f.write(
                "module Power where\n\n"
                "power n x = if n == 1 then x * x "
                "else x * power (n - 1) x\n"
            )
        after = _specialise(server, "power", {"n": 3})
        assert after["ok"]
        assert after["result"]["program"] != before["result"]["program"]
        counters = server.obs.metrics.snapshot()["counters"]
        assert counters["serve.relinks"] == 1
        # The answer matches a fresh one-shot run of the new source.
        expected = repro.pretty_program(
            repro.specialise(
                server.state.gp, "power", {"n": 3}, server.options
            ).program
        )
        assert after["result"]["program"] == expected
    finally:
        server.close()


def test_relinks_keep_the_worker_program_memo_bounded(moddir, capsys):
    """Each watched-source edit links a new program; the worker memo
    keeps only the newest few, and every answer is the one-shot CLI's."""
    from repro.cli import main
    from repro.genext.batch import _WORKER_PROGRAMS

    server = _server(moddir)
    try:
        edits = _WORKER_PROGRAMS.capacity + 2
        for k in range(edits):
            with open(os.path.join(moddir, "Power.mod"), "w") as f:
                f.write(
                    "module Power where\n\n"
                    "power n x = if n == 1 then x + %d "
                    "else x * power (n - 1) x\n" % k
                )
            answer = _specialise(server, "power", {"n": 3})
            assert answer["ok"]
            assert main(["specialise", moddir, "power", "n=3", "--json"]) == 0
            oneshot = json.loads(capsys.readouterr().out)["report"]
            assert answer["result"]["program"] == oneshot["program"]
            assert len(_WORKER_PROGRAMS) <= _WORKER_PROGRAMS.capacity
            state = server.state
            assert _WORKER_PROGRAMS.get(state.fingerprint) is state.gp
        counters = server.obs.metrics.snapshot()["counters"]
        assert counters["serve.relinks"] == edits
    finally:
        server.close()


def test_watch_source_disabled_keeps_the_loaded_program(moddir):
    server = _server(moddir, watch_source=False)
    try:
        before = _specialise(server, "power", {"n": 3})
        with open(os.path.join(moddir, "Power.mod"), "w") as f:
            f.write("module Power where\n\npower n x = 0\n")
        after = _specialise(server, "power", {"n": 3})
        assert after["result"]["program"] == before["result"]["program"]
        assert "serve.relinks" not in (
            server.obs.metrics.snapshot()["counters"]
        )
    finally:
        server.close()


def test_concurrent_identical_cold_requests_coalesce(moddir):
    server = _server(moddir, max_inflight=4, jobs=1, warm_pool=True)
    try:
        responses = []
        lock = threading.Lock()

        def ask():
            response = _specialise(server, "sumpow", {"n": 6})
            with lock:
                responses.append(response)

        threads = [threading.Thread(target=ask) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r["ok"] for r in responses)
        programs = {r["result"]["program"] for r in responses}
        assert len(programs) == 1
        counters = server.obs.metrics.snapshot()["counters"]
        # One leader computed; everyone else was answered warm.
        assert counters["serve.cold"] == 1
        assert counters["serve.warm"] == 3
    finally:
        server.close()


# ---------------------------------------------------------------------------
# Sockets: unix and TCP transports, the client, graceful shutdown.
# ---------------------------------------------------------------------------


def _run_daemon(config):
    """serve_forever on a thread; returns (thread, server, transport)."""
    box = {}
    ready = threading.Event()

    def on_ready(server, transport):
        box["server"] = server
        box["transport"] = transport
        ready.set()

    thread = threading.Thread(
        target=serve_forever, args=(config,), kwargs={"ready": on_ready},
        daemon=True,
    )
    thread.start()
    assert ready.wait(60)
    return thread, box["server"], box["transport"]


def test_unix_socket_end_to_end(moddir):
    config = ServeConfig(dir=moddir, jobs=1, warm_pool=False)
    thread, server, _ = _run_daemon(config)

    with ServeClient.wait_ready(socket_path=config.socket_path) as client:
        assert client.ping()["ok"]
        cold = client.specialise("power", {"n": 5}, request_id="r1")
        assert cold["ok"] and cold["id"] == "r1"
        warm = client.specialise("power", {"n": 5})
        assert warm["served"] == "warm"
        assert warm["result"]["program"] == cold["result"]["program"]
        expected = repro.pretty_program(
            repro.specialise(
                server.state.gp, "power", {"n": 5}, server.options
            ).program
        )
        assert cold["result"]["program"] == expected

        assert validate_metrics(client.metrics()["metrics"]) == []
        assert validate_trace(client.trace()["trace"]) == []

        assert client.shutdown()["ok"]
    thread.join(60)
    assert not thread.is_alive()
    assert not os.path.exists(config.socket_path)


def test_many_concurrent_clients_identical_answers(moddir):
    config = ServeConfig(
        dir=moddir, jobs=1, max_inflight=4, queue=64, warm_pool=False
    )
    thread, server, transport = _run_daemon(config)
    try:
        programs = []
        lock = threading.Lock()

        def hammer(n):
            with ServeClient.connect(
                socket_path=config.socket_path
            ) as client:
                for _ in range(5):
                    response = client.specialise("power", {"n": n})
                    assert response["ok"], response
                    with lock:
                        programs.append((n, response["result"]["program"]))

        threads = [
            threading.Thread(target=hammer, args=(2 + i % 3,))
            for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        by_n = {}
        for n, program in programs:
            by_n.setdefault(n, set()).add(program)
        assert all(len(texts) == 1 for texts in by_n.values())
        assert len(programs) == 30
    finally:
        transport.initiate_shutdown()
        thread.join(60)


def test_tcp_transport(moddir):
    config = ServeConfig(
        dir=moddir, tcp=("127.0.0.1", 0), jobs=1, warm_pool=False
    )
    thread, server, transport = _run_daemon(config)
    host, port = transport.server_address[:2]
    with ServeClient.wait_ready(tcp=(host, port)) as client:
        assert client.ping()["ok"]
        response = client.specialise("power", {"n": 3})
        assert response["ok"]
        assert client.shutdown()["ok"]
    thread.join(60)
    assert not thread.is_alive()


def test_malformed_line_answers_bad_request_and_keeps_connection(moddir):
    import socket as socketlib

    config = ServeConfig(dir=moddir, jobs=1, warm_pool=False)
    thread, server, transport = _run_daemon(config)
    try:
        sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        sock.connect(config.socket_path)
        f = sock.makefile("rb")
        sock.sendall(b"this is not json\n")
        response = protocol.decode_line(f.readline())
        assert not response["ok"]
        assert response["error"]["code"] == protocol.ERR_BAD_REQUEST
        # The connection survives a bad line.
        sock.sendall(protocol.encode({"op": "ping"}))
        assert protocol.decode_line(f.readline())["ok"]
        sock.close()
    finally:
        transport.initiate_shutdown()
        thread.join(60)


def test_client_error_when_no_daemon(tmp_path):
    with pytest.raises(ServeClientError):
        ServeClient.connect(socket_path=str(tmp_path / "nothing.sock"))
    with pytest.raises(ServeClientError):
        ServeClient.wait_ready(
            socket_path=str(tmp_path / "nothing.sock"), timeout=0.3
        )


def test_stale_socket_file_is_reclaimed(moddir):
    config = ServeConfig(dir=moddir, jobs=1, warm_pool=False)
    # A dead daemon's leftover socket file must not block the next one.
    import socket as socketlib

    leftover = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    leftover.bind(config.socket_path)
    leftover.close()  # bound but never listening: stale
    server = SpecServer(config)
    try:
        transport = make_transport(server)
        transport.server_close()
    finally:
        server.close()
        if os.path.exists(config.socket_path):
            os.unlink(config.socket_path)


def test_config_validation(moddir):
    with pytest.raises(ValueError):
        ServeConfig(dir=moddir, jobs=0)
    with pytest.raises(ValueError):
        ServeConfig(dir=moddir, max_inflight=0)
    with pytest.raises(ValueError):
        ServeConfig(dir=moddir, queue=-1)
    # The daemon analyses with the default strategy only: it would serve
    # lub residuals for any other.
    with pytest.raises(ValueError, match="unfolding"):
        ServeConfig(dir=moddir, options=SpecOptions(unfolding="size-change"))
    config = ServeConfig(dir=moddir, jobs=3)
    assert config.max_inflight == 3 and config.queue == 12
    assert config.socket_path.endswith(".mspec-serve.sock")
    assert config.cache_dir.endswith(".mspec-cache")


# ---------------------------------------------------------------------------
# The CLI surface.
# ---------------------------------------------------------------------------


def test_cli_client_maps_protocol_errors_to_exit_codes(moddir, capsys):
    from repro.cli import main

    config = ServeConfig(
        dir=moddir, jobs=1, max_inflight=1, queue=0, warm_pool=False
    )
    thread, server, transport = _run_daemon(config)
    try:
        assert (
            main(
                ["client", "--socket", config.socket_path, "ping"]
            )
            == 0
        )
        assert capsys.readouterr().out.strip() == "pong"

        assert (
            main(
                [
                    "client", "--socket", config.socket_path,
                    "specialise", "power", "n=4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        expected = repro.pretty_program(
            repro.specialise(
                server.state.gp, "power", {"n": 4}, server.options
            ).program
        )
        assert out == expected

        # Pin the admission slot: the client sees backpressure, exit 8.
        with server._adm:
            server.inflight = 1
        assert (
            main(
                [
                    "client", "--socket", config.socket_path,
                    "specialise", "power", "n=9",
                ]
            )
            == protocol.EXIT_REJECTED
        )
        capsys.readouterr()
        with server._adm:
            server.inflight = 0
            server._adm.notify_all()
    finally:
        transport.initiate_shutdown()
        thread.join(60)


def test_cli_client_json_mode(moddir, capsys):
    from repro.cli import main

    config = ServeConfig(dir=moddir, jobs=1, warm_pool=False)
    thread, server, transport = _run_daemon(config)
    try:
        assert (
            main(
                ["client", "--socket", config.socket_path, "health",
                 "--json"]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == protocol.SERVE_SCHEMA
        assert doc["op"] == "health" and doc["ok"]
    finally:
        transport.initiate_shutdown()
        thread.join(60)


def test_cli_client_argument_validation(tmp_path):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["client", "ping"])  # neither --socket nor --tcp
    with pytest.raises(SystemExit):
        main(["client", "--socket", "s", "--tcp", "h:1", "ping"])
    with pytest.raises(SystemExit):
        main(["client", "--socket", "s", "specialise"])  # no goal
    with pytest.raises(SystemExit):
        main(["client", "--socket", "s", "ping", "extra"])
    # Unreachable daemon: a clean error exit, not a traceback.
    assert (
        main(
            ["client", "--socket", str(tmp_path / "no.sock"), "ping"]
        )
        == 3
    )


# ---------------------------------------------------------------------------
# Chaos: serve-phase fault injection, self-healing, supervision.
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _disarm_fault_plans():
    """No fault plan leaks into (or out of) any serve test."""
    from repro.pipeline.faultinject import FaultPlan

    FaultPlan.uninstall()
    yield
    FaultPlan.uninstall()


def _arm(tmp_path, *planned):
    from repro.pipeline.faultinject import FaultPlan

    plan = FaultPlan(
        faults=tuple(planned), state_dir=str(tmp_path / "fault-state")
    )
    plan.install(str(tmp_path / "fault-plan.json"))
    return plan


def test_transport_faults_absorbed_by_resilient_client(moddir, tmp_path):
    from repro.pipeline.faultinject import Fault
    from repro.serve.client import RetryPolicy

    config = ServeConfig(dir=moddir, jobs=1, warm_pool=False)
    thread, server, transport = _run_daemon(config)
    _arm(
        tmp_path,
        Fault(module="*", phase="serve", action="drop-connection"),
        Fault(module="*", phase="serve", action="stall", seconds=2.0),
        Fault(module="*", phase="serve", action="corrupt-response"),
    )
    try:
        retry = RetryPolicy(attempts=6, backoff_base=0.01, rng=lambda: 0.0)
        with ServeClient.connect(
            socket_path=config.socket_path,
            request_timeout=0.5,
            retry=retry,
        ) as client:
            # One request absorbs all three transport faults: the drop
            # (EOF), the stall (wire timeout), and the garbage line each
            # trigger a reconnect + retry, and the fourth try answers.
            response = client.specialise("power", {"n": 4})
            assert response["ok"], response
            assert client.stats["retries"] == 3
            assert client.stats["reconnects"] == 3
            assert client.stats["timeouts"] == 1
        counters = server.obs.metrics.snapshot()["counters"]
        assert counters["serve.faults_injected"] == 3
    finally:
        transport.initiate_shutdown()
        thread.join(60)


def test_kill_worker_mid_request_is_absorbed(moddir, tmp_path):
    from repro.pipeline.faultinject import Fault

    # Arm before startup: pool workers are forked at daemon start and
    # inherit the environment (and so the plan) from that moment.
    _arm(
        tmp_path,
        Fault(module="power", phase="serve", action="kill-worker"),
    )
    config = ServeConfig(dir=moddir, jobs=1, warm_pool=True)
    thread, server, transport = _run_daemon(config)
    try:
        # A *bare* client: the SIGKILL'd worker must be invisible even
        # without retries — the supervisor's degraded serial rerun
        # answers (and fire() skips kill-worker outside pool workers
        # without spending budget, so the rerun cannot re-kill itself).
        with ServeClient.connect(socket_path=config.socket_path) as client:
            response = client.specialise("power", {"n": 6})
            assert response["ok"], response
            assert response["served"] == "cold"
        assert server.pool.kills >= 1
        # The budget sentinel was spent exactly once, by the dead worker.
        state = tmp_path / "fault-state"
        assert sorted(p.name for p in state.iterdir()) == ["fault.0.0"]
        # The daemon is healthy afterwards: warm answers keep flowing.
        with ServeClient.connect(socket_path=config.socket_path) as client:
            assert client.specialise("power", {"n": 6})["served"] == "warm"
    finally:
        transport.initiate_shutdown()
        thread.join(60)


def test_worker_recycling_over_the_serve_path(moddir):
    server = _server(moddir, jobs=1, max_requests_per_worker=1)
    try:
        for n in (2, 3, 4):
            response = _specialise(server, "power", {"n": n})
            assert response["ok"], response
        # Budget 1 request/worker x 1 job: every cold request after the
        # first retires a generation gracefully.
        assert server.pool.recycles >= 2
        health = server.handle_request({"op": "health"})
        assert health["pool_recycles"] == server.pool.recycles
        counters = server.obs.metrics.snapshot()["counters"]
        assert counters["serve.recycles"] == server.pool.recycles
        # Recycling is invisible to correctness: warm hits still serve.
        assert _specialise(server, "power", {"n": 2})["served"] == "warm"
    finally:
        server.close()


def test_supervisor_restarts_a_sigkilled_daemon(moddir, tmp_path):
    import signal as signallib

    from repro.serve.supervise import supervised_daemon

    config = ServeConfig(dir=moddir, jobs=1, warm_pool=False)
    events = []
    with supervised_daemon(
        config,
        backoff_base=0.05,
        on_event=lambda event, info: events.append((event, info)),
    ) as supervisor:
        with ServeClient.wait_ready(socket_path=config.socket_path) as c:
            first_pid = c.health()["pid"]
        assert supervisor.process.pid == first_pid

        # kill -9: no drain, no cleanup — the socket file goes stale.
        os.kill(first_pid, signallib.SIGKILL)

        # The supervisor restarts the daemon; the stale socket is
        # reclaimed and the next request succeeds against the new pid.
        with ServeClient.wait_ready(
            socket_path=config.socket_path, timeout=60
        ) as c:
            health = c.health()
            assert health["pid"] != first_pid
            assert c.specialise("power", {"n": 3})["ok"]
        assert supervisor.restarts == 1
    assert any(event == "restarting" for event, _ in events)
    assert events[-1][0] == "stopped"


def test_supervisor_does_not_restart_a_graceful_exit(moddir):
    from repro.serve.supervise import supervised_daemon

    config = ServeConfig(dir=moddir, jobs=1, warm_pool=False)
    events = []
    stopped = threading.Event()

    def on_event(event, info):
        events.append((event, info))
        if event == "stopped":
            stopped.set()

    with supervised_daemon(config, on_event=on_event) as supervisor:
        with ServeClient.wait_ready(socket_path=config.socket_path) as c:
            assert c.shutdown()["ok"]
        # The supervisor thread is the one joining the child, so the
        # exit code is read from its "stopped" event: a second join()
        # here would race it for the child's status.
        assert stopped.wait(60)
        assert supervisor.restarts == 0
    assert [info["exitcode"] for event, info in events if event == "stopped"] == [0]
    assert "restarting" not in [event for event, _ in events]


def test_supervisor_gives_up_past_max_restarts(tmp_path):
    from repro.serve.supervise import Supervisor

    # A config whose daemon can never come up: the module directory
    # does not exist, so serve_forever raises and the child exits
    # nonzero immediately.
    config = ServeConfig(
        dir=str(tmp_path / "missing"),
        socket_path=str(tmp_path / "s.sock"),
        jobs=1,
        warm_pool=False,
    )
    events = []
    supervisor = Supervisor(
        config,
        max_restarts=2,
        sleep=lambda s: None,
        on_event=lambda event, info: events.append(event),
    )
    code = supervisor.run()
    assert code != 0
    assert supervisor.restarts == 3  # initial + 2 budgeted restarts
    assert events.count("restarting") == 2
    assert events[-1] == "gave_up"


def test_supervisor_validates_max_restarts(moddir):
    from repro.serve.supervise import Supervisor

    with pytest.raises(ValueError):
        Supervisor(ServeConfig(dir=moddir), max_restarts=-1)


def test_serve_config_recycling_knobs(moddir):
    config = ServeConfig(
        dir=moddir, jobs=2, max_requests_per_worker=100,
        max_worker_rss_mb=256.0, warm_pool=False,
    )
    server = SpecServer(config)
    try:
        assert server.pool.max_requests_per_worker == 100
        assert server.pool.max_worker_rss == 256 * 1024 * 1024
    finally:
        server.close()
