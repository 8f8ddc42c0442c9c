"""Per-layer attribution for the benchmark suite's traced runs.

Two kinds of spans make up a traced run:

* the program's own spans (``stage:*``, ``analyse:M``, ``cogen:M``,
  ``specialise``, ``pending-pump``, ``mk_resid:*``, ``assemble``,
  ``serve:*``), recorded because the suite hands an ``Obs`` carrying its
  tracer to every public entry point that accepts one;
* spans the suite records itself, by wrapping public functions of each
  layer at the name its caller looks up (:data:`WRAP_SITES`) — so the
  program needs no change to be measured.

A span's *self time* is its duration minus the part its child spans
cover.  Self times partition the run, so each layer's share of the
traced time is the sum of its spans' self times over the total.
"""

import functools
import importlib
from contextlib import contextmanager

__all__ = [
    "CHECK_SPAN",
    "PCT_LAYERS",
    "WRAP_SITES",
    "attribute",
    "installed",
    "layer_of",
]

# (module, attribute path, span name).  Each entry is the name a caller
# looks up at call time: a module global of the calling module, a
# module attribute read by a lazy ``from ... import``, or a class
# attribute.  ``compile`` entries shadow the builtin in one module only.
WRAP_SITES = (
    ("repro.pipeline.build", "parse_program", "lang.parse"),
    ("repro.speccache", "parse_program", "lang.parse"),
    ("repro.modsys.program", "parse_program", "lang.parse"),
    ("repro.speccache", "pretty_program", "lang.pretty"),
    ("repro.pipeline.build", "analyse_module", "bt.analyse"),
    ("repro.pipeline.incremental", "analyse_scc", "bt.analyse"),
    ("repro.pipeline.build", "cogen_fragments", "genext.cogen"),
    ("repro.pipeline.build", "assemble_module", "genext.cogen"),
    ("repro.pipeline.incremental", "cogen_def", "genext.cogen"),
    ("repro.pipeline.incremental", "assemble_module", "genext.cogen"),
    ("repro.pipeline.build", "BuildResult.link", "genext.link"),
    ("repro.pipeline.build", "load_genext", "genext.load"),
    ("repro.pipeline.build", "compile", "genext.compile"),
    ("repro.genext.engine", "specialise", "genext.specialise"),
    ("repro.genext.engine", "assemble_program", "residual.assemble"),
    ("repro.genext.engine", "link_program", "modsys.link_program"),
    ("repro.speccache", "link_program", "modsys.link_program"),
    ("repro.speccache", "residual_cache_key", "speccache.key"),
    ("repro.serve.daemon", "residual_cache_key", "speccache.key"),
    ("repro.speccache", "SpecCache.get", "speccache.get"),
    ("repro.speccache", "validate_payload_bytes", "speccache.validate"),
    ("repro.speccache", "decode_result", "speccache.decode"),
    ("repro.speccache", "encode_result", "speccache.encode"),
    ("repro.serve.daemon", "encode_result", "speccache.encode"),
    ("repro.speccache", "SpecCache.put", "speccache.put"),
    ("repro.serve.protocol", "encode", "serve.codec"),
    ("repro.serve.protocol", "decode_line", "serve.codec"),
    ("repro.genext.batch", "specialise_many", "batch.specialise_many"),
    ("repro.backend.tiers", "TierLadder.key_for", "tiers.key_for"),
    ("repro.backend.tiers", "TierLadder.call", "tiers.ladder_call"),
    ("repro.backend.tiers", "TierFunction.__call__", "tiers.t2_call"),
    ("repro.backend.tiers", "emit_source", "tiers.emit"),
    ("repro.backend.tiers", "compile", "tiers.emit"),
    ("repro.backend.tiers", "load_compiled", "tiers.load_compiled"),
    ("repro.interp", "run_program", "interp.run_program"),
    ("repro.genext.engine", "SpecialisationResult.run", "interp.tier1_run"),
)

# Layers reported as a share of the traced time, in report order.
PCT_LAYERS = (
    "pipeline.scan",
    "pipeline.cache",
    "pipeline.incremental",
    "pipeline.publish",
    "pipeline.other",
    "lang.parse",
    "lang.pretty",
    "bt.analyse",
    "genext.cogen",
    "genext.link",
    "genext.specialise",
    "genext.pending_pump",
    "genext.mk_resid",
    "residual.assemble",
    "modsys.link_program",
    "speccache.key",
    "speccache.get",
    "speccache.validate",
    "speccache.decode",
    "speccache.encode",
    "speccache.put",
    "serve.server",
    "serve.codec",
    "serve.queue_wait",
    "serve.wire",
    "batch.specialise_many",
    "tiers.key_for",
    "tiers.ladder_call",
    "tiers.t2_call",
    "tiers.emit",
    "tiers.load_compiled",
    "interp.run_program",
    "interp.tier1_run",
    "bench.harness",
)

_EXACT = {
    "stage:scan": "pipeline.scan",
    "stage:cache": "pipeline.cache",
    "stage:incremental": "pipeline.incremental",
    "stage:publish": "pipeline.publish",
    "stage:link": "genext.link",
    "genext.load": "genext.link",
    "genext.compile": "genext.link",
    "specialise": "genext.specialise",
    "pending-pump": "genext.pending_pump",
    "assemble": "residual.assemble",
    "build": "pipeline.other",
}

_PREFIX = (
    ("mk_resid:", "genext.mk_resid"),
    ("serve:", "serve.server"),
    ("bench:", "bench.harness"),
    ("stage:", "pipeline.other"),
    ("wave[", "pipeline.other"),
    ("job:", "pipeline.other"),
    ("analyse:", "pipeline.other"),
    ("cogen:", "pipeline.other"),
)


def layer_of(name):
    """The reported layer of one span name (``None``: unclassified)."""
    if name in _EXACT:
        return _EXACT[name]
    for prefix, layer in _PREFIX:
        if name.startswith(prefix):
            return layer
    if name in PCT_LAYERS:
        return name
    return None


# ---------------------------------------------------------------------------
# Installing the wrappers.
# ---------------------------------------------------------------------------

_ABSENT = object()


def _wrap(fn, tracer, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, cat="layer"):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def installed(tracer):
    """Wrap every :data:`WRAP_SITES` entry with spans on ``tracer`` for
    the duration of the block."""
    import builtins

    undo = []
    try:
        for module_name, path, span in WRAP_SITES:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            old = owner.__dict__.get(attr, _ABSENT)
            fn = getattr(builtins, attr) if old is _ABSENT else old
            setattr(owner, attr, _wrap(fn, tracer, span))
            undo.append((owner, attr, old))
        yield
    finally:
        for owner, attr, old in reversed(undo):
            if old is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# Attribution.
# ---------------------------------------------------------------------------


CHECK_SPAN = "bench:check"


def _nest(events):
    """``[(event, self_us, root_event, checking)]`` for complete spans,
    nesting each span under the innermost span of its lane that contains
    it; ``checking`` marks spans inside a :data:`CHECK_SPAN`."""
    lanes = {}
    for e in events:
        if e.get("ph") == "X":
            lanes.setdefault((e["pid"], e["tid"]), []).append(e)
    out = []
    for lane in lanes.values():
        lane.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, end, child_us, root, checking]
        rows = []
        for e in lane:
            end = e["ts"] + e["dur"]
            while stack and stack[-1][1] <= e["ts"]:
                stack.pop()
            checking = e["name"] == CHECK_SPAN
            if stack and end <= stack[-1][1] + 0.5:
                parent = stack[-1]
                parent[2] += e["dur"]
                root = parent[3]
                checking = checking or parent[4]
            else:
                stack.clear()
                root = e
            entry = [e, end, 0.0, root, checking]
            stack.append(entry)
            rows.append(entry)
        out.extend(
            (e, e["dur"] - child, root, checking)
            for e, _, child, root, checking in rows
        )
    return out


def attribute(events, root, remote_events=(), queue_wait_us=0.0):
    """Per-layer self time of one scope of a traced run.

    ``events`` are the suite process's spans; the scope is every subtree
    rooted at a span named ``root`` (``bench:setup`` or ``bench:loop``),
    less the correctness checks, which run under :data:`CHECK_SPAN`.
    ``remote_events`` are a daemon's spans; those whose root starts
    inside a ``root`` span count.  The client's self time inside its own
    ``bench:*`` spans is then time spent waiting on the daemon: it is
    split into the daemon's span self times, its admission
    ``queue_wait_us``, and the rest, ``serve.wire`` (socket transfer,
    daemon work outside any span, daemon start-up).

    Returns ``(layers, spans, traced_us)``: ``layers`` maps each layer to
    ``{"self_us", "calls"}``, ``spans`` each span name to the same plus
    ``"total_us"``, and ``traced_us`` is the scope's own duration.
    """
    layers = {}
    spans = {}

    def note(name, self_us, dur_us):
        rec = spans.setdefault(name, {"calls": 0, "self_us": 0.0, "total_us": 0.0})
        rec["calls"] += 1
        rec["self_us"] += self_us
        rec["total_us"] += dur_us
        rec = layers.setdefault(layer_of(name) or "other", {"calls": 0, "self_us": 0.0})
        rec["calls"] += 1
        rec["self_us"] += self_us

    traced_us = 0.0
    windows = []
    for e, self_us, top, checking in _nest(events):
        if top["name"] != root:
            continue
        if e is top:
            traced_us += e["dur"]
            windows.append((e["ts"], e["ts"] + e["dur"]))
        if checking:
            if e["name"] == CHECK_SPAN:
                traced_us -= e["dur"]
            continue
        note(e["name"], self_us, e["dur"])

    if remote_events:
        covered = queue_wait_us
        for e, self_us, top, _ in _nest(remote_events):
            if any(lo <= top["ts"] <= hi for lo, hi in windows):
                note(e["name"], self_us, e["dur"])
                covered += self_us
        harness = layers.setdefault("bench.harness", {"calls": 0, "self_us": 0.0})
        waiting, harness["self_us"] = harness["self_us"], 0.0
        layers["serve.queue_wait"] = {"calls": 0, "self_us": queue_wait_us}
        layers["serve.wire"] = {"calls": 0, "self_us": max(0.0, waiting - covered)}
    return layers, spans, traced_us
