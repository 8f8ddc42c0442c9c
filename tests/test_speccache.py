"""The persistent residual cache and the memoised RTCG callables.

Covers the warm-hit contract (byte-identical residual programs, no
SpecState constructed), key invalidation (module source edits, keyed
SpecOptions fields), execution knobs staying out of the key, corrupt
entries degrading to misses, fsck integration, the ``speccache.*``
accounting, and ``generate`` answering repeats from the execution
ladder's compiled-callable memo (``tier.*`` accounting).
"""

import json
import os

import pytest

import repro
from repro.api import SpecOptions
from repro.backend import generate
from repro.backend.tiers import clear_tiers
from repro.bench.generators import guarded_lookup_source
from repro.obs import Obs
from repro.pipeline.cache import RESID_KIND, ArtifactCache
from repro.pipeline.faults import fsck_cache
from repro.speccache import (
    SPECCACHE_SCHEMA,
    SpecCache,
    canonical_static_args,
    decode_result,
    encode_result,
    residual_cache_key,
    validate_payload_bytes,
)

POWER = """\
module Power where

power n x = if n == 1 then x else x * power (n - 1) x
"""

POWER_EDITED = """\
module Power where

power n x = if n == 1 then x else x + power (n - 1) x
"""


def _gp(source=POWER):
    return repro.compile_genexts(source)


# ---------------------------------------------------------------------------
# Keys.
# ---------------------------------------------------------------------------


def test_canonical_static_args_is_order_insensitive():
    assert canonical_static_args({"a": 1, "b": 2}) == canonical_static_args(
        {"b": 2, "a": 1}
    )


def test_canonical_static_args_tuples_and_lists_collapse():
    assert canonical_static_args({"xs": (1, 2)}) == canonical_static_args(
        {"xs": [1, 2]}
    )


def test_canonical_static_args_bools_stay_distinct_from_ints():
    assert canonical_static_args({"a": True}) != canonical_static_args(
        {"a": 1}
    )


def test_canonical_static_args_rejects_exotic_values():
    with pytest.raises(TypeError):
        canonical_static_args({"a": object()})


def test_key_ignores_execution_knobs_but_not_semantics():
    gp = _gp()
    fp = gp.fingerprint()
    base = residual_cache_key(fp, "power", {"n": 3}, SpecOptions())
    # Execution knobs: same key.
    assert base == residual_cache_key(
        fp, "power", {"n": 3}, SpecOptions(fuel=7, timeout=9.0)
    )
    assert base == residual_cache_key(
        fp, "power", {"n": 3}, SpecOptions(cache_dir="/elsewhere")
    )
    # Semantic fields: different keys.
    assert base != residual_cache_key(
        fp, "power", {"n": 3}, SpecOptions(strategy="dfs")
    )
    assert base != residual_cache_key(
        fp, "power", {"n": 3}, SpecOptions(monolithic=True)
    )
    assert base != residual_cache_key(
        fp, "power", {"n": 3}, SpecOptions(max_versions=1)
    )
    # And of course the request itself.
    assert base != residual_cache_key(fp, "power", {"n": 4}, SpecOptions())


def test_default_strategy_key_is_pinned():
    """A default-strategy request hashes the same bytes for as long as
    ``CACHE_EPOCH`` stands, so residuals cached by earlier releases stay
    warm.  Pinned at epoch 5: the bump came with smaller interfaces and
    generating-extension tables, and with ``unfolding`` leaving the key.
    The unfolding strategy acts through the analysis, so it already
    changes the program fingerprint; for one fingerprint the two
    strategies name the same request."""
    fp = "0" * 64
    base = residual_cache_key(fp, "power", {"n": 3}, SpecOptions())
    assert base == (
        "cd620997c0470eeee2c69e1fc184397c429a8b427b3c87fdc072695fa43b6491"
    )
    assert base == residual_cache_key(
        fp, "power", {"n": 3}, SpecOptions(unfolding="size-change")
    )


def test_unfolding_strategies_sharing_a_cache_never_share_a_residual(
    tmp_path,
):
    """Each strategy compiles to its own program, so its fingerprint
    keeps the residuals apart: the size-change request misses although
    the lub residual for the same goal and static arguments is cached."""
    static = {"xs": (10, 20, 30)}
    cache_dir = str(tmp_path / "cache")
    texts = []
    for unfolding in ("lub", "size-change"):
        options = SpecOptions(unfolding=unfolding)
        gp = repro.compile_genexts(guarded_lookup_source(), options)
        cold = repro.specialise(gp, "lookup", static, options)
        obs = Obs()
        cached = repro.specialise(
            gp, "lookup", static, options.replace(cache_dir=cache_dir), obs=obs
        )
        counters = obs.metrics.snapshot()["counters"]
        assert counters["speccache.misses"] == 1
        assert "speccache.hits" not in counters
        text = repro.pretty_program(cached.program)
        assert text == repro.pretty_program(cold.program)
        texts.append(text)
    assert texts[0] != texts[1], "the strategies must disagree here"


def test_fingerprint_changes_when_a_module_source_changes():
    assert _gp(POWER).fingerprint() != _gp(POWER_EDITED).fingerprint()


def test_fingerprint_is_stable_across_relinks():
    assert _gp(POWER).fingerprint() == _gp(POWER).fingerprint()


# ---------------------------------------------------------------------------
# Warm hits.
# ---------------------------------------------------------------------------


def test_warm_hit_is_byte_identical_and_counted(tmp_path):
    gp = _gp()
    options = SpecOptions(cache_dir=str(tmp_path))
    cold_obs, warm_obs = Obs(), Obs()
    cold = repro.specialise(gp, "power", {"n": 5}, options, obs=cold_obs)
    warm = repro.specialise(gp, "power", {"n": 5}, options, obs=warm_obs)

    assert repro.pretty_program(cold.program) == repro.pretty_program(
        warm.program
    )
    assert cold.entry == warm.entry
    assert cold.dynamic_params == warm.dynamic_params
    assert cold.stats == warm.stats  # the original run's stats, stored
    assert cold.module_names == warm.module_names
    assert warm.run(2) == 32

    cold_counters = cold_obs.metrics.snapshot()["counters"]
    warm_counters = warm_obs.metrics.snapshot()["counters"]
    assert cold_counters["speccache.misses"] == 1
    assert cold_counters["speccache.writes"] == 1
    assert warm_counters["speccache.hits"] == 1
    assert warm_counters["speccache.reads"] == 1
    # The work did not happen again: no spec.* stats were absorbed.
    assert "spec.unfolds" not in warm_counters


def test_warm_hit_emits_bus_event(tmp_path):
    gp = _gp()
    options = SpecOptions(cache_dir=str(tmp_path))
    repro.specialise(gp, "power", {"n": 3}, options)
    obs = Obs()
    events = []
    obs.bus.subscribe("speccache.hit", lambda name, payload: events.append(payload))
    repro.specialise(gp, "power", {"n": 3}, options, obs=obs)
    assert len(events) == 1
    assert events[0]["goal"] == "power"


def test_warm_hit_respects_the_callers_fuel(tmp_path):
    gp = _gp()
    options = SpecOptions(cache_dir=str(tmp_path))
    repro.specialise(gp, "power", {"n": 3}, options)
    warm = repro.specialise(
        gp, "power", {"n": 3}, options.replace(fuel=123)
    )
    assert warm.fuel == 123


def test_source_edit_forces_a_miss(tmp_path):
    options = SpecOptions(cache_dir=str(tmp_path))
    repro.specialise(_gp(POWER), "power", {"n": 3}, options)
    obs = Obs()
    edited = repro.specialise(
        _gp(POWER_EDITED), "power", {"n": 3}, options, obs=obs
    )
    counters = obs.metrics.snapshot()["counters"]
    assert counters["speccache.misses"] == 1
    assert "speccache.hits" not in counters
    assert edited.run(2) == 6  # 2 + (2 + 2): the edited semantics


def test_option_change_forces_a_miss(tmp_path):
    gp = _gp()
    repro.specialise(
        gp, "power", {"n": 3}, SpecOptions(cache_dir=str(tmp_path))
    )
    obs = Obs()
    repro.specialise(
        gp,
        "power",
        {"n": 3},
        SpecOptions(cache_dir=str(tmp_path), strategy="dfs"),
        obs=obs,
    )
    assert obs.metrics.snapshot()["counters"]["speccache.misses"] == 1


def test_sink_runs_bypass_the_cache(tmp_path):
    gp = _gp()
    obs = Obs()
    repro.specialise(
        gp,
        "power",
        {"n": 3},
        SpecOptions(cache_dir=str(tmp_path), sink=lambda pl, d: None),
        obs=obs,
    )
    counters = obs.metrics.snapshot()["counters"]
    assert "speccache.misses" not in counters
    assert "speccache.writes" not in counters


# ---------------------------------------------------------------------------
# Corruption.
# ---------------------------------------------------------------------------


def _the_only_resid_object(cache_dir):
    store = ArtifactCache(cache_dir)
    suffix = "." + RESID_KIND
    names = [fn for _, fn in store.objects() if fn.endswith(suffix)]
    assert len(names) == 1
    return store, names[0][: -len(suffix)]


def test_corrupt_entry_is_a_miss_that_recomputes(tmp_path):
    gp = _gp()
    options = SpecOptions(cache_dir=str(tmp_path))
    cold = repro.specialise(gp, "power", {"n": 4}, options)
    store, key = _the_only_resid_object(str(tmp_path))
    with open(store.path(key, RESID_KIND), "wb") as f:
        f.write(b"\x00garbage")

    obs = Obs()
    again = repro.specialise(gp, "power", {"n": 4}, options, obs=obs)
    counters = obs.metrics.snapshot()["counters"]
    assert counters["speccache.misses"] == 1
    assert counters["speccache.writes"] == 1  # the good entry is republished
    assert repro.pretty_program(again.program) == repro.pretty_program(
        cold.program
    )


def test_fsck_quarantines_corrupt_residual_payloads(tmp_path):
    gp = _gp()
    repro.specialise(
        gp, "power", {"n": 4}, SpecOptions(cache_dir=str(tmp_path))
    )
    store, key = _the_only_resid_object(str(tmp_path))

    healthy = fsck_cache(store)
    assert healthy.ok

    with open(store.path(key, RESID_KIND), "wb") as f:
        f.write(b'{"schema": "wrong"}')
    report = fsck_cache(store)
    assert not report.ok
    names = [name for name, _ in report.quarantined]
    assert names == ["%s.%s" % (key, RESID_KIND)]
    assert "corrupt residual payload" in report.quarantined[0][1]


def test_validate_payload_bytes_rejects_each_failure_mode(tmp_path):
    gp = _gp()
    result = repro.specialise(gp, "power", {"n": 2})
    payload = encode_result(result)
    good = json.dumps(payload).encode("utf-8")
    assert validate_payload_bytes(good) is None

    assert "not JSON" in validate_payload_bytes(b"\xff\xfe")
    assert "not an object" in validate_payload_bytes(b"[1]")
    bad_schema = dict(payload, schema="nope")
    assert "schema" in validate_payload_bytes(
        json.dumps(bad_schema).encode("utf-8")
    )
    for missing in ("entry", "dynamic_params", "stats", "program"):
        broken = {k: v for k, v in payload.items() if k != missing}
        assert missing in validate_payload_bytes(
            json.dumps(broken).encode("utf-8")
        )
    unparsable = dict(payload, program="module !!! where")
    assert "does not parse" in validate_payload_bytes(
        json.dumps(unparsable).encode("utf-8")
    )


def test_encode_decode_round_trip_preserves_everything():
    gp = _gp()
    result = repro.specialise(gp, "power", {"n": 6})
    decoded = decode_result(encode_result(result))
    assert repro.pretty_program(decoded.program) == repro.pretty_program(
        result.program
    )
    assert decoded.entry == result.entry
    assert decoded.dynamic_params == result.dynamic_params
    assert decoded.stats == result.stats
    assert decoded.module_names == result.module_names
    assert decoded.run(3) == 729


def test_payload_schema_marker():
    gp = _gp()
    payload = encode_result(repro.specialise(gp, "power", {"n": 2}))
    assert payload["schema"] == SPECCACHE_SCHEMA


def test_speccache_is_shareable_across_instances(tmp_path):
    gp = _gp()
    cache_a = SpecCache(str(tmp_path))
    cache_b = SpecCache(str(tmp_path))
    options = SpecOptions()
    key = residual_cache_key(gp.fingerprint(), "power", {"n": 3}, options)
    result = repro.specialise(gp, "power", {"n": 3})
    cache_a.put(key, encode_result(result))
    assert cache_b.get(key) is not None


# ---------------------------------------------------------------------------
# RTCG: generate's callables come from the ladder's memo.
# ---------------------------------------------------------------------------


def test_generate_lru_hit_returns_the_same_callable():
    gp = _gp()
    obs = Obs()
    first = generate(gp, "power", {"n": 3}, obs=obs)
    second = generate(gp, "power", {"n": 3}, obs=obs)
    assert second is first
    assert second(5) == 125
    counters = obs.metrics.snapshot()["counters"]
    assert counters["tier.emitted"] == 1
    assert counters["tier.promotions"] == 1
    assert counters["tier.memo_hits"] == 1


def test_generate_lru_distinguishes_requests():
    gp = _gp()
    obs = Obs()
    cube = generate(gp, "power", {"n": 3}, obs=obs)
    square = generate(gp, "power", {"n": 2}, obs=obs)
    assert cube is not square
    assert cube(2) == 8 and square(2) == 4
    counters = obs.metrics.snapshot()["counters"]
    assert counters["tier.emitted"] == 2
    assert "tier.memo_hits" not in counters


def test_generate_lru_invalidated_by_source_edit():
    cube = generate(_gp(POWER), "power", {"n": 3})
    other = generate(_gp(POWER_EDITED), "power", {"n": 3})
    assert other is not cube
    assert cube(2) == 8
    assert other(2) == 6


def test_generate_with_a_sink_bypasses_the_memo(tmp_path):
    seen = []
    options = SpecOptions(
        cache_dir=str(tmp_path), sink=lambda placement, d: seen.append(d.name)
    )
    first = generate(_gp(), "power", {"x": 2}, options)
    streamed = len(seen)
    second = generate(_gp(), "power", {"x": 2}, options)
    assert second is not first
    assert first(10) == second(10) == 1024
    assert streamed > 0 and len(seen) == 2 * streamed  # both runs streamed
    assert not os.path.isdir(os.path.join(str(tmp_path), "objects"))


def test_generate_with_cache_dir_loads_the_persisted_artifact(tmp_path):
    options = SpecOptions(cache_dir=str(tmp_path))
    assert generate(_gp(), "power", {"n": 3}, options).origin == "emitted"
    clear_tiers()  # a fresh process
    obs = Obs()
    cube = generate(_gp(), "power", {"n": 3}, options, obs=obs)
    assert (cube.origin, cube(2)) == ("code", 8)
    counters = obs.metrics.snapshot()["counters"]
    assert counters["tier.code_loads"] == 1
    assert "tier.emitted" not in counters
    assert not any(name.startswith("spec.") for name in counters)


# ---------------------------------------------------------------------------
# The CLI surface.
# ---------------------------------------------------------------------------


def test_cli_cache_dir_single_request(tmp_path, capsys):
    from repro.cli import main

    src = tmp_path / "src"
    src.mkdir()
    (src / "Power.mod").write_text(POWER)
    cache = str(tmp_path / "cache")
    assert main(["specialise", str(src), "power", "n=3", "--cache-dir", cache]) == 0
    cold_out = capsys.readouterr().out
    assert main(["specialise", str(src), "power", "n=3", "--cache-dir", cache]) == 0
    warm_out = capsys.readouterr().out
    assert warm_out == cold_out
    assert os.path.isdir(cache)
