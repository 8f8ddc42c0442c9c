"""Regression tests for the silent-failure sweep: the daemon's
wall-clock uptime and the execution ladder's undecodable code
artifacts.  Each failure mode must now be accounted (a counter and,
where applicable, an event) instead of disappearing."""

import marshal
import time

import pytest

import repro
from repro.api import SpecOptions
from repro.backend.tiers import TierPolicy, clear_tiers, load_compiled
from repro.obs import Obs
from repro.pipeline.cache import ArtifactCache, CODE_KIND
from repro.serve import ServeConfig, SpecServer

POWER = """\
module Power where

power n x = if n == 1 then x else x * power (n - 1) x
"""


def _counters(obs):
    return dict(obs.metrics.snapshot()["counters"])


# ---------------------------------------------------------------------------
# serve/daemon.py: uptime must come from the monotonic clock
# ---------------------------------------------------------------------------


class TestDaemonClocks:
    @pytest.fixture
    def server(self, tmp_path):
        moddir = tmp_path / "modules"
        moddir.mkdir()
        with open(str(moddir / "Power.mod"), "w") as f:
            f.write(POWER)
        return SpecServer(ServeConfig(dir=str(moddir), jobs=1,
                                      warm_pool=False))

    def _health(self, server):
        response = server.handle_request({"op": "health"})
        assert response["ok"], response
        return response

    def test_uptime_survives_a_backwards_wall_clock_step(
        self, server, monkeypatch
    ):
        # An NTP step (or DST mishap) yanks the wall clock an hour into
        # the past.  Before the fix, uptime_s and program_age_s were
        # wall-clock subtractions and went negative.
        before = self._health(server)
        monkeypatch.setattr(time, "time", lambda: before["started_at"] - 3600)
        after = self._health(server)
        assert after["uptime_s"] >= 0
        assert after["program_age_s"] >= 0
        assert after["uptime_s"] >= before["uptime_s"]

    def test_wall_timestamps_are_display_only_and_frozen(self, server):
        # started_at / program_loaded_at are real wall-clock epochs
        # captured once at startup/load — not re-derived per request.
        first = self._health(server)
        second = self._health(server)
        assert first["started_at"] == second["started_at"]
        assert first["program_loaded_at"] == second["program_loaded_at"]
        now = time.time()
        assert abs(now - first["started_at"]) < 3600
        assert abs(now - first["program_loaded_at"]) < 3600

    def test_uptime_is_monotonic_across_requests(self, server):
        a = self._health(server)
        b = self._health(server)
        assert b["uptime_s"] >= a["uptime_s"] >= 0


# ---------------------------------------------------------------------------
# backend/tiers.py: undecodable code artifacts
# ---------------------------------------------------------------------------


class TestCodeDecodeMissAccounting:
    def _promoted_key(self, tmp_path):
        gp = repro.compile_genexts(POWER)
        from repro.backend.tiers import TierLadder

        options = SpecOptions(
            cache_dir=str(tmp_path), tier_policy=TierPolicy(hot_after=1)
        )
        ladder = TierLadder(gp, options=options)
        assert ladder.call("power", {"n": 5}, (2,)).value == 32
        return ladder.key_for("power", {"n": 5})

    def test_corrupt_artifact_counts_a_decode_miss(self, tmp_path):
        key = self._promoted_key(tmp_path)
        store = ArtifactCache(str(tmp_path))
        store.put_bytes(key, CODE_KIND, b"\x00garbage")
        clear_tiers()
        events = []
        obs = Obs()
        obs.bus.subscribe(
            "tier.code_decode_miss", lambda kind, payload: events.append(payload)
        )
        fn = load_compiled(store, key, obs=obs)
        # The fallback still works (recompiled from resid.py) but the
        # miss is visible.
        assert fn is not None and fn.origin == "source"
        assert fn(3) == 243
        assert _counters(obs)["tier.code_decode_miss"] == 1
        assert len(events) == 1
        assert events[0]["key"] == key
        assert "unmarshal" in events[0]["reason"]

    def test_stale_cache_tag_names_the_reason(self, tmp_path):
        key = self._promoted_key(tmp_path)
        store = ArtifactCache(str(tmp_path))
        record = marshal.loads(store.get_bytes(key, CODE_KIND))
        record["tag"] = "someone-elses-interpreter"
        del record["code"]
        store.put_bytes(key, CODE_KIND, marshal.dumps(record))
        clear_tiers()
        events = []
        obs = Obs()
        obs.bus.subscribe(
            "tier.code_decode_miss", lambda kind, payload: events.append(payload)
        )
        fn = load_compiled(store, key, obs=obs)
        assert fn is not None and fn.origin == "source"
        assert _counters(obs)["tier.code_decode_miss"] == 1
        assert "cache tag" in events[0]["reason"]

    def test_healthy_artifact_has_zero_misses(self, tmp_path):
        key = self._promoted_key(tmp_path)
        store = ArtifactCache(str(tmp_path))
        clear_tiers()
        obs = Obs()
        fn = load_compiled(store, key, obs=obs)
        assert fn is not None and fn.origin == "code"
        assert _counters(obs).get("tier.code_decode_miss", 0) == 0
