"""The typed options facade (``repro.api``)."""

import dataclasses

import pytest

import repro
from repro import api
from repro.api import BuildOptions, SpecOptions
from repro.pipeline import build_dir
from repro.pipeline.faults import FaultPolicy

POWER = "module Power where\n\npower n x = if n == 1 then x else x * power (n - 1) x\n"


# ---------------------------------------------------------------------------
# The option objects themselves.
# ---------------------------------------------------------------------------


def test_options_are_frozen():
    opts = BuildOptions(jobs=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.jobs = 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        SpecOptions().strategy = "dfs"


def test_replace_returns_modified_copy():
    base = BuildOptions(jobs=2, keep_going=True)
    other = base.replace(jobs=8)
    assert other.jobs == 8 and other.keep_going is True
    assert base.jobs == 2, "the original is untouched"


def test_build_options_validate_jobs():
    with pytest.raises(ValueError):
        BuildOptions(jobs=0)


def test_spec_options_validate_strategy():
    with pytest.raises(ValueError):
        SpecOptions(strategy="sideways")


def test_force_residual_coerced_to_frozenset():
    opts = SpecOptions(force_residual=["power", "twice"])
    assert opts.force_residual == frozenset({"power", "twice"})
    assert BuildOptions(force_residual=None).force_residual == frozenset()


def test_fault_policy_resolution():
    assert BuildOptions(keep_going=True, retries=2).fault_policy() == (
        FaultPolicy(keep_going=True, retries=2)
    )
    custom = FaultPolicy(timeout=9.0)
    assert BuildOptions(policy=custom, retries=5).fault_policy() is custom


def test_options_compare_by_value():
    assert BuildOptions(jobs=3) == BuildOptions(jobs=3)
    assert SpecOptions(strategy="dfs") != SpecOptions()


# ---------------------------------------------------------------------------
# Resolving an entry point's ``options`` argument.
# ---------------------------------------------------------------------------


def test_unknown_keyword_is_a_type_error():
    gp = repro.compile_genexts(POWER)
    with pytest.raises(TypeError, match="warp_speed"):
        repro.specialise(gp, "power", {"n": 3}, warp_speed=9)


def test_wrong_options_type_rejected(tmp_path):
    with pytest.raises(TypeError, match="BuildOptions"):
        build_dir(str(tmp_path), SpecOptions())


def test_options_object_passes_through_unchanged():
    opts = SpecOptions(strategy="dfs")
    assert api.spec_options("specialise", opts) is opts
    assert api.build_options("build_dir", None) == BuildOptions()


# ---------------------------------------------------------------------------
# End to end through the public entry points.
# ---------------------------------------------------------------------------


def test_build_dir_accepts_options_object(tmp_path):
    (tmp_path / "Power.mod").write_text(POWER)
    result = build_dir(
        str(tmp_path), BuildOptions(cache_dir=str(tmp_path / "cache"))
    )
    assert result.analysed == ["Power"]


def test_specialise_accepts_options_object():
    gp = repro.compile_genexts(POWER)
    result = repro.specialise(
        gp, "power", {"n": 4}, SpecOptions(strategy="dfs")
    )
    assert result.run(3) == 81


def test_mix_specialise_accepts_options_object():
    from repro.specialiser import mix_specialise

    result = mix_specialise(POWER, "power", {"n": 2})
    assert result.run(5) == 25
