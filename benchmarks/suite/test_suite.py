"""Self-test of the benchmark suite.  Run it explicitly:

    python3 -m pytest benchmarks/suite/test_suite.py

(The tier-1 run collects ``tests/`` only.)  It runs every workload in
``--smoke`` mode, traced and untraced, and checks the suite's own
promises: declared metrics only, reproducible inputs, and failure
accounting that catches a wrong residual.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("build-graph", "spec-cold", "serve-mix", "exec-hot")


def bench(*args, cwd=ROOT):
    """One ``run.py`` subprocess; returns ``(process, result or None)``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "suite", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc, result


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def smoke():
    started = time.perf_counter()
    runs = {
        w: bench("--workload", w, "--seed", "0", "--seconds", "1", "--trace", "0", "--smoke")
        for w in WORKLOADS
    }
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    runs = {
        w: bench(
            "--workload", w, "--seed", "0", "--seconds", "2", "--trace", "1",
            "--smoke", "--trace-dir", str(out),
        )
        for w in WORKLOADS
    }
    return runs, out


def test_declares_the_four_workloads(declared):
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert declared["paths"] == ["benchmarks/suite"]


def test_smoke_runs_every_workload_without_failures(smoke):
    runs, elapsed = smoke
    assert elapsed < 60, "smoke runs took %.1fs" % elapsed
    for workload, (proc, result) in runs.items():
        assert proc.returncode == 0, (workload, proc.stdout[-2000:], proc.stderr[-2000:])
        assert result["correct"] and result["failed"] == 0, (workload, result)
        assert result["attempted"] >= 1
        assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_untraced_run_emits_exactly_the_declared_end_to_end_metrics(smoke, declared):
    want = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    for workload, (_, result) in smoke[0].items():
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, workload
        for name, m in result["metrics"].items():
            assert m["value"] > 0, (workload, name)


def test_traced_run_emits_exactly_the_declared_per_layer_metrics(traced, declared):
    runs, out = traced
    want = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for workload, (proc, result) in runs.items():
        assert proc.returncode == 0, (workload, proc.stderr[-2000:])
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, workload
        shares = sum(
            m["value"] for name, m in result["metrics"].items() if name.endswith("_pct")
            and name != "trace.overhead_pct"
        )
        assert shares == pytest.approx(100.0), workload


def test_traces_pass_the_schema_validator_and_attribute_all_time(traced):
    _, out = traced
    for workload in WORKLOADS:
        trace = os.path.join(str(out), workload, "trace.json")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.schema", trace],
            env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout
        with open(os.path.join(str(out), workload, "layers.json")) as f:
            detail = json.load(f)
        for scope in ("setup", "loop"):
            part = detail[scope]
            assert part["unclassified"] == [], (workload, scope)
            assert part["attributed_us"] == pytest.approx(part["traced_us"], rel=0.1), (
                workload, scope,
            )


def test_same_seed_same_inputs_other_seed_other_inputs():
    for workload, make in workloads.INPUTS.items():
        first = make(0, smoke=True)["digest"]
        assert make(0, smoke=True)["digest"] == first, workload
        assert make(1, smoke=True)["digest"] != first, workload


def test_planted_wrong_residual_counts_as_a_failure(monkeypatch, capsys):
    planted = []
    specialise = run.engine.specialise

    def perturbed(*args, **kwargs):
        result = specialise(*args, **kwargs)
        if not planted:
            planted.append(result)
            honest = result.run
            result.run = lambda *a, **k: honest(*a, **k) + 1
        return result

    monkeypatch.setattr(run.engine, "specialise", perturbed)
    result = run.run_workload("spec-cold", 0, 1.0, smoke=True)
    assert planted
    assert result["failed"] == 1 and not result["correct"]
    assert "FAILED" in capsys.readouterr().out


def test_without_the_program_the_runner_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(
        HERE, str(tmp_path / "benchmarks" / "suite"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc, result = bench(
        "--workload", "spec-cold", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert result is None
