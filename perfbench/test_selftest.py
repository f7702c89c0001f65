"""Self-test of the benchmark, at the smallest job sizes the CLI accepts.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import sheafsys.cli  # noqa: E402
import sheafsys.ode_behavior  # noqa: E402

from perfbench import harness, jobs, run, tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


def _smallest(workload, trace, monkeypatch, capsys):
    """One run of ``run.main`` at the smallest job sizes, off the recorded seed."""
    monkeypatch.setattr(jobs, "FULL", jobs.SMALLEST)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    *lines, last = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(last)


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(jobs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload, monkeypatch, capsys):
    lines, result = _smallest(workload, 0, monkeypatch, capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    for metric in SPEC["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name] == {"value": result["metrics"][name]["value"], "unit": unit}
        assert result["metrics"][name]["value"] > 0
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert any(line.startswith("error_rate   0.0000 ratio (0 failed") for line in lines)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload, monkeypatch, capsys):
    _, result = _smallest(workload, 1, monkeypatch, capsys)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(tracing.PER_LAYER)
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_wrong_expected_verdict_counts_in_error_rate(tmp_path):
    def make_job(index):
        job = jobs.make_job("sheaf_laws", 0, index, jobs.SMALLEST)
        job.commands[1].expect_pass = False  # the seed code passes this check
        return job

    checked, _, lines = run.run_untraced(sheafsys.cli, make_job, 0.0, tmp_path, {})
    assert [r.ok for r in checked] == [False, False]  # the job and its rerun
    assert "pass = True, expected False" in checked[0].failures[0]
    assert "error_rate   1.0000 ratio (2 failed / 2 attempted)" in lines


def test_residuals_are_checked_against_the_record(tmp_path):
    job = jobs.make_job("sheaf_laws", jobs.DEFAULT_SEED, 0, jobs.SMALLEST)
    result = harness.run_job(job, tmp_path / "job", sheafsys.cli.main)
    assert result.ok
    golden = {f"sheaf_laws/0/{name}": dict(r) for name, r in result.residuals.items()}
    harness.check_golden(result, golden)
    assert result.ok
    golden["sheaf_laws/0/linear_sheaf"]["worst_glue_residual"] += 1e-9
    harness.check_golden(result, golden)
    assert len(result.failures) == 1 and "worst_glue_residual" in result.failures[0]


def test_scaled_time_divides_by_the_measured_reference(monkeypatch):
    monkeypatch.setattr(harness, "reference_time", lambda: 2.0 * harness.REFERENCE_S)
    results, raw, scaled = harness.timed([lambda: sum(range(10**5))] * 3, scale=True)
    assert results == [sum(range(10**5))] * 3
    assert scaled == pytest.approx(raw / 2.0)
    _, raw, scaled = harness.timed([lambda: None], scale=False)
    assert scaled == raw


def test_tracer_restores_every_binding():
    before = (sheafsys.ode_behavior.integrate, sheafsys.ode_behavior.VectorField.__call__)
    with tracing.Tracer():
        assert sheafsys.ode_behavior.integrate is not before[0]
    assert (sheafsys.ode_behavior.integrate, sheafsys.ode_behavior.VectorField.__call__) == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "diagram", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
