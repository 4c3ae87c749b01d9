"""Tests of the benchmark harness itself, on workloads small enough to run
in a second or two."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import hampack.pipeline  # noqa: E402

import harness  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = harness.Workload("tiny", (60,), (0.4,), 2, 2)
TINY_SWEEP = harness.Workload("tiny-sweep", (20, 30), (0.5,), 2, 1, sweep=True)


def checked(wl, seed, tmp_path):
    return harness.summarize(wl, harness.timed_pass(wl, seed, 0.0, 1, tmp_path))


@pytest.mark.parametrize("wl", [TINY, TINY_SWEEP], ids=lambda w: w.name)
def test_exact_counts_repeat_for_a_seed(wl, tmp_path):
    first = checked(wl, 3, tmp_path / "a")
    second = checked(wl, 3, tmp_path / "b")
    assert first.correct and first.failed == 0
    assert first.metrics["exposure.attempts"][0] > 0
    assert first.metrics == second.metrics
    assert first.sha256 == second.sha256


def test_another_seed_changes_report_sha256(tmp_path):
    assert checked(TINY, 3, tmp_path / "a").sha256 != checked(TINY, 4, tmp_path / "b").sha256


def test_tampered_cycle_is_an_error(tmp_path):
    unit = harness.run_unit(TINY, 0, 1, 1, tmp_path)
    success = next(t for t in unit.trials if t.report.outcome == "SUCCESS")
    cycle = success.report.cycles[0]
    cycle[1] = cycle[0]
    harness.check_unit(TINY, unit, harness.report_validator())
    result = harness.summarize(TINY, harness.Pass([unit], "", 0.0))
    assert not result.correct
    assert result.failed == 1
    assert result.metrics["error_rate"][0] == 1 / len(unit.trials)


def test_replay_with_other_bytes_is_an_error(tmp_path):
    validator = harness.report_validator()
    first = harness.checked_unit(TINY, 0, 0, 1, tmp_path, validator, None)
    again = harness.checked_unit(TINY, 0, 0, 1, tmp_path, validator, first)
    assert not any(t.misses for t in again.trials)
    first.trials[0].digest = b"other"
    again = harness.checked_unit(TINY, 0, 0, 1, tmp_path, validator, first)
    assert [t.misses for t in again.trials] == [["replay bytes differ"], []]


def test_throughput_is_scaled_to_reference_speed():
    runs = [harness.Unit(0, [harness.Trial(10, 0.5, 0)], wall=2.0, speed=0.5),
            harness.Unit(0, [harness.Trial(10, 0.5, 0)], wall=1.0, speed=1.0)]
    run = harness.Pass(runs, "", 0.0)
    assert harness.trials_per_s(run, scaled=False) == pytest.approx(1 / 1.5)
    assert harness.trials_per_s(run) == pytest.approx(1.0)


def test_missing_entry_reads_zero():
    original = hampack.pipeline.full_pipeline
    entries = {"pipeline.trial": [(hampack.pipeline, "full_pipeline")],
               "pipeline.gone": [(hampack.pipeline, "_no_such_layer")]}
    with Tracer(entries) as tracer:
        assert hampack.pipeline.full_pipeline is not original
        hampack.pipeline.full_pipeline(12, 0.5, 0)
    assert hampack.pipeline.full_pipeline is original
    assert tracer.stats["pipeline.trial"].calls == 1
    assert tracer.stats["pipeline.gone"].calls == 0
    assert tracer.stats["pipeline.gone"].self_s == 0.0
    assert len(tracer.notes) == 1 and "_no_such_layer" in tracer.notes[0]


@pytest.mark.parametrize("trace", [False, True])
def test_every_manifest_metric_is_measured_with_its_unit(trace, monkeypatch,
                                                         tmp_path):
    monkeypatch.setattr(harness, "ROOT", tmp_path)
    monkeypatch.setattr(harness, "setup_seconds", lambda: 0.25)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in manifest["workloads"]} == set(harness.WORKLOADS)
    result = harness.measure(TINY_SWEEP, 0, 0.0, trace=trace)
    assert result.correct
    for m in manifest["per_layer" if trace else "end_to_end"]:
        assert result.metrics[m["name"]][1] == m["unit"]
    if trace:
        assert not result.notes
        assert result.metrics["trace.coverage"][0] == pytest.approx(1.0, abs=0.05)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "dense-n400", "--seed", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
