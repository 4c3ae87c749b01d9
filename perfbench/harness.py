"""Seeded trial workloads, their output checks and their metrics.

A workload is a fixed round of units of trials, drawn from the seed.
The round runs again and again until the measuring time is spent, but at
least MIN_ROUNDS times.  The first round's reports give every exact
count, the success rate and report_sha256, so those repeat exactly for a
seed whatever the machine's speed; every later run of a unit must give
the same bytes.  Trial i of a cell uses seed + i.

A shared machine's speed drifts by a quarter and more over minutes, which
would swamp the change a program makes.  So a fixed calibration kernel
runs between units, and every timed end-to-end figure is scaled to the
machine's reference speed, at which the kernel takes CALIBRATION_REF_S.
Throughput times each unit by the median of its scaled runs, so a stall
that the kernel misses moves it little.

Each unit's outputs are checked, and its reports dropped, right after the
unit and outside the timed region, so neither the checks nor reports kept
alive for them weigh on later units' time or on peak memory.

The caller puts the checkout's src/ on sys.path before importing this.
"""

import contextlib
import gc
import hashlib
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

import hampack.pipeline
import hampack.runner
from hampack import (STREAM_LABELS, InvalidInputError, TrialConfig, delta_pm,
                     verify_packing)
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

TRIAL_KNOBS = {"mode": "practical", "retries": 8, "t_max": 10, "q_override": 1.0}
SETUP_STARTS = 7
MIN_ROUNDS = 2
CALIBRATION_REF_S = 0.09
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import numpy, jsonschema, hampack; "
              "hampack.runner.load_report_schema()")
COUNTS = ("exposure.attempts", "exposure.max_attempts", "exposure.pool_initial",
          "exposure.pool_consumed", "merge.attempts", "merge.ok",
          "matching.delta_sum", "rotation.rounds",
          *(f"rng.draws.{label}" for label in STREAM_LABELS))


@dataclass(frozen=True)
class Workload:
    """One seeded input set.

    A round is round_units units; a unit runs trials_per_cell trials in
    every (n, p) cell.  A direct workload calls full_pipeline and
    json_bytes per trial; a sweep runs each unit through run_trials with
    the process pool and writes the summary and every report with emit.
    """

    name: str
    n_values: tuple[int, ...]
    p_values: tuple[float, ...]
    trials_per_cell: int
    round_units: int
    sweep: bool = False

    def unit_tasks(self, seed: int, unit: int) -> list[tuple[int, float, int]]:
        """(n, p, seed) of each trial of one unit, in run_trials task order."""
        base = seed + unit * self.trials_per_cell
        return [(n, p, base + t) for n in self.n_values for p in self.p_values
                for t in range(self.trials_per_cell)]


WORKLOADS = {w.name: w for w in (
    Workload("dense-n400", (400,), (0.3,), 1, 8),
    Workload("sparse-n800", (800,), (0.02,), 1, 8),
    Workload("sweep-small", (50, 100, 200), (0.2, 0.4), 3, 2, sweep=True),
)}


@dataclass
class Trial:
    n: int
    p: float
    seed: int
    report: object = None         # dropped once the trial is checked
    data: bytes | None = None     # json_bytes() of the report, likewise
    raised: str | None = None     # exception type when the trial raised
    outcome: str | None = None
    digest: bytes = b""           # sha256 of replay_bytes()
    counts: dict = field(default_factory=dict)
    misses: list[str] = field(default_factory=list)

    def replay_bytes(self) -> bytes:
        return self.data if self.raised is None else f"raised {self.raised}".encode()

    @property
    def failed(self) -> bool:
        return self.raised is not None or self.outcome == "ERROR" or bool(self.misses)


@dataclass
class Unit:
    index: int
    trials: list[Trial]
    wall: float = 0.0
    speed: float = 1.0      # machine speed over the run, reference = 1
    batch_s: float = 0.0    # run_trials wall time, on a sweep
    replay: "Unit | None" = None   # its untraced run, in a traced pass


def run_unit(wl: Workload, seed: int, index: int, jobs: int, tmp: Path) -> Unit:
    """Run one unit through the public API; names are looked up at call
    time so that a traced pass sees the wrapped entries.  Each unit starts
    from a collected heap, so garbage left by the checks is not charged to
    it."""
    gc.collect()
    start = time.perf_counter()
    unit = Unit(index, [Trial(n, p, s) for n, p, s in wl.unit_tasks(seed, index)])
    if not wl.sweep:
        for t in unit.trials:
            try:
                t.report = hampack.pipeline.full_pipeline(t.n, t.p, t.seed, **TRIAL_KNOBS)
                t.data = t.report.json_bytes()
            except Exception as exc:  # a raising trial is a failed operation
                t.raised = type(exc).__name__
        unit.wall = time.perf_counter() - start
        return unit
    config = TrialConfig(wl.n_values, wl.p_values, seed=unit.trials[0].seed,
                         trials=wl.trials_per_cell, jobs=jobs, **TRIAL_KNOBS)
    try:
        summary, reports = hampack.runner.run_trials(config)
    except Exception as exc:
        for t in unit.trials:
            t.raised = type(exc).__name__
        unit.wall = time.perf_counter() - start
        return unit
    unit.batch_s = time.perf_counter() - start
    out = tmp / f"unit{index}"
    out.mkdir(parents=True, exist_ok=True)
    hampack.runner.emit(summary, "json", out / "summary.json")
    hampack.runner.emit(summary, "csv", out / "summary.csv")
    for i, (t, report) in enumerate(zip(unit.trials, reports)):
        t.report = report
        try:
            hampack.runner.emit(report, "json", out / f"trial{i}.json")
        except jsonschema.ValidationError as exc:
            t.misses.append(f"schema: {exc.message}")
    unit.wall = time.perf_counter() - start
    return unit


def report_counts(report) -> dict[str, int]:
    """Exact counts read from one report; they need no tracing."""
    c = dict.fromkeys(COUNTS, 0)
    c["matching.delta_sum"] = report.delta or 0
    if report.ledger_audit is not None:
        c["exposure.attempts"] = report.ledger_audit["total_attempts"]
        c["exposure.max_attempts"] = report.ledger_audit["max_attempts"]
    diag = report.diagnostics
    if "pool" in diag:
        c["exposure.pool_initial"] = diag["pool"]["initial"]
        c["exposure.pool_consumed"] = diag["pool"]["consumed"]
    for label, draws in diag.get("draw_counts", {}).items():
        c[f"rng.draws.{label}"] = draws
    for merge in (m for log in diag.get("merge_logs", []) for m in log):
        c["merge.attempts"] += merge["attempts"]
        c["merge.ok"] += merge["ok"]
        c["rotation.rounds"] += len(merge["diagnostics"].get("rounds", []))
    return c


def check_unit(wl: Workload, unit: Unit, validator, first: Unit | None = None) -> None:
    """Check one unit's outputs and read its counts, recording misses.

    A unit's first run re-verifies every SUCCESS and validates every report
    against the shipped schema (on a sweep, emit already has).  A later run
    is a replay of first: each trial's json_bytes() must equal those of the
    first run, which makes checking the same report again needless.
    """
    for t, t_first in zip(unit.trials, first.trials if first else unit.trials):
        if t.raised is None:
            report = t.report
            if t.data is None:
                t.data = report.json_bytes()
            t.outcome = report.outcome
            t.counts = report_counts(report)
        t.digest = hashlib.sha256(t.replay_bytes()).digest()
        if first is not None:
            if t.digest != t_first.digest:
                t.misses.append("replay bytes differ")
        elif t.raised is None:
            if report.outcome == "SUCCESS":
                d_final = report.d_final
                try:
                    ok = verify_packing(d_final, report.cycles, delta_pm(d_final)).ok
                except InvalidInputError:   # a cycle that is not even a cycle
                    ok = False
                if not ok:
                    t.misses.append("success does not re-verify")
            if not wl.sweep:
                error = jsonschema.exceptions.best_match(
                    validator.iter_errors(report.to_json_dict()))
                if error is not None:
                    t.misses.append(f"schema: {error.message}")


@dataclass
class Pass:
    """The checked units of one timed pass, in the order they ran, and the
    units run untimed only to be checked."""

    units: list[Unit]
    sha256: str
    first_round_peak_mb: float
    untimed: list[Unit] = field(default_factory=list)

    @property
    def trials(self) -> list[Trial]:
        return [t for unit in self.units + self.untimed for t in unit.trials]

    @property
    def busy_s(self) -> float:
        return sum(u.wall for u in self.units)


def kernel_seconds() -> float:
    """Seconds for a fixed kernel in the manner of hampack's own work: dict
    and set updates that stay in cache, then a set of 80 000 vertex pairs,
    as in the availability pool, that does not."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    seen = set()
    for i in range(160_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
        seen.add(i * 7919 % 10007)
    sorted(counts.items(), key=lambda kv: kv[1])
    pairs = {(u, v) for u in range(1, 284) for v in range(1, 284) if u != v}
    del pairs
    return time.perf_counter() - start


def calibrate() -> float:
    """Mean seconds of the kernel over the CPUs this process may use, run
    on each in turn, since a sweep's workers use them all.  The collector
    is off meanwhile, so that the time does not depend on how many objects
    the program keeps alive."""
    cpus = os.sched_getaffinity(0)
    gc.disable()
    try:
        times = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(kernel_seconds())
        return statistics.fmean(times)
    finally:
        os.sched_setaffinity(0, cpus)
        gc.enable()


def report_validator():
    return jsonschema.Draft7Validator(hampack.runner.load_report_schema())


def checked_unit(wl: Workload, seed: int, index: int, jobs: int, tmp: Path,
                 validator, first: Unit | None, tracer=None, sha=None) -> Unit:
    """Run one unit, check it, and drop its reports.  A unit's first run
    adds its bytes to sha; a later one is checked against the first."""
    with tracer or contextlib.nullcontext():
        unit = run_unit(wl, seed, index, jobs, tmp)
    check_unit(wl, unit, validator, first)
    if first is None and sha is not None:
        for t in unit.trials:
            sha.update(t.replay_bytes())
    for t in unit.trials:
        t.report = t.data = None
    return unit


def timed_pass(wl: Workload, seed: int, seconds: float, jobs: int, tmp: Path,
               tracer: Tracer | None = None) -> Pass:
    """Run rounds of units until their timed seconds reach seconds and at
    least MIN_ROUNDS rounds are done, checking each unit as it ends and
    calibrating between units.

    A round may be cut short once both hold, so a run ends within one unit
    of seconds.  Every run of a unit after its first is a replay whose
    bytes must match.  Under a tracer every unit is run again untraced
    right after its traced run, so that the tracing overhead compares runs
    made under the same load.  report_sha256 hashes the concatenated
    json_bytes() of the first round, in trial order.  Peak memory is read
    once the first round is done: it would otherwise grow with the number
    of rounds run, which must not make a faster program read as a larger
    one.
    """
    validator = report_validator()
    sha = hashlib.sha256()
    run = Pass([], "", 0.0)
    first: list[Unit] = []
    busy = 0.0
    before = calibrate()
    while len(run.units) < MIN_ROUNDS * wl.round_units or busy < seconds:
        index = len(run.units) % wl.round_units
        ref = first[index] if len(first) > index else None
        unit = checked_unit(wl, seed, index, jobs, tmp / "run", validator, ref,
                            tracer, sha)
        after = calibrate()
        unit.speed = 2 * CALIBRATION_REF_S / (before + after)
        before = after
        busy += unit.wall
        if ref is None:
            first.append(unit)
            ref = unit
        if tracer is not None:
            unit.replay = checked_unit(wl, seed, index, jobs, tmp / "replay",
                                       validator, ref)
            run.untimed.append(unit.replay)
        run.units.append(unit)
        if len(run.units) == wl.round_units:
            run.first_round_peak_mb = peak_rss_mb()
    run.sha256 = sha.hexdigest()
    return run


def trials_per_s(run: Pass, scaled: bool = True) -> float:
    """Completed trials per second of one round, each unit timed by the
    median of its runs, at the reference speed unless scaled is false.

    A trial that raised completes nothing, so it counts no trial but its
    time counts.
    """
    runs: dict[int, list[Unit]] = {}
    for u in run.units:
        runs.setdefault(u.index, []).append(u)
    seconds = sum(statistics.median(u.wall * (u.speed if scaled else 1.0) for u in us)
                  for us in runs.values())
    completed = sum(t.raised is None for us in runs.values() for t in us[0].trials)
    return completed / seconds


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def setup_seconds(starts: int = SETUP_STARTS) -> float:
    """Median time for a fresh interpreter to import and load the schema,
    at the reference speed."""
    times = []
    before = calibrate()
    for _ in range(starts):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    speed = 2 * CALIBRATION_REF_S / (before + calibrate())
    return statistics.median(times) * speed


@dataclass
class Result:
    attempted: int
    failed: int
    misses: list[str]
    sha256: str
    metrics: dict[str, tuple[float, str]]   # name -> (value, unit)
    layer_calls: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.misses


def summed_counts(trials: list[Trial]) -> dict[str, int]:
    total = dict.fromkeys(COUNTS, 0)
    for t in trials:
        for k, v in t.counts.items():
            total[k] = max(total[k], v) if k == "exposure.max_attempts" else total[k] + v
    return total


def summarize(wl: Workload, run: Pass) -> Result:
    trials = run.trials
    first_round = [t for unit in run.units[:wl.round_units] for t in unit.trials]
    counts = summed_counts(first_round)
    metrics = {k: (v, "count") for k, v in counts.items()}
    metrics["merge.success_ratio"] = (
        counts["merge.ok"] / counts["merge.attempts"] if counts["merge.attempts"] else 0.0,
        "fraction")
    metrics["success_rate"] = (
        sum(t.outcome == "SUCCESS" for t in first_round) / len(first_round), "fraction")
    n_failed = sum(t.failed for t in trials)
    metrics["error_rate"] = (n_failed / len(trials), "fraction")
    return Result(
        attempted=len(trials), failed=n_failed,
        misses=[f"trial n={t.n} p={t.p} seed={t.seed}: {m}"
                for t in trials for m in t.misses],
        sha256=run.sha256, metrics=metrics)


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> Result:
    """Run one workload and check it; traced when trace is true.

    End-to-end metrics come only from an untraced run.  A traced run keeps
    every trial in this process (jobs=1) so that spans nest, and on a
    sweep replays its first unit on the process pool for the pool's
    speed-up.
    """
    jobs = min(2, os.cpu_count() or 1) if wl.sweep else 1
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        if not trace:
            run = timed_pass(wl, seed, seconds, jobs, tmp)
            result = summarize(wl, run)
            result.metrics["trials_per_s"] = (trials_per_s(run), "trials/s")
            result.metrics["trials_per_s.unscaled"] = (
                trials_per_s(run, scaled=False), "trials/s")
            result.metrics["machine.speed"] = (
                statistics.median(u.speed for u in run.units), "x")
            result.metrics["peak_rss_mb"] = (run.first_round_peak_mb, "MB")
            result.metrics["setup_s"] = (setup_seconds(), "s")
            return result
        tracer = Tracer()
        run = timed_pass(wl, seed, seconds, 1, tmp, tracer=tracer)
        speedup = 1.0
        if jobs > 1:
            first = run.units[0]
            pooled = checked_unit(wl, seed, 0, jobs, tmp / "pool",
                                  report_validator(), first)
            run.untimed.append(pooled)
            speedup = first.replay.batch_s / pooled.batch_s
    result = summarize(wl, run)
    m = result.metrics
    for layer, stats in tracer.stats.items():
        if layer != "pipeline.trial":
            m[f"{layer}_s"] = (stats.self_s, "s")
    m["pipeline.unattributed_s"] = (tracer.stats["pipeline.trial"].self_s, "s")
    # attempts happen anywhere inside conversion, so the rate divides by
    # conversion's inclusive seconds, scans and rotations included
    traced = [t for u in run.units for t in u.trials]
    attempts = summed_counts(traced)["exposure.attempts"]
    convert_s = tracer.stats["merge.convert"].total_s
    m["exposure.attempts_per_s"] = (attempts / convert_s if convert_s else 0.0, "1/s")
    m["runner.parallel_speedup"] = (speedup, "x")
    m["trace.overhead"] = (run.busy_s / sum(u.replay.wall for u in run.units), "x")
    m["trace.coverage"] = (tracer.self_seconds() / run.busy_s, "fraction")
    m["trace.wall_s"] = (run.busy_s, "s")
    result.layer_calls = {layer: s.calls for layer, s in tracer.stats.items()}
    result.notes = tracer.notes
    return result
