"""Batch driver: seeded trial grids, aggregation, and report emission.

A batch runs trials over an (n, p) grid with per-trial seeds derived as
seed + trial_index, so any single trial can be replayed in isolation.
Workers share nothing and aggregation folds reports in task order, which
makes the parallel path produce the same summary as the sequential one.
Wall-clock numbers live in a separate block that the deterministic
projection leaves out.
"""

import csv
import json
import re
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from .errors import InvalidInputError
from .pipeline import (TrialReport, check_trial_config, full_pipeline,
                       load_report_schema, report_schema_error)

__all__ = ["TrialConfig", "BatchSummary", "run_trials", "emit",
           "load_report_schema", "TRIAL_CSV_COLUMNS", "STATS_CSV_COLUMNS",
           "write_stats_csv"]

TRIAL_CSV_COLUMNS = ["n", "p", "trial", "seed", "outcome", "failure_stage",
                     "delta", "verified", "max_attempts"]
STATS_CSV_COLUMNS = ["n", "p", "statistic", "value", "samples", "seed"]

_TAG = re.compile(r"(factor|merge)\[\d+\]")


@dataclass(frozen=True)
class TrialConfig:
    """Grid of trial parameters; one cell per (n, p) pair."""

    n_values: tuple[int, ...]
    p_values: tuple[float, ...]
    seed: int = 0
    mode: str = "practical"
    trials: int = 1
    retries: int = 3
    t_max: int = 10
    q_override: float | None = None
    jobs: int = 1

    def __post_init__(self):
        if not self.n_values or not self.p_values:
            raise InvalidInputError("n and p grids must be nonempty")
        if self.trials < 0:
            raise InvalidInputError(f"need trials >= 0, got {self.trials}")
        if self.jobs < 1:
            raise InvalidInputError(f"need jobs >= 1, got {self.jobs}")
        for n in self.n_values:  # a bad knob fails before any trial runs
            for p in self.p_values:
                check_trial_config(dict(n=n, p=p, seed=self.seed, mode=self.mode,
                                        retries=self.retries, t_max=self.t_max,
                                        q_override=self.q_override))

    def tasks(self) -> list[tuple]:
        return [(n, p, self.seed + t, self.mode, self.retries, self.t_max,
                 self.q_override, t)
                for n in self.n_values for p in self.p_values
                for t in range(self.trials)]


def _stage_key(stage: str | None) -> str:
    """Collapse per-merge tags so breakdowns group by mechanism."""
    if stage is None:
        return "none"
    parts = [s for s in stage.split(".") if not _TAG.fullmatch(s)]
    return ".".join(parts) if parts else stage


def _run_task(task: tuple) -> TrialReport:
    n, p, seed, mode, retries, t_max, q_override, _ = task
    return full_pipeline(n=n, p=p, seed=seed, mode=mode, retries=retries,
                         t_max=t_max, q_override=q_override)


@dataclass
class BatchSummary:
    """Aggregate view of one batch: per-cell rates plus per-trial rows.

    cells holds, per (n, p), the success rate, the failure-stage breakdown
    (error trials are counted under their recording stage too, so successes
    plus breakdown always total the trials), the mean delta and the
    distribution of the worst per-edge attempt count.  runtime is
    wall-clock only and excluded from the deterministic projection.
    """

    config: dict
    cells: list[dict] = field(default_factory=list)
    trial_rows: list[dict] = field(default_factory=list)
    runtime: dict = field(default_factory=dict)

    def deterministic_projection(self) -> dict:
        return {
            "config": self.config,
            "cells": self.cells,
            "trial_rows": self.trial_rows,
        }

    def to_json_dict(self) -> dict:
        out = self.deterministic_projection()
        out["runtime"] = self.runtime
        return out


def _trial_row(report: TrialReport, trial: int) -> dict:
    """One TRIAL_CSV_COLUMNS row; a field the trial never reached is empty."""
    audit = report.ledger_audit
    return {
        "n": report.n,
        "p": report.p,
        "trial": trial,
        "seed": report.seed,
        "outcome": report.outcome,
        "failure_stage": report.failure_stage or "",
        "delta": report.delta if report.delta is not None else "",
        "verified": (report.verification["ok"]
                     if report.verification is not None else ""),
        "max_attempts": audit["max_attempts"] if audit is not None else "",
    }


def _summarize(config: TrialConfig, tasks: list[tuple],
               reports: list[TrialReport], seconds: float) -> BatchSummary:
    # one pass folds each trial into its cell
    grid = [(n, p) for n in config.n_values for p in config.p_values]
    folds = {cell: (Counter(), Counter(), Counter(), []) for cell in grid}
    rows = []
    for task, r in zip(tasks, reports):
        rows.append(_trial_row(r, task[-1]))
        outcomes, stages, attempts, deltas = folds[task[:2]]
        outcomes[r.outcome] += 1
        if r.outcome != "SUCCESS":
            stages[_stage_key(r.failure_stage)] += 1
        if r.ledger_audit is not None:
            attempts[str(r.ledger_audit["max_attempts"])] += 1
        if r.delta is not None:
            deltas.append(r.delta)

    cells = []
    for n, p in grid:
        outcomes, stages, attempts, deltas = folds[n, p]
        total, successes = outcomes.total(), outcomes["SUCCESS"]
        cells.append({
            "n": n,
            "p": p,
            "trials": total,
            "successes": successes,
            "success_rate": successes / total if total else None,
            "errors": outcomes["ERROR"],
            "failure_stages": {k: stages[k] for k in sorted(stages)},
            "mean_delta": sum(deltas) / len(deltas) if deltas else None,
            "max_attempts_histogram": {k: attempts[k] for k in sorted(attempts, key=int)},
        })

    runtime = {
        "total_seconds": seconds,
        "mean_seconds_per_trial": seconds / len(tasks) if tasks else 0.0,
    }
    # the worker count cannot change the results, so the summary leaves it out
    summary_config = asdict(config)
    del summary_config["jobs"]
    summary_config.update(n_values=list(config.n_values), p_values=list(config.p_values))
    return BatchSummary(config=summary_config, cells=cells, trial_rows=rows,
                        runtime=runtime)


def run_trials(config: TrialConfig) -> tuple[BatchSummary, list[TrialReport]]:
    """Run the whole grid and aggregate; deterministic given the config.

    With jobs > 1 trials run in a process pool; reports are still folded in
    task order, so the summary's deterministic projection is identical to a
    sequential run.
    """
    tasks = config.tasks()
    start = time.perf_counter()
    if config.jobs == 1 or len(tasks) <= 1:
        reports = [_run_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            reports = list(pool.map(_run_task, tasks, chunksize=1))
    seconds = time.perf_counter() - start
    return _summarize(config, tasks, reports, seconds), reports


def emit(obj, format: str, path) -> None:
    """Write a report or summary as json or csv.

    Report JSON is validated against the shipped schema before writing.
    CSV uses one row per trial with TRIAL_CSV_COLUMNS; an empty batch
    yields a header-only file.
    """
    path = str(path)
    if format == "json":
        if not isinstance(obj, (TrialReport, BatchSummary)):
            raise InvalidInputError(f"cannot emit {type(obj).__name__} as json")
        doc = obj.to_json_dict()
        if isinstance(obj, TrialReport) and (error := report_schema_error(doc)) is not None:
            raise error  # the pipeline built a malformed report: a bug
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
        return
    if format == "csv":
        if isinstance(obj, BatchSummary):
            rows = obj.trial_rows
        elif isinstance(obj, TrialReport):
            rows = [_trial_row(obj, 0)]
        else:
            raise InvalidInputError(f"cannot emit {type(obj).__name__} as csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=TRIAL_CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        return
    raise InvalidInputError(f"unknown format {format!r}")


def write_stats_csv(rows: list[dict], fh) -> None:
    """Probe output as (n, p, statistic, value, samples, seed) rows.

    fh is an open text file; open it with newline="" so the csv module's
    CRLF line ends reach it unchanged.
    """
    writer = csv.DictWriter(fh, fieldnames=STATS_CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
