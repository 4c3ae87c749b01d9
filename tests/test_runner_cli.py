"""Batch runner, emission formats, and the command-line front door."""

import csv
import hashlib
import json

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from hampack.cli import main
from hampack.errors import InvalidInputError
from hampack.graphs import BipartiteGraph, Digraph
import hampack.runner
from hampack.pipeline import full_pipeline, phase_one, report_schema_error
from hampack.runner import (
    STATS_CSV_COLUMNS,
    TRIAL_CSV_COLUMNS,
    BatchSummary,
    TrialConfig,
    _stage_key,
    emit,
    load_report_schema,
    run_trials,
)


def small_config(**kw):
    defaults = dict(n_values=(12,), p_values=(0.5,), seed=3, trials=4,
                    retries=8, q_override=1.0)
    defaults.update(kw)
    return TrialConfig(**defaults)


class TestTrialConfig:
    def test_rejects_empty_grids(self):
        with pytest.raises(InvalidInputError):
            TrialConfig(n_values=(), p_values=(0.5,))
        with pytest.raises(InvalidInputError):
            TrialConfig(n_values=(10,), p_values=())

    def test_rejects_bad_counts(self):
        with pytest.raises(InvalidInputError):
            TrialConfig(n_values=(10,), p_values=(0.5,), trials=-1)
        with pytest.raises(InvalidInputError):
            TrialConfig(n_values=(10,), p_values=(0.5,), jobs=0)
        with pytest.raises(InvalidInputError):
            TrialConfig(n_values=(10,), p_values=(0.5,), mode="fast")

    def test_seeds_derived_from_trial_index(self):
        tasks = small_config(trials=3).tasks()
        assert [t[2] for t in tasks] == [3, 4, 5]

    @pytest.mark.parametrize("knobs, message", [
        ({"retries": -1}, "config.retries: -1 is less than the minimum of 0"),
        ({"t_max": 0}, "config.t_max: 0 is less than the minimum of 1"),
        ({"n_values": (12, -5)}, "config.n: -5 is less than the minimum of 0"),
        ({"p_values": (0.5, 1.5)}, "config.p: 1.5 is greater than the maximum of 1"),
    ])
    def test_rejects_what_no_report_can_hold(self, knobs, message):
        with pytest.raises(InvalidInputError, match=message):
            small_config(**knobs)

    def test_accepts_what_the_analysis_rejects(self):
        # n < 5 and an out-of-range q_override are ERROR reports, not bad configs
        summary, reports = run_trials(small_config(n_values=(3,), q_override=2.0, trials=2))
        assert [r.outcome for r in reports] == ["ERROR", "ERROR"]
        assert summary.cells[0]["errors"] == 2


class TestStageKey:
    def test_strips_merge_tags(self):
        assert _stage_key("factor[2].merge[3].step5") == "step5"
        assert _stage_key("factor[0].merge[1].step4.rotate.left") == "step4.rotate.left"
        assert _stage_key("matchings") == "matchings"
        assert _stage_key("parameters") == "parameters"
        assert _stage_key(None) == "none"


class TestRunTrials:
    def test_zero_trials_empty_summary(self):
        summary, reports = run_trials(small_config(trials=0))
        assert reports == []
        assert summary.trial_rows == []
        assert summary.cells[0]["trials"] == 0
        assert summary.cells[0]["success_rate"] is None

    def test_zero_density_all_trivial_success(self):
        summary, reports = run_trials(small_config(p_values=(0.0,), trials=3,
                                                   q_override=None))
        cell = summary.cells[0]
        assert cell["successes"] == 3
        assert cell["mean_delta"] == 0.0
        assert all(r.outcome == "SUCCESS" and r.delta == 0 for r in reports)

    def test_cell_accounting_invariant(self):
        summary, _ = run_trials(small_config(trials=6))
        for cell in summary.cells:
            assert (cell["successes"] + sum(cell["failure_stages"].values())
                    == cell["trials"])

    def test_replayed_batch_is_identical(self):
        a, ra = run_trials(small_config())
        b, rb = run_trials(small_config())
        assert a.deterministic_projection() == b.deterministic_projection()
        assert [r.json_bytes() for r in ra] == [r.json_bytes() for r in rb]

    def test_parallel_matches_sequential(self):
        seq, rs = run_trials(small_config(jobs=1))
        par, rp = run_trials(small_config(jobs=2))
        assert seq.deterministic_projection() == par.deterministic_projection()
        assert [r.json_bytes() for r in rs] == [r.json_bytes() for r in rp]

    def test_summary_bytes_pinned(self):
        # computed before the summary became a one-pass fold: an ERROR cell,
        # trivial successes, a cell mixing success with step2 and step5
        # failures, and histogram keys that sort as integers (9 before 10)
        summary, _ = run_trials(small_config(n_values=(3, 12, 20), p_values=(0.0, 0.5),
                                             seed=5, trials=5))
        assert summary.cells[-1]["max_attempts_histogram"] == {"1": 1, "7": 1, "9": 2, "10": 1}
        got = hashlib.sha256(json.dumps(summary.deterministic_projection()).encode())
        assert (got.hexdigest()
                == "962dddb0c2e7ea1bcdd925955049d6428ac7ad4103e3a80e7748f6c4f27f7a28")

    def test_repeated_grid_value_cells_match(self):
        summary, _ = run_trials(small_config(n_values=(12, 12), trials=2))
        first, second = summary.cells
        assert first == second and first["trials"] == 4

    def test_summary_aggregates_reports_exactly(self):
        summary, reports = run_trials(small_config(trials=5))
        assert len(summary.trial_rows) == 5
        for row, rep in zip(summary.trial_rows, reports):
            assert row["outcome"] == rep.outcome
            assert row["seed"] == rep.seed


class TestEmit:
    def test_report_json_round_trip(self, tmp_path):
        report = full_pipeline(n=12, p=0.5, seed=7, q_override=1.0, retries=8)
        path = tmp_path / "report.json"
        emit(report, "json", path)
        loaded = json.loads(path.read_text())
        assert loaded == report.to_json_dict()

    def test_report_json_is_schema_validated(self, tmp_path):
        report = full_pipeline(n=12, p=0.5, seed=7, q_override=1.0)
        report.delta = "broken"
        with pytest.raises(jsonschema.ValidationError):
            emit(report, "json", tmp_path / "bad.json")

    def test_schema_file_loads(self):
        schema = load_report_schema()
        assert schema["$id"] == "hampack/trial-report/v1"
        assert "cycles" in schema["required"]

    def test_schema_read_once_per_process(self):
        assert hampack.runner.load_report_schema() is load_report_schema()

    def test_summary_csv_row_count(self, tmp_path):
        summary, _ = run_trials(small_config(trials=5))
        path = tmp_path / "summary.csv"
        emit(summary, "csv", path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert list(rows[0]) == TRIAL_CSV_COLUMNS

    def test_empty_summary_header_only(self, tmp_path):
        summary, _ = run_trials(small_config(trials=0))
        path = tmp_path / "empty.csv"
        emit(summary, "csv", path)
        lines = path.read_text().strip().splitlines()
        assert lines == [",".join(TRIAL_CSV_COLUMNS)]

    def test_single_report_csv(self, tmp_path):
        report = full_pipeline(n=12, p=0.5, seed=7, q_override=1.0)
        path = tmp_path / "one.csv"
        emit(report, "csv", path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["outcome"] == report.outcome

    def test_summary_json_has_runtime(self, tmp_path):
        summary, _ = run_trials(small_config(trials=2))
        path = tmp_path / "summary.json"
        emit(summary, "json", path)
        loaded = json.loads(path.read_text())
        assert "runtime" in loaded
        assert loaded["cells"] == summary.cells

    def test_rejects_unknown_format(self, tmp_path):
        summary, _ = run_trials(small_config(trials=0))
        with pytest.raises(InvalidInputError):
            emit(summary, "xml", tmp_path / "x")
        with pytest.raises(InvalidInputError):
            emit({"not": "a report"}, "json", tmp_path / "y")


class TestCli:
    def test_generate_stdout(self, capsys):
        assert main(["generate", "--n", "10", "--p", "0.5", "--seed", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "hampack/phase1/v1"
        assert doc["outcome"] in ("SUCCESS", "FAILURE")

    def test_decompose_writes_valid_report(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        rc = main(["decompose", "--n", "12", "--p", "0.5", "--seed", "7",
                   "--q-override", "1.0", "--retries", "8", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_report_schema())
        assert doc["outcome"] == "SUCCESS"

    def test_verify_report_replay(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        main(["decompose", "--n", "12", "--p", "0.5", "--seed", "7",
              "--q-override", "1.0", "--retries", "8", "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", "--report", str(out)]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["replay_identical"] is True

    def test_verify_digraph_and_cycles(self, tmp_path, capsys):
        d = Digraph(3, [(1, 2), (2, 3), (3, 1), (1, 3), (3, 2), (2, 1)])
        dpath = tmp_path / "d.txt"
        dpath.write_text(d.to_text())
        cpath = tmp_path / "c.json"
        cpath.write_text("[[1, 2, 3], [1, 3, 2]]")
        assert main(["verify", "--digraph", str(dpath), "--cycles", str(cpath)]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is True and verdict["expected"] == 2

    def test_verify_needs_arguments(self, capsys):
        assert main(["verify"]) == 1

    def test_oracle_digraph(self, tmp_path, capsys):
        d = Digraph(4, [(u, v) for u in range(1, 5) for v in range(1, 5) if u != v])
        path = tmp_path / "k4.txt"
        path.write_text(d.to_text())
        assert main(["oracle", "--digraph", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["psi"] == 2 and doc["delta_pm"] == 3

    def test_oracle_bipartite_agreement(self, tmp_path, capsys):
        b = BipartiteGraph(3, [(x, y) for x in range(1, 4) for y in range(1, 4)])
        path = tmp_path / "k33.txt"
        path.write_text(b.to_text())
        assert main(["oracle", "--bipartite", str(path), "--r", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["factor_exists"] is True and doc["agree"] is True

    def test_oracle_needs_arguments(self, capsys):
        assert main(["oracle"]) == 1

    def test_stats_cycles_csv(self, tmp_path):
        out = tmp_path / "stats.csv"
        rc = main(["stats", "--probe", "cycles", "--n", "6", "--samples", "500",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == STATS_CSV_COLUMNS
        stats = {r["statistic"]: r for r in rows}
        assert float(stats["reference_two_power"]["value"]) == 7.0

    def test_stats_moment_needs_density(self, capsys):
        assert main(["stats", "--probe", "moment", "--n", "8"]) == 1

    def test_sweep_writes_summary(self, tmp_path, capsys):
        rc = main(["sweep", "--n", "12", "--p", "0.5", "--trials", "3",
                   "--seed", "0", "--q-override", "1.0", "--retries", "8",
                   "--jobs", "1", "--out-dir", str(tmp_path / "batch")])
        assert rc == 0
        assert (tmp_path / "batch" / "summary.json").exists()
        assert (tmp_path / "batch" / "summary.csv").exists()

    def test_sweep_save_reports(self, tmp_path, capsys):
        rc = main(["sweep", "--n", "12", "--p", "0.5", "--trials", "2",
                   "--seed", "0", "--q-override", "1.0", "--jobs", "1",
                   "--format", "json", "--save-reports",
                   "--out-dir", str(tmp_path / "batch")])
        assert rc == 0
        reports = sorted((tmp_path / "batch" / "reports").glob("trial_*.json"))
        assert len(reports) == 2

    def test_sweep_needs_density(self, capsys):
        assert main(["sweep", "--n", "12"]) == 1

    def test_missing_file_is_io_error(self, capsys):
        assert main(["verify", "--report", "/nonexistent/file.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_stats_stdout_equals_out_file(self, tmp_path, capsysbinary):
        argv = ["stats", "--probe", "cycles", "--n", "6", "--samples", "50", "--seed", "1"]
        out = tmp_path / "stats.csv"
        assert main(argv + ["--out", str(out)]) == 0
        capsysbinary.readouterr()
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()


class TestTrialContract:
    """A config the report schema cannot hold raises; one it holds is a report."""

    @pytest.mark.parametrize("knobs, message", [
        ({"retries": -1}, "config.retries: -1 is less than the minimum of 0"),
        ({"t_max": 0}, "config.t_max: 0 is less than the minimum of 1"),
        ({"mode": "fast"}, "config.mode: 'fast' is not one of"),
        ({"n": -5}, "config.n: -5 is less than the minimum of 0"),
        ({"p": -0.1}, "config.p: -0.1 is less than the minimum of 0"),
        ({"seed": -1}, "need seed >= 0, got -1"),
        ({"p": float("nan")}, "config.p: nan is not a finite number"),
        ({"q_override": float("inf")}, "config.q_override: inf is not a finite number"),
    ])
    def test_bad_config_raises_before_any_draw(self, knobs, message):
        cfg = dict(n=12, p=0.5, seed=7, q_override=1.0)
        cfg.update(knobs)
        with pytest.raises(InvalidInputError, match=message):
            full_pipeline(**cfg)

    @pytest.mark.parametrize("knobs, message", [
        ({"n": -5}, "config.n: -5 is less than the minimum of 0"),
        ({"p": 1.5}, "config.p: 1.5 is greater than the maximum of 1"),
        ({"p": float("nan")}, "config.p: nan is not a finite number"),
        ({"mode": "fast"}, "config.mode: 'fast' is not one of"),
    ])
    def test_phase_one_checks_its_config(self, knobs, message):
        cfg = dict(n=12, p=0.5, seed=7)
        cfg.update(knobs)
        with pytest.raises(InvalidInputError, match=message):
            phase_one(**cfg)

    def test_report_bytes_refuse_a_number_that_is_not_finite(self):
        report = full_pipeline(4, 0.5, 7)
        report.p = float("nan")
        with pytest.raises(ValueError):
            report.json_bytes()

    @pytest.mark.parametrize("knobs", [
        {"n": 4}, {"mode": "strict"}, {"q_override": 1.5}, {"mode": "strict", "q_override": 0.5},
    ])
    def test_analysis_rejection_is_an_error_report(self, knobs):
        cfg = dict(n=12, p=0.5, seed=7, q_override=None)
        cfg.update(knobs)
        report = full_pipeline(**cfg)
        assert report.outcome == "ERROR" and report.failure_stage == "parameters"
        assert report_schema_error(report.to_json_dict()) is None

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([-1, 0, 3, 8, 12]),
           p=st.sampled_from([-0.5, 0.0, 0.3, 1.0, 1.5, float("nan")]),
           seed=st.integers(-2, 3),
           mode=st.sampled_from(["practical", "strict", "fast"]),
           retries=st.integers(-2, 2),
           t_max=st.integers(-1, 3),
           q_override=st.sampled_from([None, -0.5, 0.0, 1.0, 2.0, float("inf")]))
    def test_raises_or_reports_within_schema(self, n, p, seed, mode, retries, t_max,
                                             q_override):
        try:
            report = full_pipeline(n, p, seed, mode=mode, retries=retries, t_max=t_max,
                                   q_override=q_override)
        except InvalidInputError:
            return
        assert report_schema_error(report.to_json_dict()) is None
        report.json_bytes()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# each invocation is bad input: it must exit 1 with one 'error:' line, not a traceback
BAD_INVOCATIONS = {
    "moment n below range": lambda tmp: ["stats", "--probe", "moment", "--n", "3", "--p", "0.5"],
    "gap n zero": lambda tmp: ["stats", "--probe", "gap", "--n", "0", "--p", "0.5"],
    "header not integers": lambda tmp: [
        "oracle", "--digraph", write(tmp, "d.txt", "a b\n")],
    "header negative n": lambda tmp: [
        "oracle", "--digraph", write(tmp, "d.txt", "-1 0\n")],
    "edge line not integers": lambda tmp: [
        "verify", "--digraph", write(tmp, "d.txt", "3 1\n1 x\n"),
        "--cycles", write(tmp, "c.json", "[]")],
    "report not a report": lambda tmp: ["verify", "--report", write(tmp, "r.json", "{}")],
    "cycles not a list": lambda tmp: [
        "verify", "--digraph", write(tmp, "d.txt", "3 0\n"),
        "--cycles", write(tmp, "c.json", "5")],
    "cycles not integer lists": lambda tmp: [
        "verify", "--digraph", write(tmp, "d.txt", "3 0\n"),
        "--cycles", write(tmp, "c.json", '[[1, 2, "3"]]')],
    "negative retries": lambda tmp: [
        "decompose", "--n", "12", "--p", "0.5", "--q-override", "1", "--retries", "-1"],
    "zero tmax": lambda tmp: [
        "decompose", "--n", "12", "--p", "0.5", "--tmax", "0",
        "--out", str(tmp / "rep.json")],
    "sweep zero tmax": lambda tmp: [
        "sweep", "--n", "12", "--p", "0.5", "--trials", "1", "--jobs", "1", "--tmax", "0"],
    "negative n": lambda tmp: [
        "decompose", "--n", "-5", "--p", "0.5", "--out", str(tmp / "f")],
    "p above one": lambda tmp: [
        "decompose", "--n", "12", "--p", "1.5", "--out", str(tmp / "f")],
    "sweep negative n": lambda tmp: [
        "sweep", "--n", "-5", "--p", "0.5", "--trials", "1", "--jobs", "1",
        "--out-dir", str(tmp / "d"), "--save-reports"],
    "sweep negative retries": lambda tmp: [
        "sweep", "--n", "12", "--p", "0.5", "--trials", "1", "--jobs", "1", "--retries", "-1"],
    "decompose negative seed": lambda tmp: [
        "decompose", "--n", "12", "--p", "0.5", "--seed", "-1"],
    "generate negative seed": lambda tmp: [
        "generate", "--n", "12", "--p", "0.5", "--seed", "-1"],
    "sweep negative seed": lambda tmp: [
        "sweep", "--n", "12", "--p", "0.5", "--trials", "1", "--jobs", "1", "--seed", "-1"],
    "nan density": lambda tmp: [
        "decompose", "--n", "12", "--p", "nan", "--out", str(tmp / "f")],
    "infinite q override": lambda tmp: [
        "decompose", "--n", "12", "--p", "0.5", "--q-override", "inf"],
    "sweep nan density": lambda tmp: [
        "sweep", "--n", "12", "--p", "nan", "--trials", "1", "--jobs", "1"],
    "generate negative n": lambda tmp: ["generate", "--n", "-5", "--p", "0.5"],
    "generate nan density": lambda tmp: ["generate", "--n", "12", "--p", "nan"],
    "stats negative seed": lambda tmp: [
        "stats", "--probe", "cycles", "--n", "6", "--samples", "10", "--seed", "-1"],
}


@pytest.mark.parametrize("case", sorted(BAD_INVOCATIONS))
def test_bad_input_exits_one_without_traceback(case, tmp_path, capsys):
    assert main(BAD_INVOCATIONS[case](tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
