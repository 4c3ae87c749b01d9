"""Command-line front door.

Each pipeline phase is independently drivable: generate runs only the
exposure rounds, decompose runs a full trial, verify checks either a
report replay or an explicit digraph + cycles pair, oracle answers tiny
instances exactly, stats runs the probes, and sweep drives seeded grids.
Trial failures are ordinary data and exit 0; only configuration and I/O
problems exit nonzero.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import DimensionError, InvalidInputError, ParameterRangeError, SizeError
from .graphs import BipartiteGraph, Digraph
from .matching import GALE_RYSER_MAX_N, gale_ryser_bruteforce, find_r_factor
from .oracle import brute_force_psi
from .pipeline import full_pipeline, phase_one, report_schema_error
from .runner import TrialConfig, emit, run_trials, write_stats_csv
from .stats import (degree_gap_probe, designation_moment_estimate,
                    permutation_cycle_stats)
from .verify import delta_pm, verify_packing

__all__ = ["main", "build_parser"]


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


# the trial flags several commands share, each declared (and defaulted) here once
_TRIAL_FLAGS = {
    "--seed": dict(type=int, default=0),
    "--mode": dict(choices=["practical", "strict"], default="practical"),
    "--retries": dict(type=int, default=3),
    "--tmax": dict(type=int, default=10, dest="t_max"),
    "--q-override": dict(type=float, default=None),
}


def _add_trial_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_TRIAL_FLAGS[flag])


def _print_or_write(doc: dict, out: str | None) -> None:
    payload = json.dumps(doc, indent=2)
    if out is None:
        print(payload)
    else:
        Path(out).write_text(payload + "\n", encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hampack",
        description="Randomized Hamilton decompositions of sparse random digraphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run the generation phase only")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=float, required=True)
    _add_trial_flags(gen, "--seed", "--mode")
    gen.add_argument("--out", help="output JSON path (default: stdout)")

    dec = sub.add_parser("decompose", help="run one full trial")
    dec.add_argument("--n", type=int, required=True)
    dec.add_argument("--p", type=float, required=True)
    _add_trial_flags(dec, "--seed", "--mode", "--retries", "--tmax", "--q-override")
    dec.add_argument("--out", help="report JSON path (default: stdout)")

    ver = sub.add_parser("verify", help="check a report replay or a cycle family")
    ver.add_argument("--report", help="trial report JSON to replay and check")
    ver.add_argument("--digraph", help="digraph file ('n m' header + edge lines)")
    ver.add_argument("--cycles", help="JSON file with a list of vertex lists")
    ver.add_argument("--expected", type=int, default=None,
                     help="expected family size (default: two-sided min degree)")

    orc = sub.add_parser("oracle", help="exact answers on tiny instances")
    orc.add_argument("--digraph", help="digraph file: report packing number")
    orc.add_argument("--bipartite", help="bipartite file: check r-factor existence")
    orc.add_argument("--r", type=int, default=None, help="factor degree for --bipartite")

    sta = sub.add_parser("stats", help="statistical probes, CSV output")
    sta.add_argument("--probe", choices=["cycles", "moment", "gap"], required=True)
    sta.add_argument("--n", type=int, required=True)
    sta.add_argument("--p", type=float, default=None,
                     help="edge density (moment) or round-one density (gap)")
    sta.add_argument("--samples", type=int, default=10000)
    sta.add_argument("--trials", type=int, default=100)
    _add_trial_flags(sta, "--seed")
    sta.add_argument("--exhaustive", action="store_true")
    sta.add_argument("--out", help="CSV path (default: stdout)")

    swp = sub.add_parser("sweep", help="seeded trial batches over a grid")
    swp.add_argument("--n", type=_int_list, required=True,
                     help="comma-separated sizes, e.g. 50,100")
    swp.add_argument("--p", type=float, default=None)
    swp.add_argument("--p-grid", type=_float_list, default=None)
    _add_trial_flags(swp, "--seed")
    swp.add_argument("--trials", type=int, default=10)
    _add_trial_flags(swp, "--mode", "--retries", "--tmax", "--q-override")
    swp.add_argument("--jobs", type=int, default=0,
                     help="worker processes (0 = all cores)")
    swp.add_argument("--format", choices=["json", "csv", "both"], default="both")
    swp.add_argument("--out-dir", help="directory for summary and report files")
    swp.add_argument("--save-reports", action="store_true",
                     help="also write every per-trial report (needs --out-dir)")
    return parser


def _cmd_generate(args) -> int:
    doc = phase_one(args.n, args.p, args.seed, mode=args.mode)
    _print_or_write(doc, args.out)
    return 0


def _cmd_decompose(args) -> int:
    report = full_pipeline(n=args.n, p=args.p, seed=args.seed, mode=args.mode,
                           retries=args.retries, t_max=args.t_max,
                           q_override=args.q_override)
    if args.out is None:
        print(report.json_bytes().decode())
    else:
        emit(report, "json", args.out)
        print(f"{report.outcome} n={args.n} p={args.p} seed={args.seed} "
              f"delta={report.delta} -> {args.out}")
    return 0


def _cmd_verify(args) -> int:
    if args.report:
        doc = json.loads(Path(args.report).read_text(encoding="utf-8"))
        if (error := report_schema_error(doc)) is not None:
            raise InvalidInputError(f"{args.report} is not a trial report: {error.message}")
        replayed = full_pipeline(**doc["config"])
        same = replayed.to_json_dict() == doc
        print(json.dumps({
            "replay_identical": same,
            "outcome": doc["outcome"],
            "verification": doc.get("verification"),
        }, indent=2))
        return 0
    if args.digraph and args.cycles:
        d = Digraph.from_text(Path(args.digraph).read_text(encoding="utf-8"))
        family = json.loads(Path(args.cycles).read_text(encoding="utf-8"))
        if not (isinstance(family, list) and all(
                isinstance(c, list) and all(type(v) is int for v in c) for c in family)):
            raise InvalidInputError(f"{args.cycles} must hold a list of integer lists")
        expected = args.expected if args.expected is not None else delta_pm(d)
        verdict = verify_packing(d, family, expected)
        print(json.dumps(dict(verdict.to_json_dict(), expected=expected), indent=2))
        return 0
    print("verify needs --report or both --digraph and --cycles", file=sys.stderr)
    return 1


def _cmd_oracle(args) -> int:
    if args.digraph and not args.bipartite:
        d = Digraph.from_text(Path(args.digraph).read_text(encoding="utf-8"))
        psi, family = brute_force_psi(d)
        print(json.dumps({
            "n": d.n,
            "psi": psi,
            "delta_pm": delta_pm(d),
            "family": [list(c.vertices) for c in family],
        }, indent=2))
        return 0
    if args.bipartite and args.r is not None and not args.digraph:
        b = BipartiteGraph.from_text(Path(args.bipartite).read_text(encoding="utf-8"))
        factor = find_r_factor(b, args.r)
        doc = {"n": b.n, "r": args.r, "factor_exists": factor is not None}
        if factor is not None:
            doc["factor_edges"] = sorted(
                (x, y) for x in range(1, b.n + 1) for y in factor.x_adj[x])
        if b.n <= GALE_RYSER_MAX_N:
            counting = gale_ryser_bruteforce(b, args.r)
            doc["counting_condition"] = counting
            doc["agree"] = counting == (factor is not None)
        print(json.dumps(doc, indent=2))
        return 0
    print("oracle needs --digraph, or --bipartite with --r", file=sys.stderr)
    return 1


def _cmd_stats(args) -> int:
    n, seed = args.n, args.seed
    if args.probe != "cycles" and args.p is None:
        print(f"probe {args.probe!r} needs --p", file=sys.stderr)
        return 1
    if args.probe == "cycles":
        out = permutation_cycle_stats(n, args.samples, seed=seed,
                                      exhaustive=args.exhaustive)
        p, samples = "", out["samples"]
        keys = ("mean_sigma", "var_sigma", "mean_two_power",
                "tail_freq", "reference_mean", "reference_two_power")
    elif args.probe == "moment":
        out = designation_moment_estimate(n, args.p, trials=args.trials, seed=seed)
        p, samples, keys = args.p, out["completed"], ("estimate", "reference", "ratio")
    else:
        out = degree_gap_probe(n, args.p, trials=args.trials, seed=seed)
        p, samples = args.p, args.trials
        keys = ("mean_gap", "frac_at_least_reference", "reference")
    rows = [{"n": n, "p": p, "statistic": key,
             "value": "" if out[key] is None else out[key],
             "samples": samples, "seed": seed} for key in keys]
    if args.out is None:
        write_stats_csv(rows, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_stats_csv(rows, fh)
    return 0


def _cmd_sweep(args) -> int:
    if args.p_grid:
        p_values = args.p_grid
    elif args.p is not None:
        p_values = (args.p,)
    else:
        print("sweep needs --p or --p-grid", file=sys.stderr)
        return 1
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    config = TrialConfig(n_values=args.n, p_values=p_values, seed=args.seed,
                         mode=args.mode, trials=args.trials, retries=args.retries,
                         t_max=args.t_max, q_override=args.q_override, jobs=jobs)
    summary, reports = run_trials(config)
    for cell in summary.cells:
        rate = cell["success_rate"]
        print(f"n={cell['n']} p={cell['p']}: {cell['successes']}/{cell['trials']} "
              f"successes ({0.0 if rate is None else rate:.0%}), "
              f"failures {cell['failure_stages']}")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.format in ("json", "both"):
            emit(summary, "json", out_dir / "summary.json")
        if args.format in ("csv", "both"):
            emit(summary, "csv", out_dir / "summary.csv")
        if args.save_reports:
            rep_dir = out_dir / "reports"
            rep_dir.mkdir(exist_ok=True)
            for i, report in enumerate(reports):
                emit(report, "json", rep_dir / f"trial_{i:04d}.json")
        print(f"wrote {out_dir}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "stats": _cmd_stats,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, json.JSONDecodeError, InvalidInputError, SizeError,
            ParameterRangeError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
