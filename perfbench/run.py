"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload dense-n400 --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout; hampack is imported from the
checkout's src/.  Every metric is printed by name with its unit, then the
last line is one JSON object: with --trace 0 it carries the end-to-end
metrics named in BENCHMARK.json, with --trace 1 the per-layer ones.  The
exit code is 1 when any output check misses, 2 when the checkout holds no
hampack sources.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hampack" / "__init__.py").is_file():
        print(f"run.py: no hampack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    result = harness.measure(harness.WORKLOADS[args.workload], args.seed,
                             args.seconds, trace=bool(args.trace))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in sorted(result.metrics.items()):
        calls = result.layer_calls.get(name.removesuffix("_s"))
        print(f"  {name:32s} {value:>16.6g} {unit}"
              + (f"  ({calls} calls)" if calls is not None else ""))
    print(f"  {'report_sha256':32s} {result.sha256}")
    print(f"  attempted {result.attempted}, failed {result.failed}")
    for line in result.notes + result.misses:
        print(f"  note: {line}")

    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": result.metrics[m["name"]][0],
                                "unit": result.metrics[m["name"]][1]}
                    for m in wanted},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
