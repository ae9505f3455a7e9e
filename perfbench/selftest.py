"""Quick self-test of the benchmark harness (about half a minute).

Run from the repository root:

  python3 perfbench/selftest.py [--workload suite-cold] [--seed 7]

It runs the workload once untraced and twice traced on one seed, then
checks that every metric emitted matches BENCHMARK.json by name and unit,
that the last line is strict JSON (no NaN) with exactly the result keys,
that every verdict was correct, and that the computed counts (units
count, flop and ratio) repeat exactly across the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT_UNITS = ("count", "flop", "ratio")


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1], parse_constant=_reject_constant)


def check_result(result: dict, declared: dict) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"verdicts: correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        errors.append(f"metric names differ: extra {sorted(set(metrics) - set(declared))}, "
                      f"missing {sorted(set(declared) - set(metrics))}")
    for name, m in metrics.items():
        if not m.get("unit") or m.get("unit") != declared.get(name):
            errors.append(f"{name}: unit {m.get('unit')!r}, declared {declared.get(name)!r}")
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{name}: value {m.get('value')!r} is not a number")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="suite-cold")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    errors = check_result(run(args.workload, args.seed, 0), end_to_end)
    first, second = run(args.workload, args.seed, 1), run(args.workload, args.seed, 1)
    errors += check_result(first, per_layer) + check_result(second, per_layer)
    for name, unit in per_layer.items():
        a, b = first["metrics"].get(name, {}).get("value"), second["metrics"].get(name, {}).get("value")
        if unit in EXACT_UNITS and a != b:
            errors.append(f"{name} does not repeat: {a} vs {b}")
    for e in errors:
        print(f"FAIL {e}")
    print(f"selftest {args.workload} seed {args.seed}: {'FAIL' if errors else 'ok'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
