"""The verdict sweep: every recorded verdict against one golden file.

The sweep is 845 verdicts in three kinds of block, in golden order:

- bundled blocks (23): each scenario file (``scenarios/*.json`` in sorted
  file order) as ``hardymodel run`` runs it, with its own seed and
  tolerances.  The block is the file's path, the seed the file's and the
  scale null.
- the dense-verify block (270): the benchmark's dense-verify verdict list
  for benchmark seeds 1-10 (``perfbench/workloads.py``, imported read
  only), each at its check's default tolerance, keyed by its derived seed.
- generator blocks (552): the generator record of each bundled scenario
  x the checks in sorted ``REGISTRY`` order x seeds 1-3 x tolerance
  scales 1 and 1e-6.  Each verdict draws from
  ``np.random.default_rng([seed, index in the sorted registry])`` and runs
  at ``default_tol * scale``.  The block is the scenario's name.

Every status follows ``hardymodel.cli.run_check``: an ``UnsafeDegree`` or
``SizeOverflow`` is skipped, any other package error fails.  Each record
holds the block, check, seed, scale, status, ``safe_cutoff``, and the
``repr`` of the residual and of the tail.

    OPENBLAS_NUM_THREADS=1 python tests/verdict_sweep.py   # rewrite the golden file
    python tests/verdict_sweep.py --check                  # compare with the golden file
    python tests/verdict_sweep.py --base OLD.json          # compare OLD.json with it

``--check`` exits 1 when a status or cutoff differs from the golden (or a
verdict is missing or new).  It lists the residual and tail moves old ->
new, one summary line per check and field (moved, up, down, and the
range of new / old) and "N of 845 moved"; moves gate nothing.  The
golden holds values computed with BLAS on one thread, so a rewrite
refuses to run unless ``OPENBLAS_NUM_THREADS=1``; ``--check`` runs at any
thread count.
``--base`` runs no check: it compares another commit's golden file with
this one on the verdicts both hold, exits 1 when a status or cutoff
differs, and lists the moves, their summary lines and the verdicts only
one file holds.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from hardymodel.checks import REGISTRY, GeneratorParams  # noqa: E402
from hardymodel.cli import load_scenario, run_check, run_scenario  # noqa: E402

GOLDEN = Path(__file__).with_suffix(".json")
SEEDS = (1, 2, 3)
SCALES = (1.0, 1e-6)


def _record(block: str, check: str, seed: int, scale, entry: dict) -> dict:
    """The sweep record of one cli report entry."""
    return {
        "block": block, "check": check, "seed": seed, "scale": scale,
        "status": entry["status"], "safe_cutoff": int(entry["safe_cutoff"]),
        "residual": repr(float(entry["residual"])), "tail": repr(float(entry["tail_bound"])),
    }


def generator_records(block: str, params: GeneratorParams) -> list:
    records = []
    for index, check in enumerate(sorted(REGISTRY)):
        tol = REGISTRY[check].default_tol
        for seed in SEEDS:
            for scale in SCALES:
                entry = run_check(check, np.random.default_rng([seed, index]), params, tol * scale)
                records.append(_record(block, check, seed, scale, entry))
    return records


def bundled_records(path: Path) -> list:
    report = run_scenario(path)
    seed = report["scenario"]["seed"]
    return [_record(f"scenarios/{path.name}", c["name"], seed, None, c) for c in report["checks"]]


def dense_verify_records() -> list:
    records = []
    for bench_seed in range(1, 11):
        for v in workloads.verdicts("dense-verify", bench_seed):
            params = GeneratorParams.from_dict(v.params)
            entry = run_check(v.check, np.random.default_rng(v.seed), params, None)
            records.append(_record("dense-verify", v.check, v.seed, 1.0, entry))
    return records


def blocks() -> dict:
    """Each block's name -> the function that runs it, in golden order."""
    paths = sorted((ROOT / "scenarios").glob("*.json"))
    out = {f"scenarios/{path.name}": functools.partial(bundled_records, path) for path in paths}
    out["dense-verify"] = dense_verify_records
    for path in paths:
        scenario = load_scenario(path)
        out[scenario.name] = functools.partial(generator_records, scenario.name, scenario.generator)
    return out


def run_sweep(only=None) -> list:
    """The sweep's records, restricted to the blocks named in ``only``."""
    return [r for block, run in blocks().items() if only is None or block in only for r in run()]


def _key(r: dict) -> tuple:
    return r["block"], r["check"], r["seed"], r["scale"]


def _differences(old: dict, new: dict) -> tuple[list, list]:
    """(status or cutoff differences, residual and tail moves) on the
    verdict keys both dicts hold.  A difference is a printable line; a move
    is a (verdict key, "field: old -> new") pair."""
    gated, moves = [], []
    for k, r in new.items():
        g = old.get(k)
        if g is None:
            continue
        if (g["status"], g["safe_cutoff"]) != (r["status"], r["safe_cutoff"]):
            gated.append(f"{k}: {g['status']} cutoff {g['safe_cutoff']} -> "
                         f"{r['status']} cutoff {r['safe_cutoff']}")
        for field in ("residual", "tail"):
            if g[field] != r[field]:
                moves.append((k, f"{field}: {g[field]} -> {r[field]}"))
    return gated, moves


def compare(records: list, golden: list) -> tuple[list, list]:
    """(gated differences, moves) of ``records`` against the golden records
    of the same blocks; a verdict missing from either side is gated."""
    names = {r["block"] for r in records}
    old = {_key(r): r for r in golden if r["block"] in names}
    new = {_key(r): r for r in records}
    gated, moves = _differences(old, new)
    gated += [f"missing {k}" for k in old if k not in new]
    gated += [f"new {k}" for k in new if k not in old]
    return gated, moves


def base_gate(base: list, head: list) -> tuple[list, list, list]:
    """(gated differences, moves, unshared verdicts) of the head's golden
    records against the base commit's, on the verdicts both hold; a verdict
    only one side holds is listed and gates nothing."""
    old = {_key(r): r for r in base}
    new = {_key(r): r for r in head}
    gated, moves = _differences(old, new)
    unshared = [f"new at the head {k}" for k in new if k not in old]
    unshared += [f"only at the base {k}" for k in old if k not in new]
    return gated, moves, unshared


def load_golden(path: Path = GOLDEN) -> list:
    return json.loads(path.read_text())


def write_golden(records: list) -> None:
    lines = ",\n".join(json.dumps(r) for r in records)
    GOLDEN.write_text(f"[\n{lines}\n]\n")


def move_summary(moves: list) -> list:
    """One line per (check, field) that moved: how many records moved, how
    many up and how many down, and the range of new / old."""
    groups = {}
    for key, change in moves:
        field, values = change.split(": ", 1)
        old, new = (float(v) for v in values.split(" -> "))
        groups.setdefault((key[1], field), []).append((old, new))
    lines = []
    for (check, field), pairs in sorted(groups.items()):
        up = sum(new > old for old, new in pairs)
        down = sum(new < old for old, new in pairs)
        ratios = [new / old if old else float("inf") for old, new in pairs]
        lines.append(f"{check} {field}: {len(pairs)} moved, {up} up, {down} down, "
                     f"new/old {min(ratios):.4g} to {max(ratios):.4g}")
    return lines


def _print_moves(moves: list, total: int) -> None:
    for key, change in moves:
        print(f"moved {key} {change}")
    for line in move_summary(moves):
        print(line)
    print(f"{len({key for key, _ in moves})} of {total} moved")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare with the golden file instead of rewriting it")
    mode.add_argument("--base", type=Path, metavar="GOLDEN",
                      help="compare another commit's golden file with this one; runs no check")
    args = parser.parse_args(argv)
    if args.base is not None:
        head = load_golden()
        gated, moves, unshared = base_gate(load_golden(args.base), head)
        _print_moves(moves, len(head) - sum(line.startswith("new") for line in unshared))
        for line in unshared + [f"DIFFERS {line}" for line in gated]:
            print(line)
        return 1 if gated else 0
    if not args.check and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        parser.error("the golden file holds BLAS 1-thread values: "
                     "rewrite it with OPENBLAS_NUM_THREADS=1")
    records = run_sweep()
    counts = {s: sum(r["status"] == s for r in records) for s in ("pass", "fail", "skipped")}
    print(f"{len(records)} verdicts: " + ", ".join(f"{n} {s}" for s, n in counts.items()))
    if not args.check:
        write_golden(records)
        print(f"wrote {GOLDEN.name}")
        return 0
    gated, moves = compare(records, load_golden())
    _print_moves(moves, len(records))
    for line in gated:
        print(f"DIFFERS {line}")
    return 1 if gated else 0


if __name__ == "__main__":
    sys.exit(main())
