"""The verdict sweep: every registered check on every bundled generator block.

The sweep is 552 verdicts: the generator record of each bundled scenario
(``scenarios/*.json`` in sorted file order) x the checks in sorted
``REGISTRY`` order x seeds 1-3 x tolerance scales 1 and 1e-6.  Each
verdict draws from ``np.random.default_rng([seed, index in the sorted
registry])`` and runs at ``default_tol * scale``.  Its status follows the
cli: an ``UnsafeDegree`` or ``SizeOverflow`` is skipped, any other package
error fails.  Each record holds the block (the scenario's name), check,
seed, scale, status, ``safe_cutoff``, and the ``repr`` of the residual and
of the tail.

    python tests/verdict_sweep.py            # rewrite the golden file
    python tests/verdict_sweep.py --check    # compare with the golden file

``--check`` exits 1 when a status or cutoff differs from the golden (or a
verdict is missing or new).  It lists the residual and tail moves old ->
new and "N of 552 moved"; moves gate nothing.  The golden was made with
BLAS on one thread (``OPENBLAS_NUM_THREADS=1``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hardymodel.checks import REGISTRY, GeneratorParams  # noqa: E402
from hardymodel.errors import HardyModelError, SizeOverflow, UnsafeDegree  # noqa: E402

GOLDEN = Path(__file__).with_suffix(".json")
SEEDS = (1, 2, 3)
SCALES = (1.0, 1e-6)


def blocks() -> dict:
    """The bundled generator records by scenario name, in file order."""
    out = {}
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        raw = json.loads(path.read_text())
        out[raw["name"]] = GeneratorParams.from_dict(raw.get("generator", {}))
    return out


def verdict(name: str, index: int, params: GeneratorParams, seed: int, scale: float) -> tuple:
    """(status, safe_cutoff, residual repr, tail repr) of one verdict."""
    spec = REGISTRY[name]
    try:
        out = spec.run(np.random.default_rng([seed, index]), params, spec.default_tol * scale)
    except HardyModelError as exc:
        status = "skipped" if isinstance(exc, (SizeOverflow, UnsafeDegree)) else "fail"
        return status, -1, "nan", "0.0"
    status = "pass" if out.passed else "fail"
    return status, int(out.safe_cutoff), repr(float(out.residual)), repr(float(out.tail_bound))


def run_sweep(only=None) -> list:
    """The sweep's records, restricted to the blocks named in ``only``."""
    records = []
    for block, params in blocks().items():
        if only is not None and block not in only:
            continue
        for index, name in enumerate(sorted(REGISTRY)):
            for seed in SEEDS:
                for scale in SCALES:
                    status, cutoff, residual, tail = verdict(name, index, params, seed, scale)
                    records.append({
                        "block": block, "check": name, "seed": seed, "scale": scale,
                        "status": status, "safe_cutoff": cutoff,
                        "residual": residual, "tail": tail,
                    })
    return records


def _key(r: dict) -> tuple:
    return r["block"], r["check"], r["seed"], r["scale"]


def compare(records: list, golden: list) -> tuple[list, list]:
    """(gated differences, moves) of ``records`` against the golden records
    of the same blocks.  A gated difference is a printable line; a move is a
    (verdict key, "field: old -> new") pair for a residual or tail."""
    old = {_key(r): r for r in golden if r["block"] in {r["block"] for r in records}}
    new = {_key(r): r for r in records}
    gated = [f"missing {k}" for k in old if k not in new]
    gated += [f"new {k}" for k in new if k not in old]
    moves = []
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


def load_golden() -> list:
    return json.loads(GOLDEN.read_text())


def write_golden(records: list) -> None:
    lines = ",\n".join(json.dumps(r) for r in records)
    GOLDEN.write_text(f"[\n{lines}\n]\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the golden file instead of rewriting it")
    args = parser.parse_args(argv)
    records = run_sweep()
    counts = {s: sum(r["status"] == s for r in records) for s in ("pass", "fail", "skipped")}
    print(f"{len(records)} verdicts: " + ", ".join(f"{n} {s}" for s, n in counts.items()))
    if not args.check:
        write_golden(records)
        print(f"wrote {GOLDEN.name}")
        return 0
    gated, moves = compare(records, load_golden())
    for key, change in moves:
        print(f"moved {key} {change}")
    print(f"{len({key for key, _ in moves})} of {len(records)} moved")
    for line in gated:
        print(f"DIFFERS {line}")
    return 1 if gated else 0


if __name__ == "__main__":
    sys.exit(main())
