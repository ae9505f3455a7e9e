"""suite-cold: scenario files with seeds from the run seed, and the check
of the table ``hardymodel suite`` prints."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from hardymodel.checks import REGISTRY

import reference
from workloads import derive_seed

_HEADER = re.compile(r"^scenario (\S+) \(seed (\d+)\)$")
_ROW = re.compile(
    r"^\s+(\S+)\s+(pass|fail|skipped)\s+residual=(\S+)\s+tail=(\S+)\s+cutoff=\s*(-?\d+)\s+(\d+) ms$"
)


def write(scenario_dir: Path, out_dir: Path, run_seed: int) -> list[dict]:
    """Copy the bundled scenarios into out_dir with seeds from run_seed.

    Returns the per-scenario plans the suite output is checked against.
    The cli seeds check i as [seed, i].
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    plans = []
    for k, path in enumerate(sorted(scenario_dir.glob("*.json"))):
        raw = json.loads(path.read_text())
        params = raw.get("generator", {})
        default_tol = raw.get("tolerances", {}).get("default")
        entries = [c if isinstance(c, dict) else {"name": c} for c in raw["checks"]]
        raw["seed"] = seed = derive_seed(run_seed, 2, k)
        (out_dir / path.name).write_text(json.dumps(raw, indent=2) + "\n")
        checks = []
        for e in entries:
            tol = e.get("tol", default_tol)
            checks.append((e["name"], REGISTRY[e["name"]].default_tol if tol is None else float(tol)))
        plans.append({"name": raw["name"], "seed": seed, "params": params, "checks": checks})
    return plans


def check(stdout: str, plans: list[dict]) -> tuple[list[float], list[dict], int]:
    """(ms per scenario, None if missing; failures; checks skipped) from one
    suite pass's table.

    A scenario is one verdict: its time is the sum of its checks' printed
    elapsed_ms, and it fails once if any of its checks fails (a skipped
    check is correct only where the reference requires a refusal), or if
    it is missing from the table or printed with the wrong checks.
    """
    tables: dict[str, list] = {}
    current = None
    for line in stdout.splitlines():
        if m := _HEADER.match(line):
            current = tables.setdefault(m.group(1), [])
        elif (m := _ROW.match(line)) and current is not None:
            current.append(m.groups())
    ms, failures, skipped = [], [], 0
    for plan in plans:
        rows = tables.get(plan["name"], [])
        size = f"scenario={plan['name']}"
        if [r[0] for r in rows] != [c for c, _ in plan["checks"]]:
            failures.append({"check": "*", "seed": plan["seed"], "size": size, "reason": "table rows missing"})
            ms.append(None)
            continue
        ms.append(float(sum(int(r[5]) for r in rows)))
        skipped += sum(r[1] == "skipped" for r in rows)
        reasons = []
        for i, ((name, status, residual, tail, cutoff, _), (_, tol)) in enumerate(zip(rows, plan["checks"])):
            res = float(residual)
            reason = reference.verify(
                name, [plan["seed"], i], plan["params"], tol, status,
                res if math.isfinite(res) else None, float(tail), int(cutoff),
            )
            if reason:
                reasons.append((name, reason))
        if reasons:
            failures.append({
                "check": ",".join(n for n, _ in reasons), "seed": plan["seed"], "size": size,
                "reason": "; ".join(f"{n}: {r}" for n, r in reasons),
            })
    return ms, failures, skipped
