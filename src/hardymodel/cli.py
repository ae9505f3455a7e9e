"""Scenario-driven verification harness.

Scenario files are JSON with a mandatory schema version; the seed fully
determines every generated instance, so reports are reproducible modulo
timing fields.  A check that refuses to certify at the given size
(SizeOverflow, UnsafeDegree) is reported as skipped; any other package
error it raises is a failure.  Either way the error is its reason.  Exit
codes: 0 all checks that ran pass, 1 at least one failure or no check
ran, 2 malformed input or a report that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checks import REGISTRY, GeneratorParams
from .errors import HardyModelError, ScenarioError, SizeOverflow, UnknownCheck, UnsafeDegree
from .hardy import basis_size_cap

SCHEMA_VERSION = 1
_REGIMES = ("matrix", "hardy", "mixed")


@dataclass(frozen=True)
class ScenarioCheck:
    name: str
    tol: float | None


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    regime: str
    generator: GeneratorParams
    checks: tuple
    default_tol: float | None


def _tolerance(value, what: str) -> float | None:
    """A tolerance entry: null, or a positive finite number (not a bool)."""
    if value is None:
        return None
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or not 0 < value <= sys.float_info.max:
        raise ScenarioError(f"{what} must be null or a positive finite number, got {value!r}")
    return float(value)


def load_scenario(path) -> Scenario:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot parse scenario {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    if raw.get("schema") != SCHEMA_VERSION:
        raise ScenarioError(
            f"scenario schema must be {SCHEMA_VERSION}, got {raw.get('schema')!r}"
        )
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("scenario needs a nonempty name")
    seed = raw.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ScenarioError("seed must be an unsigned 64-bit integer")
    regime = raw.get("regime", "mixed")
    if regime not in _REGIMES:
        raise ScenarioError(f"regime must be one of {_REGIMES}")
    try:
        generator = GeneratorParams.from_dict(raw.get("generator", {}))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad generator record: {exc}") from exc
    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ScenarioError(f"tolerances must be a JSON object, got {tolerances!r}")
    default_tol = _tolerance(tolerances.get("default"), "default tolerance")
    checks_raw = raw.get("checks")
    if not isinstance(checks_raw, list) or not checks_raw:
        raise ScenarioError("scenario needs a nonempty list of checks")
    checks = []
    for entry in checks_raw:
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise ScenarioError(f"bad check entry: {entry!r}")
        unknown = set(entry) - {"name", "tol"}
        if unknown:
            raise ScenarioError(f"unknown fields {sorted(unknown)} in check entry {entry!r}")
        cname = entry["name"]
        if cname not in REGISTRY:
            raise UnknownCheck(f"unknown check {cname!r}")
        tol = _tolerance(entry.get("tol", default_tol), f"tol of check {cname!r}")
        checks.append(ScenarioCheck(cname, tol))
    return Scenario(name, seed, regime, generator, tuple(checks), default_tol)


def run_scenario(path) -> dict:
    """Load the scenario file at path and execute its checks in declared
    order; deterministic report."""
    scenario = load_scenario(path)
    results = []
    for idx, item in enumerate(scenario.checks):
        spec = REGISTRY[item.name]
        rng = np.random.default_rng([scenario.seed, idx])
        started = time.perf_counter()
        try:
            tol = spec.default_tol if item.tol is None else item.tol
            outcome = spec.run(rng, scenario.generator, tol)
            status = "pass" if outcome.passed else "fail"
            residual = outcome.residual
            tail = outcome.tail_bound
            cutoff = outcome.safe_cutoff
            reason = None
        except HardyModelError as exc:
            status = "skipped" if isinstance(exc, (SizeOverflow, UnsafeDegree)) else "fail"
            residual, tail, cutoff = float("nan"), 0.0, -1
            reason = f"{type(exc).__name__}: {exc}"
        elapsed_ms = int(round(1000.0 * (time.perf_counter() - started)))
        results.append(
            {
                "name": item.name,
                "status": status,
                "residual": residual,
                "tail_bound": tail,
                "safe_cutoff": cutoff,
                "elapsed_ms": elapsed_ms,
                "reason": reason,
            }
        )
    statuses = {c["status"] for c in results}
    overall = "fail" if "fail" in statuses else "pass" if "pass" in statuses else "skipped"
    return {
        "schema": SCHEMA_VERSION,
        "scenario": {
            "name": scenario.name,
            "seed": scenario.seed,
            "regime": scenario.regime,
        },
        "checks": results,
        "overall": overall,
    }


def _print_report(report: dict, quiet: bool) -> None:
    if quiet:
        return
    width = max((len(c["name"]) for c in report["checks"]), default=4)
    print(f"scenario {report['scenario']['name']} (seed {report['scenario']['seed']})")
    for c in report["checks"]:
        print(
            f"  {c['name']:<{width}}  {c['status']:<7} "
            f"residual={c['residual']:.3e}  tail={c['tail_bound']:.3e}  "
            f"cutoff={c['safe_cutoff']:>3}  {c['elapsed_ms']} ms"
        )
    print(f"overall: {report['overall']}")


def _json_report(report: dict) -> str:
    """Strict JSON text of a report: non-finite numbers (a skipped check's
    NaN residual) become null."""
    checks = [
        {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in c.items()}
        for c in report["checks"]
    ]
    return json.dumps({**report, "checks": checks}, indent=2, allow_nan=False) + "\n"


def _cmd_run(args) -> int:
    try:
        report = run_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_report(report, args.quiet)
    if args.out:
        try:
            Path(args.out).write_text(_json_report(report))
        except OSError as exc:
            print(f"error: cannot write report {args.out}: {exc}", file=sys.stderr)
            return 2
    return 0 if report["overall"] == "pass" else 1

def _cmd_list_checks(_args) -> int:
    width = max(len(name) for name in REGISTRY)
    for name, spec in sorted(REGISTRY.items()):
        print(f"{name:<{width}}  [{spec.regime:<6}]  {spec.anchor}")
    print(f"{len(REGISTRY)} checks registered")
    return 0


def _cmd_suite(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 2
    paths = sorted(directory.glob("*.json"))
    if not paths:
        print(f"error: no scenario files in {directory}", file=sys.stderr)
        return 2
    worst = 0
    for path in paths:
        try:
            report = run_scenario(path)
        except ScenarioError as exc:
            print(f"error in {path.name}: {exc}", file=sys.stderr)
            worst = max(worst, 2)
            continue
        _print_report(report, args.quiet)
        if report["overall"] != "pass":
            worst = max(worst, 1)
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardymodel",
        description="Scenario-driven verification for dilation and analytic-model constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a single scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--out", help="write the JSON report here")
    p_run.add_argument("--quiet", action="store_true", help="suppress the table")
    p_run.set_defaults(func=_cmd_run)
    p_list = sub.add_parser("list-checks", help="list registered checks")
    p_list.set_defaults(func=_cmd_list_checks)
    p_suite = sub.add_parser("suite", help="run every scenario in a directory")
    p_suite.add_argument("directory")
    p_suite.add_argument("--quiet", action="store_true")
    p_suite.set_defaults(func=_cmd_suite)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        basis_size_cap()  # the environment is input too
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
