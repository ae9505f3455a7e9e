"""hardymodel benchmark: times verdicts end to end and each layer from outside.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 a separate traced run reports the per-layer metrics.  Every
verdict is checked (status, residual gate at the pinned tolerance, safe
cutoff against an independent reference).  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.

All library work runs in child interpreters with BLAS pinned to
BLAS_THREADS threads; their peak memory is read with wait4.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

BLAS_THREADS = 1
#: set-up samples per run; each is a fresh interpreter
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0
WORKLOADS = ("dense-verify", "suite-cold")
UNITS = {"setup_s": "s", "wall_s": "s", "verdict_ms.p50": "ms", "peak_rss_mb": "MB"}


class Child:
    """One child interpreter: its stdout, exit code, wall time and peak RSS."""

    def __init__(self, root: Path, work: Path, argv: list[str], tag: str, ok_codes=(0,)):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        out_path = work / f"{os.getpid()}-{tag}.out"
        with open(out_path, "w") as out:
            self.start_ns = time.monotonic_ns()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, cwd=root, env=env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                if proc.returncode is None and proc.poll() is None:
                    proc.kill()
                    proc.wait()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.end_ns = time.monotonic_ns()
        self.returncode = proc.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out_path.read_text()
        out_path.unlink()
        if self.returncode not in ok_codes:
            raise RuntimeError(f"{' '.join(argv)} exited with {self.returncode}")

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def result(self) -> dict:
        return json.loads(self.stdout.strip().splitlines()[-1])


def setup_times(root, work, workload, seed, samples) -> tuple[list[float], dict]:
    times, env = [], {}
    for i in range(samples):
        child = Child(root, work, ["-m", "worker", "setup", "--workload", workload, "--seed", str(seed)], f"setup{i}")
        res = child.result()
        times.append((res["ready_ns"] - child.start_ns) / 1e9)
        env = res["env"]
    return times, env


def run_warm(args, root, work) -> dict:
    """dense-verify: passes in one warm worker."""
    setups, env = setup_times(root, work, args.workload, args.seed, SETUP_SAMPLES - 1)
    argv = ["-m", "worker", "run", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--spans", str(work / f"spans-{args.workload}-{args.seed}.json")]
    child = Child(root, work, argv, "run")
    res = child.result()
    setups.append((res["ready_ns"] - child.start_ns) / 1e9)
    # the first pass fills the caches at every size of the list: it is
    # checked but not timed (suite-cold, by contrast, is cold every pass)
    return {
        "setup_s": setups,
        "pass_s": res["pass_s"][1:],
        "verdict_ms": res["verdict_ms"][1:],
        "peak_rss_mb": [child.peak_rss_mb],
        "attempted": res["attempted"],
        "failures": res["failures"],
        "skipped": res["skipped"],
        "trace": res.get("trace"),
        "env": env,
    }


def run_suite_cold(args, root, work) -> dict:
    """suite-cold: each pass is ``hardymodel suite`` in a fresh interpreter."""
    import suite

    scen_dir = work / f"suite-{os.getpid()}-{args.seed}"
    plans = suite.write(root / "scenarios", scen_dir, args.seed)
    setups, env = setup_times(root, work, "suite-cold", args.seed, SETUP_SAMPLES)
    pass_s, verdict_ms, rss, failures, attempted, skipped = [], [], [], [], 0, 0
    trace = None

    def one_pass(traced: bool, tag: str):
        nonlocal attempted, skipped
        argv = (["-m", "worker", "suite", "--dir", str(scen_dir),
                 "--spans", str(work / f"spans-suite-cold-{args.seed}.json")] if traced
                else ["-m", "hardymodel.cli", "suite", str(scen_dir)])
        # the suite exits 1 when a check fails; the table check below reports it
        child = Child(root, work, argv, tag, ok_codes=(0, 1))
        ms, fails, skipped = suite.check(child.stdout, plans)
        pass_s.append(child.wall_s)
        verdict_ms.append(ms)
        rss.append(child.peak_rss_mb)
        failures.extend(fails)
        attempted += len(plans)
        return child

    try:
        if args.trace:
            one_pass(False, "pass0")
            trace = one_pass(True, "pass1").result()["trace"]
            trace["metrics"]["trace.overhead_s"] = pass_s[1] - pass_s[0]
        else:
            deadline = time.perf_counter() + args.seconds
            while True:
                one_pass(False, f"pass{len(pass_s)}")
                if time.perf_counter() + pass_s[-1] > deadline:
                    break
    finally:
        shutil.rmtree(scen_dir)
    return {
        "setup_s": setups,
        "pass_s": pass_s,
        "verdict_ms": verdict_ms,
        "peak_rss_mb": rss,
        "attempted": attempted,
        "failures": failures,
        "skipped": skipped,
        "trace": trace,
        "env": env,
    }


def position_medians(verdict_ms: list[list]) -> list[float]:
    """Median latency of each verdict of the list across the timed passes."""
    columns = ([ms for ms in col if ms is not None] for col in zip(*verdict_ms))
    return [statistics.median(col) for col in columns if col]


def end_to_end(raw: dict) -> dict:
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "wall_s": statistics.median(raw["pass_s"]),
        # a typical verdict: the median over the list of each verdict's median
        # across passes, not an order statistic between the list's clusters
        "verdict_ms.p50": statistics.median(position_medians(raw["verdict_ms"])),
        "peak_rss_mb": statistics.median(raw["peak_rss_mb"]),
    }


def run_workload(args, root, work) -> tuple[dict, dict]:
    """(result object, raw samples) for one workload."""
    raw = (run_suite_cold if args.workload == "suite-cold" else run_warm)(args, root, work)
    failed = len(raw["failures"])
    correct = failed == 0
    if args.trace:
        from tracer import EXPECTED_CALLS, PER_LAYER

        values, calls = raw["trace"]["metrics"], raw["trace"]["calls"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        missing = [name for name in EXPECTED_CALLS[args.workload] if not calls.get(name)]
        if missing:
            correct = False
            print(f"traced run: expected calls missing on {args.workload}: {', '.join(missing)}", file=sys.stderr)
    else:
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in end_to_end(raw).items()}
    return {"correct": correct, "attempted": raw["attempted"], "failed": failed, "metrics": metrics}, raw


def report(workload: str, seed: int, result: dict, raw: dict) -> None:
    """Human-readable block for one workload (everything but the last line)."""
    n_pass = len(raw["pass_s"])
    n_verdict = sum(ms is not None for p in raw["verdict_ms"] for ms in p)
    n_position = len(position_medians(raw["verdict_ms"]))
    fail_ratio = result["failed"] / result["attempted"]
    print(f"workload {workload} seed {seed}: {n_verdict} timed verdicts in {n_pass} timed passes, "
          f"{result['failed']} failed, fail_ratio {fail_ratio:.4f}, "
          f"{raw['skipped']} checks a pass skipped (UnsafeDegree refusals, each checked against the reference)")
    counts = {"setup_s": f"{len(raw['setup_s'])} interpreters", "wall_s": f"{n_pass} passes",
              "verdict_ms.p50": f"{n_position} verdicts x {n_pass} passes",
              "peak_rss_mb": f"{len(raw['peak_rss_mb'])} processes"}
    for name, m in result["metrics"].items():
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}{n}")
    seen = set()
    for f in raw["failures"]:
        key = (f["check"], f["seed"], f["size"], f["reason"])
        if key not in seen:
            seen.add(key)
            print(f"  FAILED {f['check']} seed={f['seed']} {f['size']}: {f['reason']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hardymodel" / "__init__.py").is_file() or not (root / "scenarios").is_dir():
        print(f"error: {root} holds no hardymodel checkout (src/hardymodel, scenarios/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    loadavg = os.getloadavg()[0]
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    result, raw = run_workload(args, root, work)
    report(args.workload, args.seed, result, raw)
    env = {**raw["env"], "nproc": os.cpu_count(), "loadavg_1m_at_start": loadavg}
    print(json.dumps({"env": env}))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
