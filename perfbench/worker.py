"""Benchmark worker: runs inside a fresh interpreter started by run.py.

Modes:
  setup  import the library and run one warm-up verdict, then exit
  run    set up, time passes over the workload's verdict list, check them
  suite  run ``hardymodel suite DIR`` in this interpreter with tracing on

Each mode prints one JSON object as its last stdout line.  Times taken
with ``time.monotonic_ns`` are comparable with the parent's clock.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import sys
import time


def clean(value):
    """JSON-safe copy: NaN and infinities become null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [clean(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return clean(value.item())
    return value


def emit(obj) -> None:
    print(json.dumps(clean(obj), allow_nan=False), flush=True)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def run_verdict(v):
    """(ms, status, residual, tail, cutoff, error) of one timed verdict.

    status is pass, fail, skipped (the check refused with UnsafeDegree,
    as ``hardymodel suite`` reports it) or raised (any other exception).
    """
    import numpy as np
    from hardymodel.checks import REGISTRY, GeneratorParams
    from hardymodel.errors import UnsafeDegree

    spec = REGISTRY[v.check]
    params = GeneratorParams.from_dict(v.params)
    rng = np.random.default_rng(v.seed)
    start = time.perf_counter()
    try:
        out = spec.run(rng, params, spec.default_tol)
    except UnsafeDegree:
        return (time.perf_counter() - start) * 1e3, "skipped", math.nan, 0.0, -1, None
    except Exception as exc:  # a raised exception is a failed verdict; keep timing the rest
        ms = (time.perf_counter() - start) * 1e3
        return ms, "raised", math.nan, 0.0, -1, f"{type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - start) * 1e3
    status = "pass" if out.passed else "fail"
    return ms, status, float(out.residual), float(out.tail_bound), int(out.safe_cutoff), None


def timed_pass(verdict_list):
    start = time.perf_counter()
    records = [run_verdict(v) for v in verdict_list]
    return time.perf_counter() - start, records


def check_records(verdict_list, passes) -> list[dict]:
    """Failure entries (check, seed, size, reason) over every timed verdict."""
    from hardymodel.checks import REGISTRY

    import reference

    failures = []
    verdicts_cache: dict = {}
    for records in passes:
        for v, (_, status, residual, tail, cutoff, error) in zip(verdict_list, records):
            key = (v.check, v.seed, v.size, status, residual, tail, cutoff, error)
            if key not in verdicts_cache:
                reason = error or reference.verify(
                    v.check, v.seed, v.params, REGISTRY[v.check].default_tol, status, residual, tail, cutoff
                )
                verdicts_cache[key] = reason
            if verdicts_cache[key]:
                failures.append({"check": v.check, "seed": v.seed, "size": v.size, "reason": verdicts_cache[key]})
    return failures


def cmd_setup(args) -> None:
    import hardymodel  # noqa: F401

    import workloads

    run_verdict(workloads.warmup_verdict(args.workload, args.seed))
    emit({"ready_ns": time.monotonic_ns(), "env": environment()})


def cmd_run(args) -> None:
    import hardymodel  # noqa: F401

    import workloads

    verdict_list = workloads.verdicts(args.workload, args.seed)
    run_verdict(workloads.warmup_verdict(args.workload, args.seed))
    ready_ns = time.monotonic_ns()
    passes, pass_s = [], []
    result = {"ready_ns": ready_ns}
    if args.trace:
        from tracer import Tracer

        # untraced, traced, untraced: the overhead compares the traced pass
        # with the untraced pass that follows it, so both see warm caches
        first_s, first = timed_pass(verdict_list)
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, traced = timed_pass(verdict_list)
        finally:
            tracer.uninstall()
        untraced_s, untraced = timed_pass(verdict_list)
        passes, pass_s = [first, traced, untraced], [first_s, traced_s, untraced_s]
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = traced_s - untraced_s
        result["trace"] = {"metrics": metrics, "calls": dict(tracer.calls)}
        write_spans(args.spans, tracer)
    else:
        deadline = time.perf_counter() + args.seconds
        while True:
            s, records = timed_pass(verdict_list)
            passes.append(records)
            pass_s.append(s)
            # at least one pass after the cache-filling first; then another
            # only if it fits in the measuring time
            if len(pass_s) >= 2 and time.perf_counter() + s > deadline:
                break
    result["pass_s"] = pass_s
    result["verdict_ms"] = [[r[0] for r in records] for records in passes]
    result["attempted"] = sum(len(records) for records in passes)
    result["failures"] = check_records(verdict_list, passes)
    result["skipped"] = sum(r[1] == "skipped" for r in passes[0])
    emit(result)


def write_spans(path, tracer) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump({"spans": tracer.spans, "fields": ["id", "parent", "name", "start_ns", "end_ns"]}, fh)


def cmd_suite(args) -> None:
    from hardymodel import cli

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            cli.main(["suite", args.dir])
    finally:
        tracer.uninstall()
    write_spans(args.spans, tracer)
    sys.stdout.write(buf.getvalue())
    emit({"trace": {"metrics": tracer.metrics(), "calls": dict(tracer.calls)}})


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run", "suite"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans")
    parser.add_argument("--dir")
    args = parser.parse_args(argv)
    {"setup": cmd_setup, "run": cmd_run, "suite": cmd_suite}[args.mode](args)


if __name__ == "__main__":
    main()
