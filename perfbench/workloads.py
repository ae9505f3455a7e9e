"""Workload definitions: the fixed verdict list each workload times.

A verdict is one registered check run once, on one seed, at one stated
size.  Every list is a pure function of the benchmark seed, so the same
seed gives the same verdicts.  Only the generated seeds and generator
parameters reach the library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: degree ladder of the dense N x N verifier path; below about 30 the
#: charfn symbol degree (about 24) no longer fits and the checks refuse
DEGREES = (32, 40, 48)
#: projection-identity seeds per degree; its time varies by about 20%
#: between seeds, so the pass median needs many of them to settle
PI_SEEDS = 8

#: the first scenario's first check, with that scenario's generator
SUITE_WARMUP = (
    "charfn-kernel-identity",
    {"instances": 5, "radius_cap": 0.6, "norm_cap": 0.85, "truncation_degree": 40, "dims": [4]},
)


@dataclass(frozen=True)
class Verdict:
    check: str
    seed: int
    params: dict
    size: str


def derive_seed(*key: int) -> int:
    """Unsigned 64-bit seed determined by the integer key."""
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0])


def _plan(workload: str) -> list[tuple[str, dict, str]]:
    """(check, generator params, size label) of every verdict in one pass."""
    if workload == "dense-verify":
        return [
            (check, {"truncation_degree": d, "radius_cap": 0.55}, f"d={d}")
            for d in DEGREES
            for check in ("quotient-model", *["projection-identity"] * PI_SEEDS)
        ]
    if workload == "suite-cold":  # its passes run scenario files; this is only the warm-up
        return [(*SUITE_WARMUP, "scenario=charfn-and-quotients")]
    raise ValueError(f"unknown workload {workload!r}")


def verdicts(workload: str, run_seed: int) -> list[Verdict]:
    """The verdict list of one pass.

    Every derived seed is kept.  An instance whose symbol degree leaves no
    safe degree at its d is timed like any other: the check must refuse it
    with UnsafeDegree, and the reference says when it must.
    """
    return [Verdict(check, derive_seed(run_seed, 0, i), params, size)
            for i, (check, params, size) in enumerate(_plan(workload))]


def warmup_verdict(workload: str, run_seed: int) -> Verdict:
    """The untimed set-up verdict: the list's first check on another seed."""
    check, params, size = _plan(workload)[0]
    return Verdict(check, derive_seed(run_seed, 1, 0), params, size)
