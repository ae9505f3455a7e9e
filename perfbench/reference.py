"""Reference values each verdict is checked against.

The safe cutoff a check reports is recomputed here without calling the
verifier: hardy-regime cutoffs follow from the generator parameters, and
charfn cutoffs ``d - deg - 1`` from the degree ``deg`` at which the
geometric tail bound of the characteristic-function series (the rule of
``charfn.poly_truncate``) drops below the requested tolerance.  The
instances are regenerated from the verdict's seed with the library's
generator, as the check does.
"""

from __future__ import annotations

import math

import numpy as np

from hardymodel.checks import REGISTRY, GeneratorParams
from hardymodel.generators import controlled_contraction

#: checks whose cutoff comes from the charfn series degree, with the
#: matrix dimensions they draw, in draw order (radius min(cap, 0.55),
#: norm cap 0.75); quotient-model splits its draws into a single and a pair
CHARFN_DRAWS = {"quotient-model": ((1,), (1, 1)), "projection-identity": ((1,), (2,))}


def _defect_norm(gram: np.ndarray) -> float:
    """Norm of the PSD square root of a defect Gram matrix."""
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def symbol_degree(a: np.ndarray, tol: float) -> int:
    """Degree at which the certified series tail of theta_a drops below tol."""
    a = np.asarray(a, dtype=complex)
    eye = np.eye(a.shape[0])
    scale = _defect_norm(eye - a.conj().T @ a) * _defect_norm(eye - a @ a.conj().T)
    p, power, norms = 1, a, [1.0]
    while (q := float(np.linalg.norm(power, 2))) >= 0.95:
        norms.append(q)
        power = power @ power
        p *= 2
    m, q = max(norms), max(q, 1e-300)
    k = 1
    while scale * m * p * q ** ((k - 1) // p) / (1.0 - q) >= tol:
        k += 1
    return k - 1


def _charfn_cutoff(check: str, seed, p: GeneratorParams, tol: float) -> int:
    rng = np.random.default_rng(seed)
    cutoffs = []
    for group in CHARFN_DRAWS[check]:
        mats = [controlled_contraction(rng, dim, min(p.radius_cap, 0.55), 0.75) for dim in group]
        deg = max(symbol_degree(a, tol / 10.0) for a in mats)
        cutoffs.append(p.truncation_degree - deg - 1)
    return min(cutoffs)


def _tensor_safe_degree(inner_degrees, d: int) -> int:
    """Safe degree of a tensor quotient with every variable carrying an inner factor."""
    caps = [g - 1 for g in inner_degrees]
    budget = d - 1 - sum(caps)
    i = 0
    while budget > 0 and max(caps) < 12:
        caps[i % len(caps)] += 1
        budget -= 1
        i += 1
    return sum(caps)


def expected_cutoff(check: str, seed, params: dict, tol: float | None = None) -> int:
    p = GeneratorParams.from_dict(params)
    d, n = p.truncation_degree, min(p.num_vars, 2)
    if check in CHARFN_DRAWS:
        return _charfn_cutoff(check, seed, p, REGISTRY[check].default_tol if tol is None else tol)
    fixed = {
        "kernel-eigenrelation": d - 1,
        "parity-family": max(d, 6) - 3,
        "beurling-extraction": 9,
        "kernel-fixed-point": max(d, 24),
        "jordan-quotient": _tensor_safe_degree([2, 1][:n], max(d, 12)),
        "projector-product": _tensor_safe_degree([1, 2][:n], max(d, 14)),
    }
    return fixed.get(check, -1)


def residual_ok(check: str, residual, tail: float, tol: float) -> bool:
    """The residual gate at the pinned tolerance, per the check's statement."""
    if residual is None or not math.isfinite(residual):
        return False
    if check == "double-commutation-counterexample":
        return residual >= 0.1  # a counterexample: the residual must be large
    if check == "kernel-fixed-point":
        return residual <= 10.0 * tail + tol
    if check == "defect-transfer":
        return residual <= tail  # the check's own reported bound
    if check == "power-search":
        return residual <= 0.1  # defect lower bound within the largest epsilon
    return residual <= tol


def verify(check: str, seed, params: dict, tol: float, status: str, residual, tail, cutoff) -> str | None:
    """None when the verdict is correct, else the reason it is not.

    ``status`` is pass, fail, skipped (the check refused with UnsafeDegree)
    or raised.  A refusal is correct exactly when the instance's symbol
    degree leaves no safe degree, i.e. the reference cutoff is negative.
    """
    want = expected_cutoff(check, seed, params, tol)
    if check in CHARFN_DRAWS and want < 0:
        return None if status == "skipped" else f"status {status}, reference cutoff {want} requires a refusal"
    if status != "pass":
        return f"status {status}"
    if not residual_ok(check, residual, tail, tol):
        return f"residual {residual} fails the gate at tol {tol:g}"
    if cutoff != want:
        return f"safe_cutoff {cutoff} != reference {want}"
    return None
