"""Seeded, platform-independent instance generators.

All randomness flows through numpy's PCG64 via explicit seeds.  Tensor
factors are drawn as well-conditioned similarity conjugates of diagonals
with prescribed eigenvalue radii, so spectral-radius certificates hold by
construction and survive Moebius transport.
"""

from __future__ import annotations

import numpy as np

from .contraction import MoebiusPoint, tensor_tuple
from .linops import operator_norm

__all__ = [
    "controlled_contraction",
    "random_moebius_point",
    "random_probes",
    "tuple_ensemble",
]

#: factor-dimension patterns cycled through when building tuple ensembles
_PATTERNS = (
    (4,),
    (3,),
    (2, 2),
    (4, 2),
    (2,),
    (3, 3),
    (2, 2, 2),
    (4, 4),
    (3, 2, 2),
    (2, 3),
)


def controlled_contraction(rng, dim: int, radius: float = 0.6, norm_cap: float = 0.8):
    """Contraction with spectral radius <= radius and norm <= norm_cap."""
    eigs = radius * rng.uniform(0.3, 1.0, dim) * np.exp(2j * np.pi * rng.uniform(size=dim))
    v = np.eye(dim) + 0.25 * (
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )
    a = v @ np.diag(eigs) @ np.linalg.inv(v)
    nrm = operator_norm(a)
    if nrm > norm_cap:
        a = a * (norm_cap / nrm)
    return a


def tuple_ensemble(rng, count: int, radius_cap: float = 0.7, norm_cap: float = 0.8) -> list:
    """Deterministic list of tensor-built tuples cycling the factor patterns
    of _PATTERNS."""
    out = []
    for i in range(count):
        dims = _PATTERNS[i % len(_PATTERNS)]
        radius = radius_cap * rng.uniform(0.5, 1.0)
        factors = [controlled_contraction(rng, m, radius, norm_cap) for m in dims]
        out.append(tensor_tuple(factors))
    return out


def random_probes(rng, dim: int, count: int) -> np.ndarray:
    """Unit-norm probe columns."""
    x = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
    return x / np.linalg.norm(x, axis=0)


def random_moebius_point(rng, n: int, radius: float = 0.45) -> MoebiusPoint:
    coords = radius * rng.uniform(0.2, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return MoebiusPoint(tuple(coords))
