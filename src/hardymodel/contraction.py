"""Doubly commuting contraction tuples and their Moebius/Blaschke calculus.

A ContractionTuple models a sequence of operators with only finitely many
nonzero components; the listed matrices are the nonzero components and the
implicit tail of zero operators contributes identity defect factors, so the
infinite defect product is the listed finite product exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .linops import adjoint, hermitian_sqrt, operator_norm, solve_shifted

__all__ = [
    "BlaschkeProduct",
    "ContractionTuple",
    "MoebiusPoint",
    "ValidationReport",
    "defect",
    "joint_defect",
    "mobius",
    "mobius_tuple",
    "spectral_radius_bound",
    "tensor_tuple",
    "validate_tuple",
]

#: Margin for the strong-stability certificate: a component passes when its
#: power-scaled norm estimate stays below 1 - C00_MARGIN.
C00_MARGIN = 1e-6
_NORM_SLACK = 1e-10
_RADIUS_POWER = 64


def spectral_radius_bound(a: np.ndarray) -> float:
    """Upper bound ||A^K||^(1/K) on the spectral radius, K = _RADIUS_POWER.

    Powers are rescaled by their largest entry after each squaring to
    avoid under/overflow, tracking the accumulated log scale instead; any
    scale gives the same bound, so only the last power pays for an SVD.
    """
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    k = 1
    m = a
    log_norm = 0.0
    while k < _RADIUS_POWER:
        m = m @ m
        k *= 2
        n = operator_norm(m) if k >= _RADIUS_POWER else float(np.abs(m).max())
        if n == 0.0:
            return 0.0
        log_norm = 2.0 * log_norm + np.log(n)
        m = m / n
    return float(np.exp(log_norm / k))


@dataclass(frozen=True)
class ContractionTuple:
    """Finite list of same-size square matrices standing for (T_1,..,T_n,0,..)."""

    components: tuple

    def __post_init__(self):
        comps = tuple(np.asarray(c, dtype=complex) for c in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise DimensionMismatch("tuple needs at least one component")
        dim = comps[0].shape[0]
        for c in comps:
            if c.ndim != 2 or c.shape != (dim, dim):
                raise DimensionMismatch("components must be square and equal-sized")

    @property
    def space_dim(self) -> int:
        return self.components[0].shape[0]

    @property
    def num_components(self) -> int:
        return len(self.components)

    def adjoint(self) -> "ContractionTuple":
        return ContractionTuple(tuple(adjoint(c) for c in self.components))


@dataclass(frozen=True)
class MoebiusPoint:
    """Finitely supported point of the infinite polydisk."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(complex(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        for c in coords:
            if abs(c) >= 1.0:
                raise DimensionMismatch(f"coordinate {c} is not inside the open disk")

    def coord(self, k: int) -> complex:
        """k-th coordinate (0-based); implicit tail of zeros."""
        return self.coords[k] if k < len(self.coords) else 0.0j


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product: unimodular factor times elementary factors.

    B(z) = factor * prod_i (zeros_i - z) / (1 - conj(zeros_i) z).
    """

    unimodular_factor: complex = 1.0 + 0.0j
    zeros: tuple = ()

    def __post_init__(self):
        f = complex(self.unimodular_factor)
        if abs(abs(f) - 1.0) > 1e-12:
            raise DimensionMismatch("factor must be unimodular")
        zs = tuple(complex(z) for z in self.zeros)
        for z in zs:
            if abs(z) >= 1.0:
                raise DimensionMismatch("Blaschke zeros must lie in the open disk")
        object.__setattr__(self, "unimodular_factor", f)
        object.__setattr__(self, "zeros", zs)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z: complex) -> complex:
        out = self.unimodular_factor
        for a in self.zeros:
            out *= (a - z) / (1.0 - np.conj(a) * z)
        return complex(out)

    def coefficients(self, degree: int) -> np.ndarray:
        """Power-series coefficients up to the given degree."""
        coeffs = np.zeros(degree + 1, dtype=complex)
        coeffs[0] = self.unimodular_factor
        for a in self.zeros:
            coeffs = np.convolve(coeffs, mobius_series(a, degree))[: degree + 1]
        return coeffs


def mobius_series(a: complex, degree: int) -> np.ndarray:
    """Coefficients of (a - z)/(1 - conj(a) z) up to the given degree."""
    a = complex(a)
    out = np.zeros(degree + 1, dtype=complex)
    out[0] = a
    if degree >= 1:
        ab = np.conj(a)
        k = np.arange(degree)
        out[1:] = (abs(a) ** 2 - 1.0) * ab**k
    return out


@dataclass(frozen=True)
class ValidationReport:
    """Per-component norms and residuals of the class membership checks."""

    norms: tuple
    radius_estimates: tuple
    max_commutator: float
    max_cross_commutator: float
    tol: float
    passed: bool = field(default=False)

    def summary(self) -> str:
        return (
            f"pass={self.passed} min_margin={1.0 - max(self.norms):.3e} "
            f"max_radius={max(self.radius_estimates):.6f} "
            f"comm={self.max_commutator:.3e} cross={self.max_cross_commutator:.3e}"
        )


def _commutator_norms(mats, probes=None) -> tuple[float, float]:
    """Largest commutator ||[A_i, A_j]|| and cross-commutator
    ||[A_i*, A_j]|| (i != j) of the given matrices, each applied to the
    probe columns when they are given."""

    def norm(x):
        return operator_norm(x if probes is None else x @ probes)

    max_comm = 0.0
    max_cross = 0.0
    for i, ci in enumerate(mats):
        for j, cj in enumerate(mats):
            if i < j:
                max_comm = max(max_comm, norm(ci @ cj - cj @ ci))
            if i != j:
                max_cross = max(max_cross, norm(adjoint(ci) @ cj - cj @ adjoint(ci)))
    return max_comm, max_cross


def validate_tuple(t: ContractionTuple, tol: float = 1e-10) -> ValidationReport:
    """Contraction margins, stability estimates and (cross-)commutator residuals.

    Passes when every component has norm <= 1 + tol, power-scaled radius
    estimate <= 1 - C00_MARGIN and all commutators [T_i, T_j] and
    cross-commutators [T_i*, T_j] (i != j) have norm <= tol.
    """
    comps = t.components
    norms = tuple(operator_norm(c) for c in comps)
    radii = tuple(spectral_radius_bound(c) for c in comps)
    max_comm, max_cross = _commutator_norms(comps)
    passed = (
        all(1.0 - x >= -tol for x in norms)
        and all(r <= 1.0 - C00_MARGIN for r in radii)
        and max_comm <= tol
        and max_cross <= tol
    )
    return ValidationReport(norms, radii, max_comm, max_cross, tol, passed)


def defect(a: np.ndarray) -> np.ndarray:
    """Defect operator (I - A*A)^(1/2) of a contraction; ||D|| <= 1, so its
    range is ranked by linops.orthonormalize on the absolute RANK_FLOOR."""
    a = np.asarray(a, dtype=complex)
    # ||A||_2 <= ||A||_F: the cheap norm accepts, the SVD decides
    if np.linalg.norm(a) > 1.0 + _NORM_SLACK and operator_norm(a) > 1.0 + _NORM_SLACK:
        raise DimensionMismatch("matrix is not a contraction")
    gram = np.eye(a.shape[0], dtype=complex) - adjoint(a) @ a
    return hermitian_sqrt(gram)


def joint_defect(t: ContractionTuple) -> np.ndarray:
    """Product of the componentwise defects in listed order.

    The implicit zero tail contributes identity factors, so this finite
    product is the full stabilized defect of the sequence.
    """
    out = np.eye(t.space_dim, dtype=complex)
    for c in t.components:
        out = out @ defect(c)
    return out


def mobius(a_matrix: np.ndarray, a: complex) -> np.ndarray:
    """Disk-automorphism calculus (a I - A)(I - conj(a) A)^(-1)."""
    m = np.asarray(a_matrix, dtype=complex)
    if operator_norm(m) > 1.0 + _NORM_SLACK:
        raise DimensionMismatch("matrix is not a contraction")
    if abs(a) >= 1.0:
        raise DimensionMismatch("parameter must lie in the open disk")
    inv = solve_shifted(m, np.conj(a))
    return (a * np.eye(m.shape[0], dtype=complex) - m) @ inv


def mobius_tuple(t: ContractionTuple, lam: MoebiusPoint) -> ContractionTuple:
    """Componentwise Moebius transform; tail entries act on the zero tail only."""
    comps = tuple(
        mobius(c, lam.coord(k)) for k, c in enumerate(t.components)
    )
    return ContractionTuple(comps)


def tensor_tuple(factors) -> ContractionTuple:
    """Doubly commuting tuple I x..x A_i x..x I on the tensor product space."""
    mats = [np.asarray(f, dtype=complex) for f in factors]
    if not mats:
        raise DimensionMismatch("need at least one factor")
    for f in mats:
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise DimensionMismatch("factors must be square")
    dims = [f.shape[0] for f in mats]
    comps = []
    for i, f in enumerate(mats):
        left = int(np.prod(dims[:i])) if i else 1
        right = int(np.prod(dims[i + 1 :])) if i + 1 < len(dims) else 1
        comp = np.kron(np.kron(np.eye(left), f), np.eye(right))
        comps.append(comp)
    return ContractionTuple(tuple(comps))
