"""Dense complex linear algebra kernel.

Adjoints, Hermitian PSD square roots, resolvent solves and deterministic
orthonormalization.  All functions are pure; inputs are never mutated.
Every defect range in the package is ranked by defect_range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NegativeEigenvalue, NotHermitian, SingularShift

__all__ = [
    "DEFECT_FLOOR",
    "Subspace",
    "adjoint",
    "defect_range",
    "hermitian_sqrt",
    "operator_norm",
    "orthonormalize",
    "solve_shifted",
]


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def operator_norm(a) -> float:
    """Spectral norm; accepts dense arrays or scipy sparse matrices."""
    if hasattr(a, "toarray"):
        a = a.toarray()
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True)
class Subspace:
    """Subspace of C^ambient_dim given by an orthonormal column basis.

    A zero-dimensional subspace has a (ambient_dim, 0) basis.
    """

    ambient_dim: int
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def __post_init__(self):
        if self.basis.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"basis has {self.basis.shape[0]} rows, ambient dim is {self.ambient_dim}"
            )
        if self.dim > self.ambient_dim:
            raise DimensionMismatch("more basis vectors than ambient dimension")
        gram = adjoint(self.basis) @ self.basis
        if self.dim and operator_norm(gram - np.eye(self.dim)) > 1e-12:
            raise DimensionMismatch("basis columns are not orthonormal")


#: round-off window of hermitian_sqrt: asymmetry and negative eigenvalues
#: up to this size are forgiven
_SQRT_TOL = 1e-9

#: largest condition number solve_shifted accepts for I - z*T
_COND_CAP = 1e12


def hermitian_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root via full eigendecomposition.

    Eigenvalues in [-_SQRT_TOL, 0) are clamped to 0; anything below
    -_SQRT_TOL raises NegativeEigenvalue.  Asymmetry beyond _SQRT_TOL
    raises NotHermitian.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("hermitian_sqrt expects a square matrix")
    asym = operator_norm(a - adjoint(a))
    if asym > _SQRT_TOL:
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds tol {_SQRT_TOL:.3e}")
    w, v = np.linalg.eigh((a + adjoint(a)) / 2.0)
    if w.size and w[0] < -_SQRT_TOL:
        raise NegativeEigenvalue(f"eigenvalue {w[0]:.3e} below -tol {-_SQRT_TOL:.3e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ adjoint(v)


def solve_shifted(t: np.ndarray, z: complex) -> np.ndarray:
    """(I - z*T)^{-1} by direct linear solve, no series truncation."""
    t = np.asarray(t, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DimensionMismatch("solve_shifted expects a square matrix")
    m = np.eye(t.shape[0], dtype=complex) - z * t
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > _COND_CAP:
        raise SingularShift(f"I - z*T has condition number {cond:.3e}")
    return scipy.linalg.solve(m, np.eye(t.shape[0], dtype=complex))


def apply_shifted_inverse(t: np.ndarray, z: complex, rhs: np.ndarray) -> np.ndarray:
    """(I - z*T)^{-1} @ rhs without forming the inverse."""
    t = np.asarray(t, dtype=complex)
    m = np.eye(t.shape[0], dtype=complex) - z * t
    try:
        return scipy.linalg.solve(m, rhs)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise SingularShift(str(exc)) from exc


def orthonormalize(vectors: np.ndarray, rank_tol: float = 1e-10) -> Subspace:
    """Deterministic pivoted span of the given columns.

    Column-pivoted QR (LAPACK geqp3) greedily picks the largest remaining
    column norm (ties resolved by lowest index inside LAPACK,
    deterministically); a pivot is accepted while its residual norm
    exceeds rank_tol times the largest original column norm.  Zero input
    yields the zero-dimensional subspace.
    """
    v = np.array(vectors, dtype=complex, order="F")
    if v.ndim == 1:
        v = v[:, None]
    ambient = v.shape[0]
    scale = float(np.max(np.linalg.norm(v, axis=0), initial=0.0))
    if scale == 0.0:  # also no rows or no columns
        return Subspace(ambient, np.zeros((ambient, 0), dtype=complex))
    q, r, _ = scipy.linalg.qr(v, mode="economic", pivoting=True, overwrite_a=True)
    rank = int(np.sum(np.abs(np.diag(r)) > rank_tol * scale))
    return Subspace(ambient, np.ascontiguousarray(q[:, :rank]))


#: absolute rank floor of a defect operator D = (I - T*T)^(1/2): a pivot of
#: its QR counts while |R_ii| > DEFECT_FLOOR, which is an eigenvalue of
#: I - T*T above DEFECT_FLOOR**2 = 1e-12.  The square root of a round-off
#: eigenvalue is about sqrt(m * eps), measured up to 3.3e-8, a 30x margin.
DEFECT_FLOOR = 1e-6


def defect_range(d: np.ndarray) -> Subspace:
    """Orthonormal range of a defect operator (or of side-by-side defects).

    The pivoted QR of orthonormalize accepts a pivot while |R_ii| exceeds
    DEFECT_FLOOR.  The scale is 1, as ||D|| <= 1 for a contraction; a rank
    relative to ||D|| would count round-off as rank when D is numerically
    zero.
    """
    d = np.asarray(d, dtype=complex)
    scale = float(np.max(np.linalg.norm(d, axis=0), initial=0.0))
    if scale <= DEFECT_FLOOR:
        return Subspace(d.shape[0], np.zeros((d.shape[0], 0), dtype=complex))
    # orthonormalize scales rank_tol by the largest column norm
    return orthonormalize(d, rank_tol=DEFECT_FLOOR / scale)

