"""Dense complex linear algebra kernel.

Adjoints, spectral norms, Hermitian PSD square roots, resolvent solves and
orthonormalization, all on numpy's LAPACK.  All functions are pure; inputs
are never mutated.  Every rank in the package is decided by orthonormalize
on the one absolute RANK_FLOOR.

operator_norm is the exact largest singular value (one LAPACK SVD); a
sparse input with no nonzero value is 0.0 without being densified.
holder_bound is an O(n^2) upper bound on it, with no LAPACK call; the
model checks run operator_norm only when that bound exceeds their tol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NegativeEigenvalue, NotHermitian, SingularShift

__all__ = [
    "RANK_FLOOR",
    "Subspace",
    "adjoint",
    "apply_shifted_inverse",
    "hermitian_sqrt",
    "holder_bound",
    "operator_norm",
    "orthonormalize",
    "solve_shifted",
]


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; of each matrix, for a stack of matrices."""
    return a.conj().T if a.ndim <= 2 else a.conj().swapaxes(-1, -2)


def operator_norm(a):
    """Spectral norm; accepts dense arrays or scipy sparse matrices.

    The largest singular value from the same LAPACK call as
    np.linalg.norm(a, 2), without its wrapper overhead.  A stack of
    matrices gives the array of their norms from one batched call.
    """
    if hasattr(a, "toarray"):
        if a.count_nonzero() == 0:
            return 0.0
        a = a.toarray()
    a = np.asarray(a)
    if a.size == 0:
        return np.zeros(a.shape[:-2]) if a.ndim > 2 else 0.0
    norms = np.linalg.svd(a, compute_uv=False)[..., 0]
    return norms if a.ndim > 2 else float(norms)


def holder_bound(a: np.ndarray) -> float:
    """Hoelder bound sqrt(||a||_1 ||a||_inf) >= ||a||_2 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 6.3) times 1 + 4 (n + 2) u,
    u = eps / 2, n the longer side; 0.0 when a is empty.  The margin covers
    the rounding: each |a_ij| is within 2u relative, a sum of n nonnegative
    terms within gamma_(n-1) in any order (sec. 4.2), and the two roots
    (taken apart, so no product underflows), their product and the scaling
    add one rounding each, (n + 5) u to first order (subnormal entries aside).
    """
    a = np.abs(a)
    if a.size == 0:
        return 0.0
    root = np.sqrt(a.sum(axis=0).max()) * np.sqrt(a.sum(axis=1).max())
    return float(root) * (1.0 + 2 * (max(a.shape) + 2) * np.finfo(float).eps)


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
        # ||G - I||_F >= ||G - I||_2: the cheap norm accepts, the SVD decides
        dev = adjoint(self.basis) @ self.basis - np.eye(self.dim)
        if np.linalg.norm(dev) > 1e-12 and operator_norm(dev) > 1e-12:
            raise DimensionMismatch("basis columns are not orthonormal")


#: round-off window of hermitian_sqrt: asymmetry and negative eigenvalues
#: up to this size are forgiven
_SQRT_TOL = 1e-9

#: largest condition number bound solve_shifted accepts for I - z*T
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
    if not np.isfinite(a).all():
        raise DimensionMismatch("matrix entries must be finite")
    # ||A - A*||_2 <= ||A - A*||_F: the cheap norm accepts, the SVD decides
    skew = a - adjoint(a)
    if np.linalg.norm(skew) > _SQRT_TOL:
        asym = operator_norm(skew)
        if asym > _SQRT_TOL:
            raise NotHermitian(f"asymmetry {asym:.3e} exceeds tol {_SQRT_TOL:.3e}")
    w, v = np.linalg.eigh((a + adjoint(a)) / 2.0)
    if w.size and w[0] < -_SQRT_TOL:
        raise NegativeEigenvalue(f"eigenvalue {w[0]:.3e} below -tol {-_SQRT_TOL:.3e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ adjoint(v)


def solve_shifted(t: np.ndarray, z: complex) -> np.ndarray:
    """(I - z*T)^{-1} of a contraction T (mobius checks ||T|| <= 1) by one
    direct solve; its condition gate is cond(I - z T) <= (1 + |z|) / (1 - |z|),
    which has no bound for |z| >= 1."""
    t = np.asarray(t, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DimensionMismatch("solve_shifted expects a square matrix")
    cond = (1.0 + abs(z)) / (1.0 - abs(z)) if abs(z) < 1.0 else np.inf
    if cond > _COND_CAP:
        raise SingularShift(f"I - z*T has condition number bound {cond:.3e}")
    return apply_shifted_inverse(t, z, np.eye(t.shape[0], dtype=complex))


def apply_shifted_inverse(t: np.ndarray, z, rhs: np.ndarray) -> np.ndarray:
    """(I - z*T)^{-1} @ rhs without forming the inverse; for an array of
    points z, the stacked systems I - z_k T in one np.linalg.solve, against
    rhs or against one right-hand side per point."""
    t = np.asarray(t, dtype=complex)
    m = np.eye(t.shape[0], dtype=complex) - np.multiply.outer(z, t)
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise SingularShift(str(exc)) from exc


#: absolute rank floor of orthonormalize: a singular value counts while it
#: exceeds RANK_FLOOR.  For a defect D = (I - T*T)^(1/2) the singular values
#: are the square roots of the eigenvalues of I - T*T, so the rank counts
#: those above RANK_FLOOR**2 = 1e-12; the square root of a round-off
#: eigenvalue is about sqrt(m * eps), measured up to 3.3e-8, a 30x margin.
#: Every caller's columns have norm O(1) (0.73 to 1.12 over the verdict
#: sweep), so the floor is as sharp as a relative one, and a numerically
#: zero input has rank 0.
RANK_FLOOR = 1e-6


def orthonormalize(vectors: np.ndarray) -> Subspace:
    """Orthonormal basis of the span of the given columns.

    The leading left singular vectors of numpy's SVD (Golub & Van Loan,
    Matrix Computations, sec. 5.4) whose singular values exceed
    RANK_FLOOR.  When no column has more than one nonzero, the singular
    values are the row norms and the singular vectors unit columns: those
    of the rows above RANK_FLOOR, in row order, with no decomposition.
    The floor is absolute, so the columns must have norm O(1): isometry
    columns, rows of an orthonormal basis, contraction defects, unit
    monomials, normalized embedding and kernel columns.  Zero input yields
    the zero-dimensional subspace, an inf or NaN entry ValueError.
    """
    v = np.asarray(vectors, dtype=complex)
    if v.ndim == 1:
        v = v[:, None]
    ambient = v.shape[0]
    if not np.isfinite(v).all():
        raise ValueError("array must not contain infs or NaNs")
    if not v.any():  # also no rows or no columns
        return Subspace(ambient, np.zeros((ambient, 0), dtype=complex))
    if np.count_nonzero(v, axis=0).max() == 1:
        rows = np.flatnonzero(np.linalg.norm(v, axis=1) > RANK_FLOOR)
        basis = np.zeros((ambient, rows.size), dtype=complex)
        basis[rows, np.arange(rows.size)] = 1.0
        return Subspace(ambient, basis)
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    return Subspace(ambient, np.ascontiguousarray(u[:, s > RANK_FLOOR]))
