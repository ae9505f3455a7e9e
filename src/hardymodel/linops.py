"""Dense complex linear algebra kernel.

Adjoints, spectral norms, Hermitian PSD square roots, resolvent solves and
deterministic orthonormalization.  All functions are pure; inputs are
never mutated.  Every defect range in the package is ranked by
defect_range.

operator_norm is the exact largest singular value (one LAPACK SVD); a
sparse input with no nonzero value is 0.0 without being densified.
certified_norm is an upper bound on the spectral norm of a large, nearly
Hermitian matrix, within round-off of it: one Lanczos estimate of the
Hermitian part's extreme eigenvalue, certified by two Cholesky
factorizations, plus the Frobenius norm of the skew part.  It falls back
to operator_norm whenever the certificate cannot be had.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import DimensionMismatch, NegativeEigenvalue, NotHermitian, SingularShift

__all__ = [
    "DEFECT_FLOOR",
    "Subspace",
    "adjoint",
    "apply_shifted_inverse",
    "certified_norm",
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
    """Spectral norm; accepts dense arrays or scipy sparse matrices.

    The largest singular value from the same LAPACK call as
    np.linalg.norm(a, 2), without its wrapper overhead.
    """
    if hasattr(a, "toarray"):
        if a.count_nonzero() == 0:
            return 0.0
        a = a.toarray()
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


#: smallest order certified_norm certifies.  Below it the SVD is cheaper
#: than ARPACK's set-up and the two factorizations: on the quotient-model
#: differences (BLAS on 1 thread) the certificate took 1.7x the SVD's time
#: at n = 91 and 105, and 0.73x at n = 120
_CERTIFY_MIN = 112


def _lanczos_start(n: int) -> np.ndarray:
    """The fixed, dense start vector of certified_norm's Lanczos run."""
    return np.cos(np.arange(1, n + 1, dtype=float))


def certified_norm(a: np.ndarray) -> float:
    """Upper bound on ||a||_2 of a square dense matrix, within round-off of
    it when a is nearly Hermitian.

    a = H + K with H = (a + a*)/2 Hermitian and K = (a - a*)/2 skew, so
    ||H|| <= ||a|| <= ||H|| + ||K|| <= ||H|| + ||K||_F.  One ARPACK Lanczos
    run (eigsh, fixed start vector, so the result is deterministic) gives
    the largest-magnitude eigenvalue lambda of H, and two Cholesky
    factorizations certify ||H|| <= mu:

    - They factor s I - H and s I + H with s = |lambda| (1 + 4 n eps).
      Both are positive definite once s exceeds ||H||; the Ritz value is
      exact to a few eps, and 4 n eps leaves the factorizations room to
      succeed.
    - If floating-point Cholesky of a Hermitian B of order n runs to
      completion, then lambda_min(B) >= -g tr(B) with
      g = gamma_{n+1} / (1 - gamma_{n+1}), gamma_k = k u / (1 - k u)
      (Rump, BIT 46 (2006), after Demmel; Higham, Accuracy and Stability
      of Numerical Algorithms, Thm 10.5).  g = 2 (n + 3) eps is at least
      four times that, enough for complex arithmetic, and also covers the
      rounding in forming H, K and s I -+ H.
    - So both factorizations succeeding give ||H|| <= mu = s + g tr_max
      with tr_max = n s + |tr H| >= tr(s I -+ H).  As |tr H| <= n ||H||,
      mu <= |lambda| (1 + c n eps) with c about 4 (n + 4): the margin
      grows like n^2 eps, the order of the worst-case Cholesky error, and
      is at most 4e-10 relative at n = 666.

    The result is mu + ||K||_F (1 + n eps); a zero H needs no certificate.
    Below order _CERTIFY_MIN, when ARPACK does not converge, or when a
    factorization fails (the Ritz value missed the extreme eigenvalue),
    it is the exact operator_norm, so it never under-reports.  One n x n
    buffer serves both factorizations.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n < _CERTIFY_MIN:
        return operator_norm(a)
    eps = np.finfo(float).eps
    skew = 0.5 * np.linalg.norm(a - adjoint(a)) * (1.0 + n * eps)
    h = a + adjoint(a)
    h *= 0.5
    if not h.any():
        return skew
    try:
        lam = scipy.sparse.linalg.eigsh(
            h, k=1, which="LM", v0=_lanczos_start(n), return_eigenvectors=False
        )[0]
    except scipy.sparse.linalg.ArpackError:  # includes ArpackNoConvergence
        return operator_norm(a)
    s = abs(float(lam)) * (1.0 + 4 * n * eps)
    potrf = scipy.linalg.get_lapack_funcs("potrf", (h,))
    buf = np.empty_like(h)
    for sign in (-1.0, 1.0):
        np.multiply(h, sign, out=buf)
        buf.flat[:: n + 1] += s
        # buf.T is Fortran-ordered and equals conj(s I -+ H): positive
        # definite exactly when s I -+ H is; a zero or NaN pivot fails
        if potrf(buf.T, lower=0, clean=0, overwrite_a=1)[1] != 0:
            return operator_norm(a)
    g = 2 * (n + 3) * eps
    mu = s + g * (n * s + abs(float(h.diagonal().real.sum())))
    return mu + skew


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

