"""Degree-truncated vector-valued Hardy space over the Hilbert multidisk.

The basis enumerates monomials of total degree <= d in the first n
variables, graded-lexicographically, tensored with a coefficient space of
dimension e.  Coefficient layout is flat with index monomial*e + slot.
A monomial's index has a closed form in the combinatorial number system
(Knuth, TAOCP 4A, 7.2.1.3): for alpha of degree k,

    rank(alpha) = C(k-1+n, n) + sum_{i=1}^{n-1} C(r_i - alpha_i - 1 + n-i, n-i),
    r_i = k - (alpha_1 + ... + alpha_{i-1}),

the number of monomials of lower degree plus those of degree k that come
first in lex order.  _graded_lex_exponents and HardyBasis.rank are the
package's one multi-index enumerator: the dilation's defect-orbit levels,
generator orbits and tensor quotient columns take their rows and indices
from them.  Operators are CSR matrices carrying a degree window
(lo, hi): they couple input degree k only to output degrees in
[k+lo, k+hi], so exact (safe) domains under truncation are computable.
Shifts and multiplication operators are assembled in one vectorized pass
over all their terms, in a fixed entry order (term, source, block entry).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DegreeOverflow, DimensionMismatch, SizeOverflow
from .linops import Subspace, operator_norm, orthonormalize

__all__ = [
    "HardyBasis",
    "HardyOperator",
    "HardyVector",
    "InnerReport",
    "enumerate_basis",
    "evaluate",
    "is_inner_on_truncation",
    "kernel_vector",
    "mobius_partial_product",
    "mult_operator",
    "one_variable_symbol",
    "parity_shift",
    "shift",
    "wandering_subspace",
]

BASIS_CAP_ENV = "HARDYMODEL_BASIS_CAP"
_DEFAULT_BASIS_CAP = 200_000


def basis_size_cap() -> int:
    """The truncated-basis size cap; ValueError when the environment
    override is not a positive integer."""
    raw = os.environ.get(BASIS_CAP_ENV, str(_DEFAULT_BASIS_CAP))
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{BASIS_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


def _binomial(top: np.ndarray, k: int) -> np.ndarray:
    """Elementwise C(top, k) for top >= 0, exact in integers (0 when top < k)."""
    out = np.ones_like(top)
    for j in range(k):
        out = out * (top - j) // (j + 1)  # C(top, j) (top - j) = (j + 1) C(top, j + 1)
    return out


def _graded_lex_rank(exps: np.ndarray) -> np.ndarray:
    """Graded-lex index of each nonnegative exponent row (last axis), by
    the closed form in the module docstring; every binomial top is >= 0."""
    n = exps.shape[-1]
    remaining = exps.sum(axis=-1)
    out = _binomial(remaining - 1 + n, n)
    for i in range(n - 1):
        out = out + _binomial(remaining - exps[..., i] - 1 + n - 1 - i, n - 1 - i)
        remaining = remaining - exps[..., i]
    return out


def _graded_lex_exponents(n: int, cap: int) -> np.ndarray:
    """All exponent rows with total degree <= cap, degree-major, lex within."""
    exps = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n):
        lead, rest = np.nonzero(np.arange(cap + 1)[:, None] + exps.sum(axis=1) <= cap)
        exps = np.column_stack([lead, exps[rest]])
    out = np.empty_like(exps)
    out[_graded_lex_rank(exps)] = exps
    return out


@dataclass(frozen=True)
class HardyBasis:
    """Monomial basis of the truncated Hardy space, times coefficient slots."""

    num_vars: int
    max_degree: int
    coeff_dim: int
    # (num_vars, max_degree) determine the rows, so equality skips the array
    exponents: np.ndarray = field(repr=False, compare=False)

    @property
    def num_monomials(self) -> int:
        return self.exponents.shape[0]

    @property
    def size(self) -> int:
        return self.num_monomials * self.coeff_dim

    @property
    def degrees(self) -> np.ndarray:
        return self.exponents.sum(axis=1)

    def rank(self, exps) -> np.ndarray:
        """Monomial index of each exponent row (last axis has length n)."""
        a = np.asarray(exps, dtype=np.int64)
        if a.shape[-1:] != (self.num_vars,):
            raise DimensionMismatch(f"exponents need {self.num_vars} entries, got shape {a.shape}")
        if (a < 0).any() or (a.sum(axis=-1) > self.max_degree).any():
            raise DegreeOverflow(f"exponent outside the degree <= {self.max_degree} basis")
        return _graded_lex_rank(a)

    def monomial_index(self, alpha) -> int:
        return int(self.rank(alpha))

    def flat_index(self, alpha, slot: int = 0) -> int:
        return self.monomial_index(alpha) * self.coeff_dim + slot

    def flat_degrees(self) -> np.ndarray:
        return np.repeat(self.degrees, self.coeff_dim)

    def degree_selector(self, cutoff: int) -> np.ndarray:
        """Boolean mask over flat indices for total degree <= cutoff."""
        return self.flat_degrees() <= cutoff


_BASIS_CACHE: dict = {}


def enumerate_basis(n: int, d: int, e: int = 1) -> HardyBasis:
    """Deterministic graded-lexicographic basis of size C(n+d, d) * e."""
    if n < 1 or d < 0 or e < 1:
        raise DimensionMismatch("need n >= 1, d >= 0, e >= 1")
    total = math.comb(n + d, d) * e
    if total > basis_size_cap():
        raise SizeOverflow(f"basis size {total} exceeds cap {basis_size_cap()}")
    key = (n, d)
    exps = _BASIS_CACHE.get(key)
    if exps is None:
        exps = _graded_lex_exponents(n, d)
        exps.flags.writeable = False  # every basis of this (n, d) shares the array
        if len(_BASIS_CACHE) < 64:
            _BASIS_CACHE[key] = exps
    return HardyBasis(n, d, e, exps)


@dataclass(frozen=True)
class HardyVector:
    """Coefficient vector over a HardyBasis; norm is the Parseval sum."""

    basis: HardyBasis
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex).reshape(-1)
        if c.shape[0] != self.basis.size:
            raise DimensionMismatch(
                f"expected {self.basis.size} coefficients, got {c.shape[0]}"
            )
        object.__setattr__(self, "coefficients", c)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))


def monomial_vector(basis: HardyBasis, alpha, slot: int = 0) -> HardyVector:
    c = np.zeros(basis.size, dtype=complex)
    c[basis.flat_index(alpha, slot)] = 1.0
    return HardyVector(basis, c)


@dataclass(frozen=True)
class HardyOperator:
    """CSR matrix over truncated Hardy bases with a degree coupling window.

    shift_lo/shift_hi bound output degree - input degree.  Exact semantics
    hold on inputs of degree <= safe_input_degree.  Any matrix given
    (dense or sparse) is stored as CSR.
    """

    basis_in: HardyBasis
    basis_out: HardyBasis
    matrix: sp.csr_matrix = field(repr=False)
    shift_lo: int = 0
    shift_hi: int = 0

    def __post_init__(self):
        m = sp.csr_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.basis_out.size, self.basis_in.size):
            raise DimensionMismatch(
                f"matrix shape {m.shape} does not match bases "
                f"({self.basis_out.size}, {self.basis_in.size})"
            )

    @property
    def safe_input_degree(self) -> int:
        return self.basis_in.max_degree - max(self.shift_hi, 0)

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def apply(self, v: HardyVector) -> HardyVector:
        if v.basis != self.basis_in:
            raise DimensionMismatch("vector basis does not match operator input")
        return HardyVector(self.basis_out, self.matrix @ v.coefficients)

    def apply_adjoint(self, v: HardyVector) -> HardyVector:
        if v.basis != self.basis_out:
            raise DimensionMismatch("vector basis does not match operator output")
        return HardyVector(self.basis_in, self.matrix.conj().T @ v.coefficients)

    def compose(self, other: "HardyOperator") -> "HardyOperator":
        """self after other; degree windows add."""
        if other.basis_out != self.basis_in:
            raise DimensionMismatch("composition bases do not match")
        return HardyOperator(
            other.basis_in,
            self.basis_out,
            self.matrix @ other.matrix,
            self.shift_lo + other.shift_lo,
            self.shift_hi + other.shift_hi,
        )


def _assemble(basis_in: HardyBasis, basis_out: HardyBasis, terms) -> sp.csr_matrix:
    """CSR matrix of a sum of monomial maps tensored with coefficient blocks.

    Each term (target, c) sends monomial i to monomial target[i] (dropped
    when beyond the truncation) with the (e_out, e_in) block c.  The terms
    are stacked, their kept (term, source) pairs ranked in one call, and
    the entries laid out term-major, then by source, then by nonzero (p, q).
    """
    e_in, e_out = basis_in.coeff_dim, basis_out.coeff_dim
    shape = (basis_out.size, basis_in.size)
    if not terms:
        return sp.csr_matrix(shape)
    targets = np.stack([target for target, _ in terms])
    blocks = np.stack([c for _, c in terms]).reshape(len(terms), -1)
    term, src = np.nonzero(targets.sum(axis=2) <= basis_in.max_degree)
    dst = basis_in.rank(targets[term, src])
    pair, pq = np.nonzero((blocks != 0)[term])
    rows = dst[pair] * e_out + pq // e_in
    cols = src[pair] * e_in + pq % e_in
    return sp.csr_matrix((blocks[term[pair], pq], (rows, cols)), shape=shape)


def shift(k: int, basis: HardyBasis) -> HardyOperator:
    """Coordinate multiplication in variable k (1-based), truncated."""
    if not 1 <= k <= basis.num_vars:
        raise DimensionMismatch(f"variable index {k} out of range")
    target = basis.exponents.copy()
    target[:, k - 1] += 1
    mat = _assemble(basis, basis, [(target, np.eye(basis.coeff_dim))])
    return HardyOperator(basis, basis, mat, 1, 1)


def mult_operator(
    symbol: dict, basis_in: HardyBasis, basis_out: HardyBasis | None = None
) -> HardyOperator:
    """Multiplication by a matrix-valued polynomial.

    symbol maps exponent tuples (length num_vars, or shorter with implied
    zeros) to (e_out, e_in) coefficient arrays; scalars are accepted when
    both coefficient dimensions are 1.
    """
    if basis_out is None:
        basis_out = basis_in
    if (basis_in.num_vars, basis_in.max_degree) != (basis_out.num_vars, basis_out.max_degree):
        raise DimensionMismatch("bases must share variables and truncation degree")
    e_in, e_out = basis_in.coeff_dim, basis_out.coeff_dim
    n = basis_in.num_vars
    terms, degrees = [], []
    for beta_raw, coeff in symbol.items():
        beta = np.zeros(n, dtype=np.int64)
        braw = tuple(beta_raw)
        if len(braw) > n and any(b for b in braw[n:]):
            raise DegreeOverflow("symbol exponent uses a variable beyond the basis")
        beta[: min(len(braw), n)] = braw[: min(len(braw), n)]
        deg = int(beta.sum())
        if deg > basis_in.max_degree:
            raise DegreeOverflow(f"symbol degree {deg} exceeds truncation")
        c = np.atleast_2d(np.asarray(coeff, dtype=complex))
        if c.shape != (e_out, e_in):
            raise DimensionMismatch(
                f"coefficient block {c.shape} does not match ({e_out}, {e_in})"
            )
        if not np.any(c):
            continue
        terms.append((basis_in.exponents + beta, c))
        degrees.append(deg)
    mat = _assemble(basis_in, basis_out, terms)
    return HardyOperator(basis_in, basis_out, mat, min(degrees, default=0), max(degrees, default=0))


def one_variable_symbol(
    k: int, coeffs, basis_in: HardyBasis, basis_out: HardyBasis | None = None
) -> HardyOperator:
    """Multiplication by theta(zeta_k) for a one-variable matrix polynomial.

    coeffs is a sequence of (e_out, e_in) arrays (scalars allowed), the
    power-series coefficients of theta.
    """
    if not 1 <= k <= basis_in.num_vars:
        raise DimensionMismatch(f"variable index {k} out of range")
    symbol = {}
    for j, c in enumerate(coeffs):
        beta = [0] * basis_in.num_vars
        beta[k - 1] = j
        symbol[tuple(beta)] = np.atleast_2d(np.asarray(c, dtype=complex))
    return mult_operator(symbol, basis_in, basis_out)


def kernel_vector(lam, basis: HardyBasis, x: np.ndarray | None = None) -> HardyVector:
    """Truncated reproducing-kernel vector K_lambda . x.

    lam is a sequence of coordinates (finitely supported, inside the open
    disk); x is a coefficient-slot vector (default: first slot).
    """
    lam_arr = np.zeros(basis.num_vars, dtype=complex)
    coords = np.asarray(getattr(lam, "coords", lam), dtype=complex).reshape(-1)
    if coords.size > basis.num_vars and np.any(coords[basis.num_vars :] != 0):
        raise DimensionMismatch("kernel point supported beyond the basis variables")
    lam_arr[: min(coords.size, basis.num_vars)] = coords[: basis.num_vars]
    if np.any(np.abs(lam_arr) >= 1.0):
        raise DimensionMismatch("kernel point must lie inside the open multidisk")
    if x is None:
        x = np.zeros(basis.coeff_dim, dtype=complex)
        x[0] = 1.0
    x = np.asarray(x, dtype=complex).reshape(basis.coeff_dim)
    mono = np.prod(np.conj(lam_arr)[None, :] ** basis.exponents, axis=1)
    return HardyVector(basis, np.kron(mono, x))


def evaluate(v: HardyVector, point) -> np.ndarray:
    """Pointwise value of the (polynomial) vector at a multidisk point."""
    coords = np.zeros(v.basis.num_vars, dtype=complex)
    pt = np.asarray(getattr(point, "coords", point), dtype=complex).reshape(-1)
    coords[: min(pt.size, coords.size)] = pt[: coords.size]
    mono = np.prod(coords[None, :] ** v.basis.exponents, axis=1)
    e = v.basis.coeff_dim
    return v.coefficients.reshape(-1, e).T @ mono


@dataclass(frozen=True)
class InnerReport:
    passed: bool
    residual: float
    safe_cutoff: int
    tol: float


def is_inner_on_truncation(op: HardyOperator, tol: float, cutoff: int | None = None) -> InnerReport:
    """||op* op - I|| on inputs of degree <= cutoff; pass iff <= tol.

    The cutoff defaults to the operator's window-derived safe degree;
    callers holding a sharper bound on the symbol's decay may widen it.
    """
    c = op.safe_input_degree if cutoff is None else cutoff
    sel = np.nonzero(op.basis_in.degree_selector(c))[0]
    if sel.size == 0:
        return InnerReport(False, float("inf"), c, tol)
    cols = op.matrix[:, sel]
    residual = operator_norm(cols.conj().T @ cols - sp.identity(sel.size, format="csr"))
    return InnerReport(residual <= tol, float(residual), c, tol)


def wandering_subspace(ops, basis: HardyBasis, cutoff: int | None = None) -> Subspace:
    """Range of prod_k (I - V_k V_k*) restricted to degrees <= cutoff.

    The default cutoff subtracts each factor's window growth; callers with
    sharper knowledge of an operator's transient degrees may widen it.
    """
    if cutoff is None:
        growth = sum(max(op.shift_hi, 0) + max(-op.shift_lo, 0) for op in ops)
        cutoff = basis.max_degree - growth
    if cutoff < 0:
        raise DegreeOverflow("no safe degrees left for the wandering computation")
    sel = np.nonzero(basis.degree_selector(cutoff))[0]
    cols = np.zeros((basis.size, sel.size), dtype=complex)
    cols[sel, np.arange(sel.size)] = 1.0
    for op in ops:
        m = op.matrix
        cols = cols - m @ (m.conj().T @ cols)
    keep = basis.degree_selector(cutoff)
    cols = cols * keep[:, None]
    return orthonormalize(cols, rank_tol=1e-8)


def parity_shift(k: int, basis: HardyBasis) -> HardyOperator:
    """Isometry moving the exponent of variable k by a parity rule.

    A monomial with exponent j in variable k maps to exponent j+3 when j
    is even and j-1 when j is odd; targets beyond the truncation are
    dropped.  Its square agrees with the squared coordinate shift on safe
    degrees and its adjoint kernel is the exponent-1 slice.
    """
    if not 1 <= k <= basis.num_vars:
        raise DimensionMismatch(f"variable index {k} out of range")
    target = basis.exponents.copy()
    j = target[:, k - 1]
    target[:, k - 1] = np.where(j % 2 == 0, j + 3, j - 1)
    mat = _assemble(basis, basis, [(target, np.eye(basis.coeff_dim))])
    return HardyOperator(basis, basis, mat, -1, 3)


def mobius_partial_product(lams, m: int, n: int) -> tuple[complex, float]:
    """Partial product of disk points and the closed-form Cauchy increment.

    Returns (prod_{i=m+1..n} lam_i, |prod - 1|^2 + (1 - prod |lam_i|^2)),
    the squared Hardy distance between the consecutive partial products
    of the one-variable-per-factor Moebius functions.
    """
    lams = [complex(c) for c in np.asarray(getattr(lams, "coords", lams)).reshape(-1)]
    if not 0 <= m <= n <= len(lams):
        raise IndexError(f"need 0 <= m <= n <= {len(lams)}, got ({m}, {n})")
    seg = lams[m:n]
    prod = complex(np.prod(seg)) if seg else 1.0 + 0.0j
    mod_prod = float(np.prod([abs(c) ** 2 for c in seg])) if seg else 1.0
    return prod, float(abs(prod - 1.0) ** 2 + (1.0 - mod_prod))

