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
Shifts, parity shifts and multiplication operators are all assembled by
one routine from a cached, read-only plan: the CSR indptr and indices
and a gather index into the stacked coefficient blocks, keyed by the
sizes, the terms' exponent shifts (or the parity rule) and the blocks'
nonzero pattern, never their values.  Building an operator is then one
gather of the block entries and the CSR constructor.
"""

from __future__ import annotations

import functools
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


#: support of parity_shift's one term, the rule j -> j + 3 (j even), j - 1
#: (j odd) on one variable's exponent, in place of exponent shifts
_PARITY = "parity"


@functools.lru_cache(maxsize=128)
def _assembly_plan(n: int, d: int, e_in: int, e_out: int, support: tuple, pattern: bytes) -> tuple:
    """CSR indptr and indices of a sum of monomial maps tensored with
    coefficient blocks, and each stored entry's index into the blocks
    stacked (terms, e_out, e_in) and flattened; read-only.

    support holds each term's exponent shift beta (monomial alpha goes to
    alpha + beta), or is (_PARITY, v) for one term moving variable v by
    the parity rule; targets beyond degree d are dropped.  pattern is the
    bytes of the blocks' nonzero mask, so the plan depends on sizes,
    support and pattern, never on coefficient values.  Entries are in
    canonical CSR order: by row, columns ascending within a row.
    """
    exps = enumerate_basis(n, d).exponents
    if support[:1] == (_PARITY,):
        targets = exps[None].copy()
        j = exps[:, support[1]]
        targets[0, :, support[1]] = np.where(j % 2 == 0, j + 3, j - 1)
    else:
        targets = exps + np.array(support, dtype=np.int64).reshape(-1, 1, n)
    term, src = np.nonzero(targets.sum(axis=2) <= d)
    dst = _graded_lex_rank(targets[term, src])
    pair, pq = np.nonzero(np.frombuffer(pattern, dtype=bool).reshape(-1, e_out * e_in)[term])
    rows = dst[pair] * e_out + pq // e_in
    cols = src[pair] * e_in + pq % e_in
    order = np.argsort(rows * (len(exps) * e_in) + cols)
    # the index dtype scipy picks: 32-bit when the shape and nnz fit
    index = np.int32 if max(len(exps) * max(e_in, e_out), pair.size) < 2**31 else np.int64
    indptr = np.zeros(len(exps) * e_out + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=len(exps) * e_out), out=indptr[1:])
    plan = indptr, cols[order].astype(index), term[pair][order] * (e_out * e_in) + pq[order]
    for a in plan:
        a.flags.writeable = False
    return plan


def _assemble(
    basis_in: HardyBasis, basis_out: HardyBasis, support: tuple, blocks: np.ndarray
) -> sp.csr_matrix:
    """CSR matrix of the terms (support, blocks) from their cached plan.

    blocks is the C-contiguous (terms, e_out, e_in) stack; the data are
    its entries gathered by the plan, so they keep its dtype.  Each build
    gets its own index arrays: in-place scipy operations on the result
    cannot reach the plan.
    """
    indptr, indices, gather = _assembly_plan(
        basis_in.num_vars, basis_in.max_degree, basis_in.coeff_dim, basis_out.coeff_dim,
        support, (blocks != 0).tobytes(),
    )
    shape = (basis_out.size, basis_in.size)
    return sp.csr_matrix((blocks.reshape(-1)[gather], indices.copy(), indptr.copy()), shape=shape)


def shift(k: int, basis: HardyBasis) -> HardyOperator:
    """Coordinate multiplication in variable k (1-based), truncated."""
    if not 1 <= k <= basis.num_vars:
        raise DimensionMismatch(f"variable index {k} out of range")
    beta = tuple(int(v == k - 1) for v in range(basis.num_vars))
    mat = _assemble(basis, basis, (beta,), np.eye(basis.coeff_dim)[None])
    return HardyOperator(basis, basis, mat, 1, 1)


def _coefficient_blocks(values: list, e_out: int, e_in: int) -> np.ndarray:
    """The values as one complex (terms, e_out, e_in) stack.

    Each value is read as np.atleast_2d reads it, so a scalar is a 1 x 1
    block and a length-e_in vector a 1 x e_in block.
    """
    try:
        stacked = np.asarray(values, dtype=complex)
        shapes = {stacked.shape[1:]} if values else set()
    except ValueError:  # values of mixed shapes, say scalars beside 1 x 1 arrays
        stacked, shapes = None, {np.shape(c) for c in values}
    for shape in shapes:
        block = (1,) * (2 - len(shape)) + shape
        if block != (e_out, e_in):
            raise DimensionMismatch(f"coefficient block {block} does not match ({e_out}, {e_in})")
    if stacked is None:
        stacked = np.array([np.reshape(c, (e_out, e_in)) for c in values], dtype=complex)
    return stacked.reshape(len(values), e_out, e_in)


def mult_operator(
    symbol: dict, basis_in: HardyBasis, basis_out: HardyBasis | None = None
) -> HardyOperator:
    """Multiplication by a matrix-valued polynomial.

    symbol maps exponent tuples (length num_vars, or shorter with implied
    zeros) to (e_out, e_in) coefficient arrays; scalars are accepted when
    both coefficient dimensions are 1.  Exponents and blocks are checked
    and stacked as whole arrays; all-zero blocks are dropped, and blocks
    of keys naming one exponent, like (1,) and (1, 0), are summed.
    """
    if basis_out is None:
        basis_out = basis_in
    if (basis_in.num_vars, basis_in.max_degree) != (basis_out.num_vars, basis_out.max_degree):
        raise DimensionMismatch("bases must share variables and truncation degree")
    e_in, e_out = basis_in.coeff_dim, basis_out.coeff_dim
    n, d = basis_in.num_vars, basis_in.max_degree
    keys = [tuple(beta) for beta in symbol]
    width = max(n, *map(len, keys)) if keys else n
    padded = [beta + (0,) * (width - len(beta)) for beta in keys]
    betas = np.array(padded, dtype=np.int64).reshape(-1, width)
    if betas[:, n:].any():
        raise DegreeOverflow("symbol exponent uses a variable beyond the basis")
    betas = betas[:, :n]
    if (betas < 0).any():
        raise DegreeOverflow(f"exponent outside the degree <= {d} basis")
    degrees = betas.sum(axis=1)
    if (degrees > d).any():
        raise DegreeOverflow(f"symbol degree {degrees[degrees > d][0]} exceeds truncation")
    blocks = _coefficient_blocks(list(symbol.values()), e_out, e_in)
    keep = blocks.any(axis=(1, 2))
    support = list(map(tuple, betas[keep].tolist()))
    blocks, degrees = blocks[keep], degrees[keep]
    if len(set(support)) < len(support):
        merged = dict.fromkeys(support, 0)
        for beta, c in zip(support, blocks):
            merged[beta] = merged[beta] + c
        support, blocks = list(merged), np.array(list(merged.values()))
    if not support:  # no terms: scipy's default (float) zero matrix
        blocks = np.zeros((0, e_out, e_in))
    mat = _assemble(basis_in, basis_out, tuple(support), blocks)
    lo, hi = (int(degrees.min()), int(degrees.max())) if degrees.size else (0, 0)
    return HardyOperator(basis_in, basis_out, mat, lo, hi)


def one_variable_symbol(
    k: int, coeffs, basis_in: HardyBasis, basis_out: HardyBasis | None = None
) -> HardyOperator:
    """Multiplication by theta(zeta_k) for a one-variable matrix polynomial.

    coeffs is a sequence of (e_out, e_in) arrays (scalars allowed), the
    power-series coefficients of theta.
    """
    if not 1 <= k <= basis_in.num_vars:
        raise DimensionMismatch(f"variable index {k} out of range")
    before, after = (0,) * (k - 1), (0,) * (basis_in.num_vars - k)
    symbol = {before + (j,) + after: c for j, c in enumerate(coeffs)}
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


#: nonzero density of the selected columns from which is_inner_on_truncation
#: forms their Gram as a dense product.  BLAS 1 thread: the Blaschke
#: multipliers of beurling-extraction (5-66% dense) take 0.5 ms dense
#: against 0.9-2.7 ms sparse; shifts and parity shifts at N >= 455
#: (0.2% dense) take 0.2-0.4 ms sparse against 3-26 ms dense
_DENSE_GRAM_DENSITY = 0.01


def is_inner_on_truncation(op: HardyOperator, tol: float, cutoff: int | None = None) -> InnerReport:
    """||op* op - I|| on inputs of degree <= cutoff; pass iff <= tol.

    The cutoff defaults to the operator's window-derived safe degree;
    callers holding a sharper bound on the symbol's decay may widen it.
    The Gram of the selected columns is a dense product when they are at
    least _DENSE_GRAM_DENSITY nonzero, a sparse one otherwise.
    """
    c = op.safe_input_degree if cutoff is None else cutoff
    sel = np.nonzero(op.basis_in.degree_selector(c))[0]
    if sel.size == 0:
        return InnerReport(False, float("inf"), c, tol)
    cols = op.matrix[:, sel]
    if cols.nnz >= _DENSE_GRAM_DENSITY * cols.shape[0] * sel.size:
        a = cols.toarray()
        residual = operator_norm(a.conj().T @ a - np.eye(sel.size))
    else:
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
    mat = _assemble(basis, basis, (_PARITY, k - 1), np.eye(basis.coeff_dim)[None])
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

