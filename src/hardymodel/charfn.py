"""Characteristic functions of single contractions and the quotient-model
verifier built from them.

theta(z) maps the defect space of T into the defect space of T*.
charfn_build forms the defects D_T and D_T* once (contraction.defect) and
their orthonormal ranges (linops.defect_range, absolute DEFECT_FLOOR) and
keeps all four on the CharFn; evaluation, the kernel identity and the
power series read them from there.  theta is evaluated by direct resolvent
solves, which is exact for |z| <= 1 under the strict spectral-radius
certificate.

The model space of a doubly commuting tuple is the joint range
complement of its symbols: P_model = prod_k (I - M_theta_k M_theta_k*)
(the multivariable Beurling-Lax form of the Sz.-Nagy-Foias model).  One
routine, _model_distance, verifies it for quotient_model_check and, as
the one-component case, for projection_identity_residual.  Each sparse
symbol W_k is built directly in the model's adjoint-defect coordinates
(_component_symbol).  The factors are Hermitian, so the safe block of
the product is Y* X for two sparse halves, each applied to the unit
columns of the safe rows S (_half_product): no N x N or N x |S| dense
matrix and no QR is formed.  The distance is linops.certified_norm of
the |S| x |S| difference, an upper bound within round-off of its
spectral norm (Lanczos and two Cholesky factorizations, plus the
Frobenius norm of the skew part), not a dense SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .contraction import ContractionTuple, defect, spectral_radius_bound
from .dilation import DilationModel, canonical_embedding
from .errors import DimensionMismatch, NotInClass, UnsafeDegree
from .hardy import enumerate_basis, one_variable_symbol
from .linops import (
    Subspace,
    adjoint,
    apply_shifted_inverse,
    certified_norm,
    defect_range,
    operator_norm,
)

__all__ = [
    "CharFn",
    "QuotientModelReport",
    "boundary_unitarity",
    "charfn_build",
    "charfn_eval",
    "kernel_identity_residual",
    "poly_truncate",
    "projection_identity_residual",
    "quotient_model_check",
]

@dataclass(frozen=True)
class CharFn:
    """Characteristic function data of a single contraction: the defects
    d_in = D_T and d_out = D_T* and their orthonormal ranges."""

    t: np.ndarray
    d_in: np.ndarray
    d_out: np.ndarray
    defect_in: Subspace
    defect_out: Subspace

    @property
    def dim_in(self) -> int:
        return self.defect_in.dim

    @property
    def dim_out(self) -> int:
        return self.defect_out.dim


def charfn_build(t: np.ndarray) -> CharFn:
    """Defects and their rank-revealed bases for a strict contraction.

    A unitary (both defects trivial) yields the empty function without
    needing the stability certificate; any other spectral radius at 1 is
    rejected since boundary evaluation would be undefined.
    """
    cf = _charfn(np.asarray(t, dtype=complex))
    radius = spectral_radius_bound(cf.t)
    if radius >= 1.0 and (cf.dim_in or cf.dim_out):
        raise NotInClass(f"spectral radius estimate {radius:.6f} is not below 1")
    return cf


def _charfn(t: np.ndarray, defect_out: Subspace | None = None) -> CharFn:
    """charfn_build without the stability certificate; defect_out, when
    given, is the range of D_T* already ranked."""
    d_in, d_out = defect(t), defect(adjoint(t))  # DimensionMismatch unless a contraction
    if defect_out is None:
        defect_out = defect_range(d_out)
    return CharFn(t, d_in, d_out, defect_range(d_in), defect_out)


def charfn_eval(cf: CharFn, z: complex) -> np.ndarray:
    """theta(z) = compress(-T + z D_out (I - z T*)^{-1} D_in) between defect bases."""
    if cf.dim_in == 0 or cf.dim_out == 0:
        return np.zeros((cf.dim_out, cf.dim_in), dtype=complex)
    t = cf.t
    inner = -t + z * cf.d_out @ apply_shifted_inverse(adjoint(t), z, cf.d_in)
    return adjoint(cf.defect_out.basis) @ inner @ cf.defect_in.basis


def kernel_identity_residual(cf: CharFn, a: complex, b: complex) -> float:
    """Residual of the defect-kernel factorization at an interior pair.

    Compares I - theta(b) theta(a)* with
    (1 - conj(a) b) compress(D_out (I - b T*)^{-1} (I - conj(a) T)^{-1} D_out).
    """
    if abs(a) >= 1.0 or abs(b) >= 1.0:
        raise DimensionMismatch("interior points required")
    t, d_out = cf.t, cf.d_out
    th_b = charfn_eval(cf, b)
    th_a = charfn_eval(cf, a)
    lhs = np.eye(cf.dim_out, dtype=complex) - th_b @ adjoint(th_a)
    core = d_out @ apply_shifted_inverse(
        adjoint(t), b, apply_shifted_inverse(t, np.conj(a), d_out)
    )
    rhs = (1.0 - np.conj(a) * b) * adjoint(cf.defect_out.basis) @ core @ cf.defect_out.basis
    return operator_norm(lhs - rhs)


#: unit-circle points boundary_unitarity samples
_BOUNDARY_SAMPLES = 32

#: largest power of two _power_norm_envelope probes
_MAX_PROBE = 256

#: most series terms poly_truncate keeps before it refuses
_MAX_TERMS = 4096

#: size of the stack of adjoint powers poly_truncate fills at a time
_POWER_BLOCK_BYTES = 1 << 20


def boundary_unitarity(cf: CharFn) -> float:
    """Max of ||theta(z)* theta(z) - I|| over _BOUNDARY_SAMPLES equispaced
    unit-circle points."""
    worst = 0.0
    eye = np.eye(cf.dim_in, dtype=complex)
    for j in range(_BOUNDARY_SAMPLES):
        z = np.exp(2j * np.pi * j / _BOUNDARY_SAMPLES)
        th = charfn_eval(cf, z)
        worst = max(worst, operator_norm(adjoint(th) @ th - eye))
    return worst


def _power_norm_envelope(t: np.ndarray):
    """(p, q, m): ||T^k|| <= m * q^(k // p) with q < 1, by probing powers."""
    p = 1
    tp = np.asarray(t, dtype=complex)
    norms = [1.0]
    while True:
        q = operator_norm(tp)
        if q < 0.95:
            return p, max(q, 1e-300), max(norms)
        if p >= _MAX_PROBE:
            raise UnsafeDegree("no power of the matrix has norm below 0.95")
        norms.append(q)
        tp = tp @ tp
        p *= 2


def poly_truncate(cf: CharFn, tol: float):
    """Power-series coefficients of theta with a certified geometric tail.

    Coefficients are compress(-T) and compress(D_out T*^(k-1) D_in); the
    returned tail bounds the operator-norm sum of all dropped ones.  The
    tail envelope depends on k alone, so the number of terms is counted
    before any product; a count that reaches _MAX_TERMS is refused before
    any power is formed.  The powers T*^j = T* @ T*^(j-1) are filled into
    a stack of at most _POWER_BLOCK_BYTES, and each block's coefficients
    come from one batched ((Q_out* D_out) @ T*^j @ D_in) @ Q_in.  A power
    that is exactly zero ends the series with a tail of 0.0 (nilpotent).
    """
    t, d_in, d_out = cf.t, cf.d_in, cf.d_out
    qi, qo = cf.defect_in.basis, cf.defect_out.basis
    coeffs = [adjoint(qo) @ (-t) @ qi]
    p, q, m = _power_norm_envelope(t)
    scale = operator_norm(d_out) * operator_norm(d_in)

    def tail_from(k):
        # sum_{j >= k} ||D_out T*^(j-1) D_in|| <= scale * sum m q^((j-1)//p)
        base = (k - 1) // p
        return scale * m * p * q**base / (1.0 - q)

    terms = 0  # the terms k = 1 .. terms are kept, T*^0 .. T*^(terms - 1)
    while terms < _MAX_TERMS and tail_from(terms + 1) >= tol:
        terms += 1
    if terms == _MAX_TERMS:
        raise UnsafeDegree("characteristic-function tail does not certify")
    left, t_star = adjoint(qo) @ d_out, adjoint(t)
    size = t.shape[0]
    block_len = max(1, min(terms, _POWER_BLOCK_BYTES // max(16 * size * size, 1)))
    stack = np.empty((block_len, size, size), complex)
    power = np.eye(size, dtype=complex)  # T*^start
    for start in range(0, terms, len(stack)):
        block = stack[: min(len(stack), terms - start)]
        block[0] = power
        for j in range(1, len(block)):
            np.matmul(t_star, block[j - 1], out=block[j])
        power = t_star @ block[-1]
        zero = np.flatnonzero(~block.reshape(len(block), -1).any(axis=1))
        block = block[: zero[0]] if zero.size else block
        coeffs.extend(left @ block @ d_in @ qi)
        if zero.size:
            return coeffs, 0.0  # nilpotent: series terminates exactly
    return coeffs, float(tail_from(terms + 1))


def _component_symbol(cf: CharFn, coeffs, k: int, model: DilationModel):
    """Truncated M_theta~ of one component with output basis model.basis,
    as a CSR matrix: its coefficients are incl* theta_j, incl the
    inclusion of the joint adjoint defect space into this component's,
    applied to all coefficients in one batched product."""
    basis_in = enumerate_basis(model.tuple_.num_components, model.truncation_degree, cf.dim_in)
    incl = adjoint(cf.defect_out.basis) @ model.defect_basis.basis
    return one_variable_symbol(k, adjoint(incl) @ np.stack(coeffs), basis_in, model.basis).matrix


@dataclass(frozen=True)
class QuotientModelReport:
    distance: float
    safe_cutoff: int
    symbol_tails: tuple
    tol: float

    @property
    def passed(self) -> bool:
        return self.distance <= self.tol


def _symbol_model(t: ContractionTuple, d: int, tol: float):
    """The degree-d embedding of t and the truncated symbols of its
    components with a nontrivial defect, in the model's coordinates.

    The components' CharFns come from the model just built: its class
    check certified every spectral radius, so none is estimated again, and
    for one component D_* = D_T*, so the model's adjoint defect range is
    the component's.  Each symbol keeps the terms poly_truncate certifies
    to tol / 10.  For K such symbols of degree <= D the safe cutoff is
    d - max(K // 2, 1) D - 1 (see _model_distance); it must be >= 0, else
    UnsafeDegree.  Returns (model, cutoff, symbol matrices, symbol degrees,
    tails).
    """
    model = canonical_embedding(t, d)  # ZeroDefect when the adjoint defect is trivial
    defect_out = model.defect_basis if t.num_components == 1 else None
    prepared, degrees, tails = [], [], []  # prepared: (component index, charfn, coefficients)
    for k, comp in enumerate(t.components, start=1):
        cf = _charfn(comp, defect_out)
        if cf.dim_in == 0:
            continue  # isometric component contributes no complement range
        coeffs, tail = poly_truncate(cf, tol / 10.0)
        prepared.append((k, cf, coeffs))
        degrees.append(len(coeffs) - 1)
        tails.append(tail)
    max_deg = max(degrees, default=0)
    cutoff = d - max(len(degrees) // 2, 1) * max_deg - 1
    if cutoff < 0:
        raise UnsafeDegree(f"truncation degree {d} cannot absorb symbol degree {max_deg}")
    symbols = [_component_symbol(cf, coeffs, k, model) for k, cf, coeffs in prepared]
    return model, cutoff, symbols, tuple(degrees), tuple(tails)


def _half_product(symbols, sel: np.ndarray, size: int):
    """F_j ... F_1 E_S as a sparse size x |S| matrix, for the symbols
    W_1, ..., W_j (in that order) and F_k = I - W_k W_k*.  E_S only picks
    columns, so F_1 E_S = E_S - W_1 W_1[S, :]*; each later factor
    subtracts W (W* Y)."""
    y = sp.csr_matrix((np.ones(sel.size), (sel, np.arange(sel.size))), shape=(size, sel.size))
    for i, w in enumerate(symbols):
        y = y - w @ (w[sel].conj().T if i == 0 else w.conj().T @ y)
    return y


def _model_distance(t: ContractionTuple, d: int, tol: float) -> QuotientModelReport:
    """||(prod_k (I - W_k W_k*) - U U*)[S, S]|| for the truncated symbols W_k
    and the normalized embedding U, on the safe rows S.

    The factors F_k = I - W_k W_k* are Hermitian, so with j = K // 2
    the safe block is P_SS = E_S* F_1 ... F_K E_S = Y* X for the halves
    Y = F_j ... F_1 E_S and X = F_(j+1) ... F_K E_S (_half_product).  Both
    halves and Y* X stay sparse; no N x |S| dense array is formed.  One
    symbol gives P_SS = I - W_S W_S* from the dense |S| x N_in row block
    W_S = W[S, :].

    On S this is exact for the truncated symbols.  A factor moves only the
    degree in its own variable, by at most the symbol degree D either way.
    Y* X reads X only on rows of degree <= cutoff + j D, where Y can be
    nonzero, and a term of a half that starts in S and ends on such a row
    never climbs above cutoff + j D (a half has at most j + 1 factors, and
    what a term climbs it must descend again).  _symbol_model's cutoff
    d - max(K // 2, 1) D - 1 keeps that <= d - 1: the degree-d truncation
    drops nothing that reaches Y* X.  (For K <= 3 this is the cutoff
    d - D - 1.)  What the distance does measure is the dropped series:
    each factor differs from its untruncated form by about 2 * tail, with
    tail <= tol / 10.

    The norm is linops.certified_norm: an upper bound within round-off of
    the spectral norm.  The difference is Hermitian up to the truncation
    (the factors commute on S), and the bound adds the Frobenius norm of
    its skew part, which is at round-off here.
    """
    model, cutoff, symbols, _, tails = _symbol_model(t, d, tol)
    sel = np.nonzero(model.basis.degree_selector(cutoff))[0]
    if len(symbols) == 1:
        w_s = symbols[0][sel].toarray()
        diff = -(w_s @ adjoint(w_s))
        diff.flat[:: sel.size + 1] += 1.0
    else:
        j = len(symbols) // 2
        y = _half_product(symbols[:j], sel, model.basis.size)
        x = _half_product(symbols[j:][::-1], sel, model.basis.size)
        diff = (y.conj().T @ x).toarray()
    u_s = model.normalized_embedding()[sel]
    diff -= u_s @ adjoint(u_s)
    return QuotientModelReport(certified_norm(diff), cutoff, tails, tol)


def quotient_model_check(t: ContractionTuple, d: int, tol: float) -> QuotientModelReport:
    """Distance between the embedded space and the model space
    prod_k (I - M_theta_k M_theta_k*) of the components' symbols, on the
    safe-degree section (see _model_distance).

    The distance sits at the level of the symbol tails (tol / 10 each),
    not at round-off: the symbols are truncated power series, and the
    product identity holds only for the full series.
    """
    return _model_distance(t, d, tol)


def projection_identity_residual(a_matrix: np.ndarray, d: int, tol: float):
    """Residual of P_embedded = I - M_theta M_theta* on the safe section:
    the one-component case of quotient_model_check.

    Returns (residual, safe_cutoff) for a single contraction.
    """
    rep = _model_distance(ContractionTuple((np.asarray(a_matrix, dtype=complex),)), d, tol)
    return rep.distance, rep.safe_cutoff
