"""Characteristic functions of single contractions and the quotient-model
verifier built from them.

theta(z) maps the defect space of T into the defect space of T*.
charfn_build forms the defects D_T and D_T* once (contraction.defect) and
their orthonormal ranges (linops.orthonormalize, absolute RANK_FLOOR) and
keeps all four on the CharFn; evaluation, the kernel identity and the
power series read them from there.  theta is evaluated by direct resolvent
solves, exact for |z| <= 1 under the strict spectral-radius certificate;
an array of points (boundary_unitarity's circle, an instance's kernel
pairs) shares one batched solve and one batched SVD.

The model space of a doubly commuting tuple is the joint range
complement of its symbols: P_model = prod_k (I - M_theta_k M_theta_k*)
(the multivariable Beurling-Lax form of the Sz.-Nagy-Foias model).  One
routine, _model_distance, verifies it for quotient_model_check and, as
the one-component case, for projection_identity_residual.  A symbol is
its coefficient stack in the model's adjoint-defect coordinates; one
component reads only its safe rows S, one gather from the stack.  For
more, the factors I - W_k W_k* of the sparse symbols (_component_symbol)
are Hermitian, and the safe block of their product is Y* X for two sparse
halves, hardy.defect_product applied to the unit columns of S: no N x N
or N x |S| dense matrix and no decomposition is formed.  The distance is
an upper bound on the spectral norm of the |S| x |S| difference: a passing
distance is linops.holder_bound, O(|S|^2) with no SVD; otherwise it is
the exact SVD norm, linops.operator_norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .contraction import ContractionTuple, defect, spectral_radius_bound
from .dilation import DilationModel, canonical_embedding
from .errors import DimensionMismatch, NotInClass, UnsafeDegree
from .hardy import defect_product, enumerate_basis, one_variable_symbol
from .linops import (
    Subspace,
    adjoint,
    apply_shifted_inverse,
    holder_bound,
    operator_norm,
    orthonormalize,
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
    """Characteristic function data of a single contraction: its norm, the
    defects d_in = D_T and d_out = D_T* and their orthonormal ranges."""

    t: np.ndarray
    norm: float
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
    t = np.asarray(t, dtype=complex)
    cf = _charfn(t, operator_norm(t))
    radius = spectral_radius_bound(cf.t)
    if radius >= 1.0 and (cf.dim_in or cf.dim_out):
        raise NotInClass(f"spectral radius estimate {radius:.6f} is not below 1")
    return cf


def _charfn(t: np.ndarray, norm: float, model: DilationModel | None = None) -> CharFn:
    """charfn_build of t, ||t|| = norm, without the stability certificate;
    model, when given, is a model of t alone, whose D_* = D_T* and its
    range are taken as they are."""
    d_in = defect(t)  # DimensionMismatch unless a contraction
    if model is None:
        d_out = defect(adjoint(t))
        return CharFn(t, norm, d_in, d_out, orthonormalize(d_in), orthonormalize(d_out))
    return CharFn(t, norm, d_in, model.adjoint_defect, orthonormalize(d_in), model.defect_basis)


def charfn_eval(cf: CharFn, z) -> np.ndarray:
    """theta(z) = compress(-T + z D_out (I - z T*)^{-1} D_in) between defect
    bases; an array of points gives the stack of theta(z_k), from one
    batched resolvent solve."""
    z = np.asarray(z)
    if cf.dim_in == 0 or cf.dim_out == 0:
        return np.zeros(z.shape + (cf.dim_out, cf.dim_in), dtype=complex)
    t = cf.t
    inner = -t + z[..., None, None] * cf.d_out @ apply_shifted_inverse(adjoint(t), z, cf.d_in)
    return adjoint(cf.defect_out.basis) @ inner @ cf.defect_in.basis


def kernel_identity_residual(cf: CharFn, a, b):
    """Residual of the defect-kernel factorization at an interior pair.

    Compares I - theta(b) theta(a)* with
    (1 - conj(a) b) compress(D_out (I - b T*)^{-1} (I - conj(a) T)^{-1} D_out).
    Arrays a and b give one residual per pair (a_k, b_k), from one solve
    per resolvent and one batched SVD.
    """
    a, b = np.asarray(a), np.asarray(b)
    if np.any(np.abs(a) >= 1.0) or np.any(np.abs(b) >= 1.0):
        raise DimensionMismatch("interior points required")
    t, d_out = cf.t, cf.d_out
    th_b = charfn_eval(cf, b)
    th_a = charfn_eval(cf, a)
    lhs = np.eye(cf.dim_out, dtype=complex) - th_b @ adjoint(th_a)
    core = d_out @ apply_shifted_inverse(
        adjoint(t), b, apply_shifted_inverse(t, np.conj(a), d_out)
    )
    scale = (1.0 - np.conj(a) * b)[..., None, None]
    rhs = scale * adjoint(cf.defect_out.basis) @ core @ cf.defect_out.basis
    return operator_norm(lhs - rhs)


#: unit-circle points boundary_unitarity samples
_BOUNDARY_SAMPLES = 32

#: largest power of two _power_norm_envelope probes
_MAX_PROBE = 256

#: most series terms poly_truncate keeps before it refuses
_MAX_TERMS = 4096


def boundary_unitarity(cf: CharFn) -> float:
    """Max of ||theta(z)* theta(z) - I|| over _BOUNDARY_SAMPLES equispaced
    unit-circle points, from one evaluation and one batched SVD."""
    z = np.exp(2j * np.pi * np.arange(_BOUNDARY_SAMPLES) / _BOUNDARY_SAMPLES)
    th = charfn_eval(cf, z)
    gaps = adjoint(th) @ th - np.eye(cf.dim_in, dtype=complex)
    return float(np.max(operator_norm(gaps), initial=0.0))


def _power_norm_envelope(cf: CharFn):
    """(p, q, m): ||T^k|| <= m * q^(k // p) with q < 1, by probing powers;
    the first probe is cf.norm."""
    p, tp, q = 1, cf.t, cf.norm
    norms = [1.0]
    while q >= 0.95:
        if p >= _MAX_PROBE:
            raise UnsafeDegree("no power of the matrix has norm below 0.95")
        norms.append(q)
        tp = tp @ tp
        p *= 2
        q = operator_norm(tp)
    return p, max(q, 1e-300), max(norms)


def poly_truncate(cf: CharFn, tol: float):
    """Power-series coefficients of theta with a certified geometric tail.

    Coefficients are compress(-T) and compress(D_out T*^(k-1) D_in); the
    returned tail bounds the operator-norm sum of all dropped ones.  The
    tail envelope depends on k alone, so the number of terms is solved from
    it before any product; a count that reaches _MAX_TERMS is refused before
    any block is formed.  No power of T* is formed: the thin blocks
    B_j = T*^j D_in Q_in (m x dim_in) are filled one product T* @ B_(j-1)
    each, and every coefficient after the first is (Q_out* D_out) @ B_j,
    all in one batched product.  A block that is exactly zero ends the
    series with a tail of 0.0: every later block is zero too (for an
    invertible D_in, exactly when T is nilpotent).
    """
    t, d_in, d_out = cf.t, cf.d_in, cf.d_out
    qi, qo = cf.defect_in.basis, cf.defect_out.basis
    coeffs = [adjoint(qo) @ (-t) @ qi]
    p, q, m = _power_norm_envelope(cf)
    scale = operator_norm(d_out) * operator_norm(d_in)

    def tail_from(k):
        # sum_{j >= k} ||D_out T*^(j-1) D_in|| <= scale * sum m q^((j-1)//p)
        base = (k - 1) // p
        return scale * m * p * q**base / (1.0 - q)

    # the terms k = 1 .. terms, T*^0 .. T*^(terms - 1), are kept: terms = b p
    # for the least b with tail_from(b p + 1) < tol, solved, then confirmed
    ratio = tol * (1.0 - q) / (scale * m * p) if scale > 0.0 else math.inf
    b = math.ceil(math.log(ratio) / math.log(q)) if 0.0 < ratio < 1.0 else 0
    while b > 0 and tail_from((b - 1) * p + 1) < tol:
        b -= 1
    while b * p < _MAX_TERMS and tail_from(b * p + 1) >= tol:
        b += 1
    terms = min(b * p, _MAX_TERMS)
    if terms == _MAX_TERMS:
        raise UnsafeDegree("characteristic-function tail does not certify")
    left, t_star = adjoint(qo) @ d_out, adjoint(t)
    blocks = np.empty((terms, *qi.shape), complex)
    blocks[:1] = d_in @ qi
    for j in range(terms):
        if not blocks[j].any():
            return coeffs + list(left @ blocks[:j]), 0.0  # series terminates exactly
        if j + 1 < terms:
            np.matmul(t_star, blocks[j], out=blocks[j + 1])
    coeffs.extend(left @ blocks)
    return coeffs, float(tail_from(terms + 1))


def _component_symbol(k: int, stack: np.ndarray, model: DilationModel):
    """Truncated M_theta~ of component k, from its coefficient stack, with
    output basis model.basis, as a CSR matrix."""
    basis_in = enumerate_basis(model.basis.num_vars, model.truncation_degree, stack.shape[2])
    return one_variable_symbol(k, stack, basis_in, model.basis).matrix


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
    """The degree-d embedding of t and the coefficient stacks of its
    components with a nontrivial defect, in the model's coordinates.

    The components' CharFns come from the model just built: its class
    check certified every spectral radius, so none is estimated again, and
    for one component D_* = D_T*, so the model's adjoint defect and its
    range are the component's.  Each symbol keeps the terms poly_truncate
    certifies to tol / 10.  For K such symbols of degree <= D the safe cutoff is
    d - max(K // 2, 1) D - 1 (see _model_distance); it must be >= 0, else
    UnsafeDegree.  A symbol is its coefficient stack incl* theta_j, incl the
    inclusion of the joint adjoint defect space into its component's,
    applied to all coefficients in one batched product.  Returns (model,
    cutoff, [(component index, stack)], symbol degrees, tails).
    """
    model = canonical_embedding(t, d)  # ZeroDefect when the adjoint defect is trivial
    own = model if t.num_components == 1 else None
    stacks, degrees, tails = [], [], []
    for k, comp in enumerate(t.components, start=1):
        cf = _charfn(comp, model.norms[k - 1], own)
        if cf.dim_in == 0:
            continue  # isometric component contributes no complement range
        coeffs, tail = poly_truncate(cf, tol / 10.0)
        incl = adjoint(cf.defect_out.basis) @ model.defect_basis.basis
        stacks.append((k, adjoint(incl) @ np.stack(coeffs)))
        degrees.append(len(coeffs) - 1)
        tails.append(tail)
    max_deg = max(degrees, default=0)
    cutoff = d - max(len(degrees) // 2, 1) * max_deg - 1
    if cutoff < 0:
        raise UnsafeDegree(f"truncation degree {d} cannot absorb symbol degree {max_deg}")
    return model, cutoff, stacks, tuple(degrees), tuple(tails)


def _model_distance(t: ContractionTuple, d: int, tol: float) -> QuotientModelReport:
    """||(prod_k (I - W_k W_k*) - U U*)[S, S]|| for the truncated symbols W_k
    and the normalized embedding U, on the safe rows S.

    The factors F_k = I - W_k W_k* are Hermitian, so with j = K // 2
    the safe block is P_SS = E_S* F_1 ... F_K E_S = Y* X for the halves
    Y = F_j ... F_1 E_S and X = F_(j+1) ... F_K E_S, each from the sparse
    E_S by hardy.defect_product.  Both halves and Y* X stay sparse; no
    N x |S| dense array is formed.  One component gives P_SS = I - W_S W_S*
    from its safe rows W_S, gathered from its coefficient stack; no sparse
    symbol is built.

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

    A passing distance is linops.holder_bound, 1-3.4x the norm here, when
    that is <= tol; otherwise it is the exact SVD norm, linops.operator_norm.
    It never under-reports the norm.
    """
    model, cutoff, stacks, _, tails = _symbol_model(t, d, tol)
    sel = np.nonzero(model.basis.degree_selector(cutoff))[0]
    if t.num_components == 1:
        # W_S: block (i, j), input degree j <= d, is stack[i - j], zero off the band
        stack = np.concatenate([stacks[0][1], np.zeros_like(stacks[0][1][:1])])
        lag = np.subtract.outer(np.arange(cutoff + 1), np.arange(d + 1))
        lag[(lag < 0) | (lag >= len(stack) - 1)] = -1  # the appended zero block
        w_s = stack[lag].transpose(0, 2, 1, 3).reshape(sel.size, -1)
        diff = -(w_s @ adjoint(w_s))
        diff.flat[:: sel.size + 1] += 1.0
    else:
        symbols = [_component_symbol(k, stack, model) for k, stack in stacks]
        j = len(symbols) // 2
        e_s = sp.identity(model.basis.size, format="csc")[:, sel]
        y = defect_product(symbols[:j], e_s)
        x = defect_product(symbols[j:][::-1], e_s)
        diff = (y.conj().T @ x).toarray()
    u_s = model.normalized_embedding()[sel]
    diff -= u_s @ adjoint(u_s)
    bound = holder_bound(diff)
    return QuotientModelReport(bound if bound <= tol else operator_norm(diff), cutoff, tails, tol)


def quotient_model_check(t: ContractionTuple, d: int, tol: float) -> QuotientModelReport:
    """Distance between the embedded space and the model space
    prod_k (I - M_theta_k M_theta_k*) of the components' symbols, on the
    safe-degree section (see _model_distance).

    The distance sits at the level of the symbol tails (tol / 10 each),
    not at round-off: the symbols are truncated power series, and the
    product identity holds only for the full series.  A passing distance is
    the Hoelder bound of the difference (see _model_distance).
    """
    return _model_distance(t, d, tol)


def projection_identity_residual(a_matrix: np.ndarray, d: int, tol: float):
    """Residual of P_embedded = I - M_theta M_theta* on the safe section:
    the one-component case of quotient_model_check, whose distance it is.

    Returns (residual, safe_cutoff) for a single contraction.
    """
    rep = _model_distance(ContractionTuple((np.asarray(a_matrix, dtype=complex),)), d, tol)
    return rep.distance, rep.safe_cutoff
