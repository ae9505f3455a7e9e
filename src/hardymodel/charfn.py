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
its coefficient stack in the model's adjoint-defect coordinates.  Each
factor I - W_k W_k* moves only variable k's exponent, so on the safe rows
S the product is a product of per-variable e x e block tables, one
Gram table I - L_k L_k* of the one-variable symbol per component, for one
component or many: no N-row operator and no decomposition is formed.  The
distance is an upper bound on the spectral norm of the |S| x |S|
difference: a passing distance is linops.holder_bound, O(|S|^2) with no
SVD; otherwise it is the exact SVD norm, linops.operator_norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contraction import ContractionTuple, defect, spectral_radius_bound
from .dilation import DilationModel, canonical_embedding
from .errors import DimensionMismatch, NotInClass, UnsafeDegree
from .hardy import enumerate_basis, one_variable_symbol
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
    if not np.isfinite(t).all():
        raise DimensionMismatch("matrix entries must be finite")
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
    if not (np.all(np.abs(a) < 1.0) and np.all(np.abs(b) < 1.0)):
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
    components, in the model's coordinates.

    The components' CharFns come from the model just built: its class
    check certified every spectral radius, so none is estimated again, and
    for one component D_* = D_T*, so the model's adjoint defect and its
    range are the component's.  Every component has a nontrivial D_T: one
    with D_T = 0 on a finite space is unitary, so D_* has a zero factor and
    canonical_embedding raises ZeroDefect first.  Each symbol keeps the
    terms poly_truncate certifies to tol / 10.  For K symbols of degree
    <= D the safe cutoff is d - max(K // 2, 1) D - 1 (see _model_distance);
    it must be >= 0, else UnsafeDegree.  A symbol is its coefficient stack
    incl* theta_j, incl the inclusion of the joint adjoint defect space
    into its component's, applied to all coefficients in one batched
    product.  Returns (model, cutoff, stacks, symbol degrees, tails).
    """
    model = canonical_embedding(t, d)  # ZeroDefect when the adjoint defect is trivial
    own = model if t.num_components == 1 else None
    stacks, degrees, tails = [], [], []
    for comp, norm in zip(t.components, model.norms):
        cf = _charfn(comp, norm, own)
        coeffs, tail = poly_truncate(cf, tol / 10.0)
        incl = adjoint(cf.defect_out.basis) @ model.defect_basis.basis
        stacks.append(adjoint(incl) @ np.stack(coeffs))
        degrees.append(len(coeffs) - 1)
        tails.append(tail)
    cutoff = d - max(len(degrees) // 2, 1) * max(degrees) - 1
    if cutoff < 0:
        raise UnsafeDegree(f"truncation degree {d} cannot absorb symbol degree {max(degrees)}")
    return model, cutoff, stacks, tuple(degrees), tuple(tails)


def _model_distance(t: ContractionTuple, d: int, tol: float) -> QuotientModelReport:
    """||(prod_k (I - W_k W_k*) - U U*)[S, S]|| for the truncated symbols W_k
    and the normalized embedding U, on the safe rows S.

    F_k = I - W_k W_k* moves only the exponent of variable k: between
    monomials g and a that agree off variable k its block is
    Phi_k[g_k, a_k] = delta I - sum_r theta~_(g_k - r) theta~_(a_k - r)*,
    whatever the other exponents are, and it is zero between any others.
    So a term of F_1 ... F_K from alpha to beta passes through the one
    monomial (beta_1, ..., beta_j, alpha_(j+1), ..., alpha_K) after j
    factors, and P_SS[alpha, beta] = Phi_1[alpha_1, beta_1] ...
    Phi_K[alpha_K, beta_K]: one batched product of the tables gathered by
    the safe rows' exponents, and Phi_1 itself for one component.  On
    exponents <= cutoff, Phi_k = I - L_k L_k* for L_k the one-variable
    symbol on the degree-cutoff bases (hardy.one_variable_symbol).

    This is the untruncated product on S.  A table entry is zero unless
    |g_k - a_k| <= D, so the monomial after j factors has degree at most
    cutoff + min(j, K - j) D, and _symbol_model's cutoff
    d - max(K // 2, 1) D - 1 keeps that <= d - 1: on S it is the degree-d
    truncated product too.  (For K <= 3 this is the cutoff d - D - 1.)
    Whether the rule can relax is ROADMAP item 3's question.  What the
    distance does measure is the dropped series: each factor differs from
    its untruncated form by about 2 * tail, with tail <= tol / 10.

    A passing distance is linops.holder_bound, 1-3.4x the norm here, when
    that is <= tol; otherwise it is the exact SVD norm, linops.operator_norm.
    It never under-reports the norm.
    """
    model, cutoff, stacks, _, tails = _symbol_model(t, d, tol)
    e = model.defect_dim
    exps = enumerate_basis(t.num_components, cutoff).exponents  # S's monomials, in S's order
    prod = None
    for k, stack in enumerate(stacks):
        line_in, line_out = enumerate_basis(1, cutoff, stack.shape[2]), enumerate_basis(1, cutoff, e)
        symbol = one_variable_symbol(1, stack[: cutoff + 1], line_in, line_out).dense()
        table = -(symbol @ adjoint(symbol))
        table.flat[:: table.shape[0] + 1] += 1.0
        rows = (exps[:, k, None] * e + np.arange(e)).ravel()  # each row of S on variable k's line
        block = table.take(rows, axis=0).take(rows, axis=1).reshape(len(exps), e, len(exps), e)
        prod = block if prod is None else np.einsum("aibl,albj->aibj", prod, block)
    diff = prod.reshape(rows.size, rows.size)
    u_s = model.normalized_embedding()[: diff.shape[0]]
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
