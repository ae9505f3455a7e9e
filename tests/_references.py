"""Reference computations the tests compare the library against.

No registered check reaches these, so they live with the tests and not in
the package.  Each is the plain formula: dense projectors, the scalar
Moebius map, a dense scan of an operator's degree window, the per-term
assembly loop of a multiplication operator, the two-loop dilation and
regularity residuals, the singular-value rank of the minimality stack,
the per-column degree loop, the nested-loop Moebius grid, the
graded-lex level-plan walk of the defect orbit (each row T*_v of its
parent, from a cached plan of sources), the per-level Gram products and
the whole embedding by that walk, the term-by-term
characteristic-function series.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse as sp

from hardymodel.charfn import CharFn, _power_norm_envelope
from hardymodel.contraction import ContractionTuple, MoebiusPoint, joint_defect
from hardymodel.dilation import DilationModel, _adjoint_defect, _inv_sqrt_psd
from hardymodel.errors import DimensionMismatch, UnsafeDegree
from hardymodel.hardy import (
    HardyBasis,
    HardyOperator,
    HardyVector,
    _graded_lex_exponents,
    _graded_lex_rank,
    enumerate_basis,
)
from hardymodel.linops import Subspace, adjoint, operator_norm
from hardymodel.submodules import QuotientHandle


def projector(s: Subspace) -> np.ndarray:
    """Orthogonal projector basis @ basis*."""
    return s.basis @ adjoint(s.basis)


def subspace_distance(s1: Subspace, s2: Subspace) -> float:
    """Spectral norm of the projector difference; lies in [0, 1]."""
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    return min(1.0, operator_norm(projector(s1) - projector(s2)))


def mobius_scalar(a: complex, z: complex) -> complex:
    """phi_a(z) = (a - z) / (1 - conj(a) z)."""
    return complex((a - z) / (1.0 - np.conj(a) * z))


def check_window(op: HardyOperator) -> float:
    """Largest entry violating the operator's declared degree window."""
    m = op.dense()
    din = op.basis_in.flat_degrees()
    dout = op.basis_out.flat_degrees()
    diff = dout[:, None] - din[None, :]
    bad = (diff < op.shift_lo) | (diff > op.shift_hi)
    return float(np.abs(m[bad]).max()) if bad.any() else 0.0


def operator_adjoint(op: HardyOperator) -> HardyOperator:
    """The adjoint operator; the degree window flips sign."""
    return HardyOperator(op.basis_out, op.basis_in, op.matrix.conj().T, -op.shift_hi, -op.shift_lo)


def block(v: HardyVector, alpha) -> np.ndarray:
    """Coefficient-slot block attached to the monomial alpha."""
    i = v.basis.monomial_index(alpha)
    e = v.basis.coeff_dim
    return v.coefficients[i * e : (i + 1) * e]


def column_degrees(handle: QuotientHandle) -> np.ndarray:
    """Highest degree each handle column reaches (entries above 1e-13); 0
    for a zero column."""
    degs = handle.basis.flat_degrees()
    out = []
    for j in range(handle.dim):
        nz = np.abs(handle.space.basis[:, j]) > 1e-13
        out.append(int(degs[nz].max()) if nz.any() else 0)
    return np.array(out)


def var_caps(handle: QuotientHandle) -> tuple:
    """Section degree of each leading variable."""
    return tuple(sec.shape[0] - 1 for sec in handle.sections)


def assemble_per_term(basis_in: HardyBasis, basis_out: HardyBasis, terms) -> sp.csr_matrix:
    """CSR matrix of a sum of monomial maps tensored with coefficient blocks.

    Each term (target, c) sends monomial i to monomial target[i] (dropped
    when beyond the truncation) with the (e_out, e_in) block c; all terms
    go into one COO pass.
    """
    e_in, e_out = basis_in.coeff_dim, basis_out.coeff_dim
    rows, cols, vals = [], [], []
    for target, c in terms:
        src = np.nonzero(target.sum(axis=1) <= basis_in.max_degree)[0]
        dst = basis_in.rank(target[src])
        p, q = np.nonzero(c)
        rows.append((dst[:, None] * e_out + p).reshape(-1))
        cols.append((src[:, None] * e_in + q).reshape(-1))
        vals.append(np.broadcast_to(c[p, q], (src.size, p.size)).reshape(-1))
    shape = (basis_out.size, basis_in.size)
    if not rows:
        return sp.csr_matrix(shape)
    entries = np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))
    return sp.csr_matrix(entries, shape=shape)


@functools.lru_cache(maxsize=64)
def _level_plan(n: int, d: int) -> tuple:
    """Per degree 1 <= k <= d, read-only: each row's source p n + v.  Row
    alpha is T*_v of its parent alpha - e_v, v the last variable alpha
    uses, p the parent's index in level k - 1 (its rank minus the
    C(k-2+n, n) monomials of lower degree)."""
    rows = enumerate_basis(n, d).exponents[1:]
    starts = np.array([math.comb(k - 1 + n, n) for k in range(d + 2)])
    last = n - 1 - np.argmax(rows[:, ::-1] > 0, axis=1)
    parents = rows - np.eye(n, dtype=rows.dtype)[last]
    source = (_graded_lex_rank(parents) - starts[rows.sum(axis=1) - 1]) * n + last
    source.flags.writeable = False
    return tuple(source[a - 1 : b - 1] for a, b in zip(starts[1:], starts[2:]))


def _orbit_levels(adjoints, d: int, right: np.ndarray):
    """Per degree k <= d, the products T*^alpha @ right, |alpha| = k in basis
    order, as the view w.transpose(1, 2, 0) of shape (rows, m, q) of
    w[c, alpha, :] = (T*^alpha @ right)[:, c]: one product
    w @ [T*_1^T ... T*_n^T] applies every T*_v to the previous level, and one
    take by the plan's sources keeps this level's rows."""
    m = right.shape[0]
    steps = np.concatenate([a.T for a in adjoints], axis=1)
    w = np.asarray(right, dtype=complex).T[:, None, :]
    yield w.transpose(1, 2, 0)
    for source in _level_plan(len(adjoints), d):
        w = np.take((w.reshape(-1, m) @ steps).reshape(len(w), -1, m), source, axis=1)
        yield w.transpose(1, 2, 0)


def gram_levels_per_level(t: ContractionTuple, d: int) -> list:
    """Cumulative defect-orbit Gram levels G_k, |alpha| <= k <= d: the
    blocks D_* T*^alpha of each degree stacked side by side, one product
    with their adjoint per degree, then summed over the degrees."""
    m = t.space_dim
    d_star = joint_defect(t.adjoint())
    eye = np.eye(m, dtype=complex)
    levels = [x.transpose(2, 0, 1) for x in _orbit_levels([adjoint(c) for c in t.components], d, eye)]
    # y[c, alpha, :] = (D_* T*^alpha)[:, c]
    y = (np.concatenate(levels, axis=1).reshape(-1, m) @ d_star.T).reshape(m, -1, m)
    bounds = np.cumsum([x.shape[1] for x in levels])[:-1]
    stacked = [b.reshape(m, -1) for b in np.split(y, bounds, axis=1)]
    return list(np.cumsum([b.conj() @ b.T for b in stacked], axis=0))


def embedding_by_plan_walk(t: ContractionTuple, d: int) -> DilationModel:
    """The degree-d canonical embedding by the level-plan walk for any
    number of components: the orbit walked to d + 1 by _orbit_levels, one
    level-sum product per level, then the batched Gram rows."""
    d_star, q = _adjoint_defect(t)
    m = t.space_dim
    basis = enumerate_basis(t.num_components, d, q.dim)
    adjoints = [adjoint(c) for c in t.components]
    levels = [x.transpose(2, 0, 1) for x in _orbit_levels(adjoints, d + 1, np.identity(m, complex))]
    level_sums = [w.reshape(m, -1).conj() @ w.reshape(m, -1).T for w in levels]
    levels = levels[:-1]
    starts = np.cumsum([0] + [x.shape[1] for x in levels[:-1]])
    y = (np.concatenate(levels, axis=1).reshape(-1, m) @ d_star.T).reshape(m, -1, m)
    rows = np.einsum("cak,bak->acb", y.conj(), y)
    gram_levels = list(np.cumsum(np.add.reduceat(rows, starts, axis=0), axis=0))
    u = (y.reshape(-1, m) @ q.basis.conj()).reshape(m, -1).T
    return DilationModel(t, basis, q, u, gram_levels, level_sums, d)


def disjoint_exponent_pairs(n: int, cap: int):
    """All (alpha, beta) with disjoint supports and 0 < |alpha|+|beta| <= cap."""
    exps = _graded_lex_exponents(n, cap)
    deg = exps.sum(axis=1)
    support = exps > 0
    ok = (deg[:, None] + deg[None, :] <= cap) & ~(support @ support.T)
    ok[0, 0] = False
    alpha, beta = np.nonzero(ok)
    return zip(exps[alpha], exps[beta])


def dilation_residuals(model: DilationModel, order_cap: int) -> tuple[float, float]:
    """verify_dilation's (residual_dilation, residual_regularity) by two
    loops: the dilation property over every |alpha| <= order_cap, then
    regularity over the disjointly supported pairs other than (0, 0)."""
    d = model.truncation_degree
    t = model.tuple_
    n = t.num_components
    s = _inv_sqrt_psd(model.gram_levels[-1])
    res_dil = 0.0
    # dilation property over all |alpha| <= order_cap
    for alpha in _graded_lex_exponents(n, order_cap):
        ta = t.power(alpha)
        g = model.gram_levels[d - int(alpha.sum())]
        val = s @ (ta @ g) @ s
        res_dil = max(res_dil, operator_norm(val - ta))
    # regularity over disjoint pairs
    res_reg = 0.0
    for alpha, beta in disjoint_exponent_pairs(n, order_cap):
        level = d - int(alpha.sum()) - int(beta.sum())
        g = model.gram_levels[level]
        val = s @ (t.power(beta) @ g @ adjoint(t.power(alpha))) @ s
        want = adjoint(t.power(alpha)) @ t.power(beta)
        res_reg = max(res_reg, operator_norm(val - want))
    return res_dil, res_reg


def minimality_rank_svd(model: DilationModel, c: int) -> int:
    """Rank of verify_dilation's minimality stack at order c, counted as
    the singular values above 1e-7 times the largest one."""
    s = _inv_sqrt_psd(model.gram_levels[-1])
    e, m = model.defect_dim, model.space_dim
    basis_c = enumerate_basis(model.tuple_.num_components, c, e)
    u = model.embedding[: basis_c.size] @ s
    exps = basis_c.exponents
    gamma = exps[:, None, :] - exps[None, :, :]
    ok = (gamma >= 0).all(axis=-1)
    blocks = np.zeros((len(exps), len(exps), e, m), dtype=complex)
    blocks[ok] = u.reshape(-1, e, m)[basis_c.rank(gamma[ok])]
    sv = np.linalg.svd(blocks.transpose(0, 2, 1, 3).reshape(basis_c.size, -1), compute_uv=False)
    return int(np.sum(sv > 1e-7 * max(sv[0], 1e-30)))


def moebius_grid(n_components: int) -> list:
    """The default Moebius grid by nested loops: radii {0, 0.45, 0.9} times
    second roots of unity per coordinate, crossed over the first
    min(n, 2) coordinates."""
    one_d = [0.0]
    for r in (0.45, 0.9):
        for j in range(2):
            one_d.append(r * np.exp(2j * np.pi * j / 2))
    points = [()]
    for g in [one_d] * min(n_components, 2):
        points = [p + (c,) for p in points for c in g]
    return [MoebiusPoint(p) for p in points]


def poly_truncate_loop(cf: CharFn, tol: float):
    """charfn.poly_truncate term by term: the tail envelope tested before
    each term, one adjoint power and one coefficient product per term."""
    t, d_in, d_out = cf.t, cf.d_in, cf.d_out
    qi, qo = cf.defect_in.basis, cf.defect_out.basis
    coeffs = [adjoint(qo) @ (-t) @ qi]
    p, q, m = _power_norm_envelope(t)
    scale = operator_norm(d_out) * operator_norm(d_in)

    def tail_from(k):
        base = (k - 1) // p
        return scale * m * p * q**base / (1.0 - q)

    power = np.eye(t.shape[0], dtype=complex)  # T*^(k-1)
    left, t_star = adjoint(qo) @ d_out, adjoint(t)
    k = 1
    while tail_from(k) >= tol:
        if not power.any():
            return coeffs, 0.0  # nilpotent: series terminates exactly
        coeffs.append(left @ power @ d_in @ qi)
        power = t_star @ power
        k += 1
        if k > 4096:
            raise UnsafeDegree("characteristic-function tail does not certify")
    return coeffs, float(tail_from(k))
