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
characteristic-function series, the characteristic function, its kernel
identity and its boundary unitarity one sample point at a time (one
resolvent solve and one SVD per point), the Beurling extraction on
the N rows of the ambient basis, the pivoted-QR orthonormalization
through scipy.linalg.qr, the sparse symbol of a component with the one-component
distance it gave, the product loop of a tuple power, the minimality stack's block scatter, and each call site's
own loop over the joint defect factors I - W W* (the quotient model's
sparse halves among them), the row route of the norm identity (one
degree level of q x m rows x^T (T*^alpha)^T at a time), the
probe-by-probe power search, a model's tail x* L_(c+1) x at one degree
and the defect-transfer bound split degree by split degree.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from hardymodel.charfn import (
    _BOUNDARY_SAMPLES,
    CharFn,
    _power_norm_envelope,
    charfn_build,
    poly_truncate,
)
from hardymodel.contraction import (
    ContractionTuple,
    MoebiusPoint,
    joint_defect,
    mobius_series,
    validate_tuple,
)
from hardymodel.dilation import (
    DilationModel,
    PowerSearchResult,
    _adjoint_defect,
    _inv_sqrt_psd,
    canonical_embedding,
)
from hardymodel.errors import AmbiguousWandering, DimensionMismatch, SingularShift, UnsafeDegree
from hardymodel.hardy import (
    HardyBasis,
    HardyOperator,
    HardyVector,
    _graded_lex_exponents,
    _graded_lex_rank,
    enumerate_basis,
    evaluate,
    kernel_vector,
    monomial_vector,
    one_variable_symbol,
    shift,
)
from hardymodel.linops import (
    Subspace,
    adjoint,
    operator_norm,
    orthonormalize,
)
from hardymodel.submodules import _EXTRACTION_SLACK, ExtractionResult, QuotientHandle, SubmoduleHandle


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
    i = int(v.basis.rank(alpha))
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
    """Section degree of each variable."""
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
    norms = validate_tuple(t).norms
    return DilationModel(t, norms, basis, d_star, q, u, gram_levels, level_sums, d)


def tuple_power(t: ContractionTuple, alpha) -> np.ndarray:
    """T^alpha = T_1^a_1 ... T_n^a_n (commuting components)."""
    out = np.eye(t.space_dim, dtype=complex)
    for c, a in zip(t.components, alpha):
        for _ in range(int(a)):
            out = out @ c
    return out


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
        ta = tuple_power(t, alpha)
        g = model.gram_levels[d - int(alpha.sum())]
        val = s @ (ta @ g) @ s
        res_dil = max(res_dil, operator_norm(val - ta))
    # regularity over disjoint pairs
    res_reg = 0.0
    for alpha, beta in disjoint_exponent_pairs(n, order_cap):
        level = d - int(alpha.sum()) - int(beta.sum())
        g = model.gram_levels[level]
        val = s @ (tuple_power(t, beta) @ g @ adjoint(tuple_power(t, alpha))) @ s
        want = adjoint(tuple_power(t, alpha)) @ tuple_power(t, beta)
        res_reg = max(res_reg, operator_norm(val - want))
    return res_dil, res_reg


def minimality_rank_svd(model: DilationModel, c: int) -> int:
    """Rank of verify_dilation's minimality stack at order c, counted as
    the singular values above 1e-7 times the largest one."""
    s = _inv_sqrt_psd(model.gram_levels[-1])
    e, m = model.defect_dim, model.tuple_.space_dim
    basis_c = enumerate_basis(model.tuple_.num_components, c, e)
    u = model.embedding[: basis_c.size] @ s
    exps = basis_c.exponents
    gamma = exps[:, None, :] - exps[None, :, :]
    ok = (gamma >= 0).all(axis=-1)
    blocks = np.zeros((len(exps), len(exps), e, m), dtype=complex)
    blocks[ok] = u.reshape(-1, e, m)[basis_c.rank(gamma[ok])]
    sv = np.linalg.svd(blocks.transpose(0, 2, 1, 3).reshape(basis_c.size, -1), compute_uv=False)
    return int(np.sum(sv > 1e-7 * max(sv[0], 1e-30)))


def minimality_rank_block_scatter(model: DilationModel, c: int, s: np.ndarray) -> tuple[int, int]:
    """verify_dilation's minimality rank by the block scatter: block
    (beta, alpha) of the stack holds the embedding block of
    zeta^(beta - alpha), and the pivoted QR counts pivots above RANK_FLOOR."""
    small = canonical_embedding(model.tuple_, c)
    e, m, basis_c = small.defect_dim, small.tuple_.space_dim, small.basis
    # block (beta, alpha) holds the embedding block of zeta^(beta - alpha)
    u = small.embedding @ s
    exps = basis_c.exponents
    gamma = exps[:, None, :] - exps[None, :, :]
    ok = (gamma >= 0).all(axis=-1)
    blocks = np.zeros((len(exps), len(exps), e, m), dtype=complex)
    blocks[ok] = u.reshape(-1, e, m)[basis_c.rank(gamma[ok])]
    stacked = blocks.transpose(0, 2, 1, 3).reshape(basis_c.size, -1)
    return orthonormalize(stacked).dim, basis_c.size


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
    each term, one thin block T*^(k-1) D_in Q_in and one coefficient
    product (Q_out* D_out) @ block per term."""
    t, d_in, d_out = cf.t, cf.d_in, cf.d_out
    qi, qo = cf.defect_in.basis, cf.defect_out.basis
    coeffs = [adjoint(qo) @ (-t) @ qi]
    p, q, m = _power_norm_envelope(cf)
    scale = operator_norm(d_out) * operator_norm(d_in)

    def tail_from(k):
        base = (k - 1) // p
        return scale * m * p * q**base / (1.0 - q)

    block = d_in @ qi  # T*^(k-1) D_in Q_in
    left, t_star = adjoint(qo) @ d_out, adjoint(t)
    k = 1
    while tail_from(k) >= tol:
        if not block.any():
            return coeffs, 0.0  # series terminates exactly
        coeffs.append(left @ block)
        block = t_star @ block
        k += 1
        if k > 4096:
            raise UnsafeDegree("characteristic-function tail does not certify")
    return coeffs, float(tail_from(k))


def apply_shifted_inverse_point(t: np.ndarray, z: complex, rhs: np.ndarray) -> np.ndarray:
    """(I - z*T)^{-1} @ rhs at one point, by scipy.linalg.solve."""
    t = np.asarray(t, dtype=complex)
    m = np.eye(t.shape[0], dtype=complex) - z * t
    try:
        return scipy.linalg.solve(m, rhs)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise SingularShift(str(exc)) from exc


def charfn_eval_point(cf: CharFn, z: complex) -> np.ndarray:
    """theta(z) = compress(-T + z D_out (I - z T*)^{-1} D_in) between defect bases."""
    if cf.dim_in == 0 or cf.dim_out == 0:
        return np.zeros((cf.dim_out, cf.dim_in), dtype=complex)
    t = cf.t
    inner = -t + z * cf.d_out @ apply_shifted_inverse_point(adjoint(t), z, cf.d_in)
    return adjoint(cf.defect_out.basis) @ inner @ cf.defect_in.basis


def kernel_identity_residual_point(cf: CharFn, a: complex, b: complex) -> float:
    """Residual of the defect-kernel factorization at an interior pair.

    Compares I - theta(b) theta(a)* with
    (1 - conj(a) b) compress(D_out (I - b T*)^{-1} (I - conj(a) T)^{-1} D_out).
    """
    if abs(a) >= 1.0 or abs(b) >= 1.0:
        raise DimensionMismatch("interior points required")
    t, d_out = cf.t, cf.d_out
    th_b = charfn_eval_point(cf, b)
    th_a = charfn_eval_point(cf, a)
    lhs = np.eye(cf.dim_out, dtype=complex) - th_b @ adjoint(th_a)
    core = d_out @ apply_shifted_inverse_point(
        adjoint(t), b, apply_shifted_inverse_point(t, np.conj(a), d_out)
    )
    rhs = (1.0 - np.conj(a) * b) * adjoint(cf.defect_out.basis) @ core @ cf.defect_out.basis
    return operator_norm(lhs - rhs)


def boundary_unitarity_points(cf: CharFn) -> float:
    """Max of ||theta(z)* theta(z) - I|| over _BOUNDARY_SAMPLES equispaced
    unit-circle points, one evaluation and one SVD per point."""
    worst = 0.0
    eye = np.eye(cf.dim_in, dtype=complex)
    for j in range(_BOUNDARY_SAMPLES):
        z = np.exp(2j * np.pi * j / _BOUNDARY_SAMPLES)
        th = charfn_eval_point(cf, z)
        worst = max(worst, operator_norm(adjoint(th) @ th - eye))
    return worst


def deviation_grid_points(num_vars: int):
    """16 points on the circle of radius 0.5, damped by 0.9 per variable."""
    out = []
    for j in range(16):
        z = 0.5 * np.exp(2j * np.pi * j / 16)
        out.append(tuple(z * (0.9**i) for i in range(num_vars)))
    return tuple(out)


def _hint_value(hint, point) -> complex:
    val = 1.0 + 0.0j
    for var, eta in hint.items():
        val *= eta(point[var - 1])
    return val


def wandering_generator_extract_rows(handle: SubmoduleHandle) -> ExtractionResult:
    """The Beurling extraction on N rows: with P = Q Q* the projection on
    the section, prod_k (I - W_k W_k*) for the compressed shifts
    W_k = P S_k P on the projected unit vectors P e_alpha of low degree,
    each factor and the wandering QR as N-row columns, and the deviation
    by one evaluate per grid point."""
    if handle.basis.coeff_dim != 1:
        raise DimensionMismatch("extraction is defined for scalar coefficients")
    b = handle.space.basis
    cutoff = handle.safe_degree - _EXTRACTION_SLACK
    if cutoff < 0:
        raise UnsafeDegree("section too shallow for the requested slack")

    def project(x):
        return b @ (adjoint(b) @ x)

    units = np.eye(handle.basis.size, dtype=complex)[:, handle.basis.degree_selector(cutoff)]
    cols = project(units)
    for k in range(1, handle.basis.num_vars + 1):
        s = shift(k, handle.basis).matrix
        # W W* x = P S P S* P x
        cols = cols - project(s @ project(s.conj().T @ project(cols)))
    wandering = orthonormalize(cols)
    if wandering.dim != 1:
        raise AmbiguousWandering(
            f"wandering section has dimension {wandering.dim}, expected 1"
        )
    gen = HardyVector(handle.basis, wandering.basis[:, 0])
    if handle.generator_hint is None:
        return ExtractionResult(1, gen, None, None)
    hint_vec = handle.hint_column
    idx = int(np.argmax(np.abs(hint_vec)))
    if abs(hint_vec[idx]) == 0 or abs(gen.coefficients[idx]) == 0:
        raise AmbiguousWandering("degenerate coefficient match")
    ratio = gen.coefficients[idx] / hint_vec[idx]
    unimodular = ratio / abs(ratio)
    worst = 0.0
    for pt in deviation_grid_points(handle.basis.num_vars):
        got = evaluate(gen, pt)[0]
        want = unimodular * _hint_value(handle.generator_hint, pt)
        worst = max(worst, abs(got - want))
    return ExtractionResult(1, gen, complex(unimodular), float(worst))


def orthonormalize_by_scipy_qr(vectors: np.ndarray, rank_tol: float = 1e-10) -> Subspace:
    """Span of the given columns by the pivoted QR of the scipy.linalg.qr
    wrapper: a factorization independent of linops.orthonormalize's SVD,
    whose rank and span the tests compare against.

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


def component_symbol(cf: CharFn, coeffs, k: int, model: DilationModel):
    """charfn's sparse symbol of one component from its CharFn, the
    route of every component before the one-component safe rows were
    gathered from the coefficient stack.  Truncated M_theta~ of one
    component with output basis model.basis, as a CSR matrix: its
    coefficients are incl* theta_j, incl the inclusion of the joint
    adjoint defect space into this component's, applied to all
    coefficients in one batched product."""
    basis_in = enumerate_basis(model.tuple_.num_components, model.truncation_degree, cf.dim_in)
    incl = adjoint(cf.defect_out.basis) @ model.defect_basis.basis
    return one_variable_symbol(k, adjoint(incl) @ np.stack(coeffs), basis_in, model.basis).matrix


def one_component_difference(a: np.ndarray, d: int, tol: float):
    """(difference, cutoff) of charfn._model_distance for one component by
    the sparse route: the N x N_in CSR symbol (component_symbol), whose
    safe rows are densified, then I - W_S W_S* - U_S U_S*."""
    t = ContractionTuple((np.asarray(a, dtype=complex),))
    model = canonical_embedding(t, d)
    cf = charfn_build(t.components[0])
    coeffs, _ = poly_truncate(cf, tol / 10.0)
    cutoff = d - (len(coeffs) - 1) - 1
    sel = np.nonzero(model.basis.degree_selector(cutoff))[0]
    w_s = component_symbol(cf, coeffs, 1, model)[sel].toarray()
    diff = -(w_s @ adjoint(w_s))
    diff.flat[:: sel.size + 1] += 1.0
    u_s = model.normalized_embedding()[sel]
    diff -= u_s @ adjoint(u_s)
    return diff, cutoff


def half_product(symbols, sel: np.ndarray, size: int):
    """F_j ... F_1 E_S as a sparse size x |S| matrix, for the symbols
    W_1, ..., W_j (in that order) and F_k = I - W_k W_k*.  E_S only picks
    columns, so F_1 E_S = E_S - W_1 W_1[S, :]*; each later factor
    subtracts W (W* Y)."""
    y = sp.csr_matrix((np.ones(sel.size), (sel, np.arange(sel.size))), shape=(size, sel.size))
    for i, w in enumerate(symbols):
        y = y - w @ (w[sel].conj().T if i == 0 else w.conj().T @ y)
    return y


def wandering_defect_loop(ops, cols: np.ndarray) -> np.ndarray:
    """hardy.wandering_subspace's factor loop over the operators' matrices."""
    for op in ops:
        m = op.matrix
        cols = cols - m @ (m.conj().T @ cols)
    return cols


def defect_transfer_loop(model: DilationModel, lam: MoebiusPoint, y: np.ndarray) -> np.ndarray:
    """dilation.defect_transfer_check's model side before its last square
    root: each Moebius multiplier built and applied in turn."""
    v = y.copy()
    d = model.truncation_degree
    eye = np.eye(model.defect_dim)
    for k in range(1, model.tuple_.num_components + 1):
        series = mobius_series(lam.coord(k - 1), d)
        w = one_variable_symbol(k, [c * eye for c in series], model.basis).matrix
        v = v - w @ (w.conj().T @ v)
    return v


def kernel_fixed_point_loop(symbols, lam, basis: HardyBasis):
    """submodules.kernel_fixed_point_residual with each factor applied as
    it is built."""
    coords = np.asarray(getattr(lam, "coords", lam), dtype=complex).reshape(-1)
    kv = kernel_vector(lam, basis).coefficients
    v = kv.copy()
    tail = 0.0
    d = basis.max_degree
    for k, eta in enumerate(symbols, start=1):
        lam_k = coords[k - 1] if k - 1 < coords.size else 0.0j
        mu = complex(eta(lam_k))
        if abs(mu) >= 1.0:
            raise DimensionMismatch("symbol value lies on the boundary")
        f = eta.coefficients(d)
        eye = np.eye(d + 1)
        # the series division is a lower-triangular Toeplitz solve
        den = eye - np.conj(mu) * scipy.linalg.toeplitz(f, np.zeros(d + 1))
        series = scipy.linalg.solve_triangular(den, mu * eye[0] - f, lower=True)
        w = one_variable_symbol(k, series, basis).matrix
        v = v - w @ (w.conj().T @ v)
        tail = max(tail, abs(lam_k) ** max(d - eta.degree, 0))
    residual = float(np.linalg.norm(v - kv))
    return residual, float(tail)


def parity_defect_norms_loop(b: HardyBasis, ops) -> list:
    """checks._parity_family's joint-defect norms, one monomial vector of
    degree below n = b.num_vars at a time."""
    n, d = b.num_vars, b.max_degree
    out = []
    for alpha in b.exponents[b.degrees < min(n, d)]:
        vvec = monomial_vector(b, alpha).coefficients
        for op in ops:
            vvec = vvec - op.matrix @ (op.matrix.conj().T @ vvec)
        out.append(float(np.linalg.norm(vvec)))
    return out


def norm_identity_rows(t: ContractionTuple, x: np.ndarray, d: int):
    """dilation.norm_identity by the row route: each component's powers
    (T*_v^j)^T, j <= d, fill one stack, the probes x^T multiply the first
    stack once, and one degree level of q x m rows
    x^T (T*^alpha)^T = x^T (T*_1^a_1)^T ... (T*_n^a_n)^T is formed at a
    time, n - 1 batched products of the stack entries its exponents pick."""
    single = np.ndim(x) == 1
    xs = np.asarray(x, dtype=complex).reshape(len(x), -1)
    m = xs.shape[0]
    d_star = joint_defect(t.adjoint())
    exps = enumerate_basis(t.num_components, d).exponents
    bounds = np.searchsorted(exps.sum(axis=1), np.arange(d + 2))
    stacks = []
    for a in (adjoint(c) for c in t.components):
        stack = np.empty((d + 1, m, m), complex)
        stack[0] = np.identity(m)
        for k in range(1, d + 1):
            np.matmul(stack[k - 1], a.T, out=stack[k])
        stacks.append(stack)
    stacks[0] = xs.T @ stacks[0]
    partial = np.zeros(xs.shape[1])
    # x^T (T*^alpha)^T D_*^T = (D_* T*^alpha x)^T
    for a, b in zip(bounds[:-1], bounds[1:]):
        rows = stacks[0][exps[a:b, 0]]
        for stack, col in zip(stacks[1:], exps[a:b].T[1:]):
            rows = rows @ stack[col]
        partial += np.sum(np.abs(rows @ d_star.T) ** 2, axis=(0, 2))
    residual = np.sum(np.abs(xs) ** 2, axis=0) - partial
    if single:
        return float(partial[0]), float(residual[0])
    return partial, residual


def _max_degree(v: HardyVector) -> int:
    nz = np.abs(v.coefficients) > 1e-14
    if not nz.any():
        return 0
    return int(v.basis.flat_degrees()[nz].max())


def power_search_per_probe(ops, probes, eps: float) -> PowerSearchResult:
    """dilation.power_search one probe at a time: each probe's adjoint
    orbit walked by HardyOperator.apply_adjoint until it is below the
    threshold, then each probe's defect product applied on its own."""
    if eps <= 0:
        raise DimensionMismatch("eps must be positive")
    exponents = []
    for n, op in enumerate(ops, start=1):
        threshold = eps / 2.0**n
        adj_raise = max(-op.shift_lo, 0)
        k_needed = 0
        for v in probes:
            deg = _max_degree(v)
            k = 0
            w = v
            while np.linalg.norm(w.coefficients) >= threshold:
                k += 1
                if adj_raise and deg + k * adj_raise > op.basis_in.max_degree:
                    raise UnsafeDegree(
                        f"no safe exponent for operator {n} at this truncation"
                    )
                w = op.apply_adjoint(w)
            k_needed = max(k_needed, k)
        exponents.append(max(k_needed, 1))
    bounds = []
    ok = True
    for v in probes:
        w = v
        for op, k in zip(ops, exponents):
            y = w
            for _ in range(k):
                y = op.apply_adjoint(y)
            for _ in range(k):
                y = op.apply(y)
            w = HardyVector(w.basis, w.coefficients - y.coefficients)
        norm = float(np.linalg.norm(w.coefficients))
        bounds.append(norm)
        ok = ok and norm >= (1.0 - eps) * np.linalg.norm(v.coefficients) - 1e-12
    return PowerSearchResult(tuple(exponents), tuple(bounds), ok)


def tail_bound(model: DilationModel, x: np.ndarray, c: int) -> float:
    """x* L_(c+1) x for one vector x: the model's bound on the truncation
    tail ||x||^2 - x* G_c x (equal to it for n = 1 in exact arithmetic)."""
    return float(np.vdot(x, model.level_sums[c + 1] @ x).real)


def defect_transfer_bound_loop(model: DilationModel, lam: MoebiusPoint, x: np.ndarray) -> float:
    """dilation.defect_transfer_check's bound for one vector, one split
    degree c <= d at a time."""
    d, n = model.truncation_degree, model.tuple_.num_components
    xnorm = np.linalg.norm(x)
    best = np.inf
    for c in range(d + 1):
        trunc = sum(8.0 * abs(lam.coord(k)) ** (d - c + 1) / (1.0 - abs(lam.coord(k))) ** 3
                    for k in range(n))
        best = min(best, np.sqrt(max(tail_bound(model, x, c), 0.0)) + trunc * xnorm)
    return best + 4.0 * model.isometry_defect() * xnorm
