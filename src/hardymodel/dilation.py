"""Canonical isometric dilation of a contraction tuple onto a truncated
vector-valued Hardy space, and the verification machinery around it.

The embedding sends x to the family of defect-orbit blocks D T*^alpha x,
|alpha| <= d, expressed in an orthonormal basis of the adjoint defect
space.  Compressions of truncated shift powers through the embedding
reduce to cumulative defect-orbit Gram sums, which is how the verifier
computes them; the identity is exercised against explicit Hardy-side
matrices in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .contraction import (
    ContractionTuple,
    MoebiusPoint,
    joint_defect,
    mobius_tuple,
    validate_tuple,
)
from .errors import UnsafeDegree, ZeroDefect
from .hardy import HardyBasis, HardyOperator, HardyVector, _graded_lex_exponents, enumerate_basis, shift
from .linops import Subspace, adjoint, defect_range, operator_norm

__all__ = [
    "DilationModel",
    "DilationReport",
    "PowerSearchResult",
    "canonical_embedding",
    "choose_truncation_degree",
    "default_moebius_grid",
    "defect_span_completeness",
    "defect_transfer_check",
    "embedding_for_tolerance",
    "equivalence_pseudometric",
    "norm_identity",
    "power_search",
    "verify_dilation",
]


def _orbit_levels(adjoints, d: int, right: np.ndarray):
    """Levels of the adjoint orbit: per total degree, exponent rows and
    the stacked products T*^alpha @ right.

    Multi-indices are generated by incrementing variables in
    non-decreasing index order, so each one appears exactly once.
    """
    n = len(adjoints)
    exps = np.zeros((1, n), dtype=np.int64)
    start = np.zeros(1, dtype=np.int64)
    x = right[None, :, :].astype(complex)
    yield exps, x
    for _ in range(d):
        parts_e, parts_s, parts_x = [], [], []
        for v in range(n):
            mask = start <= v
            if not mask.any():
                continue
            e = exps[mask].copy()
            e[:, v] += 1
            parts_e.append(e)
            parts_s.append(np.full(e.shape[0], v, dtype=np.int64))
            parts_x.append(np.einsum("ij,cjq->ciq", adjoints[v], x[mask], optimize=True))
        exps = np.concatenate(parts_e)
        start = np.concatenate(parts_s)
        x = np.concatenate(parts_x)
        yield exps, x


def _inv_sqrt_psd(g: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((g + adjoint(g)) / 2.0)
    w = np.clip(w, 1e-300, None)
    return (v / np.sqrt(w)) @ adjoint(v)


@dataclass
class DilationModel:
    """Truncated analytic model of a contraction tuple.

    embedding holds the raw coefficient map (rows indexed monomial-major,
    defect slot minor); gram_levels[k] is the cumulative defect-orbit Gram
    sum over |alpha| <= k, so gram_levels[-1] measures how far the raw
    embedding is from isometric.
    """

    tuple_: ContractionTuple
    basis: HardyBasis
    defect_basis: Subspace
    embedding: np.ndarray | None
    gram_levels: list = field(repr=False)
    truncation_degree: int
    radius_estimates: tuple

    @property
    def space_dim(self) -> int:
        return self.tuple_.space_dim

    @property
    def defect_dim(self) -> int:
        return self.defect_basis.dim

    def isometry_defect(self) -> float:
        g = self.gram_levels[-1]
        return operator_norm(g - np.eye(g.shape[0]))

    def normalized_embedding(self) -> np.ndarray:
        if self.embedding is None:
            raise ValueError("model was built without a materialized embedding")
        return self.embedding @ _inv_sqrt_psd(self.gram_levels[-1])

    def tail_bound(self, x: np.ndarray, degree: int | None = None) -> float:
        """||x||^2 minus the partial defect-orbit sum up to the degree."""
        g = self.gram_levels[-1 if degree is None else degree]
        x = np.asarray(x, dtype=complex).reshape(-1)
        val = np.vdot(x, x) - np.vdot(x, g @ x)
        return float(max(val.real, 0.0))

    def embed(self, x: np.ndarray, normalized: bool = True) -> HardyVector:
        u = self.normalized_embedding() if normalized else self.embedding
        return HardyVector(self.basis, u @ np.asarray(x, dtype=complex).reshape(-1))


def choose_truncation_degree(radius: float, dim: int, tol: float, cap: int = 512) -> int:
    """Smallest d with radius^(2(d+1)) * dim < tol (geometric tail rule)."""
    if radius <= 0.0:
        return 1
    if radius >= 1.0:
        raise UnsafeDegree("no finite truncation certifies a unit spectral radius")
    d = 0
    while radius ** (2 * (d + 1)) * dim >= tol:
        d += 1
        if d > cap:
            raise UnsafeDegree(f"required degree exceeds cap {cap}")
    return max(d, 1)


def embedding_for_tolerance(
    t: ContractionTuple,
    tol: float,
    order_cap: int = 0,
    materialize: bool = True,
    max_degree: int = 512,
) -> DilationModel:
    """Embedding whose Gram defect at degree d - order_cap is certified <= tol.

    The starting degree comes from the geometric tail rule on the
    spectral-radius estimates; the computed cumulative Gram sums then
    certify the tail (they equal the exact truncation deficiency), and
    the degree is extended until the certificate holds.
    """
    report = validate_tuple(t)
    if not report.passed:
        raise ValueError(f"tuple fails class validation: {report.summary()}")
    radius = max(report.radius_estimates)
    d = choose_truncation_degree(radius, t.space_dim, tol) + order_cap
    eye = np.eye(t.space_dim)
    while True:
        model = canonical_embedding(t, d, materialize=materialize)
        defect = operator_norm(model.gram_levels[d - order_cap] - eye)
        if defect <= tol:
            return model
        if d + 8 > max_degree:
            raise UnsafeDegree(
                f"certificate {defect:.3e} > {tol:.3e} still open at degree {d}"
            )
        d += 8


def canonical_embedding(t: ContractionTuple, d: int, materialize: bool = True) -> DilationModel:
    """Defect-orbit embedding of the space into the truncated Hardy space.

    The coefficient dimension e is the rank of the joint adjoint defect,
    judged by linops.defect_range; a numerically zero defect (a
    coisometric tuple) raises ZeroDefect.
    """
    m = t.space_dim
    d_star = joint_defect(t.adjoint())
    q = defect_range(d_star)
    if q.dim == 0:
        raise ZeroDefect("adjoint defect space is trivial")
    report = validate_tuple(t)
    if not report.passed:
        raise ValueError(f"tuple fails class validation: {report.summary()}")
    e = q.dim
    basis = enumerate_basis(t.num_components, d, e)
    qd = adjoint(q.basis) @ d_star
    d_sq = adjoint(d_star) @ d_star
    adjoints = [adjoint(c) for c in t.components]
    u = np.zeros((basis.size, m), dtype=complex) if materialize else None
    gram_levels: list[np.ndarray] = []
    g = np.zeros((m, m), dtype=complex)
    for exps, x in _orbit_levels(adjoints, d, np.eye(m, dtype=complex)):
        g = g + np.einsum("cji,jk,ckl->il", x.conj(), d_sq, x, optimize=True)
        gram_levels.append(g.copy())
        if u is not None:
            idx = basis.rank(exps)
            blocks = np.einsum("ej,cjm->cem", qd, x, optimize=True)
            rows = (idx[:, None] * e + np.arange(e)[None, :]).reshape(-1)
            u[rows, :] = blocks.reshape(-1, m)
    return DilationModel(
        t, basis, q, u, gram_levels, d, tuple(report.radius_estimates)
    )


def _disjoint_power_pairs(n: int, cap: int):
    """All (alpha, beta) with disjoint supports and 0 < |alpha|+|beta| <= cap."""
    nz = _graded_lex_exponents(n, cap)[1:]  # nonzero ones; zero handled separately
    pairs = []
    for alpha in nz:
        pairs.append((alpha, np.zeros(n, dtype=np.int64)))
        pairs.append((np.zeros(n, dtype=np.int64), alpha))
    for alpha in nz:
        for beta in nz:
            if alpha.sum() + beta.sum() > cap:
                continue
            if np.any((alpha > 0) & (beta > 0)):
                continue
            pairs.append((alpha, beta))
    return pairs


@dataclass(frozen=True)
class DilationReport:
    residual_dilation: float
    residual_regularity: float
    minimality_rank: int
    minimality_expected: int
    tail_bound: float
    isometry_defect: float
    order_cap: int
    safe_cutoff: int
    tol: float

    @property
    def minimality_ok(self) -> bool:
        return self.minimality_rank == self.minimality_expected

    @property
    def passed(self) -> bool:
        return (
            self.residual_dilation <= self.tol
            and self.residual_regularity <= self.tol
            and self.minimality_ok
        )


def verify_dilation(model: DilationModel, order_cap: int, tol: float) -> DilationReport:
    """Dilation, regularity and minimality checks through the embedding.

    Compressions are evaluated as S T^beta G_l T*^alpha S with S the
    polar normalizer and G_l the cumulative Gram sums, which equals the
    pullback of the truncated shift action through the embedding.
    """
    d = model.truncation_degree
    if order_cap > d:
        raise UnsafeDegree(f"order cap {order_cap} exceeds truncation degree {d}")
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
    for alpha, beta in _disjoint_power_pairs(n, order_cap):
        level = d - int(alpha.sum()) - int(beta.sum())
        g = model.gram_levels[level]
        val = s @ (t.power(beta) @ g @ adjoint(t.power(alpha))) @ s
        want = adjoint(t.power(alpha)) @ t.power(beta)
        res_reg = max(res_reg, operator_norm(val - want))
    # minimality proxy: shifted embeddings span the whole safe section
    c = min(order_cap, d)
    rank, expected = _minimality_rank(model, c, s)
    tail = operator_norm(model.gram_levels[d - order_cap] - np.eye(model.space_dim))
    return DilationReport(
        res_dil,
        res_reg,
        rank,
        expected,
        tail,
        model.isometry_defect(),
        order_cap,
        d - order_cap,
        tol,
    )


def _minimality_rank(model: DilationModel, c: int, s: np.ndarray) -> tuple[int, int]:
    t = model.tuple_
    n = t.num_components
    e = model.defect_dim
    basis_c = enumerate_basis(n, c, e)
    if model.embedding is not None:
        u = model.embedding @ s
    else:
        small = canonical_embedding(t, c)
        u = small.embedding
    # block (beta, alpha) holds the embedding block of zeta^(beta - alpha);
    # graded-lex indices of degree <= c agree in basis_c and model.basis
    m = model.space_dim
    exps = basis_c.exponents
    gamma = exps[:, None, :] - exps[None, :, :]
    ok = (gamma >= 0).all(axis=-1)
    blocks = np.zeros((len(exps), len(exps), e, m), dtype=complex)
    blocks[ok] = u.reshape(-1, e, m)[basis_c.rank(gamma[ok])]
    stacked = blocks.transpose(0, 2, 1, 3).reshape(basis_c.size, -1)
    sv = np.linalg.svd(stacked, compute_uv=False)
    rank = int(np.sum(sv > 1e-7 * max(sv[0], 1e-30)))
    return rank, basis_c.size


def norm_identity(t: ContractionTuple, x: np.ndarray, d: int):
    """Partial defect-orbit sum and its residual against ||x||^2.

    x may hold several probe columns; returns (partial, residual) arrays
    of matching width (scalars for a single vector).
    """
    xs = np.asarray(x, dtype=complex)
    single = xs.ndim == 1
    if single:
        xs = xs[:, None]
    d_star = joint_defect(t.adjoint())
    adjoints = [adjoint(c) for c in t.components]
    partial = np.zeros(xs.shape[1])
    for _, blocks in _orbit_levels(adjoints, d, xs):
        y = np.einsum("ij,cjq->ciq", d_star, blocks, optimize=True)
        partial += np.sum(np.abs(y) ** 2, axis=(0, 1))
    norms = np.sum(np.abs(xs) ** 2, axis=0)
    residual = norms - partial
    if single:
        return float(partial[0]), float(residual[0])
    return partial, residual


def equivalence_pseudometric(lam: MoebiusPoint, mu: MoebiusPoint) -> float:
    """Sum of squared pseudo-hyperbolic coordinate distances."""
    n = max(len(lam.coords), len(mu.coords))
    total = 0.0
    for k in range(n):
        a, b = lam.coord(k), mu.coord(k)
        total += abs((a - b) / (1.0 - np.conj(a) * b)) ** 2
    return float(total)


def default_moebius_grid(n_components: int, max_coords: int = 2):
    """Deterministic grid: radii {0, 0.45, 0.9} times second roots of unity
    per coordinate, crossed over the first min(n, max_coords) coordinates."""
    one_d = [0.0]
    for r in (0.45, 0.9):
        for j in range(2):
            one_d.append(r * np.exp(2j * np.pi * j / 2))
    k = min(n_components, max_coords)
    grids = [one_d] * k
    points = [()]
    for g in grids:
        points = [p + (c,) for p in points for c in g]
    return [MoebiusPoint(p) for p in points]


def defect_span_completeness(t: ContractionTuple, grid) -> tuple[int, bool]:
    """Accumulated rank of adjoint defect ranges over a grid of disk points."""
    cols = []
    for lam in grid:
        s = mobius_tuple(t, lam)
        cols.append(joint_defect(s.adjoint()))
    stacked = np.concatenate(cols, axis=1)
    rank = defect_range(stacked).dim
    return rank, rank == t.space_dim


@dataclass(frozen=True)
class PowerSearchResult:
    exponents: tuple
    lower_bounds: tuple  # ||prod (I - V^k V*^k) x|| per probe
    epsilon: float
    passed: bool


def power_search(ops, probes, eps: float) -> PowerSearchResult:
    """Exponents killing each adjoint orbit, post-verified.

    For the n-th operator (1-based) finds the smallest k with
    ||V_n*^k x|| < eps/2^n for every probe, then verifies
    ||prod_n (I - V_n^{k_n} V_n*^{k_n}) x|| >= (1 - eps) ||x||.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    exponents = []
    for n, op in enumerate(ops, start=1):
        threshold = eps / 2.0**n
        adj_raise = max(-op.shift_lo, 0)
        k_needed = 0
        for v in probes:
            deg = _max_degree(v)
            k = 0
            w = v
            while w.norm >= threshold:
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
        bounds.append(w.norm)
        ok = ok and w.norm >= (1.0 - eps) * v.norm - 1e-12
    return PowerSearchResult(tuple(exponents), tuple(bounds), eps, ok)


def _max_degree(v: HardyVector) -> int:
    nz = np.abs(v.coefficients) > 1e-14
    if not nz.any():
        return 0
    return int(v.basis.flat_degrees()[nz].max())


class _MobiusShift:
    """phi_a of a truncated coordinate shift, applied through sparse solves."""

    def __init__(self, op: HardyOperator, a: complex):
        self.a = complex(a)
        self.m = op.matrix.tocsc()
        self.madj = op.matrix.conj().T.tocsc()
        n = op.matrix.shape[0]
        eye = sp.identity(n, format="csc", dtype=complex)
        self._solve = spla.factorized(eye - np.conj(self.a) * self.m)
        self._solve_adj = spla.factorized(eye - self.a * self.madj)

    def apply(self, v: np.ndarray) -> np.ndarray:
        u = self._solve(v)
        return self.a * u - self.m @ u

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        return self._solve_adj(np.conj(self.a) * v - self.madj @ v)


def defect_transfer_check(
    model: DilationModel, lam: MoebiusPoint, x: np.ndarray
) -> tuple[float, float, float]:
    """Adjoint defect norm computed directly and through the model.

    Returns (direct, via_model, reported_bound).  The bound combines the
    embedding tail at a split degree c with the Neumann truncation of the
    Moebius resolvents, 8|a|^(d-c+1)/(1-|a|)^3 per coordinate, minimized
    over a few split degrees.
    """
    t = model.tuple_
    x = np.asarray(x, dtype=complex).reshape(-1)
    direct = float(np.linalg.norm(joint_defect(mobius_tuple(t, lam).adjoint()) @ x))
    y = model.embed(x).coefficients
    v = y.copy()
    for k in range(1, t.num_components + 1):
        w = _MobiusShift(shift(k, model.basis), lam.coord(k - 1))
        v = v - w.apply(w.apply_adjoint(v))
    via_model = float(np.sqrt(max(np.vdot(v, y).real, 0.0)))
    d = model.truncation_degree
    xnorm = float(np.linalg.norm(x))
    best = np.inf
    for c in {d // 2, (2 * d) // 3, (3 * d) // 4, max(d - 5, 0)}:
        tail = np.sqrt(model.tail_bound(x, degree=c))
        trunc = sum(
            8.0 * abs(lam.coord(k)) ** (d - c + 1) / (1.0 - abs(lam.coord(k))) ** 3
            for k in range(t.num_components)
        )
        best = min(best, tail + trunc * xnorm)
    bound = float(best + 4.0 * model.isometry_defect() * xnorm)
    return direct, via_model, bound
