"""Canonical isometric dilation of a contraction tuple onto a truncated
vector-valued Hardy space, and the verification machinery around it.

The embedding sends x to the family of defect-orbit blocks D T*^alpha x,
|alpha| <= d, expressed in an orthonormal basis of the adjoint defect
space.  The orbit is walked one degree at a time over the graded-lex
exponent rows of the hardy module, each alpha reached from its parent
alpha - e_v by one adjoint.  Which parent and which v is a property of
(n, d) alone, so it is computed once per (n, d) into a cached, read-only
level plan; a level is then one matrix product and one gather.  The
whole orbit in basis order then gives every embedding row with one
product, and each cumulative Gram level with one product per degree.
Every DilationModel holds its rows: a model is built once, at its
degree, and every verdict on it, minimality included, reads the rows it
already has.  Compressions of truncated shift powers through the
embedding reduce to cumulative defect-orbit Gram sums, which is how the
verifier computes them; the identity is exercised against explicit
Hardy-side matrices in the test suite.  A Moebius map phi_a(S_k) of a
truncated shift is the multiplier of the degree-d series of phi_a(zeta_k),
exactly: S_k is nilpotent and S_k^j is the multiplier of zeta_k^j.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .contraction import (
    ContractionTuple,
    MoebiusPoint,
    joint_defect,
    mobius_series,
    mobius_tuple,
    validate_tuple,
)
from .errors import DimensionMismatch, NotInClass, UnsafeDegree, ZeroDefect
from .hardy import (
    HardyBasis,
    HardyVector,
    _graded_lex_exponents,
    _graded_lex_rank,
    enumerate_basis,
    one_variable_symbol,
)
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

#: Highest truncation degree the tail rule and the certificate search try.
_DEGREE_CAP = 512


@functools.lru_cache(maxsize=64)
def _level_plan(n: int, d: int) -> tuple:
    """Per degree k <= d, read-only: the exponent rows of degree k and each
    row's source p n + v.  Row alpha is T*_v of its parent alpha - e_v, v
    the last variable alpha uses, p the parent's index in level k - 1 (its
    rank minus the C(k-2+n, n) monomials of lower degree)."""
    exps = enumerate_basis(n, d).exponents
    starts = np.array([math.comb(k - 1 + n, n) for k in range(d + 2)])
    rows = exps[1:]
    last = n - 1 - np.argmax(rows[:, ::-1] > 0, axis=1)
    source = np.zeros(len(exps), dtype=np.intp)  # level 0 has no parent
    parents = rows - np.eye(n, dtype=rows.dtype)[last]
    source[1:] = (_graded_lex_rank(parents) - starts[rows.sum(axis=1) - 1]) * n + last
    source.flags.writeable = False
    return tuple((exps[a:b], source[a:b]) for a, b in zip(starts, starts[1:]))


def _orbit_levels(adjoints, d: int, right: np.ndarray):
    """Per degree k, the exponent rows of degree k and the stacked products
    T*^alpha @ right, shape (rows, m, q).

    A level is kept as w[c, alpha, :] = (T*^alpha @ right)[:, c]: one
    product w @ [T*_1^T ... T*_n^T] applies every T*_v to the previous
    level, and one take by the plan's sources keeps this level's rows.
    The blocks are yielded as the view w.transpose(1, 2, 0).
    """
    m = right.shape[0]
    steps = np.concatenate([a.T for a in adjoints], axis=1)
    w = np.asarray(right, dtype=complex).T[:, None, :]
    plan = _level_plan(len(adjoints), d)
    yield plan[0][0], w.transpose(1, 2, 0)
    for rows, source in plan[1:]:
        w = np.take((w.reshape(-1, m) @ steps).reshape(len(w), -1, m), source, axis=1)
        yield rows, w.transpose(1, 2, 0)


def _inv_sqrt_psd(g: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((g + adjoint(g)) / 2.0)
    w = np.clip(w, 1e-300, None)
    return (v / np.sqrt(w)) @ adjoint(v)


@dataclass
class DilationModel:
    """Truncated analytic model of a contraction tuple, built once.

    embedding always holds the raw coefficient map (rows indexed
    monomial-major in graded-lex order, defect slot minor, so for every
    c the rows of degree <= c come first); gram_levels[k] is the cumulative defect-orbit Gram sum over
    |alpha| <= k, so gram_levels[-1] measures how far the raw embedding
    is from isometric.
    """

    tuple_: ContractionTuple
    basis: HardyBasis
    defect_basis: Subspace
    embedding: np.ndarray
    gram_levels: list = field(repr=False)
    truncation_degree: int

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
        return self.embedding @ _inv_sqrt_psd(self.gram_levels[-1])

    def tail_bound(self, x: np.ndarray, degree: int) -> float:
        """||x||^2 minus the partial defect-orbit sum up to the degree."""
        if not 0 <= degree <= self.truncation_degree:
            raise DimensionMismatch(f"degree {degree} outside 0..{self.truncation_degree}")
        g = self.gram_levels[degree]
        x = np.asarray(x, dtype=complex).reshape(-1)
        val = np.vdot(x, x) - np.vdot(x, g @ x)
        return float(max(val.real, 0.0))

    def embed(self, x: np.ndarray) -> HardyVector:
        x = np.asarray(x, dtype=complex).reshape(-1)
        return HardyVector(self.basis, self.normalized_embedding() @ x)


def choose_truncation_degree(radius: float, dim: int, tol: float) -> int:
    """Smallest d with radius^(2(d+1)) * dim < tol (geometric tail rule)."""
    if radius <= 0.0:
        return 1
    if radius >= 1.0:
        raise UnsafeDegree("no finite truncation certifies a unit spectral radius")
    d = 0
    while radius ** (2 * (d + 1)) * dim >= tol:
        d += 1
        if d > _DEGREE_CAP:
            raise UnsafeDegree(f"required degree exceeds cap {_DEGREE_CAP}")
    return max(d, 1)


def embedding_for_tolerance(t: ContractionTuple, tol: float, order_cap: int = 0) -> DilationModel:
    """Embedding whose Gram defect at degree d - order_cap is certified <= tol.

    The starting degree comes from the geometric tail rule on the
    spectral-radius estimates; the computed cumulative Gram sums then
    certify the tail (they equal the exact truncation deficiency), and
    the degree is extended by 8 until the certificate holds.  G_k
    increases to I, so the certificate cannot grow in exact arithmetic:
    one that is not below its value 8 degrees earlier has stalled at
    round-off, and UnsafeDegree is raised there, as past degree _DEGREE_CAP.
    """
    if order_cap < 0:
        raise DimensionMismatch(f"order cap {order_cap} is negative")
    radius = max(_class_report(t).radius_estimates)
    d = choose_truncation_degree(radius, t.space_dim, tol) + order_cap
    d_star, q = _adjoint_defect(t)
    eye = np.eye(t.space_dim)
    previous = np.inf
    while True:
        model = _embedding(t, d, d_star, q)
        defect = operator_norm(model.gram_levels[d - order_cap] - eye)
        if defect <= tol:
            return model
        if defect >= previous or d + 8 > _DEGREE_CAP:
            state = "stalled" if defect >= previous else "still open"
            raise UnsafeDegree(f"certificate {defect:.3e} > {tol:.3e} {state} at degree {d}")
        previous = defect
        d += 8


def _class_report(t: ContractionTuple):
    """validate_tuple's report; NotInClass when the tuple fails it."""
    report = validate_tuple(t)
    if not report.passed:
        raise NotInClass(f"tuple fails class validation: {report.summary()}")
    return report


def _adjoint_defect(t: ContractionTuple):
    """D_* and its range; ZeroDefect when that range is trivial."""
    d_star = joint_defect(t.adjoint())
    q = defect_range(d_star)
    if q.dim == 0:
        raise ZeroDefect("adjoint defect space is trivial")
    return d_star, q


def canonical_embedding(t: ContractionTuple, d: int) -> DilationModel:
    """Defect-orbit embedding of the space into the truncated Hardy space.

    The coefficient dimension e is the rank of the joint adjoint defect,
    judged by linops.defect_range; a numerically zero defect (a
    coisometric tuple) raises ZeroDefect.
    """
    d_star, q = _adjoint_defect(t)
    _class_report(t)
    return _embedding(t, d, d_star, q)


def _embedding(t: ContractionTuple, d: int, d_star, q) -> DilationModel:
    """canonical_embedding of a validated tuple with its adjoint defect given."""
    m = t.space_dim
    basis = enumerate_basis(t.num_components, d, q.dim)
    adjoints = [adjoint(c) for c in t.components]
    levels = [x.transpose(2, 0, 1) for _, x in _orbit_levels(adjoints, d, np.eye(m, dtype=complex))]
    # y[c, alpha, :] = (D_* T*^alpha)[:, c] over all |alpha| <= d in basis order
    y = (np.concatenate(levels, axis=1).reshape(-1, m) @ d_star.T).reshape(m, -1, m)
    # level k adds sum_{|alpha| = k} (D_* T*^alpha)* (D_* T*^alpha), one product
    bounds = np.cumsum([x.shape[1] for x in levels])[:-1]
    stacked = [b.reshape(m, -1) for b in np.split(y, bounds, axis=1)]
    gram_levels = list(np.cumsum([b.conj() @ b.T for b in stacked], axis=0))
    # rows Q* D_* T*^alpha, monomial-major, defect slot minor
    u = (y.reshape(-1, m) @ q.basis.conj()).reshape(m, -1).T
    return DilationModel(t, basis, q, u, gram_levels, d)


def _disjoint_power_pairs(n: int, cap: int):
    """Index pairs (i, j) into _graded_lex_exponents(n, cap) of the
    exponents alpha_i, beta_j with disjoint supports and
    |alpha_i| + |beta_j| <= cap, (0, 0) included."""
    exps = _graded_lex_exponents(n, cap)
    deg = exps.sum(axis=1)
    support = exps > 0
    ok = (deg[:, None] + deg[None, :] <= cap) & ~(support @ support.T)
    return zip(*np.nonzero(ok))


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
    if order_cap < 0:
        raise DimensionMismatch(f"order cap {order_cap} is negative")
    if order_cap > d:
        raise UnsafeDegree(f"order cap {order_cap} exceeds truncation degree {d}")
    t = model.tuple_
    exps = _graded_lex_exponents(t.num_components, order_cap)
    degrees = exps.sum(axis=1)
    powers = [t.power(gamma) for gamma in exps]
    s = _inv_sqrt_psd(model.gram_levels[-1])
    # one pass over the disjoint pairs: those with alpha = 0 are the
    # dilation property, and regularity takes every pair but (0, 0)
    res_dil = res_reg = 0.0
    for i, j in _disjoint_power_pairs(t.num_components, order_cap):
        g = model.gram_levels[d - degrees[i] - degrees[j]]
        val = s @ (powers[j] @ g @ adjoint(powers[i])) @ s
        res = operator_norm(val - adjoint(powers[i]) @ powers[j])
        if i == 0:
            res_dil = max(res_dil, res)
        if i or j:
            res_reg = max(res_reg, res)
    # minimality proxy: shifted embeddings span the whole safe section
    rank, expected = _minimality_rank(model, order_cap, s)
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
    e = model.defect_dim
    basis_c = enumerate_basis(model.tuple_.num_components, c, e)
    # graded-lex rows of degree <= c come first, so they are basis_c's rows;
    # block (beta, alpha) holds the embedding block of zeta^(beta - alpha)
    u = model.embedding[: basis_c.size] @ s
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
    single = np.ndim(x) == 1
    xs = np.asarray(x, dtype=complex).reshape(len(x), -1)
    d_star = joint_defect(t.adjoint())
    partial = np.zeros(xs.shape[1])
    for _, blocks in _orbit_levels([adjoint(c) for c in t.components], d, xs):
        partial += np.sum(np.abs(blocks.transpose(2, 0, 1) @ d_star.T) ** 2, axis=(1, 2))
    residual = np.sum(np.abs(xs) ** 2, axis=0) - partial
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


def default_moebius_grid(n_components: int):
    """Deterministic grid: radii {0, 0.45, 0.9} times second roots of unity
    per coordinate, crossed over the first min(n, 2) coordinates."""
    one_d = [0.0]
    for r in (0.45, 0.9):
        for j in range(2):
            one_d.append(r * np.exp(2j * np.pi * j / 2))
    k = min(n_components, 2)
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


def defect_transfer_check(
    model: DilationModel, lam: MoebiusPoint, x: np.ndarray
) -> tuple[float, float, float]:
    """Adjoint defect norm computed directly and through the model.

    Returns (direct, via_model, reported_bound).  The model side applies
    each phi_a(S_k) as the multiplier of the series of phi_a(zeta_k).  The
    bound combines the embedding tail at a split degree c with the
    Neumann truncation of the Moebius resolvents, 8|a|^(d-c+1)/(1-|a|)^3
    per coordinate, minimized over a few split degrees.
    """
    t = model.tuple_
    x = np.asarray(x, dtype=complex).reshape(-1)
    direct = float(np.linalg.norm(joint_defect(mobius_tuple(t, lam).adjoint()) @ x))
    y = model.embed(x).coefficients
    v = y.copy()
    d = model.truncation_degree
    eye = np.eye(model.defect_dim)
    for k in range(1, t.num_components + 1):
        series = mobius_series(lam.coord(k - 1), d)
        w = one_variable_symbol(k, [c * eye for c in series], model.basis).matrix
        v = v - w @ (w.conj().T @ v)
    via_model = float(np.sqrt(max(np.vdot(v, y).real, 0.0)))
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
