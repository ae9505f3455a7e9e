"""Canonical isometric dilation of a contraction tuple onto a truncated
vector-valued Hardy space, and the verification machinery around it.

The embedding sends x to the family of defect-orbit blocks D T*^alpha x,
|alpha| <= d, expressed in an orthonormal basis of the adjoint defect
space.  For any number of components the orbit comes from one routine:
each component's powers (T*_v^j)^T fill one stack, one product per
power, and the rows (T*^alpha)^T = (T*_1^a_1)^T ... (T*_n^a_n)^T of any
array of exponents are n - 1 batched products of the stack entries they
pick.  Rows do not depend on each other, so nothing is cached and only
hardy knows the exponent layout; a single contraction's rows are its
stack.  One product over the orbit gives every embedding row, and one
batched per-row product summed over the level starts (np.add.reduceat,
the starts read off the rows' degrees) and cumulated gives every Gram
level G_k.  The rows go on to degree d + 1 for the level sums
L_k = sum_{|beta| = k} T^beta T*^beta, per-row products summed the same
way: by the norm identity applied to T*^beta x, the truncation tail
x* (I - G_c) x lies between the max and the sum of ||T*^beta x||^2 over
|beta| = c + 1 (equal for n = 1), so L_(c+1), a sum of nonnegative
terms, is the one truncation measure: the tail in exact arithmetic, with
the computed Gram's own round-off, about 1e-15, on top of it.  A model of
lower degree is a prefix of a built one.  norm_identity asks the routine
for one degree level at a time, so it holds one level of rows.
Shift-power compressions through the embedding reduce to Gram sums, and a
Moebius map phi_a(S_k) is, exactly, the multiplier of the degree-d series
of phi_a(zeta_k).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

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
    enumerate_basis,
    one_variable_symbol,
)
from .linops import Subspace, adjoint, defect_range, operator_norm, orthonormalize

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


def _adjoint_power_rows(adjoints, top: int):
    """rows(exps): (T*^alpha)^T = (T*_1^a_1)^T ... (T*_n^a_n)^T for each
    row alpha of exps, in the given order, for exponents at most top.

    Each component's powers (T*_v^j)^T, j <= top, fill one stack, one
    product per power; a batch of rows is then n - 1 batched products of
    the stack entries its exponents pick.  Rows do not depend on each
    other, so any subset or order of exponents can be asked for."""
    m = len(adjoints[0])
    stacks = []
    for a in adjoints:
        stack = np.empty((top + 1, m, m), complex)
        stack[0] = np.identity(m)
        for k in range(1, top + 1):
            np.matmul(stack[k - 1], a.T, out=stack[k])
        stacks.append(stack)

    def rows(exps: np.ndarray) -> np.ndarray:
        out = stacks[0][exps[:, 0]]
        for stack, col in zip(stacks[1:], exps.T[1:]):
            out = out @ stack[col]
        return out

    return rows


def _level_bounds(exps: np.ndarray, top: int) -> np.ndarray:
    """Start of each degree 0..top among degree-sorted exponent rows, then
    the end of degree top."""
    return np.searchsorted(exps.sum(axis=1), np.arange(top + 2))


def _inv_sqrt_psd(g: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((g + adjoint(g)) / 2.0)
    w = np.clip(w, 1e-300, None)
    return (v / np.sqrt(w)) @ adjoint(v)


@dataclass
class DilationModel:
    """Truncated analytic model of a contraction tuple, built once.

    embedding holds the raw coefficient map (rows monomial-major in graded-lex
    order, defect slot minor, so the rows of degree <= c come first);
    gram_levels[k] is the cumulative Gram sum G_k over |alpha| <= k, and
    level_sums[k] is L_k, k <= d + 1, with 0 <= I - G_(k-1) <= L_k in exact
    arithmetic (the computed Gram carries its own round-off, about 1e-15)."""

    tuple_: ContractionTuple
    basis: HardyBasis
    defect_basis: Subspace
    embedding: np.ndarray
    gram_levels: list = field(repr=False)
    level_sums: list = field(repr=False)
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

    def _check_degree(self, degree: int) -> None:
        if not 0 <= degree <= self.truncation_degree:
            raise DimensionMismatch(f"degree {degree} outside 0..{self.truncation_degree}")

    def prefix(self, degree: int) -> "DilationModel":
        """The model of a degree <= d: this one's first rows and levels."""
        self._check_degree(degree)
        basis = enumerate_basis(self.basis.num_vars, degree, self.defect_dim)
        return replace(self, basis=basis, embedding=self.embedding[: basis.size],
                       gram_levels=self.gram_levels[: degree + 1],
                       level_sums=self.level_sums[: degree + 2], truncation_degree=degree)

    def tail_bound(self, x: np.ndarray, degree: int):
        """x* L_(degree+1) x: the truncation tail ||x||^2 - x* G_degree x in
        exact arithmetic is at most this (equal for n = 1), and the computed
        Gram carries its own round-off, about 1e-15, on top of it.  x may hold
        several probe columns; returns an array of matching width (a float
        for a single vector)."""
        self._check_degree(degree)
        xs = np.asarray(x, dtype=complex).reshape(len(x), -1)
        val = np.sum(xs.conj() * (self.level_sums[degree + 1] @ xs), axis=0).real
        return float(val[0]) if np.ndim(x) == 1 else val


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
    """Embedding of the smallest degree d whose tail at d - order_cap is <= tol.

    The tail at degree c is lambda_max(L_(c+1)), a bound on ||I - G_c|| in
    exact arithmetic (the computed Gram carries its own round-off, about
    1e-15, on top of it).  The walk starts at the geometric tail rule on the
    spectral-radius estimates and returns the prefix at the first level
    that certifies; only while none does, the degree grows by 8, and past
    _DEGREE_CAP UnsafeDegree is raised.
    """
    if order_cap < 0:
        raise DimensionMismatch(f"order cap {order_cap} is negative")
    radius = max(_class_report(t).radius_estimates)
    d = choose_truncation_degree(radius, t.space_dim, tol) + order_cap
    d_star, q = _adjoint_defect(t)
    while True:
        model = _embedding(t, d, d_star, q)
        tails = np.linalg.eigvalsh(np.stack(model.level_sums[1 : d - order_cap + 2]))[:, -1]
        certified = np.flatnonzero(tails <= tol)
        if certified.size:
            return model.prefix(int(certified[0]) + order_cap)
        if d + 8 > _DEGREE_CAP:
            raise UnsafeDegree(f"tail {tails[-1]:.3e} > {tol:.3e} at degree {d}")
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
    # p[alpha] = (T*^alpha)^T, p[alpha][c, :] = (T*^alpha)[:, c], |alpha| <= d + 1
    exps = enumerate_basis(t.num_components, d + 1).exponents
    starts = _level_bounds(exps, d + 1)[:-1]
    p = _adjoint_power_rows([adjoint(c) for c in t.components], d + 1)(exps)
    # L_k = sum_{|beta| = k} T^beta T*^beta, one batched per-row product
    # summed over each level's rows
    level_sums = list(np.add.reduceat(np.matmul(p.conj(), p.transpose(0, 2, 1)), starts, axis=0))
    # y[c, alpha, :] = (D_* T*^alpha)[:, c] over all |alpha| <= d in basis order
    y = (p[: basis.num_monomials].transpose(1, 0, 2).reshape(-1, m) @ d_star.T).reshape(m, -1, m)
    # (D_* T*^alpha)* (D_* T*^alpha) for every alpha in one batched product,
    # summed over each level's rows, then over the levels up to k
    rows = np.einsum("cak,bak->acb", y.conj(), y)
    gram_levels = list(np.cumsum(np.add.reduceat(rows, starts[:-1], axis=0), axis=0))
    # rows Q* D_* T*^alpha, monomial-major, defect slot minor
    u = (y.reshape(-1, m) @ q.basis.conj()).reshape(m, -1).T
    return DilationModel(t, basis, q, u, gram_levels, level_sums, d)


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
    pullback of the truncated shift action through the embedding; the tail
    reported is lambda_max(L_(d-order_cap+1)).
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
    tail = float(np.linalg.eigvalsh(model.level_sums[d - order_cap + 1])[-1])
    return DilationReport(res_dil, res_reg, rank, expected, tail, d - order_cap, tol)


def _minimality_rank(model: DilationModel, c: int, s: np.ndarray) -> tuple[int, int]:
    small = model.prefix(c)
    e, m, basis_c = small.defect_dim, small.space_dim, small.basis
    # block (beta, alpha) holds the embedding block of zeta^(beta - alpha)
    u = small.embedding @ s
    exps = basis_c.exponents
    gamma = exps[:, None, :] - exps[None, :, :]
    ok = (gamma >= 0).all(axis=-1)
    blocks = np.zeros((len(exps), len(exps), e, m), dtype=complex)
    blocks[ok] = u.reshape(-1, e, m)[basis_c.rank(gamma[ok])]
    stacked = blocks.transpose(0, 2, 1, 3).reshape(basis_c.size, -1)
    return orthonormalize(stacked, rank_tol=1e-7).dim, basis_c.size


def norm_identity(t: ContractionTuple, x: np.ndarray, d: int):
    """Partial defect-orbit sum and its residual against ||x||^2.

    x may hold several probe columns; returns (partial, residual) arrays
    of matching width (scalars for a single vector).
    """
    single = np.ndim(x) == 1
    xs = np.asarray(x, dtype=complex).reshape(len(x), -1)
    d_star = joint_defect(t.adjoint())
    exps = enumerate_basis(t.num_components, d).exponents
    bounds = _level_bounds(exps, d)
    rows = _adjoint_power_rows([adjoint(c) for c in t.components], d)
    partial = np.zeros(xs.shape[1])
    # one level at a time, so only one level of rows is held:
    # x^T (T*^alpha)^T D_*^T = (D_* T*^alpha x)^T
    for a, b in zip(bounds[:-1], bounds[1:]):
        partial += np.sum(np.abs(xs.T @ rows(exps[a:b]) @ d_star.T) ** 2, axis=(0, 2))
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
    one_d = [0.0] + [r * np.exp(2j * np.pi * j / 2) for r in (0.45, 0.9) for j in range(2)]
    return [MoebiusPoint(p) for p in itertools.product(one_d, repeat=min(n_components, 2))]


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
    return PowerSearchResult(tuple(exponents), tuple(bounds), ok)


def _max_degree(v: HardyVector) -> int:
    nz = np.abs(v.coefficients) > 1e-14
    if not nz.any():
        return 0
    return int(v.basis.flat_degrees()[nz].max())


def defect_transfer_check(model: DilationModel, lam: MoebiusPoint, x: np.ndarray):
    """Adjoint defect norm computed directly and through the model.

    x may hold several probe columns, as in norm_identity; returns
    (direct, via_model, reported_bound) arrays of matching width (floats
    for a single vector).  The n Moebius multipliers, the normalized
    embedding, the transformed tuple's defect and the isometry defect are
    built once for all probes.  The model side applies each phi_a(S_k) as
    the multiplier of the series of phi_a(zeta_k).  The bound combines the
    embedding tail at a split degree c with the Neumann truncation of the
    Moebius resolvents, 8|a|^(d-c+1)/(1-|a|)^3 per coordinate, minimized
    over a few split degrees.
    """
    t = model.tuple_
    xs = np.asarray(x, dtype=complex).reshape(len(x), -1)
    direct = np.linalg.norm(joint_defect(mobius_tuple(t, lam).adjoint()) @ xs, axis=0)
    y = model.normalized_embedding() @ xs
    v = y.copy()
    d = model.truncation_degree
    eye = np.eye(model.defect_dim)
    for k in range(1, t.num_components + 1):
        series = mobius_series(lam.coord(k - 1), d)
        w = one_variable_symbol(k, [c * eye for c in series], model.basis).matrix
        v = v - w @ (w.conj().T @ v)
    via_model = np.sqrt(np.maximum(np.sum(v.conj() * y, axis=0).real, 0.0))
    xnorm = np.linalg.norm(xs, axis=0)
    best = np.full(xs.shape[1], np.inf)
    for c in {d // 2, (2 * d) // 3, (3 * d) // 4, max(d - 5, 0)}:
        tail = np.sqrt(model.tail_bound(xs, degree=c))
        trunc = sum(
            8.0 * abs(lam.coord(k)) ** (d - c + 1) / (1.0 - abs(lam.coord(k))) ** 3
            for k in range(t.num_components)
        )
        best = np.minimum(best, tail + trunc * xnorm)
    bound = best + 4.0 * model.isometry_defect() * xnorm
    if np.ndim(x) == 1:
        return float(direct[0]), float(via_model[0]), float(bound[0])
    return direct, via_model, bound
