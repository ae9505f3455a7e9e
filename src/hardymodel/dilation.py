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
the computed Gram's own round-off, about 1e-15, on top of it.  Degrees
are certified by one walk over these level sums alone, which builds each
level once.  norm_identity and power_search apply powers to a few probe
vectors only, so they carry the vectors, one product per power, and form
no power of an operator.
Shift-power compressions through the embedding reduce to Gram sums, and a
Moebius map phi_a(S_k) is, exactly, the multiplier of the degree-d series
of phi_a(zeta_k).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .contraction import (
    ContractionTuple,
    MoebiusPoint,
    joint_defect,
    mobius_series,
    mobius_tuple,
    spectral_radius_bound,
    validate_tuple,
)
from .errors import DimensionMismatch, NotInClass, UnsafeDegree, ZeroDefect
from .hardy import (
    HardyBasis,
    HardyVector,
    defect_product,
    enumerate_basis,
    one_variable_symbol,
)
from .linops import Subspace, adjoint, operator_norm, orthonormalize
from .submodules import submodule_from_generators

__all__ = [
    "DilationModel",
    "DilationReport",
    "PowerSearchResult",
    "canonical_embedding",
    "certified_degree",
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


def _adjoint_power_rows(adjoints, exps: np.ndarray) -> np.ndarray:
    """(T*^alpha)^T = (T*_1^a_1)^T ... (T*_n^a_n)^T for each row alpha of
    exps, in the given order.

    Each component's powers (T*_v^j)^T, j <= the largest exponent, fill
    one stack, one product per power; the rows are then n - 1 batched
    products of the stack entries the exponents pick.  Rows do not depend
    on each other, so any subset or order of exponents can be asked for.
    The model and verify_dilation need whole m x m powers; a caller that
    applies powers to a few vectors carries the vectors instead."""
    m, top = len(adjoints[0]), int(exps.max())
    stacks = []
    for a in adjoints:
        stack = np.empty((top + 1, m, m), complex)
        stack[0] = np.identity(m)
        for k in range(1, top + 1):
            np.matmul(stack[k - 1], a.T, out=stack[k])
        stacks.append(stack)
    out = stacks[0][exps[:, 0]]
    for stack, col in zip(stacks[1:], exps.T[1:]):
        out = out @ stack[col]
    return out


def _inv_sqrt_psd(g: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((g + adjoint(g)) / 2.0)
    w = np.clip(w, 1e-300, None)
    return (v / np.sqrt(w)) @ adjoint(v)


def _level_sums(p: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """L_k over consecutive levels from their rows p, the i-th level's first
    row at starts[i]: a level's sum is the same bits whatever levels come with it."""
    return np.add.reduceat(np.matmul(p.conj(), p.transpose(0, 2, 1)), starts, axis=0)


@dataclass
class DilationModel:
    """Truncated analytic model of a contraction tuple, built once.

    norms are the components' spectral norms from validate_tuple;
    adjoint_defect is the joint adjoint defect D_* and defect_basis its
    range; embedding holds the raw coefficient map (rows monomial-major in
    graded-lex order, defect slot minor, so the rows of degree <= c come first);
    gram_levels[k] is the cumulative Gram sum G_k over |alpha| <= k, and
    level_sums[k] is L_k, k <= d + 1, with 0 <= I - G_(k-1) <= L_k in exact
    arithmetic (the computed Gram carries its own round-off, about 1e-15)."""

    tuple_: ContractionTuple
    norms: tuple
    basis: HardyBasis
    adjoint_defect: np.ndarray = field(repr=False)
    defect_basis: Subspace
    embedding: np.ndarray
    gram_levels: np.ndarray = field(repr=False)
    level_sums: np.ndarray = field(repr=False)
    truncation_degree: int

    @property
    def defect_dim(self) -> int:
        return self.defect_basis.dim

    def isometry_defect(self) -> float:
        g = self.gram_levels[-1]
        return operator_norm(g - np.eye(g.shape[0]))

    def normalized_embedding(self) -> np.ndarray:
        return self.embedding @ _inv_sqrt_psd(self.gram_levels[-1])


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


def certified_degree(t: ContractionTuple, tol: float) -> tuple[int, np.ndarray]:
    """Smallest degree c with lambda_max(L_(c+1)) <= tol, and that L_(c+1).

    lambda_max(L_(c+1)) bounds ||I - G_c|| in exact arithmetic (see
    DilationModel).  The walk sums the levels 1..d + 1, d the geometric
    tail rule's on the spectral-radius bounds; only while none certifies
    does it sum the next 8, from the rows of their exponents alone.  Past
    _DEGREE_CAP UnsafeDegree is raised.
    """
    radius = max(spectral_radius_bound(c) for c in t.components)
    d = choose_truncation_degree(radius, t.space_dim, tol)
    low = 1  # the first level not yet summed
    while True:
        exps = enumerate_basis(t.num_components, d + 1).exponents
        starts = np.searchsorted(exps.sum(axis=1), np.arange(low, d + 2))
        rows = _adjoint_power_rows([adjoint(c) for c in t.components], exps[starts[0]:])
        sums = _level_sums(rows, starts - starts[0])
        tails = np.linalg.eigvalsh(sums)[:, -1]
        certified = np.flatnonzero(tails <= tol)
        if certified.size:
            return low - 1 + int(certified[0]), sums[certified[0]]
        if d + 8 > _DEGREE_CAP:
            raise UnsafeDegree(f"tail {tails[-1]:.3e} > {tol:.3e} at degree {d}")
        low, d = d + 2, d + 8


def embedding_for_tolerance(t: ContractionTuple, tol: float, order_cap: int = 0) -> DilationModel:
    """The one embedding of degree c + order_cap, c = certified_degree(t, tol),
    from one validation and one adjoint defect."""
    if order_cap < 0:
        raise DimensionMismatch(f"order cap {order_cap} is negative")
    norms = _class_report(t).norms
    d_star, q = _adjoint_defect(t)
    c, _ = certified_degree(t, tol)
    return _embedding(t, c + order_cap, d_star, q, norms)


def _class_report(t: ContractionTuple):
    """validate_tuple's report; NotInClass when the tuple fails it."""
    report = validate_tuple(t)
    if not report.passed:
        raise NotInClass(f"tuple fails class validation: {report.summary()}")
    return report


def _adjoint_defect(t: ContractionTuple):
    """D_* and its range; ZeroDefect when that range is trivial."""
    d_star = joint_defect(t.adjoint())
    q = orthonormalize(d_star)
    if q.dim == 0:
        raise ZeroDefect("adjoint defect space is trivial")
    return d_star, q


def canonical_embedding(t: ContractionTuple, d: int) -> DilationModel:
    """Defect-orbit embedding of the space into the truncated Hardy space.

    The coefficient dimension e is the rank of the joint adjoint defect,
    judged by linops.orthonormalize against the absolute RANK_FLOOR; a
    numerically zero defect (a coisometric tuple) raises ZeroDefect.
    """
    d_star, q = _adjoint_defect(t)
    return _embedding(t, d, d_star, q, _class_report(t).norms)


def _embedding(t: ContractionTuple, d: int, d_star, q, norms) -> DilationModel:
    """canonical_embedding of a validated tuple, its adjoint defect and norms given."""
    m = t.space_dim
    basis = enumerate_basis(t.num_components, d, q.dim)
    # p[alpha] = (T*^alpha)^T, p[alpha][c, :] = (T*^alpha)[:, c], |alpha| <= d + 1
    exps = enumerate_basis(t.num_components, d + 1).exponents
    starts = np.searchsorted(exps.sum(axis=1), np.arange(d + 2))  # level starts
    p = _adjoint_power_rows([adjoint(c) for c in t.components], exps)
    level_sums = _level_sums(p, starts)
    # y[c, alpha, :] = (D_* T*^alpha)[:, c] over all |alpha| <= d in basis order
    y = (p[: basis.num_monomials].transpose(1, 0, 2).reshape(-1, m) @ d_star.T).reshape(m, -1, m)
    # (D_* T*^alpha)* (D_* T*^alpha) for every alpha in one batched product,
    # summed over each level's rows, then over the levels up to k
    rows = np.einsum("cak,bak->acb", y.conj(), y)
    gram_levels = np.cumsum(np.add.reduceat(rows, starts[:-1], axis=0), axis=0)
    # rows Q* D_* T*^alpha, monomial-major, defect slot minor
    u = (y.reshape(-1, m) @ q.basis.conj()).reshape(m, -1).T
    return DilationModel(t, norms, basis, d_star, q, u, gram_levels, level_sums, d)


def _disjoint_power_pairs(n: int, cap: int):
    """Index arrays (i, j) into enumerate_basis(n, cap).exponents of the pairs
    of exponents alpha_i, beta_j with disjoint supports and
    |alpha_i| + |beta_j| <= cap, (0, 0) included."""
    exps = enumerate_basis(n, cap).exponents
    deg = exps.sum(axis=1)
    support = exps > 0
    ok = (deg[:, None] + deg[None, :] <= cap) & ~(support @ support.T)
    return np.nonzero(ok)


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
    pullback of the truncated shift action through the embedding.  T^gamma
    is an orbit row conjugated; all pairs share one stacked product and one
    batched norm.  Minimality ranks the normalized embedding's generator
    orbit; the tail reported is lambda_max(L_(d-order_cap+1)).
    """
    d = model.truncation_degree
    if order_cap < 0:
        raise DimensionMismatch(f"order cap {order_cap} is negative")
    if order_cap > d:
        raise UnsafeDegree(f"order cap {order_cap} exceeds truncation degree {d}")
    t = model.tuple_
    exps = enumerate_basis(t.num_components, order_cap).exponents
    degrees = exps.sum(axis=1)
    # T^gamma = conj((T*^gamma)^T), from the orbit's rows
    powers = _adjoint_power_rows([adjoint(c) for c in t.components], exps).conj()
    s = _inv_sqrt_psd(model.gram_levels[-1])
    # every disjoint pair in one stacked product: those with alpha = 0 are
    # the dilation property, and regularity takes every pair but (0, 0)
    i, j = _disjoint_power_pairs(t.num_components, order_cap)
    g = model.gram_levels[d - degrees[i] - degrees[j]]
    val = s @ (powers[j] @ g @ adjoint(powers[i])) @ s
    res = operator_norm(val - adjoint(powers[i]) @ powers[j])
    res_dil = float(np.max(res[i == 0], initial=0.0))
    res_reg = float(np.max(res[(i > 0) | (j > 0)], initial=0.0))
    # minimality proxy: shifted embeddings span the whole safe section
    rank, expected = _minimality_rank(model, order_cap, s)
    tail = float(np.linalg.eigvalsh(model.level_sums[d - order_cap + 1])[-1])
    return DilationReport(res_dil, res_reg, rank, expected, tail, d - order_cap, tol)


def _minimality_rank(model: DilationModel, c: int, s: np.ndarray) -> tuple[int, int]:
    """Rank of the shift orbit, |beta| <= c, of the columns of the normalized
    embedding model.embedding @ s cut to degree c, and that section's size."""
    basis = enumerate_basis(model.basis.num_vars, c, model.defect_dim)
    gens = [HardyVector(basis, col) for col in (model.embedding[: basis.size] @ s).T]
    return submodule_from_generators(gens, basis, c).space.dim, basis.size


def norm_identity(t: ContractionTuple, x: np.ndarray, d: int):
    """Partial defect-orbit sum sum_{|alpha| <= d} ||D_* T*^alpha x||^2 and
    its residual against ||x||^2.

    T*^alpha x = T_n*^(a_n) ... T_1*^(a_1) x: the first variable acts
    first (the order matters only for a tuple that does not commute).  The
    probes are carried one variable at a time as one m x (q blocks) matrix
    of blocks T*^alpha x sorted by degree, so each power of a variable is
    one product with the prefix of blocks it still fits on.  The last
    variable's powers are summed as they come: only the orbit of the first
    n - 1 variables is held, and no power of an operator is formed.
    x may hold several probe columns; returns (partial, residual) arrays
    of matching width (scalars for a single vector).
    """
    single = np.ndim(x) == 1
    xs = np.asarray(x, dtype=complex).reshape(len(x), -1)
    m, q = xs.shape
    enumerate_basis(t.num_components, d)  # SizeOverflow past the basis cap
    d_star = joint_defect(t.adjoint())
    *heads, last = [adjoint(c) for c in t.components]
    w, deg = xs, np.zeros(1, dtype=int)  # the blocks and their degrees
    for a in heads:
        blocks, degs = [w], [deg]
        for k in range(1, d + 1):
            fit = np.searchsorted(deg, d - k, side="right")
            blocks.append(a @ blocks[-1][:, : q * fit])
            degs.append(deg[:fit] + k)
        deg = np.concatenate(degs)
        order = np.argsort(deg, kind="stable")
        w = np.concatenate(blocks, axis=1).reshape(m, -1, q)[:, order].reshape(m, -1)
        deg = deg[order]
    partial = np.zeros(q)
    for k in range(d + 1):
        if k:
            w = last @ w[:, : q * np.searchsorted(deg, d - k, side="right")]
        partial += np.sum(np.abs(d_star @ w) ** 2, axis=0).reshape(-1, q).sum(axis=0)
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
    rank = orthonormalize(stacked).dim
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
    ||prod_n (I - V_n^{k_n} V_n*^{k_n}) x|| >= (1 - eps) ||x||.  All
    probes are walked together as the columns of one coefficient block;
    a probe leaves the walk once its orbit is below the threshold.
    """
    if eps <= 0:
        raise DimensionMismatch("eps must be positive")
    if any(v.basis != op.basis_in or v.basis != op.basis_out for v in probes for op in ops):
        raise DimensionMismatch("probe basis does not match the operators")
    if not probes:
        return PowerSearchResult((1,) * len(ops), (), True)
    x = np.array([v.coefficients for v in probes]).T
    top = probes[0].basis.column_degrees(x)
    exponents = []
    for n, op in enumerate(ops, start=1):
        threshold = eps / 2.0**n
        adj_raise = max(-op.shift_lo, 0)
        w, deg, k = x, top, 0
        while (live := np.linalg.norm(w, axis=0) >= threshold).any():
            w, deg, k = w[:, live], deg[live], k + 1
            if adj_raise and (deg + k * adj_raise > op.basis_in.max_degree).any():
                raise UnsafeDegree(f"no safe exponent for operator {n} at this truncation")
            w = op.matrix.conj().T @ w
        exponents.append(max(k, 1))
    w = x
    for op, k in zip(ops, exponents):
        y = w
        for _ in range(k):
            y = op.matrix.conj().T @ y
        for _ in range(k):
            y = op.matrix @ y
        w = w - y
    bounds = np.linalg.norm(w, axis=0)
    ok = bool(np.all(bounds >= (1.0 - eps) * np.linalg.norm(x, axis=0) - 1e-12))
    return PowerSearchResult(tuple(exponents), tuple(map(float, bounds)), ok)


def defect_transfer_check(model: DilationModel, lam: MoebiusPoint, x: np.ndarray):
    """Adjoint defect norm computed directly and through the model.

    x may hold several probe columns, as in norm_identity; returns
    (direct, via_model, reported_bound) arrays of matching width (floats
    for a single vector).  The n Moebius multipliers, the normalized
    embedding, the transformed tuple's defect and the isometry defect are
    built once for all probes.  The model side applies each phi_a(S_k) as
    the multiplier of the series of phi_a(zeta_k).  The bound combines the
    embedding tail sqrt(x* L_(c+1) x) at a split degree c with the Neumann
    truncation of the Moebius resolvents, 8|a|^(d-c+1)/(1-|a|)^3 per
    coordinate, minimized over every split degree c <= d.
    """
    t = model.tuple_
    xs = np.asarray(x, dtype=complex).reshape(len(x), -1)
    direct = np.linalg.norm(joint_defect(mobius_tuple(t, lam).adjoint()) @ xs, axis=0)
    y = model.normalized_embedding() @ xs
    d = model.truncation_degree
    eye = np.eye(model.defect_dim)
    symbols = [one_variable_symbol(k, [c * eye for c in mobius_series(lam.coord(k - 1), d)],
                                   model.basis).matrix for k in range(1, t.num_components + 1)]
    v = defect_product(symbols, y)
    via_model = np.sqrt(np.maximum(np.sum(v.conj() * y, axis=0).real, 0.0))
    xnorm = np.linalg.norm(xs, axis=0)
    # the tail at every split degree c <= d, x* L_(c+1) x, in one batched
    # product (clamped at 0: a vanishing level may round below it), plus
    # the Neumann truncation of the resolvents past d - c
    quad = np.sum(xs.conj() * (model.level_sums[1:] @ xs), axis=1).real
    power = d + 1 - np.arange(d + 1)
    radii = [abs(lam.coord(k)) for k in range(t.num_components)]
    trunc = sum(8.0 * r**power / (1.0 - r) ** 3 for r in radii)
    best = np.min(np.sqrt(np.maximum(quad, 0.0)) + trunc[:, None] * xnorm, axis=0)
    bound = best + 4.0 * model.isometry_defect() * xnorm
    if np.ndim(x) == 1:
        return float(direct[0]), float(via_model[0]), float(bound[0])
    return direct, via_model, bound
