"""Submodule and quotient-module structure on the truncated Hardy space.

Submodules are represented by safe-degree sections (orthonormal column
spans of truncated generator images); quotient modules of tensor type are
built from one-variable model-space sections so that compressions carry
exact Kronecker structure, from the one compression routine
_restricted_shifts.  Generator orbits and tensor columns are placed into
the basis by one HardyBasis.rank scatter each.  All set operations happen
at the section level and every report names the cutoff it used; the
Beurling extraction runs in the section's own coordinates, so its one SVD
has the section's s rows, not the basis's N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .contraction import BlaschkeProduct, _commutator_norms
from .errors import (
    AmbiguousWandering,
    DegreeOverflow,
    DimensionMismatch,
    NotInner,
    UnsafeDegree,
)
from .hardy import (
    HardyBasis,
    HardyOperator,
    HardyVector,
    defect_product,
    enumerate_basis,
    is_inner_on_truncation,
    kernel_vector,
    monomial_vector,
    one_variable_symbol,
    shift,
    wandering_subspace,
)
from .linops import Subspace, adjoint, orthonormalize

__all__ = [
    "CommutationReport",
    "ExtractionResult",
    "QuotientHandle",
    "SubmoduleHandle",
    "compression_double_commutation",
    "expected_tensor_compression",
    "inner_symbol_operator",
    "kernel_fixed_point_residual",
    "model_space_section",
    "projector_product_check",
    "quotient_tensor_build",
    "restriction_double_commutation",
    "submodule_from_generators",
    "submodule_from_inner",
    "wandering_generator_extract",
]


@dataclass(frozen=True)
class SubmoduleHandle:
    basis: HardyBasis
    space: Subspace
    safe_degree: int
    generator_hint: object = None  # optional: dict var index -> BlaschkeProduct
    hint_column: np.ndarray | None = None  # the hint's coefficients: the hint times 1


@dataclass(frozen=True)
class QuotientHandle:
    basis: HardyBasis
    space: Subspace
    compressions: tuple  # one square matrix per variable, in the handle basis
    safe_degree: int
    sections: tuple = ()  # one model-space section per variable

    @property
    def dim(self) -> int:
        return self.space.dim


def submodule_from_inner(
    op: HardyOperator, tol: float = 1e-8, hint=None, input_cutoff: int | None = None
) -> SubmoduleHandle:
    """Safe-degree section of the range of an inner symbol's operator.

    A hint names the inner factors op multiplies by; the handle keeps it
    with op's first column, the hint's coefficients.
    """
    report = is_inner_on_truncation(op, tol, cutoff=input_cutoff)
    if not report.passed:
        raise NotInner(
            f"isometry residual {report.residual:.3e} exceeds {tol:.3e} "
            f"on degrees <= {report.safe_cutoff}"
        )
    cutoff = report.safe_cutoff
    basis = op.basis_in
    sel = np.nonzero(basis.degree_selector(cutoff))[0]
    cols = op.matrix[:, sel].toarray()
    space = orthonormalize(cols)
    column = None if hint is None else op.matrix[:, 0].toarray().ravel()
    return SubmoduleHandle(op.basis_out, space, cutoff, hint, column)


def submodule_from_generators(gens, basis: HardyBasis, cutoff: int) -> SubmoduleHandle:
    """Span of the shift orbit zeta^beta g, |beta| <= cutoff, of the given
    vectors; the cutoff bounds the orbit depth, not the coefficient support.

    The columns are placed by one rank scatter: coefficient block alpha of
    g lands at alpha + beta, and terms beyond the truncation drop.  The
    absolute RANK_FLOOR needs generators of norm O(1), as unit monomials
    and normalized embedding columns have.
    """
    e = basis.coeff_dim
    blocks = np.stack([np.asarray(g.coefficients, dtype=complex) for g in gens], axis=-1)
    blocks = blocks.reshape(basis.num_monomials, e, -1)
    betas = enumerate_basis(basis.num_vars, min(cutoff, basis.max_degree)).exponents
    target = basis.exponents[None, :, :] + betas[:, None, :]
    beta, src = np.nonzero(target.sum(axis=-1) <= basis.max_degree)
    orbit = np.zeros((basis.num_monomials, e, len(betas), blocks.shape[-1]), dtype=complex)
    orbit[basis.rank(target[beta, src]), :, beta] = blocks[src]
    cols = orbit.reshape(basis.size, -1)  # column beta * len(gens) + generator
    space = orthonormalize(cols[:, np.any(cols, axis=0)])
    return SubmoduleHandle(basis, space, cutoff, None)


def inner_symbol_operator(hint: dict, basis: HardyBasis) -> HardyOperator:
    """Multiplier of a product of one-variable inner factors.

    hint maps 1-based variable indices to finite Blaschke products; each
    factor's series is expanded to the full truncation degree.
    """
    op = None
    for var in sorted(hint):
        eta = hint[var]
        factor = one_variable_symbol(var, eta.coefficients(basis.max_degree), basis)
        op = factor if op is None else factor.compose(op)
    if op is None:
        raise DimensionMismatch("need at least one inner factor")
    return op


def _low_rows(handle: SubmoduleHandle, slack: int) -> np.ndarray:
    """The rows of the handle's section basis of degree <= safe_degree -
    slack; their adjoint holds the section coordinates of the projected
    low-degree unit vectors.  UnsafeDegree when that degree is < 0."""
    cutoff = handle.safe_degree - slack
    if cutoff < 0:
        raise UnsafeDegree("section too shallow for the requested slack")
    return handle.space.basis[handle.basis.degree_selector(cutoff)]


def _restricted_shifts(b: np.ndarray, basis: HardyBasis) -> list:
    """R_k = Q* S_k Q, the s x s compressions of the shifts of basis to the
    N x s section basis Q = b."""
    return [adjoint(b) @ (shift(k, basis).matrix @ b) for k in range(1, basis.num_vars + 1)]


@dataclass(frozen=True)
class CommutationReport:
    max_commutator: float
    max_cross_commutator: float
    safe_degree: int
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.max_commutator, self.max_cross_commutator) <= self.tol


#: degrees below the safe degree left out of each verdict's probes, so
#: truncation edge effects do not pollute it
_RESTRICTION_SLACK = 2
_EXTRACTION_SLACK = 1
_COMPRESSION_SLACK = 1


def restriction_double_commutation(handle: SubmoduleHandle, tol: float) -> CommutationReport:
    """(Cross-)commutators of the restricted shifts on the handle section.

    Residuals are measured on the handle's low-degree part (safe_degree
    minus _RESTRICTION_SLACK) so truncation edge effects do not pollute
    the verdict.  The probes are an orthonormal basis of the span of
    Q[low]*, the section coordinates of the projected low-degree unit
    vectors, so each residual is a restricted operator norm.
    """
    probes = orthonormalize(adjoint(_low_rows(handle, _RESTRICTION_SLACK))).basis
    norms = _commutator_norms(_restricted_shifts(handle.space.basis, handle.basis), probes)
    return CommutationReport(*norms, handle.safe_degree - _RESTRICTION_SLACK, tol)


@dataclass(frozen=True)
class ExtractionResult:
    wandering_dim: int
    generator: HardyVector | None
    unimodular: complex | None
    max_deviation: float | None


def _deviation_grid(num_vars: int) -> np.ndarray:
    """16 points on the circle of radius 0.5, damped by 0.9 per variable,
    as a (16, num_vars) array."""
    z = 0.5 * np.exp(2j * np.pi * np.arange(16) / 16)
    return z[:, None] * 0.9 ** np.arange(num_vars)


def wandering_generator_extract(handle: SubmoduleHandle) -> ExtractionResult:
    """Wandering part of the section and the recovered generator.

    Scalar coefficients only; a section shallower than _EXTRACTION_SLACK
    is UnsafeDegree.  The wandering space is hardy.wandering_subspace of
    R_k = Q* S_k Q (Q the N x s section basis) on the probes Q[low]*, the
    section coordinates of the projected unit vectors of degree <=
    safe_degree - _EXTRACTION_SLACK.  The section is spanned by theta
    zeta^beta, so the product of the I - R_k R_k* keeps theta exactly.
    The generator g = Q w is phased so that its first coefficient of
    modulus above 1e-10 is real and negative.  With wandering dimension
    one it is compared against the hint (if any) up to a unimodular
    constant from the largest-modulus coefficient, on _deviation_grid in
    one monomial product.
    """
    if handle.basis.coeff_dim != 1:
        raise DimensionMismatch("extraction is defined for scalar coefficients")
    probes = adjoint(_low_rows(handle, _EXTRACTION_SLACK))
    wandering = wandering_subspace(_restricted_shifts(handle.space.basis, handle.basis), probes)
    if wandering.dim != 1:
        raise AmbiguousWandering(
            f"wandering section has dimension {wandering.dim}, expected 1"
        )
    g = handle.space.basis @ wandering.basis[:, 0]
    lead = g[np.abs(g) > 1e-10][0]  # ||g|| = 1, so some |g_i| is >= 1 / sqrt(N)
    gen = HardyVector(handle.basis, -g * (np.conj(lead) / abs(lead)))
    if handle.generator_hint is None:
        return ExtractionResult(1, gen, None, None)
    hint_vec = handle.hint_column
    idx = int(np.argmax(np.abs(hint_vec)))
    if abs(hint_vec[idx]) == 0 or abs(gen.coefficients[idx]) == 0:
        raise AmbiguousWandering("degenerate coefficient match")
    ratio = gen.coefficients[idx] / hint_vec[idx]
    unimodular = ratio / abs(ratio)
    grid = _deviation_grid(handle.basis.num_vars)
    got = np.prod(grid[:, None, :] ** handle.basis.exponents, axis=-1) @ gen.coefficients
    hint_values = np.ones(len(grid), dtype=complex)
    for var, eta in handle.generator_hint.items():
        hint_values *= [eta(z) for z in grid[:, var - 1]]
    want = unimodular * hint_values
    return ExtractionResult(1, gen, complex(unimodular), float(np.max(np.abs(got - want))))


def model_space_section(eta: BlaschkeProduct, c: int) -> np.ndarray:
    """Orthonormal section of H2 minus eta H2 on one-variable degrees <= c.

    Columns are projections of the rational kernel basis attached to the
    Blaschke zeros (derivative kernels for multiplicities); exact
    polynomials when all zeros sit at the origin.  The columns have norm
    O(1), at least 1 (entry j is j!), as the absolute RANK_FLOOR needs.
    """
    p = eta.degree
    if p == 0:
        raise DimensionMismatch("constant inner function has a trivial model space")
    if c < p - 1:
        raise DegreeOverflow(f"section degree {c} below model dimension {p}")
    mult: dict[complex, int] = {}
    cols = []
    n = np.arange(c + 1)
    for a in eta.zeros:
        j = mult.get(a, 0)
        mult[a] = j + 1
        col = np.zeros(c + 1, dtype=complex)
        mask = n >= j
        ff = np.ones(c + 1)
        for step in range(j):
            ff[mask] *= n[mask] - step
        col[mask] = ff[mask] * np.conj(a) ** (n[mask] - j)
        cols.append(col)
    return orthonormalize(np.column_stack(cols)).basis


def _default_caps(inner_list, d: int) -> list:
    caps = [eta.degree - 1 for eta in inner_list]
    budget = d - 1 - sum(caps)
    if budget < 0:
        raise DegreeOverflow("truncation degree cannot hold the model sections")
    # distribute leftover degrees round-robin to sharpen the sections
    i = 0
    while budget > 0 and max(caps) < 12:
        caps[i % len(caps)] += 1
        budget -= 1
        i += 1
    return caps


def quotient_tensor_build(inner_list, basis: HardyBasis) -> QuotientHandle:
    """Tensor of one-variable model-space sections, one inner factor per
    variable, with compressions.

    The section degrees come from _default_caps; the handle keeps the
    sections it was built from.
    """
    if basis.coeff_dim != 1:
        raise DimensionMismatch("tensor quotients are built over scalar coefficients")
    el = list(inner_list)
    if len(el) != basis.num_vars:
        raise DimensionMismatch(
            f"need one inner factor per variable: {basis.num_vars}, got {len(el)}"
        )
    for eta in el:
        if eta.degree < 1:
            raise DimensionMismatch("each inner factor needs degree >= 1")
    caps = _default_caps(el, basis.max_degree)
    sections = tuple(model_space_section(eta, c) for eta, c in zip(el, caps))
    space = Subspace(basis.size, _tensor_columns(basis, sections))
    compressions = tuple(_restricted_shifts(space.basis, basis))
    return QuotientHandle(basis, space, compressions, sum(caps), sections)


def _tensor_columns(basis: HardyBasis, sections) -> np.ndarray:
    """Columns prod_k sections[k][:, j_k](zeta_k) over a scalar basis, one
    section per variable, the section indices j lexicographic.

    The outer product of the section columns is the Kronecker product of
    the sections; its rows are placed by one rank scatter, and terms
    beyond the truncation drop.
    """
    values = reduce(np.kron, sections, np.ones((1, 1), dtype=complex))
    exps = np.indices([s.shape[0] for s in sections]).reshape(len(sections), -1).T
    keep = exps.sum(axis=1) <= basis.max_degree
    out = np.zeros((basis.size, values.shape[1]), dtype=complex)
    out[basis.rank(exps[keep])] = values[keep]
    return out


def expected_tensor_compression(handle: QuotientHandle, k: int):
    """Kronecker-structured compression of variable k predicted by the
    tensor layout of the handle's sections: the compressed Jordan block of
    section k tensor the identity on the others."""
    sec = handle.sections[k - 1]
    c = sec.shape[0] - 1
    one_var = enumerate_basis(1, c + 1, 1)
    embedded = np.zeros((c + 2, sec.shape[1]), dtype=complex)
    embedded[: c + 1, :] = sec
    jordan = adjoint(embedded) @ (shift(1, one_var).dense() @ embedded)
    factors = [jordan if i == k - 1 else np.eye(s.shape[1]) for i, s in enumerate(handle.sections)]
    return reduce(np.kron, factors)


def compression_double_commutation(handle: QuotientHandle, tol: float) -> CommutationReport:
    """(Cross-)commutator residuals of the stored compressions, measured on
    handle columns of total degree <= safe_degree - _COMPRESSION_SLACK."""
    cutoff = handle.safe_degree - _COMPRESSION_SLACK
    degrees = handle.basis.column_degrees(handle.space.basis)
    probes = np.eye(handle.dim, dtype=complex)[:, degrees <= cutoff]
    return CommutationReport(*_commutator_norms(handle.compressions, probes), cutoff, tol)


def kernel_fixed_point_residual(symbols, lam, basis: HardyBasis):
    """Residual of the kernel fixed-point mechanism for one-variable
    multiplier tuples.

    For each listed variable k with symbol f_k and mu_k = f_k(lam_k), the
    factor I - phi_{mu_k}(M_k) phi_{mu_k}(M_k)* should fix the truncated
    kernel at lam.  phi_{mu_k}(M_k) is the truncated multiplier of the
    degree-d series of (mu_k - f_k)/(1 - conj(mu_k) f_k): truncated
    multipliers form an algebra.  Returns (residual, tail_bound).
    """
    if basis.coeff_dim != 1:
        raise DimensionMismatch("kernel mechanism is scalar-valued")
    if len(symbols) > basis.num_vars:
        raise DimensionMismatch("more symbols than basis variables")
    coords = np.asarray(getattr(lam, "coords", lam), dtype=complex).reshape(-1)
    kv = kernel_vector(lam, basis).coefficients
    factors = []
    tail = 0.0
    d = basis.max_degree
    for k, eta in enumerate(symbols, start=1):
        lam_k = coords[k - 1] if k - 1 < coords.size else 0.0j
        mu = complex(eta(lam_k))
        if abs(mu) >= 1.0:
            raise DimensionMismatch("symbol value lies on the boundary")
        f = eta.coefficients(d)
        eye = np.eye(d + 1)
        # the series division is a lower-triangular Toeplitz solve, the
        # matrix read off f by a lag index
        lag = np.subtract.outer(np.arange(d + 1), np.arange(d + 1))
        series = np.linalg.solve(eye - np.conj(mu) * np.tril(f[lag]), mu * eye[0] - f)
        factors.append(one_variable_symbol(k, series, basis).matrix)
        tail = max(tail, abs(lam_k) ** max(d - eta.degree, 0))
    residual = float(np.linalg.norm(defect_product(factors, kv) - kv))
    return residual, float(tail)


def projector_product_check(handle: QuotientHandle, alpha):
    """Tensor product formula for projections of monomials.

    Evaluates the per-variable product formula on the handle's sections and
    the direct projection onto the tensor quotient section; returns
    (formula, direct, distance).
    """
    basis = handle.basis
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != basis.num_vars:
        raise DimensionMismatch(f"exponent needs {basis.num_vars} entries, got {len(alpha)}")
    per_var = []
    for i, sec in enumerate(handle.sections):
        if alpha[i] > sec.shape[0] - 1:
            raise DegreeOverflow(
                f"exponent {alpha[i]} exceeds the section budget in slot {i}"
            )
        mono = np.zeros(sec.shape[0], dtype=complex)
        mono[alpha[i]] = 1.0
        per_var.append(sec @ (adjoint(sec) @ mono))
    formula = _tensor_columns(basis, [v[:, None] for v in per_var])[:, 0]
    target = monomial_vector(basis, alpha).coefficients
    b = handle.space.basis
    direct = b @ (adjoint(b) @ target)
    dist = float(np.linalg.norm(formula - direct))
    return (
        HardyVector(basis, formula),
        HardyVector(basis, direct),
        dist,
    )
