"""Submodule and quotient-module structure on the truncated Hardy space.

Submodules are represented by safe-degree sections (orthonormal column
spans of truncated generator images); quotient modules of tensor type are
built from one-variable model-space sections so that compressions carry
exact Kronecker structure.  Generator orbits and tensor columns are
placed into the basis by one HardyBasis.rank scatter each.  All set
operations happen at the section level and every report names the cutoff
it used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.linalg

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
    _graded_lex_exponents,
    enumerate_basis,
    evaluate,
    is_inner_on_truncation,
    kernel_vector,
    monomial_vector,
    one_variable_symbol,
    shift,
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
    sections: tuple = ()  # one model-space section per leading variable
    free_cap: int = 0

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
    space = orthonormalize(cols, rank_tol=1e-8)
    column = None if hint is None else op.matrix[:, 0].toarray().ravel()
    return SubmoduleHandle(op.basis_out, space, cutoff, hint, column)


def submodule_from_generators(gens, basis: HardyBasis, cutoff: int) -> SubmoduleHandle:
    """Span of the shift orbit zeta^beta g, |beta| <= cutoff, of the given
    vectors; the cutoff bounds the orbit depth, not the coefficient support.

    The columns are placed by one rank scatter: coefficient block alpha of
    g lands at alpha + beta, and terms beyond the truncation drop.
    """
    e = basis.coeff_dim
    blocks = np.stack([np.asarray(g.coefficients, dtype=complex) for g in gens], axis=-1)
    blocks = blocks.reshape(basis.num_monomials, e, -1)
    betas = _graded_lex_exponents(basis.num_vars, min(cutoff, basis.max_degree))
    target = basis.exponents[None, :, :] + betas[:, None, :]
    beta, src = np.nonzero(target.sum(axis=-1) <= basis.max_degree)
    orbit = np.zeros((basis.num_monomials, e, len(betas), blocks.shape[-1]), dtype=complex)
    orbit[basis.rank(target[beta, src]), :, beta] = blocks[src]
    cols = orbit.reshape(basis.size, -1)  # column beta * len(gens) + generator
    space = orthonormalize(cols[:, np.any(cols, axis=0)], rank_tol=1e-8)
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


def _low_section(handle: SubmoduleHandle, slack: int) -> np.ndarray:
    """Coordinates (in the handle basis) of the handle's low-degree part."""
    b = handle.space.basis
    cutoff = handle.safe_degree - slack
    keep = handle.basis.degree_selector(cutoff)
    low = orthonormalize(b * keep[:, None], rank_tol=1e-6)
    return adjoint(b) @ low.basis


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
    the verdict.
    """
    cutoff = handle.safe_degree - _RESTRICTION_SLACK
    if cutoff < 0:
        raise UnsafeDegree("section too shallow for the requested slack")
    b = handle.space.basis
    n = handle.basis.num_vars
    restricted = [adjoint(b) @ (shift(k, handle.basis).matrix @ b) for k in range(1, n + 1)]
    probes = _low_section(handle, _RESTRICTION_SLACK)
    return CommutationReport(*_commutator_norms(restricted, probes), cutoff, tol)


@dataclass(frozen=True)
class ExtractionResult:
    wandering_dim: int
    generator: HardyVector | None
    unimodular: complex | None
    max_deviation: float | None


def _deviation_grid(num_vars: int):
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


def wandering_generator_extract(handle: SubmoduleHandle) -> ExtractionResult:
    """Wandering part of the section and the recovered generator.

    Scalar coefficient space only.  When the wandering dimension is one,
    the generator is compared against the handle's hint (if any) up to a
    unimodular constant estimated from the largest-modulus coefficient.
    """
    if handle.basis.coeff_dim != 1:
        raise DimensionMismatch("extraction is defined for scalar coefficients")
    b = handle.space.basis
    low = _low_section(handle, _EXTRACTION_SLACK)  # handle coords of the low part
    low_cols = b @ low
    shifted = []
    for k in range(1, handle.basis.num_vars + 1):
        shifted.append(shift(k, handle.basis).matrix @ low_cols)
    shifted_space = orthonormalize(np.concatenate(shifted, axis=1), rank_tol=1e-8)
    residual_cols = low_cols - shifted_space.basis @ (adjoint(shifted_space.basis) @ low_cols)
    wandering = orthonormalize(residual_cols, rank_tol=1e-6)
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
    for pt in _deviation_grid(handle.basis.num_vars):
        got = evaluate(gen, pt)[0]
        want = unimodular * _hint_value(handle.generator_hint, pt)
        worst = max(worst, abs(got - want))
    return ExtractionResult(1, gen, complex(unimodular), float(worst))


def model_space_section(eta: BlaschkeProduct, c: int) -> np.ndarray:
    """Orthonormal section of H2 minus eta H2 on one-variable degrees <= c.

    Columns are projections of the rational kernel basis attached to the
    Blaschke zeros (derivative kernels for multiplicities); exact
    polynomials when all zeros sit at the origin.
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
    return orthonormalize(np.column_stack(cols), rank_tol=1e-10).basis


def _default_caps(inner_list, num_vars: int, d: int):
    caps = [eta.degree - 1 for eta in inner_list]
    free_vars = num_vars - len(inner_list)
    free_cap = 0
    budget = d - 1 - sum(caps)
    if budget < 0:
        raise DegreeOverflow("truncation degree cannot hold the model sections")
    if free_vars > 0:
        free_cap = min(2, budget)
        budget -= free_cap
    # distribute leftover degrees round-robin to sharpen the sections
    i = 0
    while budget > 0 and caps and max(caps) < 12:
        caps[i % len(caps)] += 1
        budget -= 1
        i += 1
    return caps, free_cap


def quotient_tensor_build(inner_list, basis: HardyBasis) -> QuotientHandle:
    """Tensor of one-variable model-space sections in the leading variables
    and (truncated) full Hardy space in the rest, with compressions.

    The section degrees and the free-block degree come from _default_caps;
    the handle keeps the sections it was built from.
    """
    if basis.coeff_dim != 1:
        raise DimensionMismatch("tensor quotients are built over scalar coefficients")
    n = basis.num_vars
    el = list(inner_list)
    if not el:
        raise DimensionMismatch("need at least one inner factor")
    if len(el) > n:
        raise DimensionMismatch("more inner functions than variables")
    for eta in el:
        if eta.degree < 1:
            raise DimensionMismatch("each inner factor needs degree >= 1")
    caps, free_cap = _default_caps(el, n, basis.max_degree)
    sections = tuple(model_space_section(eta, c) for eta, c in zip(el, caps))
    free_vars = n - len(el)
    free_exps = (
        enumerate_basis(free_vars, free_cap, 1).exponents
        if free_vars
        else np.zeros((1, 0), dtype=np.int64)
    )
    space = Subspace(basis.size, _tensor_columns(basis, sections, free_exps))
    bmat = space.basis
    compressions = tuple(adjoint(bmat) @ (shift(k, basis).matrix @ bmat) for k in range(1, n + 1))
    return QuotientHandle(basis, space, compressions, sum(caps) + free_cap, sections, free_cap)


def _tensor_columns(basis: HardyBasis, sections, gammas) -> np.ndarray:
    """Columns prod_i sections[i][:, j_i](zeta_i) * zeta_free^gamma over a
    scalar basis: gamma-major, then the section indices j lexicographic.

    The outer product of the section columns is the Kronecker product of
    the sections; its rows, extended by gamma, are placed by one rank
    scatter, and terms beyond the truncation drop.
    """
    L = len(sections)
    values = reduce(np.kron, sections, np.ones((1, 1), dtype=complex))
    lead = np.indices([s.shape[0] for s in sections]).reshape(L, -1).T
    exps = np.zeros((len(gammas), len(lead), basis.num_vars), dtype=np.int64)
    exps[:, :, :L] = lead
    exps[:, :, L:] = np.asarray(gammas, dtype=np.int64)[:, None, :]
    g, r = np.nonzero(exps.sum(axis=-1) <= basis.max_degree)
    out = np.zeros((basis.size, len(gammas), values.shape[1]), dtype=complex)
    out[basis.rank(exps[g, r]), g] = values[r]
    return out.reshape(basis.size, -1)


def expected_tensor_compression(handle: QuotientHandle, k: int):
    """Kronecker-structured compression of variable k predicted by the
    tensor layout of the handle's sections."""
    sections = handle.sections
    free_vars = handle.basis.num_vars - len(sections)
    free_basis = enumerate_basis(free_vars, handle.free_cap, 1) if free_vars else None
    if k <= len(sections):
        sec = sections[k - 1]
        c = sec.shape[0] - 1
        one_var = enumerate_basis(1, c + 1, 1)
        embedded = np.zeros((c + 2, sec.shape[1]), dtype=complex)
        embedded[: c + 1, :] = sec
        jordan = adjoint(embedded) @ (shift(1, one_var).dense() @ embedded)
        factors = []
        if free_vars:
            factors.append(np.eye(free_basis.size))
        for i, s in enumerate(sections):
            factors.append(jordan if i == k - 1 else np.eye(s.shape[1]))
        return reduce(np.kron, factors)
    # free-variable compression: truncated shift on the free block
    free_k = k - len(sections)
    free_shift = shift(free_k, free_basis).dense()
    return reduce(np.kron, [free_shift] + [np.eye(s.shape[1]) for s in sections])


def compression_double_commutation(handle: QuotientHandle, tol: float) -> CommutationReport:
    """(Cross-)commutator residuals of the stored compressions, measured on
    handle columns of total degree <= safe_degree - _COMPRESSION_SLACK."""
    cutoff = handle.safe_degree - _COMPRESSION_SLACK
    probes = np.eye(handle.dim, dtype=complex)[:, _column_degrees(handle) <= cutoff]
    return CommutationReport(*_commutator_norms(handle.compressions, probes), cutoff, tol)


def _column_degrees(handle: QuotientHandle) -> np.ndarray:
    """Highest degree each handle column reaches (entries above 1e-13); 0
    for a zero column."""
    nz = np.abs(handle.space.basis) > 1e-13
    return np.where(nz, handle.basis.flat_degrees()[:, None], 0).max(axis=0, initial=0)


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


def projector_product_check(handle: QuotientHandle, alpha):
    """Tensor product formula for projections of monomials.

    Evaluates the per-variable product formula on the handle's sections and
    the direct projection onto the tensor quotient section; returns
    (formula, direct, distance).
    """
    basis = handle.basis
    alpha = tuple(int(a) for a in alpha) + (0,) * (basis.num_vars - len(alpha))
    if len(alpha) > basis.num_vars:
        raise DegreeOverflow("exponent uses a variable beyond the basis")
    L = len(handle.sections)
    free_total = sum(alpha[L:])
    if free_total > handle.free_cap:
        raise DegreeOverflow(f"free exponent weight {free_total} exceeds {handle.free_cap}")
    per_var = []
    for i, sec in enumerate(handle.sections):
        if alpha[i] > sec.shape[0] - 1:
            raise DegreeOverflow(
                f"exponent {alpha[i]} exceeds the section budget in slot {i}"
            )
        mono = np.zeros(sec.shape[0], dtype=complex)
        mono[alpha[i]] = 1.0
        per_var.append(sec @ (adjoint(sec) @ mono))
    formula = _tensor_columns(basis, [v[:, None] for v in per_var], [alpha[L:]])[:, 0]
    target = monomial_vector(basis, alpha).coefficients
    b = handle.space.basis
    direct = b @ (adjoint(b) @ target)
    dist = float(np.linalg.norm(formula - direct))
    return (
        HardyVector(basis, formula),
        HardyVector(basis, direct),
        dist,
    )
