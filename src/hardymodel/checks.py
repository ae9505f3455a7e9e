"""Named verification checks over seeded instances.

Each registry entry binds a check name to the mathematical statement it
verifies (the anchor), a regime, and a procedure consuming a seeded RNG,
generator parameters and a tolerance.  The cli module drives these from
scenario files; the registry is also exercised directly by the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import charfn, dilation, hardy, submodules
from .contraction import (
    BlaschkeProduct,
    ContractionTuple,
    mobius_series,
    mobius_tuple,
    tensor_tuple,
    validate_tuple,
)
from .generators import (
    controlled_contraction,
    random_moebius_point,
    random_probes,
    tuple_ensemble,
)
from .hardy import enumerate_basis, kernel_vector, monomial_vector, parity_shift, shift
from .linops import operator_norm

__all__ = ["CheckOutcome", "GeneratorParams", "REGISTRY", "get_check"]


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for seeded instance generation, from the scenario file."""

    instances: int = 5
    probes: int = 3
    radius_cap: float = 0.7
    norm_cap: float = 0.8
    truncation_degree: int = 24
    num_vars: int = 2
    coeff_dim: int = 1
    order_cap: int = 4
    dims: tuple = (2, 2)

    @staticmethod
    def from_dict(raw: dict) -> "GeneratorParams":
        """Parameters from a scenario record; ValueError on an unknown field
        or a value out of range (bools and strings are not integers)."""
        known = {f for f in GeneratorParams.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown generator fields: {sorted(unknown)}")
        fixed = dict(raw)
        for name, value in raw.items():
            if name in ("radius_cap", "norm_cap"):
                if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < 1:
                    raise ValueError(f"{name} must be a number in (0, 1), got {value!r}")
            elif name == "dims":
                if not isinstance(value, (list, tuple)) or not value:
                    raise ValueError(f"dims must be a nonempty list, got {value!r}")
                fixed["dims"] = tuple(_int_at_least("dims entry", x, 1) for x in value)
            else:
                _int_at_least(name, value, 0 if name in ("truncation_degree", "order_cap") else 1)
        return GeneratorParams(**fixed)


def _int_at_least(name: str, value, low: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


@dataclass(frozen=True)
class CheckOutcome:
    passed: bool
    residual: float
    tail_bound: float = 0.0
    safe_cutoff: int = -1


def _select_degree(t: ContractionTuple, target: float, cap: int) -> int:
    report = validate_tuple(t)
    radius = max(report.radius_estimates)
    return min(dilation.choose_truncation_degree(radius, t.space_dim, target), cap)


def check_tuple_validation(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    worst = 0.0
    for t in tuple_ensemble(rng, p.instances, p.radius_cap, p.norm_cap):
        rep = validate_tuple(t, tol)
        if not rep.passed:
            return CheckOutcome(False, max(rep.max_commutator, rep.max_cross_commutator))
        worst = max(worst, rep.max_commutator, rep.max_cross_commutator)
    return CheckOutcome(True, worst)


def check_norm_identity(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    worst = 0.0
    worst_tail = 0.0
    for t in tuple_ensemble(rng, p.instances, p.radius_cap, p.norm_cap):
        d = _select_degree(t, tol / 10.0, p.truncation_degree * 4)
        probes = random_probes(rng, t.space_dim, p.probes)
        partial, residual = dilation.norm_identity(t, probes, d)
        worst = max(worst, float(np.max(np.abs(residual))))
        worst_tail = max(worst_tail, tol / 10.0)
    return CheckOutcome(worst <= tol, worst, worst_tail)


def _dilation_reports(rng, p: GeneratorParams, tol: float):
    for t in tuple_ensemble(rng, p.instances, p.radius_cap, p.norm_cap):
        model = dilation.embedding_for_tolerance(
            t, tol / 10.0, order_cap=p.order_cap, materialize=False
        )
        yield dilation.verify_dilation(model, p.order_cap, tol)


def _worst_dilation_residual(rng, p: GeneratorParams, tol: float, field: str) -> CheckOutcome:
    worst = 0.0
    tail = 0.0
    for rep in _dilation_reports(rng, p, tol):
        worst = max(worst, getattr(rep, field))
        tail = max(tail, rep.tail_bound)
    return CheckOutcome(worst <= tol, worst, tail)


def check_dilation_compress(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    return _worst_dilation_residual(rng, p, tol, "residual_dilation")


def check_dilation_regularity(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    return _worst_dilation_residual(rng, p, tol, "residual_regularity")


def check_dilation_minimality(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    deficits = 0
    for rep in _dilation_reports(rng, p, tol):
        deficits += rep.minimality_expected - rep.minimality_rank
    return CheckOutcome(deficits == 0, float(deficits))


def check_mobius_involution(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    worst = 0.0
    for t in tuple_ensemble(rng, p.instances, p.radius_cap, p.norm_cap):
        lam = random_moebius_point(rng, t.num_components)
        s = mobius_tuple(t, lam)
        if not validate_tuple(s).passed:
            return CheckOutcome(False, float("inf"))
        back = mobius_tuple(s, lam)
        for c0, c1 in zip(t.components, back.components):
            worst = max(worst, operator_norm(c1 - c0))
    return CheckOutcome(worst <= tol, worst)


def check_defect_transfer(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    worst = 0.0
    bound = 0.0
    for t in tuple_ensemble(rng, p.instances, p.radius_cap, p.norm_cap):
        d = max(_select_degree(t, 1e-10, p.truncation_degree * 4), 20)
        model = dilation.canonical_embedding(t, d)
        lam = random_moebius_point(rng, t.num_components)
        for x in random_probes(rng, t.space_dim, p.probes).T:
            direct, via_model, b = dilation.defect_transfer_check(model, lam, x)
            if abs(direct - via_model) > b:
                return CheckOutcome(False, abs(direct - via_model), b)
            worst = max(worst, abs(direct - via_model))
            bound = max(bound, b)
    return CheckOutcome(True, worst, bound)


def check_defect_span(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    for t in tuple_ensemble(rng, p.instances, p.radius_cap, p.norm_cap):
        grid = dilation.default_moebius_grid(t.num_components)
        rank, complete = dilation.defect_span_completeness(t, grid)
        if not complete:
            return CheckOutcome(False, float(t.space_dim - rank))
    return CheckOutcome(True, 0.0)


def check_pseudometric(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    worst = 0.0
    for _ in range(p.instances):
        pts = [random_moebius_point(rng, p.num_vars, 0.8) for _ in range(3)]
        d01 = dilation.equivalence_pseudometric(pts[0], pts[1])
        d10 = dilation.equivalence_pseudometric(pts[1], pts[0])
        worst = max(worst, abs(d01 - d10))
        same = dilation.equivalence_pseudometric(pts[0], pts[0])
        worst = max(worst, same)
    return CheckOutcome(worst <= tol, worst)


def check_charfn_kernel_identity(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    worst = 0.0
    for _ in range(p.instances):
        dim = int(rng.integers(1, max(p.dims) + 1))
        a = controlled_contraction(rng, dim, p.radius_cap, p.norm_cap)
        cf = charfn.charfn_build(a)
        for _ in range(20):
            pa = 0.85 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            pb = 0.85 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            worst = max(worst, charfn.kernel_identity_residual(cf, pa, pb))
    return CheckOutcome(worst <= tol, worst)


def check_charfn_boundary(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    worst = 0.0
    for _ in range(p.instances):
        dim = int(rng.integers(1, max(p.dims) + 1))
        a = controlled_contraction(rng, dim, p.radius_cap, p.norm_cap)
        cf = charfn.charfn_build(a)
        worst = max(worst, charfn.boundary_unitarity(cf, samples=32))
    return CheckOutcome(worst <= tol, worst)


def check_projection_identity(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    worst = 0.0
    cutoff = -1
    for dim in (1, 2):
        a = controlled_contraction(rng, dim, min(p.radius_cap, 0.55), 0.75)
        residual, c = charfn.projection_identity_residual(a, p.truncation_degree, tol)
        worst = max(worst, residual)
        cutoff = c if cutoff < 0 else min(cutoff, c)
    return CheckOutcome(worst <= tol, worst, 0.0, cutoff)


def check_quotient_model(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    worst = 0.0
    cutoff = -1
    tail = 0.0
    single = ContractionTuple(
        (controlled_contraction(rng, 1, min(p.radius_cap, 0.55), 0.75),)
    )
    scalars = [
        controlled_contraction(rng, 1, min(p.radius_cap, 0.55), 0.75) for _ in range(2)
    ]
    pair = tensor_tuple(scalars)
    for t in (single, pair):
        rep = charfn.quotient_model_check(t, p.truncation_degree, tol)
        worst = max(worst, rep.distance)
        tail = max(tail, max(rep.symbol_tails, default=0.0))
        cutoff = rep.safe_cutoff if cutoff < 0 else min(cutoff, rep.safe_cutoff)
    return CheckOutcome(worst <= tol, worst, tail, cutoff)


def check_kernel_reproduction(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    b = enumerate_basis(p.num_vars, p.truncation_degree, p.coeff_dim)
    worst = 0.0
    for _ in range(p.instances):
        coeffs = rng.standard_normal(b.size) + 1j * rng.standard_normal(b.size)
        f = hardy.HardyVector(b, coeffs / np.linalg.norm(coeffs))
        lam = random_moebius_point(rng, p.num_vars, 0.6)
        for slot in range(p.coeff_dim):
            x = np.zeros(p.coeff_dim, dtype=complex)
            x[slot] = 1.0
            kv = kernel_vector(lam, b, x)
            inner = np.vdot(kv.coefficients, f.coefficients)
            want = np.vdot(x, hardy.evaluate(f, lam))
            worst = max(worst, abs(inner - want))
    return CheckOutcome(worst <= tol, worst)


def check_kernel_eigenrelation(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    b = enumerate_basis(p.num_vars, p.truncation_degree, 1)
    worst = 0.0
    for _ in range(p.instances):
        lam = random_moebius_point(rng, p.num_vars, 0.6)
        kv = kernel_vector(lam, b)
        low = b.degree_selector(b.max_degree - 1)
        for k in range(1, p.num_vars + 1):
            got = shift(k, b).apply_adjoint(kv).coefficients
            want = np.conj(lam.coord(k - 1)) * (kv.coefficients * low)
            worst = max(worst, float(np.linalg.norm(got - want)))
    return CheckOutcome(worst <= tol, worst, 0.0, b.max_degree - 1)


def check_parity_family(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    n = min(p.num_vars, 4)
    d = max(p.truncation_degree, 6)
    b = enumerate_basis(n, d, 1)
    ops = [parity_shift(k, b) for k in range(1, n + 1)]
    worst = 0.0
    # square identity on inputs whose transient degree stays inside
    sel = np.nonzero(b.degree_selector(d - 3))[0]
    for k in range(1, n + 1):
        v = ops[k - 1]
        m = shift(k, b)
        diff = v.compose(v).dense()[:, sel] - m.compose(m).dense()[:, sel]
        worst = max(worst, operator_norm(diff))
        rep = hardy.is_inner_on_truncation(v, tol)
        if not rep.passed:
            return CheckOutcome(False, rep.residual, 0.0, rep.safe_cutoff)
        worst = max(worst, rep.residual)
    # joint defect kills every monomial of degree below n
    for alpha in b.exponents[b.degrees < min(n, d)]:
        vvec = monomial_vector(b, alpha).coefficients
        for op in ops:
            m = op.matrix
            vvec = vvec - m @ (m.conj().T @ vvec)
        worst = max(worst, float(np.linalg.norm(vvec)))
    return CheckOutcome(worst <= tol, worst, 0.0, d - 3)


def check_power_search(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    d = max(p.truncation_degree, 10)
    worst_margin = 0.0
    for eps in (0.1, 0.01):
        b1 = enumerate_basis(1, d, 1)
        res = dilation.power_search(
            [shift(1, b1)], [monomial_vector(b1, (0,))], eps
        )
        if not res.passed:
            return CheckOutcome(False, 1.0)
        bn = enumerate_basis(min(p.num_vars, 3), d, 1)
        ops = [parity_shift(k, bn) for k in range(1, bn.num_vars + 1)]
        res = dilation.power_search(ops, [monomial_vector(bn, (0,) * bn.num_vars)], eps)
        if not res.passed:
            return CheckOutcome(False, 1.0)
        worst_margin = max(worst_margin, 1.0 - min(res.lower_bounds))
    return CheckOutcome(True, worst_margin)


def check_beurling_extraction(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    d = max(p.truncation_degree, 30)
    worst = 0.0
    fixtures = [
        {1: BlaschkeProduct(1.0, (0.45,))},
        {1: BlaschkeProduct(np.exp(0.7j), (0.4, -0.25, 0.3j))},
        {1: BlaschkeProduct(1.0, (0.45,)), 2: BlaschkeProduct(1.0, (-0.35,))},
    ]
    for hint in fixtures:
        nvars = max(2, max(hint))
        b = enumerate_basis(nvars, d, 1)
        op = submodules.inner_symbol_operator(hint, b)
        handle = submodules.submodule_from_inner(op, 1e-6, hint=hint, input_cutoff=9)
        res = submodules.wandering_generator_extract(handle)
        worst = max(worst, res.max_deviation)
    return CheckOutcome(worst <= tol, worst, 0.0, 9)


def check_double_commutation_counterexample(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    b = enumerate_basis(2, max(p.truncation_degree, 4), 1)
    gens = [monomial_vector(b, (1, 0)), monomial_vector(b, (0, 1))]
    handle = submodules.submodule_from_generators(gens, b, cutoff=b.max_degree - 1)
    rep = submodules.restriction_double_commutation(handle, tol)
    return CheckOutcome(rep.max_cross_commutator >= 0.1, rep.max_cross_commutator)


def check_jordan_quotient(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    d = max(p.truncation_degree, 12)
    b = enumerate_basis(min(p.num_vars, 2), d, 1)
    inner = [
        BlaschkeProduct(1.0, (0.0, 0.0)),
        BlaschkeProduct(1.0, (0.45,)),
    ][: b.num_vars]
    handle = submodules.quotient_tensor_build(inner, b)
    worst = 0.0
    for k in range(1, b.num_vars + 1):
        want = submodules.expected_tensor_compression(handle, k, inner)
        worst = max(worst, operator_norm(handle.compressions[k - 1] - want))
    rep = submodules.compression_double_commutation(handle, tol)
    worst = max(worst, rep.max_cross_commutator, rep.max_commutator)
    return CheckOutcome(worst <= tol, worst, 0.0, handle.safe_degree)


def check_kernel_fixed_point(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    d = max(p.truncation_degree, 24)
    b = enumerate_basis(1, d, 1)
    worst = 0.0
    tail_worst = 0.0
    for eta, lam in (
        (BlaschkeProduct(1.0, (0.0,)), (0.5,)),
        (BlaschkeProduct(1.0, (0.3,)), (0.5,)),
        (BlaschkeProduct(1.0, (0.0, 0.0)), (0.4,)),
    ):
        residual, tail = submodules.kernel_fixed_point_residual([eta], lam, b)
        if residual > 10.0 * tail + tol:
            return CheckOutcome(False, residual, tail)
        worst = max(worst, residual)
        tail_worst = max(tail_worst, tail)
    return CheckOutcome(True, worst, tail_worst, d)


def check_projector_product(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    d = max(p.truncation_degree, 14)
    b = enumerate_basis(min(p.num_vars, 2), d, 1)
    inner = [
        BlaschkeProduct(1.0, (0.45,)),
        BlaschkeProduct(1.0, (0.0, 0.0)),
    ][: b.num_vars]
    handle = submodules.quotient_tensor_build(inner, b)
    worst = 0.0
    exps = [(0,) * b.num_vars, (1,) + (0,) * (b.num_vars - 1)]
    if b.num_vars >= 2:
        exps.append((1, 1))
    for alpha in exps:
        _, _, dist = submodules.projector_product_check(inner, alpha, b, handle)
        worst = max(worst, dist)
    return CheckOutcome(worst <= tol, worst, 0.0, handle.safe_degree)


def check_partial_product_cauchy(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
    d = max(p.truncation_degree, 30)
    worst = 0.0
    for _ in range(p.instances):
        lams = [
            0.6 * rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
            for _ in range(2)
        ]
        b = enumerate_basis(2, d, 1)
        f = monomial_vector(b, (0, 0))
        for i, a in enumerate(lams):
            op = hardy.one_variable_symbol(i + 1, mobius_series(a, d), b)
            f = op.apply(f)
        diff = f.coefficients - monomial_vector(b, (0, 0)).coefficients
        direct = float(np.vdot(diff, diff).real)
        _, closed = hardy.mobius_partial_product(lams, 0, 2)
        worst = max(worst, abs(direct - closed))
    return CheckOutcome(worst <= tol, worst)


@dataclass(frozen=True)
class CheckSpec:
    name: str
    anchor: str
    regime: str  # matrix | hardy | both
    run: object
    default_tol: float


REGISTRY: dict[str, CheckSpec] = {
    spec.name: spec
    for spec in [
        CheckSpec(
            "tuple-validation",
            "class membership: contraction margins, stability certificate, double commutation",
            "matrix",
            check_tuple_validation,
            1e-10,
        ),
        CheckSpec(
            "norm-identity",
            "defect-orbit norm identity for the adjoint tuple",
            "matrix",
            check_norm_identity,
            1e-7,
        ),
        CheckSpec(
            "dilation-compress",
            "isometric dilation compresses to tuple powers",
            "matrix",
            check_dilation_compress,
            1e-8,
        ),
        CheckSpec(
            "dilation-regularity",
            "regular dilation: disjointly supported power compressions",
            "matrix",
            check_dilation_regularity,
            1e-8,
        ),
        CheckSpec(
            "dilation-minimality",
            "shift orbit of the embedded space spans the safe truncation",
            "matrix",
            check_dilation_minimality,
            1e-8,
        ),
        CheckSpec(
            "mobius-involution",
            "disk-automorphism calculus is involutive and class preserving",
            "matrix",
            check_mobius_involution,
            1e-10,
        ),
        CheckSpec(
            "defect-transfer",
            "adjoint defect norms transfer through the isometric coextension",
            "mixed",
            check_defect_transfer,
            1e-6,
        ),
        CheckSpec(
            "defect-span",
            "Moebius-shifted adjoint defects span the space over a grid",
            "matrix",
            check_defect_span,
            1e-9,
        ),
        CheckSpec(
            "pseudometric",
            "equivalence pseudometric symmetry and vanishing on the diagonal",
            "matrix",
            check_pseudometric,
            1e-12,
        ),
        CheckSpec(
            "charfn-kernel-identity",
            "defect kernel factorization of the characteristic function",
            "matrix",
            check_charfn_kernel_identity,
            1e-10,
        ),
        CheckSpec(
            "charfn-boundary",
            "boundary unitarity of the characteristic function",
            "matrix",
            check_charfn_boundary,
            1e-8,
        ),
        CheckSpec(
            "projection-identity",
            "embedding projector complements the symbol product",
            "mixed",
            check_projection_identity,
            1e-6,
        ),
        CheckSpec(
            "quotient-model",
            "analytic model complement equals the joint symbol range",
            "mixed",
            check_quotient_model,
            1e-6,
        ),
        CheckSpec(
            "kernel-reproduction",
            "truncated kernels reproduce polynomial point values",
            "hardy",
            check_kernel_reproduction,
            1e-12,
        ),
        CheckSpec(
            "kernel-eigenrelation",
            "adjoint shifts scale truncated kernels by conjugate coordinates",
            "hardy",
            check_kernel_eigenrelation,
            1e-12,
        ),
        CheckSpec(
            "parity-family",
            "parity isometries: square identity, isometry, joint defect collapse",
            "hardy",
            check_parity_family,
            1e-12,
        ),
        CheckSpec(
            "power-search",
            "adjoint-orbit power selection with verified defect lower bound",
            "hardy",
            check_power_search,
            1e-12,
        ),
        CheckSpec(
            "beurling-extraction",
            "wandering generator recovery for inner-generated sections",
            "hardy",
            check_beurling_extraction,
            1e-7,
        ),
        CheckSpec(
            "double-commutation-counterexample",
            "two-generator section fails double commutation",
            "hardy",
            check_double_commutation_counterexample,
            1e-10,
        ),
        CheckSpec(
            "jordan-quotient",
            "tensor quotient compressions are Jordan blocks tensor identity",
            "hardy",
            check_jordan_quotient,
            1e-10,
        ),
        CheckSpec(
            "kernel-fixed-point",
            "kernels are fixed by Moebius-shifted multiplier defect products",
            "hardy",
            check_kernel_fixed_point,
            1e-10,
        ),
        CheckSpec(
            "projector-product",
            "projection of monomials factorizes over tensor quotients",
            "hardy",
            check_projector_product,
            1e-10,
        ),
        CheckSpec(
            "partial-product-cauchy",
            "closed-form Cauchy increments of Moebius partial products (plumbing oracle)",
            "hardy",
            check_partial_product_cauchy,
            1e-10,
        ),
    ]
}


def get_check(name: str) -> CheckSpec:
    return REGISTRY[name]
