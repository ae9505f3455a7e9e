"""Named verification checks over seeded instances.

A check is a generator ``outcomes(rng, params, tol)`` that draws its
instances from the seeded RNG and yields one ``CheckOutcome`` per
instance (or per probe of an instance).  The ``_check`` decorator puts
the check's ``CheckSpec`` (name, anchor, regime, default tolerance) into
``REGISTRY``; the spec's ``run(rng, params, tol)`` folds the yielded
outcomes with ``_fold``, the one rule that combines them: the check
passes while every outcome passes and stops drawing at the first that
fails; it reports the worst residual and tail seen and the smallest
non-negative safe cutoff (-1 when there is none).  The cli module drives
the registry from scenario files; the test suite exercises it directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import charfn, contraction, dilation, hardy, submodules
from .contraction import BlaschkeProduct, mobius_series, mobius_tuple, tensor_tuple, validate_tuple
from .generators import controlled_contraction, random_moebius_point, random_probes, tuple_ensemble
from .hardy import enumerate_basis, kernel_vector, monomial_vector, parity_shift, shift
from .linops import operator_norm

__all__ = ["CheckOutcome", "CheckSpec", "GeneratorParams", "REGISTRY"]


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
        unknown = set(raw) - set(GeneratorParams.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown generator fields: {sorted(unknown)}")
        fixed = dict(raw)
        for name, value in raw.items():
            if name in ("radius_cap", "norm_cap"):
                number = isinstance(value, (int, float)) and not isinstance(value, bool)
                if not number or not 0 < value < 1:
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


@dataclass(frozen=True)
class CheckSpec:
    name: str
    anchor: str
    regime: str  # matrix | hardy | mixed
    run: object  # run(rng, params, tol) -> CheckOutcome
    default_tol: float


REGISTRY: dict[str, CheckSpec] = {}


def _fold(outcomes) -> CheckOutcome:
    """Combine per-instance outcomes, stopping at the first failure."""
    worst, tail, cutoff = 0.0, 0.0, -1
    for o in outcomes:
        # np.maximum, unlike max, keeps a NaN residual visible
        worst = float(np.maximum(worst, o.residual))
        tail = float(np.maximum(tail, o.tail_bound))
        if o.safe_cutoff >= 0:
            cutoff = o.safe_cutoff if cutoff < 0 else min(cutoff, o.safe_cutoff)
        if not o.passed:
            return CheckOutcome(False, worst, tail, cutoff)
    return CheckOutcome(True, worst, tail, cutoff)


def _check(name: str, regime: str, default_tol: float, anchor: str):
    """Register an outcome generator as the check ``name``."""

    def register(outcomes):
        def run(rng, p: GeneratorParams, tol: float) -> CheckOutcome:
            return _fold(outcomes(rng, p, tol))

        REGISTRY[name] = CheckSpec(name, anchor, regime, run, default_tol)
        return outcomes

    return register


def _within(residual: float, tol: float, tail: float = 0.0, cutoff: int = -1) -> CheckOutcome:
    return CheckOutcome(residual <= tol, residual, tail, cutoff)


def _select_degree(t: contraction.ContractionTuple, target: float, cap: int) -> int:
    radius = max(contraction.spectral_radius_bound(c) for c in t.components)
    return min(dilation.choose_truncation_degree(radius, t.space_dim, target), cap)


@_check("tuple-validation", "matrix", 1e-10,
        "class membership: contraction margins, stability certificate, double commutation")
def _tuple_validation(rng, p: GeneratorParams, tol: float):
    for t in tuple_ensemble(rng, p.instances, p.radius_cap, p.norm_cap):
        rep = validate_tuple(t, tol)
        yield CheckOutcome(rep.passed, max(rep.max_commutator, rep.max_cross_commutator))


@_check("norm-identity", "matrix", 1e-7, "defect-orbit norm identity for the adjoint tuple")
def _norm_identity(rng, p: GeneratorParams, tol: float):
    for t in tuple_ensemble(rng, p.instances, p.radius_cap, p.norm_cap):
        d = _select_degree(t, tol / 10.0, p.truncation_degree * 4)
        probes = random_probes(rng, t.space_dim, p.probes)
        _, residual = dilation.norm_identity(t, probes, d)
        yield _within(float(np.max(np.abs(residual))), tol, tol / 10.0)


def _dilation_reports(rng, p: GeneratorParams, tol: float):
    for t in tuple_ensemble(rng, p.instances, p.radius_cap, p.norm_cap):
        model = dilation.embedding_for_tolerance(t, tol / 10.0, order_cap=p.order_cap)
        yield dilation.verify_dilation(model, p.order_cap, tol)


@_check("dilation-compress", "matrix", 1e-8, "isometric dilation compresses to tuple powers")
def _dilation_compress(rng, p: GeneratorParams, tol: float):
    for rep in _dilation_reports(rng, p, tol):
        yield _within(rep.residual_dilation, tol, rep.tail_bound)


@_check("dilation-regularity", "matrix", 1e-8,
        "regular dilation: disjointly supported power compressions")
def _dilation_regularity(rng, p: GeneratorParams, tol: float):
    for rep in _dilation_reports(rng, p, tol):
        yield _within(rep.residual_regularity, tol, rep.tail_bound)


@_check("dilation-minimality", "matrix", 1e-8,
        "shift orbit of the embedded space spans the safe truncation")
def _dilation_minimality(rng, p: GeneratorParams, tol: float):
    for rep in _dilation_reports(rng, p, tol):
        missing = rep.minimality_expected - rep.minimality_rank
        yield CheckOutcome(missing == 0, float(missing))


@_check("mobius-involution", "matrix", 1e-10,
        "disk-automorphism calculus is involutive and class preserving")
def _mobius_involution(rng, p: GeneratorParams, tol: float):
    for t in tuple_ensemble(rng, p.instances, p.radius_cap, p.norm_cap):
        lam = random_moebius_point(rng, t.num_components)
        s = mobius_tuple(t, lam)
        if not validate_tuple(s).passed:
            yield CheckOutcome(False, float("inf"))
            return
        back = mobius_tuple(s, lam)
        for c0, c1 in zip(t.components, back.components):
            yield _within(operator_norm(c1 - c0), tol)


@_check("defect-transfer", "mixed", 1e-6,
        "adjoint defect norms transfer through the isometric coextension")
def _defect_transfer(rng, p: GeneratorParams, tol: float):
    for t in tuple_ensemble(rng, p.instances, p.radius_cap, p.norm_cap):
        d = max(_select_degree(t, 1e-10, p.truncation_degree * 4), 20)
        model = dilation.canonical_embedding(t, d)
        lam = random_moebius_point(rng, t.num_components)
        probes = random_probes(rng, t.space_dim, p.probes)
        direct, via_model, bound = dilation.defect_transfer_check(model, lam, probes)
        for gap, b in zip(np.abs(direct - via_model), bound):
            yield _within(float(gap), float(b), float(b))


@_check("defect-span", "matrix", 1e-9, "Moebius-shifted adjoint defects span the space over a grid")
def _defect_span(rng, p: GeneratorParams, tol: float):
    for t in tuple_ensemble(rng, p.instances, p.radius_cap, p.norm_cap):
        grid = dilation.default_moebius_grid(t.num_components)
        rank, complete = dilation.defect_span_completeness(t, grid)
        yield CheckOutcome(complete, float(t.space_dim - rank))


@_check("pseudometric", "matrix", 1e-12,
        "equivalence pseudometric symmetry and vanishing on the diagonal")
def _pseudometric(rng, p: GeneratorParams, tol: float):
    for _ in range(p.instances):
        pts = [random_moebius_point(rng, p.num_vars, 0.8) for _ in range(3)]
        d01 = dilation.equivalence_pseudometric(pts[0], pts[1])
        d10 = dilation.equivalence_pseudometric(pts[1], pts[0])
        yield _within(abs(d01 - d10), tol)
        yield _within(dilation.equivalence_pseudometric(pts[0], pts[0]), tol)


def _random_charfn(rng, p: GeneratorParams) -> charfn.CharFn:
    dim = int(rng.integers(1, max(p.dims) + 1))
    return charfn.charfn_build(controlled_contraction(rng, dim, p.radius_cap, p.norm_cap))


@_check("charfn-kernel-identity", "matrix", 1e-10,
        "defect kernel factorization of the characteristic function")
def _charfn_kernel_identity(rng, p: GeneratorParams, tol: float):
    for _ in range(p.instances):
        cf = _random_charfn(rng, p)
        for _ in range(20):
            pa = 0.85 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            pb = 0.85 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            yield _within(charfn.kernel_identity_residual(cf, pa, pb), tol)


@_check("charfn-boundary", "matrix", 1e-8, "boundary unitarity of the characteristic function")
def _charfn_boundary(rng, p: GeneratorParams, tol: float):
    for _ in range(p.instances):
        yield _within(charfn.boundary_unitarity(_random_charfn(rng, p)), tol)


def _model_scalar(rng, p: GeneratorParams, dim: int = 1):
    return controlled_contraction(rng, dim, min(p.radius_cap, 0.55), 0.75)


@_check("projection-identity", "mixed", 1e-6, "embedding projector complements the symbol product")
def _projection_identity(rng, p: GeneratorParams, tol: float):
    for dim in (1, 2):
        a = _model_scalar(rng, p, dim)
        residual, cutoff = charfn.projection_identity_residual(a, p.truncation_degree, tol)
        yield _within(residual, tol, 0.0, cutoff)


@_check("quotient-model", "mixed", 1e-6, "analytic model complement equals the joint symbol range")
def _quotient_model(rng, p: GeneratorParams, tol: float):
    single = contraction.ContractionTuple((_model_scalar(rng, p),))
    pair = tensor_tuple([_model_scalar(rng, p) for _ in range(2)])
    for t in (single, pair):
        rep = charfn.quotient_model_check(t, p.truncation_degree, tol)
        yield _within(rep.distance, tol, max(rep.symbol_tails, default=0.0), rep.safe_cutoff)


@_check("kernel-reproduction", "hardy", 1e-12,
        "truncated kernels reproduce polynomial point values")
def _kernel_reproduction(rng, p: GeneratorParams, tol: float):
    b = enumerate_basis(p.num_vars, p.truncation_degree, p.coeff_dim)
    for _ in range(p.instances):
        coeffs = rng.standard_normal(b.size) + 1j * rng.standard_normal(b.size)
        f = hardy.HardyVector(b, coeffs / np.linalg.norm(coeffs))
        lam = random_moebius_point(rng, p.num_vars, 0.6)
        for x in np.eye(p.coeff_dim, dtype=complex):
            inner = np.vdot(kernel_vector(lam, b, x).coefficients, f.coefficients)
            yield _within(abs(inner - np.vdot(x, hardy.evaluate(f, lam))), tol)


@_check("kernel-eigenrelation", "hardy", 1e-12,
        "adjoint shifts scale truncated kernels by conjugate coordinates")
def _kernel_eigenrelation(rng, p: GeneratorParams, tol: float):
    b = enumerate_basis(p.num_vars, p.truncation_degree, 1)
    low = b.degree_selector(b.max_degree - 1)
    for _ in range(p.instances):
        lam = random_moebius_point(rng, p.num_vars, 0.6)
        kv = kernel_vector(lam, b)
        for k in range(1, p.num_vars + 1):
            got = shift(k, b).apply_adjoint(kv).coefficients
            want = np.conj(lam.coord(k - 1)) * (kv.coefficients * low)
            yield _within(float(np.linalg.norm(got - want)), tol, 0.0, b.max_degree - 1)


@_check("parity-family", "hardy", 1e-12,
        "parity isometries: square identity, isometry, joint defect collapse")
def _parity_family(rng, p: GeneratorParams, tol: float):
    n = min(p.num_vars, 4)
    d = max(p.truncation_degree, 6)
    b = enumerate_basis(n, d, 1)
    ops = [parity_shift(k, b) for k in range(1, n + 1)]
    # square identity on inputs whose transient degree stays inside
    sel = np.nonzero(b.degree_selector(d - 3))[0]
    for k in range(1, n + 1):
        v = ops[k - 1]
        m = shift(k, b)
        diff = (v.compose(v).matrix - m.compose(m).matrix)[:, sel]
        yield _within(operator_norm(diff), tol, 0.0, d - 3)
        rep = hardy.is_inner_on_truncation(v, tol)
        yield CheckOutcome(rep.passed, rep.residual, 0.0, d - 3)
    # joint defect kills every monomial of degree below n
    for alpha in b.exponents[b.degrees < min(n, d)]:
        vvec = monomial_vector(b, alpha).coefficients
        for op in ops:
            vvec = vvec - op.matrix @ (op.matrix.conj().T @ vvec)
        yield _within(float(np.linalg.norm(vvec)), tol, 0.0, d - 3)


@_check("power-search", "hardy", 1e-12,
        "adjoint-orbit power selection with verified defect lower bound")
def _power_search(rng, p: GeneratorParams, tol: float):
    d = max(p.truncation_degree, 10)
    for eps in (0.1, 0.01):
        b1 = enumerate_basis(1, d, 1)
        res = dilation.power_search([shift(1, b1)], [monomial_vector(b1, (0,))], eps)
        yield CheckOutcome(res.passed, 0.0 if res.passed else 1.0)
        bn = enumerate_basis(min(p.num_vars, 3), d, 1)
        ops = [parity_shift(k, bn) for k in range(1, bn.num_vars + 1)]
        res = dilation.power_search(ops, [monomial_vector(bn, (0,) * bn.num_vars)], eps)
        yield CheckOutcome(res.passed, 1.0 - min(res.lower_bounds) if res.passed else 1.0)


@_check("beurling-extraction", "hardy", 1e-7,
        "wandering generator recovery for inner-generated sections")
def _beurling_extraction(rng, p: GeneratorParams, tol: float):
    d = max(p.truncation_degree, 30)
    fixtures = [
        {1: BlaschkeProduct(1.0, (0.45,))},
        {1: BlaschkeProduct(np.exp(0.7j), (0.4, -0.25, 0.3j))},
        {1: BlaschkeProduct(1.0, (0.45,)), 2: BlaschkeProduct(1.0, (-0.35,))},
    ]
    for hint in fixtures:
        b = enumerate_basis(max(2, max(hint)), d, 1)
        op = submodules.inner_symbol_operator(hint, b)
        handle = submodules.submodule_from_inner(op, 1e-6, hint=hint, input_cutoff=9)
        res = submodules.wandering_generator_extract(handle)
        yield _within(res.max_deviation, tol, 0.0, 9)


@_check("double-commutation-counterexample", "hardy", 1e-10,
        "two-generator section fails double commutation")
def _double_commutation_counterexample(rng, p: GeneratorParams, tol: float):
    b = enumerate_basis(2, max(p.truncation_degree, 4), 1)
    gens = [monomial_vector(b, (1, 0)), monomial_vector(b, (0, 1))]
    handle = submodules.submodule_from_generators(gens, b, cutoff=b.max_degree - 1)
    rep = submodules.restriction_double_commutation(handle, tol)
    yield CheckOutcome(rep.max_cross_commutator >= 0.1, rep.max_cross_commutator)


def _tensor_quotient(p: GeneratorParams, d: int, zeros: list) -> submodules.QuotientHandle:
    """Tensor quotient over min(num_vars, 2) variables, one Blaschke factor each."""
    b = enumerate_basis(min(p.num_vars, 2), d, 1)
    inner = [BlaschkeProduct(1.0, z) for z in zeros][: b.num_vars]
    return submodules.quotient_tensor_build(inner, b)


@_check("jordan-quotient", "hardy", 1e-10,
        "tensor quotient compressions are Jordan blocks tensor identity")
def _jordan_quotient(rng, p: GeneratorParams, tol: float):
    handle = _tensor_quotient(p, max(p.truncation_degree, 12), [(0.0, 0.0), (0.45,)])
    for k in range(1, handle.basis.num_vars + 1):
        want = submodules.expected_tensor_compression(handle, k)
        residual = operator_norm(handle.compressions[k - 1] - want)
        yield _within(residual, tol, 0.0, handle.safe_degree)
    rep = submodules.compression_double_commutation(handle, tol)
    residual = max(rep.max_cross_commutator, rep.max_commutator)
    yield _within(residual, tol, 0.0, handle.safe_degree)


@_check("kernel-fixed-point", "hardy", 1e-10,
        "kernels are fixed by Moebius-shifted multiplier defect products")
def _kernel_fixed_point(rng, p: GeneratorParams, tol: float):
    d = max(p.truncation_degree, 24)
    b = enumerate_basis(1, d, 1)
    for eta, lam in (
        (BlaschkeProduct(1.0, (0.0,)), (0.5,)),
        (BlaschkeProduct(1.0, (0.3,)), (0.5,)),
        (BlaschkeProduct(1.0, (0.0, 0.0)), (0.4,)),
    ):
        residual, tail = submodules.kernel_fixed_point_residual([eta], lam, b)
        yield CheckOutcome(residual <= 10.0 * tail + tol, residual, tail, d)


@_check("projector-product", "hardy", 1e-10,
        "projection of monomials factorizes over tensor quotients")
def _projector_product(rng, p: GeneratorParams, tol: float):
    handle = _tensor_quotient(p, max(p.truncation_degree, 14), [(0.45,), (0.0, 0.0)])
    n = handle.basis.num_vars
    exps = [(0,) * n, (1,) + (0,) * (n - 1)]
    if n >= 2:
        exps.append((1, 1))
    for alpha in exps:
        _, _, dist = submodules.projector_product_check(handle, alpha)
        yield _within(dist, tol, 0.0, handle.safe_degree)


@_check("partial-product-cauchy", "hardy", 1e-10,
        "closed-form Cauchy increments of Moebius partial products (plumbing oracle)")
def _partial_product_cauchy(rng, p: GeneratorParams, tol: float):
    d = max(p.truncation_degree, 30)
    for _ in range(p.instances):
        lams = [0.6 * rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform()) for _ in range(2)]
        b = enumerate_basis(2, d, 1)
        f = monomial_vector(b, (0, 0))
        for i, a in enumerate(lams):
            f = hardy.one_variable_symbol(i + 1, mobius_series(a, d), b).apply(f)
        diff = f.coefficients - monomial_vector(b, (0, 0)).coefficients
        _, closed = hardy.mobius_partial_product(lams, 0, 2)
        yield _within(abs(float(np.vdot(diff, diff).real) - closed), tol)
