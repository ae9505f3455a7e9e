"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import time

import numpy as np

from hardymodel.charfn import (
    boundary_unitarity,
    charfn_build,
    kernel_identity_residual,
    projection_identity_residual,
    quotient_model_check,
)
from hardymodel.contraction import (
    BlaschkeProduct,
    ContractionTuple,
    mobius_tuple,
    tensor_tuple,
    validate_tuple,
)
from hardymodel.dilation import (
    choose_truncation_degree,
    default_moebius_grid,
    defect_span_completeness,
    defect_transfer_check,
    embedding_for_tolerance,
    norm_identity,
    power_search,
    verify_dilation,
)
from hardymodel.generators import (
    controlled_contraction,
    random_moebius_point,
    random_probes,
    tuple_ensemble,
)
from hardymodel.hardy import (
    enumerate_basis,
    evaluate,
    kernel_vector,
    monomial_vector,
    parity_shift,
    shift,
)
from hardymodel.linops import operator_norm
from hardymodel.submodules import (
    compression_double_commutation,
    expected_tensor_compression,
    inner_symbol_operator,
    projector_product_check,
    quotient_tensor_build,
    restriction_double_commutation,
    submodule_from_generators,
    submodule_from_inner,
    wandering_generator_extract,
)


def report(criterion: str, passed: bool, detail: str):
    marker = "PASS" if passed else "FAIL"
    print(f"[{marker}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_norm_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for t in tuple_ensemble(rng, 50, radius_cap=0.75, norm_cap=0.8):
        rep = validate_tuple(t)
        radius = max(rep.radius_estimates)
        assert radius <= 0.8
        d = choose_truncation_degree(radius, t.space_dim, 1e-9)
        probes = random_probes(rng, t.space_dim, 3)
        _, residual = norm_identity(t, probes, d)
        while float(np.max(np.abs(residual))) > 1e-8 and d < 200:
            d += 8
            _, residual = norm_identity(t, probes, d)
        worst = max(worst, float(np.max(np.abs(residual))))
    elapsed = time.perf_counter() - started
    report(
        "criterion 1 (norm identity, 50 tuples x 3 probes)",
        worst <= 1e-7 and elapsed < 60.0,
        f"worst residual {worst:.3e} (tol 1e-7), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_dilation_and_regularity():
    rng = np.random.default_rng(101)  # same ensemble as criterion 1
    worst_dil = 0.0
    worst_reg = 0.0
    minimal_ok = True
    for t in tuple_ensemble(rng, 50, radius_cap=0.75, norm_cap=0.8):
        model = embedding_for_tolerance(t, 1e-9, order_cap=4)
        rep = verify_dilation(model, order_cap=4, tol=1e-8)
        worst_dil = max(worst_dil, rep.residual_dilation)
        worst_reg = max(worst_reg, rep.residual_regularity)
        minimal_ok = minimal_ok and rep.minimality_ok
    report(
        "criterion 2 (dilation + regularity, |alpha|+|beta| <= 4)",
        worst_dil <= 1e-8 and worst_reg <= 1e-8 and minimal_ok,
        f"dilation {worst_dil:.3e}, regularity {worst_reg:.3e} (tol 1e-8), minimality {minimal_ok}",
    )


def test_criterion_03_mobius_involution():
    rng = np.random.default_rng(303)
    worst = 0.0
    all_valid = True
    for t in tuple_ensemble(rng, 100, radius_cap=0.7, norm_cap=0.8):
        lam = random_moebius_point(rng, t.num_components, radius=0.45)
        s = mobius_tuple(t, lam)
        all_valid = all_valid and validate_tuple(s).passed
        back = mobius_tuple(s, lam)
        for c0, c1 in zip(t.components, back.components):
            worst = max(worst, operator_norm(c1 - c0))
    report(
        "criterion 3 (Moebius involution + class preservation, 100 instances)",
        worst <= 1e-10 and all_valid,
        f"worst involution residual {worst:.3e} (tol 1e-10), all transformed tuples valid: {all_valid}",
    )


def test_criterion_04_defect_transfer():
    rng = np.random.default_rng(404)
    worst_excess = -np.inf
    count = 0
    for t in tuple_ensemble(rng, 50, radius_cap=0.6, norm_cap=0.8):
        model = embedding_for_tolerance(t, 1e-10)
        lam = random_moebius_point(rng, t.num_components, radius=0.45)
        x = random_probes(rng, t.space_dim, 1)[:, 0]
        direct, via_model, bound = defect_transfer_check(model, lam, x)
        worst_excess = max(worst_excess, abs(direct - via_model) - bound)
        count += 1
    report(
        "criterion 4 (defect-norm transfer through the dilation, 50 instances)",
        worst_excess <= 0.0,
        f"worst |direct - model| minus reported bound: {worst_excess:.3e} (must be <= 0)",
    )


def test_criterion_05_characteristic_function():
    rng = np.random.default_rng(505)
    worst_pair = 0.0
    worst_boundary = 0.0
    for i in range(25):
        dim = 1 + i % 4
        a = controlled_contraction(rng, dim, radius=0.6, norm_cap=0.85)
        cf = charfn_build(a)
        for _ in range(20):
            pa = 0.85 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            pb = 0.85 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            worst_pair = max(worst_pair, kernel_identity_residual(cf, pa, pb))
        worst_boundary = max(worst_boundary, boundary_unitarity(cf))
    worst_proj = 0.0
    for dim in (1, 2):
        a = controlled_contraction(rng, dim, radius=0.5, norm_cap=0.7)
        residual, _ = projection_identity_residual(a, 40, 1e-6)
        worst_proj = max(worst_proj, residual)
    ok = worst_pair <= 1e-10 and worst_boundary <= 1e-8 and worst_proj <= 1e-6
    report(
        "criterion 5 (characteristic function identities, 25 instances)",
        ok,
        f"interior {worst_pair:.3e} (1e-10), boundary {worst_boundary:.3e} (1e-8), "
        f"projection {worst_proj:.3e} (1e-6)",
    )


def test_criterion_06_quotient_model():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    single = ContractionTuple((controlled_contraction(rng, 1, radius=0.5, norm_cap=0.7),))
    pair = tensor_tuple(
        [controlled_contraction(rng, 1, radius=0.5, norm_cap=0.7) for _ in range(2)]
    )
    for t in (single, pair):
        rep = quotient_model_check(t, 40, 1e-6)
        worst = max(worst, rep.distance)
    elapsed = time.perf_counter() - started
    report(
        "criterion 6 (quotient model complement at degree 40)",
        worst <= 1e-6 and elapsed < 30.0,
        f"worst distance {worst:.3e} (tol 1e-6), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_07_parity_family():
    n, d = 4, 6
    b = enumerate_basis(n, d, 1)
    ops = [parity_shift(k, b) for k in range(1, n + 1)]
    worst = 0.0
    sel = np.nonzero(b.degree_selector(d - 3))[0]
    for k in range(1, n + 1):
        v, m = ops[k - 1], shift(k, b)
        diff = v.compose(v).dense()[:, sel] - m.compose(m).dense()[:, sel]
        worst = max(worst, operator_norm(diff))
        gram_sel = np.nonzero(b.degree_selector(d - 3))[0]
        cols = v.dense()[:, gram_sel]
        worst = max(
            worst, operator_norm(cols.conj().T @ cols - np.eye(gram_sel.size))
        )
    worst_defect = 0.0
    for alpha in b.exponents[b.degrees < n]:
        vec = monomial_vector(b, alpha).coefficients
        for op in ops:
            m = op.matrix
            vec = vec - m @ (m.conj().T @ vec)
        worst_defect = max(worst_defect, float(np.linalg.norm(vec)))
    ok = worst <= 1e-12 and worst_defect <= 1e-12
    report(
        "criterion 7 (parity family at n=4, d=6)",
        ok,
        f"square/isometry residual {worst:.3e}, joint-defect collapse {worst_defect:.3e} (tol 1e-12)",
    )


def test_criterion_08_beurling_extraction():
    d = 30
    worst = 0.0
    fixtures = [
        ({1: BlaschkeProduct(1.0, (0.45,))}, 1),
        ({1: BlaschkeProduct(1.0, (0.0, 0.0))}, 1),
        ({1: BlaschkeProduct(np.exp(0.7j), (0.4, -0.25, 0.3j))}, 1),
        ({1: BlaschkeProduct(1.0, (0.45,)), 2: BlaschkeProduct(1.0, (-0.35,))}, 2),
        ({2: BlaschkeProduct(1.0, (0.3j, 0.2))}, 2),
    ]
    for hint, nvars in fixtures:
        b = enumerate_basis(max(nvars, max(hint)), d, 1)
        op = inner_symbol_operator(hint, b)
        handle = submodule_from_inner(op, 1e-6, hint=hint, input_cutoff=9)
        res = wandering_generator_extract(handle)
        worst = max(worst, res.max_deviation)
    bfix = enumerate_basis(2, 8, 1)
    gens = [monomial_vector(bfix, (1, 0)), monomial_vector(bfix, (0, 1))]
    bad = submodule_from_generators(gens, bfix, cutoff=7)
    rep = restriction_double_commutation(bad, 1e-10)
    ok = worst <= 1e-7 and rep.max_cross_commutator >= 0.1
    report(
        "criterion 8 (generator extraction at degree 30 + counterexample)",
        ok,
        f"worst grid deviation {worst:.3e} (tol 1e-7), "
        f"counterexample cross-commutator {rep.max_cross_commutator:.3f} (>= 0.1)",
    )


def test_criterion_09_jordan_tensor_quotients():
    b = enumerate_basis(2, 14, 1)
    inner = [BlaschkeProduct(1.0, (0.0, 0.0)), BlaschkeProduct(1.0, (0.45,))]
    handle = quotient_tensor_build(inner, b)
    worst_jordan = 0.0
    for k in (1, 2):
        want = expected_tensor_compression(handle, k)
        worst_jordan = max(
            worst_jordan, operator_norm(handle.compressions[k - 1] - want)
        )
    rep = compression_double_commutation(handle, 1e-10)
    worst_proj = 0.0
    for alpha in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        _, _, dist = projector_product_check(handle, alpha)
        worst_proj = max(worst_proj, dist)
    ok = (
        rep.max_cross_commutator <= 1e-10
        and rep.max_commutator <= 1e-10
        and worst_jordan <= 1e-10
        and worst_proj <= 1e-10
    )
    report(
        "criterion 9 (Jordan tensor quotients)",
        ok,
        f"cross-commutator {rep.max_cross_commutator:.3e}, Jordan structure {worst_jordan:.3e}, "
        f"projector product {worst_proj:.3e} (all tol 1e-10)",
    )


def test_criterion_10_power_search():
    d = 12
    ok = True
    details = []
    for eps in (0.1, 0.01):
        b1 = enumerate_basis(1, d, 1)
        shift_probe = monomial_vector(b1, (0,))
        res1 = power_search([shift(1, b1)], [shift_probe], eps)
        b3 = enumerate_basis(3, d, 1)
        probes = [monomial_vector(b3, (0, 0, 0))]
        res2 = power_search([parity_shift(k, b3) for k in (1, 2, 3)], probes, eps)
        ok = ok and res1.passed and res2.passed
        details.append(
            f"eps={eps}: shift k={res1.exponents}, parity k={res2.exponents}, "
            f"bounds >= {min(res1.lower_bounds + res2.lower_bounds):.4f}"
        )
    report(
        "criterion 10 (power search post-verification)", ok, "; ".join(details)
    )


def test_criterion_11_kernel_calculus():
    rng = np.random.default_rng(1111)
    d = 10
    b = enumerate_basis(2, d, 1)
    worst_rep = 0.0
    worst_eig = 0.0
    for _ in range(10):
        coeffs = rng.standard_normal(b.size) + 1j * rng.standard_normal(b.size)
        f = type(monomial_vector(b, (0, 0)))(b, coeffs / np.linalg.norm(coeffs))
        lam = random_moebius_point(rng, 2, radius=0.6)
        kv = kernel_vector(lam, b)
        inner = np.vdot(kv.coefficients, f.coefficients)
        want = evaluate(f, lam)[0]
        worst_rep = max(worst_rep, abs(inner - want))
        low = b.degree_selector(d - 1)
        for k in (1, 2):
            got = shift(k, b).apply_adjoint(kv).coefficients
            expect = np.conj(lam.coord(k - 1)) * (kv.coefficients * low)
            worst_eig = max(worst_eig, float(np.linalg.norm(got - expect)))
    complete_all = True
    rng2 = np.random.default_rng(1112)
    for t in tuple_ensemble(rng2, 10, radius_cap=0.7, norm_cap=0.8):
        grid = default_moebius_grid(t.num_components)
        _, complete = defect_span_completeness(t, grid)
        complete_all = complete_all and complete
    ok = worst_rep <= 1e-12 and worst_eig <= 1e-12 and complete_all
    report(
        "criterion 11 (kernel calculus + defect-span completeness)",
        ok,
        f"reproduction {worst_rep:.3e}, eigen-relation {worst_eig:.3e} (tol 1e-12), "
        f"grid completeness {complete_all}",
    )
