import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from hardymodel import charfn
from hardymodel.charfn import (
    _component_symbol,
    _symbol_model,
    boundary_unitarity,
    charfn_build,
    charfn_eval,
    kernel_identity_residual,
    poly_truncate,
    projection_identity_residual,
    quotient_model_check,
)
from _references import mobius_scalar, poly_truncate_loop

from hardymodel import contraction, dilation
from hardymodel.contraction import ContractionTuple, tensor_tuple
from hardymodel.dilation import canonical_embedding, verify_dilation
from hardymodel.errors import DimensionMismatch, NotInClass, UnsafeDegree
from hardymodel.generators import controlled_contraction
from hardymodel.hardy import enumerate_basis, one_variable_symbol
from hardymodel.linops import adjoint, operator_norm, orthonormalize


def strict_contraction(rng, dim, radius=0.6, norm_cap=0.85):
    eigs = radius * rng.uniform(0.3, 1.0, dim) * np.exp(2j * np.pi * rng.uniform(size=dim))
    v = np.eye(dim) + 0.25 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    a = v @ np.diag(eigs) @ np.linalg.inv(v)
    nrm = operator_norm(a)
    if nrm > norm_cap:
        a = a * (norm_cap / nrm)
    return a


def rotated_jordan(rng, m):
    """U J U* for the m x m nilpotent Jordan block J and a random unitary U;
    I - J*J and I - JJ* are rank-one projections."""
    u = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
    return u @ np.diag(np.ones(m - 1), 1) @ adjoint(u)


class TestRotatedJordan:
    """Round-off in the defects of a rotated Jordan block is not rank."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", range(5))
    def test_defects_have_rank_one(self, seed, m):
        cf = charfn_build(rotated_jordan(np.random.default_rng(seed), m))
        assert (cf.dim_in, cf.dim_out) == (1, 1)
        assert boundary_unitarity(cf) <= 1e-12
        for a, b in ((0.3, -0.5j), (0.0, 0.7), (-0.6 + 0.2j, 0.45)):
            assert kernel_identity_residual(cf, a, b) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_dilation_is_minimal_over_one_coefficient(self, seed):
        t = ContractionTuple((rotated_jordan(np.random.default_rng(seed), 3),))
        model = canonical_embedding(t, 12)
        assert model.defect_dim == 1
        rep = verify_dilation(model, 3, 1e-8)
        assert (rep.minimality_rank, rep.minimality_expected) == (4, 4)
        assert rep.passed


class TestBuildAndEval:
    def test_zero_contraction(self):
        cf = charfn_build(np.zeros((3, 3)))
        assert cf.dim_in == cf.dim_out == 3
        for z in (0.3, -0.5j, 0.2 + 0.6j):
            np.testing.assert_allclose(charfn_eval(cf, z), z * np.eye(3), atol=1e-13)

    def test_unitary_gives_empty_function(self):
        rng = np.random.default_rng(0)
        q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        cf = charfn_build(q)
        assert cf.dim_in == cf.dim_out == 0
        assert charfn_eval(cf, 0.5).shape == (0, 0)
        cf2 = charfn_build(0.999 * q)
        assert cf2.dim_in == cf2.dim_out == 3  # scaled unitary has full defect

    def test_scalar_defects_full(self):
        cf = charfn_build(np.array([[0.5]]))
        assert cf.dim_in == cf.dim_out == 1

    def test_eval_at_zero_is_minus_t_compressed(self):
        rng = np.random.default_rng(1)
        a = strict_contraction(rng, 3)
        cf = charfn_build(a)
        want = adjoint(cf.defect_out.basis) @ (-a) @ cf.defect_in.basis
        np.testing.assert_allclose(charfn_eval(cf, 0.0), want, atol=1e-13)

    def test_scalar_matches_mobius_modulus(self):
        c = 0.5
        cf = charfn_build(np.array([[c]]))
        for z in (0.2, 0.7j, -0.4 + 0.3j):
            got = charfn_eval(cf, z)[0, 0]
            want = mobius_scalar(c, z)
            assert abs(abs(got) - abs(want)) <= 1e-12

    def test_contraction_on_closed_disk(self):
        rng = np.random.default_rng(2)
        a = strict_contraction(rng, 4)
        cf = charfn_build(a)
        for z in (0.0, 0.9, np.exp(1.3j), 0.5 - 0.5j):
            assert operator_norm(charfn_eval(cf, z)) <= 1.0 + 1e-8


    def test_library_errors(self):
        with pytest.raises(DimensionMismatch):
            charfn_build(np.array([[1.5]]))  # not a contraction
        with pytest.raises(NotInClass):
            charfn_build(np.diag([1.0, 0.5]))  # spectral radius 1, nontrivial defect


class TestKernelIdentity:
    def test_origin_pair(self):
        rng = np.random.default_rng(3)
        a = strict_contraction(rng, 3)
        cf = charfn_build(a)
        assert kernel_identity_residual(cf, 0.0, 0.0) <= 1e-12

    def test_zero_contraction_any_pair(self):
        cf = charfn_build(np.zeros((2, 2)))
        assert kernel_identity_residual(cf, 0.3 + 0.1j, -0.6j) <= 1e-14

    def test_seeded_random_pairs(self):
        rng = np.random.default_rng(4)
        a = strict_contraction(rng, 3)
        cf = charfn_build(a)
        for _ in range(20):
            pa = 0.85 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            pb = 0.85 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            assert kernel_identity_residual(cf, pa, pb) <= 1e-10

    def test_boundary_point_refused(self):
        cf = charfn_build(np.array([[0.5]]))
        with pytest.raises(DimensionMismatch):
            kernel_identity_residual(cf, 1.0, 0.2)


class TestBoundaryUnitarity:
    def test_zero(self):
        cf = charfn_build(np.zeros((2, 2)))
        assert boundary_unitarity(cf) <= 1e-13

    def test_scalar_blaschke_modulus(self):
        cf = charfn_build(np.array([[0.5]]))
        assert boundary_unitarity(cf) <= 1e-12

    def test_seeded_strict(self):
        rng = np.random.default_rng(5)
        a = strict_contraction(rng, 4)
        cf = charfn_build(a)
        assert boundary_unitarity(cf) <= 1e-8


class TestPolyTruncate:
    def test_zero_is_exact_shift(self):
        cf = charfn_build(np.zeros((2, 2)))
        coeffs, tail = poly_truncate(cf, 1e-12)
        np.testing.assert_allclose(coeffs[0], np.zeros((2, 2)), atol=1e-14)
        np.testing.assert_allclose(coeffs[1], np.eye(2), atol=1e-14)
        assert tail <= 1e-12

    def test_nilpotent_terminates(self):
        n = np.array([[0.0, 0.5], [0.0, 0.0]])
        cf = charfn_build(n)
        coeffs, tail = poly_truncate(cf, 1e-12)
        assert len(coeffs) <= n.shape[0] + 2
        assert tail <= 1e-12

    def test_scalar_tail_certificate(self):
        cf = charfn_build(np.array([[0.5]]))
        coeffs, tail = poly_truncate(cf, 1e-10)
        assert tail < 1e-10
        # series values approximate direct evaluation within the tail
        for z in (0.4, -0.8j, np.exp(0.5j)):
            series = sum(c[0, 0] * z**k for k, c in enumerate(coeffs))
            assert abs(series - charfn_eval(cf, z)[0, 0]) <= tail + 1e-12

    def test_matrix_series_matches_eval(self):
        rng = np.random.default_rng(6)
        a = strict_contraction(rng, 3, radius=0.5)
        cf = charfn_build(a)
        coeffs, tail = poly_truncate(cf, 1e-11)
        z = 0.75 * np.exp(0.9j)
        series = sum(c * z**k for k, c in enumerate(coeffs))
        assert operator_norm(series - charfn_eval(cf, z)) <= tail + 1e-11


    @pytest.mark.parametrize("seed", [1, 19, 25])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_coefficients_match_the_unhoisted_loop(self, seed, dim):
        cf = charfn_build(controlled_contraction(np.random.default_rng(seed), dim, 0.55, 0.75))
        coeffs, _ = poly_truncate(cf, 1e-10)
        t, qi, qo = cf.t, cf.defect_in.basis, cf.defect_out.basis
        want = [adjoint(qo) @ (-t) @ qi]
        power = np.eye(dim, dtype=complex)
        while len(want) < len(coeffs):
            want.append(adjoint(qo) @ cf.d_out @ power @ cf.d_in @ qi)
            power = adjoint(t) @ power
        assert [c.tobytes() for c in coeffs] == [w.tobytes() for w in want]


def assert_same_series(cf, tol):
    got, want = poly_truncate(cf, tol), poly_truncate_loop(cf, tol)
    assert [c.tobytes() for c in got[0]] == [c.tobytes() for c in want[0]]
    assert got[1] == want[1]
    return got


class TestPolyTruncateEdgePaths:
    # the counted terms and the stacked powers against the term-by-term loop

    @pytest.mark.parametrize("a", [np.diag([0.5, 0.4], 1), np.array([[0.0, 0.5], [0.0, 0.0]])])
    def test_nilpotent_series_ends_with_a_zero_tail(self, a):
        coeffs, tail = assert_same_series(charfn_build(a), 1e-12)
        assert len(coeffs) == len(a) + 1 and tail == 0.0

    def test_tolerance_above_the_first_tail_keeps_the_constant_only(self):
        coeffs, tail = assert_same_series(charfn_build(np.array([[0.5]])), 10.0)
        assert len(coeffs) == 1 and 0.0 < tail < 10.0

    def test_term_cap_refuses_with_the_same_message(self):
        cf = charfn_build(np.array([[0.94]]))
        for build in (poly_truncate, poly_truncate_loop):
            with pytest.raises(UnsafeDegree, match="^characteristic-function tail does not certify$"):
                build(cf, 1e-200)

    def test_term_cap_refuses_before_any_power(self):
        # a 64 x 64 weighted cyclic shift with corner 0.9 needs more than
        # 4096 terms at 1e-10; the refusal must not form the 4096 powers
        a = np.roll(np.eye(64), 1, axis=0)
        a[0, -1] = 0.9
        cf = charfn_build(a)
        tracemalloc.start()
        try:
            with pytest.raises(UnsafeDegree, match="^characteristic-function tail does not certify$"):
                poly_truncate(cf, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20

    @pytest.mark.parametrize("seed", [2, 7])
    @pytest.mark.parametrize("dim", [1, 3, 5])
    def test_random_contractions(self, seed, dim):
        a = controlled_contraction(np.random.default_rng([seed, dim]), dim, 0.7, 0.85)
        for tol in (1e-4, 1e-13):
            assert_same_series(charfn_build(a), tol)

    def test_powers_are_filled_in_blocks(self):
        # a 64 x 64 weighted cyclic shift: T^64 = 0.01 I, rank-one defects,
        # 385 terms whose 64 x 64 powers would take 25 MB together
        size = 64
        a = np.roll(np.eye(size), 1, axis=0)
        a[0, -1] = 0.01
        cf = charfn_build(a)
        tracemalloc.start()
        try:
            coeffs, _ = poly_truncate(cf, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        powers_bytes = (len(coeffs) - 1) * size * size * 16
        assert len(coeffs) > 300 and peak < powers_bytes / 8
        assert_same_series(cf, 1e-10)


def counted(monkeypatch, module_names, name):
    """Count the calls of a package function through every listed module."""
    calls = []
    for module in module_names:
        inner = getattr(module, name)

        def wrapper(*args, _inner=inner):
            calls.append(name)
            return _inner(*args)

        monkeypatch.setattr(module, name, wrapper)
    return calls


class TestOneDefectBuildPerComponent:
    # the components' CharFns reuse what the model's class check and
    # adjoint defect already computed

    def test_single_contraction(self, monkeypatch):
        radii = counted(monkeypatch, (contraction, charfn), "spectral_radius_bound")
        ranges = counted(monkeypatch, (dilation, charfn), "defect_range")
        a = controlled_contraction(np.random.default_rng(3), 2, 0.55, 0.75)
        residual, _ = projection_identity_residual(a, 40, 1e-6)
        assert residual <= 1e-6
        assert len(radii) == 1 and len(ranges) == 2

    def test_quotient_model_pair(self, monkeypatch):
        radii = counted(monkeypatch, (contraction, charfn), "spectral_radius_bound")
        rng = np.random.default_rng(4)
        t = tensor_tuple([controlled_contraction(rng, 1, 0.55, 0.75) for _ in range(2)])
        assert quotient_model_check(t, 40, 1e-6).passed
        assert len(radii) == 2

    def test_direct_build_still_certifies(self, monkeypatch):
        radii = counted(monkeypatch, (contraction, charfn), "spectral_radius_bound")
        with pytest.raises(NotInClass):
            charfn_build(np.diag([1.0, 0.5]))
        assert len(radii) == 1

    @pytest.mark.parametrize("components", [1, 2])
    def test_symbols_equal_those_of_charfn_build(self, components):
        # a tensor pair's joint adjoint defect range is not a component's
        rng = np.random.default_rng(8)
        t = tensor_tuple([controlled_contraction(rng, 2, 0.55, 0.75) for _ in range(components)])
        model, _, symbols, _, _ = _symbol_model(t, 40, 1e-6)
        assert len(symbols) == components
        for k, (comp, w) in enumerate(zip(t.components, symbols), start=1):
            cf = charfn_build(comp)
            want = _component_symbol(cf, poly_truncate(cf, 1e-7)[0], k, model)
            assert w.shape == want.shape and (w != want).nnz == 0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_model_defect_range_is_the_components(self, dim):
        a = controlled_contraction(np.random.default_rng(dim), dim, 0.55, 0.75)
        q = canonical_embedding(ContractionTuple((a,)), 4).defect_basis.basis
        assert q.tobytes() == charfn_build(a).defect_out.basis.tobytes()


class TestProjectionIdentity:
    def test_scalar_zero(self):
        residual, cutoff = projection_identity_residual(np.array([[0.0]]), 10, 1e-8)
        assert residual <= 1e-12
        assert cutoff == 10 - 1 - 1

    def test_scalar_half_d40(self):
        residual, _ = projection_identity_residual(np.array([[0.5]]), 40, 1e-6)
        assert residual <= 1e-6

    def test_two_by_two_d40(self):
        rng = np.random.default_rng(8)
        a = strict_contraction(rng, 2, radius=0.5, norm_cap=0.75)
        residual, _ = projection_identity_residual(a, 40, 1e-6)
        assert residual <= 1e-6


class TestQuotientModel:
    def test_scalar_zero_shift_model(self):
        t = ContractionTuple((np.array([[0.0]]),))
        rep = quotient_model_check(t, 12, 1e-8)
        assert rep.distance <= 1e-10
        assert rep.passed

    def test_scalar_half_d40(self):
        t = ContractionTuple((np.array([[0.5]]),))
        rep = quotient_model_check(t, 40, 1e-6)
        assert rep.passed

    def test_tensor_pair_of_scalars(self):
        t = tensor_tuple([np.array([[0.5]]), np.array([[0.3 - 0.2j]])])
        rep = quotient_model_check(t, 40, 1e-6)
        assert rep.passed

    def test_unsafe_degree(self):
        t = ContractionTuple((np.array([[0.5]]),))
        with pytest.raises(UnsafeDegree):
            quotient_model_check(t, 3, 1e-6)

    def test_boundary_consistent_with_interior(self):
        # boundary unitarity and interior identity both certify on the
        # same instances
        rng = np.random.default_rng(9)
        a = strict_contraction(rng, 3)
        cf = charfn_build(a)
        interior = max(
            kernel_identity_residual(cf, 0.8 * np.exp(2j * np.pi * j / 8), 0.8 * np.exp(-2j * np.pi * j / 8))
            for j in range(8)
        )
        assert interior <= 1e-9
        assert boundary_unitarity(cf) <= 1e-8


def dense_quotient_distance(t, d, tol):
    """The projector form of the quotient-model distance, built N x N:
    ||(I - U U* - B B*)[S, S]|| with B an orthonormal range basis."""
    model = canonical_embedding(t, d)
    cols, degrees = [], []
    for k, comp in enumerate(t.components, start=1):
        cf = charfn_build(comp)
        coeffs, _ = poly_truncate(cf, tol / 10.0)
        degrees.append(len(coeffs) - 1)
        cols.append(_component_symbol(cf, coeffs, k, model).toarray())
    cutoff = d - max(degrees) - 1
    sel = np.nonzero(model.basis.degree_selector(cutoff))[0]
    u = model.normalized_embedding()
    b = orthonormalize(np.concatenate(cols, axis=1), rank_tol=1e-8).basis
    diff = np.eye(model.basis.size) - u @ adjoint(u) - b @ adjoint(b)
    return operator_norm(diff[np.ix_(sel, sel)]), cutoff


class TestComplementPrecision:
    @pytest.mark.parametrize("d", [28, 32])
    @pytest.mark.parametrize("seed", [1, 19, 25])
    def test_matches_dense_projector_form(self, seed, d):
        rng = np.random.default_rng(seed)
        single = ContractionTuple((controlled_contraction(rng, 1, 0.55, 0.75),))
        pair = tensor_tuple([controlled_contraction(rng, 1, 0.55, 0.75) for _ in range(2)])
        for t in (single, pair):
            rep = quotient_model_check(t, d, 1e-10)
            want, cutoff = dense_quotient_distance(t, d, 1e-10)
            assert rep.safe_cutoff == cutoff
            assert abs(rep.distance - want) <= 1e-13


def dense_product_distance(t, d, tol):
    """The product form of the quotient-model distance, built N x N:
    ||(prod_k (I - W_k W_k*) - U U*)[S, S]|| for the truncated symbols."""
    model = canonical_embedding(t, d)
    prod = np.eye(model.basis.size, dtype=complex)
    degrees = []
    for k, comp in enumerate(t.components, start=1):
        cf = charfn_build(comp)
        coeffs, _ = poly_truncate(cf, tol / 10.0)
        degrees.append(len(coeffs) - 1)
        w = _component_symbol(cf, coeffs, k, model).toarray()
        prod = prod @ (np.eye(model.basis.size) - w @ adjoint(w))
    cutoff = d - max(len(degrees) // 2, 1) * max(degrees) - 1
    sel = np.nonzero(model.basis.degree_selector(cutoff))[0]
    u = model.normalized_embedding()
    diff = prod - u @ adjoint(u)
    return operator_norm(diff[np.ix_(sel, sel)]), cutoff


def _model_instances(seed):
    rng = np.random.default_rng(seed)
    single = ContractionTuple((controlled_contraction(rng, 1, 0.55, 0.75),))
    pair = tensor_tuple([controlled_contraction(rng, 1, 0.55, 0.75) for _ in range(2)])
    return single, pair


class TestModelProduct:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("seed", [1, 19, 25])
    def test_one_component_is_the_projection_identity(self, seed, dim):
        a = controlled_contraction(np.random.default_rng(seed), dim, 0.55, 0.75)
        rep = quotient_model_check(ContractionTuple((a,)), 40, 1e-6)
        assert projection_identity_residual(a, 40, 1e-6) == (rep.distance, rep.safe_cutoff)

    @pytest.mark.parametrize("d", [24, 32])
    @pytest.mark.parametrize("seed", [1, 19, 25])
    def test_matches_dense_product_form(self, seed, d):
        for t in _model_instances(seed):
            rep = quotient_model_check(t, d, 1e-6)
            want, cutoff = dense_product_distance(t, d, 1e-6)
            assert rep.safe_cutoff == cutoff
            assert abs(rep.distance - want) <= 1e-13

    @pytest.mark.parametrize("components, d", [(3, 8), (4, 7)])
    def test_split_halves_match_dense_product_form(self, components, d):
        # the halves F_1 E_S and F_3 F_2 E_S (three symbols) or F_2 F_1 E_S
        # and F_3 F_4 E_S (four) against the N x N product F_1 ... F_K
        t = tensor_tuple([np.array([[v]]) for v in (0.02, -0.015, 0.01j, 0.018)[:components]])
        rep = quotient_model_check(t, d, 0.3)
        want, cutoff = dense_product_distance(t, d, 0.3)
        assert rep.safe_cutoff == cutoff
        assert rep.distance > 1e-2  # the dropped symbol terms show
        assert abs(rep.distance - want) <= 1e-13

    def test_foreign_embedding_fails(self, monkeypatch):
        # the embedding of a different contraction is not the model space
        t = ContractionTuple((np.array([[0.5]]),))
        other = ContractionTuple((np.array([[0.3]]),))
        monkeypatch.setattr(charfn, "canonical_embedding", lambda _t, d: canonical_embedding(other, d))
        rep = quotient_model_check(t, 40, 1e-6)
        assert rep.distance > 1e-2
        assert not rep.passed

    @pytest.mark.parametrize("components", [2, 3, 4])
    def test_safe_rows_see_no_truncation(self, components):
        # on the safe rows the product at degree d equals the product at
        # degree d + 8; four symbols need the cutoff d - 2 D - 1
        rng = np.random.default_rng(1)
        t = tensor_tuple([controlled_contraction(rng, 1, 0.55, 0.75) for _ in range(components)])

        def product_rows(d, cutoff):
            model, _, symbols, *_ = _symbol_model(t, d, 0.3)
            sel = np.nonzero(model.basis.degree_selector(cutoff))[0]
            cols = np.eye(model.basis.size, dtype=complex)[:, sel]
            for w in symbols:
                cols = cols - w @ (adjoint(w) @ cols)
            return cols[sel]

        _, cutoff, _, degrees, _ = _symbol_model(t, 11, 0.3)
        assert cutoff == 11 - max(components // 2, 1) * max(degrees) - 1 >= 0
        np.testing.assert_array_equal(product_rows(11, cutoff), product_rows(19, cutoff))


def symbol_through_component_basis(cf, coeffs, k, model):
    """The symbol built in the component's own defect coordinates, then
    moved into the model's by the Kronecker inclusion I (x) incl*."""
    n, d = model.tuple_.num_components, model.truncation_degree
    w = one_variable_symbol(k, coeffs, enumerate_basis(n, d, cf.dim_in), enumerate_basis(n, d, cf.dim_out))
    incl = adjoint(cf.defect_out.basis) @ model.defect_basis.basis
    proj = sp.kron(sp.identity(model.basis.num_monomials), sp.csr_matrix(adjoint(incl)), "csr")
    return proj @ w.matrix


class TestSymbolInModelCoordinates:
    @pytest.mark.parametrize(
        "t",
        [
            ContractionTuple((np.array([[0.5]]),)),
            ContractionTuple((controlled_contraction(np.random.default_rng(4), 2, 0.55, 0.75),)),
            tensor_tuple([controlled_contraction(np.random.default_rng(s), 2, 0.55, 0.75) for s in (5, 6)]),
        ],
        ids=["1x1", "2x2", "tensor-pair"],
    )
    def test_matches_the_kronecker_inclusion(self, t):
        model = canonical_embedding(t, 20)
        for k, comp in enumerate(t.components, start=1):
            cf = charfn_build(comp)
            coeffs, _ = poly_truncate(cf, 1e-3)
            mat = _component_symbol(cf, coeffs, k, model)
            want = symbol_through_component_basis(cf, coeffs, k, model)
            assert mat.shape == want.shape == (model.basis.size, model.basis.size // model.defect_dim * cf.dim_in)
            assert abs(mat - want).max() <= 1e-15

    @pytest.mark.parametrize("dims", [(1,), (2,), (2, 2), (3, 2)])
    def test_batched_inclusion_matches_per_coefficient_products(self, dims):
        # one product over the stacked coefficients takes each one's
        # operands in the same order, so no entry may move
        t = tensor_tuple([controlled_contraction(np.random.default_rng(len(dims)), m, 0.55, 0.75) for m in dims])
        model = canonical_embedding(t, 30)
        for k, comp in enumerate(t.components, start=1):
            cf = charfn_build(comp)
            coeffs, _ = poly_truncate(cf, 1e-3)
            incl = adjoint(cf.defect_out.basis) @ model.defect_basis.basis
            basis_in = enumerate_basis(t.num_components, 30, cf.dim_in)
            want = one_variable_symbol(k, [adjoint(incl) @ c for c in coeffs], basis_in, model.basis).matrix
            got = _component_symbol(cf, coeffs, k, model)
            assert got.data.tobytes() == want.data.tobytes()
            assert np.array_equal(got.indices, want.indices) and np.array_equal(got.indptr, want.indptr)
