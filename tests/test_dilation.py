from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from _references import (
    block,
    dilation_residuals,
    gram_levels_per_level,
    minimality_rank_svd,
    moebius_grid,
)

from hardymodel import dilation
from hardymodel.checks import REGISTRY, GeneratorParams
from hardymodel.contraction import (
    ContractionTuple,
    MoebiusPoint,
    joint_defect,
    mobius,
    tensor_tuple,
    validate_tuple,
)
from hardymodel.dilation import (
    _disjoint_power_pairs,
    _level_plan,
    _orbit_levels,
    canonical_embedding,
    choose_truncation_degree,
    default_moebius_grid,
    defect_span_completeness,
    defect_transfer_check,
    embedding_for_tolerance,
    equivalence_pseudometric,
    norm_identity,
    power_search,
    verify_dilation,
)
from hardymodel.errors import DimensionMismatch, NotInClass, UnsafeDegree, ZeroDefect
from hardymodel.generators import _PATTERNS, tuple_ensemble
from hardymodel.hardy import HardyVector, enumerate_basis, monomial_vector, parity_shift, shift
from hardymodel.linops import adjoint, operator_norm


def controlled_contraction(rng, dim, radius=0.6, norm_cap=0.8):
    """Well-conditioned matrix with spectral radius <= radius, norm <= norm_cap."""
    eigs = radius * rng.uniform(0.3, 1.0, dim) * np.exp(2j * np.pi * rng.uniform(size=dim))
    v = np.eye(dim) + 0.25 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    a = v @ np.diag(eigs) @ np.linalg.inv(v)
    nrm = operator_norm(a)
    if nrm > norm_cap:
        a = a * (norm_cap / nrm)
    return a


class TestCanonicalEmbedding:
    def test_scalar_geometric_column(self):
        d = 12
        t = ContractionTuple((np.array([[0.5]]),))
        model = canonical_embedding(t, d)
        col = model.embedding[:, 0]
        want = (np.sqrt(3.0) / 2.0) * 0.5 ** np.arange(d + 1)
        np.testing.assert_allclose(np.abs(col), want, atol=1e-14)
        got = float(np.vdot(col, col).real)
        assert abs(got - (1.0 - 0.25 ** (d + 1))) <= 1e-14

    def test_zero_vector_embeds_to_zero(self):
        t = ContractionTuple((np.array([[0.5]]),))
        model = canonical_embedding(t, 8)
        assert np.linalg.norm(model.normalized_embedding() @ np.array([0.0])) == 0.0

    def test_unitary_raises_zero_defect(self):
        with pytest.raises(ZeroDefect):
            canonical_embedding(ContractionTuple((np.eye(2),)), 5)

    def test_random_unitary_raises_zero_defect(self):
        # its adjoint defect is round-off of order 1e-8, not a coefficient space
        rng = np.random.default_rng(4)
        q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        with pytest.raises(ZeroDefect):
            canonical_embedding(ContractionTuple((q,)), 5)

    def test_gram_matches_embedding(self):
        rng = np.random.default_rng(10)
        t = tensor_tuple([controlled_contraction(rng, 2), controlled_contraction(rng, 2)])
        model = canonical_embedding(t, 10)
        u = model.embedding
        np.testing.assert_allclose(adjoint(u) @ u, model.gram_levels[-1], atol=1e-12)

    def test_compression_matches_explicit_hardy_matrices(self):
        # independent oracle: pull the truncated shifts back through the
        # embedding rows and compare with the Gram-sum route
        rng = np.random.default_rng(11)
        t = tensor_tuple([controlled_contraction(rng, 2, 0.5), controlled_contraction(rng, 2, 0.5)])
        d = 10
        model = canonical_embedding(t, d)
        u_hat = model.normalized_embedding()
        for k, alpha in ((1, (1, 0)), (2, (0, 1))):
            mk = shift(k, model.basis).dense()
            explicit = adjoint(u_hat) @ mk @ u_hat
            g = model.gram_levels[d - 1]
            s = np.linalg.inv(scipy.linalg.sqrtm(model.gram_levels[-1]).astype(complex))
            gram_route = s @ (t.power(alpha) @ g) @ s
            np.testing.assert_allclose(explicit, gram_route, atol=1e-10)

    def test_regularity_route_matches_explicit(self):
        rng = np.random.default_rng(12)
        t = tensor_tuple([controlled_contraction(rng, 2, 0.5), controlled_contraction(rng, 2, 0.5)])
        d = 9
        model = canonical_embedding(t, d)
        u_hat = model.normalized_embedding()
        m1 = shift(1, model.basis).dense()
        m2 = shift(2, model.basis).dense()
        explicit = adjoint(u_hat) @ adjoint(m1) @ m2 @ u_hat
        s = np.linalg.inv(scipy.linalg.sqrtm(model.gram_levels[-1]).astype(complex))
        g = model.gram_levels[d - 2]
        gram_route = s @ (t.components[1] @ g @ adjoint(t.components[0])) @ s
        np.testing.assert_allclose(explicit, gram_route, atol=1e-10)


class TestLibraryErrors:
    def test_tuple_outside_the_class(self):
        t = ContractionTuple((np.diag([1.0, 0.5]),))  # spectral radius 1
        with pytest.raises(NotInClass):
            canonical_embedding(t, 4)
        with pytest.raises(NotInClass):
            embedding_for_tolerance(t, 1e-8)

    def test_stalled_certificate_is_refused_early(self, monkeypatch):
        # at tol 1e-14 the certificate target 1e-15 lies below the round-off
        # plateau 1.29e-15 of this instance; the search stops where the
        # certificate stops decreasing instead of climbing to degree 512;
        # every attempt of the search goes through _embedding
        degrees = []
        build = dilation._embedding

        def counted(t, d, *args):
            degrees.append(d)
            return build(t, d, *args)

        monkeypatch.setattr(dilation, "_embedding", counted)
        with pytest.raises(UnsafeDegree, match="stalled"):
            REGISTRY["dilation-compress"].run(np.random.default_rng([5, 2]), GeneratorParams(), 1e-14)
        assert 2 <= len(degrees) <= 8

    def test_negative_order_cap_in_the_search(self, monkeypatch):
        # the certificate level d - order_cap would lie past the last Gram
        # level; the search refuses before it builds any embedding
        built = []
        monkeypatch.setattr(dilation, "_embedding", lambda *args: built.append(args))
        t = ContractionTuple((np.array([[0.5]]),))
        with pytest.raises(DimensionMismatch, match="negative"):
            embedding_for_tolerance(t, 1e-8, order_cap=-1)
        assert built == []

    def test_degree_outside_the_truncation(self):
        # a negative degree must not read a Gram level from the end of the
        # list, and one above d must not leak numpy's IndexError
        model = canonical_embedding(ContractionTuple((np.array([[0.5]]),)), 10)
        x = np.ones(1)
        assert model.tail_bound(x, 10) == pytest.approx(0.25**11, rel=1e-6)  # 1 - sum 0.75 / 4^k
        for degree in (-1, 11):
            with pytest.raises(DimensionMismatch, match="outside 0..10"):
                model.tail_bound(x, degree)
        with pytest.raises(DimensionMismatch, match="negative"):
            verify_dilation(model, order_cap=-1, tol=1e-8)

    def test_bad_arguments(self):
        b = enumerate_basis(1, 6, 1)
        with pytest.raises(DimensionMismatch):
            power_search([shift(1, b)], [monomial_vector(b, (0,))], 0.0)


class TestOrbitLevels:
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 3), d=st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_matches_direct_adjoint_powers(self, seed, n, d):
        # level k holds every alpha of degree k once, with T*^alpha @ right
        # = (T_1^a_1 ... T_n^a_n)* @ right; components need not commute
        rng = np.random.default_rng(seed)
        t = ContractionTuple(tuple(controlled_contraction(rng, 3) for _ in range(n)))
        right = rng.standard_normal((t.space_dim, 2)) + 1j * rng.standard_normal((t.space_dim, 2))
        levels = list(_orbit_levels([adjoint(c) for c in t.components], d, right))
        assert len(levels) == d + 1
        exps_all = enumerate_basis(n, d, 1).exponents
        for k, (exps, x) in enumerate(levels):
            want_rows = exps_all[exps_all.sum(axis=1) == k]
            assert sorted(map(tuple, exps)) == sorted(map(tuple, want_rows))
            assert x.shape == (len(want_rows), t.space_dim, 2)
            for alpha, block in zip(exps, x):
                np.testing.assert_allclose(block, adjoint(t.power(alpha)) @ right, atol=1e-12)


class TestOneModelPerVerdict:
    def test_one_validation_and_no_rebuild(self, monkeypatch):
        # each instance validates once and builds models only at the
        # degrees of its certificate search, never a second one at order_cap
        validated, degrees = [], []
        validate, build = dilation.validate_tuple, dilation._embedding

        def counted_validate(t, *args):
            validated.append(t)
            return validate(t, *args)

        def counted_build(t, d, *args):
            degrees.append(d)
            return build(t, d, *args)

        monkeypatch.setattr(dilation, "validate_tuple", counted_validate)
        monkeypatch.setattr(dilation, "_embedding", counted_build)
        p = GeneratorParams()
        out = REGISTRY["dilation-minimality"].run(np.random.default_rng(7), p, 1e-8)
        assert out.passed
        assert len(validated) == p.instances
        assert degrees and p.order_cap not in degrees

    def test_minimality_rank_matches_a_rebuilt_model(self):
        # the former route ranked the rows of a separately built degree-c
        # model; the rank from the model's own first rows is the same
        def rebuilt_rank(t, c):
            small = canonical_embedding(t, c)
            u, e, m = small.embedding, small.defect_dim, small.space_dim
            basis_c = enumerate_basis(t.num_components, c, e)
            exps = basis_c.exponents
            gamma = exps[:, None, :] - exps[None, :, :]
            ok = (gamma >= 0).all(axis=-1)
            blocks = np.zeros((len(exps), len(exps), e, m), dtype=complex)
            blocks[ok] = u.reshape(-1, e, m)[basis_c.rank(gamma[ok])]
            sv = np.linalg.svd(blocks.transpose(0, 2, 1, 3).reshape(basis_c.size, -1), compute_uv=False)
            return int(np.sum(sv > 1e-7 * max(sv[0], 1e-30)))

        rng = np.random.default_rng(101)  # the criterion-2 ensemble
        for t in tuple_ensemble(rng, 50, radius_cap=0.75, norm_cap=0.8):
            rep = verify_dilation(embedding_for_tolerance(t, 1e-9, order_cap=4), order_cap=4, tol=1e-8)
            assert rep.minimality_rank == rebuilt_rank(t, 4)


def explicit_orbit(t, d):
    """(alpha, D_* T*^alpha) for |alpha| <= d in basis order, one adjoint(t.power(alpha)) each."""
    d_star = joint_defect(t.adjoint())
    exps = enumerate_basis(t.num_components, d, 1).exponents
    return [(alpha, d_star @ adjoint(t.power(alpha))) for alpha in exps]


class TestOrbitAgainstExplicitPowers:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("warm_plan", [True, False])
    def test_embedding_and_gram_levels(self, monkeypatch, n, warm_plan):
        # the class check is bypassed so that non-commuting components
        # expose any error in the order of the adjoint products; with a
        # warm plan the cached level plan was first built for another
        # tuple, so it must carry nothing of that tuple
        monkeypatch.setattr(dilation, "validate_tuple", lambda t: replace(validate_tuple(t), passed=True))
        rng = np.random.default_rng(30 + n)
        t = ContractionTuple(tuple(controlled_contraction(rng, 3, 0.5) for _ in range(n)))
        assert n == 1 or validate_tuple(t).max_commutator > 1e-3
        d = 6
        _level_plan.cache_clear()
        if warm_plan:
            other = np.random.default_rng(130 + n)
            canonical_embedding(ContractionTuple(tuple(controlled_contraction(other, 3, 0.5) for _ in range(n))), d)
        model = canonical_embedding(t, d)
        assert _level_plan.cache_info().hits == int(warm_plan)
        q = model.defect_basis.basis
        orbit = explicit_orbit(t, d)
        want = np.concatenate([adjoint(q) @ y for _, y in orbit])
        np.testing.assert_allclose(model.embedding, want, atol=1e-13)
        g = np.zeros((3, 3), dtype=complex)
        for k in range(d + 1):
            g = g + sum(adjoint(y) @ y for alpha, y in orbit if alpha.sum() == k)
            np.testing.assert_allclose(model.gram_levels[k], g, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gram_levels_match_per_level_products(self, n):
        # one batched per-row product summed by level agrees with the
        # former per-level products up to the order of summation
        rng = np.random.default_rng(50 + n)
        t = tensor_tuple([controlled_contraction(rng, 2, 0.6) for _ in range(n)])
        d = 12 if n < 3 else 8
        model = canonical_embedding(t, d)
        want = gram_levels_per_level(t, d)
        assert len(model.gram_levels) == len(want) == d + 1
        for got, ref in zip(model.gram_levels, want):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_norm_identity_is_the_orbit_sum(self, n):
        rng = np.random.default_rng(40 + n)
        t = ContractionTuple(tuple(controlled_contraction(rng, 3, 0.5) for _ in range(n)))
        x = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        d = 7
        partial, residual = norm_identity(t, x, d)
        want = sum(np.sum(np.abs(y @ x) ** 2, axis=0) for _, y in explicit_orbit(t, d))
        np.testing.assert_allclose(partial, want, atol=1e-13)
        np.testing.assert_allclose(residual, np.sum(np.abs(x) ** 2, axis=0) - want, atol=1e-13)

    def test_level_plan_is_built_once_and_read_only(self):
        _level_plan.cache_clear()
        rng = np.random.default_rng(5)
        t = tensor_tuple([controlled_contraction(rng, 2), controlled_contraction(rng, 2)])
        canonical_embedding(t, 9)
        canonical_embedding(t, 9)
        norm_identity(t, np.ones(4), 9)
        info = _level_plan.cache_info()
        assert info.misses == 1 and info.hits == 2
        plan = _level_plan(2, 9)
        assert _level_plan(2, 9) is plan
        rows, source = plan[3]
        with pytest.raises(ValueError):
            rows[0] = 0
        with pytest.raises(ValueError):
            source[0] = 0


def test_embedding_search_validates_once(monkeypatch):
    # the search extends the degree by 8 until the Gram certificate holds;
    # the class report and the adjoint defect are shared by every attempt
    validations, attempts = [], []
    embedding = dilation._embedding

    def counted_validate(t, tol=1e-10):
        validations.append(t)
        return validate_tuple(t, tol)

    def counted_embedding(*args):
        attempts.append(args[1])
        return embedding(*args)

    monkeypatch.setattr(dilation, "validate_tuple", counted_validate)
    monkeypatch.setattr(dilation, "_embedding", counted_embedding)
    # a non-normal block decays slower than its spectral radius 0.3 suggests
    a = np.array([[0.3, 0.9], [0.0, 0.3]])
    t = ContractionTuple((0.97 * a / operator_norm(a),))
    model = embedding_for_tolerance(t, 1e-8)
    assert len(validations) == 1 and len(attempts) >= 2
    assert attempts == list(range(attempts[0], model.truncation_degree + 1, 8))
    # test_stalled_certificate_is_refused_early, counted where the attempts are made
    attempts.clear()
    with pytest.raises(UnsafeDegree, match="stalled"):
        REGISTRY["dilation-compress"].run(np.random.default_rng([5, 2]), GeneratorParams(), 1e-14)
    assert len(attempts) <= 8


def test_disjoint_power_pairs_match_double_loop():
    for n, cap in ((1, 3), (2, 4), (3, 3)):
        exps = enumerate_basis(n, cap, 1).exponents
        want = {
            (i, j)
            for i, a in enumerate(exps)
            for j, b in enumerate(exps)
            if a.sum() + b.sum() <= cap and not np.any((a > 0) & (b > 0))
        }
        got = [(int(i), int(j)) for i, j in _disjoint_power_pairs(n, cap)]
        assert len(got) == len(set(got)) and set(got) == want
        assert (0, 0) in got


def test_single_pass_residuals_match_two_loops():
    # one ensemble cycles every factor pattern; each model is checked at
    # every order cap up to the one it was built for.  The minimality rank
    # (pivoted QR at 1e-7) must equal the count of singular values above
    # 1e-7 times the largest
    rng = np.random.default_rng(11)
    for t in tuple_ensemble(rng, len(_PATTERNS), 0.7, 0.8):
        model = embedding_for_tolerance(t, 1e-9, order_cap=4)
        for order_cap in range(5):
            rep = verify_dilation(model, order_cap, 1e-8)
            assert (rep.residual_dilation, rep.residual_regularity) == dilation_residuals(
                model, order_cap
            )
            assert rep.minimality_rank == minimality_rank_svd(model, order_cap)


class TestVerifyDilation:
    def test_zero_tuple_plain_shift(self):
        t = ContractionTuple((np.zeros((1, 1)),))
        model = canonical_embedding(t, 8)
        rep = verify_dilation(model, order_cap=3, tol=1e-12)
        assert rep.residual_dilation <= 1e-13
        assert rep.residual_regularity <= 1e-13
        assert rep.minimality_ok
        assert rep.passed

    def test_scalar_half(self):
        t = ContractionTuple((np.array([[0.5]]),))
        model = canonical_embedding(t, 40)
        rep = verify_dilation(model, order_cap=4, tol=1e-10)
        assert rep.passed

    def test_tensor_pair(self):
        rng = np.random.default_rng(42)
        t = tensor_tuple(
            [controlled_contraction(rng, 2, 0.55), controlled_contraction(rng, 2, 0.55)]
        )
        model = canonical_embedding(t, 24)
        rep = verify_dilation(model, order_cap=4, tol=1e-8)
        assert rep.residual_dilation <= 1e-8
        assert rep.residual_regularity <= 1e-8
        assert rep.minimality_ok

    def test_order_cap_above_truncation(self):
        t = ContractionTuple((np.array([[0.5]]),))
        model = canonical_embedding(t, 4)
        with pytest.raises(UnsafeDegree):
            verify_dilation(model, order_cap=5, tol=1e-8)


class TestNormIdentity:
    def test_scalar_partial_sums(self):
        t = ContractionTuple((np.array([[0.5]]),))
        for d in (0, 1, 5):
            partial, residual = norm_identity(t, np.array([1.0]), d)
            assert abs(partial - (1.0 - 0.25 ** (d + 1))) <= 1e-14
            assert abs(residual - 0.25 ** (d + 1)) <= 1e-14

    def test_zero_vector(self):
        t = ContractionTuple((np.array([[0.5]]),))
        partial, residual = norm_identity(t, np.array([0.0]), 6)
        assert partial == 0.0 and residual == 0.0

    def test_nilpotent_exact_at_degree_one(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        t = ContractionTuple((n,))
        x = np.array([0.3, -0.7 + 0.2j])
        partial, residual = norm_identity(t, x, 1)
        assert abs(residual) <= 1e-14
        partial5, _ = norm_identity(t, x, 5)
        assert abs(partial5 - partial) <= 1e-14

    def test_monotone_residual(self):
        rng = np.random.default_rng(3)
        t = tensor_tuple([controlled_contraction(rng, 2), controlled_contraction(rng, 2)])
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        last = np.inf
        for d in (2, 4, 8, 16):
            _, residual = norm_identity(t, x, d)
            assert residual <= last + 1e-12
            assert residual >= -1e-10
            last = residual

    def test_block_diagonal_two_term_sum(self):
        # direct sum of two tuples: per-block partial sums add up to ||x||^2
        rng = np.random.default_rng(8)
        ta = tensor_tuple([controlled_contraction(rng, 2, 0.5)])
        tb = tensor_tuple([controlled_contraction(rng, 2, 0.5)])
        comps = (scipy.linalg.block_diag(ta.components[0], tb.components[0]),)
        t = ContractionTuple(comps)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        xa = np.concatenate([x[:2], np.zeros(2)])
        xb = np.concatenate([np.zeros(2), x[2:]])
        d = choose_truncation_degree(0.5, 4, 1e-12)
        pa, ra = norm_identity(t, xa, d)
        pb, rb = norm_identity(t, xb, d)
        assert abs(pa + pb - np.vdot(x, x).real) <= ra + rb + 1e-12


class TestDefectSpan:
    def test_zero_tuple_single_point(self):
        t = ContractionTuple((np.zeros((3, 3)),))
        rank, complete = defect_span_completeness(t, [MoebiusPoint(())])
        assert rank == 3 and complete

    def test_scalar_half_origin(self):
        t = ContractionTuple((np.array([[0.5]]),))
        rank, complete = defect_span_completeness(t, [MoebiusPoint(())])
        assert rank == 1 and complete

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_grid_matches_nested_loops(self, n):
        got = [lam.coords for lam in default_moebius_grid(n)]
        assert got == [lam.coords for lam in moebius_grid(n)]
        assert len(got) == 5 ** min(n, 2)

    def test_tensor_pair_grid(self):
        rng = np.random.default_rng(5)
        t = tensor_tuple([controlled_contraction(rng, 2), controlled_contraction(rng, 2)])
        grid = default_moebius_grid(2)
        assert len(grid) == 25
        rank, complete = defect_span_completeness(t, grid)
        assert complete and rank == 4


class TestPseudometric:
    def test_equal_points(self):
        lam = MoebiusPoint((0.3, -0.2j))
        assert equivalence_pseudometric(lam, lam) == 0.0

    def test_single_coordinate(self):
        assert abs(equivalence_pseudometric(MoebiusPoint((0.5,)), MoebiusPoint(())) - 0.25) <= 1e-15

    def test_two_coordinates(self):
        lam = MoebiusPoint((0.5, 0.5))
        assert abs(equivalence_pseudometric(lam, MoebiusPoint(())) - 0.5) <= 1e-15


class TestPowerSearch:
    def test_single_shift_constant_probe(self):
        b = enumerate_basis(1, 10, 1)
        res = power_search([shift(1, b)], [monomial_vector(b, (0,))], eps=0.5)
        assert res.exponents == (1,)
        assert res.passed

    def test_shift_two_term_probe(self):
        b = enumerate_basis(1, 10, 1)
        v = HardyVector(b, monomial_vector(b, (0,)).coefficients + monomial_vector(b, (1,)).coefficients)
        v = HardyVector(b, v.coefficients / v.norm)
        res = power_search([shift(1, b)], [v], eps=0.3)
        assert res.exponents == (2,)
        assert res.passed

    def test_parity_family(self):
        b = enumerate_basis(3, 10, 1)
        ops = [parity_shift(k, b) for k in (1, 2, 3)]
        res = power_search(ops, [monomial_vector(b, (0, 0, 0))], eps=0.1)
        assert res.passed
        for bound in res.lower_bounds:
            assert bound >= 0.9

    def test_unsafe_degree(self):
        b = enumerate_basis(1, 2, 1)
        # parity adjoint raises degree; a probe at top degree leaves no room
        with pytest.raises(UnsafeDegree):
            power_search([parity_shift(1, b)], [monomial_vector(b, (2,))], eps=1e-6)


class TestDefectTransfer:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agreement_within_bound(self, seed):
        rng = np.random.default_rng(seed)
        t = tensor_tuple([controlled_contraction(rng, 2, 0.5), controlled_contraction(rng, 2, 0.5)])
        model = canonical_embedding(t, 30)
        lam = MoebiusPoint((0.4 * np.exp(0.3j), -0.3))
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        direct, via_model, bound = defect_transfer_check(model, lam, x)
        assert abs(direct - via_model) <= bound
        assert bound < 0.05 * np.linalg.norm(x)

    def test_origin_matches_tail(self):
        t = ContractionTuple((np.array([[0.5]]),))
        model = canonical_embedding(t, 40)
        direct, via_model, bound = defect_transfer_check(model, MoebiusPoint(()), np.array([1.0]))
        assert abs(direct - np.sqrt(3.0) / 2.0) <= 1e-12
        assert abs(direct - via_model) <= min(bound, 1e-8)

    @pytest.mark.parametrize("dims, d", [((3,), 30), ((2, 2), 14)])
    @pytest.mark.parametrize("radius", [0.0, 0.9])
    def test_via_model_matches_dense_mobius(self, dims, d, radius):
        # phi_a(S_k) as a multiplier against (a I - S)(I - conj(a) S)^(-1) on
        # the dense truncated shift
        rng = np.random.default_rng(5)
        t = tensor_tuple([controlled_contraction(rng, m, 0.5) for m in dims])
        model = canonical_embedding(t, d)
        assert model.defect_dim >= 2
        lam = MoebiusPoint(tuple(radius * np.exp(1j * (0.7 + k)) for k in range(len(dims))))
        x = rng.standard_normal(t.space_dim) + 1j * rng.standard_normal(t.space_dim)
        _, via_model, _ = defect_transfer_check(model, lam, x)
        y = model.normalized_embedding() @ x
        v = y.copy()
        for k in range(1, len(dims) + 1):
            w = mobius(shift(k, model.basis).dense(), lam.coord(k - 1))
            v = v - w @ (adjoint(w) @ v)
        assert abs(via_model - np.sqrt(max(np.vdot(v, y).real, 0.0))) <= 1e-12

    @pytest.mark.parametrize("dims, d", [((3,), 30), ((2, 2), 20), ((2, 2, 2), 12)])
    def test_block_matches_single_columns(self, dims, d):
        rng = np.random.default_rng(7)
        t = tensor_tuple([controlled_contraction(rng, m, 0.5) for m in dims])
        model = canonical_embedding(t, d)
        lam = MoebiusPoint(tuple(0.4 * np.exp(1j * (0.3 + k)) for k in range(len(dims))))
        xs = rng.standard_normal((t.space_dim, 3)) + 1j * rng.standard_normal((t.space_dim, 3))
        direct, via_model, bound = defect_transfer_check(model, lam, xs)
        assert direct.shape == via_model.shape == bound.shape == (3,)
        assert np.all(bound >= np.abs(direct - via_model))
        for j, x in enumerate(xs.T):
            one = defect_transfer_check(model, lam, x)
            assert all(isinstance(v, float) for v in one)
            assert abs(direct[j] - one[0]) <= 1e-14
            assert abs(via_model[j] - one[1]) <= 1e-14
            assert abs(bound[j] - one[2]) <= 1e-9


def test_choose_truncation_degree():
    d = choose_truncation_degree(0.8, 64, 1e-8)
    assert 0.8 ** (2 * (d + 1)) * 64 < 1e-8
    assert 0.8 ** (2 * d) * 64 >= 1e-8


def test_embedding_respects_basis_ordering():
    # block of the embedded vector at alpha equals Q* D T*^alpha x
    rng = np.random.default_rng(9)
    t = tensor_tuple([controlled_contraction(rng, 2, 0.5), controlled_contraction(rng, 2, 0.5)])
    model = canonical_embedding(t, 6)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    emb = HardyVector(model.basis, model.embedding @ x)
    d_star = joint_defect(t.adjoint())
    qd = adjoint(model.defect_basis.basis) @ d_star
    for alpha in [(0, 0), (1, 0), (2, 3), (0, 4)]:
        want = qd @ adjoint(t.power(alpha)) @ x
        np.testing.assert_allclose(block(emb, alpha), want, atol=1e-12)
