import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from _references import (
    block,
    defect_transfer_bound_loop,
    dilation_residuals,
    embedding_by_plan_walk,
    gram_levels_per_level,
    minimality_rank_block_scatter,
    minimality_rank_svd,
    moebius_grid,
    norm_identity_rows,
    power_search_per_probe,
    tail_bound,
    tuple_power,
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
    _adjoint_power_rows,
    _disjoint_power_pairs,
    _inv_sqrt_psd,
    _minimality_rank,
    canonical_embedding,
    certified_degree,
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
from hardymodel.errors import DimensionMismatch, NotInClass, SizeOverflow, UnsafeDegree, ZeroDefect
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
            gram_route = s @ (tuple_power(t, alpha) @ g) @ s
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

    def test_round_off_certificate_passes_in_one_build(self, monkeypatch):
        # at tol 1e-14 the target 1e-15 lies below the round-off plateau
        # 1.29e-15 of ||I - G_c|| on this instance, where the former Gram
        # certificate stalled; the level sums keep decaying below it, so
        # each instance certifies from its first build; every attempt of
        # the search goes through _embedding
        degrees = []
        build = dilation._embedding

        def counted(t, d, *args):
            degrees.append(d)
            return build(t, d, *args)

        monkeypatch.setattr(dilation, "_embedding", counted)
        p = GeneratorParams()
        out = REGISTRY["dilation-compress"].run(np.random.default_rng([5, 2]), p, 1e-14)
        assert out.passed
        assert len(degrees) == p.instances

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
        # an order cap outside 0..d must not read a Gram level from the end
        # of the list, nor leak numpy's IndexError
        model = canonical_embedding(ContractionTuple((np.array([[0.5]]),)), 10)
        assert tail_bound(model, np.ones(1), 10) == pytest.approx(0.25**11, rel=1e-6)  # 1 - sum 0.75 / 4^k
        with pytest.raises(UnsafeDegree, match="order cap 11 exceeds truncation degree 10"):
            verify_dilation(model, order_cap=11, tol=1e-8)
        with pytest.raises(DimensionMismatch, match="negative"):
            verify_dilation(model, order_cap=-1, tol=1e-8)

    def test_search_past_its_first_block(self):
        # the non-normal block of test_embedding_search_validates_once: the
        # walk's first block (levels 1..9) certifies no degree, so the
        # search's degree 10 + order cap lies past it; its model is the
        # fresh embedding at that degree
        a = np.array([[0.3, 0.9], [0.0, 0.3]])
        t = ContractionTuple((0.97 * a / operator_norm(a),))
        for order_cap in (0, 3):
            searched = embedding_for_tolerance(t, 1e-8, order_cap=order_cap)
            assert searched.truncation_degree == 10 + order_cap
            _assert_same_model(searched, canonical_embedding(t, 10 + order_cap))

    def test_bad_arguments(self):
        b = enumerate_basis(1, 6, 1)
        with pytest.raises(DimensionMismatch):
            power_search([shift(1, b)], [monomial_vector(b, (0,))], 0.0)


class TestOrbitLevels:
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 3), d=st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_matches_direct_adjoint_powers(self, seed, n, d):
        # row alpha is (T*^alpha)^T = ((T_1^a_1 ... T_n^a_n)*)^T, for every
        # alpha of degree <= d in basis order; components need not commute
        rng = np.random.default_rng(seed)
        t = ContractionTuple(tuple(controlled_contraction(rng, 3) for _ in range(n)))
        exps = enumerate_basis(n, d, 1).exponents
        rows = _adjoint_power_rows([adjoint(c) for c in t.components], exps)
        assert rows.shape == (len(exps), t.space_dim, t.space_dim)
        for alpha, row in zip(exps, rows):
            np.testing.assert_allclose(row, adjoint(tuple_power(t, alpha)).T, atol=1e-12)

    def test_any_order_of_any_exponent_set(self):
        # a shuffled set that is not a graded block, {alpha : a_1 + 2 a_2 <= 8}:
        # the rows come back in the order asked for
        rng = np.random.default_rng(17)
        t = ContractionTuple(tuple(controlled_contraction(rng, 3) for _ in range(2)))
        exps = np.array([(a, b) for a in range(9) for b in range(5) if a + 2 * b <= 8])
        exps = exps[rng.permutation(len(exps))]
        rows = _adjoint_power_rows([adjoint(c) for c in t.components], exps)
        assert len(rows) == len(exps) == 25
        for alpha, row in zip(exps, rows):
            np.testing.assert_allclose(row, adjoint(tuple_power(t, alpha)).T, atol=1e-12)


@functools.cache
def criterion_two_models() -> tuple:
    """The criterion-2 ensemble's models, built once for the tests that
    share them: 50 tuples (rng 101, radius cap 0.75, norm cap 0.8), each
    at tolerance 1e-9 and order cap 4."""
    rng = np.random.default_rng(101)
    ensemble = tuple_ensemble(rng, 50, radius_cap=0.75, norm_cap=0.8)
    return tuple(embedding_for_tolerance(t, 1e-9, order_cap=4) for t in ensemble)


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
            u, e, m = small.embedding, small.defect_dim, small.tuple_.space_dim
            basis_c = enumerate_basis(t.num_components, c, e)
            exps = basis_c.exponents
            gamma = exps[:, None, :] - exps[None, :, :]
            ok = (gamma >= 0).all(axis=-1)
            blocks = np.zeros((len(exps), len(exps), e, m), dtype=complex)
            blocks[ok] = u.reshape(-1, e, m)[basis_c.rank(gamma[ok])]
            sv = np.linalg.svd(blocks.transpose(0, 2, 1, 3).reshape(basis_c.size, -1), compute_uv=False)
            return int(np.sum(sv > 1e-7 * max(sv[0], 1e-30)))

        for model in criterion_two_models():
            rep = verify_dilation(model, order_cap=4, tol=1e-8)
            assert rep.minimality_rank == rebuilt_rank(model.tuple_, 4)

    def test_minimality_rank_matches_the_block_scatter(self):
        # the generator orbit of submodule_from_generators (pivots above
        # 1e-8 relative) ranks the former block-scattered stack (pivots
        # above 1e-7) the same at every order cap
        for model in criterion_two_models():
            s = _inv_sqrt_psd(model.gram_levels[-1])
            for c in range(5):
                assert _minimality_rank(model, c, s) == minimality_rank_block_scatter(model, c, s)

    def test_one_batched_norm_per_report(self, monkeypatch):
        # every disjoint pair is one entry of one stacked product, and the
        # powers are the orbit's rows: one operator_norm call per report
        calls = []
        norm = dilation.operator_norm
        monkeypatch.setattr(dilation, "operator_norm", lambda a: calls.append(a.shape) or norm(a))
        rng = np.random.default_rng(3)
        t = tensor_tuple([controlled_contraction(rng, 2, 0.6) for _ in range(2)])
        model = embedding_for_tolerance(t, 1e-9, order_cap=3)
        for order_cap in range(4):
            calls.clear()
            rep = verify_dilation(model, order_cap, 1e-8)
            pairs = len(_disjoint_power_pairs(2, order_cap)[0])
            assert calls == [(pairs, 4, 4)] and rep.passed


def explicit_orbit(t, d):
    """(alpha, D_* T*^alpha) for |alpha| <= d in basis order, one tuple_power each."""
    d_star = joint_defect(t.adjoint())
    exps = enumerate_basis(t.num_components, d, 1).exponents
    return [(alpha, d_star @ adjoint(tuple_power(t, alpha))) for alpha in exps]


class TestOrbitAgainstExplicitPowers:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_embedding_and_gram_levels(self, monkeypatch, n):
        # the class check is bypassed so that non-commuting components
        # expose any error in the order of the adjoint products
        monkeypatch.setattr(dilation, "validate_tuple", lambda t: replace(validate_tuple(t), passed=True))
        rng = np.random.default_rng(30 + n)
        t = ContractionTuple(tuple(controlled_contraction(rng, 3, 0.5) for _ in range(n)))
        assert n == 1 or validate_tuple(t).max_commutator > 1e-3
        d = 6
        model = canonical_embedding(t, d)
        q = model.defect_basis.basis
        orbit = explicit_orbit(t, d)
        want = np.concatenate([adjoint(q) @ y for _, y in orbit])
        np.testing.assert_allclose(model.embedding, want, atol=1e-13)
        g = np.zeros((3, 3), dtype=complex)
        for k in range(d + 1):
            g = g + sum(adjoint(y) @ y for alpha, y in orbit if alpha.sum() == k)
            np.testing.assert_allclose(model.gram_levels[k], g, atol=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("d", [0, 1, 7, 40])
    def test_one_component_matches_the_plan_walk_bit_for_bit(self, m, d):
        # the stacked powers of a single contraction take the walk's
        # operands in the walk's order, so nothing may move
        t = ContractionTuple((controlled_contraction(np.random.default_rng([m, d]), m, 0.7),))
        model, want = canonical_embedding(t, d), embedding_by_plan_walk(t, d)
        assert model.embedding.tobytes() == want.embedding.tobytes()
        for name in ("gram_levels", "level_sums"):
            got, ref = getattr(model, name), getattr(want, name)
            assert len(got) == len(ref) == d + 1 + (name == "level_sums")
            assert [g.tobytes() for g in got] == [r.tobytes() for r in ref]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("d", [0, 1, 9])
    def test_several_components_match_the_plan_walk(self, n, d):
        # rows as products of stacked powers against rows walked from
        # their parents: the same orbit up to the order of the products
        rng = np.random.default_rng([n, d])
        t = tensor_tuple([controlled_contraction(rng, 2, 0.7) for _ in range(n)])
        model, want = canonical_embedding(t, d), embedding_by_plan_walk(t, d)
        np.testing.assert_allclose(model.embedding, want.embedding, rtol=0, atol=1e-14)
        for name in ("gram_levels", "level_sums"):
            got, ref = getattr(model, name), getattr(want, name)
            assert len(got) == len(ref) == d + 1 + (name == "level_sums")
            for g, r in zip(got, ref):
                np.testing.assert_allclose(g, r, rtol=0, atol=1e-14)

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

    def test_norm_identity_holds_one_level_of_rows(self):
        # n = 3, m = 8, d = 60: the orbit's 39711 rows (T*^alpha)^T take
        # 40.7 MB; the identity walks one degree level at a time
        rng = np.random.default_rng(60)
        t = tensor_tuple([controlled_contraction(rng, 2, 0.6) for _ in range(3)])
        x = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        d = 60
        orbit_bytes = math.comb(d + 3, 3) * 8 * 8 * 16
        tracemalloc.start()
        try:
            partial, _ = norm_identity(t, x, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < orbit_bytes / 4
        np.testing.assert_allclose(partial, np.sum(np.abs(x) ** 2, axis=0), rtol=1e-10)

    def test_norm_identity_obeys_the_basis_cap(self, monkeypatch):
        # its exponent rows come from enumerate_basis, so the size cap holds
        rng = np.random.default_rng(61)
        t = tensor_tuple([controlled_contraction(rng, 2, 0.6) for _ in range(2)])
        monkeypatch.setenv("HARDYMODEL_BASIS_CAP", "100")
        norm_identity(t, np.ones(4), 12)  # C(14, 2) = 91 rows
        with pytest.raises(SizeOverflow):
            norm_identity(t, np.ones(4), 37)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_norm_identity_carries_the_probes(self, monkeypatch, n):
        # the non-commuting cases of the orbit-sum test against the row
        # route; the probes are carried through the powers, so no orbit row
        # (T*^alpha)^T is formed
        rng = np.random.default_rng(40 + n)
        t = ContractionTuple(tuple(controlled_contraction(rng, 3, 0.5) for _ in range(n)))
        x = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        cases = [(x, d) for d in (0, 1, 7)] + [(x[:, 0], 7)]
        want = [norm_identity_rows(t, xs, d) for xs, d in cases]

        def no_rows(*args):
            raise AssertionError("an orbit row was formed")

        monkeypatch.setattr(dilation, "_adjoint_power_rows", no_rows)
        for (xs, d), (partial, residual) in zip(cases, want):
            got = norm_identity(t, xs, d)
            np.testing.assert_allclose(got[0], partial, rtol=0, atol=1e-13)
            np.testing.assert_allclose(got[1], residual, rtol=0, atol=1e-13)


def _adjoint_powers(a, count):
    """[A*^0, ..., A*^(count - 1)], each from the one before."""
    powers = [np.eye(len(a), dtype=complex)]
    for _ in range(count - 1):
        powers.append(adjoint(a) @ powers[-1])
    return powers


class TestTruncationTail:
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 2), c=st.integers(0, 12))
    @settings(max_examples=30, deadline=None)
    def test_tail_between_level_max_and_level_sum(self, seed, n, c):
        # the true tail past degree c, summed directly over c < |alpha| <= c + 60
        # from positive terms (||T|| <= 0.7, so the rest is below 0.7^120 of
        # it), lies between max and sum of ||T*^beta x||^2 over |beta| = c + 1;
        # for n = 1 both bounds equal it (the telescoping sum)
        rng = np.random.default_rng(seed)
        factors = [controlled_contraction(rng, 3 if n == 1 else 2, 0.6, 0.7) for _ in range(n)]
        t = tensor_tuple(factors)
        x = rng.standard_normal(t.space_dim) + 1j * rng.standard_normal(t.space_dim)
        d_star = joint_defect(t.adjoint())
        powers = [_adjoint_powers(a, c + 61) for a in factors]
        if n == 1:
            orbit = {(k,): powers[0][k] @ x for k in range(c + 61)}
        else:
            grid = x.reshape(2, 2)  # tensor_tuple's space is C^2 (x) C^2, row-major
            orbit = {
                (a, k - a): (powers[0][a] @ grid @ powers[1][k - a].T).reshape(-1)
                for k in range(c + 61)
                for a in range(k + 1)
            }
        true_tail = sum(
            np.linalg.norm(d_star @ v) ** 2 for alpha, v in orbit.items() if sum(alpha) > c
        )
        level = [np.linalg.norm(v) ** 2 for alpha, v in orbit.items() if sum(alpha) == c + 1]
        bound = tail_bound(canonical_embedding(t, 12), x, c)
        assert max(level) <= true_tail * (1 + 1e-12)
        assert true_tail <= bound * (1 + 1e-12)
        assert bound == pytest.approx(sum(level), rel=1e-12, abs=0)
        if n == 1:
            assert bound == pytest.approx(true_tail, rel=1e-12, abs=0)

    def test_reported_tails_do_not_read_zero(self):
        # the non-normal block of test_embedding_search_validates_once: its
        # tails at c = 20 and 29 are 9.2e-20 and 4.9e-29, far below the
        # round-off of ||x||^2 - x* G_c x, yet they are reported, as
        # ||T*^(c+1) x||^2 (n = 1)
        a = np.array([[0.3, 0.9], [0.0, 0.3]])
        t = ContractionTuple((0.97 * a / operator_norm(a),))
        model = canonical_embedding(t, 30)
        x = np.ones(2) / np.sqrt(2.0)
        power = [np.linalg.matrix_power(adjoint(t.components[0]), k) for k in range(31)]
        for c, want in ((20, 9.2e-20), (29, 4.9e-29)):
            tail = tail_bound(model, x, c)
            assert tail == pytest.approx(np.linalg.norm(power[c + 1] @ x) ** 2, rel=1e-12, abs=0)
            assert tail == pytest.approx(want, rel=0.01, abs=0)
        # the tail at the safe cutoff 29 is ||T*^30||^2 = lambda_max(L_30)
        rep = verify_dilation(model, order_cap=1, tol=1e-8)
        assert rep.tail_bound == pytest.approx(operator_norm(power[30]) ** 2, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_nilpotent_tail_is_exactly_zero(self, n):
        # each component squares to 0, so every level past n is an exact
        # zero: the tail is 0.0 from degree n on and the search stops there
        t = tensor_tuple([np.array([[0.0, 0.5], [0.0, 0.0]])] * n)
        model = canonical_embedding(t, 8)
        x = np.ones(t.space_dim)
        assert tail_bound(model, x, 0) > 0.0
        for c in range(n, 9):
            assert tail_bound(model, x, c) == 0.0
        assert verify_dilation(model, order_cap=2, tol=1e-8).tail_bound == 0.0
        assert embedding_for_tolerance(t, 1e-12).truncation_degree == n

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_searched_model_equals_a_fresh_embedding(self, n):
        # the search builds one model at its certified degree plus the order
        # cap: the rows, Gram levels and level sums of a model built there
        rng = np.random.default_rng(60 + n)
        t = tensor_tuple([controlled_contraction(rng, 2, 0.6) for _ in range(n)])
        for order_cap in (0, 2):
            searched = embedding_for_tolerance(t, 1e-9, order_cap=order_cap)
            c, _ = certified_degree(t, 1e-9)
            assert searched.truncation_degree == c + order_cap
            _assert_same_model(searched, canonical_embedding(t, c + order_cap))


def _assert_same_model(got, want):
    assert got.basis == want.basis
    np.testing.assert_allclose(got.embedding, want.embedding, rtol=0, atol=1e-14)
    for name in ("gram_levels", "level_sums"):
        g, w = getattr(got, name), getattr(want, name)
        assert len(g) == len(w)
        for a, b in zip(g, w):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)


class TestCertifiedDegree:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_first_certified_level_of_the_model(self, n, tol):
        # the smallest c with lambda_max(L_(c+1)) <= tol, read off a model
        # built past it, and that level bit for bit
        rng = np.random.default_rng(70 + n)
        t = tensor_tuple([controlled_contraction(rng, 2, 0.6) for _ in range(n)])
        c, level = certified_degree(t, tol)
        model = canonical_embedding(t, c + 3)
        tails = np.linalg.eigvalsh(model.level_sums[1:])[:, -1]
        assert c == np.flatnonzero(tails <= tol)[0]
        assert level.tobytes() == model.level_sums[c + 1].tobytes()

    def test_zero_tuple_certifies_degree_zero(self):
        # T = 0: every level past 0 is an exact zero
        c, level = certified_degree(ContractionTuple((np.zeros((3, 3)),) * 2), 1e-12)
        assert c == 0 and not level.any()

    def test_no_certified_level_below_the_cap(self, monkeypatch):
        # the non-normal block certifies 1e-16 at degree 18, past its start
        # 16; with the cap at 20 the next block would end past it
        monkeypatch.setattr(dilation, "_DEGREE_CAP", 20)
        a = np.array([[0.3, 0.9], [0.0, 0.3]])
        t = ContractionTuple((0.97 * a / operator_norm(a),))
        with pytest.raises(UnsafeDegree, match=r"> 1\.000e-16 at degree 16$"):
            certified_degree(t, 1e-16)


def test_embedding_search_validates_once(monkeypatch):
    # the search validates the tuple once, walks the level sums alone
    # until one certifies, and builds one model, at that degree
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
    assert len(validations) == 1
    assert attempts == [10] and model.truncation_degree == 10
    # test_round_off_certificate_passes_in_one_build, counted where the
    # attempts are made: nothing is rebuilt at the certified degree
    attempts.clear()
    p = GeneratorParams()
    assert REGISTRY["dilation-compress"].run(np.random.default_rng([5, 2]), p, 1e-14).passed
    assert len(attempts) == p.instances


def test_embedding_search_walks_each_level_once(monkeypatch):
    # on the same non-normal block the walk starts at the tail rule's
    # degree 8 (levels 1..9), certifies none, and asks the rows of levels
    # 10..17 alone; the one model then asks its own rows, degree 0..11
    walked, built, inside = [], [], []
    rows, embedding = dilation._adjoint_power_rows, dilation._embedding

    def counted_rows(adjoints, exps):
        (built if inside else walked).append(exps[:, 0].tolist())
        return rows(adjoints, exps)

    def counted_embedding(*args):
        inside.append(True)
        try:
            return embedding(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(dilation, "_adjoint_power_rows", counted_rows)
    monkeypatch.setattr(dilation, "_embedding", counted_embedding)
    a = np.array([[0.3, 0.9], [0.0, 0.3]])
    t = ContractionTuple((0.97 * a / operator_norm(a),))
    assert embedding_for_tolerance(t, 1e-8).truncation_degree == 10
    assert walked == [list(range(1, 10)), list(range(10, 18))]
    assert built == [list(range(12))]


def test_disjoint_power_pairs_match_double_loop():
    for n, cap in ((1, 3), (2, 4), (3, 3)):
        exps = enumerate_basis(n, cap, 1).exponents
        want = {
            (i, j)
            for i, a in enumerate(exps)
            for j, b in enumerate(exps)
            if a.sum() + b.sum() <= cap and not np.any((a > 0) & (b > 0))
        }
        got = [(int(i), int(j)) for i, j in zip(*_disjoint_power_pairs(n, cap))]
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


def power_search_cases() -> dict:
    """(ops, probes) by name: the check's single probes and several random
    unit probes of growing degree (rng 70), on the shift and the parity
    family."""
    rng = np.random.default_rng(70)
    b1, b3 = enumerate_basis(1, 10, 1), enumerate_basis(3, 10, 1)

    def probes(b, top):
        out = []
        for deg in range(top + 1):
            c = (rng.standard_normal(b.size) + 1j * rng.standard_normal(b.size)) * (b.flat_degrees() <= deg)
            out.append(HardyVector(b, c / np.linalg.norm(c)))
        return out

    parity = [parity_shift(k, b3) for k in (1, 2, 3)]
    return {
        "shift": ([shift(1, b1)], [monomial_vector(b1, (0,))]),
        "shift-probes": ([shift(1, b1)], probes(b1, 6)),
        "parity": (parity, [monomial_vector(b3, (0, 0, 0))]),
        "parity-probes": (parity, probes(b3, 3) + [monomial_vector(b3, (2, 0, 1))]),
    }


class TestPowerSearch:
    @pytest.mark.parametrize("case", ["shift", "shift-probes", "parity", "parity-probes"])
    def test_matches_the_per_probe_search(self, case):
        ops, probes = power_search_cases()[case]
        for eps in (0.5, 0.1, 0.01):
            got, want = power_search(ops, probes, eps), power_search_per_probe(ops, probes, eps)
            assert got.exponents == want.exponents and got.passed == want.passed
            np.testing.assert_allclose(got.lower_bounds, want.lower_bounds, rtol=0, atol=1e-15)
        assert power_search(ops, [], 0.1) == power_search_per_probe(ops, [], 0.1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_refuses_as_the_per_probe_search(self, k):
        # operator k's adjoint would raise a probe past the truncation; for
        # k = 1 only the second probe does, for k = 2 the first operator
        # (a shift, whose adjoint lowers degrees) passes
        if k == 1:
            b = enumerate_basis(1, 4, 1)
            ops, probes = [parity_shift(1, b)], [monomial_vector(b, (0,)), monomial_vector(b, (4,))]
        else:
            b = enumerate_basis(2, 3, 1)
            ops, probes = [shift(1, b), parity_shift(2, b)], [monomial_vector(b, (0, 3))]
        for search in (power_search, power_search_per_probe):
            with pytest.raises(UnsafeDegree, match=f"^no safe exponent for operator {k} at this truncation$"):
                search(ops, probes, 1e-6)

    def test_single_shift_constant_probe(self):
        b = enumerate_basis(1, 10, 1)
        res = power_search([shift(1, b)], [monomial_vector(b, (0,))], eps=0.5)
        assert res.exponents == (1,)
        assert res.passed

    def test_shift_two_term_probe(self):
        b = enumerate_basis(1, 10, 1)
        v = HardyVector(b, monomial_vector(b, (0,)).coefficients + monomial_vector(b, (1,)).coefficients)
        v = HardyVector(b, v.coefficients / np.linalg.norm(v.coefficients))
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

    @pytest.mark.parametrize("dims, d", [((3,), 30), ((2, 2), 20)])
    def test_bound_minimizes_over_every_split_degree(self, dims, d):
        # the batched bound is the least over every split degree c <= d,
        # as the loop over them takes it
        rng = np.random.default_rng(9)
        t = tensor_tuple([controlled_contraction(rng, m, 0.5) for m in dims])
        model = canonical_embedding(t, d)
        lam = MoebiusPoint(tuple(0.4 * np.exp(1j * (0.3 + k)) for k in range(len(dims))))
        xs = rng.standard_normal((t.space_dim, 3)) + 1j * rng.standard_normal((t.space_dim, 3))
        _, _, bound = defect_transfer_check(model, lam, xs)
        for j, x in enumerate(xs.T):
            assert bound[j] == pytest.approx(defect_transfer_bound_loop(model, lam, x), rel=1e-12)

    def test_a_level_that_rounds_below_zero_reads_zero(self):
        # x* L_(c+1) x of a vanishing level may round below 0; its root is
        # taken of 0 (a NaN would raise here, RuntimeWarning being an error),
        # so the least term is the Moebius truncation at c = 0
        model = canonical_embedding(ContractionTuple((np.array([[0.5]]),)), 10)
        levels = model.level_sums.copy()
        levels[1:] = -1e-30
        model = replace(model, level_sums=levels)
        _, _, bound = defect_transfer_check(model, MoebiusPoint((0.3,)), np.array([1.0]))
        trunc = 8.0 * 0.3**11 / 0.7**3
        assert bound == pytest.approx(trunc + 4.0 * model.isometry_defect(), rel=1e-12)


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
        want = qd @ adjoint(tuple_power(t, alpha)) @ x
        np.testing.assert_allclose(block(emb, alpha), want, atol=1e-12)
