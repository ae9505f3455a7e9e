import itertools
import types

import numpy as np
import pytest
import scipy.linalg

from _references import (
    column_degrees,
    mobius_scalar,
    projector,
    subspace_distance,
    var_caps,
    wandering_generator_extract_rows,
)

from hardymodel import hardy, linops, submodules
from hardymodel.checks import REGISTRY, GeneratorParams
from hardymodel.contraction import BlaschkeProduct, mobius
from hardymodel.errors import (
    AmbiguousWandering,
    DegreeOverflow,
    DimensionMismatch,
    NotInner,
    UnsafeDegree,
)
from hardymodel.hardy import (
    HardyVector,
    defect_product,
    enumerate_basis,
    kernel_vector,
    monomial_vector,
    one_variable_symbol,
    parity_shift,
    shift,
)
from hardymodel.linops import adjoint, operator_norm, orthonormalize
from hardymodel.submodules import (
    _EXTRACTION_SLACK,
    QuotientHandle,
    _low_rows,
    _restricted_shifts,
    _tensor_columns,
    compression_double_commutation,
    expected_tensor_compression,
    inner_symbol_operator,
    kernel_fixed_point_residual,
    model_space_section,
    projector_product_check,
    quotient_tensor_build,
    restriction_double_commutation,
    submodule_from_generators,
    submodule_from_inner,
    wandering_generator_extract,
)

Z = BlaschkeProduct(1.0, (0.0,))
Z2 = BlaschkeProduct(1.0, (0.0, 0.0))


def phi(a):
    return BlaschkeProduct(1.0, (a,))


class TestSubmoduleFromInner:
    def test_coordinate_multiples(self):
        b = enumerate_basis(2, 5, 1)
        handle = submodule_from_inner(shift(1, b), 1e-10)
        # every element is a multiple of the first variable
        degs = b.exponents[:, 0]
        mask = degs == 0
        assert operator_norm(handle.space.basis[mask, :]) <= 1e-12

    def test_z_squared_section(self):
        b = enumerate_basis(1, 6, 1)
        op = one_variable_symbol(1, [0, 0, 1.0], b)
        handle = submodule_from_inner(op, 1e-10)
        assert handle.space.dim == handle.safe_degree + 1  # z^2 .. z^(2+cutoff)
        p = projector(handle.space)
        v = monomial_vector(b, (3,)).coefficients
        np.testing.assert_allclose(p @ v, v, atol=1e-10)

    def test_mobius_generator_codimension(self):
        d = 20
        b = enumerate_basis(1, d, 1)
        op = inner_symbol_operator({1: phi(0.5)}, b)
        handle = submodule_from_inner(op, 1e-6, hint={1: phi(0.5)}, input_cutoff=6)
        assert handle.space.dim == 7  # one column per admitted input degree

    def test_not_inner(self):
        b = enumerate_basis(1, 5, 1)
        from hardymodel.hardy import mult_operator

        with pytest.raises(NotInner):
            submodule_from_inner(mult_operator({(0,): 0.5}, b), 1e-10)


class TestRestrictionDoubleCommutation:
    def test_full_space(self):
        b = enumerate_basis(2, 5, 1)
        handle = submodule_from_inner(
            one_variable_symbol(1, [1.0], b), 1e-12
        )
        rep = restriction_double_commutation(handle, 1e-10)
        assert rep.passed

    def test_product_submodule_passes(self):
        b = enumerate_basis(2, 16, 1)
        op = inner_symbol_operator({1: phi(0.45)}, b)
        handle = submodule_from_inner(op, 1e-6, input_cutoff=7)
        rep = restriction_double_commutation(handle, 1e-6)
        assert rep.max_cross_commutator <= 1e-6
        assert rep.passed

    def test_two_generator_fixture_fails(self):
        b = enumerate_basis(2, 6, 1)
        gens = [monomial_vector(b, (1, 0)), monomial_vector(b, (0, 1))]
        handle = submodule_from_generators(gens, b, cutoff=5)
        rep = restriction_double_commutation(handle, 1e-10)
        assert rep.max_cross_commutator >= 0.1
        assert not rep.passed

    def test_counterexample_probes_are_orthonormal(self, monkeypatch):
        # on the counterexample's monomial section and on an inner section
        # the probes are orthonormal, so each residual (the bundled 1.0
        # among them) is a true restricted norm
        seen = []

        def recorded(mats, probes):
            seen.append(probes)
            return norms(mats, probes)

        norms = submodules._commutator_norms
        monkeypatch.setattr(submodules, "_commutator_norms", recorded)
        p = GeneratorParams(num_vars=2, coeff_dim=2, truncation_degree=8)
        out = REGISTRY["double-commutation-counterexample"].run(np.random.default_rng(0), p, 1e-10)
        assert out.passed and len(seen) == 1
        b = enumerate_basis(2, 16, 1)
        handle = submodule_from_inner(inner_symbol_operator({1: phi(0.45)}, b), 1e-6, input_cutoff=7)
        assert restriction_double_commutation(handle, 1e-6).passed and len(seen) == 2
        for probes in seen:
            gram = adjoint(probes) @ probes
            assert np.abs(gram - np.eye(gram.shape[0])).max() <= 1e-12


class TestWanderingExtraction:
    def test_z_squared_generator(self):
        b = enumerate_basis(1, 10, 1)
        op = one_variable_symbol(1, [0, 0, 1.0], b)
        handle = submodule_from_inner(op, 1e-10, hint={1: Z2})
        res = wandering_generator_extract(handle)
        assert res.wandering_dim == 1
        assert res.max_deviation <= 1e-10

    def test_full_space_constant_generator(self):
        b = enumerate_basis(2, 6, 1)
        op = one_variable_symbol(1, [1.0], b)
        handle = submodule_from_inner(op, 1e-12)
        res = wandering_generator_extract(handle)
        nz = np.abs(res.generator.coefficients) > 1e-10
        assert nz.sum() == 1 and nz[0]

    def test_mobius_generator_recovered(self):
        d = 30
        b = enumerate_basis(1, d, 1)
        hint = {1: phi(0.5)}
        op = inner_symbol_operator(hint, b)
        handle = submodule_from_inner(op, 1e-6, hint=hint, input_cutoff=10)
        res = wandering_generator_extract(handle)
        assert abs(abs(res.unimodular) - 1.0) <= 1e-12
        assert res.max_deviation <= 1e-7

    def test_cross_variable_product_recovered(self):
        d = 30
        b = enumerate_basis(2, d, 1)
        hint = {1: phi(0.45), 2: phi(-0.3)}
        op = inner_symbol_operator(hint, b)
        handle = submodule_from_inner(op, 1e-6, hint=hint, input_cutoff=9)
        res = wandering_generator_extract(handle)
        assert res.max_deviation <= 1e-7

    def test_degree_three_one_variable(self):
        d = 30
        b = enumerate_basis(1, d, 1)
        eta = BlaschkeProduct(np.exp(0.4j), (0.45, -0.2, 0.3j))
        hint = {1: eta}
        op = inner_symbol_operator(hint, b)
        handle = submodule_from_inner(op, 1e-6, hint=hint, input_cutoff=10)
        res = wandering_generator_extract(handle)
        assert res.max_deviation <= 1e-7

    #: the beurling-extraction fixtures at degree 30: (hint, max_deviation);
    #: the generator's phase makes the unimodular -|theta(0)| / theta(0)
    BEURLING = [
        ({1: phi(0.45)}, 3.510833468576701e-16),
        ({1: BlaschkeProduct(np.exp(0.7j), (0.4, -0.25, 0.3j))}, 1.716587549445839e-16),
        ({1: phi(0.45), 2: phi(-0.35)}, 3.9739936517281115e-16),
    ]

    @pytest.mark.parametrize(
        "hint, deviation", BEURLING, ids=["one-zero", "three-zeros", "two-variable"]
    )
    def test_beurling_fixtures_pinned(self, hint, deviation):
        b = enumerate_basis(2, 30, 1)
        op = inner_symbol_operator(hint, b)
        # the hint's coefficients are the operator's first column: the
        # factors applied one by one to the constant 1
        vec = monomial_vector(b, (0, 0)).coefficients
        for var, eta in hint.items():
            vec = one_variable_symbol(var, eta.coefficients(b.max_degree), b).matrix @ vec
        np.testing.assert_array_equal(op.matrix[:, 0].toarray().ravel(), vec)
        handle = submodule_from_inner(op, 1e-6, hint=hint, input_cutoff=9)
        res = wandering_generator_extract(handle)
        theta0 = np.prod([eta(0.0) for eta in hint.values()])
        assert res.unimodular == pytest.approx(-abs(theta0) / theta0, abs=1e-12)
        # round-off: the wandering space keeps theta exactly
        assert res.max_deviation == pytest.approx(deviation, rel=1e-6, abs=1e-15)

    def test_extraction_builds_each_hint_operator_once(self, monkeypatch):
        # the handle keeps the hint's coefficients, so beurling-extraction
        # builds one operator per fixture and the extraction builds none
        hints = []
        build = submodules.inner_symbol_operator

        def counted(hint, basis):
            hints.append(hint)
            return build(hint, basis)

        monkeypatch.setattr(submodules, "inner_symbol_operator", counted)
        out = REGISTRY["beurling-extraction"].run(np.random.default_rng(0), GeneratorParams(), 1e-7)
        assert out.passed and len(hints) == 3

    def test_ambiguous_for_two_generator_fixture(self):
        b = enumerate_basis(2, 8, 1)
        gens = [monomial_vector(b, (1, 0)), monomial_vector(b, (0, 1))]
        handle = submodule_from_generators(gens, b, cutoff=7)
        with pytest.raises(AmbiguousWandering):
            wandering_generator_extract(handle)

    def test_wandering_regenerates_section(self):
        # Beurling behavior: the extracted generator regenerates the
        # section on shared degrees
        d = 24
        b = enumerate_basis(1, d, 1)
        hint = {1: phi(0.4)}
        op = inner_symbol_operator(hint, b)
        cutoff = 8
        handle = submodule_from_inner(op, 1e-6, hint=hint, input_cutoff=cutoff)
        res = wandering_generator_extract(handle)
        regen = submodule_from_generators([res.generator], b, cutoff=cutoff)
        assert regen.space.dim == handle.space.dim
        assert subspace_distance(handle.space, regen.space) <= 1e-6


#: (hint, variables, degree, input cutoff): the three beurling-extraction
#: fixtures, then a three-variable product at d = 24
EXTRACTION_CASES = [
    ({1: phi(0.45)}, 2, 30, 9),
    ({1: BlaschkeProduct(np.exp(0.7j), (0.4, -0.25, 0.3j))}, 2, 30, 9),
    ({1: phi(0.45), 2: phi(-0.35)}, 2, 30, 9),
    ({1: phi(0.45), 2: phi(-0.35), 3: phi(0.25 + 0.2j)}, 3, 24, 6),
]
EXTRACTION_IDS = ["one-zero", "three-zeros", "two-variable", "three-variable"]


def _extraction_handle(hint, n, d, cutoff):
    op = inner_symbol_operator(hint, enumerate_basis(n, d, 1))
    return submodule_from_inner(op, 1e-6, hint=hint, input_cutoff=cutoff)


#: acceptance criterion 8's five fixtures (d = 30, input cutoff 9), then
#: the three-variable extraction case
FLOOR_CASES = [
    ({1: phi(0.45)}, 1, 30, 9),
    ({1: Z2}, 1, 30, 9),
    ({1: BlaschkeProduct(np.exp(0.7j), (0.4, -0.25, 0.3j))}, 1, 30, 9),
    ({1: phi(0.45), 2: phi(-0.35)}, 2, 30, 9),
    ({2: BlaschkeProduct(1.0, (0.3j, 0.2))}, 2, 30, 9),
    EXTRACTION_CASES[3],
]
FLOOR_IDS = [
    "one-zero", "double-zero", "three-zeros", "two-variable", "second-variable", "three-variable"
]


class TestExtractionAcrossRankFloors:
    """The extraction's verdict does not hang on RANK_FLOOR: its one QR
    has one pivot of O(1) and the rest at round-off, so a floor from 10x
    below to 1000x above keeps wandering dimension 1, the unimodular and a
    deviation at round-off."""

    @pytest.mark.parametrize("floor", [1e-7, 1e-5, 1e-4, 1e-3])
    @pytest.mark.parametrize("hint, n, d, cutoff", FLOOR_CASES, ids=FLOOR_IDS)
    def test_verdict_holds_at_other_floors(self, monkeypatch, floor, hint, n, d, cutoff):
        at_floor = wandering_generator_extract(_extraction_handle(hint, n, d, cutoff))
        monkeypatch.setattr(linops, "RANK_FLOOR", floor)
        res = wandering_generator_extract(_extraction_handle(hint, n, d, cutoff))
        assert res.wandering_dim == 1
        assert abs(res.unimodular - at_floor.unimodular) <= 1e-12
        assert res.max_deviation <= 1e-14


class TestExtractionInSectionCoordinates:
    """The s-row extraction against the same route on N rows."""

    @pytest.mark.parametrize("hint, n, d, cutoff", EXTRACTION_CASES, ids=EXTRACTION_IDS)
    def test_matches_the_row_extraction(self, hint, n, d, cutoff):
        handle = _extraction_handle(hint, n, d, cutoff)
        got = wandering_generator_extract(handle)
        want = wandering_generator_extract_rows(handle)
        np.testing.assert_allclose(
            got.generator.coefficients, want.generator.coefficients, rtol=0, atol=1e-13
        )
        assert abs(got.unimodular - want.unimodular) <= 1e-13
        assert abs(got.max_deviation - want.max_deviation) <= 1e-13

    @pytest.mark.parametrize("hint, n, d, cutoff", EXTRACTION_CASES, ids=EXTRACTION_IDS)
    def test_defect_product_keeps_one_direction(self, hint, n, d, cutoff):
        # the section is spanned by theta zeta^beta, so prod_k (I - R_k R_k*)
        # on the probes keeps theta alone: one pivot of O(1), the rest at
        # round-off, far from RANK_FLOOR on either side
        handle = _extraction_handle(hint, n, d, cutoff)
        probes = adjoint(_low_rows(handle, _EXTRACTION_SLACK))
        x = defect_product(_restricted_shifts(handle.space.basis, handle.basis), probes)
        pivots = np.abs(scipy.linalg.qr(x, mode="r", pivoting=True)[0].diagonal())
        assert pivots[0] >= 0.5 and pivots[1:].max() <= 1e-11

    @pytest.mark.parametrize("hint, n, d, cutoff", EXTRACTION_CASES, ids=EXTRACTION_IDS)
    def test_no_qr_sees_more_than_the_section_rows(self, monkeypatch, hint, n, d, cutoff):
        handle = _extraction_handle(hint, n, d, cutoff)
        rows = []

        def guarded(vectors):
            rows.append(np.shape(vectors)[0])
            return orthonormalize(vectors)

        for module in (hardy, submodules):
            monkeypatch.setattr(module, "orthonormalize", guarded)
        wandering_generator_extract(handle)
        assert len(rows) == 1 and rows[0] <= handle.space.dim

    def test_sign_of_a_generator_with_imaginary_constant_term(self):
        # theta(0) = 0.45 * -0.35 * 0.3j has no real part; the phase turns the
        # generator's constant term, not only its sign, to the negative axis
        hint = {1: phi(0.45), 2: phi(-0.35), 3: phi(0.3j)}
        res = wandering_generator_extract(_extraction_handle(hint, 3, 24, 6))
        g = res.generator.coefficients
        assert g[0].real < -0.04 and abs(g[0].imag) <= 1e-15
        assert res.unimodular == pytest.approx(-1j, abs=1e-12)  # -|theta(0)| / theta(0)

    def test_shallow_section_is_unsafe(self):
        # safe degree 0 leaves no low part below the extraction slack
        hint = {1: phi(0.5)}
        handle = _extraction_handle(hint, 1, 10, 0)
        assert handle.safe_degree == 0
        with pytest.raises(UnsafeDegree):
            wandering_generator_extract(handle)


class TestModelSpaceSection:
    def test_monomial_zeros(self):
        sec = model_space_section(Z2, 4)
        assert sec.shape == (5, 2)
        np.testing.assert_allclose(abs(sec[0, 0]), 1.0, atol=1e-14)

    def test_mobius_kernel_column(self):
        sec = model_space_section(phi(0.5), 6)
        col = sec[:, 0]
        want = 0.5 ** np.arange(7)
        want = want / np.linalg.norm(want)
        np.testing.assert_allclose(np.abs(col), want, atol=1e-12)

    def test_repeated_zero_derivative_kernel(self):
        eta = BlaschkeProduct(1.0, (0.4, 0.4))
        sec = model_space_section(eta, 8)
        assert sec.shape[1] == 2
        g = sec.conj().T @ sec
        np.testing.assert_allclose(g, np.eye(2), atol=1e-12)


class TestQuotientTensor:
    def test_single_z_constants(self):
        b = enumerate_basis(1, 4, 1)
        handle = quotient_tensor_build([Z], b)
        assert handle.dim == 1
        comp = handle.compressions[0]
        assert operator_norm(comp) <= 1e-14  # 1x1 nilpotent

    def test_z_squared_jordan_block(self):
        b = enumerate_basis(1, 6, 1)
        handle = quotient_tensor_build([Z2], b)
        assert var_caps(handle) == (5,)
        assert handle.dim == 2
        comp = handle.compressions[0]
        want = np.array([[0.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(np.abs(comp), want, atol=1e-12)
        assert operator_norm(comp @ comp) <= 1e-14

    def test_mixed_tensor_structure(self):
        b = enumerate_basis(2, 12, 1)
        inner = [Z2, phi(0.5)]
        handle = quotient_tensor_build(inner, b)
        for k in (1, 2):
            want = expected_tensor_compression(handle, k)
            np.testing.assert_allclose(handle.compressions[k - 1], want, atol=1e-10)
        # variable 1 compression is (2x2 nilpotent) tensor identity
        c1 = handle.compressions[0]
        assert operator_norm(c1 @ c1) <= 1e-12

    def test_compressions_are_the_restricted_shifts(self):
        # Q* S_k Q of the quotient section, by the restricted shifts' routine
        b = enumerate_basis(2, 12, 1)
        handle = quotient_tensor_build([Z2, phi(0.5)], b)
        want = _restricted_shifts(handle.space.basis, b)
        assert [c.tobytes() for c in handle.compressions] == [w.tobytes() for w in want]

    def test_budget_overflow(self):
        # two z^2 sections need degree 1 each, one more than a degree-2 basis holds
        b = enumerate_basis(2, 2, 1)
        with pytest.raises(DegreeOverflow):
            quotient_tensor_build([Z2, Z2], b)

    @pytest.mark.parametrize("inner", [[], [Z2], [Z2, Z, Z]])
    def test_needs_one_inner_factor_per_variable(self, inner):
        with pytest.raises(DimensionMismatch, match="one inner factor per variable: 2, got"):
            quotient_tensor_build(inner, enumerate_basis(2, 10, 1))

    def test_handle_carries_its_sections(self):
        b = enumerate_basis(2, 12, 1)
        inner = [Z2, phi(0.5)]
        handle = quotient_tensor_build(inner, b)
        assert len(handle.sections) == 2
        for eta, c, sec in zip(inner, var_caps(handle), handle.sections):
            np.testing.assert_array_equal(sec, model_space_section(eta, c))


def _tensor_columns_reference(basis, sections):
    """Columns prod_i sections[i][:, j_i](zeta_i) by dict lookup, the
    section indices j lexicographic."""
    index = {tuple(int(a) for a in alpha): i for i, alpha in enumerate(basis.exponents)}
    cols = []
    for js in itertools.product(*(range(s.shape[1]) for s in sections)):
        col = np.zeros(basis.size, dtype=complex)
        for ps in itertools.product(*(range(s.shape[0]) for s in sections)):
            if ps in index:
                col[index[ps]] = np.prod([s[p, j] for s, p, j in zip(sections, ps, js)])
        cols.append(col)
    return np.column_stack(cols)


class TestTensorColumns:
    @pytest.mark.parametrize(
        "num_vars, d, inner",
        [(1, 6, [Z2]), (2, 12, [Z2, phi(0.5)]), (2, 10, [Z2, Z]), (3, 9, [phi(0.3), Z, Z2])],
    )
    def test_quotient_section_matches_reference(self, num_vars, d, inner):
        b = enumerate_basis(num_vars, d, 1)
        handle = quotient_tensor_build(inner, b)
        sections = [model_space_section(eta, c) for eta, c in zip(inner, var_caps(handle))]
        want = _tensor_columns_reference(b, sections)
        np.testing.assert_array_equal(handle.space.basis, want)

    def test_helper_drops_terms_beyond_truncation(self):
        rng = np.random.default_rng(5)
        b = enumerate_basis(3, 5, 1)
        sections = [rng.standard_normal(shape) for shape in ((4, 2), (3, 2), (3, 1))]
        want = _tensor_columns_reference(b, sections)
        np.testing.assert_array_equal(_tensor_columns(b, sections), want)

    def test_projector_formula_matches_reference(self):
        b = enumerate_basis(3, 12, 1)
        inner = [phi(0.4), Z2, Z]
        handle = quotient_tensor_build(inner, b)
        formula, _, _ = projector_product_check(handle, (1, 1, 2))
        sections = [model_space_section(eta, c) for eta, c in zip(inner, var_caps(handle))]
        per_var = []
        for a, sec in zip((1, 1, 2), sections):
            mono = np.zeros(sec.shape[0], dtype=complex)
            mono[a] = 1.0
            per_var.append(sec @ (sec.conj().T @ mono))
        want = _tensor_columns_reference(b, [v[:, None] for v in per_var])
        np.testing.assert_allclose(formula.coefficients, want[:, 0], atol=1e-15)


class TestGeneratorOrbitRanks:
    @pytest.mark.parametrize(
        "d, cutoff, dims", [(6, 5, (27, 21, 21)), (8, 3, (14, 10, 10)), (8, 8, (44, 36, 45))]
    )
    def test_orbit_dimensions(self, d, cutoff, dims):
        # monomials z1, z2; the difference generator; 1 + z1 z2 / 2 - 0.3 z2^2
        b = enumerate_basis(2, d, 1)
        z1, z2 = monomial_vector(b, (1, 0)), monomial_vector(b, (0, 1))
        diff = HardyVector(b, (z1.coefficients - z2.coefficients) / np.sqrt(2))
        poly = HardyVector(
            b,
            monomial_vector(b, (0, 0)).coefficients
            + 0.5 * monomial_vector(b, (1, 1)).coefficients
            - 0.3 * monomial_vector(b, (0, 2)).coefficients,
        )
        gens = ([z1, z2], [diff], [poly])
        got = tuple(submodule_from_generators(g, b, cutoff).space.dim for g in gens)
        assert got == dims


def _complement_handle(sub):
    """Orthocomplement of a submodule section inside its safe degrees, with
    the compressed shifts."""
    basis = sub.basis
    probes = np.eye(basis.size, dtype=complex)[:, basis.degree_selector(sub.safe_degree)]
    b = sub.space.basis
    space = orthonormalize(probes - b @ (adjoint(b) @ probes))
    compressions = tuple(
        adjoint(space.basis) @ (shift(k, basis).matrix @ space.basis)
        for k in range(1, basis.num_vars + 1)
    )
    return QuotientHandle(basis, space, compressions, sub.safe_degree)


class TestCompressionDoubleCommutation:
    def test_full_space(self):
        b = enumerate_basis(2, 6, 1)
        # zero symbol gives the zero submodule; complement is everything
        sub = submodule_from_inner(one_variable_symbol(1, [0.0], b), 1.0, input_cutoff=5)
        handle = _complement_handle(sub)
        assert handle.dim == 21  # every monomial of degree <= 5
        rep = compression_double_commutation(handle, 1e-10)
        assert rep.passed

    def test_tensor_quotient_passes(self):
        b = enumerate_basis(2, 12, 1)
        handle = quotient_tensor_build([Z2, phi(0.4)], b)
        rep = compression_double_commutation(handle, 1e-10)
        assert rep.max_cross_commutator <= 1e-10
        assert rep.passed

    def test_column_degrees_match_loop(self):
        b = enumerate_basis(2, 12, 1)
        tensor = quotient_tensor_build([Z2, phi(0.4)], b)
        full = _complement_handle(
            submodule_from_inner(one_variable_symbol(1, [0.0], b), 1.0, input_cutoff=5)
        )
        # a zero column and a column below the 1e-13 floor both read degree 0
        tiny = np.zeros((b.size, 2), dtype=complex)
        tiny[-1, 1] = 1e-14
        cols = np.hstack([tensor.space.basis, tiny])
        padded = types.SimpleNamespace(basis=b, space=types.SimpleNamespace(basis=cols), dim=cols.shape[1])
        for handle in (tensor, full, padded):
            got = handle.basis.column_degrees(handle.space.basis)
            np.testing.assert_array_equal(got, column_degrees(handle))
        assert list(b.column_degrees(cols)[-2:]) == [0, 0]

    def test_difference_generator_fails(self):
        b = enumerate_basis(2, 6, 1)
        g = monomial_vector(b, (1, 0)).coefficients - monomial_vector(b, (0, 1)).coefficients
        sub = submodule_from_generators([HardyVector(b, g / np.sqrt(2))], b, cutoff=5)
        handle = _complement_handle(sub)
        rep = compression_double_commutation(handle, 1e-6)
        assert not rep.passed
        assert rep.max_cross_commutator > 1e-2


class TestKernelFixedPoint:
    def test_shift_symbols_at_origin(self):
        b = enumerate_basis(2, 8, 1)
        residual, tail = kernel_fixed_point_residual([Z, Z], (0.0, 0.0), b)
        assert residual <= 1e-13

    def test_single_shift_geometric_tail(self):
        d = 30
        b = enumerate_basis(1, d, 1)
        residual, tail = kernel_fixed_point_residual([Z], (0.5,), b)
        assert tail >= abs(0.5) ** 29 - 1e-18
        assert residual <= tail + 1e-12

    def test_mobius_symbol(self):
        d = 24
        b = enumerate_basis(1, d, 1)
        eta = phi(0.3)
        mu = eta(0.5)
        assert abs(mu - mobius_scalar(0.3, 0.5)) <= 1e-15
        residual, tail = kernel_fixed_point_residual([eta], (0.5,), b)
        assert residual <= 10 * tail + 1e-10

    def test_matches_dense_mobius(self):
        # the multiplier of the composed series against phi_mu applied to the
        # dense truncated multiplier, the formula it replaces
        b = enumerate_basis(2, 20, 1)
        symbols = [BlaschkeProduct(1.0, (0.3, -0.2j)), BlaschkeProduct(1.0, (0.5,))]
        lam = (0.4, -0.3)
        residual, tail = kernel_fixed_point_residual(symbols, lam, b)
        kv = kernel_vector(lam, b).coefficients
        v = kv.copy()
        for k, eta in enumerate(symbols, start=1):
            mat = one_variable_symbol(k, eta.coefficients(20), b).dense()
            assert operator_norm(mat) <= 1.0 + 1e-12
            w = mobius(mat, eta(lam[k - 1]))
            v = v - w @ (adjoint(w) @ v)
        assert abs(residual - np.linalg.norm(v - kv)) <= 1e-14
        assert abs(residual - 1.0179e-09) <= 1e-12
        assert abs(tail - 6.87e-08) <= 1e-10

    def test_boundary_value_raises(self):
        b = enumerate_basis(1, 8, 1)
        with pytest.raises(DimensionMismatch):
            kernel_fixed_point_residual([BlaschkeProduct(-1.0, ())], (0.5,), b)

    def test_series_division_is_the_one_resolvent(self, monkeypatch):
        # each symbol's series (mu - f) / (1 - conj(mu) f) is one
        # linops.apply_shifted_inverse of its Toeplitz multiplier
        calls = []

        def counted(t, z, rhs):
            calls.append(z)
            return linops.apply_shifted_inverse(t, z, rhs)

        monkeypatch.setattr(submodules, "apply_shifted_inverse", counted)
        b = enumerate_basis(2, 20, 1)
        symbols = [BlaschkeProduct(1.0, (0.3, -0.2j)), BlaschkeProduct(1.0, (0.5,))]
        residual, _ = kernel_fixed_point_residual(symbols, (0.4, -0.3), b)
        assert calls == [np.conj(symbols[0](0.4)), np.conj(symbols[1](-0.3))]
        assert abs(residual - 1.0179e-09) <= 1e-12


class TestProjectorProduct:
    def test_z_alpha_zero(self):
        b = enumerate_basis(1, 4, 1)
        formula, direct, dist = projector_product_check(quotient_tensor_build([Z], b), (0,))
        assert dist <= 1e-13
        np.testing.assert_allclose(
            formula.coefficients, monomial_vector(b, (0,)).coefficients, atol=1e-13
        )

    def test_z_squared_alpha_one(self):
        b = enumerate_basis(1, 6, 1)
        handle = quotient_tensor_build([Z2], b)
        formula, direct, dist = projector_product_check(handle, (1,))
        assert dist <= 1e-13
        np.testing.assert_allclose(
            formula.coefficients, monomial_vector(b, (1,)).coefficients, atol=1e-13
        )

    def test_mobius_constant_projection(self):
        b = enumerate_basis(1, 25, 1)
        formula, direct, dist = projector_product_check(quotient_tensor_build([phi(0.5)], b), (0,))
        assert dist <= 1e-10

    def test_two_variable_product(self):
        b = enumerate_basis(2, 14, 1)
        inner = [phi(0.4), Z2]
        handle = quotient_tensor_build(inner, b)
        formula, direct, dist = projector_product_check(handle, (1, 1))
        assert dist <= 1e-10

    def test_overflow(self):
        b = enumerate_basis(1, 6, 1)
        handle = quotient_tensor_build([Z2], b)  # section degree 5
        projector_product_check(handle, (5,))
        with pytest.raises(DegreeOverflow):
            projector_product_check(handle, (6,))

    @pytest.mark.parametrize("alpha", [(1,), (1, 0, 0)])
    def test_exponent_needs_one_entry_per_variable(self, alpha):
        handle = quotient_tensor_build([phi(0.4), Z2], enumerate_basis(2, 8, 1))
        with pytest.raises(DimensionMismatch, match="needs 2 entries"):
            projector_product_check(handle, alpha)


class TestParityJointDefect:
    def test_low_degree_monomials_vanish(self):
        # once all n factors are applied the joint defect projection kills
        # every monomial of degree below n
        n, d = 4, 6
        b = enumerate_basis(n, d, 1)
        ops = [parity_shift(k, b) for k in range(1, n + 1)]
        for alpha in [(0, 0, 0, 0), (1, 0, 0, 0), (2, 1, 0, 0), (1, 1, 1, 0)]:
            v = monomial_vector(b, alpha).coefficients
            for op in ops:
                m = op.matrix
                v = v - m @ (m.conj().T @ v)
            assert np.linalg.norm(v) <= 1e-12
