import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from _references import (
    assemble_per_term,
    check_window,
    defect_transfer_loop,
    half_product,
    kernel_fixed_point_loop,
    operator_adjoint,
    parity_defect_norms_loop,
    projector,
    wandering_defect_loop,
)

from hardymodel import charfn, checks, hardy
from hardymodel.checks import GeneratorParams
from hardymodel.contraction import BlaschkeProduct, MoebiusPoint, mobius_series, tensor_tuple
from hardymodel.dilation import canonical_embedding, defect_transfer_check
from hardymodel.errors import DegreeOverflow, DimensionMismatch, SizeOverflow
from hardymodel.hardy import (
    HardyBasis,
    HardyOperator,
    HardyVector,
    _assembly_plan,
    enumerate_basis,
    evaluate,
    is_inner_on_truncation,
    kernel_vector,
    mobius_partial_product,
    monomial_vector,
    mult_operator,
    one_variable_symbol,
    parity_shift,
    shift,
    wandering_subspace,
)
from hardymodel.linops import adjoint, operator_norm, orthonormalize
from hardymodel.submodules import kernel_fixed_point_residual


class TestEnumerateBasis:
    def test_one_variable(self):
        b = enumerate_basis(1, 3, 1)
        assert b.size == 4
        assert [tuple(r) for r in b.exponents] == [(0,), (1,), (2,), (3,)]

    def test_two_variables(self):
        b = enumerate_basis(2, 2, 1)
        assert b.size == math.comb(4, 2) == 6

    def test_coeff_slots(self):
        b = enumerate_basis(2, 1, 3)
        assert b.size == 9

    def test_graded_lex_order(self):
        b = enumerate_basis(2, 2, 1)
        assert [tuple(r) for r in b.exponents] == [
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
        ]

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("HARDYMODEL_BASIS_CAP", "10")
        with pytest.raises(SizeOverflow):
            enumerate_basis(3, 5, 1)

    @given(n=st.integers(1, 5), d=st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_stable_indexing(self, n, d):
        b = enumerate_basis(n, d, 2)
        np.testing.assert_array_equal(b.rank(b.exponents), np.arange(b.num_monomials))
        for i in range(0, b.num_monomials, max(1, b.num_monomials // 20)):
            assert b.rank(b.exponents[i]) == i
            v = monomial_vector(b, b.exponents[i], 1)
            assert np.flatnonzero(v.coefficients).tolist() == [2 * i + 1]

    @given(n=st.integers(1, 4), d=st.integers(0, 8))
    @settings(max_examples=30, deadline=None)
    def test_order_matches_recursive_reference(self, n, d):
        rows = []

        def fill(prefix, remaining):
            if len(prefix) == n - 1:
                rows.append(prefix + [remaining])
                return
            for a in range(remaining, -1, -1):
                fill(prefix + [a], remaining - a)

        for deg in range(d + 1):
            fill([], deg)
        np.testing.assert_array_equal(enumerate_basis(n, d, 1).exponents, np.array(rows))

    def test_cached_exponents_are_read_only(self):
        # every enumerate_basis(2, 3) shares one array; a write would reach them all
        b = enumerate_basis(2, 3, 1)
        with pytest.raises(ValueError):
            b.exponents[1] = [3, 0]
        np.testing.assert_array_equal(enumerate_basis(2, 3, 2).exponents[1], [1, 0])

    def test_rank_rejects_exponents_outside_the_basis(self):
        b = enumerate_basis(2, 3, 1)
        with pytest.raises(DegreeOverflow):
            b.rank([[2, 2]])
        with pytest.raises(DegreeOverflow):
            b.rank((-1, 1))
        with pytest.raises(DimensionMismatch):
            b.rank((1, 0, 0))


class TestShift:
    def test_adjoint_kills_constants(self):
        b = enumerate_basis(1, 4, 1)
        op = shift(1, b)
        out = op.apply_adjoint(monomial_vector(b, (0,)))
        assert np.linalg.norm(out.coefficients) == 0.0

    def test_cross_variable(self):
        b = enumerate_basis(2, 3, 1)
        out = shift(1, b).apply(monomial_vector(b, (0, 1)))
        np.testing.assert_allclose(out.coefficients, monomial_vector(b, (1, 1)).coefficients)

    def test_isometric_below_top_degree(self):
        b = enumerate_basis(2, 3, 2)
        op = shift(2, b)
        g = adjoint(op.dense()) @ op.dense()
        top = (b.flat_degrees() == b.max_degree).astype(float)
        np.testing.assert_allclose(g, np.eye(b.size) - np.diag(top), atol=1e-14)

    def test_window_declared_correctly(self):
        b = enumerate_basis(2, 3, 1)
        assert check_window(shift(1, b)) == 0.0
        assert check_window(operator_adjoint(shift(1, b))) == 0.0

    def test_basis_with_its_own_exponent_array(self):
        # enumerate_basis stops caching after 64 (n, d) keys, so equal bases
        # may hold distinct exponent arrays; (n, d, e) alone decide equality
        b = enumerate_basis(2, 3, 1)
        other = HardyBasis(2, 3, 1, b.exponents.copy())
        assert other == b and other != enumerate_basis(2, 3, 2)
        out = shift(1, b).apply(monomial_vector(other, (0, 1)))
        np.testing.assert_array_equal(out.coefficients, monomial_vector(b, (1, 1)).coefficients)


class TestBasisMismatch:
    """Operators refuse vectors and factors over another basis, even one of
    the same size (both bases below have 6 elements)."""

    two_vars = enumerate_basis(2, 2, 1)
    one_var = enumerate_basis(1, 5, 1)

    def test_apply_rejects_same_size_basis(self):
        with pytest.raises(DimensionMismatch):
            shift(1, self.two_vars).apply(monomial_vector(self.one_var, (3,)))

    def test_apply_adjoint_rejects_same_size_basis(self):
        with pytest.raises(DimensionMismatch):
            shift(1, self.two_vars).apply_adjoint(monomial_vector(self.one_var, (3,)))

    def test_apply_adjoint_rejects_other_size(self):
        with pytest.raises(DimensionMismatch):
            shift(1, enumerate_basis(1, 3, 1)).apply_adjoint(monomial_vector(self.one_var, (0,)))

    def test_compose_rejects_same_size_basis(self):
        with pytest.raises(DimensionMismatch):
            shift(1, self.two_vars).compose(shift(1, self.one_var))


def _reference_matrix(basis_in, basis_out, terms):
    """Dense matrix of a sum of monomial maps, one dict lookup per monomial.

    Each term (move, c) sends the monomial alpha to move(alpha) tensored with
    the coefficient block c, and drops targets beyond the truncation.
    """
    index_of = {tuple(int(a) for a in row): i for i, row in enumerate(basis_in.exponents)}
    e_in, e_out = basis_in.coeff_dim, basis_out.coeff_dim
    out = np.zeros((basis_out.size, basis_in.size), dtype=complex)
    for move, c in terms:
        for i, alpha in enumerate(basis_in.exponents):
            target = move(tuple(int(a) for a in alpha))
            if sum(target) > basis_in.max_degree:
                continue
            j = index_of[target]
            out[j * e_out : (j + 1) * e_out, i * e_in : (i + 1) * e_in] += c
    return out


def _bump(k, step):
    return lambda alpha: tuple(a + (step(a) if v == k - 1 else 0) for v, a in enumerate(alpha))


_ASSEMBLY_SIZES = [(1, 7, 1), (2, 6, 1), (2, 4, 3), (3, 5, 2), (4, 3, 1)]


class TestAssemblyAgainstReference:
    """shift, parity_shift and mult_operator match the dict-lookup reference
    exactly, bit for bit."""

    @pytest.mark.parametrize("n,d,e", _ASSEMBLY_SIZES)
    def test_shift(self, n, d, e):
        b = enumerate_basis(n, d, e)
        for k in range(1, n + 1):
            want = _reference_matrix(b, b, [(_bump(k, lambda a: 1), np.eye(e))])
            assert np.array_equal(shift(k, b).dense(), want)

    @pytest.mark.parametrize("n,d,e", _ASSEMBLY_SIZES)
    def test_parity_shift(self, n, d, e):
        b = enumerate_basis(n, d, e)
        for k in range(1, n + 1):
            move = _bump(k, lambda a: 3 if a % 2 == 0 else -1)
            want = _reference_matrix(b, b, [(move, np.eye(e))])
            assert np.array_equal(parity_shift(k, b).dense(), want)

    @pytest.mark.parametrize("n,d,e", _ASSEMBLY_SIZES)
    def test_mult_operator(self, n, d, e):
        rng = np.random.default_rng(n * 100 + d * 10 + e)
        b_in, b_out = enumerate_basis(n, d, e), enumerate_basis(n, d, e + 1)
        b_in_exps = enumerate_basis(n, min(d, 3), 1).exponents
        symbol = {}
        for beta in b_in_exps[rng.choice(len(b_in_exps), size=min(5, len(b_in_exps)), replace=False)]:
            c = rng.standard_normal((e + 1, e)) + 1j * rng.standard_normal((e + 1, e))
            c[rng.random(c.shape) < 0.3] = 0.0  # zero entries are not stored
            symbol[tuple(int(x) for x in beta)] = c
        symbol[(0,) * n] = np.zeros((e + 1, e))  # an all-zero term is dropped
        terms = [
            (lambda alpha, beta=beta: tuple(a + x for a, x in zip(alpha, beta)), c)
            for beta, c in symbol.items()
        ]
        want = _reference_matrix(b_in, b_out, terms)
        assert np.array_equal(mult_operator(symbol, b_in, b_out).dense(), want)


def _assert_same_csr(got, want):
    """Same shape, index arrays and data, bit for bit (dtype included)."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _bumped(b, k, step):
    target = b.exponents.copy()
    target[:, k - 1] = step(target[:, k - 1])
    return target


class TestAssemblyMatchesPerTermLoop:
    """Operators built from cached plans have the indptr, indices and data
    of the per-term COO loop after scipy's conversion to CSR, bit for bit:
    rows in order, columns ascending within a row."""

    @pytest.mark.parametrize("n,d,e", [(1, 6, 1), (2, 5, 2), (3, 4, 1), (3, 3, 3)])
    def test_shifts(self, n, d, e):
        b = enumerate_basis(n, d, e)
        for k in range(1, n + 1):
            want = assemble_per_term(b, b, [(_bumped(b, k, lambda j: j + 1), np.eye(e))])
            _assert_same_csr(shift(k, b).matrix, want)
            parity = _bumped(b, k, lambda j: np.where(j % 2 == 0, j + 3, j - 1))
            _assert_same_csr(parity_shift(k, b).matrix, assemble_per_term(b, b, [(parity, np.eye(e))]))

    @pytest.mark.parametrize("n,d,e_in,e_out", [(1, 7, 1, 2), (2, 5, 2, 1), (2, 4, 3, 2), (3, 4, 2, 3)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mult_operator(self, n, d, e_in, e_out, seed):
        rng = np.random.default_rng([seed, n, d, e_in, e_out])
        b_in, b_out = enumerate_basis(n, d, e_in), enumerate_basis(n, d, e_out)
        exps = enumerate_basis(n, d, 1).exponents  # up to degree d: many targets are dropped
        symbol = {}
        for beta in exps[rng.choice(len(exps), size=min(6, len(exps)), replace=False)]:
            c = rng.standard_normal((e_out, e_in)) + 1j * rng.standard_normal((e_out, e_in))
            c[rng.random(c.shape) < 0.4] = 0.0  # zero block entries are not stored
            symbol[tuple(int(x) for x in beta)] = c
        terms = [(b_in.exponents + np.array(beta), c) for beta, c in symbol.items() if np.any(c)]
        _assert_same_csr(mult_operator(symbol, b_in, b_out).matrix, assemble_per_term(b_in, b_out, terms))

    def test_empty_symbol(self):
        b_in, b_out = enumerate_basis(2, 3, 2), enumerate_basis(2, 3, 1)
        want = assemble_per_term(b_in, b_out, [])
        _assert_same_csr(mult_operator({}, b_in, b_out).matrix, want)
        _assert_same_csr(mult_operator({(1, 0): np.zeros((1, 2))}, b_in, b_out).matrix, want)

    def test_targets_beyond_the_truncation(self):
        b = enumerate_basis(2, 3, 2)
        c = np.array([[1.0, 0.0], [2.0, 3.0]])
        want = assemble_per_term(b, b, [(b.exponents + np.array([3, 0]), c.astype(complex))])
        assert want.nnz > 0  # only the constant monomial reaches degree 3
        _assert_same_csr(mult_operator({(3, 0): c}, b).matrix, want)


class TestCsrStorage:
    """Every operator stores a CSR matrix, however dense it is."""

    def test_constructors_and_algebra(self):
        b = enumerate_basis(1, 3, 2)  # small enough that every matrix is dense-ish
        full = np.ones((2, 2))
        ops = [
            shift(1, b),
            parity_shift(1, b),
            mult_operator({(0,): full, (1,): full, (2,): full}, b),
            one_variable_symbol(1, [full, full], b),
            mult_operator({(1,): np.zeros((2, 2))}, b),
            HardyOperator(b, b, np.eye(b.size)),
        ]
        ops += [operator_adjoint(op) for op in ops]
        ops += [ops[2].compose(ops[0]), ops[0].compose(operator_adjoint(ops[1]))]
        for op in ops:
            assert isinstance(op.matrix, sp.csr_matrix), type(op.matrix)


class TestKernel:
    def test_zero_point_is_constant(self):
        b = enumerate_basis(2, 3, 2)
        x = np.array([0.0, 1.0])
        kv = kernel_vector((0.0, 0.0), b, x)
        np.testing.assert_allclose(kv.coefficients, monomial_vector(b, (0, 0), 1).coefficients)

    def test_reproduction_exact(self):
        rng = np.random.default_rng(17)
        b = enumerate_basis(2, 5, 3)
        f = HardyVector(b, rng.standard_normal(b.size) + 1j * rng.standard_normal(b.size))
        lam = (0.4 - 0.2j, 0.35j)
        for slot in range(3):
            x = np.zeros(3, dtype=complex)
            x[slot] = 1.0
            kv = kernel_vector(lam, b, x)
            inner = np.vdot(kv.coefficients, f.coefficients)  # <F, K x>
            want = np.vdot(x, evaluate(f, lam))  # <F(lam), x>
            assert abs(inner - want) <= 1e-12

    def test_adjoint_shift_eigen_relation(self):
        b = enumerate_basis(2, 6, 1)
        lam = (0.5, -0.3 + 0.4j)
        kv = kernel_vector(lam, b)
        for k in (1, 2):
            got = shift(k, b).apply_adjoint(kv)
            lower = kernel_vector(lam, b).coefficients * (b.flat_degrees() <= 5)
            want = np.conj(lam[k - 1]) * lower
            np.testing.assert_allclose(got.coefficients, want, atol=1e-14)


class TestMultOperator:
    def test_constant_identity(self):
        b = enumerate_basis(2, 3, 2)
        op = mult_operator({(0, 0): np.eye(2)}, b)
        np.testing.assert_allclose(op.dense(), np.eye(b.size), atol=1e-14)

    def test_coordinate_symbol_equals_shift(self):
        b = enumerate_basis(2, 4, 1)
        op = mult_operator({(1, 0): 1.0}, b)
        np.testing.assert_allclose(op.dense(), shift(1, b).dense(), atol=1e-14)

    def test_mobius_symbol_column(self):
        a = 0.5 - 0.2j
        d = 12
        b = enumerate_basis(1, d, 1)
        coeffs = mobius_series(a, d)
        op = one_variable_symbol(1, coeffs, b)
        np.testing.assert_allclose(op.dense()[:, 0], coeffs, atol=1e-14)

    def test_degree_overflow(self):
        b = enumerate_basis(1, 2, 1)
        with pytest.raises(DegreeOverflow):
            mult_operator({(5,): 1.0}, b)

    @pytest.mark.parametrize("key", [(1,), (1, 0, 0)])
    def test_keys_need_one_entry_per_variable(self, key):
        b = enumerate_basis(2, 4, 2)
        with pytest.raises(DimensionMismatch, match="need 2 entries"):
            mult_operator({(0, 1): np.eye(2), key: np.eye(2)}, b)

    def test_blocks_of_mixed_shapes(self):
        b = enumerate_basis(2, 4, 1)
        with pytest.raises(DimensionMismatch, match="mixed shapes"):
            mult_operator({(0, 0): 1.0, (1, 0): np.ones((1, 1))}, b)


class TestOneVariableSymbol:
    def test_z_in_second_variable(self):
        b = enumerate_basis(2, 3, 1)
        op = one_variable_symbol(2, [0.0, 1.0], b)
        np.testing.assert_allclose(op.dense(), shift(2, b).dense(), atol=1e-14)

    def test_constant_unitary_block(self):
        rng = np.random.default_rng(2)
        u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        b = enumerate_basis(2, 3, 2)
        op = one_variable_symbol(1, [u], b)
        np.testing.assert_allclose(op.dense(), np.kron(np.eye(b.num_monomials), u), atol=1e-14)
        rep = is_inner_on_truncation(op, 1e-12)
        assert rep.passed and rep.safe_cutoff == 3

    def test_square_in_first_variable(self):
        b = enumerate_basis(2, 4, 1)
        op = one_variable_symbol(1, [0.0, 0.0, 1.0], b)
        out = op.apply(monomial_vector(b, (0, 1)))
        np.testing.assert_allclose(out.coefficients, monomial_vector(b, (2, 1)).coefficients)

    def test_rectangular_coefficients(self):
        c0 = np.array([[1.0], [0.0]])
        b_in = enumerate_basis(1, 2, 1)
        b_out = enumerate_basis(1, 2, 2)
        op = one_variable_symbol(1, [c0], b_in, b_out)
        assert op.dense().shape == (6, 3)


class TestInnerReport:
    def test_shift_passes(self):
        b = enumerate_basis(2, 4, 1)
        rep = is_inner_on_truncation(shift(1, b), 1e-12)
        assert rep.passed and rep.residual <= 1e-14 and rep.safe_cutoff == 3

    def test_constant_half_fails(self):
        b = enumerate_basis(1, 3, 1)
        rep = is_inner_on_truncation(mult_operator({(0,): 0.5}, b), 1e-12)
        assert not rep.passed
        assert abs(rep.residual - 0.75) <= 1e-12

    @pytest.mark.parametrize("n,d", [(1, 12), (2, 12), (3, 8)])
    def test_dense_and_sparse_gram_agree(self, monkeypatch, n, d):
        # the density rule picks the product; both give the residual within round-off
        b = enumerate_basis(n, d, 1)
        ops = [one_variable_symbol(1, mobius_series(0.3 + 0.35j, d), b), shift(n, b), parity_shift(1, b)]
        for op in ops:
            cutoff = min(op.safe_input_degree, 5)
            default = is_inner_on_truncation(op, 1e-6, cutoff).residual
            monkeypatch.setattr(hardy, "_DENSE_GRAM_DENSITY", 0.0)
            dense = is_inner_on_truncation(op, 1e-6, cutoff).residual
            monkeypatch.setattr(hardy, "_DENSE_GRAM_DENSITY", 2.0)
            sparse = is_inner_on_truncation(op, 1e-6, cutoff).residual
            monkeypatch.undo()
            assert abs(dense - sparse) <= 1e-14
            assert default in (dense, sparse)

    def test_truncated_mobius_within_geometric_tail(self):
        a = 0.5
        d = 20
        b = enumerate_basis(1, d, 1)
        op = one_variable_symbol(1, mobius_series(a, d), b)
        cutoff = op.safe_input_degree
        rep = is_inner_on_truncation(op, tol=4 * abs(a) ** (2 * (d - cutoff)) + 1e-12)
        assert rep.passed


def _units(b, cutoff):
    """The unit vectors of degree <= cutoff, as columns."""
    return np.eye(b.size, dtype=complex)[:, b.degree_selector(cutoff)]


class TestWandering:
    def test_all_shifts_leave_constants(self):
        b = enumerate_basis(2, 4, 2)
        w = wandering_subspace([shift(1, b).matrix, shift(2, b).matrix], _units(b, 2))
        assert w.dim == 2
        p = projector(w)
        for slot in range(2):
            v = monomial_vector(b, (0, 0), slot).coefficients
            np.testing.assert_allclose(p @ v, v, atol=1e-12)

    def test_single_z_squared(self):
        b = enumerate_basis(1, 6, 1)
        op = one_variable_symbol(1, [0.0, 0.0, 1.0], b)
        w = wandering_subspace([op.matrix], _units(b, b.max_degree - 2))
        assert w.dim == 2
        p = projector(w)
        for alpha in [(0,), (1,)]:
            v = monomial_vector(b, alpha).coefficients
            np.testing.assert_allclose(p @ v, v, atol=1e-10)

    def test_parity_family_wandering(self):
        b = enumerate_basis(3, 6, 1)
        ops = [parity_shift(k, b) for k in (1, 2, 3)]
        # each factor I - V V* is degree-preserving on monomials, so the
        # full truncation short of one degree is safe
        w = wandering_subspace([op.matrix for op in ops], _units(b, b.max_degree - 1))
        assert w.dim == 1
        v = monomial_vector(b, (1, 1, 1)).coefficients
        np.testing.assert_allclose(projector(w) @ v, v, atol=1e-10)

    def test_wandering_orthogonal_to_shifted_copies(self):
        b = enumerate_basis(2, 8, 1)
        ops = [shift(1, b), shift(2, b)]
        w = wandering_subspace([op.matrix for op in ops], _units(b, b.max_degree - 2))
        wb = w.basis
        for alpha in [(1, 0), (0, 1), (2, 1)]:
            shifted = wb
            for k, reps in enumerate(alpha, start=1):
                for _ in range(reps):
                    shifted = ops[k - 1].matrix @ shifted
            assert operator_norm(adjoint(wb) @ shifted) <= 1e-10


class TestDefectProduct:
    """hardy.defect_product against the loop each call site ran before
    (tests/_references.py keeps them), bit for bit."""

    @staticmethod
    def _parity_ops():
        b = enumerate_basis(3, 7, 1)
        return b, [parity_shift(1, b), shift(2, b), parity_shift(3, b)]

    def test_dense_vector_and_block(self):
        b, ops = self._parity_ops()
        rng = np.random.default_rng(5)
        x = rng.standard_normal((b.size, 9)) + 1j * rng.standard_normal((b.size, 9))
        mats = [op.matrix for op in ops]
        for block in (x, x[:, 0].copy()):
            got = hardy.defect_product(mats, block)
            assert got.tobytes() == wandering_defect_loop(ops, block).tobytes()
        # the first matrix's factor is applied first
        got = hardy.defect_product(mats[::-1], x)
        assert got.tobytes() == wandering_defect_loop(ops[::-1], x).tobytes()

    def test_wandering_subspace(self):
        b, ops = self._parity_ops()
        units = _units(b, b.max_degree - 2)
        want = orthonormalize(wandering_defect_loop(ops, units))
        got = wandering_subspace([op.matrix for op in ops], units)
        assert got.basis.tobytes() == want.basis.tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_parity_family_norms(self, n):
        p = GeneratorParams(num_vars=n, truncation_degree=8)
        outcomes = list(checks._parity_family(np.random.default_rng(0), p, 1e-12))
        b = enumerate_basis(n, 8, 1)
        want = parity_defect_norms_loop(b, [parity_shift(k, b) for k in range(1, n + 1)])
        assert len(want) == math.comb(2 * n - 1, n)  # the monomials of degree < n
        assert [o.residual for o in outcomes[-len(want):]] == want

    @pytest.mark.parametrize("lam", [(0.5,), (0.3, -0.4j)])
    def test_kernel_fixed_point(self, lam):
        b = enumerate_basis(2, 20, 1)
        etas = [BlaschkeProduct(1.0, (0.3,)), BlaschkeProduct(1.0, (0.0, 0.2j))]
        # the reference divides the series by scipy's triangular solve, the
        # package by numpy's general one: the residuals agree to round-off
        for symbols in (etas[:1], etas):
            got, got_tail = kernel_fixed_point_residual(symbols, lam, b)
            want, want_tail = kernel_fixed_point_loop(symbols, lam, b)
            assert got == pytest.approx(want, rel=1e-9) and got_tail == want_tail

    @pytest.mark.parametrize("seed", [1, 2])
    def test_defect_transfer(self, seed):
        rng = np.random.default_rng(seed)
        t = tensor_tuple([checks._model_scalar(rng, GeneratorParams(), 2) for _ in range(2)])
        model = canonical_embedding(t, 20)
        lam = MoebiusPoint((0.3 - 0.2j, 0.45j))
        x = rng.standard_normal((t.space_dim, 3)) + 1j * rng.standard_normal((t.space_dim, 3))
        y = model.normalized_embedding() @ x
        v = defect_transfer_loop(model, lam, y)
        want = np.sqrt(np.maximum(np.sum(v.conj() * y, axis=0).real, 0.0))
        assert defect_transfer_check(model, lam, x)[1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [32, 40, 48])
    def test_sparse_halves_of_the_quotient_model(self, d):
        # the K = 2 halves as charfn._model_distance forms them, from the
        # sparse unit columns of the safe rows, against the former
        # first-factor row-slice route
        p = GeneratorParams(truncation_degree=d, radius_cap=0.55)
        for seed in range(1, 13):
            rng = np.random.default_rng([seed, d])
            t = tensor_tuple([checks._model_scalar(rng, p) for _ in range(2)])
            model, cutoff, stacks, _, _ = charfn._symbol_model(t, d, 1e-6)
            symbols = [charfn._component_symbol(k, stack, model) for k, stack in stacks]
            assert len(symbols) == 2
            sel = np.nonzero(model.basis.degree_selector(cutoff))[0]
            size = model.basis.size
            e_s = sp.identity(size, format="csc")[:, sel]
            for half in (symbols[:1], symbols[1:]):
                got = hardy.defect_product(half, e_s).toarray()
                assert got.tobytes() == half_product(half, sel, size).toarray().tobytes()


class TestCrossVariableCommutation:
    def test_one_variable_symbols_doubly_commute(self):
        from hardymodel.contraction import mobius_series

        d = 16
        b = enumerate_basis(2, d, 1)
        op1 = one_variable_symbol(1, mobius_series(0.5, 4), b)
        op2 = one_variable_symbol(2, mobius_series(-0.3 + 0.2j, 4), b)
        a1, a2 = op1.dense(), op2.dense()
        comm = a1 @ a2 - a2 @ a1
        cross = adjoint(a1) @ a2 - a2 @ adjoint(a1)
        cols = np.nonzero(b.degree_selector(d - 8))[0]  # both windows add to 8
        assert operator_norm(comm[:, cols]) <= 1e-12
        assert operator_norm(cross[:, cols]) <= 1e-12

    def test_parity_cross_pairs_doubly_commute(self):
        b = enumerate_basis(2, 8, 1)
        v1, v2 = parity_shift(1, b), parity_shift(2, b)
        a1, a2 = v1.dense(), v2.dense()
        cols = np.nonzero(b.degree_selector(b.max_degree - 8))[0]
        comm = (a1 @ a2 - a2 @ a1)[:, cols]
        cross = (adjoint(a1) @ a2 - a2 @ adjoint(a1))[:, cols]
        assert operator_norm(comm) <= 1e-12
        assert operator_norm(cross) <= 1e-12


class TestParityShift:
    def test_one_variable_action(self):
        b = enumerate_basis(1, 6, 1)
        v = parity_shift(1, b)
        moves = {0: 3, 1: 0, 2: 5, 3: 2}
        for src, dst in moves.items():
            out = v.apply(monomial_vector(b, (src,)))
            np.testing.assert_allclose(
                out.coefficients, monomial_vector(b, (dst,)).coefficients, atol=1e-14
            )

    def test_square_equals_squared_shift_on_safe_degrees(self):
        b = enumerate_basis(2, 6, 1)
        v = parity_shift(1, b)
        m = shift(1, b)
        v2 = v.compose(v).dense()
        m2 = m.compose(m).dense()
        # intermediates of V^2 rise at most 3 degrees above the input
        sel = b.degree_selector(b.max_degree - 3)
        np.testing.assert_allclose(v2[:, sel], m2[:, sel], atol=1e-14)

    def test_isometric_on_safe_degrees(self):
        b = enumerate_basis(2, 6, 1)
        v = parity_shift(2, b)
        rep = is_inner_on_truncation(v, 1e-12)
        assert rep.passed and rep.safe_cutoff == 3

    def test_adjoint_kernel_is_exponent_one(self):
        b = enumerate_basis(1, 8, 1)
        v = parity_shift(1, b)
        out = v.apply_adjoint(monomial_vector(b, (1,)))
        assert np.linalg.norm(out.coefficients) == 0.0
        out = v.apply_adjoint(monomial_vector(b, (3,)))
        np.testing.assert_allclose(out.coefficients, monomial_vector(b, (0,)).coefficients)


class TestMobiusPartialProduct:
    def test_empty_range(self):
        prod, dist = mobius_partial_product([0.5, 0.5], 1, 1)
        assert prod == 1.0 and dist == 0.0

    def test_single_zero_factor(self):
        prod, dist = mobius_partial_product([0.0], 0, 1)
        assert prod == 0.0
        assert abs(dist - 2.0) <= 1e-15

    def test_two_real_factors(self):
        r = 0.9
        prod, dist = mobius_partial_product([r, r], 0, 2)
        assert abs(prod - r * r) <= 1e-15
        assert abs(dist - 0.380000) <= 1e-12

    def test_against_truncated_hardy_norm(self):
        # direct route: expand prod phi_{lam_i}(zeta_i) - 1 on a truncation
        lams = [0.6, -0.4 + 0.3j]
        d = 40
        b = enumerate_basis(2, d, 1)
        f = monomial_vector(b, (0, 0))
        for i, a in enumerate(lams):
            op = one_variable_symbol(i + 1, mobius_series(a, d), b)
            f = op.apply(f)
        diff = f.coefficients - monomial_vector(b, (0, 0)).coefficients
        direct = float(np.vdot(diff, diff).real)
        _, closed = mobius_partial_product(lams, 0, 2)
        assert abs(direct - closed) <= 1e-10

    def test_index_error(self):
        with pytest.raises(IndexError):
            mobius_partial_product([0.1], 1, 2)


class TestAssemblyPlans:
    @pytest.mark.parametrize("n,d,k,e_in,e_out", [(1, 9, 1, 1, 1), (2, 6, 2, 2, 3), (3, 4, 1, 3, 2)])
    def test_one_variable_symbol_matches_per_term_loop(self, n, d, k, e_in, e_out):
        rng = np.random.default_rng([n, d, k, e_in, e_out])
        b_in, b_out = enumerate_basis(n, d, e_in), enumerate_basis(n, d, e_out)
        shape = (d + 1, e_out, e_in)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs[rng.random(coeffs.shape) < 0.3] = 0.0  # zero block entries are not stored
        coeffs[:2] = 0.0  # leading and trailing zero coefficients set the window
        coeffs[-1] = 0.0
        op = one_variable_symbol(k, coeffs, b_in, b_out)
        beta = np.eye(n, dtype=np.int64)[k - 1]
        terms = [(b_in.exponents + j * beta, c) for j, c in enumerate(coeffs) if np.any(c)]
        _assert_same_csr(op.matrix, assemble_per_term(b_in, b_out, terms))
        assert op.matrix.dtype == np.complex128
        nonzero = [j for j, c in enumerate(coeffs) if np.any(c)]
        assert (op.shift_lo, op.shift_hi) == (nonzero[0], nonzero[-1])

    def test_same_support_reuses_one_plan(self):
        b = enumerate_basis(2, 7, 2)
        rng = np.random.default_rng(3)
        _assembly_plan.cache_clear()
        for _ in range(3):  # new values, one support and nonzero pattern
            one_variable_symbol(2, rng.standard_normal((5, 2, 2)) + 0.5, b)
        info = _assembly_plan.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        one_variable_symbol(2, np.ones((6, 2, 2)), b)  # another support
        one_variable_symbol(2, np.tile(np.eye(2), (5, 1, 1)), b)  # another pattern
        assert _assembly_plan.cache_info().misses == 3
        shift(1, b)
        mult_operator({(1, 0): np.eye(2)}, b)  # the shift's plan
        info = _assembly_plan.cache_info()
        assert (info.misses, info.hits) == (4, 3)

    def test_plans_are_read_only(self):
        b = enumerate_basis(2, 5, 2)
        _assembly_plan.cache_clear()
        shift(2, b)
        plan = _assembly_plan(2, 5, 2, 2, ((0, 1),), np.eye(2, dtype=bool)[None].tobytes())
        assert _assembly_plan.cache_info().hits == 1
        for a in plan:
            with pytest.raises(ValueError):
                a[0] = 1

    def test_in_place_changes_do_not_reach_the_next_build(self):
        b_in, b_out = enumerate_basis(2, 5, 2), enumerate_basis(2, 5, 1)
        coeffs = [np.array([[1.0, 0.0]]), np.array([[0.5, -2.0]]), np.array([[0.0, 3.0]])]
        terms = [(b_in.exponents + np.array([j, 0]), c.astype(complex)) for j, c in enumerate(coeffs)]
        want = assemble_per_term(b_in, b_out, terms)
        m = one_variable_symbol(1, coeffs, b_in, b_out).matrix
        m.data[::2] = 0.0
        m.eliminate_zeros()  # rewrites indices and indptr in place
        m.indices[:] = 0
        m.indptr[1:] = m.nnz
        m *= 2.0
        _assert_same_csr(one_variable_symbol(1, coeffs, b_in, b_out).matrix, want)
        s = shift(1, b_in).matrix
        s.indices[:] = 0
        s.data[:] = 7.0
        want = assemble_per_term(b_in, b_in, [(_bumped(b_in, 1, lambda j: j + 1), np.eye(2))])
        _assert_same_csr(shift(1, b_in).matrix, want)
