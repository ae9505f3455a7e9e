import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from _references import (
    orthonormalize_by_scipy_qr,
    projector,
    subspace_distance,
)

from hardymodel import charfn, linops
from hardymodel.charfn import quotient_model_check
from hardymodel.cli import run_scenario
from hardymodel.contraction import defect, tensor_tuple
from hardymodel.errors import DimensionMismatch, NegativeEigenvalue, NotHermitian, SingularShift
from hardymodel.generators import controlled_contraction
from hardymodel.linops import (
    RANK_FLOOR,
    Subspace,
    adjoint,
    apply_shifted_inverse,
    hermitian_sqrt,
    holder_bound,
    operator_norm,
    orthonormalize,
    solve_shifted,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestHermitianSqrt:
    def test_identity(self):
        np.testing.assert_allclose(hermitian_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            hermitian_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]), atol=1e-14
        )

    def test_resquare_random_gram(self):
        rng = np.random.default_rng(4)
        c = random_complex(rng, 4, 4)
        a = adjoint(c) @ c
        m = hermitian_sqrt(a)
        assert operator_norm(m @ m - a) <= 1e-10
        assert operator_norm(m - adjoint(m)) <= 1e-12

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_negative_eigenvalue(self):
        with pytest.raises(NegativeEigenvalue):
            hermitian_sqrt(np.diag([1.0, -1.0]))

    def test_clamp_window(self):
        # eigenvalues in [-1e-9, 0) are round-off and clamped; below, refused
        m = hermitian_sqrt(np.diag([1.0, -5e-10]))
        np.testing.assert_allclose(m, np.diag([1.0, 0.0]), atol=1e-13)
        with pytest.raises(NegativeEigenvalue):
            hermitian_sqrt(np.diag([1.0, -2e-9]))


class TestHermitianGate:
    """The asymmetry gate: ||A - A*||_F <= tol accepts without an SVD; the
    SVD decides, with the same NotHermitian message, otherwise."""

    @staticmethod
    def _skewed(t):
        # A - A* = t [[0, 1], [-1, 0]] twice: 2-norm t, Frobenius norm 2t
        j = np.array([[0.0, 1.0], [0.0, 0.0]])
        return np.eye(4) + t * np.kron(np.eye(2), j)

    def test_hermitian_needs_no_svd(self, svd_calls):
        rng = np.random.default_rng(11)
        c = random_complex(rng, 5, 5)
        hermitian_sqrt(adjoint(c) @ c)
        hermitian_sqrt(self._skewed(0.4e-9))  # Frobenius 0.8e-9 decides
        assert svd_calls[0] == 0

    def test_svd_decides_between_the_norms(self, svd_calls):
        m = hermitian_sqrt(self._skewed(0.8e-9))  # Frobenius 1.6e-9, 2-norm 0.8e-9
        assert svd_calls[0] == 1
        np.testing.assert_allclose(m, np.eye(4), atol=1e-9)

    def test_boundary_still_raises(self, svd_calls):
        with pytest.raises(NotHermitian, match=r"asymmetry 1\.100e-09 exceeds tol 1\.000e-09"):
            hermitian_sqrt(self._skewed(1.1e-9))
        assert svd_calls[0] == 1


class TestSolveShifted:
    def test_zero_shift(self):
        rng = np.random.default_rng(0)
        t = random_complex(rng, 3, 3)
        np.testing.assert_allclose(solve_shifted(t, 0.0), np.eye(3), atol=1e-14)

    def test_nilpotent_terminating_series(self):
        t = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        np.testing.assert_allclose(
            solve_shifted(t, 0.5), np.eye(2) + 0.5 * t, atol=1e-14
        )

    def test_scalar(self):
        np.testing.assert_allclose(
            solve_shifted(np.array([[0.5]]), 0.5), np.array([[1.0 / 0.75]]), atol=1e-14
        )

    def test_singular(self):
        with pytest.raises(SingularShift):
            solve_shifted(np.eye(2), 1.0)

    def test_gate_is_the_closed_form_bound(self, monkeypatch):
        # cond(I - z T) <= (1 + |z|) / (1 - |z|) for a contraction: no SVD
        def no_svd(*args, **kwargs):
            raise AssertionError("SVD taken")

        monkeypatch.setattr(np.linalg, "cond", no_svd)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        t = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        np.testing.assert_allclose(solve_shifted(t, 0.9j), np.eye(2) + 0.9j * t, atol=1e-14)
        with pytest.raises(SingularShift, match="bound"):
            solve_shifted(t, 1.0 - 1e-13)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_residual_property(self, seed):
        rng = np.random.default_rng(seed)
        t = random_complex(rng, 3, 3)
        t = 0.8 * t / max(operator_norm(t), 1e-12)
        z = 0.7 * np.exp(2j * np.pi * rng.uniform())
        inv = solve_shifted(t, z)
        resid = (np.eye(3) - z * t) @ inv - np.eye(3)
        assert operator_norm(resid) <= 1e-10


class TestApplyShiftedInverse:
    """An array of points solves the stacked systems I - z_k T at once."""

    def _case(self, seed, m=3, count=6):
        rng = np.random.default_rng(seed)
        t = random_complex(rng, m, m)
        t = 0.8 * t / operator_norm(t)
        z = 0.9 * rng.uniform(size=count) * np.exp(2j * np.pi * rng.uniform(size=count))
        return rng, t, z

    @pytest.mark.parametrize("seed", range(3))
    def test_shared_right_hand_side(self, seed):
        rng, t, z = self._case(seed)
        rhs = random_complex(rng, 3, 2)
        got = apply_shifted_inverse(t, z, rhs)
        assert got.shape == (len(z), 3, 2)
        for zk, x in zip(z, got):
            np.testing.assert_allclose((np.eye(3) - zk * t) @ x, rhs, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_right_hand_side_per_point(self, seed):
        rng, t, z = self._case(seed)
        rhs = random_complex(rng, len(z), 3, 3)
        got = apply_shifted_inverse(t, z, rhs)
        for zk, b, x in zip(z, rhs, got):
            np.testing.assert_allclose(x, apply_shifted_inverse(t, zk, b), rtol=0, atol=1e-14)

    def test_scalar_point_gives_one_solution(self):
        _, t, _ = self._case(4)
        assert apply_shifted_inverse(t, 0.5j, np.eye(3)).shape == (3, 3)


def test_adjoint_of_a_stack_is_each_adjoint():
    a = random_complex(np.random.default_rng(9), 4, 2, 3)
    got = adjoint(a)
    assert got.shape == (4, 3, 2)
    for x, y in zip(a, got):
        np.testing.assert_array_equal(y, x.conj().T)


class TestOrthonormalize:
    def test_duplicate_columns(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        s = orthonormalize(np.column_stack([e1, e1, e2]))
        assert s.dim == 2
        p = projector(s)
        np.testing.assert_allclose(p @ e1, e1, atol=1e-12)
        np.testing.assert_allclose(p @ e2, e2, atol=1e-12)

    def test_zero_matrix(self):
        s = orthonormalize(np.zeros((4, 3)))
        assert s.dim == 0

    def test_rank_matches_svd(self):
        rng = np.random.default_rng(7)
        v = random_complex(rng, 4, 10)
        s = orthonormalize(v)
        rank = int(np.sum(np.linalg.svd(v, compute_uv=False) > 1e-10))
        assert s.dim == rank == 4

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        v = random_complex(rng, 5, 5)
        a = orthonormalize(v).basis
        b = orthonormalize(v.copy()).basis
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "rows, cols, rank",
        [(5, 0, 0), (5, 1, 1), (3, 8, 3), (8, 200, 8), (40, 6, 6), (496, 55, 55),
         (7, 2, 1), (6, 9, 4), (45, 55, 30), (120, 120, 60)],
        ids=["no-columns", "one-column", "wide", "wide-200", "tall", "tall-496", "rank-1",
             "wide-deficient", "deficient-45x55", "deficient-square"],
    )
    @pytest.mark.parametrize("rel_floor", [1e-10, 1e-6])
    def test_the_scipy_qr_span_from_numpy_svd_bits(self, rows, cols, rank, rel_floor):
        # the span and rank of the pivoted QR through scipy's wrapper, and the
        # bits of numpy's SVD; the largest column norm is scaled so that
        # RANK_FLOOR is rel_floor of it
        rng = np.random.default_rng(rows * cols + rank)
        v = random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)
        v *= RANK_FLOOR / rel_floor / np.max(np.linalg.norm(v, axis=0), initial=1.0)
        scale = np.max(np.linalg.norm(v, axis=0), initial=1.0)
        got = orthonormalize(v)
        want = orthonormalize_by_scipy_qr(v, rank_tol=RANK_FLOOR / scale)
        assert got.basis.shape == want.basis.shape == (rows, min(rank, rows, cols))
        assert subspace_distance(got, want) <= 1e-12
        u, s, _ = np.linalg.svd(v, full_matrices=False)
        assert got.basis.tobytes() == np.ascontiguousarray(u[:, s > RANK_FLOOR]).tobytes()

    @pytest.mark.parametrize(
        "entries, rows",
        [
            ({(0, 0): 1.0}, [0]),
            ({(3, 0): 2.0, (1, 1): -0.5j, (3, 2): 1e-3, (0, 4): 0.7}, [0, 1, 3]),
            ({(2, 0): 0.3, (2, 1): 0.4, (2, 3): 1.0}, [2]),
            ({(1, 0): 1.0, (4, 1): RANK_FLOOR / 2, (5, 2): 1e-12, (0, 3): 1e-7j}, [1]),
            ({(4, 0): 0.8 * RANK_FLOOR, (4, 1): 0.8j * RANK_FLOOR, (5, 2): 0.9 * RANK_FLOOR}, [4]),
        ],
        ids=["one-entry", "scattered", "repeated-row", "sub-floor", "sub-floor-entries-add-up"],
    )
    def test_monomial_columns_give_the_unit_columns_of_their_rows(self, entries, rows):
        # at most one nonzero per column: the singular values are the row
        # norms, so the basis is the unit columns of the rows above the
        # floor, in row order, whatever the entries' signs and column order
        v = np.zeros((6, 5), dtype=complex)
        for (i, j), x in entries.items():
            v[i, j] = x
        got = orthonormalize(v).basis
        assert got.tobytes() == np.eye(6, dtype=complex)[:, rows].tobytes()
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, 1.0)])
    def test_non_finite_input_raises_value_error(self, bad):
        # the check comes before any arithmetic: LAPACK would run on an
        # infinite entry, and RuntimeWarnings are errors here
        v = np.eye(3, dtype=complex)
        v[1, 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            orthonormalize(v)


def _unitary(rng, m):
    return np.linalg.qr(random_complex(rng, m, m))[0]


def _contraction(kind, rng, m):
    """Contraction of the given kind.  Every eigenvalue of I - T*T and of
    I - TT* is zero up to round-off or at least about 2e-9, far from
    RANK_FLOOR**2 = 1e-12 on either side."""
    u, v = _unitary(rng, m), _unitary(rng, m)
    if kind == "near-unitary":
        gaps = np.where(rng.uniform(size=m) < 0.5, 0.0, 10.0 ** rng.uniform(-8, -3, m))
        return u @ np.diag(1.0 - gaps) @ adjoint(v)
    if kind == "nilpotent":
        # Jordan blocks of random sizes: a zero superdiagonal entry starts a block
        j = np.diag((rng.uniform(size=m - 1) < 0.7).astype(float), 1)
        return u @ j @ adjoint(u)
    if kind == "rank-deficient":
        s = rng.choice([0.0, 1.0, rng.uniform(0.1, 0.9)], size=m)
        return u @ np.diag(s) @ adjoint(v)
    scale = 1.0 if rng.uniform() < 0.25 else 1.0 - 10.0 ** rng.uniform(-9, -1)
    return scale * u


class TestRankFloor:
    @given(
        seed=st.integers(0, 2**31 - 1),
        kind=st.sampled_from(["near-unitary", "nilpotent", "rank-deficient", "scaled-unitary"]),
        m=st.integers(1, 6),
    )
    @settings(max_examples=80, deadline=None)
    def test_dim_counts_eigenvalues_above_floor(self, seed, kind, m):
        t = _contraction(kind, np.random.default_rng(seed), m)
        for x in (t, adjoint(t)):
            eigs = np.linalg.eigvalsh(np.eye(m) - adjoint(x) @ x)
            d = defect(x)
            s = orthonormalize(d)
            assert s.dim == int(np.sum(eigs > RANK_FLOOR**2))
            assert operator_norm(d - projector(s) @ d) <= m * RANK_FLOOR

    def test_zero_defect_has_empty_range(self):
        s = orthonormalize(np.zeros((3, 3)))
        assert (s.ambient_dim, s.dim) == (3, 0)

    def test_floor_is_absolute(self):
        # relative to the norm 1e-3, the 1e-7 column would count as rank
        assert orthonormalize(np.diag([1e-3, 1e-7])).dim == 1
        assert orthonormalize(np.diag([1.0, 2e-6])).dim == 2
        # a relative rank_tol of 1e-6 counted the 5e-7 column as rank
        assert orthonormalize(np.diag([1.0, 5e-7])).dim == 1

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_numerically_zero_unitary_has_empty_range(self, m):
        # a relative rank counted every column of 1e-8 U
        assert orthonormalize(1e-8 * _unitary(np.random.default_rng(m), m)).dim == 0

    @pytest.mark.parametrize("rows, cols", [(7, 4), (4, 9), (12, 12), (30, 8)])
    @pytest.mark.parametrize("seed", range(5))
    def test_planted_singular_values_either_side_of_the_floor(self, rows, cols, seed):
        # non-Hermitian rectangular input whose singular values are O(1)
        # or 10x above the floor (counted) and 10x below it or zero (not)
        rng = np.random.default_rng(seed)
        k = min(rows, cols)
        above = rng.choice([1.0, 0.3, 10 * RANK_FLOOR], size=k)
        sv = np.where(rng.uniform(size=k) < 0.5, above, rng.choice([0.0, RANK_FLOOR / 10], size=k))
        u = np.linalg.qr(random_complex(rng, rows, k))[0]
        w = np.linalg.qr(random_complex(rng, cols, k))[0]
        v = (u * sv) @ adjoint(w)
        s = orthonormalize(v)
        assert s.dim == int(np.sum(sv > RANK_FLOOR))
        assert operator_norm(v - projector(s) @ v) <= k * RANK_FLOOR

    def test_bundled_scenarios_clear_the_floor(self, monkeypatch):
        # every rank decision of the bundled scenarios, read off the singular
        # values: accepted ones at least 1e4x the floor, rejected ones at most
        # 1e-6x it (measured 0.302 and 2.5e-15, i.e. 3.0e5x and 2.5e-9x)
        values = []

        def logged(vectors):
            s = orthonormalize(vectors)
            v = np.asarray(vectors, dtype=complex).reshape(len(vectors), -1)
            if v.any():
                sv = np.linalg.svd(v, compute_uv=False)
                assert s.dim == np.count_nonzero(sv > RANK_FLOOR)
                values.append(sv)
            return s

        callers = [m for name, m in sys.modules.items() if name.startswith("hardymodel.")
                   and m is not linops and getattr(m, "orthonormalize", None) is orthonormalize]
        assert {m.__name__ for m in callers} == {
            "hardymodel.charfn", "hardymodel.dilation", "hardymodel.hardy", "hardymodel.submodules"}
        for module in callers:
            monkeypatch.setattr(module, "orthonormalize", logged)
        for path in sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json")):
            run_scenario(path)
        sv = np.concatenate(values)
        assert sv[sv > RANK_FLOOR].min() >= 1e4 * RANK_FLOOR
        assert sv[sv <= RANK_FLOOR].max() <= 1e-6 * RANK_FLOOR


class TestProjector:
    def test_full_space(self):
        s = orthonormalize(np.eye(3))
        np.testing.assert_allclose(projector(s), np.eye(3), atol=1e-14)

    def test_span_e1(self):
        s = orthonormalize(np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(projector(s), np.diag([1.0, 0.0]), atol=1e-14)

    def test_idempotent_hermitian(self):
        rng = np.random.default_rng(3)
        s = orthonormalize(random_complex(rng, 5, 2))
        p = projector(s)
        assert operator_norm(p @ p - p) <= 1e-12
        assert operator_norm(p - adjoint(p)) <= 1e-12


class TestSubspaceDistance:
    def test_self(self):
        s = orthonormalize(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        assert subspace_distance(s, s) == 0.0

    def test_orthogonal_lines(self):
        s1 = orthonormalize(np.array([[1.0], [0.0]]))
        s2 = orthonormalize(np.array([[0.0], [1.0]]))
        assert abs(subspace_distance(s1, s2) - 1.0) <= 1e-12

    def test_principal_angle(self):
        s1 = orthonormalize(np.array([[1.0], [0.0]]))
        s2 = orthonormalize(np.array([[1.0], [1.0]]) / np.sqrt(2.0))
        assert abs(subspace_distance(s1, s2) - np.sin(np.pi / 4)) <= 1e-12

    def test_mismatch(self):
        s1 = orthonormalize(np.eye(2))
        s2 = orthonormalize(np.eye(3))
        with pytest.raises(DimensionMismatch):
            subspace_distance(s1, s2)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_triangle(self, seed):
        rng = np.random.default_rng(seed)
        subs = [orthonormalize(random_complex(rng, 4, rng.integers(1, 4))) for _ in range(3)]
        d01 = subspace_distance(subs[0], subs[1])
        d10 = subspace_distance(subs[1], subs[0])
        d12 = subspace_distance(subs[1], subs[2])
        d02 = subspace_distance(subs[0], subs[2])
        assert abs(d01 - d10) <= 1e-10
        assert d02 <= d01 + d12 + 1e-10


def test_subspace_rejects_non_orthonormal():
    with pytest.raises(DimensionMismatch):
        Subspace(2, np.array([[1.0], [1.0]]))


@pytest.mark.parametrize("dev, ok", [(0.4e-12, True), (0.8e-12, True), (2e-12, False)])
def test_subspace_recheck_decides_on_the_spectral_norm(dev, ok):
    # G - I = dev I_4 up to round-off: ||.||_2 = dev, ||.||_F = 2 dev.
    # 0.8e-12 passes the spectral test only; the Frobenius pre-test must not
    # reject it, and 2e-12 must still be rejected
    basis = np.eye(4) * np.sqrt(1 + dev)
    if ok:
        assert Subspace(4, basis).dim == 4
    else:
        with pytest.raises(DimensionMismatch):
            Subspace(4, basis)


class TestOperatorNorm:
    """operator_norm is numpy's spectral norm, bit for bit."""

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 5), (7, 4), (40, 40)])
    def test_dense_matches_numpy(self, shape):
        rng = np.random.default_rng(sum(shape))
        for a in (rng.standard_normal(shape), random_complex(rng, *shape)):
            assert operator_norm(a) == float(np.linalg.norm(a, 2))

    def test_sparse_matches_numpy(self):
        rng = np.random.default_rng(3)
        a = sp.random(30, 20, density=0.1, random_state=rng, format="csr") * (1 + 2j)
        assert operator_norm(a) == float(np.linalg.norm(a.toarray(), 2))

    def test_one_by_one_and_empty(self):
        for a in (np.array([[-2.5 + 0.5j]]), np.zeros((0, 3)), np.zeros((4, 0), dtype=complex)):
            assert operator_norm(a) == float(np.linalg.norm(a, 2))
        assert operator_norm(sp.csr_matrix((4, 0))) == 0.0

    @pytest.mark.parametrize("shape", [(5, 1, 1), (6, 3, 3), (4, 2, 5), (2, 3, 4, 4)])
    def test_stack_gives_each_matrix_its_norm(self, shape):
        a = random_complex(np.random.default_rng(sum(shape)), *shape)
        got = operator_norm(a)
        assert got.shape == shape[:-2]
        for idx in np.ndindex(*shape[:-2]):
            assert got[idx] == pytest.approx(operator_norm(a[idx]), rel=1e-15)

    def test_empty_stack(self):
        np.testing.assert_array_equal(operator_norm(np.zeros((4, 0, 0))), np.zeros(4))
        assert operator_norm(np.zeros((0, 3, 3))).shape == (0,)

    def test_all_zero_sparse_is_not_densified(self):
        class NoDense(sp.csr_matrix):
            def toarray(self, *args, **kwargs):
                raise AssertionError("densified")

        explicit_zeros = sp.csr_matrix((np.zeros(3), (np.arange(3), np.arange(3))), shape=(3, 3))
        for a in (sp.csr_matrix((500, 400), dtype=complex), explicit_zeros):
            assert operator_norm(NoDense(a)) == 0.0
        with pytest.raises(AssertionError, match="densified"):
            operator_norm(NoDense(sp.identity(3, format="csr")))


class TestHolderBound:
    """holder_bound is an upper bound on the spectral norm, from the
    absolute row and column sums alone."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(1, 60),
        cols=st.integers(1, 60),
        kind=st.sampled_from(["hermitian", "general", "rectangular", "rank-one"]),
        scale=st.sampled_from([1e-300, 1e-7, 1.0, 1e150]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_the_svd(self, seed, rows, cols, kind, scale):
        rng = np.random.default_rng(seed)
        if kind == "rectangular":
            a = random_complex(rng, rows, cols)
        elif kind == "rank-one":  # unimodular u v*: the bound is attained
            a = np.outer(np.exp(1j * rng.uniform(0, 7, rows)), np.exp(1j * rng.uniform(0, 7, cols)))
        else:
            a = random_complex(rng, rows, rows)
            if kind == "hermitian":
                a = (a + adjoint(a)) / 2
        a = scale * a
        assert holder_bound(a) >= operator_norm(a)

    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(1, 60),
        cols=st.integers(1, 60),
        scale=st.sampled_from([1e-7, 1.0, 1e6]),
    )
    @settings(max_examples=40, deadline=None)
    def test_within_a_root_of_the_order_of_the_svd(self, seed, rows, cols, scale):
        # a column sum is at most sqrt(rows) ||a||_2 and a row sum at most
        # sqrt(cols) ||a||_2, so the bound overstates by (rows cols)^(1/4)
        # at most, besides its margin and the SVD's round-off
        a = scale * random_complex(np.random.default_rng(seed), rows, cols)
        n = max(rows, cols)
        ceiling = (rows * cols) ** 0.25 * operator_norm(a) * (1 + 4 * (n + 2) * np.finfo(float).eps)
        assert operator_norm(a) <= holder_bound(a) <= ceiling

    @pytest.mark.parametrize("seed", [3, 25])
    def test_brackets_the_svd_on_a_quotient_model_difference(self, monkeypatch, seed):
        # the |S| x |S| difference of a tensor pair's quotient-model check
        # (order 153 and 136), taken where the bound reads it: the passing
        # distance is the bound, above the norm and within sqrt(|S|) of it
        caps = []
        monkeypatch.setattr(charfn, "holder_bound", lambda a: caps.append(a) or holder_bound(a))
        rng = np.random.default_rng(seed)
        pair = tensor_tuple([controlled_contraction(rng, 1, 0.55, 0.75) for _ in range(2)])
        rep = quotient_model_check(pair, 28, 1e-6)
        (a,) = caps
        n, exact = a.shape[0], operator_norm(a)
        assert n > 100 and rep.passed and rep.distance == holder_bound(a)
        assert exact <= rep.distance <= np.sqrt(n) * exact * (1 + 4 * (n + 2) * np.finfo(float).eps)

    def test_exact_where_the_bound_is_attained(self):
        # a unimodular rank-one n x n matrix has ||a||_1 = ||a||_inf = ||a||_2 = n,
        # so the bound is n times the margin exactly
        n = 37
        a = np.outer(np.exp(1j * np.arange(n)), np.exp(-2j * np.arange(n)))
        assert holder_bound(a) == pytest.approx(n * (1 + 2 * (n + 2) * np.finfo(float).eps), rel=1e-15)
        assert holder_bound(a) >= operator_norm(a)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (4, 0), (1, 1), (5, 5), (3, 7)])
    def test_zero_and_empty(self, shape):
        assert holder_bound(np.zeros(shape, dtype=complex)) == 0.0

    def test_calls_no_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called")

        for name in ("svd", "eigvalsh", "eigh", "qr", "cholesky"):
            monkeypatch.setattr(np.linalg, name, refuse)
        a = random_complex(np.random.default_rng(4), 30, 30)
        assert holder_bound(a) > 0.0
