import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _references import projector, subspace_distance

from hardymodel.contraction import defect
from hardymodel.errors import DimensionMismatch, NegativeEigenvalue, NotHermitian, SingularShift
from hardymodel.linops import (
    DEFECT_FLOOR,
    Subspace,
    adjoint,
    defect_range,
    hermitian_sqrt,
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


def _unitary(rng, m):
    return np.linalg.qr(random_complex(rng, m, m))[0]


def _contraction(kind, rng, m):
    """Contraction of the given kind.  Every eigenvalue of I - T*T and of
    I - TT* is zero up to round-off or at least about 2e-9, far from
    DEFECT_FLOOR**2 = 1e-12 on either side."""
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


class TestDefectRange:
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
            s = defect_range(d)
            assert s.dim == int(np.sum(eigs > DEFECT_FLOOR**2))
            assert operator_norm(d - projector(s) @ d) <= m * DEFECT_FLOOR

    def test_zero_defect_has_empty_range(self):
        s = defect_range(np.zeros((3, 3)))
        assert (s.ambient_dim, s.dim) == (3, 0)

    def test_floor_is_absolute(self):
        # relative to the norm 1e-3, the 1e-7 column would count as rank
        assert defect_range(np.diag([1e-3, 1e-7])).dim == 1
        assert defect_range(np.diag([1.0, 2e-6])).dim == 2


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
