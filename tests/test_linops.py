import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from _references import projector, subspace_distance

from hardymodel import linops
from hardymodel.contraction import defect
from hardymodel.errors import DimensionMismatch, NegativeEigenvalue, NotHermitian, SingularShift
from hardymodel.linops import (
    _CERTIFY_MIN,
    DEFECT_FLOOR,
    Subspace,
    adjoint,
    certified_norm,
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

    def test_all_zero_sparse_is_not_densified(self):
        class NoDense(sp.csr_matrix):
            def toarray(self, *args, **kwargs):
                raise AssertionError("densified")

        explicit_zeros = sp.csr_matrix((np.zeros(3), (np.arange(3), np.arange(3))), shape=(3, 3))
        for a in (sp.csr_matrix((500, 400), dtype=complex), explicit_zeros):
            assert operator_norm(NoDense(a)) == 0.0
        with pytest.raises(AssertionError, match="densified"):
            operator_norm(NoDense(sp.identity(3, format="csr")))


def nearly_hermitian(rng, n, skew, low_rank):
    """A Hermitian matrix (random, or rank 3 plus 1e-9 noise) plus skew
    times a random skew-Hermitian one."""
    if low_rank:
        u = random_complex(rng, n, 3)
        h = u @ adjoint(u) / n + 1e-9 * random_complex(rng, n, n)
    else:
        h = random_complex(rng, n, n)
    h = (h + adjoint(h)) / 2
    k = random_complex(rng, n, n)
    return h + skew * (k - adjoint(k)) / 2


class TestCertifiedNorm:
    """certified_norm is an upper bound on the spectral norm, within
    round-off of it for a nearly Hermitian matrix."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 2 * _CERTIFY_MIN),
        skew=st.sampled_from([0.0, 1e-14, 1e-8]),
        low_rank=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_brackets_the_svd(self, seed, n, skew, low_rank):
        a = nearly_hermitian(np.random.default_rng(seed), n, skew, low_rank)
        exact = operator_norm(a)
        skew_f = np.linalg.norm(a - adjoint(a)) / 2
        eps = np.finfo(float).eps
        margin = 8 * n * (n + 4) * eps * exact + n * eps * skew_f
        got = certified_norm(a)
        assert exact - 1e-15 * exact <= got <= exact + skew_f + margin

    def test_skew_part_is_counted(self):
        # a = 0.01 H + K: ||a|| is carried by the skew part, which the
        # Hermitian certificate alone would miss
        rng = np.random.default_rng(2)
        n = 2 * _CERTIFY_MIN
        h, k = nearly_hermitian(rng, n, 0.0, True), random_complex(rng, n, n)
        a = 0.01 * h + (k - adjoint(k)) / 2
        exact = operator_norm(a)
        assert exact <= certified_norm(a) <= np.linalg.norm(a - adjoint(a)) / 2 + 0.011 * operator_norm(h)

    @pytest.mark.parametrize("hidden", [1.5, -1.5])
    def test_missed_top_eigenvalue_falls_back_to_the_svd(self, monkeypatch, hidden):
        # a start vector that vanishes on the last two coordinates keeps the
        # Lanczos run exactly inside the first block, so the Ritz value is
        # that block's (about 1) and misses the hidden eigenvalue; one
        # Cholesky factorization then fails and the SVD decides
        n = _CERTIFY_MIN
        start = np.cos(np.arange(1, n + 1, dtype=float))
        start[-2:] = 0.0
        monkeypatch.setattr(linops, "_lanczos_start", lambda m: start[:m])
        rng = np.random.default_rng(5)
        a = np.zeros((n, n), dtype=complex)
        a[:-2, :-2] = nearly_hermitian(rng, n - 2, 0.0, False)
        a[:-2, :-2] /= operator_norm(a[:-2, :-2])
        a[-2:, -2:] = hidden * np.array([[0.5, 0.5j], [-0.5j, 0.5]])
        assert abs(np.linalg.eigvalsh(a)).max() == pytest.approx(abs(hidden))
        assert certified_norm(a) == operator_norm(a)

    @pytest.mark.parametrize("n", [0, 1, _CERTIFY_MIN - 1, _CERTIFY_MIN])
    def test_zero_matrix(self, n):
        assert certified_norm(np.zeros((n, n), dtype=complex)) == 0.0

    @pytest.mark.parametrize("n", [1, _CERTIFY_MIN - 1])
    def test_below_the_size_constant_is_the_svd(self, n):
        a = nearly_hermitian(np.random.default_rng(n), n, 1e-8, False)
        assert certified_norm(a) == operator_norm(a)

    def test_at_the_size_constant_is_certified(self):
        n = _CERTIFY_MIN
        a = nearly_hermitian(np.random.default_rng(n), n, 0.0, True)
        exact = operator_norm(a)
        got = certified_norm(a)
        # the certificate's margin is above the SVD's last bit, below n^2 eps
        assert exact < got <= exact * (1 + 8 * n * (n + 4) * np.finfo(float).eps)
