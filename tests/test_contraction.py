import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _references import mobius_scalar, tuple_power

from hardymodel.charfn import charfn_build, kernel_identity_residual
from hardymodel.contraction import (
    BlaschkeProduct,
    ContractionTuple,
    MoebiusPoint,
    _commutator_norms,
    defect,
    joint_defect,
    mobius,
    mobius_series,
    mobius_tuple,
    spectral_radius_bound,
    tensor_tuple,
    validate_tuple,
)
from hardymodel.dilation import canonical_embedding
from hardymodel.errors import DimensionMismatch
from hardymodel.hardy import enumerate_basis, kernel_vector
from hardymodel.linops import adjoint, hermitian_sqrt, operator_norm
from hardymodel.submodules import kernel_fixed_point_residual


def random_contraction(rng, dim, norm=0.8):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return norm * a / operator_norm(a)


class TestValidateTuple:
    def test_zero_tuple_passes(self):
        t = ContractionTuple((np.zeros((3, 3)), np.zeros((3, 3))))
        rep = validate_tuple(t)
        assert rep.passed
        assert rep.max_commutator == 0.0
        assert rep.max_cross_commutator == 0.0

    def test_tensor_tuple_passes(self):
        rng = np.random.default_rng(5)
        factors = [random_contraction(rng, 3) for _ in range(3)]
        t = tensor_tuple(factors)
        rep = validate_tuple(t, tol=1e-12)
        assert rep.passed
        # independent oracle: recompute residuals directly
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                a, b = t.components[i], t.components[j]
                assert operator_norm(a @ b - b @ a) <= 1e-12
                assert operator_norm(adjoint(a) @ b - b @ adjoint(a)) <= 1e-12

    def test_residuals_of_a_non_commuting_tuple(self):
        # the shared (cross-)commutator loop against a direct one, on the
        # whole space (validate_tuple) and on probe columns
        rng = np.random.default_rng(12)
        comps = [random_contraction(rng, 4) for _ in range(3)]
        probes = random_contraction(rng, 4)[:, :2]
        for cols in (np.eye(4), probes):
            comm = max(
                operator_norm((comps[i] @ comps[j] - comps[j] @ comps[i]) @ cols)
                for i in range(3) for j in range(i + 1, 3)
            )
            cross = max(
                operator_norm((adjoint(comps[i]) @ comps[j] - comps[j] @ adjoint(comps[i])) @ cols)
                for i in range(3) for j in range(3) if i != j
            )
            assert _commutator_norms(comps, cols) == pytest.approx((comm, cross), rel=1e-12)
        rep = validate_tuple(ContractionTuple(tuple(comps)))
        assert (rep.max_commutator, rep.max_cross_commutator) == _commutator_norms(comps)
        assert rep.max_commutator > 0.1 and not rep.passed

    def test_nilpotent_pair_fails_double_commutation(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        rep = validate_tuple(ContractionTuple((n, n)))
        # [N*, N] = diag(1, -1), oracle by hand
        assert rep.max_cross_commutator >= 1.0 - 1e-12
        assert not rep.passed

    def test_unitary_fails_stability_certificate(self):
        rep = validate_tuple(ContractionTuple((np.eye(2),)))
        assert not rep.passed


class TestSpectralRadiusBound:
    def test_nilpotent_is_zero(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert spectral_radius_bound(n) == 0.0

    def test_diagonal(self):
        assert abs(spectral_radius_bound(np.diag([0.5, 0.25])) - 0.5) <= 1e-12

    def test_upper_bound(self):
        rng = np.random.default_rng(1)
        a = random_contraction(rng, 4, norm=0.9)
        rho = max(abs(np.linalg.eigvals(a)))
        assert spectral_radius_bound(a) >= rho - 1e-12

    def test_matches_renormalizing_by_the_norm(self):
        # reference: renormalize every one of the six squarings by its
        # operator norm; any scale between squarings gives the same bound
        def six_svd_bound(a, power=64):
            k, m, log_norm = 1, np.asarray(a, dtype=complex), 0.0
            while k < power:
                m = m @ m
                k *= 2
                n = operator_norm(m)
                if n == 0.0:
                    return 0.0
                log_norm = 2.0 * log_norm + np.log(n)
                m = m / n
            return float(np.exp(log_norm / k))

        rng = np.random.default_rng(17)
        for dim in (1, 2, 5, 16):
            for norm in (0.05, 0.5, 0.9, 0.999):
                for _ in range(10):
                    a = random_contraction(rng, dim, norm=norm)
                    want = six_svd_bound(a)
                    assert abs(spectral_radius_bound(a) - want) <= 1e-12 * want
        jordan = np.diag(np.full(5, 0.5)) + np.diag(np.ones(4), 1)
        assert abs(spectral_radius_bound(jordan) - six_svd_bound(jordan)) <= 1e-12 * six_svd_bound(jordan)


class TestDefect:
    def test_zero(self):
        np.testing.assert_allclose(defect(np.zeros((2, 2))), np.eye(2), atol=1e-14)

    def test_unitary(self):
        q = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))[0]
        assert operator_norm(defect(q)) <= 1e-6

    def test_scalar(self):
        d = defect(np.array([[0.5]]))
        assert abs(d[0, 0] - np.sqrt(3.0) / 2.0) <= 1e-12

    def test_gate_svd_only_when_frobenius_undecided(self, svd_calls):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = a / np.linalg.norm(a)  # Frobenius norm 1 decides
        defect(a)
        assert svd_calls[0] == 0
        np.testing.assert_allclose(defect(np.eye(2)), np.zeros((2, 2)), atol=1e-14)
        assert svd_calls[0] == 1  # Frobenius sqrt(2): the SVD decides

    def test_gate_boundary(self, svd_calls):
        # 2-norm within the 1e-10 slack passes, beyond it raises
        defect(np.diag([1.0 + 0.5e-10, 1.0]))
        with pytest.raises(DimensionMismatch, match="matrix is not a contraction"):
            defect(np.diag([1.0 + 2e-10, 1.0]))
        with pytest.raises(DimensionMismatch, match="matrix is not a contraction"):
            defect(np.array([[1.0 + 2e-10]]))
        assert svd_calls[0] == 3

    def test_joint_defect_single(self):
        a = np.array([[0.5]])
        t = ContractionTuple((a,))
        np.testing.assert_allclose(joint_defect(t), defect(a), atol=1e-14)

    def test_joint_defect_zero_component(self):
        t = ContractionTuple((np.array([[0.5]]), np.array([[0.0]])))
        assert abs(joint_defect(t)[0, 0] - np.sqrt(3.0) / 2.0) <= 1e-12

    def test_joint_defect_tensor_scalars(self):
        a, b = 0.3 + 0.2j, -0.5j
        t = tensor_tuple([np.array([[a]]), np.array([[b]])])
        want = np.sqrt(1 - abs(a) ** 2) * np.sqrt(1 - abs(b) ** 2)
        assert abs(joint_defect(t)[0, 0] - want) <= 1e-12

    def test_commuting_defects_order_free(self):
        rng = np.random.default_rng(9)
        t = tensor_tuple([random_contraction(rng, 2), random_contraction(rng, 3)])
        d1, d2 = defect(t.components[0]), defect(t.components[1])
        assert operator_norm(d1 @ d2 - d2 @ d1) <= 1e-10
        reversed_t = ContractionTuple(tuple(reversed(t.components)))
        assert operator_norm(joint_defect(t) - joint_defect(reversed_t)) <= 1e-10


class TestMobius:
    def test_zero_parameter_is_negation(self):
        rng = np.random.default_rng(3)
        a = random_contraction(rng, 3)
        np.testing.assert_allclose(mobius(a, 0.0), -a, atol=1e-14)

    def test_zero_matrix(self):
        np.testing.assert_allclose(
            mobius(np.zeros((2, 2)), 0.3 + 0.1j), (0.3 + 0.1j) * np.eye(2), atol=1e-14
        )

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_involution_and_contraction(self, seed):
        rng = np.random.default_rng(seed)
        a = random_contraction(rng, 3, norm=0.85)
        lam = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        m = mobius(a, lam)
        assert operator_norm(m) <= 1.0 + 1e-8
        assert operator_norm(mobius(m, lam) - a) <= 1e-10

    def test_preserves_stability_margin(self):
        rng = np.random.default_rng(12)
        a = random_contraction(rng, 3, norm=0.7)
        m = mobius(a, 0.4 - 0.2j)
        assert spectral_radius_bound(m) < 1.0 - 1e-6

    def test_scalar_matches_matrix(self):
        a = np.array([[0.37 - 0.11j]])
        lam = 0.55j
        assert abs(mobius(a, lam)[0, 0] - mobius_scalar(lam, a[0, 0])) <= 1e-14


class TestMobiusTuple:
    def test_zero_point_componentwise_negation(self):
        rng = np.random.default_rng(8)
        t = tensor_tuple([random_contraction(rng, 2), random_contraction(rng, 2)])
        s = mobius_tuple(t, MoebiusPoint(()))
        for c0, c1 in zip(t.components, s.components):
            np.testing.assert_allclose(c1, -c0, atol=1e-14)

    def test_zero_tuple_gives_scalars(self):
        t = ContractionTuple((np.zeros((2, 2)), np.zeros((2, 2))))
        s = mobius_tuple(t, MoebiusPoint((0.3, 0.5)))
        np.testing.assert_allclose(s.components[0], 0.3 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(s.components[1], 0.5 * np.eye(2), atol=1e-14)

    def test_involution_and_class_preservation(self):
        rng = np.random.default_rng(21)
        t = tensor_tuple([random_contraction(rng, 2, 0.7), random_contraction(rng, 3, 0.7)])
        lam = MoebiusPoint((0.4, -0.3 + 0.2j))
        s = mobius_tuple(t, lam)
        assert validate_tuple(s).passed
        back = mobius_tuple(s, lam)
        for c0, c1 in zip(t.components, back.components):
            assert operator_norm(c1 - c0) <= 1e-10


class TestBlaschke:
    def test_series_matches_pointwise(self):
        b = BlaschkeProduct(np.exp(0.3j), (0.5, -0.2 + 0.1j))
        coeffs = b.coefficients(60)
        z = 0.4 * np.exp(0.7j)
        series = np.polyval(coeffs[::-1], z)
        assert abs(series - b(z)) <= abs(z) ** 55 + 1e-13

    def test_mobius_series_coefficients(self):
        # (a - z)/(1 - conj(a) z) = a + (|a|^2 - 1) sum_{k>=1} conj(a)^{k-1} z^k
        a = 0.5 - 0.3j
        got = mobius_series(a, 4)
        want = np.array(
            [a]
            + [(abs(a) ** 2 - 1.0) * np.conj(a) ** (k - 1) for k in range(1, 5)]
        )
        np.testing.assert_allclose(got, want, atol=1e-14)


class TestTensorTuple:
    def test_single_factor(self):
        a = np.array([[0.1, 0.2], [0.0, 0.3]])
        t = tensor_tuple([a])
        np.testing.assert_array_equal(t.components[0], a)

    def test_scalars(self):
        t = tensor_tuple([np.array([[0.2]]), np.array([[0.4j]])])
        assert t.space_dim == 1
        assert t.components[0][0, 0] == pytest.approx(0.2)
        assert t.components[1][0, 0] == pytest.approx(0.4j)

    def test_kronecker_structure(self):
        rng = np.random.default_rng(6)
        a, b = random_contraction(rng, 2), random_contraction(rng, 2)
        t = tensor_tuple([a, b])
        np.testing.assert_allclose(t.components[0], np.kron(a, np.eye(2)), atol=1e-14)
        np.testing.assert_allclose(t.components[1], np.kron(np.eye(2), b), atol=1e-14)
        rep = validate_tuple(t, tol=1e-12)
        assert rep.passed


def test_moebius_point_rejects_boundary():
    with pytest.raises(Exception):
        MoebiusPoint((1.0,))


def test_power():
    rng = np.random.default_rng(13)
    t = tensor_tuple([random_contraction(rng, 2), random_contraction(rng, 2)])
    a = tuple_power(t, (2, 1))
    want = t.components[0] @ t.components[0] @ t.components[1]
    np.testing.assert_allclose(a, want, atol=1e-13)



_NAN = float("nan")
_HALF = np.array([[0.5]])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: MoebiusPoint((_NAN,)), id="moebius-point"),
        pytest.param(lambda: BlaschkeProduct(_NAN), id="blaschke-factor"),
        pytest.param(lambda: BlaschkeProduct(1.0, (_NAN,)), id="blaschke-zero"),
        pytest.param(lambda: kernel_vector((_NAN, 0.0), enumerate_basis(2, 4, 1)), id="kernel-vector"),
        pytest.param(lambda: kernel_identity_residual(charfn_build(_HALF), _NAN, 0.1), id="kernel-identity-a"),
        pytest.param(lambda: kernel_identity_residual(charfn_build(_HALF), 0.1, _NAN), id="kernel-identity-b"),
        pytest.param(
            lambda: kernel_fixed_point_residual([BlaschkeProduct(1.0, (0.3,))], (_NAN,), enumerate_basis(1, 6, 1)),
            id="kernel-fixed-point-point",
        ),
        pytest.param(
            lambda: kernel_fixed_point_residual([lambda z: _NAN], (0.5,), enumerate_basis(1, 6, 1)),
            id="kernel-fixed-point-value",
        ),
        pytest.param(lambda: mobius(_HALF, _NAN), id="mobius"),
        pytest.param(lambda: ContractionTuple((np.array([[0.5, _NAN], [0.0, 0.5]]),)), id="tuple-nan"),
        pytest.param(lambda: ContractionTuple((np.zeros((2, 2)), np.full((2, 2), np.inf))), id="tuple-inf"),
        pytest.param(lambda: canonical_embedding(ContractionTuple((np.array([[_NAN]]),)), 4), id="embedding"),
    ],
)
def test_nan_fails_the_open_disk_guards(call):
    # every comparison with NaN is false, so a guard written as
    # "abs(z) >= 1 raises" lets NaN through; each one must refuse it,
    # and a tuple must refuse a non-finite entry
    with pytest.raises(DimensionMismatch):
        call()


@pytest.mark.parametrize("value", [_NAN, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(defect, id="defect"),
        pytest.param(hermitian_sqrt, id="hermitian-sqrt"),
        pytest.param(spectral_radius_bound, id="spectral-radius"),
        pytest.param(lambda m: mobius(m, 0.3), id="mobius"),
        pytest.param(charfn_build, id="charfn-build"),
    ],
)
def test_non_finite_fails_the_matrix_guards(call, value):
    # a raw matrix reaches these without ContractionTuple's finiteness
    # check; each must refuse it before any arithmetic, so neither a NaN
    # result, a RuntimeWarning nor numpy's LinAlgError gets out
    with pytest.raises(DimensionMismatch):
        call(np.array([[value]]))
