"""Reference computations the tests compare the library against.

No registered check reaches these, so they live with the tests and not in
the package.  Each is the plain formula: dense projectors, the scalar
Moebius map, a dense scan of an operator's degree window.
"""

from __future__ import annotations

import numpy as np

from hardymodel.errors import DimensionMismatch
from hardymodel.hardy import HardyOperator, HardyVector
from hardymodel.linops import Subspace, adjoint, operator_norm
from hardymodel.submodules import QuotientHandle


def projector(s: Subspace) -> np.ndarray:
    """Orthogonal projector basis @ basis*."""
    return s.basis @ adjoint(s.basis)


def subspace_distance(s1: Subspace, s2: Subspace) -> float:
    """Spectral norm of the projector difference; lies in [0, 1]."""
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    return min(1.0, operator_norm(projector(s1) - projector(s2)))


def mobius_scalar(a: complex, z: complex) -> complex:
    """phi_a(z) = (a - z) / (1 - conj(a) z)."""
    return complex((a - z) / (1.0 - np.conj(a) * z))


def check_window(op: HardyOperator) -> float:
    """Largest entry violating the operator's declared degree window."""
    m = op.dense()
    din = op.basis_in.flat_degrees()
    dout = op.basis_out.flat_degrees()
    diff = dout[:, None] - din[None, :]
    bad = (diff < op.shift_lo) | (diff > op.shift_hi)
    return float(np.abs(m[bad]).max()) if bad.any() else 0.0


def operator_adjoint(op: HardyOperator) -> HardyOperator:
    """The adjoint operator; the degree window flips sign."""
    return HardyOperator(op.basis_out, op.basis_in, op.matrix.conj().T, -op.shift_hi, -op.shift_lo)


def block(v: HardyVector, alpha) -> np.ndarray:
    """Coefficient-slot block attached to the monomial alpha."""
    i = v.basis.monomial_index(alpha)
    e = v.basis.coeff_dim
    return v.coefficients[i * e : (i + 1) * e]


def var_caps(handle: QuotientHandle) -> tuple:
    """Section degree of each leading variable."""
    return tuple(sec.shape[0] - 1 for sec in handle.sections)
