"""Two-qubit linear algebra and entanglement metrics.

Basis order for the two-photon time-bin space is fixed globally as
(early,early), (early,late), (late,early), (late,late).  All density
matrices in the package use this ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-9

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(SIGMA_Y, SIGMA_Y)

# (|ee> + |ll>)/sqrt(2), the maximally entangled target
BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def check_density_matrices(m: np.ndarray) -> None:
    """Raise ValueError unless every matrix of the stack m, shape (..., 4, 4),
    is finite, Hermitian, of unit trace and without an eigenvalue below
    `EIGENVALUE_FLOOR`. The message is the first failing check's, with
    the values of the first matrix that fails it."""
    m = m.reshape(-1, 4, 4)
    if not np.all(np.isfinite(m)):
        raise ValueError("density matrix has non-finite entries")
    defect = np.max(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(-2, -1))
    bad = defect > HERMITICITY_TOL
    if bad.any():
        raise ValueError(f"density matrix not Hermitian: defect {defect[bad][0]:.3e}")
    tr = np.trace(m, axis1=-2, axis2=-1).real
    bad = abs(tr - 1.0) > TRACE_TOL
    if bad.any():
        raise ValueError(f"density matrix trace {tr[bad][0]!r} != 1")
    low = np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2))).min(axis=-1)
    bad = low < EIGENVALUE_FLOOR
    if bad.any():
        raise ValueError(f"density matrix not positive: min eigenvalue {low[bad][0]:.3e}")


@dataclass(frozen=True)
class DensityMatrix:
    """4x4 Hermitian, unit-trace, positive matrix over the time-bin basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got {m.shape}")
        check_density_matrices(m)
        object.__setattr__(self, "matrix", m)


def _as_matrix(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def _scalar_or_stack(values: np.ndarray):
    """A float for one matrix, the array for a stack."""
    return float(values) if values.ndim == 0 else values


def concurrence(rho):
    """Wootters concurrence C = max(0, l1 - l2 - l3 - l4), of one matrix or
    of each matrix of a stack (..., 4, 4)."""
    m = _as_matrix(rho)
    r = m @ _YY @ m.conj() @ _YY
    lam = np.sqrt(np.abs(np.real(np.linalg.eigvals(r))))
    lam.sort(axis=-1)
    c = lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0]
    return _scalar_or_stack(np.where(c > 0.0, c, 0.0))


def fidelity_to_state(rho, target):
    """Overlap <target| rho |target>, of one matrix or of each matrix of a
    stack (..., 4, 4)."""
    m = _as_matrix(rho)
    psi = np.asarray(target, dtype=complex)
    # a (1, 4) @ (4, 1) product per matrix: a stack of rows times psi would
    # be one matrix-vector product, which sums in another order
    val = ((psi.conj() @ m)[..., None, :] @ psi[:, None])[..., 0, 0]
    imag = np.atleast_1d(val.imag)
    bad = np.abs(imag) > 1e-10
    if bad.any():
        raise ValueError(f"fidelity has non-negligible imaginary part {imag[bad][0]:.3e}")
    return _scalar_or_stack(val.real)


def purity(rho) -> float:
    """Tr(rho^2)."""
    m = _as_matrix(rho)
    return float(np.trace(m @ m).real)
