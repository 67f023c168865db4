"""Two-qubit linear algebra and entanglement metrics.

Basis order for the two-photon time-bin space is fixed globally as
(early,early), (early,late), (late,early), (late,late).  All density
matrices in the package use this ordering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-9

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(SIGMA_Y, SIGMA_Y)

# (|ee> + |ll>)/sqrt(2), the maximally entangled target
BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


@dataclass(frozen=True)
class DensityMatrix:
    """4x4 Hermitian, unit-trace, positive matrix over the time-bin basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix has non-finite entries")
        defect = hermiticity_defect(m)
        if defect > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian: defect {defect:.3e}")
        tr = m.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        evals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if evals.min() < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix not positive: min eigenvalue {evals.min():.3e}")
        object.__setattr__(self, "matrix", m)

    def to_json(self) -> str:
        return json.dumps(
            {"re": self.matrix.real.tolist(), "im": self.matrix.imag.tolist()}
        )


def _as_matrix(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def concurrence(rho) -> float:
    """Wootters concurrence C = max(0, l1 - l2 - l3 - l4)."""
    m = _as_matrix(rho)
    r = m @ _YY @ m.conj() @ _YY
    evals = np.linalg.eigvals(r)
    lam = np.sqrt(np.abs(np.real(evals)))
    lam.sort()
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


def fidelity_to_state(rho, target) -> float:
    """Overlap <target| rho |target>."""
    m = _as_matrix(rho)
    psi = np.asarray(target, dtype=complex)
    val = psi.conj() @ m @ psi
    if abs(val.imag) > 1e-10:
        raise ValueError(f"fidelity has non-negligible imaginary part {val.imag:.3e}")
    return float(val.real)


def purity(rho) -> float:
    """Tr(rho^2)."""
    m = _as_matrix(rho)
    return float(np.trace(m @ m).real)
