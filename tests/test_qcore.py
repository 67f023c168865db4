"""Density-matrix container and entanglement metrics, checked against
independent oracles and closed forms."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbsim import tomo
from tbsim.cli import main
from tbsim.qcore import (BELL_PHI_PLUS, DensityMatrix, check_density_matrices,
                         concurrence, fidelity_to_state, purity)


def random_physical_rho(seed: int, dim: int = 4) -> np.ndarray:
    """Random density matrix via a Ginibre matrix: A A† / tr."""
    g = np.random.default_rng(seed)
    a = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / m.trace()


def werner_state(p: float) -> np.ndarray:
    """p |Phi+><Phi+| + (1-p) I/4."""
    proj = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj())
    return p * proj + (1.0 - p) * np.eye(4) / 4.0


# --- DensityMatrix container -------------------------------------------------

def test_density_matrix_validation():
    DensityMatrix(np.eye(4) / 4.0)
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3) / 3.0)
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 2.0)  # trace 2
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = 0.2  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(m)
    neg = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix(neg)


def test_density_matrix_json_roundtrip_bit_exact(tmp_path):
    # analyze_tomo.json holds rho as one JSON object {"re": [...], "im": [...]}, decoded once
    table = tomo.simulate_counts(random_physical_rho(7), 20000, 1.0, seed=4)
    path = tmp_path / "counts.csv"
    path.write_text(table.to_csv())
    assert main(["analyze", "tomo", str(path), "--mc-runs", "2", "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "analyze_tomo.json").read_text())["rho"]
    again = DensityMatrix(np.array(obj["re"]) + 1j * np.array(obj["im"]))
    assert np.array_equal(tomo.mle_reconstruct(table).rho.matrix, again.matrix)


def _bad_matrices():
    """One matrix failing each check of `DensityMatrix`, by the check."""
    nan = np.eye(4, dtype=complex) / 4.0
    nan[2, 1] = np.nan
    skew = np.eye(4, dtype=complex) / 4.0
    skew[0, 1] = 0.2
    neg = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
    return {"non-finite": nan, "Hermitian": skew, "trace": np.eye(4, dtype=complex) / 3.0,
            "positive": neg}


@pytest.mark.parametrize("at", [0, 4, 6])
@pytest.mark.parametrize("check", ["non-finite", "Hermitian", "trace", "positive"])
def test_stacked_check_raises_the_density_matrix_message(check, at):
    bad = _bad_matrices()[check]
    with pytest.raises(ValueError) as single:
        DensityMatrix(bad)
    stack = np.stack([random_physical_rho(seed) for seed in range(7)])
    check_density_matrices(stack)
    stack[at] = bad
    with pytest.raises(ValueError) as stacked:
        check_density_matrices(stack)
    assert check in str(single.value)
    assert str(stacked.value) == str(single.value)


_YY = np.kron([[0.0, -1.0j], [1.0j, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]])


def concurrence_one_oracle(m):
    """The single-matrix concurrence that the stacked one replaced."""
    r = m @ _YY @ m.conj() @ _YY
    lam = np.sqrt(np.abs(np.real(np.linalg.eigvals(r))))
    lam.sort()
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


def test_stacked_metrics_equal_the_single_matrix_ones_bit_for_bit():
    stack = np.stack([random_physical_rho(seed) for seed in range(60)]
                     + [werner_state(p) for p in (0.0, 1.0 / 3.0, 0.5, 1.0)]).astype(complex)
    psi = BELL_PHI_PLUS.astype(complex)
    cs, fs = concurrence(stack), fidelity_to_state(stack, BELL_PHI_PLUS)
    assert cs.shape == fs.shape == (64,)
    assert cs.tolist() == [concurrence_one_oracle(m) for m in stack]
    assert fs.tolist() == [float((psi.conj() @ m @ psi).real) for m in stack]
    assert type(concurrence(stack[0])) is float and type(fidelity_to_state(stack[0], psi)) is float


# --- metrics ------------------------------------------------------------------

def test_fidelity_of_a_non_hermitian_matrix_raises():
    # <psi|m|psi> of a non-Hermitian m can be complex; its real part alone
    # would be a silently wrong fidelity
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 3] = 0.2j
    with pytest.raises(ValueError, match="imaginary part"):
        fidelity_to_state(m, BELL_PHI_PLUS)
    with pytest.raises(ValueError, match="imaginary part"):
        fidelity_to_state(np.stack([np.eye(4) / 4.0, m]), BELL_PHI_PLUS)


def test_concurrence_bell_state():
    rho = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj())
    assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_product_state():
    ket = np.zeros(4)
    ket[0] = 1.0
    assert concurrence(np.outer(ket, ket)) == pytest.approx(0.0, abs=1e-12)


def test_werner_closed_forms():
    # C = max(0, (3p-1)/2), F = (3p+1)/4, purity = p^2 + (1-p^2)/4
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        rho = werner_state(p)
        assert concurrence(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-10)
        assert fidelity_to_state(rho, BELL_PHI_PLUS) == pytest.approx(
            (3 * p + 1) / 4, abs=1e-12)
        assert purity(rho) == pytest.approx(p**2 + (1 - p**2) / 4, abs=1e-12)


def test_timebin_density_metrics():
    # rho = (|ee><ee| + |ll><ll|)/2 + (V/2)(|ee><ll| + h.c.): C = V, F = (1+V)/2
    for v in (0.0, 0.4, 0.7, 1.0):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[3, 3] = 0.5
        m[0, 3] = m[3, 0] = v / 2.0
        assert concurrence(m) == pytest.approx(v, abs=1e-10)
        assert fidelity_to_state(m, BELL_PHI_PLUS) == pytest.approx(
            (1 + v) / 2, abs=1e-12)


def test_concurrence_local_unitary_invariance():
    rho = random_physical_rho(3)
    g = np.random.default_rng(5)
    a = g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2))
    u, _ = np.linalg.qr(a)
    big_u = np.kron(u, np.eye(2))
    rotated = big_u @ rho @ big_u.conj().T
    assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_property_metric_bounds(seed):
    rho = random_physical_rho(seed)
    c = concurrence(rho)
    p = purity(rho)
    f = fidelity_to_state(rho, BELL_PHI_PLUS)
    assert 0.0 <= c <= 1.0 + 1e-12
    assert 0.25 - 1e-12 <= p <= 1.0 + 1e-12
    assert 0.0 <= f <= 1.0 + 1e-12


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_property_mixing_reduces_purity(p):
    rho = werner_state(p)
    assert purity(rho) <= 1.0 + 1e-12
    assert purity(rho) >= 0.25 - 1e-12
