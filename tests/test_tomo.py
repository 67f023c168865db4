"""Tomography: linear-inversion exactness, MLE physicality, equivariance,
and the Born-level sampling pipeline."""

import math

import numpy as np
import pytest

from tbsim import rng, tomo
from tbsim.optics import TimebinStateModel, ideal_timebin_density

from test_qcore import random_physical_rho


def test_sixteen_settings_product_order():
    settings = tomo.SETTINGS
    assert len(settings) == 16
    assert len(set(settings)) == 16
    assert settings[0] == ("E", "E") and settings[-1] == ("Pi", "Pi")
    assert tomo.PROJECTORS.shape == (16, 4, 4)
    for op in tomo.PROJECTORS:
        assert np.allclose(op, op.conj().T)
        assert np.allclose(op @ op, op, atol=1e-12)  # rank-1 projector
        assert np.trace(op).real == pytest.approx(1.0)


def test_completeness_of_basis_pairs():
    # E + L projectors sum to identity on each qubit
    by = dict(zip(tomo.SETTINGS, tomo.PROJECTORS))
    total = sum(by[(a, b)] for a in ("E", "L") for b in ("E", "L"))
    assert np.allclose(total, np.eye(4), atol=1e-12)


def test_probabilities_against_manual_trace():
    rho = random_physical_rho(0)
    kets = {"E": np.array([1.0, 0.0]), "L": np.array([0.0, 1.0]),
            "P": np.array([1.0, 1.0]) / np.sqrt(2.0), "Pi": np.array([1.0, 1.0j]) / np.sqrt(2.0)}
    for (xx, x), p in zip(tomo.SETTINGS, tomo.probabilities(rho)):
        ket = np.kron(kets[xx], kets[x])
        want = np.real(ket.conj() @ rho @ ket)
        assert p == pytest.approx(want, abs=1e-12)


def test_probabilities_batched_and_read_only():
    with pytest.raises(ValueError):
        tomo.PROJECTORS[0, 0, 0] = 0.0
    rhos = np.stack([random_physical_rho(seed) for seed in range(6)]).reshape(2, 3, 4, 4)
    stacked = tomo.probabilities(rhos)
    assert stacked.shape == (2, 3, 16)
    for i in range(2):
        for j in range(3):
            assert np.max(np.abs(stacked[i, j] - tomo.probabilities(rhos[i, j]))) < 1e-15


# --- linear inversion ----------------------------------------------------------

def test_linear_inversion_exact_on_noise_free_probabilities():
    scale = 1e12
    worst = 0.0
    for seed in range(100):
        rho = random_physical_rho(seed)
        counts = np.array([round(scale * p) for p in tomo.probabilities(rho)],
                          dtype=np.int64)
        table = tomo.CountsTable(counts=counts)
        rec = tomo.linear_reconstruct(table)
        worst = max(worst, float(np.max(np.abs(rec - rho))))
    assert worst < 1e-9


def test_project_to_physical():
    m = np.diag([0.8, 0.4, -0.1, -0.1]).astype(complex)
    p = tomo.project_to_physical(m)
    vals = np.linalg.eigvalsh(p)
    assert vals.min() >= -1e-15
    assert np.trace(p).real == pytest.approx(1.0)


# --- MLE -------------------------------------------------------------------------

def test_mle_outputs_physical_and_near_truth():
    for seed in range(5):
        rho = random_physical_rho(seed + 50)
        table = tomo.simulate_counts(rho, 2_000_000, 1.0, seed=seed)
        res = tomo.mle_reconstruct(table)
        m = res.rho.matrix  # DensityMatrix enforces the invariants
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(m).min() >= -1e-9
        assert np.max(np.abs(m - rho)) < 0.01


def test_mle_beats_or_matches_truth_likelihood():
    rho = random_physical_rho(123)
    table = tomo.simulate_counts(rho, 100000, 1.0, seed=3)
    res = tomo.mle_reconstruct(table)
    assert res.log_likelihood >= tomo.poisson_log_likelihood(table, rho) - 1e-6


def test_mle_equivariant_under_basis_relabeling():
    # swapping early/late labels on both photons maps the counts by the
    # setting permutation and the state by (X x X) rho* (X x X)
    rho = ideal_timebin_density(TimebinStateModel(visibility=0.7, pump_phase=0.4))
    table = tomo.simulate_counts(rho, 500000, 1.0, seed=8)
    labels = ["E", "L", "P", "Pi"]
    swap = {"E": "L", "L": "E", "P": "P", "Pi": "Pi"}
    perm = [4 * labels.index(swap[a]) + labels.index(swap[b])
            for a in labels for b in labels]
    permuted = tomo.CountsTable(counts=table.counts[perm])
    x = np.array([[0, 1], [1, 0]])
    xx = np.kron(x, x)
    lin_a = tomo.linear_reconstruct(table)
    lin_b = tomo.linear_reconstruct(permuted)
    assert np.max(np.abs(lin_b - xx @ lin_a.conj() @ xx)) < 1e-12
    rho_a = tomo.mle_reconstruct(table).rho.matrix
    rho_b = tomo.mle_reconstruct(permuted).rho.matrix
    # MLE is equivariant up to optimizer convergence tolerance
    assert np.max(np.abs(rho_b - xx @ rho_a.conj() @ xx)) < 2e-3


# --- counts sampling and IO -------------------------------------------------------

def test_simulate_counts_deterministic_and_unbiased():
    rho = ideal_timebin_density(TimebinStateModel(visibility=0.7))
    a = tomo.simulate_counts(rho, 100000, 0.25, seed=5)
    b = tomo.simulate_counts(rho, 100000, 0.25, seed=5)
    assert np.array_equal(a.counts, b.counts)
    for k, p in enumerate(tomo.probabilities(rho)):
        mean = 100000 * 0.25 * p
        assert abs(a.counts[k] - mean) < 5 * np.sqrt(mean + 1)


@pytest.mark.parametrize("eta", [0.0, -0.25, 1.5, float("nan")])
def test_simulate_counts_rejects_an_efficiency_outside_0_1(eta):
    rho = ideal_timebin_density(TimebinStateModel(visibility=0.7))
    with pytest.raises(ValueError, match="efficiency_product"):
        tomo.simulate_counts(rho, 1000, eta, seed=5)


def test_counts_csv_roundtrip():
    rho = ideal_timebin_density(TimebinStateModel())
    table = tomo.simulate_counts(rho, 10000, 1.0, seed=2)
    again = tomo.CountsTable.from_csv(table.to_csv())
    assert np.array_equal(table.counts, again.counts)


def test_counts_csv_rejects_malformed():
    with pytest.raises(ValueError, match="row"):
        tomo.CountsTable.from_csv("xx_proj,x_proj,count\nE,E\n")
    with pytest.raises(ValueError, match="missing"):
        tomo.CountsTable.from_csv("xx_proj,x_proj,count\nE,E,5\n")


# --- full pipeline ------------------------------------------------------------------

def test_reconstruct_reports_errors_and_phase_fidelity():
    rho = ideal_timebin_density(TimebinStateModel(visibility=0.7, pump_phase=0.5))
    table = tomo.simulate_counts(rho, 4000, 1.0, seed=10)
    res = tomo.reconstruct(table, mc_runs=15, seed=1)
    assert res.converged
    assert 0.0 < res.concurrence_err < 0.2
    assert 0.0 < res.fidelity_err < 0.2
    # the pump phase rotates the coherence away from the fixed Bell state
    assert res.fidelity_phase_optimized >= res.fidelity
    assert res.fidelity_phase_optimized == pytest.approx(0.85, abs=0.04)


# --- the batched MLE against the L-BFGS-B fit it replaced ----------------------------

_LOWER_ROWS, _LOWER_COLS = np.tril_indices(4, -1)


def lbfgs_log_likelihood(table):
    """Log-likelihood reached by the former per-table fit: rho = T T^dag / Tr
    with T lower triangular (16 real parameters), SciPy L-BFGS-B on the
    extended Poisson NLL, from the scaled projected linear inversion."""
    from scipy.optimize import minimize

    def t_from_params(t):
        m = np.zeros((4, 4), dtype=complex)
        m[np.diag_indices(4)] = t[:4]
        m[_LOWER_ROWS, _LOWER_COLS] = t[4::2] + 1j * t[5::2]
        return m

    rho0 = tomo.project_to_physical(tomo.linear_reconstruct(table))
    ops = tomo.PROJECTORS
    n = table.counts.astype(float)
    scale0 = n.sum() / np.sum(np.real(np.einsum("kij,ji->k", ops, rho0)))
    c0 = np.linalg.cholesky(scale0 * (rho0 + 1e-8 * np.eye(4)) / (1.0 + 4e-8))
    t0 = np.concatenate([np.diag(c0).real, np.column_stack(
        [c0[_LOWER_ROWS, _LOWER_COLS].real, c0[_LOWER_ROWS, _LOWER_COLS].imag]).ravel()])

    def objective(t):
        tm = t_from_params(t)
        h = tm @ tm.conj().T
        mu = np.clip(np.real(np.einsum("kij,ji->k", ops, h)), 1e-12, None)
        gt = tm.conj().T @ np.einsum("k,kij->ij", 1.0 - n / mu, ops)
        upper = gt[_LOWER_COLS, _LOWER_ROWS]
        grad = np.concatenate([2.0 * np.real(np.diag(gt)), np.column_stack(
            [2.0 * upper.real, -2.0 * upper.imag]).ravel()])
        return float(np.sum(mu - n * np.log(mu))), grad

    res = minimize(objective, t0, jac=True, method="L-BFGS-B",
                   options={"maxiter": 10_000, "ftol": 1e-10, "maxfun": 100_000})
    tm = t_from_params(res.x if res.fun <= objective(t0)[0] else t0)
    h = tm @ tm.conj().T
    return tomo.poisson_log_likelihood(table, h / h.trace().real)


def _oracle_cases():
    """(name, table, seed) of the benchmark's five states at about 1e2 and
    1e6 counts per setting, a pure Bell state, the maximally mixed state and
    a table with five empty settings."""
    states = ((0.5, np.pi / 2.0), (0.6, np.pi), (0.7, 0.0), (0.8, 0.75 * np.pi),
              (0.9, np.pi / 4.0))
    levels = ((50_000, 0.00625), (4_000_000, 1.0))
    for i, (v, phi) in enumerate(states):
        rho = ideal_timebin_density(TimebinStateModel(v, phi))
        for j, (cycles, eff) in enumerate(levels):
            yield f"V={v} {cycles}", tomo.simulate_counts(rho, cycles, eff, 500 + 2 * i + j), j
    bell = np.outer(tomo.BELL_PHI_PLUS, tomo.BELL_PHI_PLUS).astype(complex)
    yield "Bell", tomo.simulate_counts(bell, 200_000, 0.01, 11), 1
    yield "mixed", tomo.simulate_counts(np.eye(4) / 4.0, 200_000, 0.01, 12), 2
    counts = tomo.simulate_counts(random_physical_rho(7), 20_000, 0.05, 13).counts
    counts[[1, 6, 9, 11, 14]] = 0
    yield "empty settings", tomo.CountsTable(counts=counts), 3


def test_batched_mle_never_below_lbfgs(monkeypatch):
    fits = []
    solve = tomo.minimize

    def spy(*args):
        res = solve(*args)
        fits.append(res)
        return res

    monkeypatch.setattr(tomo, "minimize", spy)
    for name, table, seed in _oracle_cases():
        own = tomo.mle_reconstruct(table).log_likelihood
        assert own >= lbfgs_log_likelihood(table) - 1e-6, name
        counts = tomo._resample(table, 50, seed)
        rhos, _ = tomo._fit(counts)
        for k, rho in enumerate(rhos):
            resampled = tomo.CountsTable(counts=counts[k])
            assert (tomo.poisson_log_likelihood(resampled, rho)
                    >= lbfgs_log_likelihood(resampled) - 1e-6), (name, k)
    assert all(res.converged.all() and res.nit.max() <= 100 for res in fits)


def test_observed_rho_does_not_depend_on_mc_runs():
    rho = ideal_timebin_density(TimebinStateModel(visibility=0.8, pump_phase=1.0))
    table = tomo.simulate_counts(rho, 50_000, 0.00625, seed=21)
    few = tomo.reconstruct(table, mc_runs=2, seed=3)
    many = tomo.reconstruct(table, mc_runs=50, seed=3)
    assert np.array_equal(few.rho.matrix, many.rho.matrix)
    assert (few.mc_converged, many.mc_converged) == (2, 50)


@pytest.mark.parametrize("runs", [1, 0])
def test_monte_carlo_errors_needs_two_runs(runs):
    # one resample has no sample standard deviation
    rho = ideal_timebin_density(TimebinStateModel(visibility=0.8))
    table = tomo.simulate_counts(rho, 50_000, 0.00625, seed=21)
    with pytest.raises(ValueError, match="at least 2"):
        tomo.monte_carlo_errors(table, runs=runs, seed=3)


# --- the one-draw resamples and the compacted APG loop against their oracles --------

# 0, Knuth (below 10), PTRS near 10 (where many candidates reach the full test),
# PTRS at about 1e2 and 1e6, and about 1e7
_RESAMPLED_COUNTS = [0, 1, 4, 9, 10, 11, 12, 13, 14, 37, 96, 250, 1000, 950_000,
                     1_000_003, 10_000_019]


@pytest.mark.parametrize("runs", [2, 11, 50])
def test_resample_equals_the_per_stream_draws(monkeypatch, runs):
    full_tests = []
    lgamma = math.lgamma
    monkeypatch.setattr(math, "lgamma", lambda x: full_tests.append(x) or lgamma(x))
    table = tomo.CountsTable(counts=_RESAMPLED_COUNTS)
    means = table.counts.astype(float)
    for seed in (0, 7, 2**64 - 1):
        want = np.stack([rng.CounterRng(seed, rng.Stream.TOMO_RESAMPLE + k).poisson(means)
                         for k in range(runs)])
        got = tomo._resample(table, runs, seed)
        assert got.dtype == np.int64 and np.array_equal(got, want), seed
    assert full_tests  # some draws were decided by the full PTRS test


def minimize_oracle(n, h0):
    """`tomo.minimize` before its state was compacted: every iteration gathers
    and scatters the state of the active fits. Verbatim but for the count of
    momentum points outside the domain that it also returns."""
    _nll_and_gradient, _clip_psd, _inner = tomo._nll_and_gradient, tomo._clip_psd, tomo._inner
    m = len(n)
    tol = tomo._MLE_STALL_TOL * n.sum(axis=1)
    step = n.sum(axis=1) / 16.0
    x = h0.reshape(m, 16).astype(complex)
    fx, gx = _nll_and_gradient(x, n)
    nfev = m
    x_prev = x.copy()
    theta = np.ones(m)
    stalls = np.zeros(m, dtype=int)
    nit = np.zeros(m, dtype=int)
    active = np.arange(m)
    outside = 0
    while active.size:
        na, xa = n[active], x[active]
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta[active] ** 2))
        beta = (theta[active] - 1.0) / theta_next
        y, fy, gy = xa.copy(), fx[active], gx[active]
        moved = np.flatnonzero(beta > 0)
        if moved.size:
            ym = xa[moved] + beta[moved, None] * (xa[moved] - x_prev[active[moved]])
            fm, gm = _nll_and_gradient(ym, na[moved])
            nfev += moved.size
            ok = np.isfinite(fm)  # else take a plain gradient step from x
            outside += int((~ok).sum())
            y[moved[ok]], fy[moved[ok]], gy[moved[ok]] = ym[ok], fm[ok], gm[ok]

        t = step[active]
        z, fz, gz = np.empty_like(y), np.empty_like(fy), np.empty_like(gy)
        todo = np.arange(len(active))
        for _ in range(tomo._MLE_MAX_HALVINGS):
            zt = _clip_psd((y[todo] - t[todo, None] * gy[todo]).reshape(-1, 4, 4)).reshape(-1, 16)
            ft, gt = _nll_and_gradient(zt, na[todo])
            nfev += todo.size
            d = zt - y[todo]
            bound = fy[todo] + _inner(gy[todo], d) + _inner(d, d) / (2.0 * t[todo])
            z[todo], fz[todo], gz[todo] = zt, ft, gt
            todo = todo[~(ft <= bound)]
            if not todo.size:
                break
            t[todo] *= 0.5
        step[active] = 1.25 * t

        rose = ~(fz <= fx[active])
        decrease = np.where(rose, 0.0, fx[active] - fz)
        x_prev[active] = xa
        took = active[~rose]
        x[took], fx[took], gx[took] = z[~rose], fz[~rose], gz[~rose]
        theta[active] = np.where(rose, 1.0, theta_next)
        stalls[active] = np.where(decrease <= tol[active], stalls[active] + 1, 0)
        nit[active] += 1
        active = active[(stalls[active] < tomo._MLE_STALL_ITERS)
                        & (nit[active] < tomo._MLE_MAX_ITER)]
    return tomo.ApgResult(x=x.reshape(m, 4, 4), nfev=int(nfev),
                          converged=stalls >= tomo._MLE_STALL_ITERS, nit=nit), outside


def _start(counts):
    """`tomo._fit`'s starting points: the scaled projected linear inversions."""
    n = counts.astype(float)
    rho0 = tomo.project_to_physical(tomo._linear_inversion(n))
    return n, (n.sum(axis=1) / np.sum(tomo.probabilities(rho0), axis=1))[:, None, None] * rho0


def _minimize_cases():
    """(name, counts) of batches of one and of 50 resamples at about 1e2 and 1e6
    counts per setting, a table with empty settings, and a nearly pure state
    whose momentum points leave the domain."""
    for v, phi, cycles, eff, seed in ((0.7, 0.0, 50_000, 0.00625, 504),
                                      (0.8, 0.75 * np.pi, 4_000_000, 1.0, 507),
                                      (0.99, 0.0, 50_000, 0.00625, 0)):
        table = tomo.simulate_counts(ideal_timebin_density(TimebinStateModel(v, phi)),
                                     cycles, eff, seed)
        yield f"V={v} {cycles}", table.counts[None]
        yield f"V={v} {cycles} resamples", tomo._resample(table, 50, seed)
    counts = tomo.simulate_counts(random_physical_rho(7), 20_000, 0.05, 13).counts
    counts[[1, 6, 9, 11, 14]] = 0
    yield "empty settings", counts[None]
    yield "empty settings resamples", tomo._resample(tomo.CountsTable(counts=counts), 50, 3)


def test_minimize_equals_the_uncompacted_loop():
    outside = {}
    for name, counts in _minimize_cases():
        n, h0 = _start(counts)
        want, outside[name] = minimize_oracle(n, h0)
        got = tomo.minimize(n, h0)
        assert got.x.tobytes() == want.x.tobytes(), name
        assert got.nfev == want.nfev, name
        assert np.array_equal(got.nit, want.nit), name
        assert np.array_equal(got.converged, want.converged), name
    assert outside["V=0.99 50000"] and outside["V=0.99 50000 resamples"]
