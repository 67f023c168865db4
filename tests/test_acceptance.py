"""End-to-end closure suite: one test per headline quantity, each printing a
single PASS/FAIL line with the measured values.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import dataclasses
import os

import numpy as np
import pytest

from tbsim import cavity, fitting, optics, tomo
from tbsim.qcore import concurrence
from tbsim.cascade import EmitterParams, two_pair_prob_for_g2
from tbsim.cli import main as cli_main
from tbsim.optics import (CoincidenceHistogram, DetectorModel, Interferometer,
                          TimebinStateModel, histogram_events,
                          ideal_timebin_density, simulate_autocorrelation,
                          simulate_hom_run, simulate_poissonian_source)
from tbsim.rng import CounterRng

from test_qcore import random_physical_rho

REP = 12500.0


def report(num, name, checks):
    """checks: list of (ok, detail) pairs; prints one line, asserts all."""
    ok = all(c[0] for c in checks)
    detail = "; ".join(c[1] for c in checks)
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# 1 -- entanglement closure ------------------------------------------------

def test_criterion_1_entanglement_closure():
    rho = ideal_timebin_density(TimebinStateModel(visibility=0.70))

    # low statistics: tens to ~1e2 counts per setting
    table = tomo.simulate_counts(rho, 50_000, 0.00625, seed=101)
    res = tomo.reconstruct(table, mc_runs=50, seed=11)

    # high statistics: ~1e6 effective trials per setting
    big = tomo.simulate_counts(rho, 16_000_000, 1.0, seed=102)
    c_big_val = concurrence(tomo.mle_reconstruct(big).rho)

    report(1, "entanglement closure", [
        (abs(res.concurrence - 0.70) < 0.10,
         f"C={res.concurrence:.3f} (0.70±0.10)"),
        (abs(res.fidelity - 0.85) < 0.05,
         f"F={res.fidelity:.3f} (0.85±0.05)"),
        (0.05 <= res.concurrence_err <= 0.15,
         f"MC sigma_C={res.concurrence_err:.3f} (in [0.05,0.15])"),
        (abs(c_big_val - 0.700) < 0.01,
         f"C@1e6 trials={c_big_val:.4f} (0.700±0.01)"),
    ])


# 2 -- tomography exactness ------------------------------------------------

def test_criterion_2_tomography_exactness():
    worst = 0.0
    for i in range(100):
        rho = random_physical_rho(1000 + i)
        probs = tomo.probabilities(rho)
        table = tomo.CountsTable(counts=np.rint(probs * 1e12).astype(np.int64))
        rec = tomo.linear_reconstruct(table)
        worst = max(worst, float(np.max(np.abs(rec - rho))))

    mle_ok = True
    for i in range(5):
        rho = random_physical_rho(2000 + i)
        table = tomo.simulate_counts(rho, 20_000, 0.05, seed=300 + i)
        m = tomo.mle_reconstruct(table).rho.matrix
        w = np.linalg.eigvalsh(m)
        mle_ok &= bool(w.min() >= -1e-10 and abs(np.trace(m).real - 1.0) < 1e-9
                       and np.allclose(m, m.conj().T, atol=1e-12))

    report(2, "tomography exactness", [
        (worst < 1e-9, f"linear inversion worst error {worst:.2e} (<1e-9)"),
        (mle_ok, "MLE outputs positive, unit trace, Hermitian"),
    ])


# 3 -- purity closure --------------------------------------------------------

def _measure_g2(emitter, photon, cycles, seed):
    # histogram range far beyond the blinking correlation length so the
    # normalizing side peaks carry no bunching enhancement
    events = simulate_autocorrelation(emitter, photon, DetectorModel.ideal(),
                                      cycles, seed)
    hist = histogram_events(events, 0, 1, bin_width=REP / 25.0,
                            max_delay=800.5 * REP)
    return fitting.g2_zero(hist, REP)


def test_criterion_3_purity_closure():
    base = EmitterParams()
    em_xx = dataclasses.replace(base, two_pair_prob=two_pair_prob_for_g2(0.016, base))
    em_x = dataclasses.replace(base, two_pair_prob=two_pair_prob_for_g2(0.025, base))
    g2_xx, _ = _measure_g2(em_xx, "xx", 400_000, 31)
    g2_x, _ = _measure_g2(em_x, "x", 400_000, 32)
    g2_ideal, _ = _measure_g2(base, "xx", 200_000, 33)

    events = simulate_poissonian_source(0.2, 300.0, REP, DetectorModel.ideal(),
                                        300_000, 34)
    hist = histogram_events(events, 0, 1, bin_width=REP / 25.0,
                            max_delay=20.5 * REP)
    g2_coh, _ = fitting.g2_zero(hist, REP)

    report(3, "purity closure", [
        (abs(g2_xx - 0.016) < 0.004, f"g2_xx={g2_xx:.4f} (0.016±0.004)"),
        (abs(g2_x - 0.025) < 0.005, f"g2_x={g2_x:.4f} (0.025±0.005)"),
        (g2_ideal < 0.005, f"g2_ideal={g2_ideal:.4f} (<0.005)"),
        (abs(g2_coh - 1.00) < 0.03, f"g2_coherent={g2_coh:.3f} (1.00±0.03)"),
    ])


# 4 -- blinking ---------------------------------------------------------------

def test_criterion_4_blinking():
    em = EmitterParams()  # on fraction 0.625, mean on dwell 200 cycles
    events = simulate_autocorrelation(em, "xx", DetectorModel.ideal(),
                                      400_000, 41)
    hist = histogram_events(events, 0, 1, bin_width=REP / 25.0,
                            max_delay=800.5 * REP)
    f = fitting.blinking_factor(hist, REP)
    report(4, "blinking", [
        (abs(f - 0.625) < 0.02, f"on fraction {f:.4f} (0.625±0.02)"),
    ])


# 5 -- HOM closure ------------------------------------------------------------

def _hom_g2(vm, cycles, seed):
    events = simulate_hom_run(EmitterParams(), Interferometer(delay=3000.0),
                              vm, DetectorModel.ideal(), cycles, seed)
    hist = histogram_events(events, 0, 1, bin_width=50.0, max_delay=7800.0)
    return fitting.hom_five_peak(hist, 3000.0), hist


def test_criterion_5_hom_closure():
    peaks, hist = _hom_g2(0.482, 400_000, 51)
    peaks0, _ = _hom_g2(0.0, 200_000, 52)
    peaks1, _ = _hom_g2(1.0, 200_000, 53)

    # sharp emission lifetime localizes each peak to the bin at its nominal
    # delay, so the occupied bins identify the positions exactly
    sharp = dataclasses.replace(EmitterParams(), tau_xx=1.0)
    ev = simulate_hom_run(sharp, Interferometer(delay=3000.0), 0.0,
                          DetectorModel.ideal(), 100_000, 54)
    h_sharp = histogram_events(ev, 0, 1, bin_width=50.0, max_delay=7800.0)
    occupied = h_sharp.centers[h_sharp.counts > 10]
    pos_ok = (sorted({int(np.rint(c / 3000.0)) for c in occupied})
              == [-2, -1, 0, 1, 2]
              and all(abs(c - np.rint(c / 3000.0) * 3000.0) <= 50.0
                      for c in occupied))

    report(5, "HOM closure", [
        (abs(peaks.g2_hom - 0.259) < 0.010,
         f"g2_HOM={peaks.g2_hom:.4f} (0.259±0.010)"),
        (abs(peaks0.g2_hom - 0.50) < 0.02,
         f"distinguishable g2={peaks0.g2_hom:.3f} (0.50±0.02)"),
        (peaks1.g2_hom <= 0.01,
         f"indistinguishable g2={peaks1.g2_hom:.4f} (<=0.01)"),
        (pos_ok, "peaks at 0, ±3 ns, ±6 ns"),
    ])


# 6 -- lifetimes ---------------------------------------------------------------

def test_criterion_6_lifetimes():
    sigma = 16.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    checks = []
    for tau in (300.0, 468.0):
        r = CounterRng(int(tau), stream=90)
        t = 200.0 + r.exponential(100_000, tau) + r.normal(100_000, sigma)
        edges = np.arange(-200.0, 200.0 + 12 * tau, 4.0)
        counts, _ = np.histogram(t, bins=edges)
        hist = CoincidenceHistogram(4.0, float(edges[0]),
                                    counts.astype(np.int64))
        fit = fitting.fit_lifetime(hist, sigma)
        tau_hat, tau_err = fit.value("tau"), fit.sigma("tau")
        checks.append((fit.converged and abs(tau_hat - tau) / tau < 0.01,
                       f"tau={tau_hat:.1f}±{tau_err:.1f} (truth {tau:.0f}, 1%)"))
        checks.append((0.2 < tau_err < 10.0, f"sigma {tau_err:.2f} ps plausible"))

    r1 = fitting.purcell_from_lifetimes(468.0, 800.0)
    r2 = fitting.purcell_from_lifetimes(334.0, 400.0)
    checks.append((abs(r1 - 1.71) < 0.005, f"Purcell 800/468={r1:.3f} (1.71)"))
    checks.append((abs(r2 - 1.20) < 0.005, f"Purcell 400/334={r2:.3f} (1.20)"))
    report(6, "lifetimes", checks)


# 7 -- cavity -------------------------------------------------------------------

def test_criterion_7_cavity():
    mode = cavity.cavity_mode(cavity.make_cavity_stack())
    lam0, q = mode.wavelength, mode.q

    mirror_layers = []
    for _ in range(24):
        mirror_layers.append(cavity.Layer(cavity.N_GAAS, lam0 / (4 * cavity.N_GAAS)))
        mirror_layers.append(cavity.Layer(cavity.N_ALAS, lam0 / (4 * cavity.N_ALAS)))
    mirror = cavity.LayerStack(tuple(mirror_layers), n_substrate=cavity.N_GAAS)
    big_r, _ = cavity.transfer_matrix_spectrum(mirror, [lam0])

    g = np.random.default_rng(7)
    worst = 0.0
    lam = np.linspace(800.0, 1100.0, 201)
    for _ in range(20):
        layers = tuple(cavity.Layer(float(g.uniform(1.2, 3.6)),
                                    float(g.uniform(20.0, 300.0)))
                       for _ in range(g.integers(1, 40)))
        st = cavity.LayerStack(layers, n_substrate=float(g.uniform(1.0, 3.6)))
        r, t = cavity.transfer_matrix_spectrum(st, lam)
        worst = max(worst, float(np.max(np.abs(r + t - 1.0))))

    d = cavity.DefectModel(height=20.0)
    eta_070 = cavity.extraction_efficiency(mode, d, 0.70)
    eta_062 = cavity.extraction_efficiency(mode, d, 0.62)

    report(7, "cavity", [
        (abs(lam0 - 936.0) < 2.0, f"resonance {lam0:.2f} nm (936±2), Q={q:.0f}"),
        (big_r[0] > 0.99, f"24-pair mirror R={big_r[0]:.5f} (>0.99)"),
        (worst < 1e-9, f"R+T-1 worst {worst:.1e} (<1e-9)"),
        (abs(eta_070 - 0.5) < 0.15, f"eta(NA 0.70)={eta_070:.3f} (0.5±0.15)"),
        (eta_070 > eta_062, f"eta(0.70) > eta(0.62)={eta_062:.3f}"),
    ])


# 8 -- efficiency ledger --------------------------------------------------------

def test_criterion_8_efficiency_ledger():
    xx = cavity.EfficiencyBudget(count_rate=61000.0, rep_rate=80e6,
                                 blinking=0.625, p_emit=0.65, eta_detector=0.25,
                                 eta_fiber=0.4, eta_setup=0.12)
    x = dataclasses.replace(xx, count_rate=26000.0, eta_fiber=0.18)
    eta_xx = cavity.efficiency_budget(xx)["eta_first_lens"]
    eta_x = cavity.efficiency_budget(x)["eta_first_lens"]
    report(8, "efficiency ledger", [
        (abs(eta_xx - 61000.0 / 390000.0) < 1e-12,
         f"eta_xx={eta_xx:.6f} (0.156...)"),
        (abs(eta_x - 26000.0 / 175500.0) < 1e-12,
         f"eta_x={eta_x:.6f} (0.148...)"),
    ])


# 9 -- determinism ---------------------------------------------------------------

_SMALL_CFG = """\
seed = 2024
tomography.cycles_per_setting = 5000
hom.cycles = 20000
autocorr.cycles = 20000
lifetime.counts = 20000
rabi.cycles_per_point = 20000
"""

_DATA_FILES = {
    "tomography": "tomography_counts.csv",
    "hom": "hom_hist.csv",
    "autocorr": "autocorr_hist.csv",
    "lifetime": "lifetime_hist.csv",
    "rabi": "rabi_scan.csv",
}

# the simulate command whose data file each analyze command reads
_ANALYZED = {"tomo": "tomography", "hom": "hom", "g2": "autocorr",
             "lifetime": "lifetime", "rabi": "rabi"}

# the files each cavity command writes, besides its manifest
_CAVITY_FILES = {"spectrum": ["spectrum.csv", "resonance.json"], "purcell": ["purcell.csv"],
                 "efficiency": ["efficiency.json"]}


def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_SMALL_CFG)
    checks = []
    for what, fname in _DATA_FILES.items():
        paths = []
        for rep in ("a", "b"):
            out = tmp_path / f"{what}_{rep}"
            code = cli_main(["simulate", what, "--config", str(cfg),
                             "--out", str(out)])
            assert code == 0
            paths.append(out / fname)
        same = paths[0].read_bytes() == paths[1].read_bytes()
        checks.append((same, f"{what} rerun byte-identical"))
    # command: (its argv before --out, the files compared)
    runs = {f"analyze {what}": (["analyze", what, str(tmp_path / f"{sim}_a" / _DATA_FILES[sim])],
                                [f"analyze_{what}.json"]) for what, sim in _ANALYZED.items()}
    runs["analyze budget"] = (["analyze", "budget", os.path.join(
        os.path.dirname(__file__), "..", "budget.cfg")], ["analyze_budget.json"])
    runs.update({f"cavity {what}": (["cavity", what], names)
                 for what, names in _CAVITY_FILES.items()})
    for command, (argv, names) in runs.items():
        outputs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{command.replace(' ', '_')}_{rep}"
            code = cli_main(argv + ["--out", str(out)])
            assert code == 0, (command, code)
            outputs.append([(out / name).read_bytes() for name in names])
        checks.append((outputs[0] == outputs[1], f"{command} rerun byte-identical"))
    report(9, "determinism", checks)
