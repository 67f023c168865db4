"""Transfer-matrix optics: energy conservation, quarter-wave mirror oracle,
resonance extraction, and the efficiency ledger."""

import numpy as np
import pytest

from tbsim import cavity
from tbsim.cavity import (DefectModel, EfficiencyBudget, Layer, LayerStack,
                          ResonanceNotFound, cavity_resonance_and_q,
                          characteristic_matrix, effective_cavity_length,
                          efficiency_budget, extraction_efficiency,
                          make_cavity_stack, mirror_penetration_depth,
                          mode_waist, purcell_estimate, split_cavity_stack,
                          top_emission_fraction, transfer_matrix_spectrum)


def quarter_wave_mirror(n_high, n_low, pairs, lam0, n_substrate):
    layers = []
    for _ in range(pairs):
        layers.append(Layer(n_high, lam0 / (4 * n_high)))
        layers.append(Layer(n_low, lam0 / (4 * n_low)))
    return LayerStack(tuple(layers), n_ambient=1.0, n_substrate=n_substrate)


def test_validation():
    with pytest.raises(ValueError):
        Layer(-1.0, 10.0)
    with pytest.raises(ValueError):
        Layer(1.5, -1.0)
    with pytest.raises(ValueError):
        LayerStack(())
    with pytest.raises(ValueError):
        DefectModel(height=0.0)


def test_energy_conservation_tight():
    g = np.random.default_rng(0)
    lam = np.linspace(800.0, 1100.0, 301)
    for _ in range(10):
        layers = tuple(Layer(float(g.uniform(1.2, 3.6)), float(g.uniform(20, 300)))
                       for _ in range(g.integers(1, 30)))
        st = LayerStack(layers, n_substrate=float(g.uniform(1.0, 3.6)))
        big_r, big_t = transfer_matrix_spectrum(st, lam)
        assert np.max(np.abs(big_r + big_t - 1.0)) < 1e-12
        assert np.all(big_r >= 0) and np.all(big_t >= 0)


def test_characteristic_matrix_unimodular():
    st = make_cavity_stack()
    m = characteristic_matrix(st, [900.0, 936.0, 970.0])
    dets = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    assert np.allclose(dets, 1.0, atol=1e-10)


def test_quarter_wave_mirror_closed_form():
    # admittance oracle: N quarter-wave pairs transform Y_sub into
    # (n_high/n_low)^(2N) * n_sub; R = ((1 - Y)/(1 + Y))^2
    lam0 = 936.0
    for pairs in (2, 5, 24):
        st = quarter_wave_mirror(3.46, 2.845, pairs, lam0, n_substrate=3.46)
        big_r, _ = transfer_matrix_spectrum(st, [lam0])
        y = (3.46 / 2.845) ** (2 * pairs) * 3.46
        want = ((1.0 - y) / (1.0 + y)) ** 2
        assert big_r[0] == pytest.approx(want, abs=1e-10)


def test_24_pair_mirror_above_99_percent():
    st = quarter_wave_mirror(cavity.N_GAAS, cavity.N_ALAS, 24, 936.0,
                             n_substrate=cavity.N_GAAS)
    big_r, _ = transfer_matrix_spectrum(st, [936.0])
    assert big_r[0] > 0.99


def test_default_stack_resonance_near_936():
    lam0, q = cavity_resonance_and_q(make_cavity_stack())
    assert abs(lam0 - 936.0) < 2.0
    assert q > 50.0


def test_resonance_not_found_for_bare_mirror():
    st = quarter_wave_mirror(3.46, 2.845, 10, 936.0, n_substrate=3.46)
    with pytest.raises(ResonanceNotFound):
        cavity_resonance_and_q(st)


def test_split_and_penetration():
    st = make_cavity_stack()
    top, spacer, bottom = split_cavity_stack(st)
    assert spacer.thickness == 270.0
    assert len(top.layers) == 10 and len(bottom.layers) == 48
    lam0, _ = cavity_resonance_and_q(st)
    for mirror in (top, bottom):
        p = mirror_penetration_depth(mirror, lam0)
        assert 50.0 < p < 2000.0
    l_eff = effective_cavity_length(st, lam0)
    assert l_eff > spacer.thickness


def test_mode_waist_monotone_in_height():
    waists = [mode_waist(DefectModel(height=h)) for h in (5, 10, 20, 40)]
    assert all(a > b for a, b in zip(waists, waists[1:]))
    assert mode_waist(DefectModel(height=20.0)) == pytest.approx(
        1000.0 / np.sqrt(2.0))


def test_purcell_estimate_scaling():
    d = DefectModel()
    f1 = purcell_estimate(100.0, d, 936.0, 3.46, 850.0)
    f2 = purcell_estimate(200.0, d, 936.0, 3.46, 850.0)
    assert f2 == pytest.approx(2.0 * f1)
    with pytest.raises(ValueError):
        purcell_estimate(-1.0, d, 936.0, 3.46, 850.0)


def test_top_emission_fraction_favors_thin_mirror():
    st = make_cavity_stack()
    lam0, _ = cavity_resonance_and_q(st)
    frac = top_emission_fraction(st, lam0)
    assert 0.5 < frac < 1.0


def test_extraction_efficiency_monotone_in_na():
    st = make_cavity_stack()
    d = DefectModel()
    etas = [extraction_efficiency(d, 936.0, na, stack=st)
            for na in (0.4, 0.62, 0.7, 0.85)]
    assert all(a < b for a, b in zip(etas, etas[1:]))
    with pytest.raises(ValueError):
        extraction_efficiency(d, 936.0, 1.5, stack=st)


def test_budget_validation_and_exact_arithmetic():
    xx = EfficiencyBudget(count_rate=61000.0, rep_rate=80e6, blinking=0.625,
                          p_emit=0.65, eta_detector=0.25, eta_fiber=0.4,
                          eta_setup=0.12)
    out = efficiency_budget(xx)
    assert out["eta_first_lens"] == pytest.approx(61000.0 / 390000.0, abs=1e-15)
    with pytest.raises(ValueError):
        EfficiencyBudget(count_rate=0.0, rep_rate=80e6, blinking=0.625,
                         p_emit=0.65, eta_detector=0.25, eta_fiber=0.4,
                         eta_setup=0.12)
    with pytest.raises(ValueError):
        EfficiencyBudget(count_rate=1.0, rep_rate=80e6, blinking=1.5,
                         p_emit=0.65, eta_detector=0.25, eta_fiber=0.4,
                         eta_setup=0.12)
