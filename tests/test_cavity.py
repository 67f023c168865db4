"""Transfer-matrix optics: energy conservation, quarter-wave mirror oracle,
resonance extraction, and the efficiency ledger."""

import dataclasses

import numpy as np
import pytest

from tbsim import cavity
from tbsim.cavity import (DefectModel, EfficiencyBudget, Layer, LayerStack,
                          ResonanceNotFound, cavity_mode, cavity_resonance_and_q,
                          characteristic_matrix, efficiency_budget,
                          extraction_efficiency, make_cavity_stack, mode_waist,
                          purcell, split_cavity_stack, transfer_matrix_spectrum)


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
    for indices in ({"n_ambient": 0.0}, {"n_substrate": -1.0}):
        with pytest.raises(ValueError, match="indices must be positive"):
            LayerStack((Layer(3.0, 10.0),), **indices)
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


def _einsum_characteristic_matrix(stack, wavelengths):
    """Oracle: the layer matrices built as (n, 2, 2) arrays and multiplied by einsum."""
    lam = np.atleast_1d(np.asarray(wavelengths, dtype=float))
    m = np.zeros((len(lam), 2, 2), dtype=complex)
    m[:, 0, 0] = m[:, 1, 1] = 1.0
    for layer in stack.layers:
        if layer.thickness == 0.0:
            continue
        delta = 2.0 * np.pi * layer.refractive_index * layer.thickness / lam
        c, s = np.cos(delta), np.sin(delta)
        ml = np.empty_like(m)
        ml[:, 0, 0] = c
        ml[:, 0, 1] = 1j * s / layer.refractive_index
        ml[:, 1, 0] = 1j * s * layer.refractive_index
        ml[:, 1, 1] = c
        m = np.einsum("kij,kjl->kil", m, ml)
    return m


def _oracle_stacks():
    nominal = make_cavity_stack()
    top, _, bottom = split_cavity_stack(nominal)
    stacks = [nominal, top, bottom] + [make_cavity_stack(top_pairs=p, t_cavity=t)
                                       for p in range(12) for t in (265.0, 270.0, 275.0)]
    g = np.random.default_rng(16)
    for _ in range(20):  # about one layer in three of zero thickness
        layers = tuple(Layer(float(g.uniform(1.2, 3.6)),
                             float(g.uniform(0, 300) * (g.random() > 0.3)))
                       for _ in range(g.integers(1, 30)))
        stacks.append(LayerStack(layers, n_ambient=float(g.uniform(1.0, 3.6)),
                                 n_substrate=float(g.uniform(1.0, 3.6))))
    return stacks


@pytest.mark.parametrize("points", [5001, 65, 1])
def test_characteristic_matrix_equals_einsum_product(monkeypatch, points):
    # equal values (an exact zero may differ in sign); R and T equal to the bit
    lam = np.linspace(915.0, 965.0, points) if points > 1 else np.array([936.0])
    for stack in _oracle_stacks():
        want = _einsum_characteristic_matrix(stack, lam)
        got = characteristic_matrix(stack, lam)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        r_got, t_got = transfer_matrix_spectrum(stack, lam)
        with monkeypatch.context() as m:
            m.setattr(cavity, "characteristic_matrix", lambda st, wl: want)
            r_want, t_want = transfer_matrix_spectrum(stack, lam)
        assert np.array_equal(r_got.view(np.uint64), r_want.view(np.uint64))
        assert np.array_equal(t_got.view(np.uint64), t_want.view(np.uint64))


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


def _dense_grid_resonance(stack, window, h):
    """Brute-force oracle: T on a grid of step h over the window, the
    peak at the grid maximum, the half-maximum crossings by linear
    interpolation. Returns (lam0, fwhm, fwhm tolerance).

    Linear interpolation misplaces a crossing by at most h^2 max|T''| / (8 |T'|),
    and the grid maximum lies at most h^2 max|T''| / 8 below the peak, which
    moves the half level and each crossing by half of that over |T'|; the
    tolerance h^2 max|T''| / min|T'| covers both crossings with room to spare.
    """
    lam = np.linspace(*window, int(round((window[1] - window[0]) / h)) + 1)
    _, t = transfer_matrix_spectrum(stack, lam)
    k = int(np.argmax(t))
    half = t[k] / 2.0
    lo = k - int(np.argmax(t[k::-1] < half))  # last grid point below half on each side
    hi = k + int(np.argmax(t[k:] < half))
    left = np.interp(half, t[lo:lo + 2], lam[lo:lo + 2])
    right = np.interp(half, t[hi - 1:hi + 1][::-1], lam[hi - 1:hi + 1][::-1])
    curvature = np.max(np.abs(np.diff(t[lo - 1:hi + 2], 2))) / h**2
    slope = min(t[lo + 1] - t[lo], t[hi - 1] - t[hi]) / h
    return lam[k], right - left, h**2 * curvature / slope


_SCAN = (915.0, 965.0)


@pytest.mark.parametrize("kwargs, window, h", [
    ({"top_pairs": 3, "t_cavity": 265.0}, _SCAN, 2e-3),
    ({}, _SCAN, 2e-3),
    ({"top_pairs": 8, "t_cavity": 275.0}, _SCAN, 2e-3),
    ({"top_pairs": 6, "t_cavity": 268.0, "n_high": 3.5}, _SCAN, 2e-3),
    # FWHM about 9e-4 nm and 2e-5 nm, far below the 0.01 nm coarse step
    ({"top_pairs": 30, "bottom_pairs": 30}, (935.97, 935.99), 1e-5),
    ({"top_pairs": 40, "bottom_pairs": 40}, (935.9814, 935.9818), 2e-7)],
    ids=["3-top-pairs", "nominal", "8-top-pairs", "n-high-3.5",
         "30-30-pairs", "40-40-pairs"])
def test_resonance_against_dense_grid_oracle(kwargs, window, h):
    stack = make_cavity_stack(**kwargs)
    lam_grid, fwhm_grid, fwhm_tol = _dense_grid_resonance(stack, window, h)
    lam0, q = cavity_resonance_and_q(stack)
    assert abs(lam0 - lam_grid) <= h
    assert abs(lam0 / q - fwhm_grid) <= fwhm_tol


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
        p, _ = cavity._mirror_penetration_and_t(mirror, lam0)
        assert 50.0 < p < 2000.0
    l_eff = cavity_mode(st).effective_length
    assert l_eff > spacer.thickness


def test_mode_waist_monotone_in_height():
    waists = [mode_waist(DefectModel(height=h)) for h in (5, 10, 20, 40)]
    assert all(a > b for a, b in zip(waists, waists[1:]))
    assert mode_waist(DefectModel(height=20.0)) == pytest.approx(
        1000.0 / np.sqrt(2.0))


def test_purcell_estimate_scaling():
    d = DefectModel()
    mode = cavity_mode(make_cavity_stack())
    f1 = purcell(mode, d)
    f2 = purcell(dataclasses.replace(mode, q=2 * mode.q), d)
    assert f2 == pytest.approx(2.0 * f1)


def test_top_emission_fraction_favors_thin_mirror():
    frac = cavity_mode(make_cavity_stack()).top_share
    assert 0.5 < frac < 1.0


def test_extraction_efficiency_monotone_in_na():
    mode = cavity_mode(make_cavity_stack())
    d = DefectModel()
    etas = [extraction_efficiency(mode, d, na)
            for na in (0.4, 0.62, 0.7, 0.85)]
    assert all(a < b for a, b in zip(etas, etas[1:]))
    with pytest.raises(ValueError):
        extraction_efficiency(mode, d, 1.5)


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
