"""Interferometer network, detection chain, and event-level statistics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tbsim import optics
from tbsim.cascade import EmitterParams
from tbsim.optics import (CoincidenceHistogram, DetectorModel, Interferometer,
                          PhotonEvents, TimebinStateModel,
                          coincidence_probability, histogram_events,
                          hom_distinguishable_fixture, ideal_timebin_density,
                          merge_histograms, middle_slot_fraction,
                          simulate_autocorrelation, simulate_poissonian_source,
                          simulate_timebin_run, symmetric_bins,
                          timebin_slot_counts)
from tbsim.qcore import concurrence, fidelity_to_state


# --- analytic pieces ---------------------------------------------------------

def test_ideal_density_values():
    rho = ideal_timebin_density(TimebinStateModel(visibility=0.7, pump_phase=0.3))
    m = rho.matrix
    assert m[0, 0] == pytest.approx(0.5)
    assert m[3, 3] == pytest.approx(0.5)
    assert m[0, 3] == pytest.approx(0.35 * np.exp(0.3j))
    assert concurrence(rho) == pytest.approx(0.7, abs=1e-10)
    assert fidelity_to_state(rho.matrix, np.array([1, 0, 0, 1]) / np.sqrt(2)) \
        == pytest.approx((1 + 0.7 * np.cos(0.3)) / 2, abs=1e-12)
    assert fidelity_to_state(
        ideal_timebin_density(TimebinStateModel(visibility=0.7)).matrix,
        np.array([1, 0, 0, 1]) / np.sqrt(2)) == pytest.approx(0.85, abs=1e-12)


def test_coincidence_probability_fringe():
    assert coincidence_probability(0, 0, 0, 1.0) == pytest.approx(0.5)
    assert coincidence_probability(np.pi, 0, 0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert coincidence_probability(0.3, 0.1, 0.2, 0.0) == pytest.approx(0.25)
    assert coincidence_probability(0.9, 0.4, 0.5, 0.7) == pytest.approx(
        (1 + 0.7 * np.cos(0.0)) / 4)
    with pytest.raises(ValueError):
        coincidence_probability(0, 0, 0, 1.5)


def test_model_validation():
    with pytest.raises(ValueError):
        Interferometer(delay=-1.0)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=0.0)
    with pytest.raises(ValueError):
        TimebinStateModel(visibility=1.2)


# --- containers --------------------------------------------------------------

def test_photon_events_csv_roundtrip():
    ev = PhotonEvents(np.array([0, 1, 0], dtype=np.int8),
                      np.array([10.5, 20.25, 30.0]))
    again = PhotonEvents.from_csv(ev.to_csv())
    assert np.array_equal(ev.channel, again.channel)
    assert np.array_equal(ev.time, again.time)


@given(st.floats(min_value=1e-3, max_value=1e6),
       st.floats(min_value=-1e9, max_value=1e9),
       st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=300))
@example(12.5, -1006.25, list(range(161)))
@settings(max_examples=200, deadline=None)
def test_histogram_csv_roundtrip_bit_exact(bin_width, origin, counts):
    # also proves that the delay_ps check never rejects a file tbsim wrote
    h = CoincidenceHistogram(bin_width=bin_width, origin=origin, counts=counts)
    again = CoincidenceHistogram.from_csv(h.to_csv())
    assert again.bin_width == h.bin_width
    assert again.origin == h.origin
    assert np.array_equal(again.counts, h.counts)


def test_histogram_csv_exact_bytes():
    h = CoincidenceHistogram(bin_width=0.1, origin=-0.25, counts=[3, 0, 12, 7])
    assert h.to_csv() == ("# bin_width_ps=0.1\n"
                          "# origin_ps=-0.25\n"
                          "delay_ps,counts\n"
                          "-0.2,3\n"
                          "-0.09999999999999998,0\n"
                          "0.0,12\n"
                          "0.10000000000000003,7\n")


def test_histogram_rejects_bad_rows():
    with pytest.raises(ValueError, match="row"):
        CoincidenceHistogram.from_csv(
            "# bin_width_ps=1.0\ndelay_ps,counts\noops\n")


def test_symmetric_bins_center_zero():
    origin, nbins = symmetric_bins(1000.0, 64.0)
    centers = origin + (np.arange(nbins) + 0.5) * 64.0
    assert 0.0 in centers
    assert centers[0] <= -1000.0 and centers[-1] >= 1000.0


def test_merge_histograms():
    h1 = CoincidenceHistogram(1.0, 0.0, np.array([1, 2, 3]))
    h2 = CoincidenceHistogram(1.0, 0.0, np.array([4, 5, 6]))
    assert merge_histograms(h1, h2).counts.tolist() == [5, 7, 9]
    with pytest.raises(ValueError):
        merge_histograms(h1, CoincidenceHistogram(2.0, 0.0, np.array([1, 2, 3])))


def test_histogram_events_vs_brute_force():
    ev = PhotonEvents(np.array([0, 0, 1, 1, 1], dtype=np.int8),
                      np.array([0.0, 100.0, 40.0, 130.0, 900.0]))
    h = histogram_events(ev, 0, 1, bin_width=10.0, max_delay=200.0)
    starts = [0.0, 100.0]
    stops = [40.0, 130.0, 900.0]
    want = sum(1 for a in starts for b in stops if abs(b - a) <= 205.0)
    assert h.total() == want
    assert h.window_area(40.0, 5.0) == 1  # 40 - 0
    assert h.window_area(-60.0, 5.0) == 1  # 40 - 100


# --- detection chain ---------------------------------------------------------

def _run(detectors, cycles=40000, seed=5, v=1.0):
    em = EmitterParams(tau_xx=100.0, tau_x=150.0)
    state = TimebinStateModel(visibility=v)
    an = (Interferometer(delay=3000.0), Interferometer(delay=3000.0))
    return simulate_timebin_run(em, state, an, detectors, cycles, seed)


def test_detection_efficiency_scales_counts():
    full = _run(DetectorModel.ideal())
    half = _run(DetectorModel(efficiency=0.5, dark_count_rate=0.0,
                              jitter_sigma=0.0))
    assert abs(len(half) / len(full) - 0.5) < 0.02


def test_dark_counts_poisson_rate():
    em = EmitterParams(p_emit_pi=1e-9)  # essentially dark-only stream
    det = DetectorModel(efficiency=1.0, dark_count_rate=1e6, jitter_sigma=0.0)
    ev = simulate_timebin_run(
        em, TimebinStateModel(), (Interferometer(), Interferometer()),
        det, 80000, 3)
    duration_s = 80000 * em.rep_period * 1e-12
    expect = 2 * 1e6 * duration_s
    assert abs(len(ev) / expect - 1.0) < 0.05


def test_dead_time_enforced_per_channel():
    det = DetectorModel(efficiency=1.0, dark_count_rate=0.0, jitter_sigma=0.0,
                        dead_time=20000.0)
    ev = _run(det)
    for ch in (0, 1):
        tm = ev.on_channel(ch)
        assert np.all(np.diff(tm) >= 20000.0)


def test_event_stream_deterministic():
    a = _run(DetectorModel(), seed=9)
    b = _run(DetectorModel(), seed=9)
    assert np.array_equal(a.time, b.time)
    assert np.array_equal(a.channel, b.channel)


# --- time-bin run ------------------------------------------------------------

def test_mismatched_analyzer_delays_rejected():
    em = EmitterParams()
    with pytest.raises(ValueError):
        simulate_timebin_run(
            em, TimebinStateModel(),
            (Interferometer(delay=3000.0), Interferometer(delay=3100.0)),
            DetectorModel.ideal(), 10, 0)


@pytest.mark.parametrize("v,phase,seed", [
    (1.0, 0.0, 11), (0.7, 0.0, 12), (0.7, np.pi, 13), (0.0, 0.5, 14)])
def test_middle_slot_fraction_fringe_law(v, phase, seed):
    em = EmitterParams(tau_xx=100.0, tau_x=150.0)
    state = TimebinStateModel(visibility=v, pump_phase=phase)
    an = (Interferometer(delay=3000.0), Interferometer(delay=3000.0))
    ev = simulate_timebin_run(em, state, an, DetectorModel.ideal(),
                              300000, seed)
    table = timebin_slot_counts(ev, em.rep_period, 3000.0, window=1400.0)
    want = (1.0 + v * np.cos(phase)) / 4.0
    assert middle_slot_fraction(table) == pytest.approx(want, abs=0.02)


def test_slot_counts_shape_and_support():
    ev = _run(DetectorModel.ideal(), cycles=20000)
    table = timebin_slot_counts(ev, 12500.0, 3000.0, window=1400.0)
    assert table.shape == (3, 3)
    # early XX never pairs with late X via slots (0,2): kinematically forbidden
    assert table.sum() > 0


def test_middle_slot_fraction_requires_side_counts():
    with pytest.raises(ValueError):
        middle_slot_fraction(np.zeros((3, 3), dtype=np.int64))


# --- HOM ---------------------------------------------------------------------

def test_hom_fixture_frozen_values():
    w = hom_distinguishable_fixture()
    assert w == {-2: 1 / 64, -1: 1 / 32, 0: 1 / 16, 1: 1 / 32, 2: 1 / 64}


def test_hom_peak_positions_exact():
    em = EmitterParams(tau_xx=1.0)  # sharp peaks
    ev = optics.simulate_hom_run(em, Interferometer(delay=3000.0), 0.0,
                                 DetectorModel.ideal(), 50000, 17)
    h = histogram_events(ev, 0, 1, bin_width=100.0, max_delay=7000.0)
    occupied = h.centers[h.counts > 10]
    peaks = sorted({int(np.rint(c / 3000.0)) for c in occupied})
    assert peaks == [-2, -1, 0, 1, 2]


# --- autocorrelation and coherent reference ----------------------------------

def test_autocorrelation_single_emitter_suppressed_center():
    em = EmitterParams(two_pair_prob=0.0)
    ev = simulate_autocorrelation(em, "xx", DetectorModel.ideal(), 100000, 19)
    h = histogram_events(ev, 0, 1, bin_width=500.0, max_delay=6 * em.rep_period)
    center = h.window_area(0.0, em.rep_period / 4)
    side = h.window_area(em.rep_period, em.rep_period / 4)
    assert side > 100
    assert center < 0.02 * side


def test_autocorrelation_rejects_unknown_species():
    with pytest.raises(ValueError):
        simulate_autocorrelation(EmitterParams(), "y", DetectorModel.ideal(), 10, 0)


def test_poissonian_source_flat_g2():
    ev = simulate_poissonian_source(0.2, 300.0, 12500.0,
                                    DetectorModel.ideal(), 150000, 23)
    h = histogram_events(ev, 0, 1, bin_width=500.0, max_delay=6 * 12500.0)
    center = h.window_area(0.0, 12500.0 / 4)
    sides = [h.window_area(k * 12500.0, 12500.0 / 4)
             for k in (-3, -2, -1, 1, 2, 3)]
    assert center == pytest.approx(np.mean(sides), rel=0.1)
