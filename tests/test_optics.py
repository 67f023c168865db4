"""Interferometer network, detection chain, and event-level statistics."""

from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tbsim import fitting, optics
from tbsim.cascade import EmitterParams
from tbsim.optics import (CoincidenceHistogram, DetectorModel, Interferometer,
                          PhotonEvents, TimebinStateModel,
                          coincidence_probability, histogram_events,
                          ideal_timebin_density,
                          middle_slot_fraction,
                          simulate_autocorrelation, simulate_poissonian_source,
                          simulate_timebin_run, symmetric_bins,
                          timebin_slot_counts)
from tbsim.qcore import concurrence, fidelity_to_state
from tbsim.rng import CounterRng


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


def window_area(hist, center, half_width):
    """Reference peak area: the counts of every bin whose center is within +-half_width."""
    return int(hist.counts[np.abs(hist.centers - center) <= half_width].sum())


@st.composite
def histograms_and_peaks(draw):
    n = draw(st.integers(1, 60))
    width = draw(st.sampled_from([1.0, 0.1, 0.3, 500.0, 12500.0 / 25, 7.0 / 3.0]))
    width *= draw(st.sampled_from([1.0, 1.0 + 2**-40, 1.0 - 2**-40]))
    origin = draw(st.one_of(st.sampled_from([-(n // 2 + 0.5) * width, 0.0, -0.1]),
                            st.floats(-1e5, 1e5)))
    counts = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
    hist = CoincidenceHistogram(width, origin, np.array(counts, dtype=np.int64))
    centers, edges = hist.centers, hist.origin + np.arange(n + 1) * width
    # peak centres on bin edges, on bin centres, anywhere, and off the histogram
    pick = st.one_of(st.sampled_from(centers.tolist()), st.sampled_from(edges.tolist()),
                     st.floats(origin - 3 * n * width, origin + 4 * n * width))
    peaks = draw(st.lists(pick, min_size=1, max_size=8))
    # half-widths that reach a bin centre exactly, or a whole number of bins, or anything
    reach = st.builds(lambda p, c: abs(c - p), st.sampled_from(peaks),
                      st.sampled_from(centers.tolist()))
    half_width = draw(st.one_of(reach, st.sampled_from([0.0, width / 2, 2 * width, 7 * width]),
                                st.floats(0.0, 2 * n * width)))
    return hist, peaks, half_width


@given(histograms_and_peaks())
@settings(max_examples=500, deadline=None)
@example((CoincidenceHistogram(0.1, 0.0, np.arange(10)), [0.30000000000000004, 0.35], 0.1))
def test_peak_areas_match_bin_center_predicate(case):
    hist, peaks, half_width = case
    got = hist.peak_areas(peaks, half_width)
    assert got.dtype == np.int64
    assert got.tolist() == [window_area(hist, p, half_width) for p in peaks]


def test_histogram_events_vs_brute_force():
    ev = PhotonEvents(np.array([0, 0, 1, 1, 1], dtype=np.int8),
                      np.array([0.0, 100.0, 40.0, 130.0, 900.0]))
    h = histogram_events(ev, 0, 1, bin_width=10.0, max_delay=200.0)
    starts = [0.0, 100.0]
    stops = [40.0, 130.0, 900.0]
    want = sum(1 for a in starts for b in stops if abs(b - a) <= 205.0)
    assert h.total() == want
    assert h.peak_areas([40.0, -60.0], 5.0).tolist() == [1, 1]  # 40 - 0, 40 - 100
    # channel 2 has no events: as starts or as stops, every bin is empty
    for start, stop in ((0, 2), (2, 1)):
        empty = histogram_events(ev, start, stop, bin_width=10.0, max_delay=200.0)
        assert (empty.origin, empty.counts.tolist()) == (h.origin, [0] * len(h.counts))


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

def _hom_distinguishable_weights() -> dict:
    """Relative five-peak areas of two distinguishable photons, by enumeration.

    Photon 0 is emitted at 0 and photon 1 one analyzer delay later; each
    takes the short or long path (4 combinations) and leaves by either
    output port onto either detector. Side peaks accumulate cross-detector
    coincidence weight; the central peak accumulates the full overlapping
    pair flux (same- and cross-detector alike), the classical normalization
    under which two distinguishable photons read out as g2 = 0.5. Keys are
    peak delays in units of the analyzer delay, start on detector 0.
    """
    weights = {-2: 0.0, -1: 0.0, 0: 0.0, 1: 0.0, 2: 0.0}
    for path0 in (0, 1):
        for path1 in (0, 1):
            arrival0, arrival1 = path0, 1 + path1
            for d0 in (0, 1):
                for d1 in (0, 1):
                    if d0 == d1 and arrival0 != arrival1:
                        continue  # same detector: no coincidence
                    tau = arrival1 - arrival0 if d0 == 0 else arrival0 - arrival1
                    # path combination x port survival of both x detector assignment
                    weights[tau] += 0.25 * 0.25 * 0.25
    return weights


def test_hom_fixture_frozen_values():
    w = _hom_distinguishable_weights()
    assert w == {-2: 1 / 64, -1: 1 / 32, 0: 1 / 16, 1: 1 / 32, 2: 1 / 64}
    side_weight = w[-2] + w[-1] + w[1] + w[2]
    assert side_weight / w[0] == 1.5
    # hom_five_peak divides the side area by exactly that 1.5
    areas = [1003.0, 1511.0, 2500.0, 1509.0, 977.0]  # side 5000: / 1.5 != * (2 / 3)
    h = CoincidenceHistogram(bin_width=1000.0, origin=-3500.0,
                             counts=np.array([0, *areas, 0], dtype=np.int64))
    peaks = fitting.hom_five_peak(h, 1000.0)
    assert peaks.g2_hom == areas[2] / ((areas[0] + areas[1] + areas[3] + areas[4]) / 1.5)


def test_hom_peak_positions_exact():
    em = EmitterParams(tau_xx=1.0)  # sharp peaks
    ev = optics.simulate_hom_run(em, Interferometer(delay=3000.0), 0.0,
                                 DetectorModel.ideal(), 50000, 17)
    h = histogram_events(ev, 0, 1, bin_width=100.0, max_delay=7000.0)
    occupied = h.centers[h.counts > 10]
    peaks = sorted({int(np.rint(c / 3000.0)) for c in occupied})
    assert peaks == [-2, -1, 0, 1, 2]


@pytest.mark.parametrize("v", [-0.1, 1.5, float("nan")])
def test_hom_run_rejects_a_mutual_visibility_outside_0_1(v):
    with pytest.raises(ValueError, match="mutual_visibility"):
        optics.simulate_hom_run(EmitterParams(), Interferometer(delay=3000.0), v,
                                DetectorModel.ideal(), 100, 17)


# --- autocorrelation and coherent reference ----------------------------------

def test_autocorrelation_single_emitter_suppressed_center():
    em = EmitterParams(two_pair_prob=0.0)
    ev = simulate_autocorrelation(em, "xx", DetectorModel.ideal(), 100000, 19)
    h = histogram_events(ev, 0, 1, bin_width=500.0, max_delay=6 * em.rep_period)
    center, side = h.peak_areas([0.0, em.rep_period], em.rep_period / 4)
    assert side > 100
    assert center < 0.02 * side


def test_autocorrelation_rejects_unknown_species():
    with pytest.raises(ValueError):
        simulate_autocorrelation(EmitterParams(), "y", DetectorModel.ideal(), 10, 0)


def _exact_poisson_cdf(mu):
    # correctly rounded CDF at k = 0..12 from 50-digit decimal arithmetic
    getcontext().prec = 50
    m = Decimal(mu)
    term = (-m).exp()
    cdf = [term]
    for j in range(1, 13):
        term = term * m / j
        cdf.append(cdf[-1] + term)
    return np.array([float(c) for c in cdf])


@given(mu=st.floats(1e-3, 2.0))
@example(mu=1.1426445402307184)  # scipy's poisson.cdf(0, mu) is 17 ulp off here
@settings(max_examples=300, deadline=None)
def test_poisson_cdf_within_rounding_error(mu):
    # entry k rounds one exp (within 1 ulp), k quotients, k products and k
    # sums of positive terms: its error is at most (3k + 2) ulp
    want = _exact_poisson_cdf(mu)
    bound = (3 * np.arange(13) + 2) * np.spacing(want)
    assert np.all(np.abs(optics._poisson_cdf(mu) - want) <= bound)


@pytest.mark.parametrize("mu", [0.05, 0.2, 0.5])
def test_poisson_cdf_draws_match_scipy(mu):
    # the photon numbers a source draws are those of scipy's CDF
    from scipy.stats import poisson

    u = CounterRng(7, 50).uniform(200_000)
    want = np.searchsorted(poisson.cdf(np.arange(13), mu), u, side="left")
    got = np.searchsorted(optics._poisson_cdf(mu), u, side="left")
    assert np.array_equal(got, want)


def test_poissonian_source_flat_g2():
    ev = simulate_poissonian_source(0.2, 300.0, 12500.0,
                                    DetectorModel.ideal(), 150000, 23)
    h = histogram_events(ev, 0, 1, bin_width=500.0, max_delay=6 * 12500.0)
    center, *sides = h.peak_areas(np.array([0, -3, -2, -1, 1, 2, 3]) * 12500.0, 12500.0 / 4)
    assert center == pytest.approx(np.mean(sides), rel=0.1)
    with pytest.raises(ValueError, match="mean_photons"):
        simulate_poissonian_source(-0.2, 300.0, 12500.0, DetectorModel.ideal(), 10, 23)
