"""Histogram analysis and curve fits against synthetic data with known truth."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit
from scipy.stats import expon, exponnorm

from tbsim import fitting
from tbsim.cascade import two_photon_rabi_population
from tbsim.optics import CoincidenceHistogram, symmetric_bins
from tbsim.rng import CounterRng

REP = 12500.0


def comb_histogram(center_area, side_area, k_max=12, rep=REP, bin_width=250.0):
    """Delta-like peak comb: one loaded bin per repetition period."""
    origin, nbins = symmetric_bins(k_max * rep + rep / 2, bin_width)
    counts = np.zeros(nbins, dtype=np.int64)
    centers = origin + (np.arange(nbins) + 0.5) * bin_width
    for k in range(-k_max, k_max + 1):
        i = int(np.argmin(np.abs(centers - k * rep)))
        counts[i] = center_area if k == 0 else side_area
    return CoincidenceHistogram(bin_width, origin, counts)


def test_g2_zero_on_synthetic_comb():
    h = comb_histogram(center_area=16, side_area=1000)
    g2, err = fitting.g2_zero(h, REP)
    assert g2 == pytest.approx(0.016, abs=1e-12)
    assert 0.0 < err < 0.01


def test_g2_zero_error_exact_beyond_int64():
    # central^2 * sum(far) = 1e12 * 2e9 > 2**63; the error stays exact
    h = comb_histogram(center_area=10**6, side_area=10**8, k_max=20, bin_width=500.0)
    g2, err = fitting.g2_zero(h, REP)
    n_far = 20  # |k| = 11..20 on both sides
    want = np.sqrt(1e6 / 1e8**2 + 1e12 * (n_far * 1e8) / (n_far**2 * 1e8**4))
    assert g2 == 0.01
    assert err == pytest.approx(want, rel=1e-12)


def test_g2_zero_requires_span():
    h = comb_histogram(10, 100, k_max=3)
    with pytest.raises(ValueError):
        fitting.g2_zero(h, REP)


def test_blinking_factor_synthetic():
    # near peaks inflated by bunching: far/near = 0.625
    h = comb_histogram(0, 1000)
    idx_plus = int(np.argmin(np.abs(h.centers - REP)))
    idx_minus = int(np.argmin(np.abs(h.centers + REP)))
    counts = h.counts.copy()
    counts[idx_plus] = counts[idx_minus] = 1600
    h2 = CoincidenceHistogram(h.bin_width, h.origin, counts)
    assert fitting.blinking_factor(h2, REP) == pytest.approx(0.625, abs=1e-12)


def hom_comb(delay, areas, bin_width=50.0):
    origin, nbins = symmetric_bins(2.5 * delay, bin_width)
    counts = np.zeros(nbins, dtype=np.int64)
    centers = origin + (np.arange(nbins) + 0.5) * bin_width
    for k, a in areas.items():
        i = int(np.argmin(np.abs(centers - k * delay)))
        counts[i] = a
    return CoincidenceHistogram(bin_width, origin, counts)


def test_hom_five_peak_synthetic_exact():
    # distinguishable pattern C:B:A:B:C = 1:2:4:2:1 scaled, center suppressed
    base = 8000
    for vm in (0.0, 0.482, 1.0):
        a0 = int(round(2 * base * (1 - vm) / 2))
        h = hom_comb(3000.0, {-2: base // 2, -1: base, 0: a0,
                              1: base, 2: base // 2})
        peaks = fitting.hom_five_peak(h, 3000.0)
        assert peaks.g2_hom == pytest.approx((1 - vm) / 2, abs=1e-4)
        assert peaks.visibility == pytest.approx(vm, abs=2e-4)


def test_hom_delay_scan_recovers_dip():
    offsets = np.linspace(-4000, 4000, 33)
    rates = 500.0 * (1.0 - 0.508 * np.exp(-np.abs(offsets) / 600.0))
    fit = fitting.hom_delay_scan(offsets, rates)
    assert fit.converged
    assert fit.value("visibility") == pytest.approx(0.508, abs=1e-6)
    assert fit.value("tau_c") == pytest.approx(600.0, rel=1e-6)


def test_hom_delay_scan_needs_points():
    with pytest.raises(ValueError):
        fitting.hom_delay_scan([0, 1, 2], [1, 2, 3])


def synthetic_lifetime_hist(tau, sigma, total, seed, bin_width=4.0):
    r = CounterRng(seed, stream=90)
    t = 200.0 + r.exponential(total, tau) + r.normal(total, sigma)
    edges = np.arange(-200.0, 200.0 + 12 * tau, bin_width)
    counts, _ = np.histogram(t, bins=edges)
    return CoincidenceHistogram(bin_width, float(edges[0]),
                                counts.astype(np.int64))


@pytest.mark.parametrize("tau", [300.0, 468.0])
def test_lifetime_fit_within_one_percent(tau):
    sigma = 16.0 / 2.3548200450309493
    h = synthetic_lifetime_hist(tau, sigma, 100000, seed=int(tau))
    fit = fitting.fit_lifetime(h, sigma)
    assert fit.converged
    assert fit.value("tau") == pytest.approx(tau, rel=0.01)
    # quoted sigma on the same scale as a few-ps uncertainty
    assert 0.2 < fit.sigma("tau") < 10.0


def test_lifetime_fit_ideal_detector():
    # zero jitter: the empty bins before t0 have log-density -inf
    h = synthetic_lifetime_hist(300.0, 0.0, 100000, seed=300)
    fit = fitting.fit_lifetime(h, 0.0)
    assert fit.converged
    assert fit.value("tau") == pytest.approx(300.0, rel=0.01)
    assert np.isfinite(fit.sigma("tau"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma", [1e-200, 1e-320])
def test_lifetime_fit_vanishing_jitter_is_the_jitter_free_fit(sigma):
    # before the onset z = x / sigma overflows in its square (1e-200) or itself (1e-320):
    # Phi(z) is 0 there, so those bins have probability 0 as without jitter, not NaN
    edges = np.array([-8.0, -4.0, 0.0, 4.0, 8.0])
    assert (fitting._log_bin_probs(edges, 300.0, 0.0, sigma).tolist()
            == fitting._log_bin_probs(edges, 300.0, 0.0, 0.0).tolist())
    h = synthetic_lifetime_hist(300.0, 0.0, 100000, seed=300)
    fit, ideal = fitting.fit_lifetime(h, sigma), fitting.fit_lifetime(h, 0.0)
    assert fit.converged
    assert fit.value("tau") == pytest.approx(ideal.value("tau"), rel=1e-9)


def test_lifetime_fit_converges_at_20k_counts():
    # correct data: the tail cross-check must accept every fit, also where sparse tail
    # bins hold a few counts or none
    sigma = 16.0 / 2.3548200450309493
    for seed in range(1, 21):
        fit = fitting.fit_lifetime(synthetic_lifetime_hist(300.0, sigma, 20000, seed), sigma)
        assert fit.converged, seed
        assert abs(fit.value("tau") - 300.0) < 3.0 * fit.sigma("tau"), seed


def test_lifetime_tail_cross_check_sigma_is_calibrated():
    # the tail estimate's quoted sigma, which sets the cross-check's tolerance: over
    # N = 80 seeds, z = (tau_tail - tau) / tail_err has a sample sd within [0.70, 1.32].
    # For normal z, (N - 1) sd^2 ~ chi2(79), so a correct sigma fails with p = 8.8e-5
    # (3.9e-5 low, 4.9e-5 high); z's kurtosis, 2.95 over 400 seeds, narrows that spread.
    # A sigma off by a factor of 2 reads sd 0.5 or 2. 16 ps bins keep the fits fast
    sigma = 16.0 / 2.3548200450309493
    z = []
    for seed in range(1, 81):
        fit = fitting.fit_lifetime(
            synthetic_lifetime_hist(300.0, sigma, 20000, seed, bin_width=16.0), sigma)
        z.append((fit.value("tau_tail") - 300.0) / fit.sigma("tau_tail"))
    assert 0.70 <= np.std(z, ddof=1) <= 1.32, np.std(z, ddof=1)


def test_lifetime_fit_rejects_biexponential_decay():
    # 30% of the counts decay at 1500 ps: one exponential fits the whole histogram at a
    # tau that the tail, past peak + 3 FWHM, does not share
    sigma, n = 16.0 / 2.3548200450309493, 100000
    r = CounterRng(5, stream=91)
    tau = np.where(r.uniform(n) < 0.3, 1500.0, 300.0)
    t = 200.0 + r.exponential(n, tau) + r.normal(n, sigma)
    counts, _ = np.histogram(t, bins=np.arange(-200.0, 3800.0, 4.0))
    fit = fitting.fit_lifetime(CoincidenceHistogram(4.0, -200.0, counts.astype(np.int64)),
                               sigma)
    assert not fit.converged


def test_lifetime_fit_requires_counts():
    h = synthetic_lifetime_hist(300.0, 7.0, 1000, seed=1)
    with pytest.raises(ValueError):
        fitting.fit_lifetime(h, 7.0)


def test_lifetime_fit_ideal_detector_unbiased():
    # the bin-centre density put t0 at the first filled bin's centre and read tau
    # several ps low, at times with a NaN sigma; the bin-integral likelihood moves t0
    fits = [fitting.fit_lifetime(synthetic_lifetime_hist(300.0, 0.0, 100000, seed), 0.0)
            for seed in range(1, 9)]
    assert all(f.converged and np.isfinite(f.sigma("tau")) for f in fits)
    taus = np.array([f.value("tau") for f in fits])
    sigmas = np.array([f.sigma("tau") for f in fits])
    assert abs(taus.mean() - 300.0) < 2.0 * np.sqrt(np.sum(sigmas**2)) / len(fits)


def test_lifetime_fit_survives_count_far_before_onset():
    # one count 30 sigma before the onset, where Phi(z) is ~1e-198
    sigma = 16.0 / 2.3548200450309493
    h = synthetic_lifetime_hist(300.0, sigma, 100000, seed=300)
    edges = h.origin + h.bin_width * np.arange(len(h.counts) + 1)
    i = int(np.searchsorted(edges, 200.0 - 30.0 * sigma)) - 1
    assert h.counts[i] == 0
    counts = h.counts.copy()
    counts[i] = 1
    fit = fitting.fit_lifetime(CoincidenceHistogram(h.bin_width, h.origin, counts), sigma)
    assert fit.converged
    assert fit.value("tau") == pytest.approx(300.0, rel=0.01)
    # down to 60 sigma before the onset, where erfc has underflowed, log p stays finite
    log_p = fitting._log_bin_probs(200.0 - sigma * np.arange(60.0, 0.0, -1.0), 300.0,
                                   200.0, sigma)
    assert np.all(np.isfinite(log_p))


@given(tau=st.floats(1.0, 5000.0),
       sigma=st.one_of(st.just(0.0), st.floats(0.01, 200.0)),
       t0=st.floats(-500.0, 500.0),
       edges=st.lists(st.floats(-2000.0, 20000.0), min_size=2, max_size=50, unique=True))
@example(tau=300.0, sigma=6.794, t0=0.0, edges=[0.0, 4.0, 100.0, 500.0])
@settings(max_examples=300, deadline=None)
def test_lifetime_bin_probabilities_match_scipy(tau, sigma, t0, edges):
    # the likelihood's bin probabilities are differences of scipy's exponnorm (expon
    # without jitter) CDF: to 1e-9 relative, or a few ulp of 1 times 1 + s^2, s = sigma/tau,
    # as both evaluate exp(s^2/2 - x/tau) Phi(z - s) through a log of size s^2/2
    edges = np.sort(edges)
    if sigma == 0:
        cdf = expon.cdf(edges, loc=t0, scale=tau)
    else:
        cdf = exponnorm.cdf(edges, tau / sigma, loc=t0, scale=sigma)
    got = np.exp(fitting._log_bin_probs(edges, tau, t0, sigma))
    np.testing.assert_allclose(got, np.diff(cdf), rtol=1e-9,
                               atol=1e-15 * (1.0 + (sigma / tau) ** 2))


def _rabi_scan(seed):
    # `tbsim simulate rabi` on baseline.cfg
    x = np.round(np.linspace(0.1, 2.5, 25), 6)
    means = 100000 * np.array([two_photon_rabi_population(np.pi * s, 0.65) for s in x])
    return x, CounterRng(seed, stream=81).poisson(means).astype(float)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rabi_and_hom_fits_match_curve_fit(seed):
    # the profiled fits and their sigmas are curve_fit's, converged tightly
    x, y = _rabi_scan(seed)
    fit = fitting.fit_rabi(x, y)
    assert fit.converged
    popt, pcov = curve_fit(lambda x, a, k: a * np.sin(k * x / 2.0) ** 2, x, y,
                           p0=[y.max(), np.pi / x[np.argmax(y)]], ftol=1e-14, xtol=1e-14)
    for i, name in enumerate(("amplitude", "area_calibration")):
        assert fit.value(name) == pytest.approx(popt[i], rel=1e-6)
        assert fit.sigma(name) == pytest.approx(np.sqrt(pcov[i, i]), rel=1e-6)

    d = np.linspace(-4000.0, 4000.0, 33)
    rates = CounterRng(seed, stream=5).poisson(
        500.0 * (1.0 - 0.508 * np.exp(-np.abs(d) / 600.0))).astype(float)
    fit = fitting.hom_delay_scan(d, rates)
    with np.errstate(over="ignore"):  # curve_fit tries tau_c < 0 on its way
        popt, pcov = curve_fit(lambda d, r0, v, tau_c: r0 * (1.0 - v * np.exp(-np.abs(d) / tau_c)),
                               d, rates, p0=[rates.max(), 0.5, 8000.0 / 6.0],
                               ftol=1e-14, xtol=1e-14)
    assert fit.converged
    for i, name in enumerate(("rate0", "visibility", "tau_c")):
        assert fit.value(name) == pytest.approx(popt[i], rel=1e-6)
        assert fit.sigma(name) == pytest.approx(np.sqrt(pcov[i, i]), rel=1e-6)


def test_rabi_fit_recovery():
    x = np.linspace(0.05, 2.4, 30)
    rates = 65000.0 * np.sin(np.pi * x / 2.0) ** 2
    fit = fitting.fit_rabi(x, rates, rate_normalization=100000.0)
    assert fit.value("area_calibration") == pytest.approx(np.pi, rel=1e-8)
    assert fit.value("pi_pulse_sqrt_power") == pytest.approx(1.0, rel=1e-8)
    assert fit.value("p_emit_pi") == pytest.approx(0.65, rel=1e-8)


def test_purcell_ratios():
    assert fitting.purcell_from_lifetimes(468.0, 800.0) == pytest.approx(
        1.709, abs=0.001)
    assert fitting.purcell_from_lifetimes(334.0, 400.0) == pytest.approx(
        1.198, abs=0.001)
    with pytest.raises(ValueError):
        fitting.purcell_from_lifetimes(-1.0, 400.0)
