"""Extraction of physical quantities from histograms and scans.

g2(0) peak-area analysis, blinking factor, HOM five-peak analysis, HOM
delay-scan dip fit, lifetime fits with Gaussian instrument response, and
Rabi-scan fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optics import CoincidenceHistogram, hom_distinguishable_fixture


@dataclass
class FitResult:
    """Fitted parameters with 1-sigma uncertainties."""

    params: dict  # name -> (value, sigma)
    reduced_chi_square: float = float("nan")
    converged: bool = True

    def value(self, name: str) -> float:
        return self.params[name][0]

    def sigma(self, name: str) -> float:
        return self.params[name][1]


def _comb_areas(hist: CoincidenceHistogram, rep_period: float):
    """Central, +-1 period and far peak areas of a pulsed coincidence comb.

    Each peak is integrated over +-rep_period/4. The far peaks are those
    beyond half the histogram range, clear of the blinking-correlated near
    peaks. Returns (central, [area at -1, area at +1], far areas array).
    """
    if not (np.isfinite(rep_period) and rep_period >= hist.bin_width):
        raise ValueError(f"repetition period {rep_period} ps must be finite and at least "
                         f"one bin width ({hist.bin_width} ps)")
    max_delay = hist.centers[-1]
    k_max = int(np.floor(max_delay / rep_period))
    if k_max < 5:
        raise ValueError("histogram must span at least 5 repetition periods per side")
    delays = np.arange(-k_max, k_max + 1) * rep_period
    areas = hist.peak_areas(delays, rep_period / 4.0)
    far = areas[np.abs(delays) > 0.5 * max_delay]
    return int(areas[k_max]), areas[[k_max - 1, k_max + 1]].tolist(), far


def g2_zero(hist: CoincidenceHistogram, rep_period: float) -> tuple[float, float]:
    """Central-peak area over the mean far side-peak area, with Poisson error.

    Only the peaks in the outer half of the histogram range normalize, so
    that blinking-correlated near peaks do not.
    """
    central, _, far = _comb_areas(hist, rep_period)
    mean_far = far.mean()
    if mean_far <= 0:
        raise ValueError("far side peaks are empty; cannot normalize")
    g2 = central / mean_far
    # Poisson: var(central) = central, var(mean_far) = sum(far)/m^2. In Python
    # ints, because central^2 * sum(far) passes 2^63 already at 1e6 and 1e7 counts.
    var = (max(central, 1.0) / mean_far**2
           + central**2 * sum(far.tolist()) / (len(far) ** 2 * mean_far**4))
    return float(g2), float(np.sqrt(var))


def blinking_factor(hist: CoincidenceHistogram, rep_period: float) -> float:
    """Asymptotic far side-peak area over the nearest side-peak area.

    Equals the telegraph ON fraction when the blinking dwell time is long
    compared to one cycle.
    """
    _, (minus, plus), far = _comb_areas(hist, rep_period)
    near = 0.5 * (plus + minus)
    if near <= 0:
        raise ValueError("insufficient side peaks for blinking analysis")
    return float(far.mean() / near)


@dataclass
class HomPeaks:
    a: float
    b_minus: float
    b_plus: float
    c_minus: float
    c_plus: float
    g2_hom: float
    g2_hom_err: float
    visibility: float


_HOM_FIXTURE = hom_distinguishable_fixture()


def hom_five_peak(hist: CoincidenceHistogram, delay: float) -> HomPeaks:
    """Integrate the five-peak HOM cluster and normalize the central peak.

    Each peak is integrated over +-delay/3. The distinguishable-case
    expectation for peak A comes from the frozen path-combination fixture,
    scaled by the measured B and C areas; visibility uses the 1 - 2 g2
    convention.
    """
    if not (np.isfinite(delay) and delay > 0):
        raise ValueError(f"delay {delay} ps must be a positive finite number")
    ks = (-2, -1, 0, 1, 2)
    areas = {k: float(a) for k, a in
             zip(ks, hist.peak_areas(np.array(ks) * delay, delay / 3.0).tolist())}
    w = _HOM_FIXTURE
    side_weight = w[-2] + w[-1] + w[1] + w[2]
    side_area = areas[-2] + areas[-1] + areas[1] + areas[2]
    if side_area <= 0:
        raise ValueError("no side-peak counts; cannot normalize")
    expected_a = side_area * w[0] / side_weight
    g2 = areas[0] / expected_a
    err = g2 * np.sqrt(max(areas[0], 1.0) / max(areas[0], 1.0) ** 2 + 1.0 / side_area)
    return HomPeaks(
        a=areas[0], b_minus=areas[-1], b_plus=areas[1],
        c_minus=areas[-2], c_plus=areas[2],
        g2_hom=float(g2), g2_hom_err=float(err),
        visibility=float(1.0 - 2.0 * g2),
    )


def hom_delay_scan(offsets, rates) -> FitResult:
    """Fit the two-sided-exponential HOM dip R0 (1 - V exp(-|d|/tau_c))."""
    offsets = np.asarray(offsets, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if len(offsets) < 7:
        raise ValueError("need at least 7 scan points across the dip")

    def model(d, r0, v, tau_c):
        return r0 * (1.0 - v * np.exp(-np.abs(d) / tau_c))

    r0_guess = float(np.max(rates))
    v_guess = float(np.clip(1.0 - np.min(rates) / max(r0_guess, 1e-30), 0.0, 1.0))
    tau_guess = max((offsets.max() - offsets.min()) / 6.0, 1.0)
    from scipy.optimize import curve_fit

    try:
        popt, pcov = curve_fit(
            model, offsets, rates, p0=[r0_guess, max(v_guess, 1e-3), tau_guess],
            maxfev=20000,
        )
    except RuntimeError:
        return FitResult(params={"visibility": (np.nan, np.nan),
                                 "tau_c": (np.nan, np.nan)}, converged=False)
    perr = np.sqrt(np.diag(pcov))
    resid = rates - model(offsets, *popt)
    dof = max(len(offsets) - 3, 1)
    red_chi2 = float(np.sum(resid**2 / np.clip(np.abs(model(offsets, *popt)), 1.0, None)) / dof)
    return FitResult(
        params={"rate0": (popt[0], perr[0]),
                "visibility": (popt[1], perr[1]),
                "tau_c": (popt[2], perr[2])},
        reduced_chi_square=red_chi2,
    )


def _emg_logpdf(t, tau, t0, sigma):
    """Log density of an exponential of mean `tau` convolved with a Gaussian.

    For sigma > 0 this is `scipy.stats.exponnorm.logpdf(t, tau / sigma,
    loc=t0, scale=sigma)` written out term by term, bit-identical to it,
    without importing `scipy.stats`.
    """
    if sigma <= 0:
        out = np.full_like(t, -np.inf)
        ok = t >= t0
        out[ok] = -np.log(tau) - (t[ok] - t0) / tau
        return out
    from scipy.special import log_ndtr

    k = tau / sigma
    inv_k = 1.0 / k
    z = (t - t0) / sigma
    return inv_k * (0.5 * inv_k - z) + log_ndtr(z - inv_k) - np.log(k) - np.log(sigma)


def fit_lifetime(hist: CoincidenceHistogram, jitter_sigma: float) -> FitResult:
    """Binned Poisson MLE of an exponential decay with Gaussian response.

    Also runs a tail-only least-squares cross-check starting one response
    FWHM after the histogram peak; the two estimates must agree within
    2 sigma plus a 1% floor for the fit to be reported as converged.
    """
    counts = hist.counts.astype(float)
    centers = hist.centers
    total = counts.sum()
    if total < 1e4:
        raise ValueError(f"insufficient counts for lifetime fit: {total:.0f} < 1e4")

    mean_t = float(np.sum(centers * counts) / total)
    peak_t = float(centers[np.argmax(counts)])
    tau0 = max(mean_t - peak_t, hist.bin_width)

    def nll(theta):
        tau, t0 = theta
        if tau <= 0:
            return 1e30
        # bin-center approximation of the integral; constant width drops out.
        # Empty bins add nothing, also before t0, where an ideal detector has log p = -inf.
        logp = np.where(counts > 0, _emg_logpdf(centers, tau, t0, jitter_sigma), 0.0)
        return float(-np.sum(counts * logp))

    from scipy.optimize import minimize

    res = minimize(nll, [tau0, peak_t - jitter_sigma], method="Nelder-Mead",
                   options={"xatol": 1e-6, "fatol": 1e-9, "maxiter": 20000})
    tau_hat, t0_hat = res.x

    # observed information via central differences on the profile in tau
    h = max(1e-4 * tau_hat, 1e-6)
    d2 = (nll([tau_hat + h, t0_hat]) - 2.0 * nll([tau_hat, t0_hat])
          + nll([tau_hat - h, t0_hat])) / h**2
    tau_err = float(1.0 / np.sqrt(d2)) if d2 > 0 else float("nan")

    fwhm = 2.355 * jitter_sigma
    tail = (centers > peak_t + fwhm) & (counts > 5)
    converged = bool(res.success)
    tau_tail = float("nan")
    if np.count_nonzero(tail) >= 3:
        # weighted LS on log counts: var(log n) ~ 1/n
        y = np.log(counts[tail])
        x = centers[tail]
        wts = counts[tail]
        coeffs, cov = np.polyfit(x, y, 1, w=np.sqrt(wts), cov=True)
        slope, slope_err = coeffs[0], np.sqrt(cov[0, 0])
        tau_tail = -1.0 / slope
        tail_err = tau_tail**2 * slope_err
        tol = 2.0 * np.hypot(tau_err, tail_err) + 0.01 * tau_hat
        if abs(tau_tail - tau_hat) > tol:
            converged = False

    return FitResult(
        params={"tau": (float(tau_hat), tau_err),
                "t0": (float(t0_hat), float("nan")),
                "tau_tail": (tau_tail, float("nan"))},
        converged=converged,
    )


def fit_rabi(sqrt_powers, rates, rate_normalization: float = 1.0) -> FitResult:
    """Fit rate = A sin^2(k sqrt(P) / 2) to a pulse-area scan.

    Returns the area calibration k, the pi-pulse point pi/k, and the peak
    emission probability A / rate_normalization.
    """
    x = np.asarray(sqrt_powers, dtype=float)
    y = np.asarray(rates, dtype=float)

    def model(xx, a, k):
        return a * np.sin(k * xx / 2.0) ** 2

    a0 = float(np.max(y))
    k0 = np.pi / max(x[np.argmax(y)], 1e-12)
    from scipy.optimize import curve_fit

    try:
        popt, pcov = curve_fit(model, x, y, p0=[a0, k0], maxfev=20000)
    except RuntimeError:
        return FitResult(params={"p_emit_pi": (np.nan, np.nan)}, converged=False)
    perr = np.sqrt(np.diag(pcov))
    a, k = popt
    return FitResult(
        params={
            "amplitude": (a, perr[0]),
            "area_calibration": (k, perr[1]),
            "pi_pulse_sqrt_power": (np.pi / k, perr[1] * np.pi / k**2),
            "p_emit_pi": (a / rate_normalization, perr[0] / rate_normalization),
        },
    )


def purcell_from_lifetimes(tau_meas: float, tau_bulk: float) -> float:
    """Lifetime-shortening Purcell ratio."""
    if tau_meas <= 0 or tau_bulk <= 0:
        raise ValueError("lifetimes must be positive")
    return tau_bulk / tau_meas
