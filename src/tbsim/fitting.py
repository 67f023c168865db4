"""Extraction of physical quantities from histograms and scans.

g2(0) peak-area analysis, blinking factor, HOM five-peak analysis, HOM
delay-scan dip fit, lifetime fits with Gaussian instrument response, and
Rabi-scan fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .optics import CoincidenceHistogram


@dataclass
class FitResult:
    """Fitted parameters with 1-sigma uncertainties."""

    params: dict  # name -> (value, sigma)
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


def hom_five_peak(hist: CoincidenceHistogram, delay: float) -> HomPeaks:
    """Integrate the five-peak HOM cluster and normalize the central peak.

    Each peak is integrated over +-delay/3. The distinguishable-case
    expectation for peak A is the measured B and C area over 1.5: summed
    over both photons' paths and detectors, the peaks at -2..2 delays weigh
    1:2:4:2:1. Visibility uses the 1 - 2 g2 convention.
    """
    reach = min(-hist.centers[0], hist.centers[-1])
    if not 0 < 2.0 * delay <= reach:  # in Python floats, 2 * 1e308 is inf without a warning
        raise ValueError(f"delay {delay} ps must be positive, with the peaks at +-2 delays "
                         f"inside the histogram (+-{reach} ps)")
    ks = (-2, -1, 0, 1, 2)
    areas = {k: float(a) for k, a in
             zip(ks, hist.peak_areas(np.array(ks) * delay, delay / 3.0).tolist())}
    side_area = areas[-2] + areas[-1] + areas[1] + areas[2]
    if side_area <= 0:
        raise ValueError("no side-peak counts; cannot normalize")
    expected_a = side_area / 1.5
    g2 = areas[0] / expected_a
    err = g2 * np.sqrt(max(areas[0], 1.0) / max(areas[0], 1.0) ** 2 + 1.0 / side_area)
    return HomPeaks(
        a=areas[0], b_minus=areas[-1], b_plus=areas[1],
        c_minus=areas[-2], c_plus=areas[2],
        g2_hom=float(g2), g2_hom_err=float(err),
        visibility=float(1.0 - 2.0 * g2),
    )


_GRID = 65  # trial values per bracket and refinement step of `_profiled_lstsq`
_STENCIL = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)
_D1, _D2 = np.array([-0.5, 0.0, 0.5]), np.array([1.0, -2.0, 1.0])


def _profiled_lstsq(x, y, basis, lo, hi):
    """Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)) for
    y ~ basis(x, q) @ c: `lstsq` gives c at each q, and the bracket shrinking of
    `cavity.cavity_resonance_and_q` on a log grid over [lo, hi] minimises the RSS. Returns
    (c..., q), curve_fit's covariance RSS / (n - p) (J^T J)^-1, and False for q at an edge.
    """
    def solve(q):
        b = basis(x, q)
        c = np.linalg.lstsq(b, y, rcond=None)[0]
        return c, np.sum((y - b @ c) ** 2)

    # the bases overflow, if anywhere, at an end of the bracket; an inf or NaN must not
    # reach lstsq, whose LAPACK routines print a line of their own before they fail
    with np.errstate(over="ignore", invalid="ignore"):
        if not all(np.isfinite(basis(x, q)).all() for q in (lo, hi)):
            raise ValueError(f"fit model not finite for parameter values in [{lo:g}, {hi:g}]: "
                             "an input value is too large")
    grid, inside = np.geomspace(lo, hi, _GRID), True
    while grid[-1] / grid[0] > 1.0 + 1e-12:
        k = int(np.argmin([solve(q)[1] for q in grid]))
        inside = inside and grid[k] not in (lo, hi)
        grid = np.geomspace(grid[max(k - 1, 0)], grid[min(k + 1, _GRID - 1)], _GRID)
    q, h = grid[_GRID // 2], 1e-6 * grid[_GRID // 2]
    c, rss = solve(q)
    jac = np.column_stack([basis(x, q), (basis(x, q + h) - basis(x, q - h)) @ c / (2.0 * h)])
    return np.append(c, q), rss / (len(y) - len(c) - 1) * np.linalg.inv(jac.T @ jac), inside


def hom_delay_scan(offsets, rates) -> FitResult:
    """Fit the two-sided-exponential HOM dip R0 (1 - V exp(-|d|/tau_c)), linear in R0 and R0 V."""
    offsets = np.asarray(offsets, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if len(offsets) < 7:
        raise ValueError("need at least 7 scan points across the dip")
    tau_guess = max((offsets.max() - offsets.min()) / 6.0, 1.0)
    (r0, r0_v, tau_c), cov, converged = _profiled_lstsq(
        offsets, rates, lambda d, t: np.column_stack([np.ones_like(d), -np.exp(-np.abs(d) / t)]),
        tau_guess / 10.0, tau_guess * 10.0)
    grad_v = np.array([-r0_v / r0**2, 1.0 / r0, 0.0])
    return FitResult(params={"rate0": (r0, np.sqrt(cov[0, 0])),
                             "visibility": (r0_v / r0, np.sqrt(grad_v @ cov @ grad_v)),
                             "tau_c": (tau_c, np.sqrt(cov[2, 2]))}, converged=converged)


def _log_bin_probs(edges, tau, t0, sigma):
    """log(F(b_i+1) - F(b_i)) over edges b, F the CDF of t0 + Exp(tau) + N(0, sigma^2).

    F(b) = Phi(z) (1 - e^u), u = s^2/2 - x/tau + log(Phi(z - s) / Phi(z)), x = b - t0,
    z = x/sigma, s = sigma/tau, in logs so that bins far before t0 stay finite; without
    jitter F(b) = 1 - exp(-x/tau) for x > 0. tau and t0 broadcast against b.
    """
    def log_ndtr(z):  # log Phi(z); below z = -30, where erfc nears underflow, by its series
        lower = np.frompyfunc(math.erfc, 1, 1)(np.abs(z) / np.sqrt(2.0)).astype(float) / 2.0
        r = 1.0 / np.minimum(z, -30.0) ** 2
        series = 1 + r * (-1 + r * (3 + r * (-15 + r * (105 + r * (-945 + r * 10395)))))
        return np.where(z > 0, np.log1p(-lower), np.where(  # lower = Phi(-|z|) may underflow
            z < -30.0, np.log(series * np.sqrt(r / (2.0 * np.pi))) - 0.5 / r, np.log(lower)))

    x = edges - t0
    # log 0 = -inf; fmin: rounding far below t0 can lift u and log-differences above 0, and
    # where z overflows (sigma near 0) log Phi = -inf makes them NaN, read as F = 0 there
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if sigma == 0:
            log_f = np.log(-np.expm1(-np.maximum(x, 0.0) / tau))
        else:
            z, s = x / sigma, sigma / tau
            log_phi = log_ndtr(z)
            u = s * s / 2.0 - x / tau + log_ndtr(z - s) - log_phi
            log_f = log_phi + np.log(-np.expm1(np.fmin(u, 0.0)))
        return log_f[..., 1:] + np.log(-np.expm1(np.fmin(log_f[..., :-1] - log_f[..., 1:], 0.0)))


def fit_lifetime(hist: CoincidenceHistogram, jitter_sigma: float) -> FitResult:
    """Binned maximum-likelihood fit of an exponential decay with Gaussian response.

    Damped Newton steps in (tau, t0) minimise the multinomial NLL of `_log_bin_probs`
    (Baker & Cousins, NIM 221, 437 (1984)); sigma_tau is marginal, from the inverse observed
    information; the closed-form MLE of the tail past peak + 3 FWHM must agree within 2 sigma.
    """
    from .optics import FWHM_PER_SIGMA
    counts = hist.counts.astype(float)
    centers = hist.centers
    total = counts.sum()
    if total < 1e4:
        raise ValueError(f"insufficient counts for lifetime fit: {total:.0f} < 1e4")
    w, filled = hist.bin_width, counts > 0
    edges = hist.origin + w * np.arange(len(counts) + 1)
    # without jitter the NLL falls as t0 nears the first filled bin and is infinite past it
    t0_lo, t0_hi = edges[np.argmax(filled):][:2] if jitter_sigma == 0 else (-np.inf, np.inf)

    def nll(theta):  # theta: rows of (tau, t0); normalised to the histogram range
        log_p = _log_bin_probs(edges, theta[:, :1], theta[:, 1:], jitter_sigma)
        return total * np.logaddexp.reduce(log_p, axis=1) - log_p[:, filled] @ counts[filled]

    def derivatives(theta):  # NLL, gradient and Hessian by central differences on _STENCIL
        h = np.array([1e-3 * theta[0], min(1e-3 * max(jitter_sigma, w), (t0_hi - theta[1]) / 2)])
        f = nll(theta + h * _STENCIL).reshape(3, 3)
        # an infinite NLL on the stencil makes NaN derivatives, which end the fit unconverged
        with np.errstate(invalid="ignore"):
            cross = _D1 @ f @ _D1
            hess = np.array([[_D2 @ f[:, 1], cross], [cross, f[1] @ _D2]]) / np.outer(h, h)
            return f[1, 1], np.array([_D1 @ f[:, 1], f[1] @ _D1]) / h, hess

    peak_t = float(centers[np.argmax(counts)])
    # past peak + 3 FWHM the Gaussian factor is 1 to 1e-11: the tail bin index k is geometric,
    # q = exp(-w/tau), and q = mean(k)/(1 + mean(k)) its MLE; a tail that shows no decay fails
    tail = counts[np.searchsorted(centers, peak_t + 3.0 * FWHM_PER_SIGMA * jitter_sigma, "right"):]
    if not tail[1:].any():
        return FitResult(params={}, converged=False)
    k = np.arange(len(tail)) @ tail / tail.sum()
    tau_tail = w / math.log1p(1.0 / k)
    tail_err = tau_tail**2 / (w * math.sqrt(k * (1.0 + k) * tail.sum()))
    theta = np.array([max(centers @ counts / total - peak_t, w),
                      min(peak_t - jitter_sigma, t0_hi - w / 2)])
    converged = False
    for _ in range(100):
        f, grad, hess = derivatives(theta)
        step = -np.linalg.solve(hess, grad)
        t = 1.0  # damping: halve the step until the NLL falls
        while -grad @ step > 1e-8 and t > 1e-10 and not (
                theta[0] + t * step[0] > 0 and t0_lo <= theta[1] + t * step[1] < t0_hi
                and nll(theta[None] + t * step)[0] < f):
            t /= 2.0
        # done when no fall is predicted, or none found (as at the sigma = 0 kink at t0_lo)
        if not -grad @ step > 1e-8 or t <= 1e-10:
            converged = bool(np.all(np.linalg.eigvalsh(hess) > 0))
            break
        theta = theta + t * step
    tau_err = float(np.sqrt(np.linalg.inv(hess)[0, 0])) if converged else float("nan")
    converged = converged and abs(tau_tail - theta[0]) <= 2.0 * math.hypot(tau_err, tail_err)
    return FitResult(params={"tau": (float(theta[0]), tau_err),
                             "t0": (float(theta[1]), np.nan),
                             "tau_tail": (tau_tail, tail_err)}, converged=bool(converged))


def fit_rabi(sqrt_powers, rates, rate_normalization: float = 1.0) -> FitResult:
    """Fit rate = A sin^2(k sqrt(P) / 2) to a pulse-area scan.

    Returns the area calibration k, pi-pulse point pi/k and peak emission A / rate_normalization.
    """
    x = np.asarray(sqrt_powers, dtype=float)
    y = np.asarray(rates, dtype=float)
    k0 = np.pi / max(x[np.argmax(y)], 1e-12)
    (a, k), cov, converged = _profiled_lstsq(
        x, y, lambda xx, k: np.sin(k * xx / 2.0)[:, None] ** 2, k0 / 4.0, k0 * 4.0)
    a_err, k_err = np.sqrt(np.diag(cov))
    # as Python floats, A over a tiny normalization overflows to inf without a RuntimeWarning
    return FitResult(params={"amplitude": (a, a_err),
                             "area_calibration": (k, k_err),
                             "pi_pulse_sqrt_power": (np.pi / k, k_err * np.pi / k**2),
                             "p_emit_pi": (float(a) / rate_normalization,
                                           float(a_err) / rate_normalization)},
                     converged=converged)


def purcell_from_lifetimes(tau_meas: float, tau_bulk: float) -> float:
    """Lifetime-shortening Purcell ratio."""
    if tau_meas <= 0 or tau_bulk <= 0:
        raise ValueError("lifetimes must be positive")
    return tau_bulk / tau_meas
