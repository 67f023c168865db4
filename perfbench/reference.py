"""Computations the checks compare tbsim's outputs with.

Nothing here imports tbsim: these are closed forms of the models,
independent re-computations (window sums, binary-search pair counts, a
greedy dead-time filter, linear-inversion tomography) and the 4-sigma
comparison the statistical checks share.
"""

from __future__ import annotations

import math

import numpy as np

REP = 12500.0  # repetition period of the default emitter (ps)


class Histogram:
    """Start-stop histogram: bin i covers [origin + i w, origin + (i+1) w)."""

    def __init__(self, bin_width, origin, counts):
        self.bin_width = float(bin_width)
        self.origin = float(origin)
        self.counts = np.asarray(counts, dtype=np.int64)

    @classmethod
    def from_csv(cls, text):
        header, counts = {}, []
        for line in text.splitlines():
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                header[key.strip()] = float(value)
            elif line and not line.startswith("delay_ps"):
                counts.append(int(line.split(",")[1]))
        return cls(header["bin_width_ps"], header["origin_ps"], counts)

    @property
    def centers(self):
        return self.origin + (np.arange(len(self.counts)) + 0.5) * self.bin_width


def check_near(err, name, value, expect, sigma):
    """Append to `err` unless `value` is within 4 sigma of `expect`."""
    if not abs(value - expect) <= 4.0 * sigma:
        err.append(f"{name} = {value:.6g} not within 4 sigma ({sigma:.3g}) of {expect:.6g}")


def far_peaks(hist):
    """Side peaks in the outer half of the histogram range, where the g2 and
    blinking analyses take their normalisation."""
    max_delay = hist.centers[-1]
    k_max = int(max_delay // REP)
    return [k for k in range(-k_max, k_max + 1) if abs(k * REP) > 0.5 * max_delay]


def peak_areas(hist, ks, window=REP / 4.0):
    """Counts in the bins whose centers lie within `window` of k * REP."""
    c = hist.centers
    return np.array([hist.counts[np.abs(c - k * REP) <= window].sum() for k in ks],
                    dtype=float)


def telegraph_lambda(on_fraction, mean_on_cycles):
    """Per-cycle correlation decay 1 - p_on_off - p_off_on of the blinking chain."""
    p_on_off = 1.0 / mean_on_cycles
    return 1.0 - p_on_off - on_fraction * p_on_off / (1.0 - on_fraction)


def telegraph_bunching(on_fraction, mean_on_cycles, ks):
    """Side-peak enhancement 1 + (1/f - 1) lambda^|k| at k periods delay."""
    lam = telegraph_lambda(on_fraction, mean_on_cycles)
    return 1.0 + (1.0 / on_fraction - 1.0) * lam ** np.abs(np.asarray(ks, dtype=float))


def on_fraction_sd(on_fraction, mean_on_cycles, cycles):
    """Standard deviation of the realised ON fraction over `cycles` cycles."""
    lam = telegraph_lambda(on_fraction, mean_on_cycles)
    f = on_fraction
    return math.sqrt(f * (1.0 - f) * (1.0 + lam) / ((1.0 - lam) * cycles))


def expected_g2(g2_long_range, on_fraction, mean_on_cycles, hist):
    """g2(0) the peak-area analysis should read on this histogram's peak set:
    the far peaks that normalise it still carry telegraph bunching."""
    return g2_long_range / telegraph_bunching(
        on_fraction, mean_on_cycles, far_peaks(hist)).mean()


def expected_blinking_factor(on_fraction, mean_on_cycles, hist):
    """Mean far side-peak area over the nearest side-peak area."""
    far = telegraph_bunching(on_fraction, mean_on_cycles, far_peaks(hist)).mean()
    return far / telegraph_bunching(on_fraction, mean_on_cycles, [1])[0]


def pairs_in_range(starts, stops, lo, hi):
    """Number of (start, stop) pairs with lo <= stop - start < hi."""
    stops = np.sort(stops)
    starts = np.asarray(starts)
    return int(np.sum(np.searchsorted(stops, starts + hi)
                      - np.searchsorted(stops, starts + lo)))


def greedy_dead_time(times, dead_time):
    """Clicks a detector keeps: each at least `dead_time` after the last kept."""
    kept, last = [], -math.inf
    for t in times.tolist():
        if t - last >= dead_time:
            kept.append(t)
            last = t
    return np.array(kept)


# ------------------------------------------------------------- tomography

def _projectors():
    kets = [np.array([1, 0]), np.array([0, 1]),
            np.array([1, 1]) / math.sqrt(2.0), np.array([1, 1j]) / math.sqrt(2.0)]
    out = []
    for a in kets:  # order: XX projector major, E L P Pi
        for b in kets:
            k = np.kron(a, b).astype(complex)
            out.append(np.outer(k, k.conj()))
    return np.array(out)


PROJECTORS = _projectors()


def log_likelihood(counts, rho):
    """Poisson log-likelihood of 16 setting counts at the best overall scale."""
    p = np.clip(np.einsum("kij,ji->k", PROJECTORS, rho).real, 1e-15, None)
    mu = np.clip(counts.sum() / p.sum() * p, 1e-300, None)
    return float(np.sum(counts * np.log(mu) - mu))


def projected_linear_inversion(counts):
    """Linear inversion, made Hermitian, unit trace and positive."""
    a = np.array([p.T.reshape(16) for p in PROJECTORS])
    m = np.linalg.solve(a, counts.astype(complex)).reshape(4, 4)
    m = 0.5 * (m + m.conj().T)
    w, v = np.linalg.eigh(m / m.trace().real)
    w = np.clip(w, 0.0, None)
    return (v * (w / w.sum())) @ v.conj().T


def concurrence(rho):
    """Wootters concurrence."""
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    lam = np.sort(np.sqrt(np.abs(np.linalg.eigvals(rho @ yy @ rho.conj() @ yy).real)))
    return max(0.0, lam[3] - lam[2] - lam[1] - lam[0])


def bell_fidelity(rho):
    """Overlap with (|ee> + |ll>)/sqrt(2)."""
    return 0.5 * (rho[0, 0] + rho[3, 3] + 2.0 * rho[0, 3].real).real


def density_matrix_errors(rho):
    """Hermitian, unit trace, positive semidefinite; returns what fails."""
    err = []
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        err.append("not Hermitian")
    if abs(rho.trace().real - 1.0) > 1e-9:
        err.append(f"trace {rho.trace().real!r}")
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if w.min() < -1e-10:
        err.append(f"eigenvalue {w.min():.3e}")
    return err
