"""Interferometer network, detectors, and coincidence logic.

Event-level Monte Carlo of the three measurement arrangements: time-bin
entanglement analysis (two unbalanced Michelson analyzers), Hong-Ou-Mandel
interference of consecutive photons, and Hanbury Brown-Twiss
autocorrelation.  Each Michelson pass costs a factor 1/2 into the
detection port (the photon may return toward the source).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
# `sample_pair_emission` is not called here, but the benchmark's tracer wraps
# it at this name (perfbench/tracing.py)
from .cascade import (EmitterParams, blinking_telegraph, on_cycle_blocks,  # noqa: F401
                      pair_emission_blocks, sample_pair_emission)
from .kernels import dead_time_mask, first_true, pair_delay_counts
from .qcore import DensityMatrix
from .rng import Stream
from .table import format_table, read_table

FWHM_PER_SIGMA = float(np.sqrt(8.0 * np.log(2.0)))  # Gaussian FWHM / sigma


@dataclass(frozen=True)
class Interferometer:
    """Unbalanced Michelson analyzer: path delay (ps) and long-arm phase."""

    delay: float = 3000.0
    phase: float = 0.0

    def __post_init__(self):
        if not (0 < self.delay < np.inf and np.isfinite(self.phase)):
            raise ValueError("interferometer delay must be positive and finite, "
                             "its phase finite")


@dataclass(frozen=True)
class DetectorModel:
    """Detection efficiency, dark counts, Gaussian jitter, dead time."""

    efficiency: float = 0.25
    dark_count_rate: float = 100.0  # counts/s
    jitter_sigma: float = 16.0 / FWHM_PER_SIGMA  # 16 ps FWHM resolution
    dead_time: float = 0.0  # ps

    def __post_init__(self):
        if not (0.0 < self.efficiency <= 1.0):
            raise ValueError("efficiency must be in (0, 1]")
        if not all(0 <= v < np.inf
                   for v in (self.dark_count_rate, self.jitter_sigma, self.dead_time)):
            raise ValueError("detector parameters must be non-negative and finite")

    @classmethod
    def ideal(cls) -> "DetectorModel":
        return cls(efficiency=1.0, dark_count_rate=0.0, jitter_sigma=0.0, dead_time=0.0)


@dataclass(frozen=True)
class TimebinStateModel:
    """Generated two-photon time-bin state: coherence V and pump phase."""

    visibility: float = 1.0
    pump_phase: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.visibility <= 1.0):
            raise ValueError("visibility must be in [0, 1]")
        if not np.isfinite(self.pump_phase):
            raise ValueError("pump phase must be finite")


@dataclass
class PhotonEvents:
    """Detector clicks: channel ids and timestamps (ps), sorted by time."""

    channel: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int8))
    time: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __len__(self) -> int:
        return len(self.time)

    def on_channel(self, ch: int) -> np.ndarray:
        return self.time[self.channel == ch]

    def to_csv(self) -> str:
        return format_table(("channel", "timestamp_ps"),
                            zip(self.channel.tolist(), self.time.tolist()))

    @classmethod
    def from_csv(cls, text: str) -> "PhotonEvents":
        _, (ch, tm) = read_table(text, ("channel", "timestamp_ps"), "event",
                                 (int, float))
        return cls(np.array(ch, dtype=np.int8), np.array(tm))


@dataclass
class CoincidenceHistogram:
    """Start-stop delay histogram with fixed bin width.

    Bin i covers [origin + i*w, origin + (i+1)*w); `symmetric_bins` places
    bin centers on integer multiples of the bin width with 0 included.
    """

    bin_width: float
    origin: float
    counts: np.ndarray

    def __post_init__(self):
        if self.bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = float(self.bin_width)
        self.origin = float(self.origin)
        c = np.asarray(self.counts, dtype=np.int64)
        if np.any(c < 0):
            raise ValueError("histogram counts must be non-negative")
        self.counts = c

    @property
    def centers(self) -> np.ndarray:
        return self.origin + (np.arange(len(self.counts)) + 0.5) * self.bin_width

    def total(self) -> int:
        return int(self.counts.sum())

    def peak_areas(self, centers, half_width: float) -> np.ndarray:
        """Counts in the bins whose centers lie within +-half_width of each of `centers`.

        A bin counts when ``abs(bin_center - center) <= half_width`` in floating
        point. The offset ``bin_center - center`` does not decrease along the bins,
        so each peak's bins run from the first with offset ``>= -half_width`` to the
        first with offset ``> half_width`` (`first_true`); one cumsum serves all.
        """
        c = self.centers
        pk = np.atleast_1d(np.asarray(centers, dtype=float))
        lo = first_true(lambda i: c[i] - pk >= -half_width, len(c), len(pk))
        hi = first_true(lambda i: c[i] - pk > half_width, len(c), len(pk))
        cum = np.concatenate(([0], np.cumsum(self.counts)))
        return cum[np.maximum(hi, lo)] - cum[lo]

    def to_csv(self) -> str:
        return format_table(
            ("delay_ps", "counts"),
            zip(self.centers.tolist(), self.counts.tolist()),
            meta={"bin_width_ps": self.bin_width, "origin_ps": self.origin})

    @classmethod
    def from_csv(cls, text: str) -> "CoincidenceHistogram":
        """Read a histogram file; each `delay_ps` must be its row's bin center."""
        meta, (delays, counts) = read_table(text, ("delay_ps", "counts"),
                                            "histogram", (float, int))
        if "bin_width_ps" not in meta:
            raise ValueError("histogram file missing '# bin_width_ps=' header")
        if not counts:
            raise ValueError("histogram file has no rows")
        bin_width = meta["bin_width_ps"]
        origin = meta.get("origin_ps", delays[0] - 0.5 * bin_width)
        hist = cls(bin_width=bin_width, origin=origin, counts=counts)
        centers = hist.centers
        off = np.flatnonzero(np.abs(np.array(delays) - centers) > 1e-6 * bin_width)
        if len(off):
            i = off[0]
            raise ValueError(
                f"histogram bin {i} has delay_ps={delays[i]!r}, but bin_width_ps and "
                f"origin_ps put its center at {float(centers[i])!r}")
        return hist


def symmetric_bins(max_delay: float, bin_width: float):
    """(origin, nbins) covering +-max_delay with 0 on a bin center."""
    half = int(np.ceil(max_delay / bin_width))
    return -(half + 0.5) * bin_width, 2 * half + 1


def histogram_events(events: PhotonEvents, start_channel: int, stop_channel: int,
                     bin_width: float, max_delay: float) -> CoincidenceHistogram:
    """Bin all start-stop delays with |delay| <= max_delay."""
    starts = np.sort(events.on_channel(start_channel))
    stops = np.sort(events.on_channel(stop_channel))
    origin, nbins = symmetric_bins(max_delay, bin_width)
    counts = pair_delay_counts(starts, stops, origin, bin_width, nbins)
    return CoincidenceHistogram(bin_width, origin, counts)


# --- analytic pieces -------------------------------------------------------

def ideal_timebin_density(model: TimebinStateModel) -> DensityMatrix:
    """Density matrix of the generated state: Bell coherence scaled by V."""
    v, phi = model.visibility, model.pump_phase
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    m[0, 3] = 0.5 * v * np.exp(1j * phi)
    m[3, 0] = np.conj(m[0, 3])
    return DensityMatrix(m)


def coincidence_probability(phi_p: float, phi_x: float, phi_xx: float, visibility: float) -> float:
    """Middle-slot pair probability, normalized to 1/4 at zero coherence."""
    if not (0.0 <= visibility <= 1.0):
        raise ValueError("visibility must be in [0, 1]")
    return (1.0 + visibility * np.cos(phi_p - phi_x - phi_xx)) / 4.0


# --- detection chain -------------------------------------------------------

_N_CHANNELS = 2  # every arrangement ends on two detectors


def _detect_blocks(blocks, detectors: DetectorModel, duration: float, seed) -> PhotonEvents:
    """Clicks of a run whose photons come as `(channel, time)` blocks, in photon order.

    Each block's photons take the efficiency coin (`DETECT_EFFICIENCY`) and
    then jitter (`DETECT_JITTER`) at their indices among the run's photons and
    kept photons, so the blocking does not change a draw. Only the clicks
    outlive their block: dark counts (`DETECT_DARK`) join them, a stable sort
    orders them by time (clicks of equal time keep their photon order, dark
    counts last), and per-channel dead time thins them.
    """
    r_eff, r_jit, r_dark = (rng.CounterRng(seed, s) for s in (
        Stream.DETECT_EFFICIENCY, Stream.DETECT_JITTER, Stream.DETECT_DARK))
    channels, times = [np.empty(0, dtype=np.int8)], [np.empty(0)]
    for raw_channel, raw_time in blocks:
        keep = r_eff.below(len(raw_time), detectors.efficiency)
        tm = raw_time[keep]
        if detectors.jitter_sigma > 0 and len(tm):
            tm += r_jit.normal(len(tm), detectors.jitter_sigma)
        channels.append(raw_channel[keep])
        times.append(tm)
    mean_dark = detectors.dark_count_rate * duration * 1e-12
    if mean_dark > 0:
        n_dark = r_dark.poisson(np.full(_N_CHANNELS, mean_dark))
        channels.append(np.repeat(np.arange(_N_CHANNELS, dtype=np.int8), n_dark))
        times.append(r_dark.uniform(int(n_dark.sum())) * duration)
    ch, tm = np.concatenate(channels), np.concatenate(times)
    del channels, times

    order = np.argsort(tm, kind="stable")
    ch, tm = ch[order], tm[order]

    if detectors.dead_time > 0:
        keep = np.zeros(len(tm), dtype=bool)
        for c in range(_N_CHANNELS):
            sel = ch == c
            keep[sel] = dead_time_mask(tm[sel], detectors.dead_time)
        ch, tm = ch[keep], tm[keep]
    return PhotonEvents(ch.astype(np.int8), tm)


def _detect(raw_channel: np.ndarray, raw_time: np.ndarray, detectors: DetectorModel,
            duration: float, seed) -> PhotonEvents:
    """Apply efficiency, jitter, dark counts, and per-channel dead time."""
    return _detect_blocks([(raw_channel, raw_time)], detectors, duration, seed)


# --- time-bin entanglement run --------------------------------------------

def simulate_timebin_run(emitter: EmitterParams, state: TimebinStateModel,
                         analyzers, detectors: DetectorModel,
                         cycles: int, seed) -> PhotonEvents:
    """Event stream of the time-bin analysis: channel 0 = XX, channel 1 = X.

    Per excited cycle the pair picks a time bin and analyzer paths; the two
    indistinguishable middle-slot histories interfere with the fringe law
    (1 + V cos(phi_P - phi_X - phi_XX))/4.  Non-overlap outcomes keep
    independent 1/2 port losses per photon; for overlap candidates the pair
    survives jointly, so single-photon rates in that branch are not modeled.
    """
    an_xx, an_x = analyzers
    if abs(an_xx.delay - an_x.delay) > 1.0:
        raise ValueError(
            f"analyzer delays differ by {abs(an_xx.delay - an_x.delay):.3f} ps; "
            "time bins would not overlap"
        )
    delay = an_xx.delay
    fringe = coincidence_probability(state.pump_phase, an_x.phase, an_xx.phase,
                                     state.visibility)

    on = blinking_telegraph(emitter.blinking_on_fraction,
                            emitter.blinking_mean_on_cycles, seed, cycles).astype(bool)
    c = np.arange(cycles, dtype=np.uint64)
    u = {s: rng.uniform(rng.stream_seed(seed, s), c)
         for s in (Stream.TIMEBIN_EXCITE, Stream.TIMEBIN_BIN, Stream.TIMEBIN_PATH_XX,
                   Stream.TIMEBIN_PATH_X, Stream.TIMEBIN_SURV_1, Stream.TIMEBIN_SURV_2)}
    e_xx = rng.exponential(rng.stream_seed(seed, Stream.TIMEBIN_EXP_XX), c, emitter.tau_xx)
    e_x = rng.exponential(rng.stream_seed(seed, Stream.TIMEBIN_EXP_X), c, emitter.tau_x)

    excited = on & (u[Stream.TIMEBIN_EXCITE] < emitter.p_emit_pi)
    b = (u[Stream.TIMEBIN_BIN] < 0.5).astype(np.int8)  # 0 = early, 1 = late
    path_xx = (u[Stream.TIMEBIN_PATH_XX] < 0.5).astype(np.int8)  # 0 = short, 1 = long
    path_x = (u[Stream.TIMEBIN_PATH_X] < 0.5).astype(np.int8)

    # overlap candidates: (early, long, long) or (late, short, short)
    mm = ((b == 0) & (path_xx == 1) & (path_x == 1)) | \
         ((b == 1) & (path_xx == 0) & (path_x == 0))
    # 4 * fringe = 1 + V cos(...) in [0, 2]; pair survival absorbs one 1/2
    pair_ok = (u[Stream.TIMEBIN_SURV_1] < 0.5) & (u[Stream.TIMEBIN_SURV_2] < 2.0 * fringe)
    surv_xx = np.where(mm, pair_ok, u[Stream.TIMEBIN_SURV_1] < 0.5)
    surv_x = np.where(mm, pair_ok, u[Stream.TIMEBIN_SURV_2] < 0.5)

    slot_xx = b + path_xx
    slot_x = b + path_x

    cyc_t = np.arange(cycles) * emitter.rep_period
    sel_xx = excited & surv_xx
    sel_x = excited & surv_x
    t_xx = cyc_t[sel_xx] + slot_xx[sel_xx] * delay + e_xx[sel_xx]
    t_x = cyc_t[sel_x] + slot_x[sel_x] * delay + e_xx[sel_x] + e_x[sel_x]

    raw_ch = np.concatenate([np.zeros(len(t_xx), dtype=np.int8),
                             np.ones(len(t_x), dtype=np.int8)])
    raw_tm = np.concatenate([t_xx, t_x])
    return _detect(raw_ch, raw_tm, detectors, cycles * emitter.rep_period, seed)


def timebin_slot_counts(events: PhotonEvents, rep_period: float, delay: float,
                        window: float = 500.0) -> np.ndarray:
    """3x3 table of same-cycle (slot_xx, slot_x) coincidences.

    A click is assigned slot s if it falls within +-window of cycle start +
    s*delay (the exponential emission tail beyond the window is dropped,
    uniformly over slots).
    """
    out = np.zeros((3, 3), dtype=np.int64)
    by_cycle = {}
    for ch in (0, 1):
        tm = events.on_channel(ch)
        cyc = np.floor(tm / rep_period).astype(np.int64)
        rel = tm - cyc * rep_period
        slot = np.rint(rel / delay).astype(np.int64)
        ok = (slot >= 0) & (slot <= 2) & (np.abs(rel - slot * delay) <= window)
        by_cycle[ch] = dict(zip(cyc[ok].tolist(), slot[ok].tolist()))
    for cyc, s_xx in by_cycle[0].items():
        s_x = by_cycle[1].get(cyc)
        if s_x is not None:
            out[s_xx, s_x] += 1
    return out


def middle_slot_fraction(slot_counts: np.ndarray) -> float:
    """Middle-middle coincidences over the coherence-independent pair rate.

    The baseline accepted-pair rate is estimated from the six
    non-interfering slot combinations (which carry 3/4 of it), so the
    returned fraction equals (1 + V cos dphi)/4 in expectation.
    """
    mm = slot_counts[1, 1]
    side = (slot_counts[0, 0] + slot_counts[0, 1] + slot_counts[1, 0]
            + slot_counts[1, 2] + slot_counts[2, 1] + slot_counts[2, 2])
    if side == 0:
        raise ValueError("no side-slot coincidences; cannot normalize")
    return float(mm / (side * 4.0 / 3.0))


# --- Hong-Ou-Mandel run ----------------------------------------------------

def simulate_hom_run(emitter: EmitterParams, analyzer: Interferometer,
                     mutual_visibility: float, detectors: DetectorModel,
                     cycles: int, seed) -> PhotonEvents:
    """HOM interference of consecutively emitted XX photons.

    Two excitation pulses per cycle, separated by the analyzer delay.  Each
    photon takes the short or long arm (1/2 each) and survives into the
    output port with probability 1/2.  When the first photon takes the long
    arm and the second the short arm they overlap at the beamsplitter: with
    probability `mutual_visibility` they bunch into the same output
    detector, suppressing coincidences in peak A.

    Pulse pairs are spaced two repetition periods apart (pulse picking) so
    the neighbouring-cycle coincidence cluster cannot leak into the
    outermost five-peak windows.  Counter-indexed: each stream is drawn at
    the counters of the cycles that read it, and no draw depends on another.
    The run is one pass over blocks of cycles (a pulse pair never spans
    two): each block's photons go to the detectors numbered by (cycle,
    pulse), so the only whole-run arrays are the detected clicks.
    """
    if not (0.0 <= mutual_visibility <= 1.0):
        raise ValueError("mutual_visibility must be in [0, 1]")
    d = analyzer.delay
    pair_period = 2.0 * emitter.rep_period

    def coin(stream, cyc, p):  # per cycle of `cyc`: is its uniform on `stream` below p
        return rng.below(rng.stream_seed(seed, stream), cyc, p)

    def pulse(on, s_exc, s_surv, s_path, s_det):  # emitted cycles, long arm?, detector 1?
        excited = on[coin(s_exc, on, emitter.p_emit_pi)]
        i = excited[coin(s_surv, excited, 0.5)]  # a photon reaches the output port
        return i, coin(s_path, i, 0.5), coin(s_det, i, 0.5)

    def block_photons(on):  # a block's photons: detector and time, by (cycle, pulse)
        i0, path0, det0 = pulse(on, Stream.HOM_EXC0, Stream.HOM_SURV0, Stream.HOM_PATH0,
                                Stream.HOM_DET0)
        i1, path1, det1 = pulse(on, Stream.HOM_EXC1, Stream.HOM_SURV1, Stream.HOM_PATH1,
                                Stream.HOM_DET1)
        overlap = np.intersect1d(i0[path0], i1[~path1], assume_unique=True)
        bunch = overlap[coin(Stream.HOM_BUNCH, overlap, mutual_visibility)]
        bunch_det = coin(Stream.HOM_BUNCH_DET, bunch, 0.5)
        det0[np.searchsorted(i0, bunch)] = bunch_det
        det1[np.searchsorted(i1, bunch)] = bunch_det
        # a cycle's pulse-0 photon comes after the pulse-1 photons of
        # earlier cycles, its pulse-1 photon after the pulse-0 photons
        # of this and earlier cycles
        at = (np.arange(len(i0)) + np.searchsorted(i1, i0),
              np.arange(len(i1)) + np.searchsorted(i0, i1, side="right"))
        ch = np.empty(len(i0) + len(i1), dtype=np.int8)
        tm = np.empty(len(ch))
        for s_exp, lead, i, path, det, pos in zip((Stream.HOM_EXP0, Stream.HOM_EXP1), (0.0, d),
                                                  (i0, i1), (path0, path1), (det0, det1), at):
            t = i * pair_period
            t += lead
            t += path * d
            t += rng.exponential(rng.stream_seed(seed, s_exp), i, emitter.tau_xx)
            ch[pos] = det
            tm[pos] = t
        return ch, tm

    photons = (block_photons(on) for on in on_cycle_blocks(emitter, seed, cycles))
    return _detect_blocks(photons, detectors, cycles * pair_period, seed)


# --- autocorrelation -------------------------------------------------------

def simulate_autocorrelation(emitter: EmitterParams, photon: str,
                             detectors: DetectorModel, cycles: int, seed) -> PhotonEvents:
    """Hanbury Brown-Twiss stream of one photon species split 50/50.

    One pass over the emission blocks: each block's photons take the split
    coin (`HBT_SPLIT`) and go to the detectors numbered in emission order, so
    the only whole-run arrays are the clicks.
    """
    if photon not in ("xx", "x"):
        raise ValueError("photon must be 'xx' or 'x'")
    r_split = rng.CounterRng(seed, Stream.HBT_SPLIT)
    photons = ((r_split.below(len(rec), 0.5).view(np.int8), getattr(rec, f"t_{photon}"))
               for rec in pair_emission_blocks(emitter, seed, cycles))
    return _detect_blocks(photons, detectors, cycles * emitter.rep_period, seed)


_POISSON_MAX_PER_PULSE = 12


def _poisson_cdf(mu: float) -> np.ndarray:
    """Poisson CDF at k = 0..12 for mean `mu`: running products of mu / j, then a running sum."""
    ratios = np.concatenate(([1.0], mu / np.arange(1, _POISSON_MAX_PER_PULSE + 1)))
    return np.cumsum(np.exp(-mu) * np.cumprod(ratios))


def simulate_poissonian_source(mean_photons: float, tau: float, rep_period: float,
                               detectors: DetectorModel, cycles: int, seed) -> PhotonEvents:
    """Pulsed laser-like reference source: Poisson photon number per pulse.

    Calibration anchor for g2 extraction (expected g2(0) = 1).  The photon
    number distribution is truncated at 12 per pulse (negligible tail for
    the sub-photon means used here).
    """
    if not mean_photons >= 0.0:
        raise ValueError("mean_photons must be non-negative")
    cdf = _poisson_cdf(mean_photons)
    r_n = rng.CounterRng(seed, Stream.POISSONIAN_N)
    n = np.searchsorted(cdf, r_n.uniform(cycles), side="left")
    total = int(n.sum())
    cyc = np.repeat(np.arange(cycles), n)
    r_t = rng.CounterRng(seed, Stream.POISSONIAN_T)
    r_split = rng.CounterRng(seed, Stream.POISSONIAN_SPLIT)
    tm = cyc * rep_period + r_t.exponential(total, tau)
    ch = (r_split.uniform(total) < 0.5).astype(np.int8)
    return _detect(ch, tm, detectors, cycles * rep_period, seed)
