"""In-process workloads: calls into tbsim's public API, and their checks.

A workload function takes the seed and returns (operations, results,
check). Operations are (name, callable) pairs, run in order by the
worker; each result is stored under its name. `check()` runs after the
timed section and returns a list of errors.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
from reference import REP

# ------------------------------------------------------------ blinking-g2

BLINK_CYCLES = 100_000   # long-range HBT stream: about 7 M pairs binned
DEAD_CYCLES = 100_000    # stream through the detector with dead time
DEAD_TIME_PS = 8000.0    # non-zero, shorter than one repetition period
POISSON_CYCLES = 100_000
G2_TARGET = 0.016
# Clicks at 0 and one ulp below the top edge of a +-250 ns, 500 ps histogram.
TOP_EDGE_PS = float(np.nextafter(250250.0, -np.inf))
TOP_EDGE_OP = "top_edge_histogram"


def blinking_g2(seed):
    from tbsim import fitting, optics
    from tbsim.cascade import EmitterParams, two_pair_prob_for_g2

    base = EmitterParams()
    em = EmitterParams(two_pair_prob=two_pair_prob_for_g2(G2_TARGET, base))
    ideal = optics.DetectorModel.ideal()
    detector = dict(efficiency=1.0, dark_count_rate=100.0, jitter_sigma=6.794)
    dead = optics.DetectorModel(dead_time=DEAD_TIME_PS, **detector)
    edge = optics.PhotonEvents(np.array([0, 1], dtype=np.int8),
                               np.array([0.0, TOP_EDGE_PS]))
    r = {}
    ops = [
        ("autocorrelation", lambda: optics.simulate_autocorrelation(
            em, "xx", ideal, BLINK_CYCLES, seed)),
        ("histogram", lambda: optics.histogram_events(
            r["autocorrelation"], 0, 1, bin_width=REP / 25.0, max_delay=800.5 * REP)),
        ("g2_zero", lambda: fitting.g2_zero(r["histogram"], REP)),
        ("blinking_factor", lambda: fitting.blinking_factor(r["histogram"], REP)),
        ("dead_time_stream", lambda: optics.simulate_autocorrelation(
            em, "xx", dead, DEAD_CYCLES, seed + 1)),
        ("poissonian", lambda: optics.simulate_poissonian_source(
            0.2, 300.0, REP, ideal, POISSON_CYCLES, seed + 2)),
        ("poissonian_histogram", lambda: optics.histogram_events(
            r["poissonian"], 0, 1, bin_width=REP / 25.0, max_delay=20.5 * REP)),
        ("poissonian_g2", lambda: fitting.g2_zero(r["poissonian_histogram"], REP)),
        (TOP_EDGE_OP, lambda: optics.histogram_events(
            edge, 0, 1, bin_width=500.0, max_delay=250000.0)),
    ]

    def check():
        err = []
        hist = r["histogram"]
        ev = r["autocorrelation"]
        lo = hist.origin
        n_pairs = ref.pairs_in_range(ev.on_channel(0), ev.on_channel(1),
                                     lo, lo + hist.bin_width * len(hist.counts))
        if hist.total() != n_pairs:
            err.append(f"histogram total {hist.total()} != {n_pairs} pairs in range")

        f, mean_on = base.blinking_on_fraction, base.blinking_mean_on_cycles
        far = ref.peak_areas(hist, ref.far_peaks(hist))
        near = ref.peak_areas(hist, [-1, 1])
        b_expect = ref.expected_blinking_factor(f, mean_on, hist)
        # Poisson noise of the peak areas plus the scatter of the realised
        # ON fraction of a finite telegraph stream (0.019 at 100k cycles)
        sigma = b_expect * math.hypot(
            math.sqrt(1.0 / near.sum() + 1.0 / far.sum()),
            ref.on_fraction_sd(f, mean_on, BLINK_CYCLES) / f)
        ref.check_near(err, "blinking factor", r["blinking_factor"], b_expect, sigma)
        g2_expect = ref.expected_g2(G2_TARGET, f, mean_on, hist)
        ref.check_near(err, "g2(0)", r["g2_zero"][0], g2_expect,
                       math.sqrt(g2_expect / far.mean()))
        g2p, sigma_p = r["poissonian_g2"]
        ref.check_near(err, "Poissonian g2(0)", g2p, 1.0, sigma_p)

        # The same stream without dead time, filtered here.
        raw = optics.simulate_autocorrelation(
            em, "xx", optics.DetectorModel(**detector), DEAD_CYCLES, seed + 1)
        for ch in (0, 1):
            want = ref.greedy_dead_time(raw.on_channel(ch), DEAD_TIME_PS)
            got = r["dead_time_stream"].on_channel(ch)
            if not np.array_equal(got, want):
                err.append(f"dead-time channel {ch}: {len(got)} clicks kept, "
                           f"greedy filter keeps {len(want)}")
        if TOP_EDGE_OP in r:  # the top-edge fault has been mended
            c = r[TOP_EDGE_OP].counts
            if c.sum() > 1 or c[:-1].sum() != 0:
                err.append(f"top-edge pair binned at {np.flatnonzero(c).tolist()}")
        return err

    return ops, r, check


# ----------------------------------------------------------------- tomo-mc

# (visibility V, pump phase phi) of the generated time-bin states
TOMO_STATES = ((0.5, math.pi / 2.0), (0.6, math.pi), (0.7, 0.0),
               (0.8, 0.75 * math.pi), (0.9, math.pi / 4.0))
# (cycles per setting, efficiency product): about 1e2 and 1e6 counts per setting
TOMO_LEVELS = {"low": (50_000, 0.00625), "high": (4_000_000, 1.0)}
MC_RUNS = 50


def tomo_mc(seed):
    from tbsim import optics, tomo

    r = {}
    ops = []
    for i, (v, phi) in enumerate(TOMO_STATES):
        rho = optics.ideal_timebin_density(optics.TimebinStateModel(v, phi))
        for j, (level, (cycles, eff)) in enumerate(TOMO_LEVELS.items()):
            s = seed * 100 + 2 * i + j
            ops.append((f"counts {i} {level}", lambda rho=rho, c=cycles, e=eff, s=s:
                        tomo.simulate_counts(rho, c, e, s)))
            ops.append((f"reconstruct {i} {level}", lambda k=f"counts {i} {level}", s=s:
                        tomo.reconstruct(r[k], mc_runs=MC_RUNS, seed=s)))

    def check():
        err = []
        for i, (v, phi) in enumerate(TOMO_STATES):
            sigma_c = {}
            for level in TOMO_LEVELS:
                name = f"V={v} phi={phi:.3f} {level}"
                res = r[f"reconstruct {i} {level}"]
                counts = r[f"counts {i} {level}"].counts.astype(float)
                rho = res.rho.matrix
                err += [f"{name}: rho {e}" for e in ref.density_matrix_errors(rho)]
                c, f = ref.concurrence(rho), ref.bell_fidelity(rho)
                f_true = 0.5 * (1.0 + v * math.cos(phi))
                if abs(c - res.concurrence) > 1e-9 or abs(f - res.fidelity) > 1e-9:
                    err.append(f"{name}: reported C, F {res.concurrence}, {res.fidelity} "
                               f"are not those of rho: {c}, {f}")
                ref.check_near(err, f"{name}: C", c, v, res.concurrence_err)
                ref.check_near(err, f"{name}: F", f, f_true, res.fidelity_err)
                ll_mle = ref.log_likelihood(counts, rho)
                start = ref.projected_linear_inversion(counts)
                ll_start = ref.log_likelihood(counts, start)
                if ll_mle < ll_start - 1e-9 * abs(ll_start):
                    err.append(f"{name}: MLE log-likelihood {ll_mle} below that of "
                               f"its linear-inversion start {ll_start}")
                sigma_c[level] = res.concurrence_err
            if not sigma_c["high"] < sigma_c["low"]:
                err.append(f"V={v}: sigma_C {sigma_c} does not shrink with statistics")
        return err

    return ops, r, check


WORKLOADS = {"blinking-g2": blinking_g2, "tomo-mc": tomo_mc}
