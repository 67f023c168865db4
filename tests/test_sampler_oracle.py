"""The cycle-indexed samplers against their full-draw originals, and their memory.

`sample_pair_emission` and `simulate_hom_run` draw each stream only at the
cycles that read it. The reference implementations below are the former
versions, which drew every stream at every cycle and masked the draws down.
Both read the same (stream, counter) draws, so their outputs must be equal
array for array.
"""

import dataclasses
import itertools
import os
import tracemalloc

import numpy as np

from tbsim import rng
from tbsim.cascade import (_S_EXCITE, _S_EXP_X, _S_EXP_X_EXTRA, _S_EXP_XX,
                           _S_EXP_XX_EXTRA, _S_TWO_PAIR, EmissionRecords,
                           EmitterParams, blinking_telegraph, merge_records,
                           sample_pair_emission, two_pair_prob_for_g2)
from tbsim.config import RunConfig
from tbsim.optics import (_H_BUNCH, _H_BUNCH_DET, _H_DET0, _H_DET1, _H_EXC0,
                          _H_EXC1, _H_EXP0, _H_EXP1, _H_PATH0, _H_PATH1,
                          _H_SURV0, _H_SURV1, DetectorModel, Interferometer,
                          _detect, simulate_autocorrelation, simulate_hom_run)

# --- reference implementations: the full-draw samplers, verbatim ------------


def full_draw_sample_pair_emission(params: EmitterParams, seed, cycles: int) -> EmissionRecords:
    if cycles == 0:
        return EmissionRecords()

    on = blinking_telegraph(
        params.blinking_on_fraction, params.blinking_mean_on_cycles, seed, cycles
    ).astype(bool)

    counters = np.arange(cycles, dtype=np.uint64)
    u_exc = rng.uniform(rng.stream_seed(seed, _S_EXCITE), counters)
    u_two = rng.uniform(rng.stream_seed(seed, _S_TWO_PAIR), counters)
    e_xx = rng.exponential(rng.stream_seed(seed, _S_EXP_XX), counters, params.tau_xx)
    e_x = rng.exponential(rng.stream_seed(seed, _S_EXP_X), counters, params.tau_x)
    e_xx2 = rng.exponential(rng.stream_seed(seed, _S_EXP_XX_EXTRA), counters, params.tau_xx)
    e_x2 = rng.exponential(rng.stream_seed(seed, _S_EXP_X_EXTRA), counters, params.tau_x)

    cyc = np.arange(cycles, dtype=np.int64)
    excited = on & (u_exc < params.p_emit_pi)
    extra = excited & (u_two < params.two_pair_prob)
    pulse_abs = cyc * params.rep_period

    def pick(mask, exx, ex):
        t_xx = pulse_abs[mask] + exx[mask]
        return EmissionRecords(cycle=cyc[mask], t_xx=t_xx, t_x=t_xx + ex[mask])

    primary = pick(excited, e_xx, e_x)
    if not np.any(extra):
        return primary
    second = pick(extra, e_xx2, e_x2)
    return merge_records(primary, second)


def full_draw_simulate_hom_run(emitter: EmitterParams, analyzer: Interferometer,
                               mutual_visibility: float, detectors: DetectorModel,
                               cycles: int, seed):
    if not (0.0 <= mutual_visibility <= 1.0):
        raise ValueError("mutual_visibility must be in [0, 1]")
    d = analyzer.delay
    on = blinking_telegraph(emitter.blinking_on_fraction,
                            emitter.blinking_mean_on_cycles, seed, cycles).astype(bool)
    c = np.arange(cycles, dtype=np.uint64)
    u = {s: rng.uniform(rng.stream_seed(seed, s), c)
         for s in (_H_EXC0, _H_EXC1, _H_PATH0, _H_PATH1, _H_SURV0, _H_SURV1,
                   _H_BUNCH, _H_DET0, _H_DET1, _H_BUNCH_DET)}
    e0 = rng.exponential(rng.stream_seed(seed, _H_EXP0), c, emitter.tau_xx)
    e1 = rng.exponential(rng.stream_seed(seed, _H_EXP1), c, emitter.tau_xx)

    emit0 = on & (u[_H_EXC0] < emitter.p_emit_pi) & (u[_H_SURV0] < 0.5)
    emit1 = on & (u[_H_EXC1] < emitter.p_emit_pi) & (u[_H_SURV1] < 0.5)
    path0 = (u[_H_PATH0] < 0.5).astype(np.int8)
    path1 = (u[_H_PATH1] < 0.5).astype(np.int8)

    overlap = emit0 & emit1 & (path0 == 1) & (path1 == 0)
    bunch = overlap & (u[_H_BUNCH] < mutual_visibility)

    det0 = (u[_H_DET0] < 0.5).astype(np.int8)
    det1 = (u[_H_DET1] < 0.5).astype(np.int8)
    bunch_det = (u[_H_BUNCH_DET] < 0.5).astype(np.int8)
    det0 = np.where(bunch, bunch_det, det0)
    det1 = np.where(bunch, bunch_det, det1)

    pair_period = 2.0 * emitter.rep_period
    cyc_t = np.arange(cycles) * pair_period
    t0 = cyc_t[emit0] + path0[emit0] * d + e0[emit0]
    t1 = cyc_t[emit1] + d + path1[emit1] * d + e1[emit1]

    raw_ch = np.concatenate([det0[emit0], det1[emit1]])
    raw_tm = np.concatenate([t0, t1])
    return _detect(raw_ch, raw_tm, detectors, cycles * pair_period, seed)


# --- equivalence over an edge grid --------------------------------------------

ON_FRACTIONS = (1.0, 0.625, 0.3)  # 1 takes the telegraph's all-ON shortcut
P_EMIT = (1.0, 0.65)
TWO_PAIR = (0.0, 0.05)
MUTUAL_V = (0.0, 0.482, 1.0)
CYCLES = (0, 1, 257, 20_000)
DETECTORS = (DetectorModel.ideal(),
             DetectorModel(efficiency=0.5, dark_count_rate=1e5, jitter_sigma=20.0))


def _emitters():
    for i, (f, p, p2) in enumerate(itertools.product(ON_FRACTIONS, P_EMIT, TWO_PAIR)):
        yield 1000 + i, EmitterParams(blinking_on_fraction=f, p_emit_pi=p, two_pair_prob=p2)


def test_sample_pair_emission_equals_full_draw():
    for seed, em in _emitters():
        for cycles in CYCLES:
            got = sample_pair_emission(em, seed, cycles)
            want = full_draw_sample_pair_emission(em, seed, cycles)
            label = f"{em}, cycles={cycles}, seed={seed}"
            for name in ("cycle", "t_xx", "t_x"):
                g, w = getattr(got, name), getattr(want, name)
                assert g.dtype == w.dtype, (name, label)
                assert np.array_equal(g, w), (name, label)


def test_simulate_hom_run_equals_full_draw():
    analyzer = Interferometer(delay=3000.0)
    for seed, em in _emitters():
        for v, cycles, det in itertools.product(MUTUAL_V, CYCLES, DETECTORS):
            got = simulate_hom_run(em, analyzer, v, det, cycles, seed)
            want = full_draw_simulate_hom_run(em, analyzer, v, det, cycles, seed)
            label = f"{em}, V={v}, cycles={cycles}, {det}, seed={seed}"
            for name in ("channel", "time"):
                g, w = getattr(got, name), getattr(want, name)
                assert g.dtype == w.dtype, (name, label)
                assert np.array_equal(g, w), (name, label)


# --- memory: what a run holds per cycle ---------------------------------------

_MEMORY_CYCLES = 100_000
_MAX_BYTES_PER_CYCLE = 48


def _baseline():
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    return RunConfig.from_file(os.path.join(root, "baseline.cfg"))


def _peak_bytes_per_cycle(fn):
    """tracemalloc's peak over one call, per cycle; it counts numpy's data buffers."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / _MEMORY_CYCLES


def test_hom_run_memory_per_cycle():
    cfg = _baseline()
    per_cycle = _peak_bytes_per_cycle(lambda: simulate_hom_run(
        cfg.emitter, cfg.analyzer_xx, cfg.hom_mutual_visibility, cfg.detectors,
        _MEMORY_CYCLES, cfg.seed))
    assert per_cycle <= _MAX_BYTES_PER_CYCLE, f"{per_cycle:.1f} B/cycle"


def test_autocorrelation_memory_per_cycle():
    cfg = _baseline()
    emitter = dataclasses.replace(
        cfg.emitter, two_pair_prob=two_pair_prob_for_g2(cfg.autocorr_g2_target, cfg.emitter))
    per_cycle = _peak_bytes_per_cycle(lambda: simulate_autocorrelation(
        emitter, cfg.autocorr_photon, cfg.detectors, _MEMORY_CYCLES, cfg.seed))
    assert per_cycle <= _MAX_BYTES_PER_CYCLE, f"{per_cycle:.1f} B/cycle"
