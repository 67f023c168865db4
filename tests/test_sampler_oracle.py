"""The cycle-indexed samplers against their full-draw originals, and their memory.

`sample_pair_emission` and `simulate_hom_run` draw each stream only at the
cycles that read it, one block of `rng.BLOCK` cycles at a time, and
`simulate_hom_run` and `simulate_autocorrelation` are one pass over those
blocks, each block's photons going to the detectors before the next. The
reference implementations below step the telegraph over the whole run in
one call, draw every stream at every cycle, mask the draws down, number
the photons by cycle and then by slot (the pair stream's second pair, the
HOM photons' pulse) with plain NumPy, and detect them all in one call. Both
read the same (stream, counter) draws, so their outputs must be equal array
for array, for any block size. A block of the pair stream holds only the
records of its own cycles.
"""

import dataclasses
import itertools
import os
import tracemalloc

import numpy as np
import pytest

from tbsim import cascade, rng
from tbsim.cascade import (EmissionRecords, EmitterParams, blinking_telegraph,
                           pair_emission_blocks, sample_pair_emission, two_pair_prob_for_g2)
from tbsim.cli import main
from tbsim.config import RunConfig
from tbsim.kernels import dead_time_mask, telegraph
from tbsim.optics import (DetectorModel, Interferometer, PhotonEvents, _detect,
                          simulate_autocorrelation, simulate_hom_run)
from tbsim.rng import Stream

# --- reference implementations: the full-draw samplers, verbatim ------------


def whole_run_telegraph(on_fraction: float, mean_on_duration: float, seed,
                        cycles: int) -> np.ndarray:
    if not (0.0 < on_fraction <= 1.0):
        raise ValueError("on_fraction must be in (0, 1]")
    if on_fraction == 1.0:
        return np.ones(cycles, dtype=np.int8)
    p_on_off = 1.0 / mean_on_duration
    p_off_on = on_fraction * p_on_off / (1.0 - on_fraction)
    if p_off_on > 1.0:
        raise ValueError(
            f"on_fraction {on_fraction} with mean ON duration {mean_on_duration} "
            "implies an OFF dwell shorter than one cycle"
        )
    u_init = rng.uniform(rng.stream_seed(seed, Stream.TELEGRAPH_INIT), [0])[0]
    start_on = bool(u_init < on_fraction)
    us = rng.uniform(rng.stream_seed(seed, Stream.TELEGRAPH), np.arange(cycles, dtype=np.uint64))
    return telegraph(us, p_on_off, p_off_on, start_on)


def full_draw_sample_pair_emission(params: EmitterParams, seed, cycles: int) -> EmissionRecords:
    if cycles == 0:
        return EmissionRecords()

    on = whole_run_telegraph(
        params.blinking_on_fraction, params.blinking_mean_on_cycles, seed, cycles
    ).astype(bool)

    counters = np.arange(cycles, dtype=np.uint64)
    u_exc = rng.uniform(rng.stream_seed(seed, Stream.EXCITE), counters)
    u_two = rng.uniform(rng.stream_seed(seed, Stream.TWO_PAIR), counters)
    e_xx = rng.exponential(rng.stream_seed(seed, Stream.EXP_XX), counters, params.tau_xx)
    e_x = rng.exponential(rng.stream_seed(seed, Stream.EXP_X), counters, params.tau_x)
    e_xx2 = rng.exponential(rng.stream_seed(seed, Stream.EXP_XX_EXTRA), counters, params.tau_xx)
    e_x2 = rng.exponential(rng.stream_seed(seed, Stream.EXP_X_EXTRA), counters, params.tau_x)

    cyc = np.arange(cycles, dtype=np.int64)
    excited = on & (u_exc < params.p_emit_pi)
    extra = excited & (u_two < params.two_pair_prob)
    pulse_abs = cyc * params.rep_period

    def pick(mask, exx, ex):
        t_xx = pulse_abs[mask] + exx[mask]
        return cyc[mask], t_xx, t_xx + ex[mask]

    first, second = pick(excited, e_xx, e_x), pick(extra, e_xx2, e_x2)
    order = np.argsort(np.concatenate([2 * first[0], 2 * second[0] + 1]))
    return EmissionRecords(*(np.concatenate([a, b])[order] for a, b in zip(first, second)))


def full_draw_simulate_hom_run(emitter: EmitterParams, analyzer: Interferometer,
                               mutual_visibility: float, detectors: DetectorModel,
                               cycles: int, seed):
    if not (0.0 <= mutual_visibility <= 1.0):
        raise ValueError("mutual_visibility must be in [0, 1]")
    d = analyzer.delay
    on = whole_run_telegraph(emitter.blinking_on_fraction,
                             emitter.blinking_mean_on_cycles, seed, cycles).astype(bool)
    c = np.arange(cycles, dtype=np.uint64)
    u = {s: rng.uniform(rng.stream_seed(seed, s), c)
         for s in (Stream.HOM_EXC0, Stream.HOM_EXC1, Stream.HOM_PATH0, Stream.HOM_PATH1,
                   Stream.HOM_SURV0, Stream.HOM_SURV1, Stream.HOM_BUNCH, Stream.HOM_DET0,
                   Stream.HOM_DET1, Stream.HOM_BUNCH_DET)}
    e0 = rng.exponential(rng.stream_seed(seed, Stream.HOM_EXP0), c, emitter.tau_xx)
    e1 = rng.exponential(rng.stream_seed(seed, Stream.HOM_EXP1), c, emitter.tau_xx)

    emit0 = on & (u[Stream.HOM_EXC0] < emitter.p_emit_pi) & (u[Stream.HOM_SURV0] < 0.5)
    emit1 = on & (u[Stream.HOM_EXC1] < emitter.p_emit_pi) & (u[Stream.HOM_SURV1] < 0.5)
    path0 = (u[Stream.HOM_PATH0] < 0.5).astype(np.int8)
    path1 = (u[Stream.HOM_PATH1] < 0.5).astype(np.int8)

    overlap = emit0 & emit1 & (path0 == 1) & (path1 == 0)
    bunch = overlap & (u[Stream.HOM_BUNCH] < mutual_visibility)

    det0 = (u[Stream.HOM_DET0] < 0.5).astype(np.int8)
    det1 = (u[Stream.HOM_DET1] < 0.5).astype(np.int8)
    bunch_det = (u[Stream.HOM_BUNCH_DET] < 0.5).astype(np.int8)
    det0 = np.where(bunch, bunch_det, det0)
    det1 = np.where(bunch, bunch_det, det1)

    pair_period = 2.0 * emitter.rep_period
    cyc_t = np.arange(cycles) * pair_period
    t0 = cyc_t[emit0] + path0[emit0] * d + e0[emit0]
    t1 = cyc_t[emit1] + d + path1[emit1] * d + e1[emit1]

    cyc = np.arange(cycles)
    order = np.argsort(np.concatenate([2 * cyc[emit0], 2 * cyc[emit1] + 1]))
    raw_ch = np.concatenate([det0[emit0], det1[emit1]])[order]
    raw_tm = np.concatenate([t0, t1])[order]
    return _detect(raw_ch, raw_tm, detectors, cycles * pair_period, seed)


def whole_run_detect(raw_channel: np.ndarray, raw_time: np.ndarray, detectors: DetectorModel,
                     duration: float, seed) -> PhotonEvents:
    r_eff = rng.CounterRng(seed, 100)
    r_jit = rng.CounterRng(seed, 101)
    r_dark = rng.CounterRng(seed, 102)

    keep = r_eff.below(len(raw_time), detectors.efficiency)
    ch = raw_channel[keep]
    tm = raw_time[keep]
    if detectors.jitter_sigma > 0 and len(tm):
        tm += r_jit.normal(len(tm), detectors.jitter_sigma)

    mean_dark = detectors.dark_count_rate * duration * 1e-12
    if mean_dark > 0:
        n_dark = r_dark.poisson(np.full(2, mean_dark))
        dark_ch = np.repeat(np.arange(2, dtype=np.int8), n_dark)
        dark_tm = r_dark.uniform(int(n_dark.sum())) * duration
        ch = np.concatenate([ch, dark_ch])
        tm = np.concatenate([tm, dark_tm])

    order = np.argsort(tm, kind="stable")
    ch, tm = ch[order], tm[order]

    if detectors.dead_time > 0:
        keep = np.zeros(len(tm), dtype=bool)
        for c in range(2):
            sel = ch == c
            keep[sel] = dead_time_mask(tm[sel], detectors.dead_time)
        ch, tm = ch[keep], tm[keep]
    return PhotonEvents(ch.astype(np.int8), tm)


def whole_run_simulate_autocorrelation(emitter: EmitterParams, photon: str,
                                       detectors: DetectorModel, cycles: int, seed):
    if photon not in ("xx", "x"):
        raise ValueError("photon must be 'xx' or 'x'")
    # only the detected photon's times outlive the records
    tm = getattr(full_draw_sample_pair_emission(emitter, seed, cycles), f"t_{photon}")
    ch = rng.CounterRng(seed, 40).below(len(tm), 0.5).view(np.int8)
    return whole_run_detect(ch, tm, detectors, cycles * emitter.rep_period, seed)


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


# --- block edges ---------------------------------------------------------------
# Every count above is below one block of rng.BLOCK cycles. With small blocks,
# runs cross many block edges, and the telegraph's state crosses each.

BLOCKS = (1, 7, 64)


def _straddling(block):
    return sorted({0, 1, block - 1, block, block + 1, 5 * block + 3, 40 * block + 5})


@pytest.mark.parametrize("block", BLOCKS)
def test_blocked_telegraph_equals_one_whole_run_call(monkeypatch, block):
    monkeypatch.setattr(rng, "BLOCK", block)
    for f, mean_on, seed in itertools.product((1.0, 0.625, 0.3), (3.0, 200.0), (5, 77)):
        for cycles in _straddling(block):
            got = blinking_telegraph(f, mean_on, seed, cycles)
            want = whole_run_telegraph(f, mean_on, seed, cycles)
            assert got.dtype == want.dtype and np.array_equal(got, want), (f, mean_on, cycles)


@pytest.mark.parametrize("block", BLOCKS)
def test_blocked_coins_equal_whole_run_coins(block):
    counters = np.arange(3, 3 + 10 * block + 4) ** 2
    for p in (0.0, 0.25, 0.5, 1.0):
        assert np.array_equal(rng.below(9, counters, p), rng.uniform(9, counters) < p)
        r, want = rng.CounterRng(9, 3), rng.CounterRng(9, 3)
        for n in (0, 1, block + 1, 3 * block):
            assert np.array_equal(r.below(n, p), want.uniform(n) < p)
        assert r.counter == want.counter


@pytest.mark.parametrize("block", BLOCKS)
def test_samplers_equal_full_draw_across_block_edges(monkeypatch, block):
    monkeypatch.setattr(rng, "BLOCK", block)
    analyzer = Interferometer(delay=3000.0)
    det = DETECTORS[1]  # below efficiency 1, its coins cross block edges too
    for seed, em in _emitters():
        em = dataclasses.replace(em, blinking_mean_on_cycles=3.0)  # many flips per block
        for cycles in _straddling(block):
            got = sample_pair_emission(em, seed, cycles)
            want = full_draw_sample_pair_emission(em, seed, cycles)
            for name in ("cycle", "t_xx", "t_x"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (name, em, cycles)
            for v in MUTUAL_V:
                got = simulate_hom_run(em, analyzer, v, det, cycles, seed)
                want = full_draw_simulate_hom_run(em, analyzer, v, det, cycles, seed)
                for name in ("channel", "time"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), \
                        (name, em, v, det, cycles)


# Emissions that cross block edges: lifetimes of several periods, and second
# pairs whose t_xx may come before the first pair's; a detector below
# efficiency 1, with dark counts and dead time.
_LATE_EMITTERS = (
    EmitterParams(tau_xx=3.5 * 12500.0, tau_x=2.0 * 12500.0, two_pair_prob=0.3,
                  blinking_mean_on_cycles=3.0),
    EmitterParams(tau_xx=3.5 * 12500.0, tau_x=300.0, two_pair_prob=0.0),
    EmitterParams(tau_xx=9000.0, two_pair_prob=0.002, blinking_on_fraction=0.3,
                  blinking_mean_on_cycles=3.0),
)
_BUSY_DETECTOR = DetectorModel(efficiency=0.5, dark_count_rate=2e6, jitter_sigma=20.0,
                               dead_time=8000.0)


@pytest.mark.parametrize("block", BLOCKS)
def test_autocorrelation_equals_whole_run_across_block_edges(monkeypatch, block):
    monkeypatch.setattr(rng, "BLOCK", block)
    for (seed, em), det, photon in itertools.product(
            enumerate(_LATE_EMITTERS, 300), (_BUSY_DETECTOR, DETECTORS[1]), ("xx", "x")):
        for cycles in _straddling(block):
            got = simulate_autocorrelation(em, photon, det, cycles, seed)
            want = whole_run_simulate_autocorrelation(em, photon, det, cycles, seed)
            for name in ("channel", "time"):
                g, w = getattr(got, name), getattr(want, name)
                assert g.dtype == w.dtype and np.array_equal(g, w), (name, em, det, cycles)
            got = sample_pair_emission(em, seed, cycles)
            want = full_draw_sample_pair_emission(em, seed, cycles)
            for name in ("cycle", "t_xx", "t_x"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (name, em, cycles)


@pytest.mark.parametrize("block", BLOCKS)
def test_pair_blocks_hold_only_their_own_cycles(monkeypatch, block):
    monkeypatch.setattr(rng, "BLOCK", block)
    for (seed, em), cycles in itertools.product(enumerate(_LATE_EMITTERS, 300),
                                                _straddling(block)):
        blocks = list(pair_emission_blocks(em, seed, cycles))
        assert len(blocks) == -(-cycles // block), (em, cycles)
        for k, rec in enumerate(blocks):
            assert np.all(rec.cycle // block == k), (em, cycles, k)


def test_pair_stream_is_ordered_by_cycle():
    emitters = [em for _, em in _emitters()] + list(_LATE_EMITTERS)
    for (seed, em), cycles in itertools.product(enumerate(emitters, 400), CYCLES):
        cycle = sample_pair_emission(em, seed, cycles).cycle
        # in order, and at most two pairs in a cycle
        assert np.all(cycle[1:] >= cycle[:-1]) and np.all(cycle[2:] > cycle[:-2]), (em, cycles)


def test_runs_step_the_telegraph_once_per_cycle(monkeypatch):
    block = 7
    monkeypatch.setattr(rng, "BLOCK", block)
    steps = []

    def counted(uniforms, *args):
        steps.append(len(uniforms))
        return telegraph(uniforms, *args)

    monkeypatch.setattr(cascade, "telegraph", counted)
    em = EmitterParams(two_pair_prob=0.3, blinking_mean_on_cycles=3.0)
    for cycles in _straddling(block):
        edges = max(0, -(-cycles // block) - 1)  # each but the last block steps one past it
        runs = {"hom": lambda: simulate_hom_run(em, Interferometer(), 0.482, DETECTORS[1],
                                                cycles, 5),
                "autocorr": lambda: simulate_autocorrelation(em, "xx", DETECTORS[1], cycles, 5)}
        for name, run in runs.items():
            steps.clear()
            run()
            assert sum(steps) == cycles + edges, (name, cycles)


def test_detect_equals_whole_run_detect():
    times = np.random.default_rng(5).uniform(0.0, 1e7, 3000)
    channels = (times * 7 % 2).astype(np.int8)
    for det in (*DETECTORS, _BUSY_DETECTOR):
        got = _detect(channels, times.copy(), det, 1e7, 11)
        want = whole_run_detect(channels, times.copy(), det, 1e7, 11)
        assert np.array_equal(got.channel, want.channel) and np.array_equal(got.time, want.time)


@pytest.mark.parametrize("jitter", ("6.794", "0"))
def test_lifetime_file_equals_across_block_sizes(monkeypatch, tmp_path, jitter):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 3\nlifetime.counts = 700\ndetector.jitter_sigma_ps = {jitter}\n")
    files = []
    for block in (rng.BLOCK, 1, 7, 64):
        monkeypatch.setattr(rng, "BLOCK", block)
        out = tmp_path / f"b{block}"
        assert main(["simulate", "lifetime", "--config", str(cfg), "--out", str(out)]) == 0
        files.append((out / "lifetime_hist.csv").read_bytes())
    assert all(f == files[0] for f in files[1:])


# --- memory: what a run holds per cycle ---------------------------------------

_MEMORY_CYCLES = 100_000
_MAX_BYTES_PER_CYCLE = 48


def _baseline():
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    return RunConfig.from_file(os.path.join(root, "baseline.cfg"))


def _peak_bytes_per_cycle(fn, cycles=_MEMORY_CYCLES):
    """tracemalloc's peak over one call, per cycle; it counts numpy's data buffers."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / cycles


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


# With detection's per-photon stage in blocks too, only the detected clicks
# span the run: 2.7 (HOM) and 3.0 (autocorrelation) B/cycle at this count
# (0.1 clicks per cycle), against 11 and 16.5 with whole-run photon arrays.
# `simulate lifetime` bins one block of counts at a time: 1.9 B per count,
# all of it the block's arrays, against 48.
_LONG_RUN_CYCLES = 1_000_000
_MAX_LONG_RUN_BYTES_PER_CYCLE = 3.3


def test_long_runs_hold_only_per_photon_arrays(tmp_path):
    cfg = _baseline()
    emitter = dataclasses.replace(
        cfg.emitter, two_pair_prob=two_pair_prob_for_g2(cfg.autocorr_g2_target, cfg.emitter))
    lifetime_cfg = tmp_path / "lifetime.cfg"
    lifetime_cfg.write_text(f"seed = {cfg.seed}\nlifetime.counts = {_LONG_RUN_CYCLES}\n")
    runs = {
        "simulate_hom_run": lambda: simulate_hom_run(
            cfg.emitter, cfg.analyzer_xx, cfg.hom_mutual_visibility, cfg.detectors,
            _LONG_RUN_CYCLES, cfg.seed),
        "simulate_autocorrelation": lambda: simulate_autocorrelation(
            emitter, cfg.autocorr_photon, cfg.detectors, _LONG_RUN_CYCLES, cfg.seed),
        "simulate lifetime": lambda: main([
            "simulate", "lifetime", "--config", str(lifetime_cfg), "--out", str(tmp_path)]),
    }
    for name, run in runs.items():
        per_cycle = _peak_bytes_per_cycle(run, _LONG_RUN_CYCLES)
        assert per_cycle <= _MAX_LONG_RUN_BYTES_PER_CYCLE, f"{name}: {per_cycle:.1f} B/cycle"
