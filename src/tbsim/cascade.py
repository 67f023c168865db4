"""Stochastic model of the quantum-dot biexciton-exciton cascade.

Pulsed two-photon resonant excitation with Rabi-oscillation emission
probability, exponential emission-time sampling for the XX -> X -> ground
cascade, telegraph blinking, and residual second-pair events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .kernels import telegraph
from .rng import Stream


@dataclass(frozen=True)
class EmitterParams:
    """Quantum-dot emitter parameters (times in ps)."""

    tau_xx: float = 300.0
    tau_x: float = 468.0
    blinking_on_fraction: float = 0.625
    p_emit_pi: float = 0.65
    two_pair_prob: float = 0.0
    rep_period: float = 12500.0
    blinking_mean_on_cycles: float = 200.0

    def __post_init__(self):
        if not all(0 < t < np.inf for t in (self.tau_xx, self.tau_x, self.rep_period)):
            raise ValueError("lifetimes and repetition period must be positive and finite")
        if not (0.0 < self.blinking_on_fraction <= 1.0):
            raise ValueError("blinking_on_fraction must be in (0, 1]")
        if not (0.0 < self.p_emit_pi <= 1.0):
            raise ValueError("p_emit_pi must be in (0, 1]")
        if not (0.0 <= self.two_pair_prob < 1.0):
            raise ValueError("two_pair_prob must be in [0, 1)")
        if not 1.0 <= self.blinking_mean_on_cycles < np.inf:
            raise ValueError("blinking_mean_on_cycles must be finite and >= 1")


@dataclass
class EmissionRecords:
    """Column-wise stream of cascade emission events."""

    cycle: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    t_xx: np.ndarray = field(default_factory=lambda: np.empty(0))
    t_x: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __len__(self) -> int:
        return len(self.cycle)


def two_photon_rabi_population(area: float, damping: float) -> float:
    """Biexciton population after a pulse of the given area."""
    area = np.asarray(area, dtype=float)
    if np.any(area < 0):
        raise ValueError("pulse area must be non-negative")
    return damping * np.sin(area / 2.0) ** 2


def _telegraph_blocks(on_fraction: float, mean_on_duration: float, seed, cycles: int):
    """The blinking chain's per-cycle int8 states, one block of `rng.BLOCK` cycles at a time.

    Each block but the last steps one cycle past its end; the state there
    starts the next block.
    """
    if not (0.0 < on_fraction <= 1.0):
        raise ValueError("on_fraction must be in (0, 1]")
    if on_fraction == 1.0:
        for a in range(0, cycles, rng.BLOCK):
            yield np.ones(min(rng.BLOCK, cycles - a), dtype=np.int8)
        return
    p_on_off = 1.0 / mean_on_duration
    p_off_on = on_fraction * p_on_off / (1.0 - on_fraction)
    if p_off_on > 1.0:
        raise ValueError(
            f"on_fraction {on_fraction} with mean ON duration {mean_on_duration} "
            "implies an OFF dwell shorter than one cycle"
        )
    u_init = rng.uniform(rng.stream_seed(seed, Stream.TELEGRAPH_INIT), [0])[0]
    start_on = bool(u_init < on_fraction)
    s = rng.stream_seed(seed, Stream.TELEGRAPH)
    for a in range(0, cycles, rng.BLOCK):
        n = min(rng.BLOCK, cycles - a)
        us = rng.uniform(s, np.arange(a, min(a + n + 1, cycles), dtype=np.uint64))
        states = telegraph(us, p_on_off, p_off_on, start_on)
        if len(states) > n:
            start_on = bool(states[n])
        yield states[:n]


def blinking_telegraph(on_fraction: float, mean_on_duration: float, seed, cycles: int) -> np.ndarray:
    """Per-cycle ON/OFF sequence of the blinking two-state Markov chain."""
    return np.concatenate([np.empty(0, dtype=np.int8),
                           *_telegraph_blocks(on_fraction, mean_on_duration, seed, cycles)])


def on_cycle_blocks(params: EmitterParams, seed, cycles: int):
    """The ON cycles of the emitter's blinking telegraph, one block of cycles at a time."""
    a = 0
    for states in _telegraph_blocks(params.blinking_on_fraction,
                                    params.blinking_mean_on_cycles, seed, cycles):
        yield np.flatnonzero(states) + a
        a += len(states)


def _emissions(params: EmitterParams, seed, cycle: np.ndarray, s_xx: Stream, s_x: Stream):
    """Records of the pairs emitted at `cycle`, their delays drawn at those counters."""
    t_xx = cycle * params.rep_period
    t_xx += rng.exponential(rng.stream_seed(seed, s_xx), cycle, params.tau_xx)
    t_x = rng.exponential(rng.stream_seed(seed, s_x), cycle, params.tau_x)
    t_x += t_xx
    return EmissionRecords(cycle, t_xx, t_x)


def pair_emission_blocks(params: EmitterParams, seed, cycles: int):
    """`sample_pair_emission`'s stream, one block of `rng.BLOCK` cycles at a time.

    A block yields the records of its own cycles and no others, ordered by
    cycle, a cycle's second pair after its first.
    """
    s_exc = rng.stream_seed(seed, Stream.EXCITE)
    s_two = rng.stream_seed(seed, Stream.TWO_PAIR)
    for on in on_cycle_blocks(params, seed, cycles):
        excited = on[rng.below(s_exc, on, params.p_emit_pi)]
        extra = excited[rng.below(s_two, excited, params.two_pair_prob)]
        yield merge_records(
            _emissions(params, seed, excited, Stream.EXP_XX, Stream.EXP_X),
            _emissions(params, seed, extra, Stream.EXP_XX_EXTRA, Stream.EXP_X_EXTRA))


def sample_pair_emission(params: EmitterParams, seed, cycles: int) -> EmissionRecords:
    """Sample cascade emissions over `cycles` repetition periods.

    One pi pulse at each cycle start excites an ON cycle with probability
    p_emit_pi (the Rabi population at area pi); an excitation yields t_xx =
    cycle start + Exp(tau_xx) and t_x = t_xx + Exp(tau_x).  With
    probability two_pair_prob a second, uncorrelated pair from the same
    pulse follows the first. The stream is ordered by cycle, a cycle's
    second pair after its first, as every blocked simulation numbers its
    photons: by cycle, then by slot.
    Fully counter-indexed: every stream is drawn at the counters of the
    cycles that read it (excitation at ON cycles, the rest at excited
    ones), and the draw at a counter does not depend on which others are
    drawn, so identical (seed, params) give a bit-identical stream.  The
    records come from `pair_emission_blocks`, concatenated.
    """
    return _concat(EmissionRecords(), *pair_emission_blocks(params, seed, cycles))


_FIELDS = ("cycle", "t_xx", "t_x")


def _concat(*records: EmissionRecords) -> EmissionRecords:
    return EmissionRecords(*(np.concatenate([getattr(r, f) for r in records]) for f in _FIELDS))


def merge_records(a: EmissionRecords, b: EmissionRecords) -> EmissionRecords:
    """The records of a, then b, in one stream ordered by cycle (stable sort, one column
    at a time): a cycle's records of a come before those of b; a and b are unchanged."""
    records = _concat(a, b)
    order = np.argsort(records.cycle, kind="stable")
    for f in _FIELDS:
        setattr(records, f, getattr(records, f)[order])
    return records


def two_pair_prob_for_g2(g2_target: float, params: EmitterParams) -> float:
    """Residual-pair probability that yields a given autocorrelation g2(0).

    In this model g2(0) = 2 p2 / (f p (1 + p2)^2) with f the blinking ON
    fraction and p the per-pulse emission probability: the smaller root of
    a (1 + p2)^2 = p2 with a = g2 f p / 2, in a cancellation-free form. No
    p2 < 1 reaches a target of 1 / (2 f p) or more.
    """
    fp = params.blinking_on_fraction * params.p_emit_pi
    a = g2_target * fp / 2.0
    if not 4.0 * a < 1.0:
        raise ValueError(f"g2(0) {g2_target} is at or above this emitter's maximum "
                         f"1 / (2 f p) = {1.0 / (2.0 * fp):.6g}")
    return float(2.0 * a / ((1.0 - 2.0 * a) + np.sqrt(1.0 - 4.0 * a)))
