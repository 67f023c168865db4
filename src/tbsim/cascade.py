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

# stream ids within a sampling run
_S_TELEGRAPH = 0
_S_TELEGRAPH_INIT = 1
_S_EXCITE = 2
_S_TWO_PAIR = 3
_S_EXP_XX = 4
_S_EXP_X = 5
_S_EXP_XX_EXTRA = 6
_S_EXP_X_EXTRA = 7


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
    u_init = rng.uniform(rng.stream_seed(seed, _S_TELEGRAPH_INIT), [0])[0]
    start_on = bool(u_init < on_fraction)
    s = rng.stream_seed(seed, _S_TELEGRAPH)
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


def _excited_blocks(params: EmitterParams, seed, cycles: int):
    """Per block of cycles: its end, its excited cycles, and those of them with a second pair."""
    s_exc = rng.stream_seed(seed, _S_EXCITE)
    s_two = rng.stream_seed(seed, _S_TWO_PAIR)
    end = 0
    for on in on_cycle_blocks(params, seed, cycles):
        end = min(end + rng.BLOCK, cycles)
        excited = on[rng.below(s_exc, on, params.p_emit_pi)]
        yield end, excited, excited[rng.below(s_two, excited, params.two_pair_prob)]


def _emissions(params: EmitterParams, seed, cycle: np.ndarray, s_xx: int, s_x: int):
    """Records of the pairs emitted at `cycle`, their delays drawn at those counters."""
    t_xx = cycle * params.rep_period
    t_xx += rng.exponential(rng.stream_seed(seed, s_xx), cycle, params.tau_xx)
    t_x = rng.exponential(rng.stream_seed(seed, s_x), cycle, params.tau_x)
    t_x += t_xx
    return EmissionRecords(cycle, t_xx, t_x)


def pair_emission_blocks(params: EmitterParams, seed, cycles: int):
    """`sample_pair_emission`'s stream, one block of `rng.BLOCK` cycles at a time.

    The stream is the stable sort by t_xx of all primary records, then all
    extra ones, each by cycle. No record of a later block lies before that
    block's first cycle start, so a block yields its records sorted, save
    those whose t_xx reaches that start: they are held back and sorted with
    the next block, primaries before extras as in the whole-run sort.
    """
    held = held_extra = EmissionRecords()
    for end, excited, extra in _excited_blocks(params, seed, cycles):
        primary = _concat(held, _emissions(params, seed, excited, _S_EXP_XX, _S_EXP_X))
        extra = _concat(held_extra, _emissions(params, seed, extra,
                                               _S_EXP_XX_EXTRA, _S_EXP_X_EXTRA))
        edge = end * params.rep_period if end < cycles else np.inf
        late, late_extra = primary.t_xx >= edge, extra.t_xx >= edge
        held, held_extra = _take(primary, late), _take(extra, late_extra)
        yield _sort_by_t_xx(_concat(_take(primary, ~late), _take(extra, ~late_extra)))


def sample_pair_emission(params: EmitterParams, seed, cycles: int) -> EmissionRecords:
    """Sample cascade emissions over `cycles` repetition periods.

    One pi pulse at each cycle start excites an ON cycle with probability
    p_emit_pi (the Rabi population at area pi); an excitation yields t_xx =
    cycle start + Exp(tau_xx) and t_x = t_xx + Exp(tau_x).  With
    probability two_pair_prob a second, uncorrelated pair from the same
    pulse is appended. The stream is ordered by t_xx (a stable sort of all
    primary records, then all extra ones, each by cycle), so it is the
    order in which the pairs are emitted.
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


def _take(records: EmissionRecords, sel) -> EmissionRecords:
    return EmissionRecords(*(getattr(records, f)[sel] for f in _FIELDS))


def merge_records(a: EmissionRecords, b: EmissionRecords) -> EmissionRecords:
    """The records of a, then b, in one stream ordered by t_xx (stable); a and b are unchanged."""
    return _sort_by_t_xx(_concat(a, b))


def _sort_by_t_xx(records: EmissionRecords) -> EmissionRecords:
    """`records` reordered by t_xx (stable sort) in place, one column at a time."""
    order = np.argsort(records.t_xx, kind="stable")
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
