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


def blinking_telegraph(on_fraction: float, mean_on_duration: float, seed, cycles: int) -> np.ndarray:
    """Per-cycle ON/OFF sequence of the blinking two-state Markov chain."""
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
    u_init = rng.uniform(rng.stream_seed(seed, _S_TELEGRAPH_INIT), [0])[0]
    start_on = bool(u_init < on_fraction)
    us = rng.uniform(rng.stream_seed(seed, _S_TELEGRAPH), np.arange(cycles, dtype=np.uint64))
    return telegraph(us, p_on_off, p_off_on, start_on)


def sample_pair_emission(params: EmitterParams, seed, cycles: int) -> EmissionRecords:
    """Sample cascade emissions over `cycles` repetition periods.

    One pi pulse at each cycle start excites an ON cycle with probability
    p_emit_pi (the Rabi population at area pi); an excitation yields t_xx =
    cycle start + Exp(tau_xx) and t_x = t_xx + Exp(tau_x).  With
    probability two_pair_prob a second, uncorrelated pair from the same
    pulse is appended.  Fully counter-indexed: identical (seed, params)
    give a bit-identical stream.
    """
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


def merge_records(a: EmissionRecords, b: EmissionRecords) -> EmissionRecords:
    order = np.argsort(np.concatenate([a.t_xx, b.t_xx]), kind="stable")
    return EmissionRecords(
        cycle=np.concatenate([a.cycle, b.cycle])[order],
        t_xx=np.concatenate([a.t_xx, b.t_xx])[order],
        t_x=np.concatenate([a.t_x, b.t_x])[order],
    )


def two_pair_prob_for_g2(g2_target: float, params: EmitterParams) -> float:
    """Residual-pair probability that yields a given autocorrelation g2(0).

    In this model g2(0) = 2 p2 / (f p (1 + p2)^2) with f the blinking ON
    fraction and p the per-pulse emission probability; solved by fixed
    point.
    """
    fp = params.blinking_on_fraction * params.p_emit_pi
    p2 = g2_target * fp / 2.0
    for _ in range(8):
        p2 = g2_target * fp * (1.0 + p2) ** 2 / 2.0
    return p2
