"""Counter-based deterministic random number generator.

Every stochastic routine in the package draws from this generator so that
a run is a pure function of (seed, stream, counter).  The algorithm is the
SplitMix64 sequence evaluated at an arbitrary counter, which makes it
counter-based (random access, no mutable state shared between workers):

    state(n) = (seed + (n + 1) * 0x9E3779B97F4A7C15)  mod 2^64
    z = state(n)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9          mod 2^64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB          mod 2^64
    output(n) = z ^ (z >> 31)

Substreams are derived by re-keying: the seed of stream k is output_k of
the master sequence XORed with a fixed stream salt.  Distinct (stream,
counter) pairs therefore never collide, and cycle-indexed draws are
independent of worker count and iteration order. Every stream is declared
once, in `Stream`.
"""

from __future__ import annotations

import enum
import math

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SALT = np.uint64(0x6A09E667F3BCC908)

# 53-bit mantissa step for uniforms in [0, 1)
_INV53 = 1.0 / float(1 << 53)

# Counters per block: runs draw and step their per-cycle streams this many
# counters at a time, so no whole-run per-cycle array exists. A draw at a
# counter does not depend on the blocking, so neither does any output.
BLOCK = 1 << 15

# what draws a stream: a command, or a model that no command runs
_HOM, _AUTOCORR = "simulate hom", "simulate autocorr"
_TIMEBIN, _POISSONIAN = "simulate_timebin_run", "simulate_poissonian_source"
_BLINKING = (_HOM, _AUTOCORR, _TIMEBIN)
_DETECTED = _BLINKING + (_POISSONIAN,)


@enum.unique
class Stream(enum.IntEnum):
    """Every stream a run draws: its name, its id and what draws it (`drawn_by`).

    The id keys the stream's values (`stream_seed`), so changing one changes
    every output that reads it, a declared golden rewrite. Ids are unique, so
    two streams of one command never share their draws. `TOMO_RESAMPLE` is
    the first of a family: Monte-Carlo resample k draws id 70 + k, which
    reaches other streams' ids from 11 resamples on; `analyze tomo` draws no
    other stream, nor does `simulate tomography` any of the family.
    """

    def __new__(cls, value: int, drawn_by: tuple):
        member = int.__new__(cls, value)
        member._value_ = value
        member.drawn_by = drawn_by
        return member

    TELEGRAPH = 0, _BLINKING
    TELEGRAPH_INIT = 1, _BLINKING
    EXCITE = 2, (_AUTOCORR,)
    TWO_PAIR = 3, (_AUTOCORR,)
    EXP_XX = 4, (_AUTOCORR,)
    EXP_X = 5, (_AUTOCORR,)
    EXP_XX_EXTRA = 6, (_AUTOCORR,)
    EXP_X_EXTRA = 7, (_AUTOCORR,)
    TIMEBIN_EXCITE = 10, (_TIMEBIN,)
    TIMEBIN_BIN = 11, (_TIMEBIN,)
    TIMEBIN_PATH_XX = 12, (_TIMEBIN,)
    TIMEBIN_PATH_X = 13, (_TIMEBIN,)
    TIMEBIN_SURV_1 = 14, (_TIMEBIN,)
    TIMEBIN_SURV_2 = 15, (_TIMEBIN,)
    TIMEBIN_EXP_XX = 16, (_TIMEBIN,)
    TIMEBIN_EXP_X = 17, (_TIMEBIN,)
    HOM_EXC0 = 20, (_HOM,)
    HOM_EXC1 = 21, (_HOM,)
    HOM_PATH0 = 22, (_HOM,)
    HOM_PATH1 = 23, (_HOM,)
    HOM_SURV0 = 24, (_HOM,)
    HOM_SURV1 = 25, (_HOM,)
    HOM_EXP0 = 26, (_HOM,)
    HOM_EXP1 = 27, (_HOM,)
    HOM_BUNCH = 28, (_HOM,)
    HOM_DET0 = 29, (_HOM,)
    HOM_DET1 = 30, (_HOM,)
    HOM_BUNCH_DET = 31, (_HOM,)
    HBT_SPLIT = 40, (_AUTOCORR,)
    POISSONIAN_N = 50, (_POISSONIAN,)
    POISSONIAN_T = 51, (_POISSONIAN,)
    POISSONIAN_SPLIT = 52, (_POISSONIAN,)
    TOMO_COUNTS = 60, ("simulate tomography",)
    TOMO_RESAMPLE = 70, ("analyze tomo",)
    LIFETIME = 80, ("simulate lifetime",)
    RABI = 81, ("simulate rabi",)
    DETECT_EFFICIENCY = 100, _DETECTED
    DETECT_JITTER = 101, _DETECTED
    DETECT_DARK = 102, _DETECTED


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, in place on a fresh state array."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def random_u64(seed, counters) -> np.ndarray:
    """SplitMix64 output at the given counters (vectorized, stateless).

    Computed in place on one fresh copy of the counters. `seed` may be an
    array of keys that broadcasts against them (`CounterRng.poisson`).
    """
    state = np.array(counters, dtype=np.uint64)
    seed = np.uint64(seed)
    with np.errstate(over="ignore"):
        state += np.uint64(1)
        state *= _GOLDEN
        state = np.add(state, seed, out=state if np.ndim(seed) == 0 else None)
    return _mix(state)


def stream_seed(seed, stream: int) -> np.uint64:
    """Derive the seed of an independent substream."""
    with np.errstate(over="ignore"):
        return np.uint64(random_u64(np.uint64(seed) ^ _SALT, np.asarray([stream]))[0])


def uniform(seed, counters) -> np.ndarray:
    """Uniforms in [0, 1) with 53 random mantissa bits, in place on the raw outputs."""
    u = random_u64(seed, counters)
    u >>= np.uint64(11)
    return np.multiply(u, _INV53, out=u.view(np.float64))


def exponential(seed, counters, scale) -> np.ndarray:
    """Exponential variates with the given mean via inverse CDF, in place."""
    x = uniform(seed, counters)
    np.negative(x, out=x)
    np.log1p(x, out=x)
    x *= -scale
    return x


def below(seed, counters, p) -> np.ndarray:
    """Coins `uniform(seed, counters) < p`, drawn `BLOCK` counters at a time."""
    out = np.empty(len(counters), dtype=np.bool_)
    for a in range(0, len(counters), BLOCK):
        np.less(uniform(seed, counters[a:a + BLOCK]), p, out=out[a:a + BLOCK])
    return out


def normal_pairs(seed, counters) -> np.ndarray:
    """Standard normals, one per counter, via Box-Muller.

    Counter n consumes the pair of SplitMix64 outputs at (2n, 2n + 1),
    so draws at distinct counters never overlap.
    """
    c = np.array(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        c *= np.uint64(2)
        r = exponential(seed, c, 2.0)  # -2 ln(1 - u1), in place
        c += np.uint64(1)
        cos = uniform(seed, c)
    np.sqrt(r, out=r)
    cos *= 2.0 * np.pi
    np.cos(cos, out=cos)
    r *= cos
    return r


_POISSON_BUDGET = 64
# PTRS accepts a draw only within about 16 sqrt(mean) of the mean, so below
# this every draw fits int64 (2^63 = 9.22e18)
POISSON_MAX_MEAN = 9.2e18


class PoissonMeanError(ValueError, OverflowError):
    """A Poisson mean at or above `POISSON_MAX_MEAN`: bad input whose draw may overflow."""


def poisson(keys, means) -> np.ndarray:
    """Poisson counts, one per (key, mean) pair; the two arrays broadcast.

    A draw reads the uniforms at counters 0, 1, ... of its own key, at most
    `_POISSON_BUDGET` of them, so it depends on its key and mean alone and
    stays counter-addressable. A mean of zero or less gives 0. A mean below
    10 uses Knuth's multiplication method: the draw is the first k at which
    the running product of uniforms 0..k falls below exp(-mean). Larger
    means use Hormann's PTRS transformed rejection, one candidate from each
    pair of uniforms (2j, 2j + 1). Both run in rounds, and round j draws its
    uniforms only for the draws still pending. A NaN mean, or one at or
    above `POISSON_MAX_MEAN`, raises before any draw.
    """
    means = np.asarray(means, dtype=np.float64)
    keys, means = np.broadcast_arrays(np.asarray(keys, dtype=np.uint64), means)
    shape, keys, means = means.shape, keys.ravel(), means.ravel()
    if np.isnan(means).any():
        raise ValueError("a Poisson mean is NaN")
    too_large = means[means >= POISSON_MAX_MEAN]
    if len(too_large):
        raise PoissonMeanError(f"a Poisson mean of {too_large[0]:.4g} is at or above "
                               f"{POISSON_MAX_MEAN:.4g}, where a draw may not fit int64")
    out = np.zeros(len(means), dtype=np.int64)
    idx = np.flatnonzero((means > 0.0) & (means < 10.0))
    out[idx] = _poisson_knuth(keys[idx], means[idx])
    idx = np.flatnonzero(means >= 10.0)
    out[idx] = _poisson_ptrs(keys[idx], means[idx])
    return out.reshape(shape)


def _poisson_knuth(keys: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Knuth's method for 0 < mu < 10: round j multiplies in uniform j."""
    k = np.zeros(len(mu), dtype=np.int64)
    limit = np.exp(-mu)
    prod = np.ones(len(mu))
    pending = np.arange(len(mu))
    for j in range(_POISSON_BUDGET):
        if not pending.size:
            return k
        prod *= uniform(keys, j)
        done = prod < limit
        k[pending[done]] = j
        keep = ~done
        pending, keys, prod, limit = pending[keep], keys[keep], prod[keep], limit[keep]
    if pending.size:
        raise RuntimeError("poisson sampling exhausted its draw budget")
    return k


def _poisson_ptrs(keys: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Hormann's PTRS transformed-rejection sampler for mu >= 10.

    The arithmetic is that of the scalar algorithm, element by element, so
    every draw is the one a draw-at-a-time loop gives. The full test's
    `log` and `lgamma` are `math`'s, applied to the few candidates that
    reach it, since a vectorised `log` may differ in the last bit.
    """
    k = np.zeros(len(mu), dtype=np.int64)
    b = 0.931 + 2.53 * np.sqrt(mu)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    pending = np.arange(len(mu))
    for j in range(0, _POISSON_BUDGET - 1, 2):
        if not pending.size:
            return k
        u = uniform(keys, j)
        u -= 0.5
        v = uniform(keys, j + 1)
        s = 0.5 - np.abs(u)
        cand = np.floor((2.0 * a / s + b) * u + mu + 0.43)
        done = (s >= 0.07) & (v <= v_r)
        full = np.flatnonzero(~done & ~((cand < 0) | ((s < 0.013) & (v > s))))
        if full.size:
            arg = v[full] * inv_alpha[full] / (a[full] / (s[full] * s[full]) + b[full])
            done[full] = [math.log(x) <= kf * math.log(m) - m - math.lgamma(kf + 1.0)
                          for x, kf, m in zip(arg.tolist(), cand[full].tolist(),
                                              mu[full].tolist())]
        k[pending[done]] = cand[done]
        keep = ~done
        pending, keys, mu = pending[keep], keys[keep], mu[keep]
        a, b, inv_alpha, v_r = a[keep], b[keep], inv_alpha[keep], v_r[keep]
    if pending.size:
        raise RuntimeError("poisson sampling exhausted its draw budget")
    return k


class CounterRng:
    """Convenience wrapper tying a (seed, stream) pair to a moving counter.

    Each call of `uniform`, `exponential`, `normal`, `below` or `poisson`
    takes the next counters, one per variate; fixed-layout callers can
    instead use the stateless module functions with explicit counters.
    """

    def __init__(self, seed, stream: int):
        self.seed = stream_seed(seed, stream)
        self.counter = 0

    def _next_counters(self, n: int) -> np.ndarray:
        c = np.arange(self.counter, self.counter + n, dtype=np.uint64)
        self.counter += n
        return c

    def uniform(self, n: int) -> np.ndarray:
        return uniform(self.seed, self._next_counters(n))

    def exponential(self, n: int, scale) -> np.ndarray:
        return exponential(self.seed, self._next_counters(n), scale)

    def normal(self, n: int, sigma: float = 1.0) -> np.ndarray:
        z = normal_pairs(self.seed, self._next_counters(n))
        z *= sigma
        return z

    def below(self, n: int, p) -> np.ndarray:
        """Coins `uniform(n) < p`, drawn `BLOCK` counters at a time."""
        return below(self.seed, self._next_counters(n), p)

    def poisson(self, means) -> np.ndarray:
        """Poisson counts, one per entry of `means` (module `poisson`):
        draw i takes the next counter, and its key is this stream's
        SplitMix64 output there. The counter does not move when a mean is
        rejected."""
        means = np.atleast_1d(np.asarray(means, dtype=np.float64))
        counters = np.arange(self.counter, self.counter + len(means), dtype=np.uint64)
        out = poisson(random_u64(self.seed, counters), means)
        self.counter += len(means)
        return out
