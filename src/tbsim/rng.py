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
independent of worker count and iteration order.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SALT = np.uint64(0x6A09E667F3BCC908)

# 53-bit mantissa step for uniforms in [0, 1)
_INV53 = 1.0 / float(1 << 53)


def parse_seed(text: str) -> int:
    """A run seed: an unsigned 64-bit integer, in any base `int(text, 0)` reads."""
    try:
        seed = int(text, 0)
    except ValueError:  # not an integer at all breaks the same rule
        seed = -1
    if not 0 <= seed < 2**64:
        raise ValueError("must be an unsigned 64-bit integer")
    return seed


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, in place on a fresh state array."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def random_u64(seed, counters) -> np.ndarray:
    """SplitMix64 output at the given counters (vectorized, stateless)."""
    c = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        # out of place: `seed` may be an array of keys that broadcasts against c
        state = np.uint64(seed) + (c + np.uint64(1)) * _GOLDEN
        return _mix(state)


def stream_seed(seed, stream: int) -> np.uint64:
    """Derive the seed of an independent substream."""
    with np.errstate(over="ignore"):
        return np.uint64(random_u64(np.uint64(seed) ^ _SALT, np.asarray([stream]))[0])


def uniform(seed, counters) -> np.ndarray:
    """Uniforms in [0, 1) with 53 random mantissa bits."""
    u = random_u64(seed, counters)
    return (u >> np.uint64(11)).astype(np.float64) * _INV53


def exponential(seed, counters, scale) -> np.ndarray:
    """Exponential variates with the given mean via inverse CDF."""
    u = uniform(seed, counters)
    return -scale * np.log1p(-u)


def normal_pairs(seed, counters) -> np.ndarray:
    """Standard normals, one per counter, via Box-Muller.

    Counter n consumes the pair of SplitMix64 outputs at (2n, 2n + 1),
    so draws at distinct counters never overlap.
    """
    c = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        u1 = uniform(seed, c * np.uint64(2))
        u2 = uniform(seed, c * np.uint64(2) + np.uint64(1))
    r = np.sqrt(-2.0 * np.log1p(-u1))
    return r * np.cos(2.0 * np.pi * u2)


class CounterRng:
    """Convenience wrapper tying a (seed, stream) pair to a moving counter.

    Each call of `uniform`, `exponential`, `normal` or `poisson` takes the
    next counters, one per variate; fixed-layout callers can instead use the
    stateless module functions with explicit counters.
    """

    def __init__(self, seed, stream: int = 0):
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
        return sigma * normal_pairs(self.seed, self._next_counters(n))

    def poisson(self, means) -> np.ndarray:
        """Poisson counts, one per entry of `means`.

        Each draw gets a private SplitMix64 substream (keyed by this
        stream's seed and the draw counter) holding up to 64 uniforms for
        the rejection loop, so the sequence stays counter-addressable.
        A mean of zero or less gives 0. A mean below 10 uses Knuth's
        multiplication method: the draw is the first k at which the running
        product of uniforms 0..k falls below exp(-mean). Larger means use
        PTRS transformed rejection.
        """
        means = np.atleast_1d(np.asarray(means, dtype=np.float64))
        keys = random_u64(self.seed, self._next_counters(len(means)))
        out = np.zeros(len(means), dtype=np.int64)
        drawn = ~(means <= 0.0)  # not `> 0`: a NaN mean reaches PTRS, which raises
        us = uniform(keys[drawn, None], np.arange(_POISSON_BUDGET, dtype=np.uint64))
        mu = means[drawn]
        knuth = mu < 10.0
        below = np.cumprod(us[knuth], axis=1) < np.exp(-mu[knuth])[:, None]
        if not below.any(axis=1).all():
            raise RuntimeError("poisson sampling exhausted its draw budget")
        k = np.empty(len(mu), dtype=np.int64)
        k[knuth] = below.argmax(axis=1)
        for i in np.flatnonzero(~knuth):
            k[i] = _poisson_ptrs(mu[i], us[i])
        out[drawn] = k
        return out


_POISSON_BUDGET = 64


def _poisson_ptrs(mu: float, us: np.ndarray) -> int:
    """Hormann's PTRS transformed-rejection sampler for mu >= 10."""
    import math

    b = 0.931 + 2.53 * math.sqrt(mu)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_mu = math.log(mu)
    for j in range(0, _POISSON_BUDGET - 1, 2):
        u = us[j] - 0.5
        v = us[j + 1]
        us_ = 0.5 - abs(u)
        k = math.floor((2.0 * a / us_ + b) * u + mu + 0.43)
        if us_ >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us_ < 0.013 and v > us_):
            continue
        lhs = math.log(v * inv_alpha / (a / (us_ * us_) + b))
        if lhs <= k * log_mu - mu - math.lgamma(k + 1.0):
            return int(k)
    raise RuntimeError("poisson sampling exhausted its draw budget")
