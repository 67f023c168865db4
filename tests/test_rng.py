"""Counter-based RNG: bit-exactness against an independent oracle,
distributional checks, and determinism properties."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tbsim import rng

MASK = (1 << 64) - 1


def splitmix64_oracle(seed: int, counter: int) -> int:
    """Independent pure-int SplitMix64, written from the published constants."""
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_u64_matches_independent_oracle():
    seeds = [0, 1, 42, 0xDEADBEEF, MASK]
    counters = [0, 1, 2, 1000, 2**63, MASK - 1]
    for s in seeds:
        got = rng.random_u64(s, np.array(counters, dtype=np.uint64))
        want = [splitmix64_oracle(s, c) for c in counters]
        assert [int(g) for g in got] == want


def test_u64_golden_values():
    # frozen oracle outputs: splitmix64_oracle(12345, c) for c in 0..3
    got = rng.random_u64(12345, np.arange(4, dtype=np.uint64))
    want = [splitmix64_oracle(12345, c) for c in range(4)]
    assert [int(g) for g in got] == want


def test_stream_seed_rekeying():
    s0 = int(rng.stream_seed(7, 0))
    s1 = int(rng.stream_seed(7, 1))
    assert s0 != s1
    # re-keying formula: master sequence seeded with seed XOR salt
    want = splitmix64_oracle(7 ^ 0x6A09E667F3BCC908, 3)
    assert int(rng.stream_seed(7, 3)) == want


def test_uniform_range_and_precision():
    u = rng.uniform(99, np.arange(100000, dtype=np.uint64))
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    # 53-bit mantissa: values are multiples of 2^-53
    assert np.all(u * (1 << 53) == np.floor(u * (1 << 53)))
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.001


def test_exponential_moments():
    x = rng.exponential(3, np.arange(200000, dtype=np.uint64), 468.0)
    assert np.all(x >= 0.0)
    assert abs(x.mean() - 468.0) < 5.0
    assert abs(x.std() - 468.0) < 8.0


def test_normal_moments_and_non_overlap():
    z = rng.normal_pairs(5, np.arange(200000, dtype=np.uint64))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert abs(((z**3).mean())) < 0.03  # symmetric
    # counters 0 and 1 consume disjoint u64 pairs: deterministic but distinct
    a = rng.normal_pairs(5, np.array([0], dtype=np.uint64))
    b = rng.normal_pairs(5, np.array([1], dtype=np.uint64))
    assert a[0] != b[0]


def test_counter_addressability():
    # drawing [0..9] at once equals drawing each counter individually
    all_at_once = rng.uniform(11, np.arange(10, dtype=np.uint64))
    one_by_one = [rng.uniform(11, np.array([c], dtype=np.uint64))[0]
                  for c in range(10)]
    assert np.array_equal(all_at_once, np.array(one_by_one))


def test_counter_rng_moving_counter():
    r = rng.CounterRng(123, stream=4)
    a = r.uniform(5)
    b = r.uniform(5)
    fresh = rng.CounterRng(123, stream=4)
    assert np.array_equal(np.concatenate([a, b]), fresh.uniform(10))


def test_poisson_moments_small_and_large_mu():
    r = rng.CounterRng(2024, stream=0)
    for mu in (0.5, 3.0, 25.0, 400.0):
        n = 40000
        x = r.poisson(np.full(n, mu))
        assert abs(x.mean() - mu) < 4.0 * np.sqrt(mu / n)
        assert abs(x.var() / mu - 1.0) < 0.08


def test_poisson_zero_mean():
    r = rng.CounterRng(1, stream=0)
    assert np.all(r.poisson(np.zeros(10)) == 0)
    with pytest.raises(ValueError):  # a NaN mean is not drawn as 0
        r.poisson(np.array([1.0, np.nan]))


def test_poisson_draw_beyond_int64_raises():
    r = rng.CounterRng(1, 2)
    assert r.poisson(np.array([1e18]))[0] == 1000000000295472768
    for mu in (1e19, 1e300, np.inf):
        with pytest.raises(OverflowError):
            r.poisson(np.array([mu]))


def test_poisson_mean_whose_draw_may_not_fit_int64_is_a_value_error():
    r = rng.CounterRng(1, stream=2)
    for mu in (rng.POISSON_MAX_MEAN, 2.0**63, np.inf):
        with pytest.raises(ValueError, match="Poisson mean"):
            r.poisson(np.array([5.0, mu]))
    assert r.counter == 0  # raised before any draw
    below = np.nextafter(rng.POISSON_MAX_MEAN, 0.0)
    assert abs(int(r.poisson(np.array([below]))[0]) - below) < 20 * math.sqrt(below)


def ptrs_one_oracle(mu: float, us: np.ndarray) -> int:
    """Hormann's PTRS for mu >= 10, one draw at a time in Python floats: the
    scalar loop that `rng._poisson_ptrs` vectorises."""
    b = 0.931 + 2.53 * math.sqrt(mu)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_mu = math.log(mu)
    for j in range(0, rng._POISSON_BUDGET - 1, 2):
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


def poisson_one_oracle(mu, key):
    """One Poisson draw at a time from the 64 uniforms of its private key."""
    if mu <= 0.0:
        return 0
    us = rng.uniform(key, np.arange(rng._POISSON_BUDGET, dtype=np.uint64))
    if mu < 10.0:
        limit = np.exp(-mu)
        prod = 1.0
        for k in range(rng._POISSON_BUDGET):
            prod *= us[k]
            if prod < limit:
                return k
        raise RuntimeError("poisson sampling exhausted its draw budget")
    return ptrs_one_oracle(mu, us)


_MEANS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, float(np.nextafter(10.0, 0.0)),
                     9.999999999, 10.0, 1e6, 1e12]),
    st.floats(0.0, 10.0), st.floats(10.0, 1e9), st.floats(-5.0, 0.0))


@given(seed=st.integers(min_value=0, max_value=MASK),
       stream=st.integers(min_value=0, max_value=1000),
       means=st.lists(_MEANS, min_size=1, max_size=20))
@example(seed=0, stream=0, means=[0.0, 1e-300, 9.999999999, 10.0, 1e6])
@settings(max_examples=300, deadline=None)
def test_property_poisson_matches_per_draw_oracle(seed, stream, means):
    r = rng.CounterRng(seed, stream)
    keys = rng.random_u64(r.seed, np.arange(len(means), dtype=np.uint64))
    want = [poisson_one_oracle(mu, key) for mu, key in zip(np.array(means), keys)]
    assert r.poisson(means).tolist() == want


def ptrs_first_pair_fate(mu, us):
    """Which PTRS test decides the first candidate pair (us[0], us[1])."""
    b = 0.931 + 2.53 * math.sqrt(mu)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    u, v = us[0] - 0.5, us[1]
    s = 0.5 - abs(u)
    k = math.floor((2.0 * a / s + b) * u + mu + 0.43)
    if s >= 0.07 and v <= 0.9277 - 3.6224 / (b - 2.0):
        return "squeeze"
    if k < 0 or (s < 0.013 and v > s):
        return "rejected"
    lhs = math.log(v * inv_alpha / (a / (s * s) + b))
    return "full" if lhs <= k * math.log(mu) - mu - math.lgamma(k + 1.0) else "full-rejected"


def test_poisson_full_test_acceptances_match_per_draw_oracle():
    # near mu = 10 the squeeze test takes only about a third of the pairs, so
    # many draws are decided by the full test, some after a squeeze-able pair
    r = rng.CounterRng(31, stream=5)
    means = np.linspace(10.0, 14.0, 400)
    keys = rng.random_u64(r.seed, np.arange(len(means), dtype=np.uint64))
    us = rng.uniform(keys[:, None], np.arange(rng._POISSON_BUDGET, dtype=np.uint64))
    fates = [ptrs_first_pair_fate(mu, u) for mu, u in zip(means, us)]
    assert fates.count("full") > 50 and fates.count("full-rejected") > 50
    want = [poisson_one_oracle(mu, key) for mu, key in zip(means, keys)]
    assert r.poisson(means).tolist() == want


def test_poisson_deterministic():
    a = rng.CounterRng(77, stream=2).poisson(np.full(100, 12.5))
    b = rng.CounterRng(77, stream=2).poisson(np.full(100, 12.5))
    assert np.array_equal(a, b)


@given(seed=st.integers(min_value=0, max_value=MASK),
       counter=st.integers(min_value=0, max_value=MASK - 1))
@settings(max_examples=200, deadline=None)
def test_property_oracle_agreement(seed, counter):
    got = int(rng.random_u64(seed, np.array([counter], dtype=np.uint64))[0])
    assert got == splitmix64_oracle(seed, counter)


@given(seed=st.integers(min_value=0, max_value=MASK),
       s1=st.integers(min_value=0, max_value=1000),
       s2=st.integers(min_value=0, max_value=1000))
@settings(max_examples=100, deadline=None)
def test_property_streams_distinct(seed, s1, s2):
    a = rng.stream_seed(seed, s1)
    b = rng.stream_seed(seed, s2)
    assert (s1 == s2) == (a == b)


def test_uniform_rejects_nothing_silently():
    with pytest.raises((ValueError, OverflowError)):
        rng.random_u64(-1, np.arange(3, dtype=np.uint64))
