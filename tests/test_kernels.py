"""Kernels agree bit-for-bit with brute-force oracles, including at
floating-point bin edges."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tbsim import kernels
from tbsim.rng import CounterRng


def _telegraph_oracle(u, p_on_off, p_off_on, start_on):
    state, want = 1 if start_on else 0, []
    for x in u:
        want.append(state)
        if state == 1 and x < p_on_off:
            state = 0
        elif state == 0 and x < p_off_on:
            state = 1
    return want


def _pair_delay_oracle(starts, stops, lo, w, nb):
    want = np.zeros(nb, dtype=np.int64)
    for a in starts:
        for b in stops:
            d = b - a
            if lo <= d < lo + w * nb:
                want[min(int((d - lo) / w), nb - 1)] += 1
    return want


def _dead_time_oracle(times, dead_time):
    kept, last = [], None
    for t in times:
        kept.append(last is None or t - last >= dead_time)
        if kept[-1]:
            last = t
    return kept


def test_telegraph_against_step_oracle():
    for seed, n, p_on_off, p_off_on in ((8, 300, 0.1, 0.3), (31, 5000, 0.01, 0.02)):
        u = CounterRng(seed, stream=0).uniform(n)
        got = kernels.telegraph(u, p_on_off, p_off_on, True)
        assert got.dtype == np.int8
        assert got.tolist() == _telegraph_oracle(u, p_on_off, p_off_on, True)


def test_telegraph_stationary_fraction():
    u = CounterRng(9, stream=0).uniform(400000)
    on = kernels.telegraph(u, 0.003, 0.005, True)
    assert abs(on.mean() - 0.625) < 0.02


def test_pair_delay_counts_against_brute_force():
    r = CounterRng(10, stream=0)
    sets = [(np.sort(r.uniform(150) * 1e5), np.sort(r.uniform(170) * 1e5),
             -40000.0, 800.0, 100)]
    r = CounterRng(31, stream=0)
    sets.append((np.sort(r.uniform(300) * 1e7), np.sort(r.uniform(300) * 1e7),
                 -5e6, 1e4, 1000))
    for starts, stops, lo, w, nb in sets:
        got = kernels.pair_delay_counts(starts, stops, lo, w, nb)
        want = _pair_delay_oracle(starts, stops, lo, w, nb)
        assert np.array_equal(got, want)
        assert got.sum() == want.sum()


def test_pair_delay_counts_top_edge_in_last_bin():
    # one ulp below the top edge: d < hi, but (d - lo) / w rounds to nbins
    starts = np.array([0.0])
    stops = np.array([np.nextafter(250250.0, -np.inf)])
    got = kernels.pair_delay_counts(starts, stops, -250250.0, 500.0, 1001)
    assert got[-1] == 1 and got.sum() == 1
    assert np.array_equal(got, _pair_delay_oracle(starts, stops, -250250.0, 500.0, 1001))


def test_pair_delay_counts_top_edge_pairs_add_to_ordinary_last_bin_pairs():
    # four starts each with a stop one ulp below start + hi, whose quotients
    # round to nbins, and two pairs inside the last bin proper: all six land there
    starts = np.array([0.0, 1000.0, 2048.0, 4096.0])
    edge = [np.nextafter(a + 250250.0, -np.inf) for a in starts]
    stops = np.sort(np.array(edge + [starts[0] + 250000.0, starts[1] + 250000.0]))
    got = kernels.pair_delay_counts(starts, stops, -250250.0, 500.0, 1001)
    assert got[-1] == 6
    assert np.array_equal(got, _pair_delay_oracle(starts, stops, -250250.0, 500.0, 1001))


def _sorted_search(a, x, strict=False):
    """first_true over sorted `a` for each query in `x`: first i with a[i] >= x (> if strict)."""
    a, x = np.asarray(a, dtype=float), np.asarray(x, dtype=float)
    pred = (lambda i: a[i] > x) if strict else (lambda i: a[i] >= x)
    return kernels.first_true(pred, len(a), len(x))


def test_first_true_edge_cases():
    got = _sorted_search([], [1.0, -1.0])  # n = 0: every answer is n
    assert got.dtype == np.intp and got.tolist() == [0, 0]
    assert _sorted_search([1.0, 2.0], []).tolist() == []  # m = 0
    assert _sorted_search([1.0, 2.0, 3.0], [5.0, 3.5]).tolist() == [3, 3]  # all false
    assert _sorted_search([1.0, 2.0, 3.0], [0.0, 1.0]).tolist() == [0, 0]  # all true
    assert _sorted_search([1.0], [0.5, 1.0, 1.5]).tolist() == [0, 0, 1]
    assert _sorted_search([1.0, 1.0, 1.0], [1.0], strict=True).tolist() == [3]


@given(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-1e3, 1e3), max_size=70),
       st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-2e3, 2e3), max_size=10),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_property_first_true_matches_linear_scan(raw, x, strict):
    # ties and duplicates come from the sampled values; every n from 0 to 70 is reachable
    a = np.sort(np.array(raw, dtype=float))
    want = [next((i for i, v in enumerate(a) if (v > q if strict else v >= q)), len(a))
            for q in x]
    assert _sorted_search(a, x, strict).tolist() == want


def test_dead_time_mask_enforces_spacing():
    times = np.array([0.0, 10.0, 30.0, 31.0, 90.0, 100.0])
    mask = kernels.dead_time_mask(times, 25.0)
    kept = times[mask]
    assert np.all(np.diff(kept) >= 25.0)
    assert mask[0]  # first event always kept
    assert kept.tolist() == [0.0, 30.0, 90.0]


def test_dead_time_mask_against_greedy_oracle():
    times = np.sort(CounterRng(31, stream=0).uniform(2000) * 1e8)
    assert kernels.dead_time_mask(times, 1e5).tolist() == _dead_time_oracle(times, 1e5)


def test_dead_time_zero_keeps_all():
    times = np.sort(CounterRng(11, stream=0).uniform(100))
    assert kernels.dead_time_mask(times, 0.0).all()


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=50),
       st.floats(min_value=0, max_value=1e5, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_property_dead_time_spacing(raw, dead):
    times = np.sort(np.array(raw))
    kept = times[kernels.dead_time_mask(times, dead)]
    if len(kept) > 1:
        assert np.all(np.diff(kept) >= dead)


@given(st.lists(st.integers(0, 5), max_size=60), st.integers(0, 4),
       st.sampled_from([0.5, 1.0, 0.1, 3.7]))
@settings(max_examples=300, deadline=None)
def test_property_dead_time_mask_matches_greedy_oracle(steps, dead, unit):
    # integer steps of one unit: ties (step 0) and gaps of exactly the dead time
    times = np.cumsum(np.array(steps, dtype=np.int64)) * unit
    dead_time = dead * unit
    assert kernels.dead_time_mask(times, dead_time).tolist() == \
        _dead_time_oracle(times, dead_time)


# Probabilities shared by both transitions, so that p_on_off < p_off_on,
# p_on_off == p_off_on and p_on_off > p_off_on all occur, and uniforms that
# land exactly on a probability.
_PROBS = [0.0, 0.1, 0.3, 0.5, 1.0]


@given(st.lists(st.sampled_from(_PROBS[:-1]) | st.floats(0.0, 1.0, exclude_max=True),
                max_size=60),
       st.sampled_from(_PROBS) | st.floats(0.0, 1.0),
       st.sampled_from(_PROBS) | st.floats(0.0, 1.0),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_property_telegraph_matches_step_oracle(u, p_on_off, p_off_on, start_on):
    got = kernels.telegraph(np.array(u, dtype=float), p_on_off, p_off_on, start_on)
    assert got.dtype == np.int8
    assert got.tolist() == _telegraph_oracle(u, p_on_off, p_off_on, start_on)


@st.composite
def _pair_delay_case(draw):
    """Sorted starts and stops (duplicates allowed, either may be empty) with
    stops on and one ulp either side of start + edge, for the edges lo, hi
    and the interior bin edges; from a start at 0 that is the delay itself."""
    w = draw(st.sampled_from([1.0, 0.1, 7.3, 500.0]))
    nb = draw(st.integers(1, 12))
    lo = draw(st.sampled_from([0.0, -0.5 * w * nb, -(nb // 2 + 0.5) * w])
              | st.floats(-1e4, 1e4))
    edges = [lo + w * i for i in range(nb + 1)]
    clicks = st.sampled_from([0.0, 1.0, 12.5, 3.3e5]) | st.floats(-1e6, 1e6)
    starts = draw(st.lists(clicks, max_size=12))
    stops = draw(st.lists(clicks, max_size=12))
    for a in draw(st.lists(st.sampled_from(starts), max_size=12)) if starts else []:
        b = a + draw(st.sampled_from(edges))
        side = draw(st.sampled_from([-np.inf, None, np.inf]))
        stops.append(b if side is None else float(np.nextafter(b, side)))
    return np.sort(np.array(starts)), np.sort(np.array(stops)), lo, w, nb


@given(_pair_delay_case())
# the stop lies below start + lo, yet stop - start rounds up to lo, so the pair counts
@example((np.array([1148.4]), np.array([np.nextafter(1148.4 - 750.0, -np.inf)]),
          -750.0, 500.0, 3))
# |lo| far above w * nb: hi = lo + w * nb rounds (to 2**53 + 2), and the
# delays d - lo in range stay below nbins all the same
@example((np.array([-2.0, -1.0, 0.0, 0.5, 1.0]),
          np.array([2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**53 + 4]),
          2.0**53, 0.75, 3))
@settings(max_examples=300, deadline=None)
def test_property_pair_delay_counts_matches_brute_force(case):
    starts, stops, lo, w, nb = case
    got = kernels.pair_delay_counts(starts, stops, lo, w, nb)
    assert np.array_equal(got, _pair_delay_oracle(starts, stops, lo, w, nb))
