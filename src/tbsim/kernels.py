"""Hot counting kernels, vectorised with NumPy.

Kernels are RNG-free: callers pass in pre-drawn uniform arrays from
``tbsim.rng``, so a kernel's output is a pure function of its inputs.
"""

from __future__ import annotations

import numpy as np

# The kernels are NumPy only.  The constant stays because the benchmark's
# environment line reports it (perfbench/worker.py).
USE_NUMBA = False


def telegraph(uniforms, p_on_to_off, p_off_to_on, start_on):
    """Two-state Markov chain; one uniform per step decides the transition.

    Returns an int8 array: 1 = ON, 0 = OFF; element i is the state before
    step i.  The stationary ON fraction is p_off_on / (p_on_off + p_off_on).

    Each step maps the state by one of three maps: it flips when
    ``u < min(p)`` (both transitions fire), is set to the state the larger
    probability leads to when ``min(p) <= u < max(p)``, and is kept
    otherwise.  The state before step i is then the value of the last set
    (or ``start_on``) XOR the parity of the flips since, both prefix scans.
    """
    u = np.asarray(uniforms)
    n = len(u)
    steps = u[:-1]  # the last step only affects the state after the output
    p_lo, p_hi = min(p_on_to_off, p_off_to_on), max(p_on_to_off, p_off_to_on)
    set_to = 1 if p_off_to_on > p_on_to_off else 0
    start = 1 if start_on else 0

    # parity[i]: number of flips among steps 0..i-1, mod 2
    parity = np.zeros(n, dtype=np.uint8)
    np.less(steps, p_lo, out=parity[1:])
    np.bitwise_xor.accumulate(parity, out=parity)

    # last[i]: the latest j <= i whose state step j - 1 set, or 0 if none
    last = np.zeros(n, dtype=np.intp)
    sets = np.flatnonzero((steps >= p_lo) & (steps < p_hi)) + 1
    last[sets] = sets
    np.maximum.accumulate(last, out=last)

    base = np.where(last > 0, np.uint8(set_to), np.uint8(start))
    return (base ^ parity ^ parity[last]).view(np.int8)


def first_true(pred, n, m):
    """First index in [0, n] at which `pred` holds, for each of m queries.

    ``pred(idx)`` maps one index per query (intp, length m, each below n) to
    one bool per query, false and then true along the indices; n means it
    holds nowhere.  The predicate itself is evaluated, so no rounded bound
    can shift the answer.  Every query takes ceil(log2 n) + 1 steps (the
    branch-free lower bound of Khuong & Morin, ACM JEA 22 (2017)).
    """
    base = np.zeros(m, dtype=np.intp)
    if n == 0:
        return base
    size = n
    while size > 1:  # the answer lies in [base, base + size]
        half = size // 2
        base += half * ~pred(base + half)
        size -= half
    base += ~pred(base)
    return base


def pair_delay_counts(starts, stops, lo, bin_width, nbins):
    """Histogram of stop - start delays over all pairs with delay in range.

    Both inputs must be sorted ascending.  A pair counts when its delay
    ``d = stop - start`` (in floating point) satisfies ``lo <= d < hi``
    with ``hi = lo + bin_width * nbins``; it goes to bin
    ``int((d - lo) / bin_width)``, and to the last bin where that quotient
    rounds up to ``nbins`` for a delay just below ``hi``.

    ``d`` does not decrease along the sorted stops, so each start's pairs
    are one contiguous run of stops, from the first with ``d >= lo`` to the
    first with ``d >= hi`` (`first_true`).  The loop then runs over the
    offset within that run, binning one stop per start at a time
    (multi-start correlation, Wahl et al., Opt. Express 11, 3583 (2003)).
    Each offset's bins are added in place (`np.add.at`) into ``nbins + 1``
    counters, the extra one catching the quotients that round up to
    ``nbins``; it is folded into the last bin once, at the end.  No bin
    index is negative: `first_true` selects ``d >= lo`` with the same
    subtraction, so ``d - lo >= 0``.
    """
    starts = np.asarray(starts)
    stops = np.asarray(stops)
    counts = np.zeros(nbins + 1, dtype=np.int64)
    hi = lo + bin_width * nbins
    first = first_true(lambda j: stops[j] - starts >= lo, len(stops), len(starts))
    width = first_true(lambda j: stops[j] - starts >= hi, len(stops), len(starts)) - first

    # by window length, so the starts whose window reaches offset k are a suffix
    order = np.argsort(width, kind="stable")
    starts, first, width = starts[order], first[order], width[order]
    for k in range(int(width.max(initial=0))):
        a = np.searchsorted(width, k, side="right")
        idx = ((stops[first[a:] + k] - starts[a:] - lo) / bin_width).astype(np.int64)
        np.add.at(counts, idx, 1)
    counts[nbins - 1] += counts[nbins]
    return counts[:nbins]


def dead_time_mask(times, dead_time):
    """Keep-mask for a sorted single-channel time series with dead time.

    A click is kept when ``t - last >= dead_time``, with ``last`` the latest
    kept click (the first click is always kept).  A click that far after
    its predecessor is kept whatever came before: it heads a chain of kept
    clicks that ends at the next head.  Each link is the first later click
    before that end that meets the same predicate (`first_true`), searched
    only from clicks whose successor is not a head: the chain of any other
    click ends at it.  All chains are then followed at once.
    """
    times = np.asarray(times)
    n = len(times)
    mask = np.diff(times, prepend=-np.inf) >= dead_time
    heads = np.flatnonzero(mask)
    nxt = np.arange(1, n + 1)  # the link after each click: its successor unless searched
    src = np.flatnonzero(~mask[1:])  # clicks whose successor is not a head
    t = times[src]
    nxt[src] = first_true(lambda j: (j > src) & (times[j] - t >= dead_time), n, len(src))
    cur = heads
    end = np.append(heads[1:], n)
    while len(cur):
        cur = nxt[cur]
        live = cur < end
        cur, end = cur[live], end[live]
        mask[cur] = True
    return mask
