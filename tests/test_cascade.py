"""Cascade emission sampling: parameter validation, telegraph statistics,
lifetime statistics, and determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbsim.cascade import (EmitterParams, PulseTrain, blinking_telegraph,
                           merge_records, sample_pair_emission,
                           two_pair_prob_for_g2, two_photon_rabi_population)


def test_emitter_params_validation():
    EmitterParams()
    with pytest.raises(ValueError):
        EmitterParams(tau_xx=-1.0)
    with pytest.raises(ValueError):
        EmitterParams(blinking_on_fraction=0.0)
    with pytest.raises(ValueError):
        EmitterParams(p_emit_pi=1.5)
    with pytest.raises(ValueError):
        EmitterParams(two_pair_prob=1.0)


def test_rabi_population_closed_form():
    assert two_photon_rabi_population(0.0, 0.65) == 0.0
    assert two_photon_rabi_population(np.pi, 0.65) == pytest.approx(0.65)
    assert two_photon_rabi_population(2 * np.pi, 0.65) == pytest.approx(0.0, abs=1e-15)
    assert two_photon_rabi_population(np.pi / 2, 1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        two_photon_rabi_population(-0.1, 0.65)


def test_pulse_train_constructors():
    single = PulseTrain.single_pi()
    assert len(single.times) == 1 and single.areas[0] == pytest.approx(np.pi)
    double = PulseTrain.double(3000.0, pump_phase=0.4)
    assert double.times.tolist() == [0.0, 3000.0]
    assert double.phases.tolist() == [0.0, 0.4]
    with pytest.raises(ValueError):
        PulseTrain(np.array([5.0, 5.0]), np.array([1.0]), np.array([0.0]))


def test_telegraph_on_fraction_and_dwell():
    on = blinking_telegraph(0.625, 50.0, seed=3, cycles=400000)
    assert abs(on.mean() - 0.625) < 0.02
    # mean ON dwell: run-length average of the 1-runs
    flips = np.flatnonzero(np.diff(on) != 0) + 1
    runs = np.split(on, flips)
    on_runs = [len(r) for r in runs if r[0] == 1]
    assert abs(np.mean(on_runs) - 50.0) / 50.0 < 0.1


def test_telegraph_always_on():
    assert blinking_telegraph(1.0, 10.0, seed=0, cycles=100).all()


def test_telegraph_rejects_impossible_off_dwell():
    with pytest.raises(ValueError):
        blinking_telegraph(0.99, 2.0, seed=0, cycles=10)


def test_sampling_deterministic():
    p = EmitterParams(two_pair_prob=0.02)
    a = sample_pair_emission(p, PulseTrain.double(3000.0), seed=11, cycles=5000)
    b = sample_pair_emission(p, PulseTrain.double(3000.0), seed=11, cycles=5000)
    assert np.array_equal(a.t_xx, b.t_xx)
    assert np.array_equal(a.bin_label, b.bin_label)
    c = sample_pair_emission(p, PulseTrain.double(3000.0), seed=12, cycles=5000)
    assert not np.array_equal(a.t_xx, c.t_xx)


def test_sampling_rate_and_lifetimes():
    p = EmitterParams(blinking_mean_on_cycles=20.0)
    rec = sample_pair_emission(p, PulseTrain.single_pi(), seed=21, cycles=200000)
    rate = len(rec) / 200000
    assert abs(rate - 0.625 * 0.65) < 0.01
    d_xx = rec.t_xx - rec.cycle * p.rep_period
    d_x = rec.t_x - rec.t_xx
    assert abs(d_xx.mean() - p.tau_xx) / p.tau_xx < 0.02
    assert abs(d_x.mean() - p.tau_x) / p.tau_x < 0.02
    assert np.all(rec.t_x > rec.t_xx)


def test_double_pulse_bin_labels_balanced():
    p = EmitterParams()
    rec = sample_pair_emission(p, PulseTrain.double(3000.0, pump_phase=0.7),
                               seed=4, cycles=100000)
    late = rec.bin_label == 1
    assert abs(late.mean() - 0.5) < 0.01
    assert np.all(rec.phase[late] == 0.7)
    assert np.all(rec.phase[~late] == 0.0)
    # late-bin emission starts one pulse separation later
    offs = rec.t_xx - rec.cycle * p.rep_period
    assert offs[late].min() >= 3000.0
    assert offs[~late].min() < 300.0


def test_two_pair_prob_adds_extra_records():
    p0 = EmitterParams()
    p1 = EmitterParams(two_pair_prob=0.10)
    r0 = sample_pair_emission(p0, PulseTrain.single_pi(), seed=6, cycles=100000)
    r1 = sample_pair_emission(p1, PulseTrain.single_pi(), seed=6, cycles=100000)
    extra_frac = len(r1) / len(r0) - 1.0
    assert abs(extra_frac - 0.10) < 0.01


def test_merge_records_sorted():
    p = EmitterParams()
    a = sample_pair_emission(p, PulseTrain.single_pi(), seed=1, cycles=2000)
    b = sample_pair_emission(p, PulseTrain.single_pi(), seed=2, cycles=2000)
    m = merge_records(a, b)
    assert len(m) == len(a) + len(b)
    assert np.all(np.diff(m.t_xx) >= 0)


def test_g2_inversion_fixed_point():
    p = EmitterParams()
    for g2 in (0.005, 0.016, 0.025, 0.1):
        p2 = two_pair_prob_for_g2(g2, p)
        f = p.blinking_on_fraction * p.p_emit_pi
        implied = 2.0 * p2 / (f * (1.0 + p2) ** 2)
        assert implied == pytest.approx(g2, rel=1e-10)


@given(st.integers(min_value=0, max_value=10**9),
       st.integers(min_value=0, max_value=2000))
@settings(max_examples=30, deadline=None)
def test_property_sampling_pure_function(seed, cycles):
    p = EmitterParams()
    a = sample_pair_emission(p, PulseTrain.single_pi(), seed=seed, cycles=cycles)
    b = sample_pair_emission(p, PulseTrain.single_pi(), seed=seed, cycles=cycles)
    assert np.array_equal(a.t_x, b.t_x)
    assert len(a) <= cycles
