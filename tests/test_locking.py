import math

import numpy as np
import pytest
from scipy.special import j1

from cpfsim.errors import InsufficientTrace
from cpfsim.locking import (
    MAX_LOCK_SAMPLES,
    DriftModel,
    LockParams,
    PidGains,
    PidState,
    calibrate_gain,
    check_lock_run,
    demodulate_error,
    intensity,
    measured_error,
    pid_update,
    simulate_lock,
)


def direct_field_intensity(t, zeta, p):
    """Oracle: combine the two complex field components on the diagonal
    polarizer and detect, without using the closed form."""
    e_h = p.e0h * np.exp(1j * p.mod_depth * np.sin(p.mod_freq * t))
    e_v = p.e0v * np.exp(1j * zeta)
    e_out = (e_h + e_v) / math.sqrt(2)
    return 0.5 * np.abs(e_out) ** 2


def test_intensity_matches_direct_fields(rng):
    p = LockParams(mod_depth=0.37, e0h=1.3, e0v=0.8)
    for _ in range(50):
        t = rng.uniform(0, 1e-2)
        z = rng.uniform(-math.pi, math.pi)
        assert abs(intensity(t, z, p) - direct_field_intensity(t, z, p)) < 1e-12


def test_intensity_limits():
    p = LockParams(mod_depth=0.0)
    assert abs(intensity(0.3, 0.0, p) - 1.0) < 1e-12   # constructive
    assert abs(intensity(0.7, math.pi, p)) < 1e-12     # destructive
    ts = np.linspace(0, 1e-2, 100)
    assert np.max(np.abs(intensity(ts, 0.0, p) - 1.0)) < 1e-12


def test_first_harmonic_amplitude_is_bessel():
    p = LockParams(mod_depth=0.2)
    dt = p.sample_dt
    n = 64 * 256
    t = dt * np.arange(n)
    trace = intensity(t, math.pi / 2, p)
    spectrum = np.fft.rfft(trace) / n
    f_mod_bin = int(round(p.mod_freq / (2 * math.pi) * n * dt))
    measured = 2 * abs(spectrum[f_mod_bin])
    expected = 0.5 * p.e0h * p.e0v * 2 * j1(0.2) * math.sin(math.pi / 2)
    assert abs(measured - expected) / expected < 1e-6


def test_demodulated_error_zeros():
    p = LockParams()
    assert abs(measured_error(0.0, p)) < 1e-9
    p0 = LockParams(demod_phase=0.0)
    assert abs(measured_error(1.0, p0)) < 1e-9


def test_demodulated_error_antisymmetry():
    p = LockParams()
    e_plus = measured_error(0.6, p)
    e_minus = measured_error(-0.6, p)
    assert abs(e_plus + e_minus) < 1e-9
    p_neg = LockParams(demod_phase=-p.demod_phase)
    assert abs(measured_error(0.6, p_neg) + e_plus) < 1e-9


def test_demodulation_matches_sine_product_grid():
    p = LockParams()
    gain = calibrate_gain(p)
    assert gain < 0  # sign fixed by the mixer convention
    for zeta in (-1.1, -0.5, 0.4, 1.2):
        for tau in (-1.0, 0.6, 1.4):
            got = measured_error(zeta, LockParams(demod_phase=tau))
            want = gain * math.sin(zeta) * math.sin(tau)
            assert abs(got - want) / abs(want) < 0.01


def test_gain_tracks_bessel_theory():
    for depth in (0.05, 0.1, 0.2):
        g = calibrate_gain(LockParams(mod_depth=depth))
        assert abs(g + 0.5 * j1(depth)) < 2e-4


def test_insufficient_trace():
    p = LockParams()
    with pytest.raises(InsufficientTrace):
        demodulate_error(np.ones(5 * 64), p)


def test_param_validation():
    with pytest.raises(ValueError):
        LockParams(mod_depth=-1.0).validate()
    with pytest.raises(ValueError):
        LockParams(lpf_cutoff=5000.0).validate()
    with pytest.raises(ValueError):
        LockParams(dt=1.0).validate()
    with pytest.raises(ValueError):
        DriftModel(kind="brownian").validate()
    with pytest.raises(ValueError):
        PidGains(out_min=1.0, out_max=-1.0).validate()


def test_lock_work_is_bounded():
    """A run needs a positive duration of at most MAX_LOCK_SAMPLES samples;
    simulate_lock refuses the rest before it allocates anything."""
    p = LockParams()
    check_lock_run(p, 4.0)
    check_lock_run(p, 0.999 * MAX_LOCK_SAMPLES * p.sample_dt)
    for duration in (0.0, -1.0, 1e9, 1.001 * MAX_LOCK_SAMPLES * p.sample_dt):
        with pytest.raises(ValueError, match="duration"):
            simulate_lock(p, DriftModel(), PidGains(), duration=duration)


def test_pid_basics():
    gains = PidGains(kp=2.0, ki=0.0, kd=0.0)
    state, u = pid_update(PidState(), 0.0, 0.01, gains)
    assert u == 0.0
    state, u = pid_update(PidState(), 0.5, 0.01, gains)
    assert abs(u - 1.0) < 1e-12
    with pytest.raises(ValueError):
        pid_update(PidState(), 0.1, 0.0, gains)


def test_pid_anti_windup_clamps():
    gains = PidGains(kp=0.0, ki=100.0, kd=0.0, out_min=-1.0, out_max=1.0)
    state = PidState()
    for _ in range(100):
        state, u = pid_update(state, 1.0, 0.1, gains)
    assert u == 1.0
    # integrator held at the rail: recovery is immediate once error flips
    state, u = pid_update(state, -1.0, 0.1, gains)
    assert u < 1.0


def test_zero_drift_zero_gains_is_static():
    p = LockParams()
    trace = simulate_lock(p, DriftModel("random-walk", 0.0),
                          PidGains(0.0, 0.0, 0.0), duration=0.25,
                          seed=0, zeta0=0.3)
    assert np.allclose(trace.zeta_open, 0.3)
    assert np.allclose(trace.zeta_closed, 0.3)


def test_lock_suppresses_random_walk():
    p = LockParams()
    drift = DriftModel("random-walk", 0.5)
    closed, opened = [], []
    for seed in range(6):
        tr = simulate_lock(p, drift, PidGains(), duration=4.0, seed=seed)
        assert not tr.diverged
        closed.append(tr.rms_closed())
        opened.append(tr.rms_open())
    assert all(c < 0.05 for c in closed)
    assert all(c < o for c, o in zip(closed, opened))


def test_lock_to_arbitrary_setpoint():
    p = LockParams()
    tr = simulate_lock(p, DriftModel("random-walk", 0.3), PidGains(),
                       duration=4.0, seed=2, setpoint=0.7)
    tail = tr.zeta_closed[len(tr.zeta_closed) // 2:]
    assert abs(float(np.mean(tail)) - 0.7) < 0.05
    # error signal crosses zero exactly at the setpoint
    gain = calibrate_gain(p)
    offset = gain * math.sin(0.7) * math.sin(p.demod_phase)
    assert abs(measured_error(0.7, p) - offset) < 1e-3 * abs(gain)


def test_slow_sinusoid_attenuated():
    p = LockParams()
    tr = simulate_lock(p, DriftModel("sinusoidal", 0.5, period=1.0),
                       PidGains(), duration=4.0, seed=0)
    assert tr.rms_closed() < 0.25 * tr.rms_open()


def test_step_response_settles():
    p = LockParams()
    tr = simulate_lock(p, DriftModel("step", 0.4, step_time=1.0),
                       PidGains(), duration=3.0, seed=0)
    after = tr.zeta_closed[np.searchsorted(tr.t, 1.12):]
    assert np.max(np.abs(after)) < 0.05


def test_unstable_gains_flag_divergence():
    p = LockParams()
    tr = simulate_lock(p, DriftModel("random-walk", 0.2),
                       PidGains(kp=-5.0, ki=-4000.0), duration=1.0, seed=0)
    assert tr.diverged


def test_trace_csv_columns():
    p = LockParams()
    tr = simulate_lock(p, DriftModel("random-walk", 0.1), PidGains(),
                       duration=0.2, seed=0)
    header = tr.to_csv().splitlines()[0]
    assert header == "t,zeta_open,zeta_closed,error,actuation"
