import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import j1

from cpfsim.locking import (
    CALIBRATION_PERIODS,
    MAX_LOCK_SAMPLES,
    WARMUP_PERIODS,
    DriftModel,
    LockParams,
    LockTrace,
    PidGains,
    PidState,
    calibrate_gain,
    check_lock_run,
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


def test_param_validation():
    with pytest.raises(ValueError):
        LockParams(mod_depth=-1.0).validate()
    with pytest.raises(ValueError):
        LockParams(mod_depth=0.0).validate()
    with pytest.raises(ValueError):
        LockParams(lpf_cutoff=5000.0).validate()
    with pytest.raises(ValueError):
        LockParams(dt=1.0).validate()
    with pytest.raises(ValueError, match="whole samples"):
        LockParams(dt=LockParams().mod_period / 63.42).validate()
    # 63.42 samples per period: the carrier residue of a step that spans no
    # whole period beat with the step index and threw this loop off its lock
    found = LockParams(mod_depth=0.0633, mod_freq=7126.35, demod_phase=-0.368,
                       e0h=1.188, e0v=1.080, dt=1.39014e-5)
    with pytest.raises(ValueError, match=f"nearest dt that does is {found.mod_period / 63!r} s"):
        found.validate()
    replace(found, dt=found.mod_period / 63).validate()
    # without both beams nothing interferes: the error signal is 0 (or rounding)
    for e0h, e0v in ((0.0, 0.0), (0.0, 1.0), (1.0, -0.0), (1e-170, 1e-170),
                     (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="e0h and e0v must be finite and non-zero"):
            LockParams(e0h=e0h, e0v=e0v).validate()
    LockParams(e0h=-0.5, e0v=2.0).validate()
    with pytest.raises(ValueError):
        DriftModel(kind="brownian").validate()
    for magnitude in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="drift magnitude must be non-negative and finite"):
            DriftModel(magnitude=magnitude).validate()
    for step_time in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="drift step_time must be finite"):
            DriftModel("step", step_time=step_time).validate()
    with pytest.raises(ValueError):
        PidGains(out_min=1.0, out_max=-1.0).validate()


@pytest.mark.parametrize("params", [
    LockParams(demod_phase=5e-324),  # sin(demod_phase) != 0, gain * sin underflows
    LockParams(e0h=1e-161, e0v=1e-161),  # e0h e0v != 0, the calibrated gain is 0
    LockParams(e0h=1e-160, e0v=1e-160),  # a gain of -2.5e-323 over a floor that underflows
    LockParams(e0h=1e-158, e0v=1e-158),  # the floor 1e-8 x 5e-317 underflows to 0
])
def test_vanishing_error_slope_is_refused(params):
    """Settings that validate but leave a calibrated error slope of exactly
    0 are refused before the loop divides by it."""
    params.validate()
    with pytest.raises(ValueError, match="calibrated error slope is 0"):
        simulate_lock(params, DriftModel(), PidGains(), duration=0.05)


def test_smallest_fields_with_a_floor_lock():
    """At e0h = e0v = 1e-157 the floor 1e-8 x the DC level is ~5e-323, still
    above 0: the slope clears it and the servo follows the unit-field one."""
    tiny, unit = (simulate_lock(LockParams(e0h=e, e0v=e), DriftModel(), PidGains(),
                                duration=0.05) for e in (1e-157, 1.0))
    assert not tiny.diverged
    assert np.max(np.abs(tiny.zeta_closed - unit.zeta_closed)) < 1e-6


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


# ---------------------------------------------------------------------------
# Differential reference: the per-sample filter and servo loop that the
# closed-form step replaced, kept as they were apart from names and the clock.
# They sample each modulation period at the same times j dt (dt divides the
# period, so the carrier is exactly the same in real arithmetic); a clock
# running to 4 s carries ~1e-12 rad of rounding in Omega t.


class ReferenceLpf:
    """First-order IIR low-pass, y += alpha (x - y), one sample at a time."""

    def __init__(self, cutoff_hz: float, dt: float):
        rc = 1.0 / (2 * math.pi * cutoff_hz)
        self.alpha = dt / (rc + dt)
        self.y = 0.0

    def run(self, samples: np.ndarray) -> np.ndarray:
        out = np.empty_like(samples)
        y = self.y
        a = self.alpha
        for i, x in enumerate(samples):
            y += a * (x - y)
            out[i] = y
        self.y = y
        return out


def period_clock(p, n):
    """Times of n samples on the clock that restarts every modulation period."""
    return p.sample_dt * (np.arange(n) % p.samples_per_period)


def reference_demodulate_error(samples, p):
    samples = np.asarray(samples, dtype=float)
    dt = p.sample_dt
    per_period = p.samples_per_period
    n_periods = len(samples) // per_period
    if n_periods < 10:
        raise ValueError(f"trace spans {n_periods} modulation periods, need at least 10")
    t = period_clock(p, len(samples))
    mixed = samples * np.cos(p.mod_freq * t + p.demod_phase)
    filtered = ReferenceLpf(p.cutoff_hz, dt).run(mixed)
    tail_periods = max(n_periods // 4, 1)
    tail = filtered[len(samples) - tail_periods * per_period:]
    return float(np.mean(tail))


def reference_calibrate_gain(p):
    quad = replace(p, demod_phase=math.pi / 2)
    n = CALIBRATION_PERIODS * quad.samples_per_period
    return reference_demodulate_error(intensity(period_clock(quad, n), math.pi / 2, quad), quad)


def reference_simulate_lock(p, drift, gains, duration=4.0, setpoint=0.0,
                            seed=0, zeta0=0.0, along=None):
    """The per-sample loop; given ``along``, it takes each step's closed-loop
    phase from there instead of from its own actuator."""
    check_lock_run(p, duration)
    drift.validate()
    gains.validate()
    dt = p.sample_dt
    per_period = p.samples_per_period
    control_dt = per_period * dt
    n_steps = max(int(duration / control_dt), 1)
    rng = np.random.default_rng(seed)
    drift_path = drift.path(n_steps, control_dt, rng)

    gain = reference_calibrate_gain(p)
    offset = gain * math.sin(setpoint) * math.sin(p.demod_phase)
    slope = gain * math.sin(p.demod_phase)

    lpf = ReferenceLpf(p.mod_freq / (2 * math.pi * 8.0), dt)
    pid = PidState()
    actuation = 0.0
    sub_t = dt * np.arange(per_period)

    t_out = np.empty(n_steps)
    zeta_open = np.empty(n_steps)
    zeta_closed = np.empty(n_steps)
    error_out = np.empty(n_steps)
    act_out = np.empty(n_steps)
    diverged = False
    for k in range(n_steps):
        t0 = k * control_dt
        open_phase = zeta0 + drift_path[k]
        closed_phase = open_phase + actuation if along is None else along[k]
        # on the period clock: every period samples the carrier at sub_t
        trace = intensity(sub_t, closed_phase, p)
        mixed = trace * np.cos(p.mod_freq * sub_t + p.demod_phase)
        filtered = lpf.run(mixed)
        raw_error = float(np.mean(filtered))
        norm_error = (raw_error - offset) / slope
        if k >= WARMUP_PERIODS:
            pid, u = pid_update(pid, -norm_error, control_dt, gains)
            actuation = u
        t_out[k] = t0
        zeta_open[k] = open_phase
        zeta_closed[k] = closed_phase
        error_out[k] = raw_error
        act_out[k] = actuation
        if not math.isfinite(actuation) or abs(closed_phase - setpoint) > 10.0:
            diverged = True
    return LockTrace(t_out, zeta_open, zeta_closed, error_out, act_out,
                     setpoint, diverged)


def reference_csv(trace):
    """The per-value f-string formatter the block writer replaced."""
    lines = ["t,zeta_open,zeta_closed,error,actuation"]
    for row in zip(trace.t, trace.zeta_open, trace.zeta_closed,
                   trace.error, trace.actuation):
        lines.append(",".join(f"{x:.12g}" for x in row))
    return "\n".join(lines) + "\n"


@st.composite
def lock_params(draw, strong=False):
    """Locking-beam parameters: 500-1500 Hz modulation, default or drawn
    whole number of samples per period, default or drawn filter corner.

    The modulation depth stays where the error signal exists: at depth 0 the
    calibrated gain is filter residue (~1e-11) and both loops amplify
    roundoff into rail-to-rail actuation.  ``strong`` keeps the error slope
    G sin(demod_phase) large against the carrier ripple of the servo filter,
    which otherwise kicks the loop across the fringe."""
    freq_hz = draw(st.floats(500.0, 1500.0))
    per_period = draw(st.none() | st.integers(11, 90))
    cutoff = draw(st.none() | st.floats(1.0, freq_hz / 4))
    depth = (0.15, 0.5) if strong else (0.05, 0.5)
    tau = (0.6, 2.5) if strong else (0.3, 2.8)
    return LockParams(
        mod_depth=draw(st.floats(*depth)),
        mod_freq=2 * math.pi * freq_hz,
        demod_phase=draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(*tau)),
        e0h=draw(st.floats(0.5, 1.5)),
        e0v=draw(st.floats(0.5, 1.5)),
        lpf_cutoff=cutoff,
        dt=None if per_period is None else 1.0 / (freq_hz * per_period),
    )


DRIFT_KINDS = st.sampled_from(["random-walk", "sinusoidal", "step"])
#: Actuator limits; the two tight ones saturate under the drawn drifts.
LIMITS = st.sampled_from([0.02, 0.2, 50.0])


def assert_same_run(got, want, p, zeta_tol=1e-13):
    """Sample times and open-loop phase bitwise; phases to ``zeta_tol`` rad;
    the error to 1e-15 at unit fields, scaled with the detected intensity."""
    assert np.array_equal(got.t, want.t)
    assert np.array_equal(got.zeta_open, want.zeta_open)
    assert np.max(np.abs(got.zeta_closed - want.zeta_closed)) <= zeta_tol
    assert np.max(np.abs(got.actuation - want.actuation)) <= zeta_tol
    error_tol = 1e-15 * max(1.0, (p.e0h ** 2 + p.e0v ** 2) / 2)
    assert np.max(np.abs(got.error - want.error)) <= error_tol


@settings(max_examples=30, deadline=None)
@given(p=lock_params(strong=True), kind=DRIFT_KINDS,
       magnitude=st.floats(0.0, 0.5), kp=st.floats(0.15, 0.45),
       ki=st.floats(150.0, 350.0), limit=LIMITS,
       setpoint=st.floats(-0.3, 0.3), zeta0=st.floats(-0.5, 0.5),
       duration=st.floats(0.02, 0.25), seed=st.integers(0, 2**16))
def test_closed_loop_matches_per_sample_loop(p, kind, magnitude, kp, ki, limit,
                                             setpoint, zeta0, duration, seed):
    """Both loops run free from the same inputs.  Gains, drift and setpoint
    stay where the loop locks: a loop pushed across the fringe or unstable
    amplifies roundoff without bound (see the step-by-step test)."""
    drift = DriftModel(kind, magnitude, step_time=duration / 3)
    gains = PidGains(kp, ki, 0.0, out_min=-limit, out_max=limit)
    kwargs = dict(duration=duration, setpoint=setpoint, seed=seed, zeta0=zeta0)
    got = simulate_lock(p, drift, gains, **kwargs)
    want = reference_simulate_lock(p, drift, gains, **kwargs)
    assert got.diverged == want.diverged
    if not want.diverged:
        assert_same_run(got, want, p)


@settings(max_examples=30, deadline=None)
@given(p=lock_params(), kind=DRIFT_KINDS, magnitude=st.floats(0.0, 1.5),
       kp=st.floats(-6.0, 0.6), ki=st.floats(-5000.0, 400.0),
       kd=st.sampled_from([0.0, 1e-4]), limit=LIMITS,
       setpoint=st.floats(-1.0, 1.0), zeta0=st.floats(-0.5, 0.5),
       duration=st.floats(0.02, 0.25), seed=st.integers(0, 2**16))
def test_servo_step_matches_per_sample_loop(p, kind, magnitude, kp, ki, kd,
                                            limit, setpoint, zeta0, duration,
                                            seed):
    """Every step, on any loop: the per-sample loop, fed the closed-form
    run's closed-loop phases, gives the same error and actuation."""
    drift = DriftModel(kind, magnitude, period=0.1, step_time=duration / 3)
    gains = PidGains(kp, ki, kd, out_min=-limit, out_max=limit)
    kwargs = dict(duration=duration, setpoint=setpoint, seed=seed, zeta0=zeta0)
    got = simulate_lock(p, drift, gains, **kwargs)
    want = reference_simulate_lock(p, drift, gains, along=got.zeta_closed, **kwargs)
    assert got.diverged == want.diverged
    # the PID scales an error difference by up to |kp| + |ki| t into actuation
    assert_same_run(got, want, p, zeta_tol=1e-13 * max(1.0, abs(kp) + abs(ki) * duration))


@settings(max_examples=30, deadline=None)
@given(p=lock_params(), kind=DRIFT_KINDS, magnitude=st.floats(0.0, 1.5),
       kp=st.floats(-6.0, 0.6), ki=st.floats(-5000.0, 400.0),
       kd=st.sampled_from([0.0, -0.0, 1e-4, -3e-4]), limit=LIMITS,
       setpoint=st.floats(-1.0, 1.0), duration=st.floats(0.02, 0.25),
       seed=st.integers(0, 2**16))
@example(p=LockParams(), kind="step", magnitude=0.0, kp=0.0, ki=0.0, kd=0.0,
         limit=0.2, setpoint=-0.5, duration=0.05, seed=0)  # actuation -0.0 + 0.0
@example(p=LockParams(), kind="step", magnitude=0.0, kp=0.0, ki=0.0, kd=-0.0,
         limit=0.2, setpoint=-0.5, duration=0.05, seed=0)
def test_inline_servo_step_is_pid_update(p, kind, magnitude, kp, ki, kd, limit,
                                         setpoint, duration, seed):
    """simulate_lock runs pid_update inline: replaying pid_update over the
    run's normalized errors from step WARMUP_PERIODS on gives its actuation
    column bit for bit, the sign of every zero included."""
    drift = DriftModel(kind, magnitude, period=0.1, step_time=duration / 3)
    gains = PidGains(kp, ki, kd, out_min=-limit, out_max=limit)
    tr = simulate_lock(p, drift, gains, duration=duration, setpoint=setpoint, seed=seed)
    gain = calibrate_gain(p)
    offset = gain * math.sin(setpoint) * math.sin(p.demod_phase)
    slope = gain * math.sin(p.demod_phase)
    control_dt = p.samples_per_period * p.sample_dt
    state, want = PidState(), [0.0] * WARMUP_PERIODS
    for raw_error in tr.error[WARMUP_PERIODS:].tolist():
        state, u = pid_update(state, -((raw_error - offset) / slope), control_dt, gains)
        want.append(u)
    want = np.array(want[:len(tr.actuation)])
    assert np.array_equal(tr.actuation, want)
    assert tr.actuation.tobytes() == want.tobytes()


@settings(max_examples=15, deadline=None)
@given(p=lock_params(), magnitude=st.floats(0.0, 1.0),
       kp=st.floats(-6.0, -2.0), ki=st.floats(-5000.0, -2000.0),
       duration=st.floats(0.1, 0.25), seed=st.integers(0, 2**16))
@example(p=LockParams(mod_depth=0.375, mod_freq=7294.778141635499, demod_phase=1.0,
                      e0h=1.0, e0v=0.5, dt=7.830240388379923e-05),
         magnitude=0.0, kp=-2.25, ki=-3583.0, duration=0.25, seed=0)
def test_divergence_flag_matches_per_sample_loop(p, magnitude, kp, ki,
                                                 duration, seed):
    """An unstable loop amplifies roundoff (kp=-5, ki=-4000 ends 80 rad
    apart; the example's two free runs part at step 88 and only one crosses
    the threshold), so the flag is compared along the closed-form run's
    phases."""
    drift = DriftModel("random-walk", magnitude)
    gains = PidGains(kp, ki)
    got = simulate_lock(p, drift, gains, duration=duration, seed=seed)
    want = reference_simulate_lock(p, drift, gains, duration=duration, seed=seed,
                                   along=got.zeta_closed)
    assert got.diverged == want.diverged


def test_closed_form_step_matches_default_runs():
    for kind in ("random-walk", "sinusoidal", "step"):
        drift = DriftModel(kind, 0.5, step_time=1.0)
        got = simulate_lock(LockParams(), drift, PidGains(), duration=4.0, seed=1)
        want = reference_simulate_lock(LockParams(), drift, PidGains(),
                                       duration=4.0, seed=1)
        assert not got.diverged and not want.diverged
        assert_same_run(got, want, LockParams())


def test_overflowing_actuator_flags_divergence():
    """Unbounded limits let the actuator overflow to an infinite phase; the
    run goes on with nan, as the per-sample loop's numpy cosine did."""
    gains = PidGains(kp=1.7e308, ki=1.7e308, out_min=-math.inf, out_max=math.inf)
    tr = simulate_lock(LockParams(), DriftModel(), gains, duration=0.05)
    assert tr.diverged and np.isinf(tr.zeta_closed).any()
    with np.errstate(invalid="ignore", over="ignore"):
        assert reference_simulate_lock(LockParams(), DriftModel(), gains,
                                       duration=0.05).diverged


@settings(max_examples=40, deadline=None)
@given(p=lock_params(), zeta=st.floats(-math.pi, math.pi))
def test_measured_error_matches_filter(p, zeta):
    """The period recursion against the per-sample filter run over a
    CALIBRATION_PERIODS trace at fixed phase."""
    samples = intensity(period_clock(p, CALIBRATION_PERIODS * p.samples_per_period), zeta, p)
    assert abs(measured_error(zeta, p) - reference_demodulate_error(samples, p)) <= 1e-14


def test_calibrated_gain_matches_filter():
    for p in (LockParams(), LockParams(mod_depth=0.37, mod_freq=2 * math.pi * 500),
              LockParams(lpf_cutoff=5.0), LockParams(dt=LockParams().mod_period / 37)):
        assert abs(calibrate_gain(p) - reference_calibrate_gain(p)) <= 1e-14


def test_lock_memory_is_bounded():
    """The servo constants are formed once, for one modulation period, so a
    long run holds little beyond its five output columns."""
    args = (LockParams(), DriftModel(), PidGains())
    simulate_lock(*args, duration=0.1)
    tracemalloc.start()
    try:
        simulate_lock(*args, duration=12.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_csv_matches_per_value_formatter():
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-300, 1e16,
              0.1 + 0.2, -1.5e-7, 123456789012345.0, 2.0 ** 60]
    rng = np.random.default_rng(3)
    n = 2500  # spans more than two of the writer's row blocks
    columns = [rng.choice(values, n) * rng.choice([1.0, rng.normal()], n)
               for _ in range(5)]
    for k, v in enumerate(values):
        columns[k % 5][k] = v
    trace = LockTrace(*columns, setpoint=0.0, diverged=False)
    assert trace.to_csv() == reference_csv(trace)
    empty = LockTrace(*(np.empty(0) for _ in range(5)), setpoint=0.0, diverged=False)
    assert empty.to_csv() == reference_csv(empty)
    tr = simulate_lock(LockParams(), DriftModel(), PidGains(), duration=0.2)
    assert tr.to_csv() == reference_csv(tr)
