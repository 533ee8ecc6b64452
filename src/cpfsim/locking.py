"""Discrete-time simulation of the interferometer phase-locking loop.

A modulated locking beam carries phase ``mod_depth * sin(mod_freq * t)`` on
its H component while the V component picks up the interferometer phase
``zeta``; both interfere on a diagonal polarizer in front of the detector.
Mixing the detected intensity with ``cos(mod_freq * t + demod_phase)`` and
low-pass filtering yields an error signal proportional (for small modulation
depth) to ``sin(zeta) * sin(demod_phase)``, fed to a PID servo that drives
the compensating phase.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

#: Most samples one lock run may simulate (duration / sample_dt); the default
#: 4 s run takes 256 000.
MAX_LOCK_SAMPLES = 10**7
#: Modulation periods of the fixed-phase trace that calibrates the error
#: gain, and control periods that only settle the servo filter.
CALIBRATION_PERIODS = 200
WARMUP_PERIODS = 8
#: Rows per block when a trace is written; bounds the memory it takes.
_CSV_BLOCK_ROWS = 1024
_CSV_ROW = ",".join(["%.12g"] * 5) + "\n"


@dataclass(frozen=True)
class LockParams:
    """Locking-beam and demodulation parameters.

    mod_depth    modulation depth (radians)
    mod_freq     modulation angular frequency (rad/s)
    demod_phase  phase offset of the mixer reference (radians)
    e0h, e0v     field amplitudes of the two polarization components
    lpf_cutoff   low-pass cutoff (Hz); default mod_freq / (2 pi * 50)
    dt           sample interval (s), a whole fraction of the modulation
                 period; default 64 samples per period
    """

    mod_depth: float = 0.2
    mod_freq: float = 2 * math.pi * 1000.0
    demod_phase: float = math.pi / 2
    e0h: float = 1.0
    e0v: float = 1.0
    lpf_cutoff: float | None = None
    dt: float | None = None

    @property
    def mod_period(self) -> float:
        return 2 * math.pi / self.mod_freq

    @property
    def sample_dt(self) -> float:
        return self.dt if self.dt is not None else self.mod_period / 64.0

    @property
    def samples_per_period(self) -> int:
        return round(self.mod_period / self.sample_dt)

    @property
    def cutoff_hz(self) -> float:
        if self.lpf_cutoff is not None:
            return self.lpf_cutoff
        return self.mod_freq / (2 * math.pi * 50.0)

    def validate(self):
        if not (math.isfinite(self.e0h) and math.isfinite(self.e0v) and self.e0h * self.e0v != 0):
            raise ValueError("e0h and e0v must be finite and non-zero; at e0h e0v = 0 the"
                             " beams do not interfere and there is no error signal")
        if not math.isfinite(self.e0h * self.e0h + self.e0v * self.e0v):
            raise ValueError("e0h^2 + e0v^2 overflows: the detected intensity is not finite")
        if not self.mod_depth > 0:
            raise ValueError("mod_depth must be positive; at 0 there is no error signal (J1(0) = 0)")
        if self.mod_freq <= 0:
            raise ValueError("mod_freq must be positive")
        if math.sin(self.demod_phase) == 0:
            raise ValueError("demod_phase leaves no error signal (sin(demod_phase) = 0)")
        if not 0 < self.cutoff_hz < self.mod_freq / (2 * math.pi):
            raise ValueError("low-pass cutoff must be positive and below the modulation frequency")
        if not 0 < self.sample_dt < self.mod_period / 10.0:
            raise ValueError("dt must be positive and resolve the modulation (>= 10 samples/period)")
        per_period = self.mod_period / self.sample_dt
        if not math.isfinite(per_period):
            raise ValueError(f"dt {self.sample_dt!r} s splits the modulation period into"
                             " more samples than a float can count")
        if abs(per_period - self.samples_per_period) > 1e-9 * per_period:
            raise ValueError(
                f"dt must divide the modulation period into whole samples ({per_period:.6g}"
                f" per period); the nearest dt that does is"
                f" {self.mod_period / self.samples_per_period!r} s")


def check_lock_run(p: LockParams, duration: float) -> None:
    """Validate ``p`` and bound the run's work: ``duration`` must be positive
    and span at most :data:`MAX_LOCK_SAMPLES` samples of ``p.sample_dt``."""
    p.validate()
    if not duration > 0:
        raise ValueError("duration must be positive")
    samples = duration / p.sample_dt
    if samples > MAX_LOCK_SAMPLES:
        raise ValueError(f"duration {duration:g} s spans {samples:.3g} samples of"
                         f" {p.sample_dt:.3g} s; at most {MAX_LOCK_SAMPLES:.0e}")


def intensity(t, zeta, p: LockParams):
    """Detected intensity after the diagonal polarizer.

    Closed form  I = (E0H^2 + E0V^2 + 2 E0H E0V cos(theta sin(Omega t) - zeta)) / 4,
    equal to evaluating the interfering complex fields directly.
    """
    t = np.asarray(t, dtype=float)
    phase = p.mod_depth * np.sin(p.mod_freq * t) - zeta
    return 0.25 * (p.e0h ** 2 + p.e0v ** 2 + 2 * p.e0h * p.e0v * np.cos(phase))


def _lpf_alpha(cutoff_hz: float, dt: float) -> float:
    """Smoothing factor of the first-order IIR low-pass  y += alpha (x - y)
    with corner ``cutoff_hz`` at sample interval ``dt``."""
    rc = 1.0 / (2 * math.pi * cutoff_hz)
    return dt / (rc + dt)


def _period_terms(p: LockParams, alpha: float):
    """One modulation period of the mixed signal through the low-pass
    y[i] = beta y[i-1] + alpha x[i], beta = 1 - alpha.

    At t_j = j dt (j < P, the samples per period) and fixed phase zeta the
    mixed samples are  x = (A + cos(zeta) B + sin(zeta) C) m,  with
    m = cos(Omega t + demod_phase) and A, B, C read off :func:`intensity` at
    zeta = 0, pi/2 and pi.  From filter state y0 at the period's start, the
    period mean of the output is  carry y0 + w.x  and its end state
    decay y0 + v.x,  with  w_j = (1 - beta^(P - j)) / P,
    v_j = alpha beta^(P - 1 - j),  carry = (beta + ... + beta^P) / P  and
    decay = beta^P.  ``dt`` divides the period, so every period has these
    terms.  Returns (carry, decay, (A.w, B.w, C.w), (A.v, B.v, C.v)).
    """
    n = p.samples_per_period
    t = p.sample_dt * np.arange(n)
    i0, i_quad, i_pi = intensity(t, np.array([[0.0], [math.pi / 2], [math.pi]]), p)
    a = 0.5 * (i0 + i_pi)
    mixed = np.stack([a, 0.5 * (i0 - i_pi), i_quad - a]) * np.cos(p.mod_freq * t + p.demod_phase)
    log_beta = math.log1p(-alpha)
    powers = np.exp(np.arange(1, n + 1) * log_beta)
    w = -np.expm1(np.arange(n, 0, -1) * log_beta) / n
    v = alpha * np.exp(np.arange(n - 1, -1, -1) * log_beta)
    terms = mixed @ np.stack([w, v], axis=1)
    return (float(np.mean(powers)), float(powers[-1]),
            tuple(terms[:, 0].tolist()), tuple(terms[:, 1].tolist()))


def measured_error(zeta: float, p: LockParams) -> float:
    """The reporting demodulator's error at fixed interferometer phase: the
    filter (corner ``p.cutoff_hz``) runs from rest for
    :data:`CALIBRATION_PERIODS` modulation periods, and its output is
    averaged over the trailing quarter of them."""
    carry, decay, (aw, bw, cw), (av, bv, cv) = _period_terms(
        p, _lpf_alpha(p.cutoff_hz, p.sample_dt))
    cos_z, sin_z = math.cos(zeta), math.sin(zeta)
    mean = aw + cos_z * bw + sin_z * cw
    end = av + cos_z * bv + sin_z * cv
    tail = CALIBRATION_PERIODS // 4
    y = total = 0.0
    for k in range(CALIBRATION_PERIODS):
        if k >= CALIBRATION_PERIODS - tail:
            total += carry * y + mean
        y = decay * y + end
    return total / tail


def calibrate_gain(p: LockParams) -> float:
    """Error-signal gain G in  error = G sin(zeta) sin(demod_phase).

    Measured at zeta = pi/2 with the mixer reference in quadrature, where the
    product of sines is one.
    """
    quad = replace(p, demod_phase=math.pi / 2)
    return measured_error(math.pi / 2, quad)


def lock_gain(p: LockParams) -> float:
    """The calibrated gain G of a lock with an error signal: ValueError unless
    the slope G sin(demod_phase) exceeds the floor 1e-8 A, A = (e0h^2 + e0v^2)
    / 4 the detected DC level, and that floor is above 0 (it underflows for A
    below ~2.5e-316).  Calibration reads G to a rounding floor of ~2e-11 A,
    so a slope that clears the bound is known to better than 0.3 %."""
    gain = calibrate_gain(p)
    slope, level = gain * math.sin(p.demod_phase), (p.e0h ** 2 + p.e0v ** 2) / 4
    floor = 1e-8 * level
    if not (floor > 0 and abs(slope) > floor):      # a NaN slope is refused too
        raise ValueError(f"the calibrated error slope is 0 to rounding ({abs(slope):.3g}, not above"
                         f" 1e-8 x the DC level {level:.3g} = {floor:.3g}): the lock has no"
                         " error signal")
    return gain


# ---------------------------------------------------------------------------
# Drift and PID


@dataclass(frozen=True)
class DriftModel:
    """Open-loop phase disturbance.

    kind       'random-walk' (magnitude in rad/sqrt(s)), 'sinusoidal'
               (magnitude in rad, with ``period`` in s), or 'step'
               (magnitude in rad at ``step_time`` s)
    """

    kind: str = "random-walk"
    magnitude: float = 0.5
    period: float = 1.0
    step_time: float = 0.0

    def validate(self):
        if not (self.magnitude >= 0 and math.isfinite(self.magnitude)):
            raise ValueError("drift magnitude must be non-negative and finite")
        if self.kind not in ("random-walk", "sinusoidal", "step"):
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if not self.period > 0:
            raise ValueError("drift period must be positive")
        if not math.isfinite(self.step_time):
            raise ValueError("drift step_time must be finite")

    def path(self, n: int, dt: float, rng: np.random.Generator) -> np.ndarray:
        t = dt * np.arange(n)
        if self.kind == "random-walk":
            steps = rng.normal(0.0, self.magnitude * math.sqrt(dt), size=n)
            steps[0] = 0.0
            return np.cumsum(steps)
        if self.kind == "sinusoidal":
            return self.magnitude * np.sin(2 * math.pi * t / self.period)
        return np.where(t >= self.step_time, self.magnitude, 0.0)


@dataclass(frozen=True)
class PidGains:
    kp: float = 0.3
    ki: float = 250.0
    kd: float = 0.0
    out_min: float = -50.0
    out_max: float = 50.0

    def validate(self):
        for g in (self.kp, self.ki, self.kd):
            if not math.isfinite(g):
                raise ValueError("gains must be finite")
        if self.out_min >= self.out_max:
            raise ValueError("output limits must be ordered")


@dataclass
class PidState:
    integral: float = 0.0
    prev_error: float | None = None


def pid_update(state: PidState, error: float, dt: float,
               gains: PidGains) -> tuple[PidState, float]:
    """One PID step; integral anti-windup clamps at the output limits.

    This is the servo law of :func:`simulate_lock`, which runs it inline on
    plain floats, term for term; the tests replay it to check that loop.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    derivative = 0.0
    if state.prev_error is not None and gains.kd:
        derivative = (error - state.prev_error) / dt
    integral = state.integral + error * dt
    u = gains.kp * error + gains.ki * integral + gains.kd * derivative
    if u > gains.out_max:
        u = gains.out_max
        integral = state.integral  # hold the integrator while saturated
    elif u < gains.out_min:
        u = gains.out_min
        integral = state.integral
    return PidState(integral, error), u


# ---------------------------------------------------------------------------
# Closed-loop simulation


@dataclass
class LockTrace:
    t: np.ndarray
    zeta_open: np.ndarray
    zeta_closed: np.ndarray
    error: np.ndarray
    actuation: np.ndarray
    setpoint: float
    diverged: bool

    def rms_open(self) -> float:
        return float(np.sqrt(np.mean((self.zeta_open - self.setpoint) ** 2)))

    def rms_closed(self) -> float:
        return float(np.sqrt(np.mean((self.zeta_closed - self.setpoint) ** 2)))

    def to_csv(self) -> str:
        columns = (self.t, self.zeta_open, self.zeta_closed, self.error,
                   self.actuation)
        parts = ["t,zeta_open,zeta_closed,error,actuation\n"]
        for k in range(0, len(self.t), _CSV_BLOCK_ROWS):
            rows = np.column_stack([c[k:k + _CSV_BLOCK_ROWS] for c in columns])
            parts.append(_CSV_ROW * len(rows) % tuple(rows.ravel().tolist()))
        return "".join(parts)


def simulate_lock(
    p: LockParams,
    drift: DriftModel,
    gains: PidGains,
    duration: float = 4.0,
    setpoint: float = 0.0,
    seed: int = 0,
    zeta0: float = 0.0,
) -> LockTrace:
    """Co-simulate the free-running and servo-locked interferometer phase.

    The loop runs one PID update per modulation period: the intensity over
    the period is sampled with the current closed-loop phase, mixed and
    filtered (the filter holds state across periods), compared against the
    DC offset that encodes the setpoint, and fed to the PID whose output adds
    to the compensating phase.  The servo path uses a faster filter corner
    than the reporting demodulator (one eighth of the modulation frequency)
    so it does not dominate the loop delay; the first
    :data:`WARMUP_PERIODS` periods only settle the filter, with the actuator
    held.

    The phase is constant over a period, the filter is linear and ``dt``
    divides the period, so each step is closed-form in the filter state at
    the period's start, with the same constants every step (see
    :func:`_period_terms`).
    """
    check_lock_run(p, duration)
    drift.validate()
    gains.validate()
    dt = p.sample_dt
    control_dt = p.samples_per_period * dt
    n_steps = max(int(duration / control_dt), 1)
    rng = np.random.default_rng(seed)
    drift_path = drift.path(n_steps, control_dt, rng)

    gain = lock_gain(p)
    offset = gain * math.sin(setpoint) * math.sin(p.demod_phase)
    # error ~ G sin(zeta) sin(tau); divide out the measured slope so the
    # servo sign does not depend on the hardware constants.
    slope = gain * math.sin(p.demod_phase)

    carry, decay, (aw, bw, cw), (av, bv, cv) = _period_terms(
        p, _lpf_alpha(p.mod_freq / (2 * math.pi * 8.0), dt))
    y = 0.0
    # pid_update, inline on floats: no state object or call per step
    kp, ki, kd = gains.kp, gains.ki, gains.kd
    out_min, out_max = gains.out_min, gains.out_max
    integral = prev_error = 0.0
    actuation = 0.0

    t_out = np.arange(n_steps) * control_dt
    zeta_open = zeta0 + drift_path
    zeta_closed, error_out, act_out = array("d"), array("d"), array("d")
    for k, open_phase in enumerate(zeta_open.tolist()):
        closed_phase = open_phase + actuation
        try:
            cos_z, sin_z = math.cos(closed_phase), math.sin(closed_phase)
        except ValueError:  # infinite phase after an unbounded actuator overflowed
            cos_z = sin_z = math.nan
        # average over the whole period: suppresses carrier ripple that a
        # fixed-phase sample would alias into a systematic offset
        raw_error = carry * y + aw + cos_z * bw + sin_z * cw
        y = decay * y + av + cos_z * bv + sin_z * cv
        if k >= WARMUP_PERIODS:
            error = -((raw_error - offset) / slope)
            derivative = 0.0
            if kd and k > WARMUP_PERIODS:
                derivative = (error - prev_error) / control_dt
            held = integral
            integral = held + error * control_dt
            # kd * derivative stays when kd == 0: dropping it can flip a zero's sign
            actuation = kp * error + ki * integral + kd * derivative
            if actuation > out_max:
                actuation = out_max
                integral = held  # hold the integrator while saturated
            elif actuation < out_min:
                actuation = out_min
                integral = held
            prev_error = error
        zeta_closed.append(closed_phase)
        error_out.append(raw_error)
        act_out.append(actuation)
    zeta_closed, error_out, act_out = (np.frombuffer(c) for c in (zeta_closed, error_out, act_out))
    diverged = bool(not np.isfinite(act_out).all() or (np.abs(zeta_closed - setpoint) > 10.0).any())
    return LockTrace(t_out, zeta_open, zeta_closed, error_out, act_out,
                     setpoint, diverged)
