"""Hot numerical kernels: RK4 cavity integration and the servo inner loop."""

from __future__ import annotations

import math

import numpy as np


def cavity_rk4(a_s0, a_i0, g, gamma, delta, drive, dt, n_steps, limit):
    """Fixed-step RK4 for the seeded parametric-amplifier cavity equations.

    State is the complex pair (alpha_s, alpha_i) with opposite detunings
    on the two modes. Returns the trajectories and the step index at which
    |alpha| first exceeded ``limit`` (-1 if it never did; remaining
    entries are then unwritten and must be truncated by the caller).
    """
    cs = gamma - 1j * delta
    ci = gamma + 1j * delta
    alpha_s = np.empty(n_steps + 1, np.complex128)
    alpha_i = np.empty(n_steps + 1, np.complex128)
    alpha_s[0] = a_s0
    alpha_i[0] = a_i0
    s = a_s0 + 0j
    i_ = a_i0 + 0j
    diverged = -1
    for k in range(n_steps):
        k1s = -cs * s + g * np.conj(i_) + drive
        k1i = -ci * i_ + g * np.conj(s)
        s2 = s + 0.5 * dt * k1s
        i2 = i_ + 0.5 * dt * k1i
        k2s = -cs * s2 + g * np.conj(i2) + drive
        k2i = -ci * i2 + g * np.conj(s2)
        s3 = s + 0.5 * dt * k2s
        i3 = i_ + 0.5 * dt * k2i
        k3s = -cs * s3 + g * np.conj(i3) + drive
        k3i = -ci * i3 + g * np.conj(s3)
        s4 = s + dt * k3s
        i4 = i_ + dt * k3i
        k4s = -cs * s4 + g * np.conj(i4) + drive
        k4i = -ci * i4 + g * np.conj(s4)
        s = s + dt * (k1s + 2.0 * k2s + 2.0 * k3s + k4s) / 6.0
        i_ = i_ + dt * (k1i + 2.0 * k2i + 2.0 * k3i + k4i) / 6.0
        alpha_s[k + 1] = s
        alpha_i[k + 1] = i_
        if abs(s) > limit or abs(i_) > limit:
            diverged = k + 1
            break
    return alpha_s, alpha_i, diverged


def servo_loop(dist, dt, amp, kp, ki, lpf_alpha, w_res, w_damp, act_range):
    """Single-arm phase servo: error -> LPF -> PI -> 2nd-order actuator.

    ``dist`` is the open-loop disturbance phase relative to the lock
    point; the error signal is ``amp*sin(phi)`` with phi the residual.
    The actuator is a resonant second-order stage (angular resonance
    ``w_res``, damping coefficient ``w_damp = w_res/Q``) with hard
    saturation at +-``act_range``; while saturated the integrator is
    frozen (anti-windup). Returns residual phase and per-sample
    saturation flags.
    """
    n = len(dist)
    res = np.empty(n)
    sat = np.zeros(n, np.bool_)
    lpf = 0.0
    integ = 0.0
    y = 0.0
    v = 0.0
    frozen = False
    # A memoryview yields plain Python floats without copying the record:
    # per-sample numpy scalar indexing and ufunc calls cost more than the
    # arithmetic they carry.
    for k, d in enumerate(memoryview(np.ascontiguousarray(dist, dtype=float))):
        phi = d - y
        res[k] = phi
        err = amp * math.sin(phi)
        lpf += lpf_alpha * (err - lpf)
        if not frozen:
            integ += ki * lpf * dt
        cmd = kp * lpf + integ
        v += dt * (w_res * w_res * (cmd - y) - w_damp * v)
        y += dt * v
        if y > act_range:
            y = act_range
            v = 0.0
            sat[k] = True
            frozen = True
        elif y < -act_range:
            y = -act_range
            v = 0.0
            sat[k] = True
            frozen = True
        else:
            frozen = False
    return res, sat
