"""Hot numerical kernels: RK4 cavity integration, the servo inner loop and a
one-pole low-pass filter."""

from __future__ import annotations

import math

import numpy as np


def cavity_rk4(a_s0, a_i0, g, gamma, delta, drive, dt, n_steps, limit):
    """Fixed-step RK4 for the seeded parametric-amplifier cavity equations.

    State is the complex pair (alpha_s, alpha_i) with opposite detunings
    on the two modes. Returns the trajectories (``n_steps + 1`` samples)
    and the first step index at which |alpha| exceeded ``limit`` or
    stopped being finite (-1 if it never did; entries past it are then
    meaningless and must be truncated by the caller).

    The equations are complex-linear in x = (alpha_s, alpha_i^*):
    x' = A x + b with A = [[-(gamma - i delta), g], [g^*, -(gamma - i delta)]]
    and b = (drive, 0). One RK4 step is therefore exactly the affine map
    x -> P x + q, with P = sum_{j<=4} (hA)^j / j! and
    q = h (I + hA/2 + (hA)^2/6 + (hA)^3/24) b. The trajectory is filled by
    doubling: x[m:2m] = P^m x[0:m] + S_m, then P^2m = P^m P^m and
    S_2m = P^m S_m + S_m, so n steps take O(log n) array operations and
    P is never diagonalized (it is defective at |g| = |delta|). The fixed
    point -A^{-1} b is deliberately not used: the linear-solve oracle
    computes it, and this kernel is the independent check on that oracle.
    """
    ha = dt * np.array([[-(gamma - 1j * delta), g], [np.conj(g), -(gamma - 1j * delta)]])
    # einsum, not @: a complex matmul sets up BLAS buffers worth ~0.4 MB of peak RSS.
    ha2 = np.einsum("ij,jk", ha, ha)
    ha3 = np.einsum("ij,jk", ha2, ha)
    eye = np.eye(2)
    p = eye + ha + ha2 / 2.0 + ha3 / 6.0 + np.einsum("ij,jk", ha2, ha2) / 24.0
    q = dt * drive * (eye + ha / 2.0 + ha2 / 6.0 + ha3 / 24.0)[:, 0]
    n = n_steps + 1
    alpha_s = np.empty(n, np.complex128)
    alpha_c = np.empty(n, np.complex128)  # alpha_i^*
    alpha_s[0] = a_s0
    alpha_c[0] = np.conj(a_i0)
    m = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while m < n:
            k = min(m, n - m)
            (p00, p01), (p10, p11) = p.tolist()
            s, c = alpha_s[:k], alpha_c[:k]
            alpha_s[m : m + k] = p00 * s + p01 * c + q[0]
            alpha_c[m : m + k] = p10 * s + p11 * c + q[1]
            q = np.einsum("ij,j", p, q) + q
            p = np.einsum("ij,jk", p, p)
            m *= 2
        alpha_i = alpha_c.conj()
        bad = ~((np.abs(alpha_s[1:]) <= limit) & (np.abs(alpha_i[1:]) <= limit))
    hits = np.flatnonzero(bad)
    diverged = int(hits[0]) + 1 if hits.size else -1
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
    # Memoryviews read and write plain Python values without copying a
    # record: per-sample numpy scalar indexing and ufunc calls cost more than
    # the arithmetic they carry. The inlined error amp*sin(phi) and command
    # kp*lpf + integ keep their operations and order, so the bits hold;
    # ki*lpf*dt must not become ki*dt first, which rounds differently.
    out, flags = memoryview(res), memoryview(sat)
    sin = math.sin
    w2 = w_res * w_res
    for k, d in enumerate(memoryview(np.ascontiguousarray(dist, dtype=float))):
        phi = d - y
        out[k] = phi
        lpf += lpf_alpha * (amp * sin(phi) - lpf)
        if not frozen:
            integ += ki * lpf * dt
        v += dt * (w2 * (kp * lpf + integ - y) - w_damp * v)
        y += dt * v
        if y > act_range:
            y = act_range
            v = 0.0
            flags[k] = True
            frozen = True
        elif y < -act_range:
            y = -act_range
            v = 0.0
            flags[k] = True
            frozen = True
        else:
            frozen = False
    return res, sat


# Samples past the record that ``one_pole_lowpass`` scans at most: it pads
# the record to whole blocks of up to 64.
LOWPASS_PAD = 63


def one_pole_lowpass(x, alpha, out=None):
    """First-order IIR low-pass y[k] = alpha*x[k] + (1 - alpha)*y[k-1], y[-1] = 0.

    A blocked scan (Blelloch 1990) with a = 1 - alpha. The value that enters
    each block of b samples, a*y at the end of the previous block, is found
    first: one dot product per block gives the block's own response to its
    inputs, and a scalar carry loop chains the blocks. Adding it to the
    block's first input makes the blocks independent, and each is solved
    by y[j] = a^j cumsum(alpha x[i] a^-i). The block shrinks for small a so
    that a^-(b-1) stays below 1e150 and the scaled cumsum cannot overflow.
    Everything runs in place in the one output buffer: a new one, or
    ``out``, which must hold ``len(x) + LOWPASS_PAD`` samples and may
    begin with ``x`` itself. The result is its first ``len(x)`` samples.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    x = np.asarray(x, dtype=float)
    a = 1.0 - alpha
    n = x.size
    if out is None:
        out = np.empty(n + LOWPASS_PAD)
    elif out.size < n + LOWPASS_PAD:
        raise ValueError(f"out holds {out.size} samples; the scan needs {n + LOWPASS_PAD}")
    if a == 0.0:
        out[:n] = x
        return out[:n]
    b = 64 if a**63 >= 1e-150 else 1 + int(-150.0 / math.log10(a))
    rows = -(-n // b)
    y = out[: rows * b]
    y[n:] = 0.0
    np.multiply(x, alpha, out=y[:n])
    blocks = y.reshape(rows, b)
    powers = a ** np.arange(b)
    carry, a_b, entries = 0.0, a**b, []
    for end in (blocks @ powers[::-1]).tolist():
        entries.append(a * carry)
        carry = end + a_b * carry
    blocks[:, 0] += entries
    blocks /= powers
    np.cumsum(blocks, axis=1, out=blocks)
    blocks *= powers
    return y[:n]
