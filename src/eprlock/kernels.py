"""Hot numerical kernels: RK4 cavity integration, the servo inner loop, a
one-pole low-pass filter and the CSV row formatter."""

from __future__ import annotations

import math

import numpy as np


def _matmul2(a, b):
    """Product of two 2x2 matrices held as row-major 4-tuples of complex.

    Each entry's sum starts from +0, as numpy's einsum starts it, so a
    zero entry comes out +0 whatever the signs of its two terms.
    """
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (
        0j + a00 * b00 + a01 * b10,
        0j + a00 * b01 + a01 * b11,
        0j + a10 * b00 + a11 * b10,
        0j + a10 * b01 + a11 * b11,
    )


def cavity_rk4(a_s0, a_i0, g, gamma, delta, drive, dt, n_steps, limit):
    """Fixed-step RK4 for the seeded parametric-amplifier cavity equations.

    State is the complex pair (alpha_s, alpha_i) with opposite detunings
    on the two modes. Returns the trajectories (``n_steps + 1`` samples)
    and the first step index at which |alpha| exceeded ``limit`` or
    stopped being finite (-1 if it never did; entries past it are then
    meaningless and must be truncated by the caller). The scan for that
    index first bounds the real and imaginary parts; only a trajectory
    that fails the bound gets the exact |alpha| scan.

    The equations are complex-linear in x = (alpha_s, alpha_i^*):
    x' = A x + b with A = [[-(gamma - i delta), g], [g^*, -(gamma - i delta)]]
    and b = (drive, 0). One RK4 step is therefore exactly the affine map
    x -> P x + q, with P = sum_{j<=4} (hA)^j / j! and
    q = h (I + hA/2 + (hA)^2/6 + (hA)^3/24) b. The trajectory is filled by
    doubling: x[m:2m] = P^m x[0:m] + S_m, then P^2m = P^m P^m and
    S_2m = P^m S_m + S_m, so n steps take O(log n) array fills and
    P is never diagonalized (it is defective at |g| = |delta|). The fixed
    point -A^{-1} b is deliberately not used: the linear-solve oracle
    computes it, and this kernel is the independent check on that oracle.

    P, q and their doubling are 2x2 algebra on Python complex scalars,
    because a numpy call on a 2x2 array costs microseconds of dispatch
    for a few flops. The scalars give the bits numpy gave: the powers
    of hA divide by j! as a multiply by the reciprocal, which is how
    numpy divides a complex array by a real, and q's last product
    ``dt * drive * (...)`` stays one numpy array multiply, which rounds
    differently from the Python scalar product.
    """
    decay = dt * -(gamma - 1j * delta)
    # hA, (hA)^2, (hA)^3 and (hA)^4 as h, u, v and w.
    h00, h01, h10, h11 = ha = (decay, dt * complex(g), dt * complex(g.conjugate()), decay)
    u00, u01, u10, u11 = ha2 = _matmul2(ha, ha)
    v00, v01, v10, v11 = _matmul2(ha2, ha)
    w00, w01, w10, w11 = _matmul2(ha2, ha2)
    r6, r24 = 1.0 / 6.0, 1.0 / 24.0
    p = (
        1.0 + h00 + u00 * 0.5 + v00 * r6 + w00 * r24,
        0.0 + h01 + u01 * 0.5 + v01 * r6 + w01 * r24,
        0.0 + h10 + u10 * 0.5 + v10 * r6 + w10 * r24,
        1.0 + h11 + u11 * 0.5 + v11 * r6 + w11 * r24,
    )
    # Column 0 of I + hA/2 + (hA)^2/6 + (hA)^3/24, times h * drive.
    col = [1.0 + h00 * 0.5 + u00 * r6 + v00 * r24, 0.0 + h10 * 0.5 + u10 * r6 + v10 * r24]
    q0, q1 = (dt * drive * np.array(col)).tolist()
    n = n_steps + 1
    # One buffer holds both rows, so that one reduction bounds them both.
    rows = np.empty((2, n), np.complex128)
    alpha_s, alpha_c = rows  # alpha_c is alpha_i^*
    alpha_s[0] = a_s0
    alpha_c[0] = np.conj(a_i0)
    tmp = np.empty(n // 2, np.complex128)
    m = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while m < n:
            k = min(m, n - m)
            p00, p01, p10, p11 = p
            s, c, t = alpha_s[:k], alpha_c[:k], tmp[:k]
            # x[m:m+k] = P x[:k] + q, row by row in place: p s + p' c + q.
            for out, pa, pb, qa in ((alpha_s[m : m + k], p00, p01, q0), (alpha_c[m : m + k], p10, p11, q1)):
                np.multiply(pa, s, out=out)
                out += np.multiply(pb, c, out=t)
                out += qa
            # P q summed from +0, as _matmul2 sums, then + q.
            q0, q1 = 0j + p00 * q0 + p01 * q1 + q0, 0j + p10 * q0 + p11 * q1 + q1
            p = _matmul2(p, p)
            m *= 2
        alpha_i = alpha_c.conj()
        # Real and imaginary parts all within limit/2 put every |alpha|
        # within limit/sqrt(2), with no hypot. NaN, inf or a larger part
        # fails the bound and falls through to the exact scan.
        half = 0.5 * limit
        parts = rows.view(np.float64)[:, 2:]
        if n > 1 and -half <= parts.min() and parts.max() <= half:
            return alpha_s, alpha_i, -1
        bad = ~((np.abs(alpha_s[1:]) <= limit) & (np.abs(alpha_i[1:]) <= limit))
    hits = np.flatnonzero(bad)
    diverged = int(hits[0]) + 1 if hits.size else -1
    return alpha_s, alpha_i, diverged


def servo_loop(dist, dt, amp, kp, ki, lpf_alpha, w_res, w_damp, act_range, out=None):
    """Single-arm phase servo: error -> LPF -> PI -> 2nd-order actuator.

    ``dist`` is the open-loop disturbance phase relative to the lock
    point; the error signal is ``amp*sin(phi)`` with phi the residual.
    The actuator is a resonant second-order stage (angular resonance
    ``w_res``, damping coefficient ``w_damp = w_res/Q``) with hard
    saturation at +-``act_range``; while saturated the integrator is
    frozen (anti-windup). Returns the residual phase and the number of
    samples at which the actuator was clamped to a rail. The residual goes
    into ``out`` when given, a float64 record of ``len(dist)`` samples that
    may be ``dist`` itself: each d[k] is read before out[k] is written.
    """
    res = np.empty(len(dist)) if out is None else out
    saturated = 0
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
    written = memoryview(res)
    sin = math.sin
    w2 = w_res * w_res
    for k, d in enumerate(memoryview(np.ascontiguousarray(dist, dtype=float))):
        phi = d - y
        written[k] = phi
        lpf += lpf_alpha * (amp * sin(phi) - lpf)
        if not frozen:
            integ += ki * lpf * dt
        v += dt * (w2 * (kp * lpf + integ - y) - w_damp * v)
        y += dt * v
        if y > act_range:
            y = act_range
            v = 0.0
            saturated += 1
            frozen = True
        elif y < -act_range:
            y = -act_range
            v = 0.0
            saturated += 1
            frozen = True
        else:
            frozen = False
    return res, saturated


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


# Exact powers of ten: 10**k as int64 (k <= 18) and as float64 (k <= 22, the
# largest whose float is exact), with the float's Veltkamp split into two
# 26-bit halves for Dekker's two-product.
_P10I = np.concatenate(([1], np.cumprod(np.full(18, 10, np.int64))))
_P10F = np.concatenate(([1.0], np.cumprod(np.full(22, 10.0))))
_SPLITTER = 134217729.0  # 2**27 + 1
_P10H = _P10F * _SPLITTER - (_P10F * _SPLITTER - _P10F)
_P10L = _P10F - _P10H
# The raw digits (not ASCII) of 0..9999, four bytes per number, first digit lowest.
_DIGITS4 = np.arange(10000, dtype=np.uint64)
_DIGITS4 = _DIGITS4 // 1000 | _DIGITS4 // 100 % 10 << 8 | _DIGITS4 // 10 % 10 << 16 | _DIGITS4 % 10 << 24
# Bytes per cell in the kernel's row; see _cell_templates.
_CELL = 40


def _cell_templates():
    """One 40-byte template per (sign, decimal-point position p, digit count n, row end).

    A cell is laid out at fixed columns: the integer digits end at column 16,
    column 17 holds the point, and the fraction digits start at column 18.
    The template holds the ASCII of every byte of the cell's text except that
    it holds 0x30 ('0') where a digit goes, and 0 outside the text, so OR-ing
    the raw digits in gives the cell and its nonzero bytes are the mask that
    compacts it. ``p`` is repr's: the value is 0.d1d2...dn * 10**p. repr
    writes 1 <= p <= 16 as d1..dp.d(p+1).. (at least one fraction digit),
    -3 <= p <= 0 as 0.000d1..dn, and p of -4 or -5 as d1.d2..dne-05 or e-06.
    The cell ends with ',' or, at a row end, CRLF.
    """
    p, n = np.ix_(range(-5, 17), range(1, 18))
    exp = p <= -4
    first = np.where(p >= 1, 17 - p, np.where(exp, 16, 16 + p))  # the first digit's column
    point = np.where((p <= 0) & ~exp, 17 + p, 17)
    frac = np.where(p >= 1, np.maximum(n - p, 1), np.where(exp, n - 1, n))
    stop = 18 + frac - (exp & (n == 1))  # the column after the last digit
    suffix = np.where(p == -4, 0x35302D65, 0x36302D65)  # b"e-05", b"e-06" as little-endian words
    col, f, pt, st, e = np.arange(_CELL), first[..., None], point[..., None], stop[..., None], exp[..., None]
    t = np.where((col >= f) & (col < st), ord("0"), 0)
    t = np.where((col == pt) & (~e | (n[..., None] > 1)), ord("."), t)
    t = np.where(e & (col >= st) & (col < st + 4), suffix[..., None] >> 8 * (col - st) & 0xFF, t)
    stop = stop + 4 * exp
    # The sign and the row end patch single bytes of the 374 (p, n) layouts,
    # which keeps the temporaries of this import-time build small.
    table = np.empty((2, 22, 17, 2, _CELL), np.uint8)
    table[:] = t[None, :, :, None, :]
    i, j = np.indices(stop.shape)
    table[1, i, j, :, first - 1] = ord("-")
    table[:, i, j, 0, stop] = ord(",")
    table[:, i, j, 1, stop] = ord("\r")
    table[:, i, j, 1, stop + 1] = ord("\n")
    return table.reshape(-1, _CELL).view("<u8")


_TEMPLATES = _cell_templates()
# By p + 5: how many of the 17 digits go before the point (d1 alone in
# e-notation, none for 0.000ddd), as 10**(17 - that) and 10**that.
_CUT = np.r_[1, 1, 0, 0, 0, 0, 1:17]
_CUT_UNIT, _CUT_SCALE = _P10I[17 - _CUT], _P10I[_CUT]


def _times_power_of_ten(x, k):
    """x * 10**k as an unevaluated sum p + e, exactly (Dekker 1971), and the factor."""
    c = _P10F[k]
    p = x * c
    t = x * _SPLITTER
    xh = t - (t - x)
    xl = x - xh
    ch, cl = _P10H[k], _P10L[k]
    return p, ((xh * ch - p) + xh * cl + xl * ch) + xl * cl, c


def _round_digits(d17, f, k):
    """The nearest integer to (d17 + f) / 10**k, for |f| <= 1/2; a tie goes either way."""
    s = 10**k
    q = d17 // s
    t = d17 - q * s - s // 2
    return q + ((t > 0) | ((t == 0) & (f > 0)))


def _shortest_digits(ax):
    """repr's digits of each x in ``ax`` (1e-6 < x < 1e16, significand not a power of two).

    Returns (d, n, g, exact): x's shortest round-trip decimal is the n-digit
    integer d times 10**(g - n + 1), g = floor(log10 x). ``exact`` is False
    where two 16-digit decimals tie as the nearest, which leaves the choice
    to repr. Where two 17-digit ones tie, d17 is the even one, as repr's is:
    d17 = p + rint(e), with p >= 1e16 an even double and rint rounding half
    to even, and repr rounds a tie in its last digit to even.
    repr writes the fewest digits that read back as x, and of those the
    nearest (Steele & White 1990; Gay's dtoa mode 0). x's rounding interval
    is symmetric (x is not a power of two), so the nearest n-digit decimal
    reads back as x exactly when any n-digit decimal does; the nearest
    17-digit one always does. Two 15-digit decimals are 10**(g - 14) apart,
    over twice x's half ulp, so at most one of them reads back as x: when the
    nearest does, every shorter decimal that reads back is that same number,
    and it is the nearest 15-digit decimal without its trailing zeros.
    """
    g = np.floor(np.log10(ax)).astype(np.int64)  # fixed below where log10 rounds across a power of ten
    np.clip(g, -6, 15, out=g)
    p, e, c = _times_power_of_ten(ax, 16 - g)
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        g[fix] += high[fix].astype(np.int64) - low[fix]
        p[fix], e[fix], c[fix] = _times_power_of_ten(ax[fix], 16 - g[fix])
    # x * 10**(16 - g) = d17 + f exactly, with 1e16 <= d17 + f < 1e17 and |f| <= 1/2.
    r = np.rint(e)
    d17 = p.astype(np.int64) + r.astype(np.int64)
    f = e - r  # exact (Sterbenz)
    # 16 digits: d16 reads back as x iff 10*d16 lies within half an ulp of x,
    # scaled by 10**(16 - g) like d17 + f. Both sides are exact: the bound is c
    # times a power of two, and dist needs at most 53 bits, since x > 1e-6 puts
    # the lowest bit of d17 + f at 2**-50 or above. They are never equal: a
    # 16-digit decimal halfway between two doubles would put x itself on the
    # 16-digit grid, at distance 0.
    d16 = _round_digits(d17, f, 1)
    dist = np.abs((10 * d16 - d17).astype(float) - f)
    short = dist < np.ldexp(c, np.frexp(ax)[1] - 54)
    # The tie: two 16-digit decimals 5 away.
    exact = ~short | (dist != 5.0)
    d = np.where(short, d16, d17)
    n = 17 - short
    # 15 digits by Clinger's fast path (1990): d15 < 2**53 and 10**|m| <= 1e22
    # are exact, so one correctly rounded multiply or divide gives the double
    # that d15 * 10**m reads back as. A tie does not matter here: it lies
    # 5e-15 relative away from x, beyond x's half ulp, so it never reads back.
    idx = np.flatnonzero(short)
    if idx.size:
        d15 = _round_digits(d17[idx], f[idx], 2)
        m = g[idx] - 14
        back = d15.astype(float) * _P10F[np.maximum(m, 0)] / _P10F[np.maximum(-m, 0)] == ax[idx]
        idx, d15 = idx[back], d15[back]
        n15 = np.full(idx.size, 15)
        for k in (8, 4, 2, 1):  # strip the trailing zeros, at most 14
            q = d15 // 10**k
            zeros = d15 == q * 10**k
            d15 = np.where(zeros, q, d15)
            n15 -= k * zeros
        d[idx], n[idx] = d15, n15
    return d, n, g, exact


def _digits8(v):
    """The raw digits of each v < 10**8 as one word, its first digit in the lowest byte."""
    q = v // 10**4
    return _DIGITS4[q] | _DIGITS4[v - q * 10**4] << 32


def _digit_words(a, q):
    """Each cell's raw digits in its row's five words, from a = d1..d17 and q = p + 5.

    The integer part ip (the first max(p, 0) digits; d1 alone in e-notation)
    goes to columns 1-16, right-aligned, the fraction fr to columns 18-34.
    """
    unit = _CUT_UNIT[q]
    ip = a // unit
    fr = (a - ip * unit) * _CUT_SCALE[q]
    words = np.empty((a.size, _CELL // 8), "<u8")
    hi = ip // 10**9
    mid = (ip - hi * 10**9) // 10
    words[:, 0] = _digits8(hi)
    words[:, 1] = _digits8(mid)
    units = ip - hi * 10**9 - mid * 10
    hi = fr // 10**11
    mid = (fr - hi * 10**11) // 1000
    words[:, 2] = _digits8(hi) | units.astype("<u8")
    words[:, 3] = _digits8(mid)
    words[:, 4] = _DIGITS4[fr - hi * 10**11 - mid * 1000] >> 8
    return words


def format_csv_rows(block) -> bytes:
    """CSV rows of a 2-D float64 block, exactly as repr(float) cells joined by ','
    with each row ended by CRLF, formatted by array operations.

    Zeros and every x with 1e-6 < |x| < 1e16 whose significand is not a power
    of two get repr's shortest round-trip digits from _shortest_digits, in
    IEEE double arithmetic alone; those digits are OR-ed into the cell's
    template (_cell_templates) and the cells compacted by the templates'
    nonzero bytes. Any other finite value, and any whose 16 digits hinge on
    an exact tie, is formatted by repr into the same cells.
    """
    block = np.ascontiguousarray(block, dtype=float)
    x = block.ravel()
    ax = np.abs(x)
    fast = (ax > 1e-6) & (ax < 1e16) & (np.frexp(ax)[0] != 0.5)
    # The other cells get a stand-in, so that no operation sees a value out of range.
    d, n, g, exact = _shortest_digits(np.where(fast, ax, 1.5))
    fast &= exact
    zero = np.flatnonzero(ax == 0.0)
    d[zero], n[zero], g[zero], fast[zero] = 0, 1, 0, True
    q = g + 6  # repr's decimal-point position p, plus 5: x = 0.d1..dn * 10**p
    end_of_row = np.zeros(x.size, np.int64)
    end_of_row[block.shape[1] - 1 :: block.shape[1]] = 1
    kind = ((np.signbit(x) * 22 + q) * 17 + n - 1) * 2 + end_of_row
    words = _digit_words(d * _P10I[17 - n], q)
    del ax, d, n, g, exact, q  # the working set: only the rows and their templates from here
    templates = np.take(_TEMPLATES, kind, axis=0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = [f"{v!r}," for v in x[slow].tolist()]
        for k in np.flatnonzero(end_of_row[slow]).tolist():
            cells[k] = cells[k][:-1] + "\r\n"
        templates[slow] = np.frombuffer(np.array(cells, dtype=f"S{_CELL}").tobytes(), "<u8").reshape(-1, _CELL // 8)
        words[slow] = 0
    words |= templates
    return words.view(np.uint8)[templates.view(np.uint8) != 0].tobytes()
