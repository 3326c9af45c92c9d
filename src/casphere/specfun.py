r"""Log-scaled Bessel functions of half-integer order.

The scattering and translation matrices of the sphere-plane problem are built
from modified Bessel functions :math:`I_\nu, K_\nu` on the imaginary frequency
axis and from :math:`J_\nu` and the Hankel function
:math:`H^{(2)}_\nu = J_\nu - iY_\nu` after rotation to real frequencies, with
:math:`\nu = l + 1/2`.  At large orbital momentum and small argument these
span hundreds of orders of magnitude, so every table here is in sign/log
form: one array per family over the orders l = 0..l_max + 1.

Algorithms
----------
K and H are computed by upward recurrence (the stable direction for
each: K is the dominant solution, and H, dominated by Y past the
turning point, grows in modulus with the order), I and J by Miller's
downward recurrence started above the turning point :math:`\nu \approx x`
(one loop, :func:`_miller`, for both; they differ in the sign of one
term) and normalized against the closed forms of order 1/2 and 3/2.  H
runs its own complex recurrence from the closed forms at orders 1/2 and
3/2, so the rotated kernels need J only for the sphere numerator, at
xi R; only H2 is built, as M(-i xi) is the conjugate of M(+i xi).  All
recurrences carry a running exponent so no intermediate value can
overflow or underflow; they run on Python floats and lists, converted to
arrays once.  The I/K pair and the H2 table are cached; K alone
(:func:`log_k_array`, read by the imaginary-axis weight rows) and J are
not, as each of their callers is cached on the same key.
"""

import math
from functools import lru_cache

import numpy as np

#: largest orbital momentum the module guarantees (sets recurrence lengths)
L_CAP = 200

_BIG = 1e250
_NEG_INF = float("-inf")


def _check_domain(x):
    if not x > 0.0:
        raise ValueError(f"argument must be positive, got x={x}")


def _miller_start(l_max, x):
    # downward recurrences must begin in the regime nu > x where the
    # minimal solution decays; the sqrt pad covers the Airy transition zone
    return max(l_max, int(x) + 1) + 16 + int(2.0 * math.sqrt(max(x, l_max + 1.0)))


def _miller(l_max, x, sign):
    """Miller's downward recurrence ``v[l-1] = (2 nu/x) v[l] + sign v[l+1]``
    (nu = l + 1/2; sign +1 for I, -1 for J), started above the turning
    point, unnormalized: the value of order l is ``v[l] * exp(ex[l])``
    for l = 0..l_max + 1.  Returns the lists ``(v, ex)``."""
    start = _miller_start(l_max + 1, x)
    v = [0.0] * (start + 2)
    ex = [-600.0] * (start + 2)
    v[start] = 1.0
    for l in range(start, 0, -1):
        nu = l + 0.5
        w = (2.0 * nu / x) * v[l] + sign * (v[l + 1] * math.exp(ex[l + 1] - ex[l]))
        ex[l - 1] = ex[l]
        if abs(w) > _BIG:
            ex[l - 1] += math.log(abs(w))
            w = math.copysign(1.0, w)
        v[l - 1] = w
    return v, ex


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def log_k_array(l_max, x):
    """log K_{l+1/2}(x) for l = 0..l_max (+1 spare), by upward recurrence
    from the exact half-integer seeds.  Read-only, as
    :func:`log_ik_arrays` caches and shares it."""
    _check_domain(x)
    base = 0.5 * math.log(math.pi / (2.0 * x)) - x  # log K_{1/2}
    k0, k1, shift = 1.0, 1.0 + 1.0 / x, 0.0
    logk = [base, base + math.log(k1)]
    for l in range(1, l_max + 1):
        nu = l + 0.5
        k2 = k0 + (2.0 * nu / x) * k1
        if k2 > _BIG:
            k0 /= k2
            k1 /= k2
            shift += math.log(k2)
            k2 = 1.0
        logk.append(base + shift + math.log(k2))
        k0, k1 = k1, k2
    return _frozen(np.array(logk))[0]


@lru_cache(maxsize=4096)
def log_ik_arrays(l_max, x):
    """log I_{l+1/2}(x) and log K_{l+1/2}(x) for l = 0..l_max (+1 spare).

    Both families are positive for x > 0, so plain log arrays suffice.
    Results are cached (the block assembly revisits each frequency once
    per azimuthal index) and must not be mutated by callers.

    Parameters
    ----------
    l_max : int
        highest orbital momentum
    x : float
        positive argument

    Returns
    -------
    (ndarray, ndarray)
        ``logi[l]``, ``logk[l]``; ``logk`` is :func:`log_k_array`'s
    """
    _check_domain(x)
    n = l_max + 2  # one spare order for derivative recurrences
    # I downward (Miller), normalized to I_{1/2} = sqrt(2/pi x) sinh x
    v, ex = _miller(l_max, x, 1.0)
    logi = np.log(v[:n]) + np.array(ex[:n])
    # log sinh x = x + log1p(-exp(-2x)) - log 2, stable for every x > 0
    log_i_half = x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0) \
        + 0.5 * math.log(2.0 / (math.pi * x))
    logi += log_i_half - logi[0]
    return _frozen(logi, log_k_array(l_max, x))


def log_jy_arrays(l_max, x):
    """Signed-log J_{l+1/2}(x) for l = 0..l_max (+1 spare).

    The arrays are read-only.

    Returns
    -------
    (ndarray, ndarray)
        ``(sign_j, log_j)``; a zero value is encoded as sign 0 with log
        magnitude ``-inf``.
    """
    _check_domain(x)
    n = l_max + 2
    sj = [0.0] * n
    lj = [_NEG_INF] * n
    c = math.sqrt(2.0 / (math.pi * x))

    v, ex = _miller(l_max, x, -1.0)
    # normalize against whichever closed form is farther from a zero
    j0 = c * math.sin(x)
    j1 = c * (math.sin(x) / x - math.cos(x))
    if abs(j0) >= abs(j1):
        ref_val, ref_idx = j0, 0
    else:
        ref_val, ref_idx = j1, 1
    c_log = math.log(abs(ref_val)) - (math.log(abs(v[ref_idx])) + ex[ref_idx])
    c_sign = math.copysign(1.0, ref_val) * math.copysign(1.0, v[ref_idx])
    for l in range(n):
        if v[l] != 0.0:
            sj[l] = math.copysign(1.0, v[l]) * c_sign
            lj[l] = math.log(abs(v[l])) + ex[l] + c_log
    return _frozen(np.array(sj), np.array(lj))


@lru_cache(maxsize=4096)
def log_hankel2_arrays(l_max, x):
    """Log magnitude and phase of H^(2)_{l+1/2}(x) for l = 0..l_max (+1 spare).

    One upward recurrence ``h_{l+1} = (2l+1)/x h_l - h_{l-1}`` on the
    complex values of ``H / sqrt(2/pi x)``, from the closed forms
    ``sin x + i cos x`` and ``(sin x/x - cos x) + i (cos x/x + sin x)`` at
    orders 1/2 and 3/2, with a running exponent; the phases lie in
    [-pi, pi].  Cached; do not mutate.
    """
    _check_domain(x)
    n = l_max + 2
    sin, cos = math.sin(x), math.cos(x)
    h0 = complex(sin, cos)
    h1 = complex(sin / x - cos, cos / x + sin)
    h, shifts, shift = [h0, h1], [0.0, 0.0], 0.0
    for l in range(1, n - 1):
        h2 = ((2.0 * l + 1.0) / x) * h1 - h0
        a = abs(h2)
        if a > _BIG:
            h1 /= a
            h2 /= a
            shift += math.log(a)
        h.append(h2)
        shifts.append(shift)
        h0, h1 = h1, h2
    z = np.array(h)
    logmag = 0.5 * math.log(2.0 / (math.pi * x)) + np.array(shifts) + np.log(np.abs(z))
    return _frozen(logmag, np.angle(z))
