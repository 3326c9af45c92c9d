r"""Log-scaled Bessel functions of half-integer order.

The scattering and translation matrices of the sphere-plane problem are built
from modified Bessel functions :math:`I_\nu, K_\nu` on the imaginary frequency
axis and from :math:`J_\nu, Y_\nu` (or the Hankel function
:math:`H^{(2)}_\nu = J_\nu - iY_\nu`) after rotation to real frequencies, with
:math:`\nu = l + 1/2`.  At large orbital momentum and small argument these
span hundreds of orders of magnitude, so every function here is evaluated in
sign/log form.

Algorithms
----------
K and Y are computed by upward recurrence (the stable direction for both),
I and J by Miller's downward recurrence started above the turning point
:math:`\nu \approx x` and normalized against the closed forms of order 1/2
and 3/2.  All recurrences carry a running exponent so no intermediate value
can overflow or underflow.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: largest orbital momentum the module guarantees (sets recurrence lengths)
L_CAP = 200

_BIG = 1e250
_LOG_BIG = math.log(_BIG)
_NEG_INF = float("-inf")


class PoleError(ValueError):
    """Raised when an evaluation point sits on (or within 1e-12 of) a zero
    of Y_nu, where the J/Y ratio has a pole."""


@dataclass(frozen=True)
class LogValue:
    """A real number stored as sign and natural log of the magnitude.

    Multiplication adds log magnitudes, so products never overflow for
    ``|log_magnitude| <= 1e6``.  ``sign == 0`` encodes an exact zero (the
    log payload is then meaningless).
    """

    sign: int
    log_magnitude: float

    def __mul__(self, other):
        if self.sign == 0 or other.sign == 0:
            return LogValue(0, _NEG_INF)
        return LogValue(self.sign * other.sign,
                        self.log_magnitude + other.log_magnitude)

    def value(self):
        """Reconstruct the plain float (may over/underflow for large logs)."""
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)

    @classmethod
    def from_value(cls, x):
        if x == 0.0:
            return cls(0, _NEG_INF)
        return cls(1 if x > 0 else -1, math.log(abs(x)))


def _wrap_phase(phi):
    """Wrap into (-pi, pi]."""
    w = math.fmod(phi + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


@dataclass(frozen=True)
class ComplexLogValue:
    """A complex number stored as log magnitude and phase in (-pi, pi]."""

    log_magnitude: float
    phase: float

    def __mul__(self, other):
        return ComplexLogValue(self.log_magnitude + other.log_magnitude,
                               _wrap_phase(self.phase + other.phase))

    def value(self):
        return math.exp(self.log_magnitude) * complex(math.cos(self.phase),
                                                      math.sin(self.phase))


def _check_domain(l, x, l_cap=L_CAP):
    if not x > 0.0:
        raise ValueError(f"argument must be positive, got x={x}")
    if l < 0:
        raise ValueError(f"order index must be non-negative, got l={l}")
    if l > l_cap:
        raise ValueError(f"order index l={l} exceeds cap {l_cap}")


def _miller_start(l_max, x):
    # downward recurrences must begin in the regime nu > x where the
    # minimal solution decays; the sqrt pad covers the Airy transition zone
    return max(l_max, int(x) + 1) + 16 + int(2.0 * math.sqrt(max(x, l_max + 1.0)))


@lru_cache(maxsize=4096)
def log_ik_arrays(l_max, x):
    """log I_{l+1/2}(x) and log K_{l+1/2}(x) for l = 0..l_max.

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
        ``logi[l]``, ``logk[l]``
    """
    _check_domain(0, x)
    n = l_max + 2  # one spare order for derivative recurrences

    # K upward from the exact half-integer seeds
    logk = np.empty(n)
    base = 0.5 * math.log(math.pi / (2.0 * x)) - x  # log K_{1/2}
    logk[0] = base
    k0, k1, shift = 1.0, 1.0 + 1.0 / x, 0.0
    if n > 1:
        logk[1] = base + math.log(k1)
    for l in range(1, n - 1):
        nu = l + 0.5
        k2 = k0 + (2.0 * nu / x) * k1
        if k2 > _BIG:
            k0 /= k2
            k1 /= k2
            shift += math.log(k2)
            k2 = 1.0
        logk[l + 1] = base + shift + math.log(k2)
        k0, k1 = k1, k2

    # I downward (Miller), normalized to I_{1/2} = sqrt(2/pi x) sinh x
    start = _miller_start(l_max + 1, x)
    v = np.zeros(start + 2)
    ex = np.zeros(start + 2)
    v[start + 1] = 0.0
    v[start] = 1.0
    ex[start + 1] = ex[start] = -600.0
    for l in range(start, 0, -1):
        nu = l + 0.5
        w = v[l + 1] * math.exp(ex[l + 1] - ex[l]) + (2.0 * nu / x) * v[l]
        ex[l - 1] = ex[l]
        if w > _BIG:
            ex[l - 1] += math.log(w)
            w = 1.0
        v[l - 1] = w
    logi = np.log(v[:n]) + ex[:n]
    # log sinh x = x + log1p(-exp(-2x)) - log 2, stable for every x > 0
    log_i_half = x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0) \
        + 0.5 * math.log(2.0 / (math.pi * x))
    logi += log_i_half - logi[0]
    logi.flags.writeable = False
    logk.flags.writeable = False
    return logi, logk


@lru_cache(maxsize=4096)
def log_jy_arrays(l_max, x):
    """Signed-log J_{l+1/2}(x) and Y_{l+1/2}(x) for l = 0..l_max.

    Results are cached and must not be mutated by callers.

    Returns
    -------
    (ndarray, ndarray, ndarray, ndarray)
        ``(sign_j, log_j, sign_y, log_y)``; a zero value is encoded as
        sign 0 with log magnitude ``-inf``.
    """
    _check_domain(0, x)
    n = l_max + 2
    sj = np.zeros(n)
    lj = np.full(n, _NEG_INF)
    sy = np.zeros(n)
    ly = np.full(n, _NEG_INF)
    c = math.sqrt(2.0 / (math.pi * x))

    # Y upward
    y0 = -c * math.cos(x)
    y1 = -c * (math.cos(x) / x + math.sin(x))
    shift = 0.0
    if y0 != 0.0:
        sy[0], ly[0] = math.copysign(1.0, y0), math.log(abs(y0))
    if n > 1 and y1 != 0.0:
        sy[1], ly[1] = math.copysign(1.0, y1), math.log(abs(y1))
    for l in range(1, n - 1):
        nu = l + 0.5
        y2 = (2.0 * nu / x) * y1 - y0
        if abs(y2) > _BIG:
            sc = abs(y2)
            y1 /= sc
            y2 /= sc
            shift += math.log(sc)
        if y2 != 0.0:
            sy[l + 1] = math.copysign(1.0, y2)
            ly[l + 1] = math.log(abs(y2)) + shift
        y0, y1 = y1, y2

    # J downward (Miller)
    start = _miller_start(l_max + 1, x)
    v = np.zeros(start + 2)
    ex = np.zeros(start + 2)
    v[start + 1] = 0.0
    v[start] = 1.0
    ex[start + 1] = ex[start] = -600.0
    for l in range(start, 0, -1):
        nu = l + 0.5
        w = (2.0 * nu / x) * v[l] - v[l + 1] * math.exp(ex[l + 1] - ex[l])
        ex[l - 1] = ex[l]
        if abs(w) > _BIG:
            ex[l - 1] += math.log(abs(w))
            w = math.copysign(1.0, w)
        v[l - 1] = w
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
    for arr in (sj, lj, sy, ly):
        arr.flags.writeable = False
    return sj, lj, sy, ly


def log_bessel_i_half(l, x):
    """I_{l+1/2}(x) as a :class:`LogValue` (relative accuracy ~1e-13)."""
    _check_domain(l, x)
    logi, _ = log_ik_arrays(l, x)
    return LogValue(1, float(logi[l]))


def log_bessel_k_half(l, x):
    """K_{l+1/2}(x) as a :class:`LogValue`; the sign is always +1."""
    _check_domain(l, x)
    _, logk = log_ik_arrays(l, x)
    return LogValue(1, float(logk[l]))


def bessel_j_half(l, x):
    """J_{l+1/2}(x) as a :class:`LogValue` (downward recurrence).

    Relative accuracy is ~1e-12 away from the zeros of J; at a zero only
    absolute accuracy (of order 1e-15 times the neighbour magnitude) is
    meaningful.
    """
    _check_domain(l, x)
    sj, lj, _, _ = log_jy_arrays(l, x)
    return LogValue(int(sj[l]), float(lj[l]))


def bessel_y_half(l, x):
    """Y_{l+1/2}(x) as a :class:`LogValue` (upward recurrence)."""
    _check_domain(l, x)
    _, _, sy, ly = log_jy_arrays(l, x)
    return LogValue(int(sy[l]), float(ly[l]))


def ratio_jy(l, x):
    """The ratio r_nu = J_{l+1/2}(x) / Y_{l+1/2}(x), formed in log space.

    Raises
    ------
    PoleError
        when x lies within ~1e-12 of a zero of Y_{l+1/2} (estimated from
        the Newton step ``|Y/Y'|``).
    """
    _check_domain(l, x)
    sj, lj, sy, ly = log_jy_arrays(l + 1, x)
    if sy[l] == 0:
        raise PoleError(f"Y_{l}+1/2 vanishes at x={x}")
    # Y' = (nu/x) Y - Y_{nu+1}; distance-to-zero estimate |Y/Y'|
    nu = l + 0.5
    scale = max(ly[l], ly[l + 1])
    yv = sy[l] * math.exp(ly[l] - scale)
    yd = (nu / x) * yv - sy[l + 1] * math.exp(ly[l + 1] - scale)
    if yd != 0.0 and abs(yv / yd) < 1e-12:
        raise PoleError(f"x={x} is within 1e-12 of a zero of Y_{{{l}+1/2}}")
    if sj[l] == 0:
        return 0.0
    return sj[l] * sy[l] * math.exp(lj[l] - ly[l])


def hankel2_from_jy(sign_j, log_j, sign_y, log_y):
    """Assemble H2 = J - iY from signed logs; returns (log magnitude, phase)."""
    scale = max(log_j, log_y)
    if scale == _NEG_INF:
        raise ValueError("H2 of an exact zero pair")
    re = sign_j * math.exp(log_j - scale)
    im = -sign_y * math.exp(log_y - scale)
    return scale + 0.5 * math.log(re * re + im * im), math.atan2(im, re)


def hankel2_half(l, x):
    """H^(2)_{l+1/2}(x) = J - iY as a :class:`ComplexLogValue`."""
    _check_domain(l, x)
    sj, lj, sy, ly = log_jy_arrays(l, x)
    lm, ph = hankel2_from_jy(sj[l], lj[l], sy[l], ly[l])
    return ComplexLogValue(lm, ph)


@lru_cache(maxsize=4096)
def log_hankel2_arrays(l_max, x, conjugate=False):
    """Log magnitude and phase of H^(2)_{l+1/2}(x) for l = 0..l_max (+1 spare).

    With ``conjugate=True`` returns H^(1) = J + iY instead (used to build
    the opposite frequency branch independently).  Cached; do not mutate.
    """
    sj, lj, sy, ly = log_jy_arrays(l_max, x)
    s = 1.0 if conjugate else -1.0
    scale = np.maximum(lj, ly)
    re = sj * np.exp(lj - scale)
    im = s * sy * np.exp(ly - scale)
    logmag = scale + 0.5 * np.log(re * re + im * im)
    phase = np.arctan2(im, re)
    logmag.flags.writeable = False
    phase.flags.writeable = False
    return logmag, phase
