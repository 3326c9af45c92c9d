"""Independent oracles shared by the test modules.

Everything here is deliberately built from different algorithms than the
package: exact rational arithmetic for 3j symbols, the vectorized
l''-recurrence of the (m -m 0) slices (:func:`_three_j_m_slices`; the
package runs its recurrence in m), ascending series and
finite closed sums for Bessel functions, mpmath reference evaluations,
finite differences of energies for the force, eigenvalue sums, the
expanded-logarithm series and per-pivot LU logarithms for
log-determinants, adaptive quadratures of
the integral representations of g and h, per-element loops for
vectorized assemblies, and frequency sweeps that evaluate one node at a
time.  The float 3j symbol :func:`three_j` and :func:`h_factor` read the
package's (0 0 0) closed form and the l''-recurrence slices one entry at a
time, so that the exact rational oracle can check them, and add the float
Racah sum for the general m patterns.  :func:`store_tensor_dense` reads the
package's coupling store pair by pair, for the oracles whose subject is
the block assembly.  Likewise the scalar Bessel values
(:class:`LogValue` and its readers) read the package's tables one entry at
a time, :func:`log_y_arrays` gives the Y table, which the package does not
use, and :func:`hankel2_half` assembles H2 from the J and Y tables, a
different route from the package's Hankel recurrence.  The entry-by-entry
builders :func:`m_static` (the stretched-top closed form from
``math.lgamma`` factorials) and :func:`m_em_block` (the two-index
electromagnetic convention, from the package's sphere factors and
:func:`h_slice`) check the package's block builders, which share neither
their convention nor their loops.
"""

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import scipy.linalg
from scipy.integrate import quad

from casphere.wigner import _parity_sign, _three_j_000_slices

mp.mp.dps = 30


def three_j_exact(j1, j2, j3, m1, m2, m3):
    """Racah single sum in exact rational arithmetic; float at the end."""
    if m1 + m2 + m3 != 0 or not abs(j1 - j2) <= j3 <= j1 + j2:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    f = math.factorial
    t1, t2, t3 = j2 - m1 - j3, j1 + m2 - j3, j1 + j2 - j3
    t4, t5 = j1 - m1, j2 + m2
    s = Fraction(0)
    for t in range(max(0, t1, t2), min(t3, t4, t5) + 1):
        s += Fraction((-1) ** t,
                      f(t) * f(t - t1) * f(t - t2) * f(t3 - t) * f(t4 - t) * f(t5 - t))
    pref2 = Fraction(f(j1 + j2 - j3) * f(j1 - j2 + j3) * f(-j1 + j2 + j3),
                     f(j1 + j2 + j3 + 1)) \
        * Fraction(f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2)
                   * f(j3 + m3) * f(j3 - m3))
    sv = mp.mpf(s.numerator) / mp.mpf(s.denominator)
    pv = mp.sqrt(mp.mpf(pref2.numerator) / mp.mpf(pref2.denominator))
    return float((-1) ** (j1 - j2 - m3) * sv * pv)


def h_factor_exact(l, lp, lpp, m):
    return math.sqrt((2 * l + 1) * (2 * lp + 1)) * (2 * lpp + 1) \
        * three_j_exact(l, lp, lpp, 0, 0, 0) * three_j_exact(l, lp, lpp, m, -m, 0)


#: largest momentum for which the float Racah sum of the general m
#: patterns is trusted; measured against exact rational arithmetic the
#: alternating sum holds 1e-10 relative accuracy only up to l ~ 20
RACAH_L_MAX = 16


def _logfac(n):
    return math.lgamma(n + 1)


def _three_j_racah(j1, j2, j3, m1, m2, m3):
    """Racah single-sum formula with log-factorials and compensated sum."""
    t1 = j2 - m1 - j3
    t2 = j1 + m2 - j3
    t3 = j1 + j2 - j3
    t4 = j1 - m1
    t5 = j2 + m2
    tmin = max(0, t1, t2)
    tmax = min(t3, t4, t5)
    terms = []
    for t in range(tmin, tmax + 1):
        lg = (_logfac(t) + _logfac(t - t1) + _logfac(t - t2)
              + _logfac(t3 - t) + _logfac(t4 - t) + _logfac(t5 - t))
        terms.append((-1.0) ** t * math.exp(-lg))
    s = math.fsum(terms)
    log_pref = 0.5 * (_logfac(j1 + j2 - j3) + _logfac(j1 - j2 + j3)
                      + _logfac(-j1 + j2 + j3) - _logfac(j1 + j2 + j3 + 1)
                      + _logfac(j1 + m1) + _logfac(j1 - m1)
                      + _logfac(j2 + m2) + _logfac(j2 - m2)
                      + _logfac(j3 + m3) + _logfac(j3 - m3))
    return (-1.0) ** (j1 - j2 - m3) * math.exp(log_pref) * s


#: the l''-recurrence rescales a slice once a value passes this magnitude
_RESCALE = 1e250


def _three_j_m_slices(j1, j2, m):
    """(j1 j2 j; m -m 0) for arrays of pairs, by the l''-recurrence.

    ``j A(j+1) f(j+1) + B(j) f(j) + (j+1) A(j) f(j-1) = 0`` runs forward
    from j_min while the minimal solution grows and backward from j_max
    (where A(j_max+1) = 0); the two are matched in the classical region,
    normalized with ``sum_j (2j+1) f(j)^2 = 1`` and signed at the
    stretched top.  Every pair has its own m, start and stop points, held
    in arrays and masks.  Requires ``1 <= |m| <= min(j1, j2)``, so each
    slice has at least three entries.

    Returns a (W, P) array laid out as in :func:`_three_j_000_slices`.
    """
    jmin = np.abs(j1 - j2)
    n = j1 + j2 - jmin + 1
    W = int(np.max(n))
    P = len(j1)
    # coefficients on the rows i = 0..W-1, j = jmin + i; every work array
    # is updated in place and dropped after its last use
    j = jmin + np.arange(W + 1)[:, None]
    jf = j.astype(float)
    A = j * j
    np.subtract(A, (j1 - j2) ** 2, out=A)
    np.multiply(j, j, out=j)
    np.subtract((j1 + j2 + 1) ** 2, j, out=j)
    A *= j
    del j
    np.maximum(A, 0, out=A)
    A = np.sqrt(A.astype(float))
    A *= jf                        # A(j) = j sqrt(...)
    jf = jf[:-1]
    C = jf + 1.0
    C *= A[:-1]                    # (j+1) A(j)
    D = A[1:]
    D *= jf                        # j A(j+1)
    del A
    B = 2.0 * jf
    B += 1.0
    np.negative(B, out=B)
    B *= 2.0 * m
    B *= jf
    jf += 1.0
    B *= jf                        # B(j) = -(2j+1) 2m j (j+1)
    del jf
    np.negative(B, out=B)
    with np.errstate(divide="ignore", invalid="ignore"):
        fa = B / D                 # f(j+1) = fa f(j) + fb f(j-1)
        ga = np.divide(B, C, out=B)  # g(j-1) = ga g(j) + gb g(j+1)
        fb = np.negative(C) / D
        gb = np.negative(D, out=D)
        gb /= C
    del B, C, D

    cols = np.arange(P)
    f = np.zeros((W, P))
    seeded = jmin == 0  # j1 == j2: the j = 0 relation is empty
    s = _parity_sign(j1 - m)
    f[0] = np.where(seeded, s / np.sqrt(2.0 * j1 + 1.0), 1.0)
    f[1] = np.where(seeded, s * m / np.sqrt(j1 * (j1 + 1.0) * (2.0 * j1 + 1.0)), 0.0)
    istart = seeded.astype(int)
    ifwd = istart.copy()
    falling = np.zeros(P, dtype=int)
    running = istart <= n - 2
    mag = np.abs(f[0])  # |f[i]| at the top of step i
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(W - 1):
            # istart is 0 or 1: only the first step leaves seeded pairs out
            act = running & ~seeded if i == 0 else running
            if not act.any():
                if i:
                    break  # a pair that stops running never restarts
                mag = np.abs(f[1])
                continue
            prev = f[i - 1] if i > 0 else 0.0
            np.copyto(f[i + 1], fa[i] * f[i] + fb[i] * prev, where=act)
            np.copyto(ifwd, i + 1, where=act)
            nxt = np.abs(f[i + 1])
            big = act & (nxt > _RESCALE)
            if big.any():
                f[:, big] /= nxt[big]
                mag, nxt = np.abs(f[i]), np.abs(f[i + 1])
            # three consecutive decreases mark the classical region (a
            # single dip can be an accidental zero of the growing solution);
            # the count of a pair that is not running is never read again
            falling += 1
            falling *= nxt < mag
            stopped = falling >= 3
            if i <= 1:
                falling *= act
                stopped &= i > istart
            running &= (i + 1 <= n - 2) & ~stopped
            mag = nxt
        del fa, fb

        g = np.zeros((W, P))
        g[n - 1, cols] = 1.0
        # the backward sweep overlaps the last four forward values, all
        # past the forward peak, so that the match never rests on a single
        # point next to a zero crossing
        ibwd = np.maximum(np.minimum(ifwd, n - 2) - 3, 0)
        rows = np.arange(W)[:, None]
        sweep = (rows <= n - 1) & (rows > ibwd)
        for i in range(W - 1, int(ibwd.min()), -1):
            act = sweep[i]
            if not act.any():
                continue
            nxt = g[i + 1] if i < W - 1 else 0.0
            np.copyto(g[i - 1], ga[i] * g[i] + gb[i] * nxt, where=act)
            mag = np.abs(g[i - 1])
            big = act & (mag > _RESCALE)
            if big.any():
                g[:, big] /= mag[big]
        del ga, gb, sweep

    # match where both sweeps are farthest from an accidental zero
    q = np.minimum(np.abs(f), np.abs(g))
    q[(rows < ibwd) | (rows > ifwd)] = -1.0
    k = np.argmax(q, axis=0)
    ok = q[k, cols] > 0.0
    del q
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(ok, g[k, cols] / f[k, cols], 0.0)
    f *= ratio
    out = g
    np.copyto(out, f, where=ok & (rows < k))
    del f
    # row by row, so that zero padding past a pair's j_max changes nothing
    sq = 2.0 * (jmin + rows) + 1.0
    sq *= out
    sq *= out
    norm = np.zeros(P)
    for i in range(W):
        norm += sq[i]
    del sq
    out /= np.sqrt(norm)
    out *= np.where(out[n - 1, cols] * _parity_sign(j1 - j2) < 0.0, -1.0, 1.0)
    return out


def _h_slices(l, lp, m):
    """H_{l l'}^{l''} for arrays of pairs and their m (an array or one
    value), as a (W, P) array whose row t holds l'' = |l-l'| + t (zero past
    l + l')."""
    l = np.asarray(l, dtype=np.int64)
    lp = np.asarray(lp, dtype=np.int64)
    m = np.broadcast_to(np.asarray(m, dtype=np.int64), l.shape)
    # the (0 0 0) factors depend on the pair only: once per distinct pair
    _, first, pair = np.unique(l * (np.max(lp, initial=0) + 1) + lp,
                               return_index=True, return_inverse=True)
    l0, lp0 = l[first], lp[first]
    w0 = _three_j_000_slices(l0, lp0)
    js = np.abs(l0 - lp0) + np.arange(w0.shape[0])[:, None]
    pref = np.sqrt((2.0 * l0 + 1.0) * (2.0 * lp0 + 1.0))
    out = (pref * (2.0 * js + 1.0) * w0)[:, pair]
    del js
    # the m = 0 slices take (0 0 0) twice; the others the recurrence, whose
    # rows past the widest slice among them are zero in w0 already
    zero = m == 0
    out[:, zero] *= w0[:, pair[zero]]
    del w0
    rest = np.flatnonzero(~zero)
    if len(rest):
        wm = _three_j_m_slices(l[rest], lp[rest], m[rest])
        out[: wm.shape[0], rest] *= wm
    return out


@functools.lru_cache(maxsize=200000)
def _slice_m(j1, j2, m):
    """The l'' slice of 3j(j1 j2 .; m -m 0) from the package's closed form
    at m = 0 and the l''-recurrence :func:`_three_j_m_slices` otherwise,
    as a read-only array."""
    j1s, j2s = np.array([j1]), np.array([j2])
    if m == 0:
        vals = _three_j_000_slices(j1s, j2s)
    else:
        vals = _three_j_m_slices(j1s, j2s, np.array([m]))
    vals = vals[: j1 + j2 - abs(j1 - j2) + 1, 0]
    vals.flags.writeable = False
    return vals


def three_j(j1, j2, j3, m1, m2, m3):
    """Float Wigner 3j symbol: the package's routes for the patterns
    (0,0,0) and (m,-m,0), one entry at a time, which the exact oracle
    checks; other m patterns by the Racah sum, up to ``RACAH_L_MAX``.

    Out-of-domain inputs (triangle violation, |m| > j, m1+m2+m3 != 0)
    return 0 by convention.  General m patterns past ``RACAH_L_MAX`` raise
    ``NotImplementedError``.
    """
    if m1 + m2 + m3 != 0:
        return 0.0
    if not abs(j1 - j2) <= j3 <= j1 + j2:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    if m3 == 0 and m1 == -m2:
        return float(_slice_m(j1, j2, m1)[j3 - abs(j1 - j2)])
    if max(j1, j2, j3) <= RACAH_L_MAX:
        return _three_j_racah(j1, j2, j3, m1, m2, m3)
    raise NotImplementedError(
        "general m patterns are only available up to l = RACAH_L_MAX")


def h_factor(l, lp, lpp, m):
    """Geometric coupling H_{l l'}^{l''} from :func:`three_j`, one entry at
    a time; zero outside the triangle domain and for odd l+l'+l''."""
    w0 = three_j(l, lp, lpp, 0, 0, 0)
    if w0 == 0.0:
        return 0.0
    wm = three_j(l, lp, lpp, m, -m, 0)
    return math.sqrt((2.0 * l + 1.0) * (2.0 * lp + 1.0)) * (2.0 * lpp + 1.0) * w0 * wm


def bessel_i_series(l, x, terms=30):
    """Ascending series I_nu(x) = (x/2)^nu sum_k (x^2/4)^k / (k! Gamma(nu+k+1))."""
    nu = mp.mpf(2 * l + 1) / 2
    x = mp.mpf(x)
    s = mp.mpf(0)
    for k in range(terms):
        s += (x * x / 4) ** k / (mp.factorial(k) * mp.gamma(nu + k + 1))
    return float((x / 2) ** nu * s)


def bessel_k_half_closed(l, x):
    """Exact finite sum K_{l+1/2}(x) = sqrt(pi/2x) e^-x sum_k (l+k)!/(k!(l-k)!(2x)^k)."""
    x = mp.mpf(x)
    s = mp.mpf(0)
    for k in range(l + 1):
        s += mp.factorial(l + k) / (mp.factorial(k) * mp.factorial(l - k) * (2 * x) ** k)
    return float(mp.sqrt(mp.pi / (2 * x)) * mp.e ** (-x) * s)


def mp_log_bessel(kind, l, x):
    """log |B_{l+1/2}(x)| and sign by mpmath."""
    nu = mp.mpf(2 * l + 1) / 2
    fn = {"i": mp.besseli, "k": mp.besselk, "j": mp.besselj, "y": mp.bessely}[kind]
    v = fn(nu, mp.mpf(x))
    if v == 0:
        return 0, mp.mpf("-inf")
    return int(mp.sign(v)), float(mp.log(abs(v)))


def mp_log_hankel(l, x):
    """log |H2_{l+1/2}(x)| and its phase in (-pi, pi] by mpmath, with
    H2 = J - iY (H1 = J + iY is its conjugate)."""
    nu = mp.mpf(2 * l + 1) / 2
    x = mp.mpf(x)
    h = mp.besselj(nu, x) - 1j * mp.bessely(nu, x)
    return float(mp.log(abs(h))), float(mp.arg(h))


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
            return LogValue(0, -math.inf)
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
            return cls(0, -math.inf)
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


# Single values read from the package's tables, checked for the order cap
# of ``specfun.L_CAP`` one entry at a time.

def log_bessel_i_half(l, x):
    """I_{l+1/2}(x) as a :class:`LogValue` (relative accuracy ~1e-13)."""
    from casphere import specfun
    specfun._check_domain(l, x)
    logi, _ = specfun.log_ik_arrays(l, x)
    return LogValue(1, float(logi[l]))


def log_bessel_k_half(l, x):
    """K_{l+1/2}(x) as a :class:`LogValue`; the sign is always +1."""
    from casphere import specfun
    specfun._check_domain(l, x)
    _, logk = specfun.log_ik_arrays(l, x)
    return LogValue(1, float(logk[l]))


@functools.lru_cache(maxsize=256)
def log_y_arrays(l_max, x):
    """Signed-log Y_{l+1/2}(x) for l = 0..l_max (+1 spare), by upward
    recurrence from the closed forms at orders 1/2 and 3/2, with a running
    exponent, next to the J of ``specfun.log_jy_arrays``.  Returns
    ``(sign_y, log_y)``; cached, do not mutate."""
    from casphere import specfun
    specfun._check_domain(0, x)
    n = l_max + 2
    sy = [0.0] * n
    ly = [-math.inf] * n
    c = math.sqrt(2.0 / (math.pi * x))
    y0 = -c * math.cos(x)
    y1 = -c * (math.cos(x) / x + math.sin(x))
    shift = 0.0
    if y0 != 0.0:
        sy[0], ly[0] = math.copysign(1.0, y0), math.log(abs(y0))
    if y1 != 0.0:
        sy[1], ly[1] = math.copysign(1.0, y1), math.log(abs(y1))
    for l in range(1, n - 1):
        nu = l + 0.5
        y2 = (2.0 * nu / x) * y1 - y0
        if abs(y2) > specfun._BIG:
            sc = abs(y2)
            y1 /= sc
            y2 /= sc
            shift += math.log(sc)
        if y2 != 0.0:
            sy[l + 1] = math.copysign(1.0, y2)
            ly[l + 1] = math.log(abs(y2)) + shift
        y0, y1 = y1, y2
    return np.array(sy), np.array(ly)


def bessel_j_half(l, x):
    """J_{l+1/2}(x) as a :class:`LogValue` (downward recurrence).

    Relative accuracy is ~1e-12 away from the zeros of J; at a zero only
    absolute accuracy (of order 1e-15 times the neighbour magnitude) is
    meaningful.
    """
    from casphere import specfun
    specfun._check_domain(l, x)
    sj, lj = specfun.log_jy_arrays(l, x)
    return LogValue(int(sj[l]), float(lj[l]))


def bessel_y_half(l, x):
    """Y_{l+1/2}(x) as a :class:`LogValue` (upward recurrence)."""
    from casphere import specfun
    specfun._check_domain(l, x)
    sy, ly = log_y_arrays(l, x)
    return LogValue(int(sy[l]), float(ly[l]))


def ratio_jy(l, x):
    """The ratio r_nu = J_{l+1/2}(x) / Y_{l+1/2}(x), formed in log space.

    Raises
    ------
    PoleError
        when x lies within ~1e-12 of a zero of Y_{l+1/2} (estimated from
        the Newton step ``|Y/Y'|``).
    """
    from casphere import specfun
    specfun._check_domain(l, x)
    sj, lj = specfun.log_jy_arrays(l + 1, x)
    sy, ly = log_y_arrays(l + 1, x)
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
    if scale == -math.inf:
        raise ValueError("H2 of an exact zero pair")
    re = sign_j * math.exp(log_j - scale)
    im = -sign_y * math.exp(log_y - scale)
    return scale + 0.5 * math.log(re * re + im * im), math.atan2(im, re)


def hankel2_half(l, x):
    """H^(2)_{l+1/2}(x) = J - iY as a :class:`ComplexLogValue`, assembled
    from the J and Y tables (not from the package's Hankel recurrence)."""
    from casphere import specfun
    specfun._check_domain(l, x)
    sj, lj = specfun.log_jy_arrays(l, x)
    sy, ly = log_y_arrays(l, x)
    lm, ph = hankel2_from_jy(sj[l], lj[l], sy[l], ly[l])
    return ComplexLogValue(lm, ph)


def m_scalar(l, lp, m, xi, geom, spec):
    """Single scalar matrix element M_{l,l'}(xi) on the imaginary axis, read
    from the package's block ``kernel.scalar_matrix``."""
    from casphere import kernel
    if l < abs(m) or lp < abs(m):
        raise ValueError("l, l' must be >= |m|")
    M = kernel.scalar_matrix(m, xi, geom, spec, max(l, lp))
    return float(M[l - abs(m), lp - abs(m)])


def m_rotated(l, lp, m, xi, geom, spec):
    """Single rotated matrix element M_{l,l'}(i xi) (scalar field), read
    from the package's block ``kernel.rotated_matrix``."""
    from casphere import kernel
    if l < abs(m) or lp < abs(m):
        raise ValueError("l, l' must be >= |m|")
    M = kernel.rotated_matrix(m, xi, geom, spec, max(l, lp))
    return complex(M[l - abs(m), lp - abs(m)])


def _log_three_j_top(j1, j2, m):
    """log |3j(j1 j2 j1+j2; m -m 0)| at the stretched top; sign is (-1)^(j1-j2)."""
    return 0.5 * (_logfac(2 * j1) + _logfac(2 * j2) + 2.0 * _logfac(j1 + j2)
                  - _logfac(2 * j1 + 2 * j2 + 1)
                  - _logfac(j1 - m) - _logfac(j1 + m)
                  - _logfac(j2 - m) - _logfac(j2 + m))


def _h_top_value(l, lp, m):
    """H_{l l'}^{l+l'}; positive for |m| <= min(l, l')."""
    log3j0 = _log_three_j_top(l, lp, 0)
    log3jm = _log_three_j_top(l, lp, abs(m))
    return math.sqrt((2.0 * l + 1.0) * (2.0 * lp + 1.0)) \
        * (2.0 * (l + lp) + 1.0) * math.exp(log3j0 + log3jm)


def m_static(l, lp, m, geom, pol):
    """Zero-frequency matrix element, closed form, entry by entry.

    pol is 'dirichlet', 'neumann', 'te' or 'tm'; |m| <= min(l, l').
    Dirichlet: ``(R/2L)^(l+l'+1) sqrt(pi) Gamma(l+l'+1/2) /
    (2 Gamma(l+1/2) Gamma(l'+3/2)) H_top``; Neumann multiplies by
    ``-l'/(l+1)``, TE by ``Lambda_top``, TM by ``(l'+1)/l * Lambda_top``
    (TM requires l >= 1).  The stretched-top 3j symbols come from
    ``math.lgamma`` factorials, not from the package's log-gamma table.
    """
    geom.require_gap()
    if abs(m) > min(l, lp):
        return 0.0
    if pol == "tm" and l == 0:
        raise ValueError("the TM static element is undefined at l = 0")
    logd = ((l + lp + 1) * math.log(geom.R / (2.0 * geom.L))
            + 0.5 * math.log(math.pi) - math.log(2.0)
            + math.lgamma(l + lp + 0.5) - math.lgamma(l + 0.5) - math.lgamma(lp + 1.5))
    base = math.exp(logd) * _h_top_value(l, lp, m)
    if pol == "dirichlet":
        return base
    if pol == "neumann":
        return -lp / (l + 1.0) * base
    lam_top = math.sqrt(l * lp / ((l + 1.0) * (lp + 1.0)))
    if pol == "te":
        return base * lam_top
    if pol == "tm":
        return (lp + 1.0) / l * base * lam_top
    raise ValueError(f"unknown polarization {pol!r}")


def h_slice(l, lp, m):
    """H_{l l'}^{l''} over l'' = |l-l'| .. l+l', one pair read from the
    batched l''-recurrence slices of :func:`_h_slices` (|m| <= min(l, l'))."""
    return _h_slices([l], [lp], abs(m))[: l + lp - abs(l - lp) + 1, 0]


def m_em_block(l, lp, m, xi, geom):
    """Electromagnetic 2x2 block in the entrywise (two-index) convention.

    Layout ``[[TE-TE, TE-TM], [TM-TE, TM-TM]]``: the polarization mixing
    matrix multiplies ``diag(d_TE, -d_TM)`` from the right, with the sphere
    factors carrying the column momentum in the numerator and the row
    momentum in the denominator.  The zero-frequency limit of every entry
    reproduces :func:`m_static`; off the diagonal this convention differs
    from the package's ``kernel.em_matrix`` by a non-diagonal similarity,
    and it shares every spectral quantity with it at m = 0 and in the
    static limit.
    """
    from casphere import kernel, specfun
    if min(l, lp) < max(1, abs(m)):
        raise ValueError("electromagnetic blocks need l, l' >= max(1, |m|)")
    geom.require_gap()
    if not xi > 0.0:
        raise ValueError("xi must be positive; use m_static for xi = 0")
    x = xi * geom.R
    y = 2.0 * xi * geom.L
    l_hi = max(l, lp)
    _, log_num_te, _, log_den_te = kernel._sphere_factors_imag("dirichlet", x, l_hi)
    _, log_num_tm, s_den_tm, log_den_tm = kernel._sphere_factors_imag("tm", x, l_hi)
    _, logk_y = specfun.log_ik_arrays(l + lp, y)
    hs = h_slice(l, lp, m)
    ks = np.arange(abs(l - lp), l + lp + 1)
    kk = ks.astype(float)
    lam = 0.5 * (kk * (kk + 1.0) - l * (l + 1.0) - lp * (lp + 1.0)) \
        / math.sqrt(l * (l + 1.0) * lp * (lp + 1.0))
    top = logk_y[l + lp]
    w = np.exp(logk_y[ks] - top)
    S = float(np.sum(w * hs))
    S_lam = float(np.sum(w * hs * lam))
    log_pref = 0.5 * math.log(math.pi / (4.0 * xi * geom.L)) + top
    tilde = 2.0 * m * xi * geom.L / math.sqrt(l * (l + 1.0) * lp * (lp + 1.0))
    d_te = math.exp(log_num_te[lp] - log_den_te[l] + log_pref)
    d_tm = s_den_tm[l] * math.exp(log_num_tm[lp] - log_den_tm[l] + log_pref)
    return np.array([[S_lam * d_te, -S * tilde * d_tm],
                     [S * tilde * d_te, -S_lam * d_tm]])


def m_scalar_direct(l, lp, m, xi, R, L, sphere_bc="dirichlet"):
    """Scalar matrix element straight from modified Bessel functions in
    mpmath, with the l'' sum over exact-rational couplings."""
    nu = mp.mpf(2 * l + 1) / 2
    nup = mp.mpf(2 * lp + 1) / 2
    x = mp.mpf(xi) * R
    if sphere_bc == "dirichlet":
        d = mp.besseli(nup, x) / mp.besselk(nu, x)
    else:
        num = mp.diff(lambda t: mp.besseli(nup, t) / mp.sqrt(t), x)
        den = mp.diff(lambda t: mp.besselk(nu, t) / mp.sqrt(t), x)
        d = num / den
    s = mp.mpf(0)
    for lpp in range(abs(l - lp), l + lp + 1, 2):
        h = h_factor_exact(l, lp, lpp, m)
        if h == 0.0:
            continue
        s += mp.besselk(mp.mpf(2 * lpp + 1) / 2, 2 * mp.mpf(xi) * L) * h
    return float(d * mp.sqrt(mp.pi / (4 * mp.mpf(xi) * L)) * s)


def m_rotated_direct(l, lp, m, xi, R, L):
    """Rotated element by direct complex continuation xi -> i xi of the
    imaginary-axis formula (principal branches throughout)."""
    z = mp.mpc(0, 1) * mp.mpf(xi)
    nu = mp.mpf(2 * l + 1) / 2
    nup = mp.mpf(2 * lp + 1) / 2
    d = mp.besseli(nup, z * R) / mp.besselk(nu, z * R)
    s = mp.mpc(0)
    for lpp in range(abs(l - lp), l + lp + 1, 2):
        h = h_factor_exact(l, lp, lpp, m)
        if h == 0.0:
            continue
        s += mp.besselk(mp.mpf(2 * lpp + 1) / 2, 2 * z * L) * h
    return complex(d * mp.sqrt(mp.pi / (4 * z * L)) * s)


def f0_dirichlet_static(R, L, l_max):
    """Static Dirichlet sphere-plane zero mode F_0 = (1/2) sum_m ln det(1 - M^m)
    in mpmath, from the factorial closed form of the round-trip matrix

    ``M^m_{ll'} = x^(l+l'+1) (l+l')! / sqrt((l+m)!(l-m)!(l'+m)!(l'-m)!)``,
    ``x = R/2L``, for ``|m| <= l, l' <= l_max``.

    Entries fall off like (2x)^(l+l'), so a modest l_max is exact to working
    precision far from contact.  The s-wave logarithm and the l = 1
    diagonals (m-summed 4 x^3) give the large-L expansion

    ``F_0 = -(R/4L) [1 + R/4L + (13/12) (R/L)^2 + O((R/L)^3)]``.
    """
    x = mp.mpf(R) / (2 * mp.mpf(L))
    f = mp.factorial
    total = mp.mpf(0)
    for m in range(l_max + 1):
        ls = range(m, l_max + 1)
        a = mp.matrix(len(ls), len(ls))
        for i, l in enumerate(ls):
            for j, lp in enumerate(ls):
                a[i, j] = (1 if i == j else 0) - x ** (l + lp + 1) * f(l + lp) \
                    / mp.sqrt(f(l + m) * f(l - m) * f(lp + m) * f(lp - m))
        total += (1 if m == 0 else 2) * mp.log(mp.det(a))
    return float(total / 2)


def mp_g(x, tol=mp.mpf("1e-35")):
    """High-precision g(x) through the exponentially convergent form."""
    x = mp.mpf(x)
    z3 = mp.zeta(3)
    s = mp.mpf(0)
    m = 1
    while True:
        y = m * mp.pi * x
        e = mp.e ** (-2 * y)
        t = 2 * e / (y ** 3 * (1 - e)) + 4 * e / (y * (1 - e)) ** 2
        s += t
        if t < tol * s or y > 90:
            break
        m += 1
    return -1 + 45 * z3 * x / mp.pi ** 3 + 45 * x ** 4 * s


def mp_h(x, tol=mp.mpf("1e-35")):
    """High-precision h(x) through the exponentially convergent form."""
    x = mp.mpf(x)
    z3 = mp.zeta(3)
    s = mp.mpf(0)
    m = 1
    while True:
        y = m * mp.pi * x
        e = mp.e ** (-2 * y)
        t = 2 * e / (y ** 3 * (1 - e))
        s += t
        if t < tol * s or y > 90:
            break
        m += 1
    return 90 * z3 * x / mp.pi ** 3 - 1 + 90 * x ** 4 * s


def g_from_momentum_integral(x, n_terms=40):
    """g(x) from the transverse-momentum integral representation (slow; an
    independent check of the mode sum in ``pfa.g_function``)."""
    from casphere.pfa import PI3, ZETA3
    if x <= 0.0:
        raise ValueError("the integral representation needs x > 0")
    s = 0.0
    for n in range(1, n_terms + 1):
        a = 2.0 * math.pi * n * x

        def integrand(k, a=a):
            return k * math.log1p(-math.exp(-math.hypot(a, k)))

        v, _ = quad(integrand, 0.0, a + 60.0, limit=200)
        s += v
        if abs(v) < 1e-18 * abs(s):
            break
    return -1.0 + 45.0 * ZETA3 * x / PI3 - 90.0 * x / PI3 * s


def h_from_g_integral(x):
    """h(x) = 2 int_1^inf dt g(t x)/t^3 by adaptive quadrature of
    ``pfa.g_function``."""
    from casphere.pfa import PI3, ZETA3, g_function
    if x <= 0.0:
        raise ValueError("the integral representation needs x > 0")
    # split where g switches to its linear regime for a smooth quad
    split = max(2.0, 4.0 / x)
    v1, _ = quad(lambda t: g_function(t * x) / t ** 3, 1.0, split,
                 limit=400, epsabs=1e-14, epsrel=1e-13)
    # beyond the split g(tx) = 45 z3 t x/pi^3 - 1 up to exp-small terms
    v2, _ = quad(lambda t: g_function(t * x) / t ** 3, split, split * 40.0,
                 limit=400, epsabs=1e-14, epsrel=1e-13)
    hi = split * 40.0
    tail = 45.0 * ZETA3 * x / (PI3 * hi) - 0.5 / hi ** 2
    return 2.0 * (v1 + v2 + tail)


def g_third_moment(cut=40.0):
    """int_0^inf dt g(t)/t^3 with the analytic linear-regime tail; equals 5/2."""
    from casphere.pfa import PI3, ZETA3, g_function
    v, _ = quad(lambda t: g_function(t) / t ** 3 if t > 0 else 45.0 * ZETA3 / PI3,
                0.0, cut, limit=400, epsabs=1e-12, epsrel=1e-12)
    tail = 45.0 * ZETA3 / (PI3 * cut) - 0.5 / cut ** 2
    return v + tail


def fd_force(energy, geom, spec, T, trunc=None):
    """-dE/dd by Richardson-extrapolated central differences of an energy
    function ``energy(geom, spec, T, trunc)`` with ``.value`` and
    ``.error_estimate`` (``matsubara_free_energy`` or ``thermal_part``).

    Four evaluations at d +- h and d +- h/2 with ``h = max(1e-3 d, 1e-4 R)``
    (at most d/2), extrapolated once.  Returns ``(value, error estimate)``;
    the estimate adds the gap between the two stencils and the energies'
    own estimates divided by h.
    """
    h = min(max(1e-3 * geom.d, 1e-4 * geom.R), 0.5 * geom.d)
    res = {dd: energy(replace(geom, d=geom.d + dd), spec, T, trunc)
           for dd in (h, -h, 0.5 * h, -0.5 * h)}
    f_h = -(res[h].value - res[-h].value) / (2.0 * h)
    f_h2 = -(res[0.5 * h].value - res[-0.5 * h].value) / h
    quad_err = max(r.error_estimate for r in res.values()) / h
    return (4.0 * f_h2 - f_h) / 3.0, abs(f_h2 - f_h) / 3.0 + quad_err


def em_free_energy_eigenvalues(kernel, geom, T, l_max, n_max):
    """``(T/2) ln det(1 - M(0)) + T sum_{n=1}^{n_max} ln det(1 - M(2 pi T n))``
    for the electromagnetic field, every log-determinant summed as
    ``ln(1 - lambda)`` over the eigenvalues of the package's blocks
    (``kernel`` is ``casphere.kernel``), over every m <= l_max, instead of
    the package's LU log-determinants and m cut."""
    spec = kernel.FieldSpec.em()
    total = 0.0
    for n in range(n_max + 1):
        for m in range(l_max + 1):
            if n == 0:
                M = kernel.static_matrix(m, geom, spec, l_max)
            else:
                M = kernel.em_matrix(m, 2.0 * math.pi * T * n, geom, l_max)
            lam = np.linalg.eigvals(M).astype(complex)
            weight = (1.0 if m == 0 else 2.0) * (0.5 if n == 0 else 1.0)
            total += weight * float(np.sum(np.log(1.0 - lam)).real)
    return T * total


class SeriesDivergenceError(ArithmeticError):
    """The expanded-logarithm series does not converge (spectral radius >= 1)."""


def trace_log_series(M, plane_sign=1, s_max=80):
    """-sum_{s=0}^{s_max} plane_sign^{s+1} Tr(M^{s+1})/(s+1) by explicit
    matrix powers: the expanded logarithm of det(1 - plane_sign M).

    Returns the partial sum and the magnitude of the last retained term,
    which serves as the convergence estimate; raises SeriesDivergenceError
    when the term magnitudes grow three times in a row (spectral radius
    >= 1).
    """
    M = np.asarray(M)
    if M.size == 0:
        return 0.0 + 0.0j, 0.0
    P = M.copy()
    total = 0.0 + 0.0j
    last = prev = math.inf
    growing = 0
    for s in range(s_max + 1):
        term = -(plane_sign ** (s + 1)) * np.trace(P) / (s + 1)
        total += term
        last = abs(term)
        growing = growing + 1 if last > prev else 0
        if growing >= 3:
            raise SeriesDivergenceError(
                f"term magnitudes grow at s={s}; spectral radius >= 1")
        prev = last
        if last < 1e-16 * max(abs(total), 1e-300):
            break
        if s < s_max:
            P = P @ M
    return total, last


def log_det_lu(stack, plane_sign=1):
    """ln det(1 - plane_sign * M) of each complex block M of the stack
    (k, n, n), as an array of k complex values: one LU factorization per
    block, the principal branch of each pivot's logarithm, and i pi for an
    odd number of row swaps.  The imaginary part is that of a
    log-determinant modulo 2 pi."""
    from casphere.trlog import SingularBlockError
    M = np.asarray(stack)
    vals = np.empty(len(M), dtype=complex)
    eye = np.eye(M.shape[-1], dtype=M.dtype)
    for i, block in enumerate(M):
        lu, piv = scipy.linalg.lu_factor(eye - plane_sign * block, check_finite=False)
        diag = np.diag(lu)
        if np.any(np.abs(diag) < 1e-300):
            raise SingularBlockError("vanishing pivot in 1 - M")
        # row swaps flip the determinant sign but leave |det| and the
        # per-pivot principal branches as the defined value of this evaluator
        nswap = np.count_nonzero(piv != np.arange(len(piv)))
        vals[i] = np.sum(np.log(diag.astype(complex)))
        if nswap % 2 == 1:
            vals[i] += complex(0.0, math.pi)
    return vals


def trace_log_eigenvalues(M, plane_sign=1):
    """sum_i Log(1 - plane_sign lambda_i) over the eigenvalues of M, each
    on the principal branch."""
    lam = plane_sign * np.linalg.eigvals(np.asarray(M)).astype(complex)
    return complex(np.sum(np.log(1.0 - lam)))


def sphere_factors_rotated_loop(bc, x, l_max):
    """The rotated sphere factors of ``kernel._sphere_factors_rotated``,
    one l at a time in scalar arithmetic: signed-log numerator
    ``(l/x) J_nu - J_{nu+1}`` (J for a Dirichlet sphere) and complex-log
    denominator ``(l/x) H_nu - H_{nu+1}`` (H), with H = H2."""
    from casphere import specfun
    sj, lj = specfun.log_jy_arrays(l_max, x)
    h2m, h2p = specfun.log_hankel2_arrays(l_max, x)
    if bc == "dirichlet":
        return sj[: l_max + 1], lj[: l_max + 1], h2m[: l_max + 1], h2p[: l_max + 1]
    sign_num = np.empty(l_max + 1)
    log_num = np.empty(l_max + 1)
    den_mag = np.empty(l_max + 1)
    den_ph = np.empty(l_max + 1)
    for l in range(l_max + 1):
        c = l / x
        scale = max(lj[l] + (math.log(c) if c > 0 else -math.inf), lj[l + 1])
        if scale == -math.inf:
            sign_num[l], log_num[l] = 0.0, -math.inf
        else:
            val = (c * sj[l] * math.exp(lj[l] - scale)
                   - sj[l + 1] * math.exp(lj[l + 1] - scale))
            sign_num[l] = math.copysign(1.0, val) if val != 0.0 else 0.0
            log_num[l] = math.log(abs(val)) + scale if val != 0.0 else -math.inf
        scale = max((h2m[l] + math.log(c)) if c > 0 else -math.inf, h2m[l + 1])
        z = (c * math.exp(h2m[l] - scale) * complex(math.cos(h2p[l]), math.sin(h2p[l]))
             - math.exp(h2m[l + 1] - scale)
             * complex(math.cos(h2p[l + 1]), math.sin(h2p[l + 1])))
        den_mag[l] = math.log(abs(z)) + scale
        den_ph[l] = math.atan2(z.imag, z.real)
    return sign_num, log_num, den_mag, den_ph


@functools.lru_cache(maxsize=16)
def h_tensor_dense(m, l_start, l_max):
    """Dense ``H[a, b, k]`` with l = l_start + a, l' = l_start + b and
    l'' = k in 0..2 l_max, built pair by pair from :func:`h_slice`
    instead of the package's anti-diagonal store; zero outside the
    triangle.  Cached; read-only."""
    n = l_max - l_start + 1
    H = np.zeros((n, n, 2 * l_max + 1))
    for a in range(n):
        for b in range(a, n):
            l, lp = l_start + a, l_start + b
            ks = np.arange(abs(l - lp), l + lp + 1)
            H[a, b, ks] = H[b, a, ks] = h_slice(l, lp, m)
    H.flags.writeable = False
    return H


@functools.lru_cache(maxsize=16)
def store_tensor_dense(m, l_start, l_max):
    """Dense ``H[a, b, k]`` laid out as :func:`h_tensor_dense`, read pair by
    pair from the package's coupling store of m at l_max: the H values of
    the blocks, for the oracles whose subject is the block assembly, not
    the 3j symbols.  Cached; read-only."""
    from casphere import wigner
    G = wigner.h_tensor(m, l_max)
    n = l_max - l_start + 1
    H = np.zeros((n, n, 2 * l_max + 1))
    for a in range(n):
        for b in range(a, n):
            l, lp = l_start + a, l_start + b
            ks = np.arange(l + lp, lp - l - 1, -2)  # l'' = l + l' - 2t, t = 0..l
            H[a, b, ks] = H[b, a, ks] = G[l + lp - 2 * m, (lp - l) // 2, : l + 1]
    H.flags.writeable = False
    return H


def _k_shift_table_dense(y, l_max, derivative=False):
    """The full imaginary-axis shift table ``U[s, k] = K_{k+1/2}(y) /
    K_{s+1/2}(y)`` over s, k = 0..2 l_max (the l'' weights of dM/dy with
    ``derivative``), and log K_{s+1/2}(y)."""
    from casphere import specfun
    _, logk = specfun.log_ik_arrays(2 * l_max, y)
    top = logk[: 2 * l_max + 1]

    def shift(lo):
        return np.exp(np.minimum(logk[None, lo: lo + 2 * l_max + 1] - top[:, None], 50.0))

    U = shift(0)
    if derivative:
        U = (np.arange(2 * l_max + 1) / y) * U - shift(1)
    return U, top


def scalar_matrix_dense(m, xi, geom, spec, l_max, derivative=False):
    """``kernel.scalar_matrix`` with every l'' sum an einsum of the dense
    H tensor of :func:`store_tensor_dense` against the full shift table, in
    place of the package's anti-diagonal layout and matrix product."""
    from casphere import kernel
    m = abs(m)
    ls = np.arange(m, l_max + 1)
    top = ls[:, None] + ls[None, :]
    s_num, log_num, s_den, log_den = kernel._sphere_factors_imag(
        spec.sphere_bc, xi * geom.R, l_max)
    U, logk = _k_shift_table_dense(2.0 * xi * geom.L, l_max, derivative)
    S = np.einsum("abk,abk->ab", U[top], store_tensor_dense(m, m, l_max))
    if derivative:
        S *= 2.0 * xi
    log_pref = 0.5 * math.log(math.pi / (4.0 * xi * geom.L))
    mag = np.exp(log_num[ls][None, :] - log_den[ls][:, None] + log_pref + logk[top])
    return S * mag * s_num[ls][None, :] * s_den[ls][:, None]


def em_matrix_dense(m, xi, geom, l_max, derivative=False):
    """``kernel.em_matrix`` with the l'' sums S and S_Lambda as einsums of
    the dense H tensor of :func:`store_tensor_dense` and a dense Lambda tensor
    ``(l''(l''+1) - l(l+1) - l'(l'+1)) / (2 sqrt(l(l+1) l'(l'+1)))``
    against the full shift table, in place of the package's anti-diagonal
    layout and weight rows."""
    from casphere import kernel
    m = abs(m)
    ls = np.arange(max(1, m), l_max + 1)
    top = ls[:, None] + ls[None, :]
    x, y = xi * geom.R, 2.0 * xi * geom.L
    _, log_num_te, _, log_den_te = kernel._sphere_factors_imag("dirichlet", x, l_max)
    _, log_num_tm, s_den_tm, log_den_tm = kernel._sphere_factors_imag("tm", x, l_max)
    H = store_tensor_dense(m, ls[0], l_max)
    lf = ls.astype(float)
    k = np.arange(2 * l_max + 1, dtype=float)
    norm = np.sqrt(np.outer(lf * (lf + 1.0), lf * (lf + 1.0)))
    lam = 0.5 * (k * (k + 1.0) - (lf * (lf + 1.0))[:, None, None]
                 - (lf * (lf + 1.0))[None, :, None]) / norm[:, :, None]
    U, logk = _k_shift_table_dense(y, l_max)
    S = np.einsum("abk,abk->ab", U[top], H)
    if derivative:
        W = _k_shift_table_dense(y, l_max, True)[0][top]
        S = 2.0 * xi * np.einsum("abk,abk->ab", W, H) + S / geom.L
        S_lam = 2.0 * xi * np.einsum("abk,abk,abk->ab", W, H, lam)
    else:
        S_lam = np.einsum("abk,abk,abk->ab", U[top], H, lam)
    log_pref = 0.5 * math.log(math.pi / (4.0 * xi * geom.L))
    tilde = 2.0 * m * xi * geom.L / norm

    def part(Sm, log_num, log_den, sign_den):
        return Sm * np.exp(log_pref + logk[top] + log_num[ls][None, :]
                           - log_den[ls][:, None]) * sign_den[ls][:, None]

    ones = np.ones(l_max + 1)
    return np.block([
        [part(S_lam, log_num_te, log_den_te, ones),
         -part(S * tilde, log_num_tm, log_den_te, ones)],
        [part(S * tilde, log_num_te, log_den_tm, s_den_tm),
         -part(S_lam, log_num_tm, log_den_tm, s_den_tm)]])


def rotated_matrix_dense(m, xi, geom, spec, l_max, derivative=False):
    """One rotated block from the dense alternating coupling tensor: the
    l'' sum of every entry as an einsum over the full shift table
    ``U[s, k] = H_{k+1/2}(y) / |H_{s+1/2}(y)|``, with H from
    :func:`store_tensor_dense`, instead of the package's anti-diagonal
    layout and matrix products."""
    from casphere import specfun
    m = abs(m)
    ls = np.arange(m, l_max + 1)
    x, y = xi * geom.R, 2.0 * xi * geom.L
    s_num, log_num, den_mag, den_ph = sphere_factors_rotated_loop(
        spec.sphere_bc, x, l_max)
    H = store_tensor_dense(m, m, l_max)
    kk = np.arange(2 * l_max + 1)
    top = ls[:, None] + ls[None, :]
    H = H * (-1.0) ** ((top[:, :, None] - kk[None, None, :]) // 2)
    hy_mag, hy_ph = specfun.log_hankel2_arrays(2 * l_max, y)
    mag = hy_mag[: 2 * l_max + 1]

    def shift(lo):
        return np.exp(np.minimum(hy_mag[None, lo: lo + 2 * l_max + 1] - mag[:, None], 50.0)
                      + 1j * hy_ph[None, lo: lo + 2 * l_max + 1])

    U = shift(0)
    if derivative:
        U = (kk / y) * U - shift(1)
    S = np.einsum("abk,abk->ab", U[top], H)
    if derivative:
        S *= 2.0 * xi
    log_pref = 0.5 * math.log(math.pi / (4.0 * xi * geom.L))
    P = np.exp(log_num[ls][None, :] - den_mag[ls][:, None] + log_pref + mag[top])
    return (s_num[ls][None, :] * P) * np.exp(-1j * den_ph[ls][:, None]) * S


def node_by_node_sweep_state(fe):
    """A subclass of ``fe._SweepState`` (``fe`` is
    ``casphere.freeenergy``) that evaluates one node per call of the
    package's own node evaluation, so that no two nodes share a stack.
    Every node of one outer call runs from the running scale as it stood
    when that call began, and the call leaves the largest scale its nodes
    reached."""

    class NodeByNode(fe._SweepState):
        def evaluate(self, xis):
            start = top = self.scale
            runs = []
            try:
                for i in range(len(xis)):
                    self.scale = start
                    runs.append(super(NodeByNode, self).evaluate(xis[i: i + 1]))
                    top = max(top, self.scale)
            finally:
                self.scale = top
            return (np.concatenate([v for v, _ in runs]),
                    np.concatenate([e for _, e in runs]))

    return NodeByNode


def node_by_node_matsubara(geom, spec, T, trunc=None, derivative=False):
    """The Matsubara sum of ``freeenergy.matsubara_free_energy`` (or, with
    ``derivative``, of its separation derivative) as a sequential loop:
    one ``trlog.trace_over_m`` call per node, each node n >= 2 starting
    its l_max growth one step below the cut-off of the node before it, and
    each node's ``scale_floor`` 1e-2 of the largest |trace| before it, the
    zero-mode term |trace(0)| / 2 included.  The error estimate sums the
    omitted terms as a geometric tail with the ratio the larger of the
    last two terms' and exp(-4 pi T d), at least the last term.
    Returns an ``EnergyResult`` with the package's error estimate and the
    diagnostics ``l_max_used``, ``m_max_used``, ``n_max_used`` and
    ``converged``."""
    from casphere import trlog
    from casphere.freeenergy import EnergyResult, N_MAX
    trunc = trunc or trlog.Truncation()
    (tot0,), diag0 = trlog.trace_over_m(trlog.STATIC, geom, spec, trunc,
                                        derivative=derivative)
    F = 0.5 * T * tot0.real
    trunc_err = 0.5 * T * diag0.get("change", 0.0)
    l_used, m_used = diag0["l_max_used"], diag0["m_max_used"]
    converged = diag0["converged"]
    tol = trunc.rel_tol * 1e-2
    scale = 0.5 * abs(tot0.real)
    n, hint, last = 1, None, math.inf
    while True:
        (term,), diag = trlog.trace_over_m(trlog.IMAG_AXIS, geom, spec, trunc,
                                           xi=[2.0 * math.pi * T * n], l_max_start=hint,
                                           scale_floor=1e-2 * scale, derivative=derivative)
        hint = diag["l_max_used"] - 4
        scale = max(scale, abs(term))
        F += T * term.real
        trunc_err += T * diag.get("change", 0.0)
        l_used = max(l_used, diag["l_max_used"])
        m_used = max(m_used, diag["m_max_used"])
        converged = converged and diag["converged"]
        prev, last = last, abs(T * term.real)
        if last < tol * max(abs(F), 1e-300):
            break
        n += 1
        if n > N_MAX:
            raise ArithmeticError(f"more than N_MAX={N_MAX} terms")
    ratio = max(last / prev, math.exp(-4.0 * math.pi * T * geom.d))
    tail = max(last, last * ratio / (1.0 - ratio)) if ratio < 1.0 else math.inf
    return EnergyResult(F, tail + tol * abs(F) + trunc_err,
                        {"l_max_used": l_used, "m_max_used": m_used,
                         "n_max_used": n, "converged": converged})


def trace_log_eig_one_stage(stack, plane_sign=1):
    """``trlog.trace_log_eig`` of a stack of rotated blocks with the
    certificate from rho = ||A^8||_F^(1/8) alone, and the eigenvalues of
    each refused block taken on their own.  Returns the values and whether
    each block was certified."""
    A = plane_sign * np.asarray(stack)
    A2 = A @ A
    A4 = A2 @ A2
    A8 = A4 @ A4
    q2 = np.sum(np.abs(A2) ** 2, axis=(1, 2))
    rho = np.sum(np.abs(A8) ** 2, axis=(1, 2)) ** (1.0 / 16.0)
    certified = (rho < 1.0) & (rho * q2 < 5.0 * (1.0 - rho))
    vals = np.zeros(len(A), dtype=complex)
    C = A[certified]
    if len(C):
        C2, C4 = A2[certified], A4[certified]
        estimate = -(np.trace(C, axis1=1, axis2=2) + np.trace(C2, axis1=1, axis2=2) / 2.0
                     + np.trace(C2 @ C, axis1=1, axis2=2) / 3.0
                     + np.trace(C4, axis1=1, axis2=2) / 4.0)
        sign, logabs = np.linalg.slogdet(np.eye(A.shape[-1]) - C)
        phase = np.arctan2(sign.imag, sign.real)
        turns = np.rint((estimate.imag - phase) / (2.0 * math.pi))
        vals[certified] = logabs + 1j * (phase + 2.0 * math.pi * turns)
    for i in np.flatnonzero(~certified):
        lam = np.linalg.eigvals(stack[i]) * plane_sign
        vals[i] = np.sum(np.log(1.0 - lam.astype(complex)))
    return vals, certified
