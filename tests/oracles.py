"""Independent oracles shared by the test modules.

Everything here is deliberately built from different algorithms than the
package: exact rational arithmetic for 3j symbols, ascending series and
finite closed sums for Bessel functions, mpmath reference evaluations,
finite differences of energies for the force, and eigenvalue sums and the
expanded-logarithm series for log-determinants.
"""

import math
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np

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


def trace_log_eigenvalues(M, plane_sign=1):
    """sum_i Log(1 - plane_sign lambda_i) over the eigenvalues of M, each
    on the principal branch."""
    lam = plane_sign * np.linalg.eigvals(np.asarray(M)).astype(complex)
    return complex(np.sum(np.log(1.0 - lam)))
