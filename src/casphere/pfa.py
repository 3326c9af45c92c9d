r"""Parallel plates at finite temperature and the proximity force
approximation for the sphere.

The free energy per unit area of two parallel conducting planes at
separation d and temperature T is written as

.. math::
    \mathcal{F}_\parallel(d, T) = -\frac{\pi^2}{720\,d^3}\,(1 + g(2dT)),

which defines the temperature function g; a single scalar mode carries half
of this (``mode_count = 1``).  The sphere results involve a second function
h with

.. math::
    h(x) = 90 x^4 \sum_{m\ge1}\left[\frac{\coth(m\pi x)}{(m\pi x)^3}
           - \frac{1}{(m\pi x)^4}\right]
         = 2\int_1^\infty \frac{dt}{t^3}\, g(t x).

Both satisfy exact inversion symmetries, ``g(x) = x^4 g(1/x)`` and
``h(1/x) = 5/x^2 - h(x)/x^4`` (so h(1) = 5/2), and the derivative identity
``d/dx [h(x)/x^2] = -(2/x^3) g(x)`` ties h to the force.  The sums here are
rearranged into exponentially convergent form, exact to machine precision
for x >= the small-x switch point, below which the power asymptotics carry
only exponentially small errors.

PFA itself integrates the plate result over the sphere profile,
``F_pfa = 2 pi R^2 int_0^1 dt (1-t) F_par(d + R t, T)``, and the force is
the negative d derivative, written with one partial integration as
``f_pfa = 2 pi R (F_par(d,T) - int_0^1 dt F_par(d + R t, T))``.  Its
closed-form expansions at small eps, in the regimes of RT and dT, are the
rows of one table that :func:`pfa_regime` reads.  The functions that
integrate import ``scipy.integrate`` in their own bodies, so ``import
casphere`` does not load it.
"""

import math
import warnings
from dataclasses import dataclass

ZETA3 = 1.2020569031595942854
PI3 = math.pi ** 3

#: below this the power forms of g and h, whose errors are exponentially
#: small, are used; above it the exponentially convergent sums.  Just above
#: 1e-2 the sum of g cancels -1 + 45 zeta(3) x/pi^3 down to ~1e-6 and
#: loses up to 1e-9 relative accuracy; at 0.15 both forms agree to 4e-15
SMALL_X = 0.15


@dataclass(frozen=True)
class PlatePoint:
    """Separation, temperature and mode count of a parallel-plate system."""

    d: float
    T: float
    mode_count: int = 2

    def __post_init__(self):
        if not self.d > 0.0:
            raise ValueError("plate separation must be positive")
        if self.T < 0.0:
            raise ValueError("temperature must be non-negative")
        if self.mode_count not in (1, 2):
            raise ValueError("mode_count must be 1 (scalar) or 2 (electromagnetic)")


def _mode_sum(x, term):
    """``sum_{m>=1} term(y, exp(-2y))`` with y = m pi x, until a term falls
    below 1e-18 of the sum or y passes 45 (the exponentially small tails
    of g and h)."""
    s = 0.0
    m = 1
    while True:
        y = m * math.pi * x
        t = term(y, math.exp(-2.0 * y))
        s += t
        if t < 1e-18 * (s + 1e-300) or y > 45.0:
            return s
        m += 1


def g_function(x):
    """Temperature function g(x) of the parallel plates.

    Exponentially convergent rearrangement of the mode sum,

    ``g = -1 + 45 zeta(3) x / pi^3 + 45 x^4 * (exp-small corrections)``,

    used for x >= SMALL_X; below, the small-x asymptotics
    ``45 zeta(3) x^3/pi^3 - x^4`` (error ~exp(-2 pi^2/x)) take over.
    """
    if x < 0.0:
        raise ValueError("g is defined for x >= 0")
    if x == 0.0:
        return 0.0
    if x < SMALL_X:
        return 45.0 * ZETA3 * x ** 3 / PI3 - x ** 4
    s = _mode_sum(x, lambda y, e: 2.0 * e / (y ** 3 * (1.0 - e))
                  + 4.0 * e / (y * (1.0 - e)) ** 2)
    return -1.0 + 45.0 * ZETA3 * x / PI3 + 45.0 * x ** 4 * s


def g_asymptotic(x):
    """The two power asymptotics of g (they coincide at x = 1)."""
    if x <= 1.0:
        return 45.0 * ZETA3 * x ** 3 / PI3 - x ** 4
    return 45.0 * ZETA3 * x / PI3 - 1.0


def h_function(x):
    """Temperature function h(x) of the sphere at small separation.

    Normalized so that the inversion symmetry ``h(1/x) = 5/x^2 - h(x)/x^4``
    holds exactly, giving h(1) = 5/2; equivalently
    ``h(x) = 2 int_1^inf dt g(t x)/t^3``.  Exponentially convergent
    rearrangement for x >= SMALL_X, power form ``5x^2 - 90 zeta(3) x^3/pi^3
    + x^4`` below.
    """
    if x < 0.0:
        raise ValueError("h is defined for x >= 0")
    if x == 0.0:
        return 0.0
    if x < SMALL_X:
        return 5.0 * x ** 2 - 90.0 * ZETA3 * x ** 3 / PI3 + x ** 4
    s = _mode_sum(x, lambda y, e: 2.0 * e / (y ** 3 * (1.0 - e)))
    return 90.0 * ZETA3 * x / PI3 - 1.0 + 90.0 * x ** 4 * s


def parallel_plates_free_energy(p):
    """Free energy per unit area of parallel plates, (mode_count/2) *
    (-pi^2/720 d^3) * (1 + g(2dT))."""
    return (p.mode_count / 2.0) * (-math.pi ** 2 / (720.0 * p.d ** 3)) \
        * (1.0 + g_function(2.0 * p.d * p.T))


def _fpar(d, T, mode_count):
    return parallel_plates_free_energy(PlatePoint(d, T, mode_count))


def _profile_integral(geom, T, mode_count, weight):
    """``int_0^1 dt weight(t) F_par(d + R t, T)``, the plate energy over
    the sphere profile.

    The 1/(d+Rt)^3 spike at t = 0 is resolved by substituting
    u = ln(d + R t).
    """
    from scipy.integrate import quad

    geom.require_gap()
    R, d = geom.R, geom.d

    def integrand(u):
        sep = math.exp(u)
        return weight((sep - d) / R) * _fpar(sep, T, mode_count) * sep / R

    v, _ = quad(integrand, math.log(d), math.log(d + R),
                limit=400, epsabs=1e-14, epsrel=1e-12)
    return v


def pfa_free_energy(geom, T, mode_count=2):
    """PFA free energy 2 pi R^2 int_0^1 dt (1-t) F_par(d + R t, T)."""
    v = _profile_integral(geom, T, mode_count, lambda t: 1.0 - t)
    return 2.0 * math.pi * geom.R * geom.R * v


def pfa_force(geom, T, mode_count=2):
    """PFA force 2 pi R (F_par(d,T) - int_0^1 dt F_par(d + R t, T))."""
    v = _profile_integral(geom, T, mode_count, lambda t: 1.0)
    return 2.0 * math.pi * geom.R * (_fpar(geom.d, T, mode_count) - v)


def pfa_thermal_force(geom, T, mode_count=2):
    """Temperature-dependent part of the PFA force, f(T) - f(0)."""
    return pfa_force(geom, T, mode_count) - pfa_force(geom, 0.0, mode_count)


# -- closed-form regime expansions ------------------------------------------

def _g_profile_integral(rt, weight_one_minus_t):
    """int_0^1 dt [(1-t)] g(2 t RT)/t^3, the eps->0 profile integrals."""
    from scipy.integrate import quad

    if rt == 0.0:
        return 0.0

    def f(t):
        if t <= 0.0:
            return 360.0 * ZETA3 * rt ** 3 / PI3
        w = (1.0 - t) if weight_one_minus_t else 1.0
        return w * g_function(2.0 * t * rt) / t ** 3

    v, _ = quad(f, 0.0, 1.0, limit=400, epsabs=1e-13, epsrel=1e-12)
    return v


#: The closed-form regime expansions, per mode pair, as the brackets B of
#: ``E = -(pi^3 R/720 d^2) B`` and ``f = -(pi^3 R/360 d^3) B`` in
#: (eps, RT, dT), and the inequalities each regime assumes besides d << R,
#: as (quantity, "<<" or ">>") against 1.
_REGIMES = {
    # fixed RT: the eps -> 0 profile integrals of g
    "low_medium": (
        lambda eps, rt, dt: 1.0 + 2.0 * eps ** 2 * _g_profile_integral(rt, True),
        lambda eps, rt, dt: 1.0 + eps ** 3 * (360.0 * ZETA3 / PI3) * rt ** 3
        - eps ** 3 * _g_profile_integral(rt, False),
        (("dT", "<<"),)),
    # fixed dT
    "medium_high": (
        lambda eps, rt, dt: 1.0 + h_function(2.0 * dt),
        lambda eps, rt, dt: 1.0 + g_function(2.0 * dt),
        (("RT", ">>"),)),
    # dT << RT << 1
    "low": (
        lambda eps, rt, dt: 1.0 + eps ** 2 * (360.0 * ZETA3 / PI3) * rt ** 3,
        lambda eps, rt, dt: 1.0 + 8.0 * eps ** 3 * rt ** 4,
        (("RT", "<<"),)),
    # RT >> 1 with dT << 1; the energy uses the third moment of g,
    # int t^-3 g = 5/2
    "medium": (
        lambda eps, rt, dt: 1.0 + 20.0 * eps ** 2 * rt ** 2,
        lambda eps, rt, dt: 1.0 + eps ** 3 * (360.0 * ZETA3 / PI3) * rt ** 3,
        (("RT", ">>"), ("dT", "<<"))),
    # dT >> 1: E = -zeta(3) R T/(4 d) and f = -zeta(3) R T/(4 d^2), up to
    # exponentially small corrections
    "high": (
        lambda eps, rt, dt: 180.0 * ZETA3 / PI3 * dt,
        lambda eps, rt, dt: 90.0 * ZETA3 / PI3 * dt,
        (("dT", ">>"),)),
}


def pfa_regime(geom, T, regime, mode_count=2):
    """Closed-form regime expansions of the PFA energy and force.

    regime 'low_medium' evaluates the fixed-RT forms, 'medium_high' the
    fixed-dT forms (brackets 1 + h(2dT) and 1 + g(2dT)), 'low' the laws
    for dT << RT << 1, 'medium' those for RT >> 1 with dT << 1 and 'high'
    those for dT >> 1.  A warning is emitted when the inputs violate the
    regime inequalities (d << R always; low/medium wants dT << 1,
    medium/high RT >> 1, low RT << 1, medium RT >> 1 and dT << 1, high
    dT >> 1).
    """
    if regime not in _REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    geom.require_gap()
    R, d = geom.R, geom.d
    eps = geom.eps
    values = {"RT": R * T, "dT": d * T}
    if eps > 0.3:
        warnings.warn(f"PFA regime formulas assume d << R; eps = {eps:.3g}",
                      stacklevel=2)
    energy, force, assumes = _REGIMES[regime]
    for name, side in assumes:
        v = values[name]
        if (v > 1.0) if side == "<<" else (v < 1.0):
            warnings.warn(f"{regime} regime assumes {name} {side} 1; {name} = {v:.3g}",
                          stacklevel=2)
    args = (eps, values["RT"], values["dT"])
    return {"energy": (mode_count / 2.0) * (-PI3 * R / (720.0 * d * d)) * energy(*args),
            "force": (mode_count / 2.0) * (-PI3 * R / (360.0 * d ** 3)) * force(*args)}
