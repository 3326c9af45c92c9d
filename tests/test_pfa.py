"""Parallel-plate temperature functions and PFA quadrature tests.

Frozen reference values come from a 30-digit mpmath evaluation of the
exponentially convergent rearrangements (tests/oracles.py).
"""

import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from casphere.kernel import Geometry
from casphere import pfa
from casphere.pfa import (PlatePoint, parallel_plates_free_energy, g_function,
                          g_asymptotic, h_function, pfa_free_energy, pfa_force,
                          pfa_thermal_force, pfa_regime, ZETA3, PI3)

import oracles
from oracles import g_from_momentum_integral, g_third_moment, h_from_g_integral


def test_g_frozen_values():
    assert g_function(0.0) == 0.0
    assert g_function(1.0) == pytest.approx(0.78420154533079122, rel=1e-13, abs=0)
    assert g_function(0.1) == pytest.approx(0.001644568082131256, rel=1e-12, abs=0)
    assert g_function(3.0) == pytest.approx(4.2337053720527064, rel=1e-13, abs=0)


def test_g_against_mp_oracle():
    # 0.0104 lies just above where the exponentially convergent sum of g
    # would cancel -1 + 45 zeta(3) x/pi^3 down to ~2e-6
    for x in (0.0104, 0.05, 0.37, 1.7, 12.0):
        assert g_function(x) == pytest.approx(float(oracles.mp_g(x)), rel=1e-12, abs=0.0)


def test_g_small_x_switch_continuity():
    # just above the switch point the power form and the full sum agree to
    # exponential accuracy, so the branch change is seamless (measured
    # 3.4e-15 for g and 1.1e-15 for h)
    x = 1.01 * pfa.SMALL_X
    assert g_asymptotic(x) == pytest.approx(g_function(x), rel=1e-13, abs=0.0)
    assert h_function(x) == pytest.approx(
        5 * x ** 2 - 90 * ZETA3 * x ** 3 / PI3 + x ** 4, rel=1e-13, abs=0.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(log_x=st.floats(math.log(1e-3), math.log(1e3)))
def test_inversion_symmetries_hold_on_every_branch(log_x):
    # g(x) = x^4 g(1/x) and h(1/x) = 5/x^2 - h(x)/x^4, across both forms of
    # each function
    x = math.exp(log_x)
    assert g_function(x) == pytest.approx(x ** 4 * g_function(1.0 / x), rel=1e-12, abs=0.0)
    assert h_function(1.0 / x) == pytest.approx(5.0 / x ** 2 - h_function(x) / x ** 4,
                                                rel=1e-12, abs=0.0)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_g_inversion_symmetry(x):
    assert g_function(x) == pytest.approx(x ** 4 * g_function(1.0 / x), rel=1e-10, abs=0)


@pytest.mark.parametrize("x", [0.3, 1.0, 3.0])
def test_g_integral_representation(x):
    assert g_from_momentum_integral(x) == pytest.approx(g_function(x), abs=1e-8)


def test_g_asymptotic_quality():
    # the measured deviation at the symmetry point is 5.054 percent
    dev = abs(g_asymptotic(1.0) - g_function(1.0)) / g_function(1.0)
    assert dev == pytest.approx(0.05053989, abs=2e-6)


def test_h_frozen_values():
    assert h_function(0.0) == 0.0
    assert h_function(1.0) == pytest.approx(2.5, abs=1e-13)
    assert h_function(2.0) == pytest.approx(5.9783128186550264, rel=1e-13, abs=0)
    assert h_function(0.1) == pytest.approx(0.046610863835737488, rel=1e-12, abs=0)
    assert h_function(10.0) == pytest.approx(33.891361642625119, rel=1e-13, abs=0)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_h_inversion_symmetry(x):
    want = 5.0 / x ** 2 - h_function(x) / x ** 4
    assert h_function(1.0 / x) == pytest.approx(want, rel=1e-10, abs=0)


@pytest.mark.parametrize("x", [0.05, 0.3, 1.0, 5.0, 20.0])
def test_h_integral_representation(x):
    # h(x) = 2 int_1^inf g(t x)/t^3 dt
    assert h_from_g_integral(x) == pytest.approx(h_function(x), rel=1e-8)


def test_h_small_x_form():
    want = 5 * 0.01 - 90 * ZETA3 * 1e-3 / PI3 + 1e-4
    assert h_function(0.1) == pytest.approx(want, rel=1e-4)


def test_g_third_moment():
    assert g_third_moment() == pytest.approx(2.5, abs=1e-6)


@pytest.mark.parametrize("x", [0.3, 1.0, 3.0])
def test_derivative_identity(x):
    # d/dx [h(x)/x^2] = -(2/x^3) g(x); central differences
    e = 1e-5 * x
    lhs = (h_function(x + e) / (x + e) ** 2 - h_function(x - e) / (x - e) ** 2) / (2 * e)
    rhs = -2.0 / x ** 3 * g_function(x)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_parallel_plates():
    p = PlatePoint(1.0, 0.0, 2)
    assert parallel_plates_free_energy(p) == pytest.approx(-math.pi ** 2 / 720.0, rel=1e-14)
    # one scalar mode is half of the polarization pair at any (d, T)
    for d, T in [(0.5, 0.0), (1.0, 1.0), (0.3, 4.0)]:
        assert parallel_plates_free_energy(PlatePoint(d, T, 1)) == pytest.approx(
            0.5 * parallel_plates_free_energy(PlatePoint(d, T, 2)), rel=1e-14)
    # high-temperature line: -zeta(3) T/(8 pi d^2) per mode pair
    p = PlatePoint(1.0, 5.0, 2)
    assert parallel_plates_free_energy(p) == pytest.approx(
        -ZETA3 * 5.0 / (8.0 * math.pi), rel=1e-4)


def test_platepoint_validation():
    with pytest.raises(ValueError):
        PlatePoint(-1.0, 0.0)
    with pytest.raises(ValueError):
        PlatePoint(1.0, -1.0)
    with pytest.raises(ValueError):
        PlatePoint(1.0, 0.0, 3)


@pytest.mark.parametrize("T", [-1.0, math.inf, math.nan])
def test_temperature_must_be_finite_and_non_negative(T):
    with pytest.raises(ValueError, match="finite and non-negative"):
        PlatePoint(1.0, T)
    with pytest.raises(ValueError, match="finite and non-negative"):
        pfa_regime(Geometry(10.0, 0.01), T, "low")


def test_g_and_h_need_a_finite_argument():
    # x = -1 first: the NaN case never ends the mode sum without the check
    for x in (-1.0, math.inf, math.nan):
        for f in (g_function, h_function):
            with pytest.raises(ValueError, match="finite x"):
                f(x)


def test_pfa_vacuum_energy_closed_form():
    # T = 0: F_pfa = -(pi^3 R/720 d^2) / (1 + eps) exactly
    geom = Geometry(10.0, 0.05)
    want = -PI3 * geom.R / (720.0 * geom.d ** 2) / (1.0 + geom.eps)
    assert pfa_free_energy(geom, 0.0, 2) == pytest.approx(want, rel=1e-6)


def test_pfa_energy_matches_medium_high_at_small_eps():
    # dT = 1, eps -> 0: bracket tends to 1 + h(2); the residual is O(eps)
    # with a prefactor of about 7, so 0.1 percent needs eps ~ 3e-5
    geom = Geometry(3e4, 1.0)
    want = pfa_regime(geom, 1.0, "medium_high", 2)["energy"]
    assert pfa_free_energy(geom, 1.0, 2) == pytest.approx(want, rel=1e-3)
    # at eps = 1e-3 the agreement is O(eps)
    geom = Geometry(1e3, 1.0)
    want = pfa_regime(geom, 1.0, "medium_high", 2)["energy"]
    assert pfa_free_energy(geom, 1.0, 2) == pytest.approx(want, rel=1e-2)


def test_pfa_energy_low_t_special_case():
    # low-temperature bracket eps^2 (360 zeta3/pi^3)(RT)^3; its relative
    # error is 0.38 RT, so the 10 percent window needs RT <= ~0.26
    geom = Geometry(0.2, 0.0002)
    T = 1.0
    full = pfa_free_energy(geom, T, 2)
    vac = pfa_free_energy(geom, 0.0, 2)
    lead = -PI3 * geom.R / (720.0 * geom.d ** 2)
    want = lead * geom.eps ** 2 * (360.0 * ZETA3 / PI3) * (geom.R * T) ** 3
    assert full - vac == pytest.approx(want, rel=0.1)


def test_pfa_force_is_energy_derivative():
    geom = Geometry(1.0, 0.05)
    h = 1e-6
    fd = -(pfa_free_energy(Geometry(1.0, 0.05 + h), 1.0, 2)
           - pfa_free_energy(Geometry(1.0, 0.05 - h), 1.0, 2)) / (2 * h)
    assert pfa_force(geom, 1.0, 2) == pytest.approx(fd, rel=1e-7)


def test_pfa_force_high_t_line():
    # dT >> 1: f -> -zeta(3) R T/(4 d^2) up to exp-small terms
    geom = Geometry(500.0, 0.5)
    T = 10.0  # dT = 5
    assert pfa_force(geom, T, 2) == pytest.approx(
        -ZETA3 * geom.R * T / (4.0 * geom.d ** 2), rel=1e-3)


def test_proximity_force_theorem_at_zero_t():
    # eps -> 0, T = 0: f -> 2 pi R F_par(d, 0)
    geom = Geometry(1000.0, 0.1)
    want = 2.0 * math.pi * geom.R * parallel_plates_free_energy(
        PlatePoint(geom.d, 0.0, 2))
    assert pfa_force(geom, 0.0, 2) == pytest.approx(want, rel=1e-3)


def test_regime_formulas():
    geom = Geometry(100.0, 0.01)
    T = 1.0
    out = pfa_regime(geom, T, "medium_high")
    # (f5) bracket is exactly 1 + g(2dT)
    want_f = -PI3 * geom.R / (360.0 * geom.d ** 3) * (1.0 + g_function(2 * geom.d * T))
    assert out["force"] == pytest.approx(want_f, rel=1e-13)
    want_e = -PI3 * geom.R / (720.0 * geom.d ** 2) * (1.0 + h_function(2 * geom.d * T))
    assert out["energy"] == pytest.approx(want_e, rel=1e-13)
    # medium-temperature energy uses the third moment of g: bracket 20 (RT)^2 eps^2
    lm = pfa_regime(Geometry(100.0, 0.001), 1.0, "low_medium")
    med = pfa_regime(Geometry(100.0, 0.001), 1.0, "medium")["energy"]
    assert lm["energy"] == pytest.approx(med, rel=1e-4)


#: the closed-form brackets B of E = -(pi^3 R/720 d^2) B and
#: f = -(pi^3 R/360 d^3) B, per regime, at a point inside its inequalities
#: where the temperature terms are not small.  The low_medium point has
#: 2 RT < 0.15, where g is its power form 45 zeta(3) x^3/pi^3 - x^4, so the
#: profile integrals are polynomials in RT
BRACKETS = {
    "low": (Geometry(1.0, 0.25), 0.8,
            lambda eps, rt, dt: 1.0 + eps ** 2 * 360.0 * ZETA3 / PI3 * rt ** 3,
            lambda eps, rt, dt: 1.0 + 8.0 * eps ** 3 * rt ** 4),
    "medium": (Geometry(4.0, 1.0), 1.0,
               lambda eps, rt, dt: 1.0 + 20.0 * eps ** 2 * rt ** 2,
               lambda eps, rt, dt: 1.0 + eps ** 3 * 360.0 * ZETA3 / PI3 * rt ** 3),
    "low_medium": (Geometry(1.0, 0.25), 0.07,
                   lambda eps, rt, dt: 1.0 + 2.0 * eps ** 2 * (
                       180.0 * ZETA3 / PI3 * rt ** 3 - 8.0 * rt ** 4 / 3.0),
                   lambda eps, rt, dt: 1.0 + 8.0 * eps ** 3 * rt ** 4),
    "medium_high": (Geometry(10.0, 0.5), 1.3,
                    lambda eps, rt, dt: 1.0 + float(oracles.mp_h(2.0 * dt)),
                    lambda eps, rt, dt: 1.0 + float(oracles.mp_g(2.0 * dt))),
    # -zeta(3) R T/(4 d) and -zeta(3) R T/(4 d^2)
    "high": (Geometry(10.0, 1.0), 3.0,
             lambda eps, rt, dt: 180.0 * ZETA3 / PI3 * dt,
             lambda eps, rt, dt: 90.0 * ZETA3 / PI3 * dt),
}


@pytest.mark.parametrize("regime", list(BRACKETS))
def test_regime_equals_its_closed_form_bracket(regime):
    geom, T, energy, force = BRACKETS[regime]
    args = (geom.eps, geom.R * T, geom.d * T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = pfa_regime(geom, T, regime, 1)
    lead = -PI3 * geom.R / (720.0 * geom.d ** 2) / 2.0
    assert out["energy"] == pytest.approx(lead * energy(*args), rel=1e-13)
    assert out["force"] == pytest.approx(2.0 * lead / geom.d * force(*args), rel=1e-13)


#: (geometry, T, whether the comparison is of the thermal parts, and the
#: tolerances of energy and force), each point inside its regime's
#: inequalities.  Where the thermal part is a small share of the value
#: (low, medium, low_medium), the thermal parts are compared: the value
#: less its T = 0 form (bracket 1) against the quadrature at T less the
#: quadrature at T = 0.  Each tolerance is about 1.5 times the measured
#: deviation:
#:   low          E 4.1e-2 (the law's O(RT) error); f 0 to rounding (both
#:                sides take g's power form, whose x^4 term is the law)
#:   medium       E 2.3e-2, f 8.3e-3 (O(1/RT))
#:   low_medium   E 7.0e-4, f 8.0e-5 (O(eps))
#:   medium_high  E 9.2e-4, f 9.8e-5 (O(eps))
#:   high         E 7.0e-3; f 1.0e-3 = eps (the quadrature is the law over
#:                1 + eps)
AGREEMENT = {
    "low": (Geometry(0.5, 0.005), 0.2, True, 0.06, 1e-6),
    "medium": (Geometry(100.0, 0.001), 1.0, True, 0.035, 0.0125),
    "low_medium": (Geometry(10.0, 0.01), 0.05, True, 1e-3, 1.2e-4),
    "medium_high": (Geometry(100.0, 0.01), 50.0, False, 1.4e-3, 1.5e-4),
    "high": (Geometry(500.0, 0.5), 10.0, False, 0.01, 1.5e-3),
}


@pytest.mark.parametrize("regime", list(AGREEMENT))
def test_regime_agrees_with_the_pfa_quadrature(regime):
    geom, T, thermal, tol_e, tol_f = AGREEMENT[regime]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = pfa_regime(geom, T, regime)
    energy, force = pfa_free_energy(geom, T), pfa_force(geom, T)
    if thermal:
        lead = -PI3 * geom.R / (720.0 * geom.d ** 2)
        out = {"energy": out["energy"] - lead, "force": out["force"] - 2.0 * lead / geom.d}
        energy -= pfa_free_energy(geom, 0.0)
        force -= pfa_force(geom, 0.0)
    assert out["energy"] == pytest.approx(energy, rel=tol_e)
    assert out["force"] == pytest.approx(force, rel=tol_f)


def test_regime_warnings():
    with pytest.warns(UserWarning):
        pfa_regime(Geometry(1.0, 0.9), 1.0, "medium_high")
    with pytest.warns(UserWarning):
        pfa_regime(Geometry(100.0, 0.01), 200.0, "low_medium")  # dT = 2 > 1
    # outside each inequality of the low, medium and high laws
    for geom, T, regime, broken in [
            (Geometry(10.0, 0.01), 1.0, "low", "RT << 1"),         # RT = 10
            (Geometry(10.0, 0.01), 0.01, "medium", "RT >> 1"),     # RT = 0.1
            (Geometry(100.0, 1.0), 2.0, "medium", "dT << 1"),      # dT = 2
            (Geometry(100.0, 0.01), 1.0, "high", "dT >> 1")]:      # dT = 0.01
        with pytest.warns(UserWarning, match=broken):
            pfa_regime(geom, T, regime)
    with pytest.raises(ValueError, match="unknown regime"):
        pfa_regime(Geometry(100.0, 0.01), 1.0, "low_t")


def test_thermal_force_reference_points():
    # converged thermal PFA forces at the reference grid (regression values;
    # negative = attraction-enhancing)
    f = pfa_thermal_force(Geometry(1.0, 0.01), 1.0, 1)
    assert f == pytest.approx(-0.29713, rel=1e-3)
    f = pfa_thermal_force(Geometry(6.0, 0.6), 1.0, 1)
    assert f == pytest.approx(-1.15837, rel=1e-3)
