"""Parallel-plate temperature functions and PFA quadrature tests.

Frozen reference values come from a 30-digit mpmath evaluation of the
exponentially convergent rearrangements (tests/oracles.py).
"""

import math

import pytest

from casphere.kernel import Geometry
from casphere import pfa
from casphere.pfa import (PlatePoint, parallel_plates_free_energy, g_function,
                          g_asymptotic, h_function, pfa_free_energy, pfa_force,
                          pfa_thermal_force, pfa_regime, ZETA3, PI3)

import oracles
from oracles import g_from_momentum_integral, g_third_moment, h_from_g_integral


def test_g_frozen_values():
    assert g_function(0.0) == 0.0
    assert g_function(1.0) == pytest.approx(0.78420154533079122, rel=1e-13)
    assert g_function(0.1) == pytest.approx(0.001644568082131256, rel=1e-12)
    assert g_function(3.0) == pytest.approx(4.2337053720527064, rel=1e-13)


def test_g_against_mp_oracle():
    for x in (0.05, 0.37, 1.7, 12.0):
        assert g_function(x) == pytest.approx(float(oracles.mp_g(x)), rel=1e-12)


def test_g_small_x_switch_continuity():
    # just above the switch point the power form and the full sum agree to
    # exponential accuracy, so the branch change is seamless
    x = 1.01e-2
    assert g_asymptotic(x) == pytest.approx(g_function(x), rel=1e-10)
    x = 2.01e-2
    assert h_function(x) == pytest.approx(
        5 * x ** 2 - 90 * ZETA3 * x ** 3 / PI3 + x ** 4, rel=1e-10)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_g_inversion_symmetry(x):
    assert g_function(x) == pytest.approx(x ** 4 * g_function(1.0 / x), rel=1e-10)


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
    assert h_function(2.0) == pytest.approx(5.9783128186550264, rel=1e-13)
    assert h_function(0.1) == pytest.approx(0.046610863835737488, rel=1e-12)
    assert h_function(10.0) == pytest.approx(33.891361642625119, rel=1e-13)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_h_inversion_symmetry(x):
    want = 5.0 / x ** 2 - h_function(x) / x ** 4
    assert h_function(1.0 / x) == pytest.approx(want, rel=1e-10)


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


def test_pfa_vacuum_energy_closed_form():
    # T = 0: F_pfa = -(pi^3 R/720 d^2) / (1 + eps) exactly
    geom = Geometry(10.0, 0.05)
    want = -PI3 * geom.R / (720.0 * geom.d ** 2) / (1.0 + geom.eps)
    assert pfa_free_energy(geom, 0.0, 2) == pytest.approx(want, rel=1e-6)


def test_pfa_energy_matches_medium_high_at_small_eps():
    # dT = 1, eps -> 0: bracket tends to 1 + h(2); the residual is O(eps)
    # with a prefactor of about 7, so 0.1 percent needs eps ~ 3e-5
    geom = Geometry(3e4, 1.0)
    want = pfa.pfa_energy_medium_high(geom, 1.0, 2)
    assert pfa_free_energy(geom, 1.0, 2) == pytest.approx(want, rel=1e-3)
    # at eps = 1e-3 the agreement is O(eps)
    geom = Geometry(1e3, 1.0)
    want = pfa.pfa_energy_medium_high(geom, 1.0, 2)
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
    med = pfa.pfa_energy_medium_t(Geometry(100.0, 0.001), 1.0)
    assert lm["energy"] == pytest.approx(med, rel=1e-4)


def test_regime_warnings():
    with pytest.warns(UserWarning):
        pfa_regime(Geometry(1.0, 0.9), 1.0, "medium_high")
    with pytest.warns(UserWarning):
        pfa_regime(Geometry(100.0, 0.01), 200.0, "low_medium")  # dT = 2 > 1


def test_thermal_force_reference_points():
    # converged thermal PFA forces at the reference grid (regression values;
    # negative = attraction-enhancing)
    f = pfa_thermal_force(Geometry(1.0, 0.01), 1.0, 1)
    assert f == pytest.approx(-0.29713, rel=1e-3)
    f = pfa_thermal_force(Geometry(6.0, 0.6), 1.0, 1)
    assert f == pytest.approx(-1.15837, rel=1e-3)
