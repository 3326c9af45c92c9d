"""Log-scaled Bessel function tests: closed forms, series oracles,
Wronskian identities, and mpmath cross-checks."""

import math

import numpy as np
import pytest

from casphere import specfun
from casphere.specfun import log_hankel2_arrays, log_ik_arrays, log_jy_arrays

import oracles
from oracles import (LogValue, ComplexLogValue, PoleError,
                     log_bessel_i_half, log_bessel_k_half,
                     bessel_j_half, bessel_y_half, ratio_jy, hankel2_half)


def test_logvalue_algebra():
    a = LogValue.from_value(-3.0)
    b = LogValue.from_value(2.0)
    assert (a * b).value() == pytest.approx(-6.0, rel=1e-15)
    assert LogValue.from_value(0.0).sign == 0
    assert (a * LogValue.from_value(0.0)).value() == 0.0
    # products of extreme magnitudes stay finite in log space
    big = LogValue(1, 5e5)
    small = LogValue(-1, -5e5)
    prod = big * small
    assert prod.sign == -1
    assert prod.log_magnitude == pytest.approx(0.0)


def test_complexlogvalue_phase_wrap():
    a = ComplexLogValue(0.0, 3.0)
    b = ComplexLogValue(0.0, 3.0)
    c = a * b
    assert -math.pi < c.phase <= math.pi
    assert c.value() == pytest.approx(np.exp(0) * np.exp(6j), rel=1e-12)


def test_i_half_closed_form():
    # I_{1/2}(1) = sqrt(2/pi) sinh 1
    v = log_bessel_i_half(0, 1.0)
    assert v.value() == pytest.approx(0.93767488824548765, rel=1e-13)


def test_i_half_small_argument_slope():
    # leading power (x/2)^nu: log magnitude ~ (1/2) ln x + const as x -> 0
    v1 = log_bessel_i_half(0, 1e-8)
    v2 = log_bessel_i_half(0, 1e-10)
    slope = (v1.log_magnitude - v2.log_magnitude) / (math.log(1e-8) - math.log(1e-10))
    assert slope == pytest.approx(0.5, abs=1e-6)


def test_i_half_series_oracle():
    got = log_bessel_i_half(5, 0.1).value()
    want = oracles.bessel_i_series(5, 0.1)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(2.4281896290145979e-10, rel=1e-12)


def test_k_half_closed_form():
    # K_{1/2}(1) = sqrt(pi/2) e^-1
    v = log_bessel_k_half(0, 1.0)
    assert v.sign == 1
    assert v.value() == pytest.approx(0.46106850444789456, rel=1e-13)


def test_k_half_exponential_decay():
    v = log_bessel_k_half(0, 100.0)
    want = -100.0 + 0.5 * math.log(math.pi / 200.0)
    assert v.log_magnitude == pytest.approx(want, rel=1e-12)


def test_k_half_finite_sum_oracle():
    got = log_bessel_k_half(10, 2.0).value()
    want = oracles.bessel_k_half_closed(10, 2.0)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(510351.41471999233, rel=1e-12)


def test_j_zero_at_pi():
    # J_{1/2}(pi) = sqrt(2/pi x) sin(pi) = 0: absolute accuracy at a zero
    v = bessel_j_half(0, math.pi)
    assert abs(v.value()) < 1e-12


def test_y_zero_at_half_pi():
    v = bessel_y_half(0, math.pi / 2)
    assert abs(v.value()) < 1e-12


def test_large_index_jy_product():
    # J tiny, Y huge, product finite; large-index asymptotics within 10%
    j = bessel_j_half(20, 1.0)
    y = bessel_y_half(20, 1.0)
    assert j.log_magnitude < -50 and y.log_magnitude > 50
    prod = j * y
    assert abs(prod.log_magnitude) < 10  # J*Y ~ -1/(pi nu) scale
    nu = 20.5
    asym_j = math.sqrt(1 / (2 * math.pi * nu)) * math.exp(nu * (1 - math.log(nu) + math.log(0.5)))
    asym_y = -math.sqrt(2 / (math.pi * nu)) * math.exp(-nu * (1 - math.log(nu) + math.log(0.5)))
    assert j.value() == pytest.approx(asym_j, rel=0.1)
    assert y.value() == pytest.approx(asym_y, rel=0.1)


def test_ratio_closed_form():
    # r_{1/2}(x) = -tan x
    assert ratio_jy(0, math.pi / 4) == pytest.approx(-1.0, rel=1e-12)
    assert abs(ratio_jy(0, 1e-6)) < 2e-6  # -> 0 at the origin


def test_ratio_large_index_asymptotics():
    nu = 10.5
    want = -0.5 * math.exp(2 * nu * (1.0 - math.log(nu) + math.log(0.5)))
    got = ratio_jy(10, 1.0)
    assert got == pytest.approx(want, rel=0.2)
    assert got == pytest.approx(-1.0586720844731431e-19, rel=1e-10)


def test_ratio_pole_detection():
    # Y_{1/2} vanishes at pi/2
    with pytest.raises(PoleError):
        ratio_jy(0, math.pi / 2 + 1e-14)


def test_hankel2_half_order_closed_form():
    # H2_{1/2} = J - iY with Y_{1/2} = -sqrt(2/pi x) cos x, so the imaginary
    # part comes out positive: sqrt(2/pi x) (sin x + i cos x)
    h = hankel2_half(0, 1.0)
    c = math.sqrt(2 / math.pi)
    assert h.value() == pytest.approx(c * complex(math.sin(1), math.cos(1)), rel=1e-12)
    assert math.exp(h.log_magnitude) == pytest.approx(c, rel=1e-12)


def test_hankel2_phase_monotone():
    xs = np.linspace(1.0, 10.0, 40)
    ph = np.unwrap([hankel2_half(0, float(x)).phase for x in xs])
    assert np.all(np.diff(ph) < 0)


def test_hankel2_consistency_with_jy():
    h = hankel2_half(3, 2.0).value()
    want = bessel_j_half(3, 2.0).value() - 1j * bessel_y_half(3, 2.0).value()
    assert h == pytest.approx(want, rel=1e-12)


def _wrapped(phi):
    return (phi + math.pi) % (2.0 * math.pi) - math.pi


@pytest.mark.parametrize("l_max", [20, 72, 200])
def test_hankel_tables_match_the_per_entry_formula(l_max):
    # the recurrence tables of log|H2| and its phase against mpmath's
    # H2 = J - iY, at every order of a sample that keeps both ends
    orders = sorted(set(range(0, l_max + 2, max(1, l_max // 10))) | {1, l_max, l_max + 1})
    for x in np.geomspace(1e-3, 300.0, 60):
        x = float(x)
        mag, ph = log_hankel2_arrays(l_max, x)
        assert len(mag) == l_max + 2
        for l in orders:
            want_mag, want_ph = oracles.mp_log_hankel(l, x)
            assert abs(mag[l] - want_mag) <= 1e-14 * max(1.0, abs(want_mag)), (l, x)
            assert abs(_wrapped(ph[l] - want_ph)) <= 1e-14, (l, x)


def test_hankel_tables_are_exact_prefixes():
    for x in np.geomspace(1e-3, 300.0, 200):
        short = log_hankel2_arrays(60, float(x))
        long = log_hankel2_arrays(150, float(x))
        for a, b in zip(short, long):
            assert np.array_equal(a, b[: len(a)])


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
def test_wronskian_jy(x):
    sj, lj = log_jy_arrays(51, x)
    sy, ly = oracles.log_y_arrays(51, x)
    target = 2.0 / (math.pi * x)
    for l in range(51):
        nu = l + 0.5
        J = sj[l] * math.exp(lj[l])
        Y = sy[l] * math.exp(ly[l])
        Jd = (nu / x) * J - sj[l + 1] * math.exp(lj[l + 1])
        Yd = (nu / x) * Y - sy[l + 1] * math.exp(ly[l + 1])
        assert J * Yd - Jd * Y == pytest.approx(target, rel=1e-9)


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
def test_wronskian_ik(x):
    logi, logk = log_ik_arrays(51, x)
    target = -1.0 / x
    for l in range(51):
        nu = l + 0.5
        # keep the products representable by pairing the logs first
        ikp = math.exp(logi[l] + logk[l])
        ik1 = math.exp(logi[l] + logk[l + 1])
        i1k = math.exp(logi[l + 1] + logk[l])
        Kd_over = (nu / x) * ikp - ik1
        Id_over = i1k + (nu / x) * ikp
        assert Kd_over - Id_over == pytest.approx(target, rel=1e-10)


def test_log_product_matches_direct():
    # LogValue product I_nu(x) K_nu(y) vs plain floats where representable
    for l, x, y in [(0, 1.0, 2.0), (5, 0.5, 3.0), (12, 4.0, 9.0)]:
        prod = log_bessel_i_half(l, x) * log_bessel_k_half(l, y)
        direct = log_bessel_i_half(l, x).value() * log_bessel_k_half(l, y).value()
        assert prod.value() == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("kind", ["i", "k"])
@pytest.mark.parametrize("x", [1e-3, 0.1, 1.0, 10.0, 300.0])
def test_ik_against_mpmath(kind, x):
    logi, logk = log_ik_arrays(200, x)
    arr = logi if kind == "i" else logk
    for l in [0, 1, 5, 40, 120, 200]:
        sign, want = oracles.mp_log_bessel(kind, l, x)
        assert sign == 1
        assert arr[l] == pytest.approx(want, abs=5e-12, rel=1e-12)


@pytest.mark.parametrize("x", [1e-3, 0.1, 1.0, 10.0, 300.0])
def test_jy_against_mpmath(x):
    sj, lj = log_jy_arrays(200, x)
    sy, ly = oracles.log_y_arrays(200, x)
    for l in [0, 1, 5, 40, 120, 200]:
        sgn, want = oracles.mp_log_bessel("j", l, x)
        assert int(sj[l]) == sgn
        assert lj[l] == pytest.approx(want, abs=5e-11)
        sgn, want = oracles.mp_log_bessel("y", l, x)
        assert int(sy[l]) == sgn
        assert ly[l] == pytest.approx(want, abs=5e-11)


def test_domain_errors():
    with pytest.raises(ValueError):
        log_bessel_i_half(0, -1.0)
    with pytest.raises(ValueError):
        log_bessel_k_half(0, 0.0)
    with pytest.raises(ValueError):
        log_bessel_i_half(specfun.L_CAP + 1, 1.0)
    with pytest.raises(ValueError):
        bessel_j_half(-1, 1.0)
    for table in (log_ik_arrays, specfun.log_k_array, log_jy_arrays, log_hankel2_arrays):
        for x in (-1.0, 0.0, math.nan):
            with pytest.raises(ValueError):
                table(4, x)
