"""Closed-form expansion tests and their consistency with the exact
evaluators."""

import math

import numpy as np
import pytest

from casphere.kernel import Geometry, FieldSpec
from casphere.trlog import Truncation
from casphere import asympt, pfa
from casphere.asympt import (low_t_thermal, high_t_f0, em_contact_coefficient,
                             em_far_coefficient, ZETA2, ZETA4)
from casphere.freeenergy import thermal_part

G12 = Geometry(1.0, 1.0)  # R = 1, L = 2


def test_low_t_scalar_dirichlet():
    out = low_t_thermal(G12, FieldSpec(), 0.1)
    assert out.value == pytest.approx(-ZETA2 / math.pi * 0.01, rel=1e-14)
    assert out.value == pytest.approx(-5.2360e-3, rel=1e-4)
    assert out.leading_power == 2


def test_low_t_dirichlet_neumann_plane():
    out = low_t_thermal(G12, FieldSpec("scalar", "dirichlet", "neumann"), 0.1)
    want = ZETA2 / math.pi * (3.0 / 5.0) * 0.01
    assert out.value == pytest.approx(want, rel=1e-14)
    assert out.value > 0


def test_low_t_neumann_sphere_signs():
    # the large-L coefficient zeta(4) R^3/pi, half the s-wave channel's
    a = low_t_thermal(G12, FieldSpec("scalar", "neumann", "dirichlet"), 0.1)
    b = low_t_thermal(G12, FieldSpec("scalar", "neumann", "neumann"), 0.1)
    want = ZETA4 / math.pi * 1e-4
    assert a.value == pytest.approx(-want, rel=1e-14)
    assert b.value == pytest.approx(want, rel=1e-14)
    assert a.leading_power == 4
    assert "leading order in R/L" in a.validity_note


@pytest.mark.parametrize("plane_bc", ["dirichlet", "neumann"])
def test_low_t_neumann_sphere_coefficient_matches_thermal_part(plane_bc):
    # F_T/T^4 = a + b T^2 + c T^4 through three low temperatures gives the
    # coefficient a; at R = 1, d = 3 (L = 4R) the closed form is its
    # leading order in R/L (measured: ND -0.34296, NN +0.34287 against
    # -+0.34451)
    geom = Geometry(1.0, 3.0)
    spec = FieldSpec("scalar", "neumann", plane_bc)
    Ts = np.array([0.04, 0.02, 0.01])
    ratios = [thermal_part(geom, spec, T, Truncation(rel_tol=1e-6)).value / T ** 4
              for T in Ts]
    a = np.linalg.solve(np.stack([np.ones(3), Ts ** 2, Ts ** 4], axis=1), ratios)[0]
    assert a == pytest.approx(low_t_thermal(geom, spec, 1.0).value, rel=0.01)


def test_low_t_em_coefficients():
    # contact (d -> 0): 58 zeta(4)/(15 pi) = 1.332122; far: 6 zeta(4)/pi
    # = pi^3/15 = 2.067085
    assert em_contact_coefficient() == pytest.approx(
        58.0 * ZETA4 / (15.0 * math.pi), rel=1e-14)
    assert em_contact_coefficient() == pytest.approx(1.3321215, abs=1e-6)
    assert em_far_coefficient() == pytest.approx(math.pi ** 3 / 15.0, rel=1e-14)
    assert em_far_coefficient() == pytest.approx(2.0670851, abs=1e-6)
    tiny = low_t_thermal(Geometry(1.0, 1e-12), FieldSpec.em(), 1.0)
    assert tiny.value == pytest.approx(em_contact_coefficient(), rel=1e-9)
    far = low_t_thermal(Geometry(1.0, 1e5), FieldSpec.em(), 1.0)
    assert far.value == pytest.approx(em_far_coefficient(), rel=1e-9)
    # large-separation correction factor (1 - R^3/4d^3)
    R, d = 1.0, 8.0
    out = low_t_thermal(Geometry(R, d), FieldSpec.em(), 1.0)
    want = em_far_coefficient() * (1.0 - R ** 3 / (4.0 * d ** 3))
    assert out.value == pytest.approx(want, rel=2e-3)


def test_low_t_em_no_divergence_at_contact():
    # denominators 16 L^3 - R^3 and 4 L^3 - R^3 stay away from zero at L = R
    out = low_t_thermal(Geometry(1.0, 0.0), FieldSpec.em(), 0.5)
    assert math.isfinite(out.value)
    assert out.value == pytest.approx(em_contact_coefficient() * 0.5 ** 4, rel=1e-12)


def test_low_t_matches_thermal_part():
    # the closed form doubles as the oracle for the numeric thermal part
    T = 1e-2
    num = thermal_part(G12, FieldSpec(), T)
    want = low_t_thermal(G12, FieldSpec(), T).value
    assert num.value == pytest.approx(want, rel=0.02)


def test_pfa_energy_medium_high():
    # the small-separation free energy at fixed dT, electromagnetic
    # normalization (mode_count 2).  h(0) = 0: the vacuum normalization
    # -pi^3 R/(720 d^2), equal to the -2 zeta(4)/(16 pi) R/d^2 leading law
    geom = Geometry(1.0, 0.01)
    v0 = pfa.pfa_energy_medium_high(geom, 0.0)
    assert v0 == pytest.approx(-math.pi ** 3 * geom.R / (720.0 * geom.d ** 2), rel=1e-14)
    assert v0 == pytest.approx(-2.0 * ZETA4 / (16.0 * math.pi) * geom.R / geom.d ** 2,
                               rel=1e-14)
    # dT = 1/2 hits the fixed point h(1) = 5/2
    v = pfa.pfa_energy_medium_high(geom, 0.5 / geom.d)
    assert v == pytest.approx(v0 * (1.0 + 2.5), rel=1e-12)
    # dT >> 1 reaches the high-temperature law -zeta(3) R T/(4 d)
    T = 8.0 / geom.d
    v = pfa.pfa_energy_medium_high(geom, T)
    assert v == pytest.approx(-pfa.ZETA3 * geom.R * T / (4.0 * geom.d), rel=1e-3)


def test_high_t_f0_large_separation():
    f0 = high_t_f0(Geometry(1.0, 9.0), FieldSpec())
    assert f0 == pytest.approx(-0.02590249, rel=1e-5)
    assert f0 == pytest.approx(-1.0 / 40.0, rel=0.04)


def test_high_t_f0_em_far():
    # m-summed l = 1 static diagonals give F0 ~ -(1/2)(2+4)(R/2L)^3
    geom = Geometry(1.0, 19.0)  # L/R = 20
    f0 = high_t_f0(geom, FieldSpec.em())
    want = -0.5 * 6.0 * (geom.R / (2.0 * geom.L)) ** 3
    assert f0 == pytest.approx(want, rel=0.01)


@pytest.mark.slow
def test_high_t_f0_small_separation_trend():
    trunc = Truncation(l_max=320)
    ratios = []
    for eps in (0.1, 0.05, 0.02):
        f0 = high_t_f0(Geometry(1.0, eps), FieldSpec.em(), trunc)
        ratios.append(f0 * (-4.0 * eps / pfa.ZETA3))
    assert ratios == sorted(ratios)             # monotone towards 1
    assert 0.85 <= ratios[-1] <= 1.05
    # a single scalar mode tends to half the electromagnetic value
    f0s = high_t_f0(Geometry(1.0, 0.02), FieldSpec(), trunc)
    assert f0s * (-8.0 * 0.02 / pfa.ZETA3) == pytest.approx(1.0, abs=0.06)
