"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is the stated one.  Where a stated bound turned out
to be false for the paper's own functions, the check compares against an
independent mpmath oracle in ``tests/oracles.py`` instead, which is tighter
than the bound it replaces:

* criterion 3: ``g_asymptotic(1) = 45 zeta(3)/pi^3 - 1`` and ``g(1)`` differ
  by 5.054 percent, a property of the two functions (``g(1)`` equals the
  mpmath ``oracles.mp_g(1)``), so "below 5 percent" holds for no correct
  program.  The check asserts the deviation equals the oracle value
  ``1 - (45 zeta(3)/pi^3 - 1)/g(1)`` to 1e-9 and that x = 1 is its peak on
  the criterion's grid (1.1e-4 at x = 0.5 and x = 2).
* criterion 5: the exact Dirichlet zero mode at L/R = 10 is
  ``-(R/4L)[1 + R/4L + (13/12)(R/L)^2 + O((R/L)^3)]``, 3.61 percent from
  ``-R/4L`` (2.5 at order R/L from the s-wave logarithm, 1.08 at order
  (R/L)^2, mostly from the l = 1 diagonals), so "within 3 percent" holds
  for no correct program.  The check asserts
  agreement with the factorial closed-form oracle to 1e-8 and the approach
  rate of that expansion at L/R in {10, 30, 100}.

Criteria 1 and 2 compare with reference numbers that exist in the
repository only as the literals below; without the paper's tables the
repository cannot settle whether they are misprints or a different
convention.  They are kept as stated and fail on R = 0.5 (0.1256 and
0.1237 vs 0.14) and on the PFA column (0.0422 / 0.2769 / 6.9505 vs 0.047 /
0.31 / 8.2; ratios 1.115 / 1.119 / 1.180, so not a normalisation, and no
mode count, profile or regime expansion reproduces it).  The computed side is checked per point: each force reports
``converged`` and an error estimate within 1 percent of its value.  Beyond
that, moving ``rel_tol`` from 1e-3 to 1e-5 changes the R = 0.5 and R = 1
forces by at most 2e-6 relative, and at R = 0.5, eps = 0.1 the thermal force
from ``thermal_part`` (0.12369) agrees with the difference quotient of
``matsubara_free_energy - vacuum_energy`` (0.12304 at rel_tol 1e-5, stencil
+-0.1 d) within 1 percent.  A remaining FAIL therefore comes from the
reference.
"""
import math

import mpmath as mp
import numpy as np
import pytest

import oracles

from casphere.kernel import Geometry, FieldSpec
from casphere.trlog import Truncation
from casphere import asympt, freeenergy as fe, pfa
from casphere import specfun


DD = FieldSpec()
ZETA2 = math.pi ** 2 / 6.0
ZETA3 = pfa.ZETA3
ZETA4 = math.pi ** 4 / 90.0


class Report:
    def __init__(self, num, title):
        self.num = num
        self.title = title
        self.lines = []
        self.ok = True

    def check(self, label, ok, detail=""):
        self.ok = self.ok and ok
        self.lines.append(f"    {'pass' if ok else 'FAIL'}: {label} {detail}")
        return ok

    def finish(self):
        print(f"\nACCEPTANCE {self.num}: {'PASS' if self.ok else 'FAIL'} - {self.title}")
        for line in self.lines:
            print(line)
        assert self.ok, f"criterion {self.num} ({self.title}): " + \
            "; ".join(l.strip() for l in self.lines if l.strip().startswith("FAIL"))


def thermal_force_table_value(rep, label, R, eps):
    """R * |thermal force| - the convention of the reference tables.

    Records on ``rep`` that the force converged and that its error estimate
    is within 1 percent of its value, so a failing row can only come from
    the reference number.
    """
    res = fe.force(Geometry(R, eps * R), DD, 1.0, target="thermal_part")
    rel_err = res.error_estimate / abs(res.value)
    rep.check(f"{label} converged", res.converged,
              f"l_max {res.diagnostics.get('l_max_used')}")
    rep.check(f"{label} error estimate <= 1%", rel_err <= 0.01,
              f"error/value {rel_err:.2e}")
    return R * abs(res.value)


@pytest.mark.slow
def test_criterion_1_table1_thermal_force():
    rep = Report(1, "table 1: thermal force at eps=0.01, T=1 (within 10%)")
    refs = {0.5: 0.14, 1.0: 0.59, 3.0: 5.1}
    for R, ref in refs.items():
        got = thermal_force_table_value(rep, f"R={R}", R, 0.01)
        dev = (got - ref) / ref
        rep.check(f"R={R}", abs(dev) <= 0.10,
                  f"computed {got:.4f} vs {ref} (dev {dev:+.1%})")
    rep.finish()


@pytest.mark.slow
def test_criterion_2_table2_thermal_force():
    rep = Report(2, "table 2: thermal force at eps=0.1, T=1 "
                    "(exact within 10%, PFA within 5%)")
    refs = {0.5: 0.14, 1.0: 0.56, 6.0: 7.9}
    for R, ref in refs.items():
        got = thermal_force_table_value(rep, f"exact R={R}", R, 0.1)
        dev = (got - ref) / ref
        rep.check(f"exact R={R}", abs(dev) <= 0.10,
                  f"computed {got:.4f} vs {ref} (dev {dev:+.1%})")
    pfa_refs = {0.5: 0.047, 1.0: 0.31, 6.0: 8.2}
    for R, ref in pfa_refs.items():
        got = R * abs(pfa.pfa_thermal_force(Geometry(R, 0.1 * R), 1.0, 1))
        dev = (got - ref) / ref
        rep.check(f"PFA R={R}", abs(dev) <= 0.05,
                  f"computed {got:.4f} vs {ref} (dev {dev:+.1%})")
    rep.finish()


def test_criterion_3_pfa_special_functions():
    rep = Report(3, "parallel-plate functions g and h")
    grid = [0.1, 0.5, 1.0, 2.0, 10.0]
    worst = max(abs(pfa.g_function(x) - x ** 4 * pfa.g_function(1 / x))
                / abs(pfa.g_function(x)) for x in grid)
    rep.check("g inversion symmetry (1e-10)", worst < 1e-10, f"worst {worst:.2e}")
    worst = max(abs(pfa.h_function(1 / x) - (5 / x ** 2 - pfa.h_function(x) / x ** 4))
                / abs(pfa.h_function(1 / x)) for x in grid)
    rep.check("h inversion symmetry (1e-10)", worst < 1e-10, f"worst {worst:.2e}")
    rep.check("h(1) = 5/2 (1e-12)", abs(pfa.h_function(1.0) - 2.5) < 1e-12,
              f"h(1) = {pfa.h_function(1.0):.15f}")
    mom = oracles.g_third_moment()
    rep.check("int t^-3 g dt = 5/2 (1e-6)", abs(mom - 2.5) < 1e-6, f"got {mom:.9f}")
    worst = 0.0
    for x in (0.3, 1.0, 3.0):
        e = 1e-5 * x
        lhs = (pfa.h_function(x + e) / (x + e) ** 2
               - pfa.h_function(x - e) / (x - e) ** 2) / (2 * e)
        rhs = -2.0 / x ** 3 * pfa.g_function(x)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    rep.check("derivative identity d/dx[h/x^2] = -2g/x^3 (1e-6)",
              worst < 1e-6, f"worst {worst:.2e}")
    devs = {x: abs(pfa.g_asymptotic(x) - pfa.g_function(x)) / pfa.g_function(x)
            for x in grid}
    want = float(1 - (45 * mp.zeta(3) / mp.pi ** 3 - 1) / oracles.mp_g(1))
    rep.check("asymptotic-vs-exact deviation of g at x=1 about 5% (5.054%, 1e-9)",
              abs(devs[1.0] - want) <= 1e-9 * want,
              f"measured {devs[1.0]:.6%} vs mpmath {want:.6%}")
    rep.check("deviation peaks at x=1 on the grid",
              max(devs, key=devs.get) == 1.0,
              ", ".join(f"{x}: {d:.1e}" for x, d in devs.items()))
    rep.finish()


def test_criterion_4_low_temperature_limits():
    rep = Report(4, "low-temperature limits of the thermal part")
    T = 1e-2
    g12 = Geometry(1.0, 1.0)
    val = fe.thermal_part(g12, DD, T).value / T ** 2
    want = -ZETA2 / math.pi
    rep.check("Dirichlet/Dirichlet T^2 coefficient (2%)",
              abs(val - want) <= 0.02 * abs(want),
              f"F_T/T^2 = {val:.5f} vs {want:.5f}")
    spec_dn = FieldSpec("scalar", "dirichlet", "neumann")
    val = fe.thermal_part(g12, spec_dn, T).value / T ** 2
    want = ZETA2 / math.pi * (2 * 2.0 - 1.0) / (2 * 2.0 + 1.0)
    rep.check("Neumann-plane sign flip (5%)",
              abs(val - want) <= 0.05 * abs(want),
              f"F_T/T^2 = {val:.5f} vs {want:+.5f}")
    spec_nd = FieldSpec("scalar", "neumann", "dirichlet")
    a = fe.thermal_part(g12, spec_nd, 1e-2).value
    b = fe.thermal_part(g12, spec_nd, 2e-2).value
    expo = math.log(b / a) / math.log(2.0)
    rep.check("Neumann-sphere T^4 scaling (exponent 4.0 +- 0.1)",
              abs(expo - 4.0) <= 0.1, f"exponent {expo:.3f}")
    rep.finish()


@pytest.mark.slow
def test_criterion_5_high_temperature_zero_mode():
    rep = Report(5, "high-temperature zero mode F_0")
    trunc = Truncation(l_max=320)
    ratios = []
    for eps in (0.1, 0.05, 0.02):
        f0 = asympt.high_t_f0(Geometry(1.0, eps), FieldSpec.em(), trunc)
        ratios.append(f0 * (-4.0 * eps / ZETA3))
    rep.check("F_0 * (-4 eps/zeta3) in [0.85, 1.05] at eps=0.02",
              0.85 <= ratios[-1] <= 1.05, f"ratio {ratios[-1]:.4f}")
    rep.check("monotonically approaching 1 over eps in {0.1, 0.05, 0.02}",
              ratios[0] < ratios[1] < ratios[2] <= 1.0,
              "ratios " + ", ".join(f"{r:.4f}" for r in ratios))
    f0s = {LR: asympt.high_t_f0(Geometry(1.0, LR - 1.0), DD) for LR in (10.0, 30.0, 100.0)}
    f0, want = f0s[10.0], oracles.f0_dirichlet_static(1.0, 10.0, 12)
    rep.check("F_0 at L/R=10 matches the closed-form oracle (1e-8)",
              abs(f0 - want) <= 1e-8 * abs(want),
              f"F_0 = {f0:.10f} vs {want:.10f} ({abs(f0 / want - 1):.1e}; "
              f"{abs(f0 / -0.025 - 1):.2%} from -R/4L)")
    resids = {LR: abs(f0 * LR / -0.25 - 1 - 0.25 / LR - 13 / 12 / LR ** 2)
              for LR, f0 in f0s.items()}
    rep.check("F_0 approaches -(R/4L)[1 + R/4L + (13/12)(R/L)^2] within 3(R/L)^3",
              all(r <= 3 / LR ** 3 for LR, r in resids.items()),
              ", ".join(f"L/R={LR:g}: {r:.1e} <= {3 / LR ** 3:.1e}"
                        for LR, r in resids.items()))
    rep.finish()


@pytest.mark.slow
def test_criterion_6_cross_representation_identity():
    rep = Report(6, "Matsubara - vacuum = thermal (1%)")
    for eps in (0.3, 0.5, 1.0):
        geom = Geometry(1.0, eps)
        f = fe.matsubara_free_energy(geom, DD, 1.0).value
        e0 = fe.vacuum_energy(geom, DD).value
        ft = fe.thermal_part(geom, DD, 1.0).value
        resid = abs(f - e0 - ft) / abs(ft)
        rep.check(f"eps={eps}", resid <= 0.01, f"residual {resid:.2%}")
    rep.finish()


def test_criterion_7_special_function_suite():
    rep = Report(7, "special-function identities and kernel expansions")
    worst = 0.0
    for x in (0.1, 1.0, 10.0):
        sj, lj = specfun.log_jy_arrays(51, x)
        sy, ly = oracles.log_y_arrays(51, x)
        for l in range(51):
            nu = l + 0.5
            J = sj[l] * math.exp(lj[l])
            Y = sy[l] * math.exp(ly[l])
            Jd = (nu / x) * J - sj[l + 1] * math.exp(lj[l + 1])
            Yd = (nu / x) * Y - sy[l + 1] * math.exp(ly[l + 1])
            worst = max(worst, abs((J * Yd - Jd * Y) - 2 / (math.pi * x))
                        / (2 / (math.pi * x)))
    rep.check("Wronskian J Y' - J' Y = 2/pi x (1e-9, l <= 50)",
              worst < 1e-9, f"worst {worst:.2e}")
    worst = 0.0
    for x in (0.1, 1.0, 10.0):
        logi, logk = specfun.log_ik_arrays(51, x)
        for l in range(51):
            nu = l + 0.5
            ikp = math.exp(logi[l] + logk[l])
            kd_part = (nu / x) * ikp - math.exp(logi[l] + logk[l + 1])
            id_part = math.exp(logi[l + 1] + logk[l]) + (nu / x) * ikp
            worst = max(worst, abs((kd_part - id_part) - (-1 / x)) / (1 / x))
    rep.check("modified Wronskian I K' - I' K = -1/x (1e-10, l <= 50)",
              worst < 1e-10, f"worst {worst:.2e}")
    parity_ok = all(oracles.h_factor(l, lp, lpp, m) == 0.0
                    for (l, lp, m) in [(9, 12, 4), (33, 60, 7), (60, 55, 0)]
                    for lpp in range(abs(l - lp), l + lp + 1)
                    if (l + lp + lpp) % 2 == 1)
    rep.check("3j parity support (exact)", parity_ok)
    worst = 0.0
    for (l, lp, m) in [(17, 23, 11), (60, 44, 30), (60, 60, 2), (41, 41, 0)]:
        js = np.arange(abs(l - lp), l + lp + 1)
        vals = np.array([oracles.three_j(l, lp, int(j), m, -m, 0) for j in js])
        worst = max(worst, abs(float(np.sum((2 * js + 1.0) * vals ** 2)) - 1.0))
    rep.check("3j sum rule (1e-10, l <= 60)", worst < 1e-10, f"worst {worst:.2e}")

    from oracles import m_em_block, m_scalar
    ok = True
    for xi in (1e-2, 1e-3):
        tol = max(1e-3, 10 * xi)
        ok &= abs(m_scalar(0, 0, 0, xi, Geometry(1, 1), DD)
                  - (0.25 - 0.75 * xi)) <= tol * 0.25
        ok &= abs(m_scalar(0, 0, 0, xi, Geometry(1, 1),
                           FieldSpec("scalar", "neumann", "dirichlet"))
                  - (-xi ** 2 / 12 + xi ** 3 / 3)) <= tol * xi ** 2 / 12
        b0 = m_em_block(1, 1, 0, xi, Geometry(1, 1))
        b1 = m_em_block(1, 1, 1, xi, Geometry(1, 1))
        lines = {
            (0, 0, 0): 1 / 64 - (1 / 8) * (1 - 3 / 40) * xi ** 2
                       + (1 / 3) * (1 - 1 / 64) * xi ** 3,
            (1, 0, 0): 1 / 128 + (1 / 16) * (1 + 3 / 40) * xi ** 2
                       - (1 / 3) * (1 + 1 / 128) * xi ** 3,
            (0, 1, 1): 1 / 32 - (1 / 4) * (1 + 3 / 80) * xi ** 2
                       + (2 / 3) * (1 + 1 / 32) * xi ** 3,
            (1, 1, 1): 1 / 64 + (1 / 8) * (1 - 3 / 80) * xi ** 2
                       - (2 / 3) * (1 - 1 / 64) * xi ** 3,
        }
        for (m, i, j), want in lines.items():
            got = (b0 if m == 0 else b1)[i, j]
            ok &= abs(got - want) <= tol * abs(want)
    rep.check("kernel small-xi expansions match every printed line", bool(ok))
    rep.finish()


def test_criterion_8_em_low_temperature_coefficients():
    rep = Report(8, "electromagnetic low-temperature coefficients")
    contact = asympt.low_t_thermal(Geometry(1.0, 1e-12), FieldSpec.em(), 1.0).value
    want = 58.0 * ZETA4 / (15.0 * math.pi)
    rep.check("d -> 0 coefficient = 58 zeta(4)/(15 pi)",
              abs(contact - want) < 1e-9 * want,
              f"got {contact:.7f} (= {want:.7f})")
    far = asympt.low_t_thermal(Geometry(1.0, 1e6), FieldSpec.em(), 1.0).value
    want = 6.0 * ZETA4 / math.pi
    rep.check("L -> inf coefficient = 6 zeta(4)/pi",
              abs(far - want) < 1e-9 * want, f"got {far:.7f} (= {want:.7f})")
    # static-kernel m-summed diagonal checks in the far zone: the l = l' = 1
    # entry is the last of each block at l_max 1
    from casphere.kernel import static_matrix
    g = Geometry(1.0, 1.0)
    ok = True
    for pol, coef in [("neumann", -2.0), ("te", 2.0), ("tm", 4.0)]:
        s = sum(static_matrix(m, g, pol, 1)[-1, -1] for m in (-1, 0, 1))
        ok &= abs(s - coef * 0.25 ** 3) < 1e-12
    rep.check("m-summed l=1 static diagonals {-2, 2, 4} (R/2L)^3", bool(ok))
    f0em = asympt.high_t_f0(Geometry(1.0, 19.0), FieldSpec.em())
    want = -0.5 * 6.0 * (1.0 / 40.0) ** 3
    rep.check("EM far-zone F_0 from the summed l=1 diagonals (1%)",
              abs(f0em - want) <= 0.01 * abs(want),
              f"F_0 = {f0em:.3e} vs {want:.3e}")
    rep.finish()
