"""Observable-level tests: representation limits, scaling, force signs.

The heavier cross-representation identity and the reference-table force
values live in the acceptance suite.
"""

import math

import pytest

from casphere.kernel import Geometry, FieldSpec
from casphere.trlog import Truncation
from casphere import freeenergy as fe
from casphere.asympt import ZETA2, ZETA4

import oracles

DD = FieldSpec()
G12 = Geometry(1.0, 1.0)


def test_thermal_low_t_dirichlet():
    T = 1e-2
    res = fe.thermal_part(G12, DD, T)
    assert res.converged
    assert res.value / T ** 2 == pytest.approx(-ZETA2 / math.pi, rel=0.02)


def test_thermal_low_t_neumann_plane_sign_flip():
    T = 1e-2
    spec = FieldSpec("scalar", "dirichlet", "neumann")
    res = fe.thermal_part(G12, spec, T)
    want = ZETA2 / math.pi * (3.0 / 5.0) * T * T
    assert res.value == pytest.approx(want, rel=0.05)
    assert res.value > 0


def test_thermal_low_t_neumann_sphere_t4():
    spec = FieldSpec("scalar", "neumann", "dirichlet")
    a = fe.thermal_part(G12, spec, 1e-2)
    b = fe.thermal_part(G12, spec, 2e-2)
    exponent = math.log(b.value / a.value) / math.log(2.0)
    assert exponent == pytest.approx(4.0, abs=0.1)
    # the closed form -2 zeta(4) R^3 T^4/pi is the s-wave channel alone;
    # for a Neumann sphere every l enters at the same xi^3 order, and at
    # L = 2R the higher channels cancel about half of it
    s_wave = fe.thermal_part(G12, spec, 1e-2, Truncation(l_max=0))
    assert s_wave.value == pytest.approx(-2.0 * ZETA4 / math.pi * 1e-8, rel=0.01)
    assert a.value == pytest.approx(0.4772 * (-2.0 * ZETA4 / math.pi * 1e-8), rel=0.01)


def test_thermal_small_sphere_limit():
    # R -> 0 at contact: F_T -> -zeta(2) R T^2 / pi
    res = fe.thermal_part(Geometry(0.05, 0.0), DD, 1.0)
    assert res.value / (-ZETA2 * 0.05 / math.pi) == pytest.approx(1.0, abs=0.05)


def test_thermal_rejects_em():
    with pytest.raises(NotImplementedError):
        fe.thermal_part(G12, FieldSpec.em(), 1.0)


def test_matsubara_needs_positive_t():
    with pytest.raises(ValueError):
        fe.matsubara_free_energy(G12, DD, 0.0)


def test_high_t_factorization():
    # T = 20/d: every non-zero mode is exponentially dead, F -> T F_0
    geom = Geometry(1.0, 0.5)
    T = 40.0
    res = fe.matsubara_free_energy(geom, DD, T)
    from casphere.asympt import high_t_f0
    f0 = high_t_f0(geom, DD)
    assert res.value / (T * f0) == pytest.approx(1.0, rel=0.01)
    assert res.diagnostics["n_max_used"] <= 2


def test_matsubara_nodes_start_from_the_previous_cutoff(monkeypatch):
    # before the l_max hint every node regrew l_max from l_min + 4: 518
    # blocks here, 394 of them at the nodes n >= 2 (the zero mode and the
    # n = 1 node, which start afresh either way, took 124)
    from casphere import trlog
    counts = {"all": 0, "hinted": 0}
    assemble = trlog.assemble_block
    T = 1.0

    def counting(m, evaluation, geom, spec, l_max, xi=None):
        counts["all"] += 1
        if xi is not None and xi > 3.0 * math.pi * T:
            counts["hinted"] += 1
        return assemble(m, evaluation, geom, spec, l_max, xi=xi)

    monkeypatch.setattr(trlog, "assemble_block", counting)
    geom = Geometry(1.0, 0.2)
    res = fe.matsubara_free_energy(geom, DD, T)
    monkeypatch.setattr(trlog, "assemble_block", assemble)
    assert res.converged
    assert counts["hinted"] <= 0.40 * 394
    assert counts["all"] <= 0.55 * 518
    l_used = res.diagnostics["l_max_used"]
    ref = fe.matsubara_free_energy(geom, DD, T, Truncation(l_max=l_used + 8))
    assert res.value == pytest.approx(ref.value, rel=Truncation().rel_tol)


def test_thermal_sweep_counts_its_work(monkeypatch):
    # the diagnostics count what the sweep did: every assembled block, the
    # rotated ones whose log-determinant took eigenvalues (80 of 4370 here;
    # the rest are certified LU log-determinants) and the nodes run at the
    # last verified cut-off without a growth test
    import numpy as np
    from casphere import trlog
    seen = {"blocks": 0, "eigvals": 0, "assumed": 0}
    assemble, trace, eigvals = trlog.assemble_block, trlog.trace_over_m, np.linalg.eigvals

    def counting_assemble(*args, **kwargs):
        seen["blocks"] += 1
        return assemble(*args, **kwargs)

    def counting_trace(evaluation, geom, spec, trunc=None, **kwargs):
        seen["assumed"] += trunc.l_max is not None
        return trace(evaluation, geom, spec, trunc, **kwargs)

    def counting_eigvals(a):
        seen["eigvals"] += 1
        return eigvals(a)

    monkeypatch.setattr(trlog, "assemble_block", counting_assemble)
    monkeypatch.setattr(trlog, "trace_over_m", counting_trace)
    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    res = fe.thermal_part(Geometry(1.5, 0.45), DD, 1.0)
    diag = res.diagnostics
    assert (diag["blocks"], diag["eig_blocks"], diag["nodes_assumed"]) == \
        (seen["blocks"], seen["eigvals"], seen["assumed"])
    assert diag["eig_blocks"] <= 0.05 * diag["blocks"]
    assert diag["nodes_assumed"] > 0


@pytest.mark.slow
def test_em_matsubara_near_contact():
    # with the sphere factor wholly on the columns, the blocks reached
    # 5.6e19 here and the LU log-det of 1 - M came out negative
    res = fe.matsubara_free_energy(Geometry(1.0, 0.1), FieldSpec.em(), 1.0)
    assert res.converged and res.value < 0


def test_em_matsubara_pinned_cutoff_matches_eigenvalues():
    from casphere import kernel
    geom, T = Geometry(1.0, 0.3), 1.0
    res = fe.matsubara_free_energy(geom, FieldSpec.em(), T, Truncation(l_max=40))
    want = oracles.em_free_energy_eigenvalues(kernel, geom, T, 40,
                                              res.diagnostics["n_max_used"])
    assert res.value == pytest.approx(want, rel=1e-4)


def test_vacuum_energy_beyond_pfa_form():
    # eps = 0.1: within 5 percent of -(zeta(4)/16 pi R) eps^-2 (1 + eps/3)
    geom = Geometry(1.0, 0.1)
    res = fe.vacuum_energy(geom, DD)
    want = -ZETA4 / (16.0 * math.pi) * 100.0 * (1.0 + 0.1 / 3.0)
    assert res.value == pytest.approx(want, rel=0.05)
    assert res.value < 0


def test_vacuum_energy_negative_everywhere():
    for geom in (Geometry(1.0, 1.0), Geometry(0.5, 2.0), Geometry(2.0, 0.4)):
        assert fe.vacuum_energy(geom, DD).value < 0


def test_vacuum_energy_scaling():
    lam = 2.0
    a = fe.vacuum_energy(Geometry(1.0, 0.5), DD)
    b = fe.vacuum_energy(Geometry(lam, lam * 0.5), DD)
    assert b.value == pytest.approx(a.value / lam, rel=1e-6)


def test_free_energy_splits_into_vacuum_plus_thermal():
    geom = Geometry(1.0, 0.5)
    f = fe.matsubara_free_energy(geom, DD, 1.0)
    e0 = fe.vacuum_energy(geom, DD)
    ft = fe.thermal_part(geom, DD, 1.0)
    assert f.value - e0.value == pytest.approx(ft.value, rel=0.01)


def test_free_energy_tends_to_vacuum_energy():
    # |F - E_0| = |F_T| ~ zeta(2) R T^2/pi; at T = 5e-3 this sits below
    # 1e-3 |E_0| for R = 1, d = 1 (at T = 1e-2 the thermal part itself is
    # 2e-3 |E_0|, twice the stated budget, so the point is halved)
    geom = Geometry(1.0, 1.0)
    e0 = fe.vacuum_energy(geom, DD)
    T = 5e-3
    f = fe.matsubara_free_energy(geom, DD, T, Truncation(rel_tol=1e-4))
    assert abs(f.value - e0.value) < 1e-3 * abs(e0.value)
    f2 = fe.matsubara_free_energy(geom, DD, 2 * T, Truncation(rel_tol=1e-4))
    ratio = (f2.value - e0.value) / (f.value - e0.value)
    assert ratio == pytest.approx(4.0, abs=0.4)  # approach is quadratic in T


@pytest.mark.slow
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_thermal_monotone_in_radius(eps):
    # F_T negative and decreasing with R at fixed eps (figure shape)
    vals = [fe.thermal_part(Geometry(R, eps * R), DD, 1.0).value
            for R in (0.2, 0.8, 1.6, 2.4, 3.0)]
    assert all(v < 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_total_force_attractive():
    res = fe.force(Geometry(1.0, 0.5), DD, 1.0, target="total")
    assert res.value < 0
    assert res.converged


def test_force_validation():
    with pytest.raises(ValueError):
        fe.force(G12, DD, 1.0, target="gradient")


def test_result_dataclass():
    res = fe.EnergyResult(1.0, 0.1, {"converged": True})
    assert float(res) == 1.0 and res.converged
