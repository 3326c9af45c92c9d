"""Observable-level tests: representation limits, scaling, force signs.

The heavier cross-representation identity and the reference-table force
values live in the acceptance suite.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from casphere.kernel import Geometry, FieldSpec, NEUMANN
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
    # -2 zeta(4) R^3 T^4/pi is the s-wave channel alone; for a Neumann
    # sphere every l enters at the same xi^3 order, and at L = 2R the
    # higher channels cancel about half of it (asympt.low_t_thermal gives
    # the large-L limit, one half)
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


@pytest.mark.parametrize("call,match", [
    (lambda: Geometry(1.0, math.nan), "finite"),
    (lambda: Geometry(math.inf, 0.1), "finite"),
    (lambda: Truncation(rel_tol=math.nan), "rel_tol"),
    (lambda: Truncation(rel_tol=math.inf), "rel_tol"),
    (lambda: Truncation(quad_points=4), "quad_points"),
    (lambda: Truncation(quad_points=1), "quad_points"),
    (lambda: Truncation(quad_points=7), "quad_points"),
    (lambda: Truncation(quad_points=11), "quad_points"),
    (lambda: Truncation(quad_points=15), "quad_points"),
    (lambda: Truncation(n_max=0), "n_max"),
    (lambda: fe.matsubara_free_energy(Geometry(1.0, 0.5), DD, 1.0, Truncation(l_max=-3)),
     "l_max"),
    (lambda: fe.matsubara_free_energy(Geometry(1.0, 0.5), FieldSpec.em(), 1.0,
                                      Truncation(l_max=0)), "l_max"),
    (lambda: fe.thermal_part(Geometry(1.0, 0.5), DD, 1.0, Truncation(l_max=-1)), "l_max"),
    (lambda: fe.thermal_part(G12, DD, math.inf), "finite T"),
    (lambda: fe.matsubara_free_energy(G12, DD, math.inf), "finite T"),
    (lambda: fe.force(G12, DD, math.nan, target="thermal_part"), "finite T"),
], ids=["d nan", "R inf", "rel_tol nan", "rel_tol inf", "quad_points even",
        "quad_points 1", "quad_points 7", "quad_points 11", "quad_points 15", "n_max 0", "l_max negative", "EM l_max 0",
        "thermal l_max negative", "thermal T inf", "matsubara T inf", "force T nan"])
def test_bad_inputs_fail_loudly(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("n", [3, 5, 9, 13, 17, 33])
def test_panel_rules_integrate_low_powers_exactly(n):
    # the full rule on [-1, 1] and the embedded rule on its every other
    # node integrate 1 and x^2; the embedded rule of 3 points is the
    # 2-point trapezoid, exact for 1 and x only
    Truncation(quad_points=n)
    nodes, weights, sub_weights = fe._cc_rule(n)
    sub = nodes[::2]
    assert len(sub_weights) == len(sub) == (n + 1) // 2
    assert weights.sum() == pytest.approx(2.0, abs=1e-14)
    assert weights @ nodes ** 2 == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert sub_weights.sum() == pytest.approx(2.0, abs=1e-14)
    if n == 3:
        assert sub_weights @ sub == pytest.approx(0.0, abs=1e-14)
    else:
        assert sub_weights @ sub ** 2 == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_subrule_degree_is_the_exactness_of_the_embedded_rule():
    # the embedded rule integrates x^p exactly and x^(p+1) not
    for n in (3, 5, 9, 13, 17):
        nodes, _, sub_weights = fe._cc_rule(n)
        p = fe._subrule_degree(n)
        exact = [(1.0 - (-1.0) ** (k + 1)) / (k + 1) for k in (p, p + 1)]
        assert sub_weights @ nodes[::2] ** p == pytest.approx(exact[0], abs=1e-14)
        assert abs(sub_weights @ nodes[::2] ** (p + 1) - exact[1]) > 1e-6
    assert [fe._subrule_degree(n) for n in (3, 5, 9, 17)] == [1, 3, 5, 9]


def test_panel_sweep_widens_over_resolved_panels():
    # xi e^{-xi} cos(xi/2) integrates to Re 1/(1 - i/2)^2 = 12/25 over
    # (0, inf), with no truncation error at the nodes.  Once a panel is
    # over-resolved the first pass goes on in panels of 2 width, no wider,
    # and it stops once its small panels in a row span 3 width
    import numpy as np
    width, rel_tol, npts = 1.0, 1e-4, 9
    calls, first = [], []

    def f(x):
        calls.append((x[0], x[-1]))
        return np.stack([x * np.exp(-x) * np.cos(0.5 * x), np.zeros_like(x)], axis=1)

    def checkpoint():
        first.append(calls[-1])
        return lambda: None

    total, err, work = fe._panel_sweep(f, width, 60.0, npts, rel_tol, checkpoint)
    assert abs(total - 12.0 / 25.0) <= err
    widths = [(hi - lo) / width for lo, hi in first]
    assert all(w == pytest.approx(1.0) or w == pytest.approx(2.0) for w in widths)
    assert widths.count(pytest.approx(2.0)) > 0
    assert work == {"xi_max_used": first[-1][1], "panels": len(first),
                    "panels_refined": len(calls) - len(first)}
    # the first pass's trailing run of small panels
    scale, small = 0.0, []
    for lo, hi in first:
        v = fe._integrate_panel(f, lo, hi, npts)[0]
        scale += v
        small.append(abs(v) * width < rel_tol * 1e-3 * abs(scale) * (hi - lo))
    run = len(small) - small[::-1].index(False)
    assert first[-1][1] - first[run][0] >= 3.0 * width - 1e-9


def test_sweeps_report_the_range_and_panels_they_used(monkeypatch):
    # xi_max_used is the upper end of the last first-pass panel, not the
    # nominal range (ln 1e3 + 20 on the thermal sweep, 19/d + 5/L on the
    # imaginary axis), and the panels count every panel evaluated
    ends = []
    integrate, checkpoint = fe._integrate_panel, fe._SweepState.checkpoint

    def recording(f, a, b, npts):
        ends.append(b)
        return integrate(f, a, b, npts)

    def marking(self):
        ends.append("first")
        return checkpoint(self)

    monkeypatch.setattr(fe, "_integrate_panel", recording)
    monkeypatch.setattr(fe._SweepState, "checkpoint", marking)
    diags = []
    for run in (lambda: fe.thermal_part(Geometry(1.5, 0.45), DD, 1.0),
                lambda: fe.vacuum_energy(Geometry(1.0, 0.5), DD)):
        ends.clear()
        diag = run().diagnostics
        last = len(ends) - 1 - ends[::-1].index("first")  # the last first-pass panel
        assert diag["xi_max_used"] == ends[last - 1]
        assert diag["panels"] == ends.count("first")
        assert diag["panels_refined"] == len(ends) - 2 * ends.count("first")
        assert diag["panels_refined"] > 0
        diags.append(diag)
    # at the scan point the first-pass panels are over-resolved from the
    # third on; in panels of half an oscillation period throughout the
    # sweep ran to xi 15.2 and built 2225 blocks
    assert diags[0]["converged"]
    assert diags[0]["xi_max_used"] < 20.0
    assert diags[0]["blocks"] <= 1800


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
    import numpy as np
    from casphere import trlog
    counts = {"all": 0, "hinted": 0}
    assemble = trlog.assemble_block
    T = 1.0

    # an imaginary-axis block is the stack of block m of a chunk of nodes
    def counting(m, evaluation, geom, spec, l_max, xi=None):
        if xi is None:
            counts["all"] += 1
        else:
            counts["all"] += len(xi.xi)
            counts["hinted"] += np.count_nonzero(xi.xi > 3.0 * math.pi * T)
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
    # rotated ones whose log-determinant took eigenvalues (the rest are
    # certified LU log-determinants), the discarded nodes' blocks included,
    # and the nodes run at the last verified cut-off without a growth test
    import numpy as np
    from casphere import trlog
    seen = {"blocks": 0, "eigvals": 0, "assumed": 0, "nodes": 0}
    assemble, trace, eigvals = trlog.assemble_block, trlog.trace_over_m, np.linalg.eigvals
    evaluate = fe._SweepState.evaluate

    # a rotated block is a stack of the blocks of a panel's nodes, and one
    # trace_over_m call evaluates the whole panel from the hint: the
    # verified nodes grow their cut-offs, and the nodes its verify mask
    # leaves out are assumed, at the hint + 4
    def counting_assemble(*args, **kwargs):
        blk = assemble(*args, **kwargs)
        seen["blocks"] += len(blk[0])
        return blk

    def counting_trace(evaluation, geom, spec, trunc=None, **kwargs):
        seen["assumed"] += np.count_nonzero(~kwargs["verify"])
        return trace(evaluation, geom, spec, trunc, **kwargs)

    def counting_eigvals(a):
        seen["eigvals"] += len(a) if a.ndim == 3 else 1
        return eigvals(a)

    def counting_evaluate(self, xis):
        seen["nodes"] += len(xis)
        return evaluate(self, xis)

    monkeypatch.setattr(trlog, "assemble_block", counting_assemble)
    monkeypatch.setattr(trlog, "trace_over_m", counting_trace)
    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    monkeypatch.setattr(fe._SweepState, "evaluate", counting_evaluate)
    res = fe.thermal_part(Geometry(1.5, 0.45), DD, 1.0)
    diag = res.diagnostics
    assert (diag["blocks"], diag["eig_blocks"]) == (seen["blocks"], seen["eigvals"])
    assert diag["eig_blocks"] <= 0.05 * diag["blocks"]
    # every node but each sixth one is assumed; a discarded assumed node is
    # evaluated again at the cut-off of the new hint
    n, every = seen["nodes"], fe._SweepState.VERIFY_EVERY
    assert diag["nodes_assumed"] == n - (n + every - 1) // every
    assert 0 <= seen["assumed"] - diag["nodes_assumed"] <= diag["nodes_discarded"]
    assert diag["nodes_assumed"] > 0


@pytest.mark.parametrize("obs, geom", [("FT", Geometry(1.5, 0.45)),
                                       ("force", Geometry(0.5, 0.05))], ids=["FT", "force"])
def test_refined_panels_start_from_their_own_first_pass(monkeypatch, obs, geom):
    # the hint reaches l_max 20 (FT) and 12 (force) at the top of the axis,
    # while the first panel's nodes need 8; its refinements start from the
    # hint its first pass left
    import numpy as np
    from casphere import trlog
    trace, stacks = trlog.trace_over_m, []  # (largest node, start) per stack

    def recording(*args, **kwargs):
        stacks.append((np.max(kwargs["xi"]), kwargs["l_max_start"]))
        return trace(*args, **kwargs)

    monkeypatch.setattr(trlog, "trace_over_m", recording)
    if obs == "force":
        res = fe.force(geom, DD, 1.0, target="thermal_part")
    else:
        res = fe.thermal_part(geom, DD, 1.0)
    assert res.converged
    width = min(math.pi / (2.0 * geom.L), 3.0)
    first = [start for xi, start in stacks if xi <= width]
    assert len(first) > 2  # the midpoint node, the first pass and refinements
    assert max(first) <= 8
    assert max(start for _, start in stacks) >= 12


def test_nodes_the_boltzmann_factor_makes_negligible_stay_cheap():
    # the growth and m tests' floor is in units of the integrand, n_1 times
    # the trace, so the nodes past xi = 10, where n_1 <= 4.5e-5, no longer
    # push the cut-off up the axis; with the floor in units of the trace
    # these ran to l_max 36 and 20
    ft = fe.thermal_part(Geometry(1.5, 0.45), DD, 1.0)
    f = fe.force(Geometry(0.5, 0.05), DD, 1.0, target="thermal_part")
    assert ft.converged and f.converged
    assert ft.diagnostics["l_max_used"] <= 28
    assert f.diagnostics["l_max_used"] <= 16


def test_matsubara_terms_the_sum_makes_negligible_stay_cheap():
    # the growth and m tests' floor is 1e-2 of the largest term so far, the
    # zero mode included, so the nodes n = 4, 5 of DD (1, 0.2, 1), worth
    # 5e-5 and 4e-6 of F, no longer set the cut-off; with no floor these ran
    # to l_max 44, and EM (1, 0.5, 1) to 25
    dd = fe.matsubara_free_energy(Geometry(1.0, 0.2), DD, 1.0)
    em = fe.matsubara_free_energy(Geometry(1.0, 0.5), FieldSpec.em(), 1.0)
    assert dd.converged and em.converged
    assert dd.diagnostics["l_max_used"] <= 36
    assert em.diagnostics["l_max_used"] <= 23


def test_diagnostics_report_the_work_evaluated():
    # the largest cut-offs evaluated, discarded nodes included, bound the
    # accepted ones
    geom = Geometry(1.0, 0.3)
    for res in (fe.thermal_part(geom, DD, 0.7), fe.vacuum_energy(geom, DD),
                fe.force(geom, DD, 0.7, target="thermal_part"),
                fe.matsubara_free_energy(geom, DD, 1.0),
                fe.matsubara_free_energy(geom, DD, 1.0, Truncation(l_max=12))):
        diag = res.diagnostics
        assert diag["l_max_evaluated"] >= diag["l_max_used"]
        assert diag["m_max_evaluated"] >= diag["m_max_used"]
    assert diag["l_max_evaluated"] == 12


def test_verify_every_one_verifies_every_node(monkeypatch):
    # at VERIFY_EVERY = 1 every node of a stack carries its growth test
    geom = Geometry(1.5, 0.45)
    sixth = fe.thermal_part(geom, DD, 1.0)
    monkeypatch.setattr(fe._SweepState, "VERIFY_EVERY", 1)
    every = fe.thermal_part(geom, DD, 1.0)
    assert sixth.diagnostics["nodes_assumed"] > 0
    assert every.diagnostics["nodes_assumed"] == 0
    assert every.converged
    assert every.value == pytest.approx(sixth.value, rel=1e-3)


# (label, observable, field, T, quad_points): at (1, 0.3) and T = 0.7 a
# verified node grows past its stack's start + 4, and so moves the hint,
# inside some panel at both rules; the cold sweeps at T = 0.3 and 0.05
# have one such node and none
SWEEP_POINTS = [
    ("FT DD", "FT", "DD", 0.7, 9),
    ("FT DN", "FT", "DN", 0.7, 9),
    ("FT ND", "FT", "ND", 0.7, 9),
    ("force DD", "force", "DD", 0.7, 9),
    ("E0 DD", "E0", "DD", None, 9),
    ("FT DD 17", "FT", "DD", 0.7, 17),
    ("FT DN 17", "FT", "DN", 0.7, 17),
    ("FT ND 17", "FT", "ND", 0.7, 17),
    ("force DD 17", "force", "DD", 0.7, 17),
    ("E0 DD 17", "E0", "DD", None, 17),
    ("FT DD cold", "FT", "DD", 0.3, 9),
    ("FT DD colder", "FT", "DD", 0.05, 9),
]


@pytest.mark.parametrize("target, name, field, T, quad_points", SWEEP_POINTS,
                         ids=[p[0] for p in SWEEP_POINTS])
def test_stacked_runs_match_the_node_by_node_sweep(monkeypatch, target, name, field,
                                                   T, quad_points):
    import numpy as np
    from casphere import trlog
    from casphere.kernel import NEUMANN
    spec = {"DD": DD, "DN": FieldSpec(plane_bc=NEUMANN),
            "ND": FieldSpec(sphere_bc=NEUMANN)}[field]
    geom, trunc = Geometry(1.0, 0.3), Truncation(quad_points=quad_points)
    seen = {"blocks": 0, "eigvals": 0}
    assemble, eigvals, trace = trlog.assemble_block, np.linalg.eigvals, trlog.trace_over_m
    stacks = []  # (start, verify mask, cut-offs) of each stack of nodes

    def run():
        if name == "force":
            return fe.force(geom, spec, T, trunc, target="thermal_part")
        if name == "E0":  # the imaginary axis
            return fe.vacuum_energy(geom, spec, trunc)
        return fe.thermal_part(geom, spec, T, trunc)

    def counting_assemble(*args, **kwargs):
        blk = assemble(*args, **kwargs)
        seen["blocks"] += len(blk[0])
        return blk

    def counting_eigvals(a):
        seen["eigvals"] += len(a) if a.ndim == 3 else 1
        return eigvals(a)

    def recording_trace(*args, **kwargs):
        val, diag = trace(*args, **kwargs)
        if len(val) > 1:
            stacks.append((kwargs["l_max_start"], kwargs["verify"],
                           diag["nodes"]["l_max_used"]))
        return val, diag

    monkeypatch.setattr(trlog, "assemble_block", counting_assemble)
    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    monkeypatch.setattr(trlog, "trace_over_m", recording_trace)
    stacked = run()
    monkeypatch.undo()
    monkeypatch.setattr(fe, "_SweepState", oracles.node_by_node_sweep_state(fe))
    alone = run()
    assert stacked.value == pytest.approx(alone.value, rel=1e-12)
    assert stacked.error_estimate == pytest.approx(alone.error_estimate, rel=1e-9)
    keys = ("l_max_used", "m_max_used", "nodes_assumed", "converged")
    assert {k: stacked.diagnostics[k] for k in keys} == \
        {k: alone.diagnostics[k] for k in keys}
    assert stacked.diagnostics["nodes_assumed"] > 0
    # the discarded nodes' work is counted too, so the work equals the
    # node-by-node sweep's only where no node was discarded
    assert (stacked.diagnostics["blocks"], stacked.diagnostics["eig_blocks"]) == \
        (seen["blocks"], seen["eigvals"])
    grew = any(np.any(verify & (l_used > start + 4)) for start, verify, l_used in stacks)
    if target == "FT DD colder":
        assert not grew
        assert stacked.diagnostics["nodes_discarded"] == 0
        work = ("blocks", "eig_blocks", "fallbacks")
        assert {k: stacked.diagnostics[k] for k in work} == \
            {k: alone.diagnostics[k] for k in work}
    else:
        assert grew


@pytest.mark.parametrize("obs", ["FT", "E0"])
def test_pinned_sweeps_match_the_node_by_node_sweep(monkeypatch, obs):
    # at a pinned cut-off there is no growth test, but the floor still
    # rises along the nodes of a stack and enters their m tests
    geom, trunc = Geometry(1.0, 0.3), Truncation(l_max=16)

    def run():
        if obs == "FT":
            return fe.thermal_part(geom, DD, 0.7, trunc)
        return fe.vacuum_energy(geom, DD, trunc)

    stacked = run()
    monkeypatch.setattr(fe, "_SweepState", oracles.node_by_node_sweep_state(fe))
    alone = run()
    assert stacked.value == pytest.approx(alone.value, rel=1e-12)
    assert stacked.error_estimate == pytest.approx(alone.error_estimate, rel=1e-9)
    assert stacked.diagnostics["m_max_used"] == alone.diagnostics["m_max_used"]
    assert stacked.diagnostics["l_max_used"] == 16


# (label, observable, field, R, d, T, what the chunks must show): at
# T = 0.5 the nodes of (1, 0.2) need larger cut-offs inside a chunk (at
# T = 1, under the floor in units of the sum, they no longer do), and at
# (1, 1) the sum stops at n = 2 inside the first chunk of two
CHUNK_POINTS = [
    ("F DD grows", "F", "DD", 1.0, 0.2, 0.5, "grows"),
    ("F DN long", "F", "DN", 1.0, 0.2, 0.1, "grows"),
    ("F EM stops", "F", "EM", 1.0, 1.0, 1.0, "stops"),
    ("force DD", "force", "DD", 1.0, 0.5, 1.0, None),
]


@pytest.mark.parametrize("label, obs, field, R, d, T, shows", CHUNK_POINTS,
                         ids=[p[0] for p in CHUNK_POINTS])
def test_chunked_matsubara_sum_matches_the_node_by_node_loop(
        monkeypatch, label, obs, field, R, d, T, shows):
    import numpy as np
    from casphere import trlog
    from casphere.kernel import NEUMANN
    spec = {"DD": DD, "DN": FieldSpec(plane_bc=NEUMANN), "EM": FieldSpec.em()}[field]
    geom = Geometry(R, d)
    chunks, seen = [], {"blocks": 0}
    trace, assemble = trlog.trace_over_m, trlog.assemble_block

    def recording_trace(evaluation, *args, **kwargs):
        val, diag = trace(evaluation, *args, **kwargs)
        if evaluation == trlog.IMAG_AXIS:
            chunks.append(diag["nodes"]["l_max_used"])
        return val, diag

    def counting_assemble(*args, **kwargs):
        blk = assemble(*args, **kwargs)
        seen["blocks"] += len(blk[0]) if blk[0].ndim == 3 else 1
        return blk

    monkeypatch.setattr(trlog, "trace_over_m", recording_trace)
    monkeypatch.setattr(trlog, "assemble_block", counting_assemble)
    if obs == "force":
        res = fe.force(geom, spec, T, target="total")
    else:
        res = fe.matsubara_free_energy(geom, spec, T)
    monkeypatch.undo()
    want = oracles.node_by_node_matsubara(geom, spec, T, derivative=obs == "force")
    sign = -1.0 if obs == "force" else 1.0
    assert res.value == pytest.approx(sign * want.value, rel=1e-12)
    assert res.error_estimate == pytest.approx(want.error_estimate, rel=1e-9)
    keys = ("l_max_used", "m_max_used", "n_max_used", "converged")
    assert {k: res.diagnostics[k] for k in keys} == {k: want.diagnostics[k] for k in keys}
    assert res.diagnostics["blocks"] == seen["blocks"]
    assert sum(len(c) for c in chunks) == (res.diagnostics["n_max_used"]
                                           + res.diagnostics["nodes_discarded"])
    assert max(len(c) for c in chunks) <= fe.MATSUBARA_CHUNK
    if shows == "grows":
        assert any(len(c) > 1 and c[-1] > c[0] for c in chunks)
    if shows == "stops":
        assert res.diagnostics["nodes_discarded"] > 0


def test_chunk_discards_the_nodes_after_a_falling_cutoff(monkeypatch):
    # a synthetic trace whose node n needs the cut-off NEED[n]: from a start
    # s it stops at the first s + 4j >= NEED[n], j >= 1.  Node 3 needs less
    # than node 2, so in a chunk from one hint it stops below node 2 and
    # must be evaluated again from node 2's cut-off
    import numpy as np
    from casphere import trlog
    NEED = {1: 28, 2: 36, 3: 20, 4: 44, 7: 52, 8: 40}
    T = 1.0

    def fake(evaluation, geom, spec, trunc=None, xi=None, l_max_start=None,
             derivative=False, **kwargs):
        n = np.rint(np.atleast_1d(0.0 if xi is None else xi) / (2.0 * math.pi * T))
        need = np.array([NEED.get(int(k), 12) for k in n])
        start = max(4, l_max_start or 0)
        l_used = start + 4 * np.maximum(1, -((start - need) // 4))
        nodes = {"l_max_used": l_used, "m_max_used": l_used // 4,
                 "converged": np.ones(len(n), dtype=bool), "change": 1e-7 * l_used}
        vals = (-np.exp(-0.5 * n) * (1.0 + 1e-3 * l_used)).astype(complex)
        diag = {k: v.max() for k, v in nodes.items()}
        diag.update(blocks=len(n), eig_blocks=0, fallbacks=0,
                    l_max_evaluated=diag["l_max_used"], m_max_evaluated=diag["m_max_used"])
        if np.ndim(xi):
            return vals, {**diag, "nodes": nodes}
        return complex(vals[0]), {k: v.item() if isinstance(v, np.generic) else v
                                  for k, v in diag.items()}

    monkeypatch.setattr(trlog, "trace_over_m", fake)
    res = fe.matsubara_free_energy(G12, DD, T)
    want = oracles.node_by_node_matsubara(G12, DD, T)
    assert res.value == want.value and res.error_estimate == want.error_estimate
    keys = ("l_max_used", "m_max_used", "n_max_used", "converged")
    assert {k: res.diagnostics[k] for k in keys} == {k: want.diagnostics[k] for k in keys}
    assert res.diagnostics["nodes_discarded"] > 0


def _fake_growth_trace(model, rooms=None):
    """A synthetic ``trlog.trace_over_m`` for an array of nodes: node x has
    the total ``a - b r^k / (1 - r)`` at the cut-off 4 + 4k, with (a, b)
    = ``model[x]`` and r = 0.1, so its growth step from 4 + 4k changes it
    by b r^k.  Verified nodes grow from the start under the growth test
    with their floor; the others are taken once, one step above the start.
    Node x's m tests keep their outcome under any floor up to
    ``rooms[x]`` (default inf); above it its m sum ends one block sooner,
    which takes 1e-6 off both of its totals."""
    import numpy as np

    def total(x, l):
        a, b = model[float(x)]
        return a - b * 0.1 ** ((l - 4) // 4) / 0.9

    def fake(evaluation, geom, spec, trunc=None, xi=None, part=None, l_max_start=None,
             scale_floor=0.0, derivative=False, verify=None):
        start = max(spec.l_min + 4, l_max_start or 0)
        nodes = {key: [] for key in ("l_max_used", "m_max_used", "converged", "change",
                                     "least_total")}
        vals, blocks = [], 0
        floors = np.broadcast_to(scale_floor, np.shape(xi))
        room = [(rooms or {}).get(float(x), np.inf) for x in xi]
        for x, tested, floor, x_room in zip(xi, verify, floors, room):
            l, least = start, np.inf
            short = 1e-6 if floor > x_room else 0.0
            while True:
                hi, lo = total(x, l + 4) - short, total(x, l) - short
                l += 4
                blocks += 1
                if not tested:
                    change, passed = 0.0, True
                    break
                change, least = abs(hi - lo), min(least, abs(hi))
                passed = change <= trunc.rel_tol * max(abs(hi), floor, 1e-300)
                if passed:
                    break
            vals.append(hi)
            for key, v in zip(nodes, (l, l // 4, passed, change, least)):
                nodes[key].append(v)
        nodes = {key: np.array(v) for key, v in nodes.items()}
        nodes["m_floor_room"] = np.array(room)
        return (np.array(vals, dtype=complex),
                {"l_max_used": int(nodes["l_max_used"].max()), "m_max_used": 0,
                 "converged": True, "blocks": blocks, "eig_blocks": 0, "fallbacks": 0,
                 "l_max_evaluated": int(nodes["l_max_used"].max()),
                 "m_max_evaluated": int(nodes["m_max_used"].max()), "nodes": nodes})
    return fake


@pytest.mark.parametrize("a, b, discarded", [(0.1, 5e-4, 0), (1e-3, 5e-5, 1)],
                         ids=["floor below its totals", "floor above its totals"])
def test_a_floor_that_rises_inside_a_stack(monkeypatch, a, b, discarded):
    # the first node, alone, leaves a small scale; in the stack after it the
    # five assumed nodes raise the scale a thousandfold, and the sixth node,
    # verified, grows past the start + 4 under the stack's low floor.  Where
    # the raised floor is below every total of its growth tests, every test
    # has the same outcome under it and the node is kept; where it is above,
    # the node would stop sooner alone, and is evaluated again
    diag = _rising_floor_stack(monkeypatch, {6.0: (a, b)})
    assert diag["l_max_used"] == 12  # the sixth node grew to the start + 8
    assert diag["nodes_discarded"] == discarded


def test_a_floor_that_rises_past_an_m_test(monkeypatch):
    # the same stack, where the second assumed node, alone, ends its m sum
    # one block sooner under the raised floor: it and the nodes after it
    # are evaluated again
    diag = _rising_floor_stack(monkeypatch, {6.0: (0.1, 5e-4)}, rooms={2.0: 1e-4})
    assert diag["nodes_discarded"] == 5


def _rising_floor_stack(monkeypatch, model, rooms=None):
    """The first node alone leaves the scale 1e-3; in the stack of six after
    it the five assumed nodes raise it to 10, and the sixth, verified,
    follows ``model`` (with ``rooms``, see :func:`_fake_growth_trace`).
    Requires the stacked nodes to match the node-by-node sweep and returns
    the stacked diagnostics."""
    import numpy as np
    from casphere import trlog
    model = {0.5: (1e-3, 1e-9), 1.0: (10.0, 0.0), 2.0: (10.0, 0.0), 3.0: (10.0, 0.0),
             4.0: (10.0, 0.0), 5.0: (10.0, 0.0), **model}
    monkeypatch.setattr(trlog, "trace_over_m", _fake_growth_trace(model, rooms))
    runs = []
    for cls in (fe._SweepState, oracles.node_by_node_sweep_state(fe)):
        state = cls(G12, DD, Truncation(), trlog.IMAG_AXIS)
        state.evaluate(np.array([0.5]))
        vals, errs = state.evaluate(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
        runs.append((vals, errs, state.diagnostics()))
    (vals, errs, diag), (want_vals, want_errs, want) = runs
    assert np.array_equal(vals, want_vals) and np.array_equal(errs, want_errs)
    keys = ("l_max_used", "m_max_used", "nodes_assumed", "converged")
    assert {k: diag[k] for k in keys} == {k: want[k] for k in keys}
    assert diag["nodes_assumed"] == 5
    return diag


def test_matsubara_nodes_past_the_stop_do_not_raise(monkeypatch):
    # a synthetic trace whose terms fall off a cliff at n = 6, so the sum
    # stops inside the chunk n = 4..7 that the decay of the terms before it
    # asked for; a stack holding n = 7 meets a vanishing pivot, which must
    # not reach the caller, since the sum stops before n = 7
    import numpy as np
    from casphere import trlog
    T = 1.0

    def fake(evaluation, geom, spec, trunc=None, xi=None, l_max_start=None,
             derivative=False, **kwargs):
        n = np.rint(np.atleast_1d(0.0 if xi is None else xi) / (2.0 * math.pi * T))
        if 7 in n:
            raise trlog.SingularBlockError("vanishing pivot in 1 - M")
        l_used = np.full(len(n), max(4, l_max_start or 0) + 4)
        nodes = {"l_max_used": l_used, "m_max_used": l_used // 4,
                 "converged": np.ones(len(n), dtype=bool), "change": 1e-7 * l_used}
        vals = np.where(n < 6, -np.exp(-0.5 * n), -1e-9).astype(complex)
        diag = {k: v.max() for k, v in nodes.items()}
        diag.update(blocks=len(n), eig_blocks=0, fallbacks=0,
                    l_max_evaluated=diag["l_max_used"], m_max_evaluated=diag["m_max_used"])
        if np.ndim(xi):
            return vals, {**diag, "nodes": nodes}
        return complex(vals[0]), {k: v.item() if isinstance(v, np.generic) else v
                                  for k, v in diag.items()}

    monkeypatch.setattr(trlog, "trace_over_m", fake)
    res = fe.matsubara_free_energy(G12, DD, T)
    want = oracles.node_by_node_matsubara(G12, DD, T)
    assert res.value == want.value and res.error_estimate == want.error_estimate
    assert res.diagnostics["n_max_used"] == want.diagnostics["n_max_used"] == 6


def test_matsubara_error_estimate_covers_the_omitted_tail():
    # at T = 0.05 the terms fall by only exp(-4 pi T d) = 0.88 per node, so
    # the terms past the stop add up to 7.5 times the last one; with the
    # cut-off pinned the estimate is the tail and the stop tolerance alone
    # (counting only the last term, it was 0.28 of the omitted terms)
    import numpy as np
    from casphere import trlog
    geom, T, trunc = Geometry(1.0, 0.2), 0.05, Truncation(l_max=40)
    res = fe.matsubara_free_energy(geom, DD, T, trunc)
    n = res.diagnostics["n_max_used"]
    terms, _ = trlog.trace_over_m(trlog.IMAG_AXIS, geom, DD, trunc,
                                  xi=2.0 * math.pi * T * np.arange(n + 1, n + 81))
    tail = abs(T * np.sum(terms.real))
    assert abs(T * terms[-1].real) < 1e-4 * tail  # the omitted terms, summed out
    assert res.error_estimate >= tail


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


SCALAR_FIELDS = {"DD": DD, "DN": FieldSpec(plane_bc=NEUMANN),
                 "ND": FieldSpec(sphere_bc=NEUMANN),
                 "NN": FieldSpec(sphere_bc=NEUMANN, plane_bc=NEUMANN)}


@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(R=st.floats(0.3, 2.0), eps=st.floats(0.2, 1.0), T=st.floats(0.3, 2.0),
       field=st.sampled_from(sorted(SCALAR_FIELDS)))
def test_free_energy_is_vacuum_energy_plus_thermal_part(R, eps, T, field):
    # the Matsubara sum against the two frequency sweeps, within the sum of
    # their three error estimates
    spec, geom = SCALAR_FIELDS[field], Geometry(R, eps * R)
    f = fe.matsubara_free_energy(geom, spec, T)
    e0 = fe.vacuum_energy(geom, spec)
    ft = fe.thermal_part(geom, spec, T)
    assert f.converged and e0.converged and ft.converged
    assert abs(f.value - e0.value - ft.value) <= \
        f.error_estimate + e0.error_estimate + ft.error_estimate


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


# (observable, field, R, d, T) of the error-bar audit of the default
# cut-offs, panels and Matsubara tail ("F" the Matsubara free energy,
# "total" its force); each default error estimate bounds the distance to
# the rel_tol 1e-6 value
AUDIT_POINTS = [
    ("FT", "DD", 1.5, 0.45, 1.0),
    ("FT", "DD", 0.5, 0.005, 1.0),
    ("FT", "DD", 1.0, 0.1, 0.3),
    ("FT", "DD", 1.0, 1.0, 3.0),
    ("force", "DD", 0.5, 0.005, 1.0),
    ("force", "DD", 0.5, 0.05, 1.0),
    ("E0", "DD", 1.0, 0.5, None),
    ("E0", "EM", 1.0, 0.5, None),
    ("FT", "DN", 1.0, 0.2, 1.0),
    ("FT", "ND", 1.0, 0.5, 1.0),
    ("FT", "DD", 1.0, 0.5, 0.1),
    ("force", "DD", 1.0, 0.1, 0.3),
    ("F", "DD", 1.0, 0.2, 1.0),
    ("F", "DD", 1.0, 0.2, 0.1),
    ("F", "DN", 1.0, 0.2, 1.0),
    ("F", "EM", 1.0, 0.5, 1.0),
    ("total", "DD", 1.0, 0.5, 1.0),
]


@pytest.mark.slow
@pytest.mark.parametrize("obs, field, R, d, T", AUDIT_POINTS,
                         ids=[f"{p[0]} {p[1]} {p[2]:g}-{p[3]:g}-{p[4]}" for p in AUDIT_POINTS])
def test_error_bar_audit(obs, field, R, d, T):
    geom = Geometry(R, d)
    spec = FieldSpec.em() if field == "EM" else SCALAR_FIELDS[field]

    def run(trunc=None):
        if obs == "force":
            return fe.force(geom, spec, T, trunc, target="thermal_part")
        if obs == "total":
            return fe.force(geom, spec, T, trunc, target="total")
        if obs == "E0":
            return fe.vacuum_energy(geom, spec, trunc)
        if obs == "F":
            return fe.matsubara_free_energy(geom, spec, T, trunc)
        return fe.thermal_part(geom, spec, T, trunc)

    res, ref = run(), run(Truncation(rel_tol=1e-6))
    assert res.converged and ref.converged
    assert res.error_estimate >= abs(res.value - ref.value)


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
