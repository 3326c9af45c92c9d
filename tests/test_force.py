"""The analytic force: dM/dd blocks against central differences of their
kernel builders, the trace-formula force against the finite-difference
oracle, its error estimate, its cut-off, and the resonance guard."""

import math

import numpy as np
import pytest

import oracles

from casphere import freeenergy as fe, kernel, trlog
from casphere.kernel import Geometry, FieldSpec, NEUMANN
from casphere.trlog import SingularBlockError, Truncation

DD = FieldSpec()
DN = FieldSpec(plane_bc=NEUMANN)
ND = FieldSpec(sphere_bc=NEUMANN)
R, D = 1.0, 0.3

BUILDERS = {
    "rotated D": lambda g, **kw: kernel.rotated_matrix(1, 0.9, g, DD, 12, **kw),
    "rotated N": lambda g, **kw: kernel.rotated_matrix(0, 2.5, g, ND, 12, **kw),
    "imag D": lambda g, **kw: kernel.scalar_matrix(2, 0.7, g, DD, 12, **kw),
    "imag D small xi": lambda g, **kw: kernel.scalar_matrix(1, 1e-3, g, DD, 12, **kw),
    "imag N": lambda g, **kw: kernel.scalar_matrix(0, 0.7, g, ND, 12, **kw),
    "static D": lambda g, **kw: kernel.static_matrix(1, g, "dirichlet", 12, **kw),
    "static N": lambda g, **kw: kernel.static_matrix(0, g, "neumann", 12, **kw),
    "static TE": lambda g, **kw: kernel.static_matrix(2, g, "te", 12, **kw),
    "static TM": lambda g, **kw: kernel.static_matrix(1, g, "tm", 12, **kw),
    "EM m=0": lambda g, **kw: kernel.em_matrix(0, 0.8, g, 12, **kw),
    "EM m=2": lambda g, **kw: kernel.em_matrix(2, 0.8, g, 12, **kw),
}


@pytest.mark.parametrize("name", list(BUILDERS))
def test_derivative_block_matches_central_difference(name):
    build = BUILDERS[name]
    h = 1e-4

    def at(d):
        return build(Geometry(R, d))

    wide = (at(D + h) - at(D - h)) / (2.0 * h)
    narrow = (at(D + 0.5 * h) - at(D - 0.5 * h)) / h
    fd = (4.0 * narrow - wide) / 3.0
    dM = build(Geometry(R, D), derivative=True)
    assert dM.shape == at(D).shape
    assert np.max(np.abs(dM - fd)) <= 1e-7 * np.max(np.abs(dM))


def test_assembled_block_carries_its_derivative():
    g = Geometry(R, D)
    nodes = kernel.ImagNodes([0.7], g, DD, 10, derivative=True)
    M, dM = trlog.assemble_block(1, trlog.IMAG_AXIS, g, DD, 10, xi=nodes, derivative=True)
    # the derivative rows ride in the same product, which may round M
    # differently in the last place
    assert np.allclose(M[0], kernel.scalar_matrix(1, 0.7, g, DD, 10), rtol=1e-14, atol=0)
    assert np.array_equal(dM[0], kernel.scalar_matrix(1, 0.7, g, DD, 10, derivative=True))
    nodes = kernel.ImagNodes([0.7], g, DD, 10)
    assert trlog.assemble_block(1, trlog.IMAG_AXIS, g, DD, 10, xi=nodes)[1] is None
    M, dM = trlog.assemble_block(1, trlog.STATIC, g, DD, 10, derivative=True)
    assert np.array_equal(dM[0], kernel.static_matrix(1, g, DD, 10, derivative=True))


@pytest.mark.parametrize("sign", [1, -1])
def test_trace_derivative_is_the_log_det_derivative(sign):
    rng = np.random.default_rng(3)
    M = 0.1 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    dM = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    t = 1e-6

    def logdet(s):
        return oracles.log_det_lu((M + s * dM)[None], sign)[0]

    fd = (logdet(t) - logdet(-t)) / (2.0 * t)
    got = trlog._trace_derivatives(M[None], dM[None], sign)[0]
    assert got == pytest.approx(fd, rel=1e-8)


def test_trace_derivative_raises_on_a_vanishing_pivot():
    singular = np.diag([1.0 - 1e-14, 0.5])
    with pytest.raises(SingularBlockError):
        trlog._trace_derivatives(singular[None], np.eye(2)[None], 1)
    # in a stack, one singular block among regular ones
    M = np.stack([np.diag([0.5, 0.5]), singular, np.diag([0.2, 0.1])])
    with pytest.raises(SingularBlockError):
        trlog._trace_derivatives(M, np.ones((3, 2, 2)), 1)


@pytest.mark.parametrize("sign", [1, -1])
def test_trace_derivative_raises_on_a_complex_vanishing_pivot(sign):
    # a rotated (complex) block whose 1 - s M has a pivot of 1e-14 + 1e-14 i
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    lam = np.array([1.0 - 1e-14 - 1e-14j, 0.3 + 0.2j, -0.4j])
    M = sign * (Q @ np.diag(lam) @ np.linalg.inv(Q))
    dM = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    with pytest.raises(SingularBlockError):
        trlog._trace_derivatives(M[None], dM[None], sign)
    # the same block one part in 1e3 off the resonance is solved
    fine = M * (1.0 - 1e-3)
    got = trlog._trace_derivatives(fine[None], dM[None], sign)[0]
    want = -sign * np.trace(np.linalg.solve(np.eye(3) - sign * fine, dM))
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("dtype", [float, complex])
def test_trace_derivative_raises_on_an_exactly_singular_block(dtype):
    # 1 - M has an exactly zero pivot: the solve is refused (LAPACK's
    # info > 0) and leaves no solution, and the pivot test still raises
    M = np.diag([1.0, 0.5]).astype(dtype)
    with pytest.raises(SingularBlockError):
        trlog._trace_derivatives(M[None], np.ones((1, 2, 2), dtype=dtype), 1)
    stack = np.stack([np.diag([0.5, 0.25]), M, np.diag([0.2, 0.1])]).astype(dtype)
    with pytest.raises(SingularBlockError):
        trlog._trace_derivatives(stack, np.ones((3, 2, 2), dtype=dtype), 1)


# (target, field, R, d, rel_tol of both sides).  The Matsubara energies are
# cheap, and at the default rel_tol their difference quotient is dominated
# by cut-off noise over the step (2e-4 of the value), so both sides of the
# total-force points run at rel_tol 1e-6.
FD_POINTS = [
    ("thermal_part", DD, 0.5, 0.005, 1e-3),
    ("thermal_part", DD, 0.5, 0.05, 1e-3),
    ("thermal_part", DD, 1.0, 0.01, 1e-3),
    ("total", DD, 1.0, 0.5, 1e-6),
    ("total", DN, 1.0, 0.5, 1e-6),
    ("total", FieldSpec.em(), 1.0, 0.5, 1e-6),
]


@pytest.mark.slow
@pytest.mark.parametrize("target, spec, R_, d, rel_tol", FD_POINTS,
                         ids=["FT 0.5/0.005", "FT 0.5/0.05", "FT 1/0.01",
                              "total DD", "total DN", "total EM"])
def test_force_matches_finite_differences(target, spec, R_, d, rel_tol):
    geom = Geometry(R_, d)
    trunc = Truncation(rel_tol=rel_tol)
    energy = fe.thermal_part if target == "thermal_part" else fe.matsubara_free_energy
    ref, ref_err = oracles.fd_force(energy, geom, spec, 1.0, trunc)
    res = fe.force(geom, spec, 1.0, trunc, target=target)
    assert res.converged
    assert abs(res.value - ref) <= res.error_estimate + ref_err
    # tighter than the oracle's own estimate, which the step dominates
    # (measured: at most 2.4e-6 of the value)
    assert res.value == pytest.approx(ref, rel=1e-5)


@pytest.mark.slow
@pytest.mark.parametrize("target, R_, d", [("thermal_part", 0.5, 0.005),
                                           ("thermal_part", 0.5, 0.05),
                                           ("total", 1.0, 0.5)])
def test_force_error_estimate_tracks_rel_tol(target, R_, d):
    # the estimate must cover the cut-offs as well as the quadrature: with
    # the quadrature term alone it is 2.2x short at (0.5, 0.05), and the
    # Matsubara tail alone 1.2x short at (1, 0.5)
    geom = Geometry(R_, d)
    res = {tol: fe.force(geom, DD, 1.0, Truncation(rel_tol=tol), target=target)
           for tol in (1e-3, 1e-5, 1e-6)}
    assert res[1e-5].error_estimate <= 0.1 * res[1e-3].error_estimate
    for tol in (1e-3, 1e-5):
        assert abs(res[tol].value - res[1e-6].value) <= res[tol].error_estimate


def test_force_cutoff_is_not_set_by_the_xi_to_zero_endpoint():
    # verified first at xi -> 0, where the integrand is rounding noise, the
    # growth test took l_max to 36 and the hint kept every later node there
    res = fe.force(Geometry(0.5, 0.005), DD, 1.0, target="thermal_part")
    assert res.converged
    assert res.diagnostics["l_max_used"] <= 24


def test_force_makes_one_sweep(monkeypatch):
    calls = []
    for name in ("thermal_part", "matsubara_free_energy", "vacuum_energy"):
        monkeypatch.setattr(fe, name, lambda *a, name=name, **k: calls.append(name))
    sweep, trace = fe._panel_sweep, trlog.trace_over_m

    def counting_sweep(*args, **kwargs):
        calls.append("sweep")
        return sweep(*args, **kwargs)

    def counting_trace(evaluation, *args, **kwargs):
        calls.append(evaluation)
        if evaluation == trlog.IMAG_AXIS:
            calls.extend(["imag node"] * np.size(kwargs["xi"]))
        return trace(evaluation, *args, **kwargs)

    monkeypatch.setattr(fe, "_panel_sweep", counting_sweep)
    monkeypatch.setattr(trlog, "trace_over_m", counting_trace)
    # the force never takes a log-determinant of a rotated block
    monkeypatch.setattr(trlog, "trace_log_eig",
                        lambda *a, **k: calls.append("trace_log_eig"))
    fe.force(Geometry(1.0, 1.0), DD, 1.0, target="thermal_part")
    assert calls.count("sweep") == 1 and set(calls) == {"sweep", trlog.ROTATED}
    calls.clear()
    res = fe.force(Geometry(1.0, 1.0), DD, 1.0, target="total")
    assert calls[0] == trlog.STATIC and calls.count(trlog.STATIC) == 1
    # the Matsubara nodes run in chunks, one call each
    assert calls.count("imag node") == (res.diagnostics["n_max_used"]
                                        + res.diagnostics["nodes_discarded"])
    assert set(calls) == {trlog.STATIC, trlog.IMAG_AXIS, "imag node"}


def test_force_assembles_each_prefactor_once(monkeypatch):
    # M and dM of every block come from one node assembly per stack and
    # l_max, never from the single-block builder
    built, per_call = [], []
    Nodes, trace, assemble = kernel.RotatedNodes, trlog.trace_over_m, trlog.assemble_block

    class CountingNodes(Nodes):
        def __init__(self, xi, geom, spec, l_max, derivative=False):
            built.append((tuple(xi), l_max, derivative))
            super().__init__(xi, geom, spec, l_max, derivative)

    def counting_trace(*args, **kwargs):
        per_call.append(set())
        return trace(*args, **kwargs)

    def counting_assemble(m, evaluation, geom, spec, l_max, **kwargs):
        per_call[-1].add(l_max)
        return assemble(m, evaluation, geom, spec, l_max, **kwargs)

    def single_block(*args, **kwargs):
        raise AssertionError("the sweep built a block by itself")

    monkeypatch.setitem(trlog._NODE_STACKS, trlog.ROTATED, CountingNodes)
    monkeypatch.setattr(kernel, "rotated_matrix", single_block)
    monkeypatch.setattr(trlog, "trace_over_m", counting_trace)
    monkeypatch.setattr(trlog, "assemble_block", counting_assemble)
    res = fe.force(Geometry(0.5, 0.05), DD, 1.0, target="thermal_part")
    assert res.converged
    assert len(built) == sum(len(l_maxes) for l_maxes in per_call)
    assert all(derivative for _, _, derivative in built)
    # the largest stack is a whole quadrature panel
    assert max(len(xi) for xi, _, _ in built) == fe._PANEL_POINTS


def test_singular_node_splits_the_panel(monkeypatch):
    # a vanishing pivot at one interior node of the first panel: the
    # panel is tried whole once, by the first pass, and the adaptive pass
    # starts from its halves, which moves every node off the resonance
    geom, T = Geometry(1.0, 1.0), 1.0
    ref = fe.force(geom, DD, T, target="thermal_part")
    nodes = fe._PANEL_NODES
    width = min(math.pi / (2.0 * geom.L * T), 3.0)
    resonance = 0.5 * width + 0.5 * width * nodes[3]
    hits = []
    trace = trlog.trace_over_m

    # the node sits in a run of nodes evaluated as one stack; a run that
    # raises is evaluated again node by node, so a panel attempt ends at
    # the node itself, evaluated alone
    def singular_at_resonance(*args, **kwargs):
        xi = np.atleast_1d(kwargs.get("xi"))
        if np.any(xi == resonance * T):
            if len(xi) == 1:
                hits.append(resonance)
            raise SingularBlockError("vanishing pivot in 1 - M")
        return trace(*args, **kwargs)

    monkeypatch.setattr(trlog, "trace_over_m", singular_at_resonance)
    res = fe.force(geom, DD, T, target="thermal_part")
    assert len(hits) == 1
    assert res.converged
    assert res.value == pytest.approx(ref.value, abs=ref.error_estimate + res.error_estimate)


def test_singular_run_leaves_the_node_by_node_state(monkeypatch):
    # the same resonance as above, met by a stack of nodes and by the
    # sweep that evaluates one node per call: after the re-run node by
    # node, the hint and every count go on as if the nodes had been
    # evaluated alone
    geom, T = Geometry(1.0, 1.0), 1.0
    nodes = fe._PANEL_NODES
    width = min(math.pi / (2.0 * geom.L * T), 3.0)
    resonance = 0.5 * width + 0.5 * width * nodes[3]
    trace, assemble = trlog.trace_over_m, trlog.assemble_block
    seen = {"blocks": 0}
    # the resonance raises before any block of its stack is assembled

    def singular_at_resonance(*args, **kwargs):
        if np.any(np.atleast_1d(kwargs.get("xi")) == resonance * T):
            raise SingularBlockError("vanishing pivot in 1 - M")
        return trace(*args, **kwargs)

    def counting_assemble(*args, **kwargs):
        blk = assemble(*args, **kwargs)
        seen["blocks"] += len(blk[0])
        return blk

    monkeypatch.setattr(trlog, "trace_over_m", singular_at_resonance)
    monkeypatch.setattr(trlog, "assemble_block", counting_assemble)
    stacked = fe.force(geom, DD, T, target="thermal_part")
    monkeypatch.setattr(trlog, "assemble_block", assemble)
    monkeypatch.setattr(fe, "_SweepState", oracles.node_by_node_sweep_state(fe))
    alone = fe.force(geom, DD, T, target="thermal_part")
    assert stacked.value == pytest.approx(alone.value, rel=1e-12)
    # the work counts include the nodes a panel stack discards, and a
    # panel discards all its nodes after a node that moves the hint, so
    # only they differ, and so may the largest cut-offs evaluated
    work = ("blocks", "eig_blocks", "nodes_discarded", "l_max_evaluated", "m_max_evaluated")
    assert {k: v for k, v in stacked.diagnostics.items() if k not in work} == \
        {k: v for k, v in alone.diagnostics.items() if k not in work}
    assert stacked.diagnostics["blocks"] == seen["blocks"]
    assert stacked.diagnostics["nodes_discarded"] >= alone.diagnostics["nodes_discarded"]


def test_persistent_singularity_propagates():
    calls = []

    def always_singular(xi):
        calls.append(xi)
        raise SingularBlockError("vanishing pivot in 1 - M")

    with pytest.raises(SingularBlockError):
        fe._adaptive_panels(always_singular, 0.0, 1.0, 1e-6)
    assert len(calls) <= fe._SINGULAR_SPLITS + 1  # one node per try


def test_force_needs_a_gap():
    with pytest.raises(ValueError):
        fe.force(Geometry(1.0, 0.0), DD, 1.0, target="thermal_part")
