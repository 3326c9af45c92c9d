"""Block assembly and Tr ln(1 - M) evaluator tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casphere import trlog
from casphere.kernel import Geometry, FieldSpec
from casphere.trlog import (Truncation, assemble_block, log_det_one_minus,
                            trace_log_eig, trace_over_m, SingularBlockError)

import oracles

DD = FieldSpec()


def _log_det(M, plane_sign=1):
    """log_det_one_minus of the single block M, as a stack of one."""
    return log_det_one_minus(M[None], plane_sign)[0]


def _eig(M, plane_sign=1):
    """trace_log_eig of the single block M, as a stack of one: its value,
    whether its spectral radius is below one and whether it took the
    eigenvalues (1 or 0)."""
    vals, ok, eig = trace_log_eig(M[None], plane_sign)
    return vals[0], ok[0], eig


def test_logdet_trivial_cases():
    assert _log_det(np.zeros((3, 3))) == 0.0
    one = np.array([[0.25]])
    assert _log_det(one).real == pytest.approx(math.log(0.75), rel=1e-14)
    assert _log_det(one, plane_sign=-1).real == pytest.approx(
        math.log(1.25), rel=1e-14)


def test_logdet_singular():
    with pytest.raises(SingularBlockError):
        _log_det(np.array([[1.0]]))


def test_series_geometric():
    val, last = oracles.trace_log_series(np.array([[0.25]]), s_max=60)
    assert val.real == pytest.approx(math.log(0.75), abs=1e-12)
    assert last < 1e-12


def test_series_divergence():
    with pytest.raises(oracles.SeriesDivergenceError):
        oracles.trace_log_series(np.array([[1.5]]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_series_matches_determinant_random(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    M *= 0.55 / max(abs(np.linalg.eigvals(M)))
    want = oracles.log_det_lu(M[None])[0]
    got, _ = oracles.trace_log_series(M, s_max=400)
    assert got == pytest.approx(want, abs=1e-10)
    eigv, ok, _ = _eig(M)
    assert ok and eigv == pytest.approx(want, abs=1e-12)


def _off_branch_block(form):
    """A block with one eigenvalue lambda of multiplicity n, and lambda."""
    if form == "many small":
        # 256 times 0.3 e^{i pi/6}: the sum of the Arg is -51.2, and Tr M^3/3
        # alone moves the four-term estimate by 2.4 rad
        lam = 0.3 * np.exp(1j * math.pi / 6)
        return np.diag(np.full(256, lam)), lam
    # 8 times 0.6 e^{-2i}: sum_i Arg(1 - lambda_i) = 3.29 > pi, so the
    # principal phase of det(1 - M) is 2 pi below the sum of the logarithms
    lam = 0.6 * np.exp(-2j)
    if form == "diagonal":
        return np.diag(np.full(8, lam)), lam
    # a Jordan chain under a dense similarity: the same spectrum, non-normal
    chain = lam * np.eye(8) + 0.05 * np.eye(8, k=1)
    S = (np.eye(8) + 0.2 * np.triu(np.ones((8, 8)), 1)
         + 0.1 * np.tril(np.ones((8, 8)), -1))
    return S @ chain @ np.linalg.inv(S), lam


@pytest.mark.parametrize("form", ["diagonal", "similar", "many small"])
def test_certified_branch_off_the_principal_phase(form):
    M, lam = _off_branch_block(form)
    n = M.shape[0]
    want = n * np.log(1.0 - lam)
    sign, _ = np.linalg.slogdet(np.eye(n) - M)
    assert abs(np.angle(sign) - want.imag) > math.pi
    got, ok, eig = _eig(M)
    assert ok and not eig  # certified: no eigenvalues
    assert got == pytest.approx(want, abs=1e-12)
    # the Neumann plane: the same block with the opposite sign
    got, ok, eig = _eig(-M, plane_sign=-1)
    assert ok and not eig
    assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       rho=st.floats(0.01, 0.99), skew=st.floats(0.0, 0.5),
       plane_sign=st.sampled_from([1, -1]))
def test_trace_log_eig_equals_eigenvalue_sum(seed, n, rho, skew, plane_sign):
    # eigenvalues in the disk of radius rho, one on its edge, under a
    # random similarity of strength skew: certified and refused blocks
    rng = np.random.default_rng(seed)
    radii = rho * np.sqrt(rng.uniform(size=n))
    radii[0] = rho
    lam = radii * np.exp(2j * math.pi * rng.uniform(size=n))
    S = np.eye(n) + skew * (rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
    M = S @ np.diag(lam) @ np.linalg.inv(S)
    got, ok, _ = _eig(M, plane_sign)
    assert ok
    assert got == pytest.approx(oracles.trace_log_eigenvalues(M, plane_sign),
                                abs=1e-12)


def test_refused_block_takes_the_eigenvalue_path():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    M *= 0.9 / max(abs(np.linalg.eigvals(M)))
    for sign in (1, -1):
        got, ok, eig = _eig(M, sign)
        assert eig
        lam = np.linalg.eigvals(M) * sign
        assert ok and got == complex(np.sum(np.log(1.0 - lam.astype(complex))))
    # 12 times 0.97 e^{0.3i}: the four-term estimate is 3.9 rad off the sum,
    # so the phase nearest to it would be 2 pi wrong
    lam = 0.97 * np.exp(0.3j)
    got, ok, eig = _eig(np.diag(np.full(12, lam)))
    assert ok and eig
    assert got == pytest.approx(12 * np.log(1.0 - lam), abs=1e-12)
    # spectral radius above one: not converged (trace_over_m then raises,
    # see test_rotated_block_past_unit_radius_raises)
    big = np.diag([1.5 + 0.1j, 0.2])
    _, ok, eig = _eig(big)
    assert not ok and eig


@pytest.mark.parametrize("plane_sign", [1, -1])
def test_three_stage_certificate_matches_the_eighth_power_alone(plane_sign):
    # rotated blocks at l_max 24 over the thermal range of xi: the ||A^2||
    # stage certifies most, the ||A^4|| stage some of the rest and the
    # ||A^8|| stage some of the rest again, all in one stack per m.  At
    # (1.5, 0.45) that leaves no block to the eigenvalues; at (1.5, 0.2)
    # the eigenvalues take the others
    stages = {"A2": 0, "A4": 0, "A8": 0, "eig": 0}
    refused = []
    for geom in (Geometry(1.5, 0.45), Geometry(1.5, 0.2)):
        nodes = trlog.kernel.RotatedNodes(np.linspace(0.05, 27.0, 60), geom, DD, 24)
        for m in range(12):
            stack = assemble_block(m, trlog.ROTATED, geom, DD, 24, xi=nodes)[0]
            vals, ok, eig = trace_log_eig(stack, plane_sign)
            want, certified = oracles.trace_log_eig_one_stage(stack, plane_sign)
            assert np.array_equal(vals, want)
            assert ok.all()
            assert eig == np.count_nonzero(~certified)
            refused.extend(stack[~certified])
            for M, c in zip(stack, certified):
                A2 = M @ M
                q2 = np.sum(np.abs(A2) ** 2)
                rho4 = np.sum(np.abs(A2 @ A2) ** 2) ** 0.125
                if q2 ** 0.25 < 1.0 and q2 ** 1.25 < 5.0 * (1.0 - q2 ** 0.25):
                    stages["A2"] += 1
                    assert c
                elif rho4 < 1.0 and rho4 * q2 < 5.0 * (1.0 - rho4):
                    stages["A4"] += 1
                    assert c
                else:
                    stages["A8" if c else "eig"] += 1
        if geom.d == 0.45:  # the A^8 stage leaves no block to the eigenvalues
            assert stages["eig"] == 0 < stages["A8"]
    assert min(stages.values()) > 0
    # the refused blocks' eigenvalues come from one stacked call
    assert np.array_equal(np.linalg.eigvals(np.stack(refused)),
                          [np.linalg.eigvals(M) for M in refused])


def test_plane_sign_equals_negated_matrix():
    rng = np.random.default_rng(7)
    M = 0.3 * rng.standard_normal((4, 4))
    a = _log_det(M, plane_sign=-1)
    b = _log_det(-M, plane_sign=1)
    assert a == pytest.approx(b, rel=1e-13)


def test_assemble_block_shapes():
    geom = Geometry(1.0, 1.0)
    M, dM = assemble_block(0, trlog.STATIC, geom, DD, 0)
    assert M.shape == (1, 1, 1) and dM is None  # a stack of one
    assert M[0, 0, 0] == pytest.approx(0.25, rel=1e-13)
    assert assemble_block(1, trlog.STATIC, geom, DD, 0)[0].shape == (1, 0, 0)
    nodes = trlog.kernel.ImagNodes([1.0], geom, DD, 2)
    empty, _ = assemble_block(3, trlog.IMAG_AXIS, geom, DD, 2, xi=nodes)
    assert empty.shape == (1, 0, 0)
    assert np.array_equal(log_det_one_minus(empty), [0.0])
    assert np.array_equal(trace_log_eig(empty.astype(complex))[0], [0.0])
    em_nodes = trlog.kernel.ImagNodes([0.5], geom, FieldSpec.em(), 3)
    em, _ = assemble_block(1, trlog.IMAG_AXIS, geom, FieldSpec.em(), 3, xi=em_nodes)
    assert em.shape == (1, 6, 6)  # l = 1..3 in each polarization


def test_block_validation():
    # a non-finite entry in M or in dM/dd fails loudly
    geom = Geometry(1.0, 1.0)
    for poisoned in ("P", "V"):
        nodes = trlog.kernel.ImagNodes([1.0], geom, DD, 2, derivative=True)
        if poisoned == "P":  # both M and dM
            nodes.P[0, 0, 0, 0] = np.nan
        else:  # the rows of dM only
            nodes.V[..., 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            assemble_block(0, trlog.IMAG_AXIS, geom, DD, 2, xi=nodes, derivative=True)
    # a node stack must match the block's l_max and derivative
    nodes = trlog.kernel.ImagNodes([1.0], geom, DD, 2)
    for l_max, derivative in ((3, False), (2, True)):
        with pytest.raises(ValueError, match="node stack"):
            assemble_block(0, trlog.IMAG_AXIS, geom, DD, l_max, xi=nodes,
                           derivative=derivative)
    with pytest.raises(ValueError, match="unknown evaluation"):
        assemble_block(0, "bogus", geom, DD, 2, xi=nodes)


def test_monotone_truncation():
    geom = Geometry(1.0, 0.3)
    xi = 1.0
    vals = []
    for l_max in (8, 12, 16, 20):
        v, _ = trace_over_m(trlog.IMAG_AXIS, geom, DD, Truncation(l_max=l_max), xi=[xi])
        vals.append(v[0].real)
    d = np.abs(np.diff(vals))
    assert np.all(np.diff(d) < 0)


def test_trace_over_m_auto_growth():
    geom = Geometry(1.0, 0.5)
    v, diag = trace_over_m(trlog.IMAG_AXIS, geom, DD, Truncation(rel_tol=1e-4), xi=[0.8])
    assert diag["converged"]
    vfix, _ = trace_over_m(trlog.IMAG_AXIS, geom, DD,
                           Truncation(l_max=diag["l_max_used"] + 8), xi=[0.8])
    assert v[0].real == pytest.approx(vfix[0].real, rel=1e-3)


@pytest.mark.parametrize("spec, start, last", [(DD, 192, 200), (FieldSpec.em(), 189, 197)],
                         ids=["DD", "EM"])
def test_growth_stops_at_the_last_step_below_the_cap(spec, start, last):
    # a tiny separation and a tight rel_tol never converge: the ladder
    # l_min + 4 + 4k stops at its last step <= L_CAP (EM: 197, not 201)
    _, diag = trace_over_m(trlog.STATIC, Geometry(1.0, 0.003), spec,
                           Truncation(rel_tol=1e-12), l_max_start=start)
    assert not diag["converged"]
    assert diag["l_max_used"] == diag["l_max_evaluated"] == last <= trlog.L_CAP


def test_static_large_separation_leading_trace():
    # F0 = (1/2) trace ~ -(1/2)(R/2L); the exact value carries ~3.6 percent
    # of higher-order corrections at L/R = 10 (dominated by the s = 1 term
    # of the expanded logarithm, M_00/2 relative, plus the l = 1 block)
    geom = Geometry(1.0, 9.0)
    v, _ = trace_over_m(trlog.STATIC, geom, DD, Truncation(l_max=40))
    assert v.shape == (1,)  # a stack of one
    f0 = 0.5 * v[0].real
    assert f0 == pytest.approx(-0.0259024947, rel=1e-6)
    assert f0 == pytest.approx(-1.0 / 40.0, rel=0.04)


def test_m_fold_symmetry():
    # the fold relies on block(m) == block(-m); the coupling factors are
    # m-sign invariant on their support (checked against the oracle in the
    # wigner tests), so here we verify the fold against an explicit sum
    geom = Geometry(1.0, 0.5)
    trunc = Truncation(l_max=6)
    folded, _ = trace_over_m(trlog.IMAG_AXIS, geom, DD, trunc, xi=[1.0])
    total = 0.0
    nodes = trlog.kernel.ImagNodes([1.0], geom, DD, 6)
    for m in range(-6, 7):
        M, _ = assemble_block(abs(m), trlog.IMAG_AXIS, geom, DD, 6, xi=nodes)
        total += log_det_one_minus(M)[0].real
    assert folded[0].real == pytest.approx(total, rel=1e-14)


def test_rotated_block_past_unit_radius_raises(monkeypatch):
    rng = np.random.default_rng(5)

    def contraction(n, rho):
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return M * rho / max(abs(np.linalg.eigvals(M)))

    # the evaluator on a stack with one block past unit radius: it alone
    # takes the eigenvalues and is flagged
    big = np.diag([1.5 + 0.1j, 0.2, 0.1j, -0.3])
    stack = np.stack([contraction(4, 0.5), big, contraction(4, 0.7)])
    vals, ok, eig = trace_log_eig(stack)
    assert (eig, np.count_nonzero(~ok)) == (1, 1)
    assert not ok[1]
    for i in (0, 2):
        assert vals[i] == pytest.approx(_eig(stack[i])[0], abs=1e-14)

    # in the m sum, the flagged block raises, naming its node and m
    geom = Geometry(1.0, 0.3)
    xs = np.array([0.4, 0.9, 1.6])
    trunc = Truncation(l_max=6)
    trace_over_m(trlog.ROTATED, geom, DD, trunc, xi=xs)  # the blocks as assembled pass
    assemble = trlog.assemble_block
    shift = np.zeros(7)
    shift[0] = 3.0

    def inflated(m, evaluation, geom, spec, l_max, xi=None, derivative=False):
        M, dM = assemble(m, evaluation, geom, spec, l_max, xi=xi, derivative=derivative)
        if m == 0:
            M = M.copy()
            M[1] += np.diag(shift)
        return M, dM

    monkeypatch.setattr(trlog, "assemble_block", inflated)
    with pytest.raises(SingularBlockError, match=r"xi=0\.9, m=0 has spectral radius >= 1"):
        trace_over_m(trlog.ROTATED, geom, DD, trunc, xi=xs)
    M0 = assemble(0, trlog.ROTATED, geom, DD, 6,
                  xi=trlog.kernel.RotatedNodes(xs[1:2], geom, DD, 6))[0][0]
    # trace_log_eig still flags the inflated block
    _, ok, eig = _eig(M0 + np.diag(shift))
    assert not ok and eig


# (evaluation, field, xi, derivative): every block type on the growth path
GROWTH_CASES = {
    "static DD": (trlog.STATIC, "DD", None, False),
    "static EM": (trlog.STATIC, "EM", None, False),
    "imag DN": (trlog.IMAG_AXIS, "DN", [1.3], False),
    "imag EM": (trlog.IMAG_AXIS, "EM", [1.3], False),
    "imag ND force": (trlog.IMAG_AXIS, "ND", [1.3], True),
    "imag EM force": (trlog.IMAG_AXIS, "EM", [1.3], True),
    "rotated ND": (trlog.ROTATED, "ND", [8.0], False),
    "rotated DD force": (trlog.ROTATED, "DD", [8.0], True),
}


@pytest.mark.parametrize("case", list(GROWTH_CASES))
def test_each_growth_step_assembles_its_blocks_once(monkeypatch, case):
    evaluation, field, xi, derivative = GROWTH_CASES[case]
    spec = {"DD": DD, "DN": FieldSpec(plane_bc="neumann"),
            "ND": FieldSpec(sphere_bc="neumann"), "EM": FieldSpec.em()}[field]
    part = np.imag if evaluation == trlog.ROTATED else None
    geom = Geometry(1.0, 0.2)
    seen = []
    assemble = trlog.assemble_block

    def recording(m, evaluation, geom, spec, l_max, **kwargs):
        seen.append((m, l_max))
        return assemble(m, evaluation, geom, spec, l_max, **kwargs)

    monkeypatch.setattr(trlog, "assemble_block", recording)
    val, diag = trace_over_m(evaluation, geom, spec, Truncation(), xi=xi,
                             derivative=derivative)
    monkeypatch.undo()
    start = spec.l_min + 4
    steps = (diag["l_max_used"] - start) // 4
    assert steps >= 2 and diag["converged"]
    # one assembly per step, at its upper cut-off, each block m once
    assert sorted({l for _, l in seen}) == [start + 4 * (i + 1) for i in range(steps)]
    assert len(seen) == len(set(seen)) == diag["blocks"]
    # the lower total of the last step, from the leading sub-blocks, is the
    # total of a separate evaluation at that cut-off
    lower, _ = trace_over_m(evaluation, geom, spec,
                            Truncation(l_max=diag["l_max_used"] - 4), xi=xi,
                            derivative=derivative)
    meas = part or (lambda z: z)
    assert diag["change"] == pytest.approx(abs(meas(val[0]) - meas(lower[0])),
                                           abs=1e-12 * abs(val[0]))


def _padded(M, pad, em):
    """M zero-padded by ``pad`` rows and columns after each polarization
    half (both halves for the electromagnetic layout)."""
    if not em:
        return np.pad(M, ((0, pad), (0, pad)))
    n = M.shape[0] // 2
    out = np.zeros((2 * (n + pad), 2 * (n + pad)), dtype=M.dtype)
    for a in (0, 1):
        for b in (0, 1):
            out[a * (n + pad): a * (n + pad) + n, b * (n + pad): b * (n + pad) + n] = \
                M[a * n: (a + 1) * n, b * n: (b + 1) * n]
    return out


@pytest.mark.parametrize("em", [False, True], ids=["scalar", "EM"])
def test_zero_padding_leaves_the_evaluators_unchanged(em):
    rng = np.random.default_rng(23)
    n, pad = 6, 4
    size = 2 * n if em else n

    def contraction(rho, dtype):
        M = rng.standard_normal((size, size))
        if dtype is complex:
            M = M + 1j * rng.standard_normal((size, size))
        return M * rho / max(abs(np.linalg.eigvals(M)))

    for sign in (1, -1):
        real, dM = contraction(0.6, float), rng.standard_normal((size, size))
        want = _log_det(real, sign)
        assert _log_det(_padded(real, pad, em), sign) == pytest.approx(want, abs=1e-13)
        # a certified block and one the bound refuses
        for rho in (0.3, 0.95):
            M = contraction(rho, complex)
            got, ok, _ = _eig(_padded(M, pad, em), sign)
            assert ok and got == pytest.approx(_eig(M, sign)[0], abs=1e-12)
        for M in (real, contraction(0.6, complex)):
            D = dM.astype(M.dtype)
            got = trlog._trace_derivatives(_padded(M, pad, em)[None],
                                           _padded(D, pad, em)[None], sign)
            assert got[0] == pytest.approx(
                trlog._trace_derivatives(M[None], D[None], sign)[0], abs=1e-13)
    # the stacked form that trace_over_m evaluates: full blocks, then the
    # padded leading sub-blocks of the same blocks
    full = np.stack([contraction(0.6, float) for _ in range(3)])
    N = full.shape[-1] // 2 if em else full.shape[-1]
    cut = N - pad
    hi, lo = [0, 2], [0, 1]
    both = trlog._with_sub_blocks(full, hi, lo, cut, em)
    assert np.array_equal(both[:2], full[hi])
    keep = np.r_[0:cut, N:N + cut] if em else np.arange(cut)
    for got, B in zip(both[2:], full[lo]):
        assert np.array_equal(got, _padded(B[np.ix_(keep, keep)], pad, em))


def test_a_per_node_floor_ends_growth_and_m_sum_sooner():
    # two copies of one rotated node, the second with a floor ten times its
    # projected total, as a node that counts little in its integral gets:
    # it stops at a lower or equal cut-off and a lower m cut, and the first
    # is the node alone
    geom, xi = Geometry(1.0, 0.2), 8.0
    alone, diag = trace_over_m(trlog.ROTATED, geom, DD, Truncation(), xi=[xi])
    big = 10.0 * abs(alone[0].imag)
    vals, pair = trace_over_m(trlog.ROTATED, geom, DD, Truncation(), xi=np.array([xi, xi]),
                              scale_floor=np.array([0.0, big]))
    nodes = pair["nodes"]
    assert vals[0] == pytest.approx(alone[0], rel=1e-12)
    assert (nodes["l_max_used"][0], nodes["m_max_used"][0]) == \
        (diag["l_max_used"], diag["m_max_used"])
    assert nodes["l_max_used"][1] <= nodes["l_max_used"][0]
    assert nodes["m_max_used"][1] < nodes["m_max_used"][0]


@pytest.mark.parametrize("evaluation, field", [(trlog.IMAG_AXIS, "DD"),
                                               (trlog.IMAG_AXIS, "EM"),
                                               (trlog.ROTATED, "ND")])
def test_stack_with_growth_gives_each_node_its_own_cutoff(evaluation, field):
    # nodes that need different cut-offs share one stack from one start;
    # each leaves it once its own growth test passes
    spec = {"DD": DD, "ND": FieldSpec(sphere_bc="neumann"), "EM": FieldSpec.em()}[field]
    geom, start = Geometry(1.0, 0.2), 12
    xs = np.array([0.3, 2.0, 9.0]) if evaluation == trlog.ROTATED else np.array([1.0, 6.0, 14.0])
    vals, diag = trace_over_m(evaluation, geom, spec, Truncation(), xi=xs,
                              l_max_start=start)
    alone = [trace_over_m(evaluation, geom, spec, Truncation(), xi=[x],
                          l_max_start=start) for x in xs]
    nodes = diag["nodes"]
    assert len(set(nodes["l_max_used"])) > 1
    for i, (v, d) in enumerate(alone):
        assert vals[i] == pytest.approx(v[0], rel=1e-12)
        assert (nodes["l_max_used"][i], nodes["m_max_used"][i], nodes["converged"][i]) == \
            (d["l_max_used"], d["m_max_used"], d["converged"])
        assert nodes["change"][i] == pytest.approx(d["change"], rel=1e-6, abs=1e-14 * abs(v[0]))
    assert diag["l_max_used"] == max(nodes["l_max_used"])
    assert diag["blocks"] <= sum(d["blocks"] for _, d in alone)
