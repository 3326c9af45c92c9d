"""Block assembly and Tr ln(1 - M) evaluator tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casphere import trlog
from casphere.kernel import Geometry, FieldSpec
from casphere.trlog import (MBlockMatrix, Truncation, assemble_block,
                            block_trace_log, log_det_one_minus,
                            trace_log_eig, trace_over_m, SingularBlockError)

import oracles

DD = FieldSpec()


def _block(arr, m=0, polar=False):
    n = arr.shape[0]
    return MBlockMatrix(m, 0, n - 1 if not polar else n // 2 - 1,
                        np.asarray(arr), polar)


def test_logdet_trivial_cases():
    assert log_det_one_minus(_block(np.zeros((3, 3)))) == 0.0
    one = _block(np.array([[0.25]]))
    assert log_det_one_minus(one).real == pytest.approx(math.log(0.75), rel=1e-14)
    assert log_det_one_minus(one, plane_sign=-1).real == pytest.approx(
        math.log(1.25), rel=1e-14)


def test_logdet_singular():
    with pytest.raises(SingularBlockError):
        log_det_one_minus(_block(np.array([[1.0]])))


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
    want = log_det_one_minus(_block(M))
    got, _ = oracles.trace_log_series(M, s_max=400)
    assert got == pytest.approx(want, abs=1e-10)
    eigv, ok = trace_log_eig(_block(M))
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
    counts = {"eig_blocks": 0}
    got, ok = trace_log_eig(_block(M), counts=counts)
    assert ok and counts["eig_blocks"] == 0  # certified: no eigenvalues
    assert got == pytest.approx(want, abs=1e-12)
    # the Neumann plane: the same block with the opposite sign
    got, ok = trace_log_eig(_block(-M), plane_sign=-1, counts=counts)
    assert ok and counts["eig_blocks"] == 0
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
    got, ok = trace_log_eig(_block(M), plane_sign)
    assert ok
    assert got == pytest.approx(oracles.trace_log_eigenvalues(M, plane_sign),
                                abs=1e-12)


def test_refused_block_takes_the_eigenvalue_path():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    M *= 0.9 / max(abs(np.linalg.eigvals(M)))
    for sign in (1, -1):
        counts = {"eig_blocks": 0}
        got, ok = trace_log_eig(_block(M), sign, counts=counts)
        assert counts["eig_blocks"] == 1
        lam = np.linalg.eigvals(M) * sign
        assert ok and got == complex(np.sum(np.log(1.0 - lam.astype(complex))))
    # 12 times 0.97 e^{0.3i}: the four-term estimate is 3.9 rad off the sum,
    # so the phase nearest to it would be 2 pi wrong
    lam = 0.97 * np.exp(0.3j)
    counts = {"eig_blocks": 0}
    got, ok = trace_log_eig(_block(np.diag(np.full(12, lam))), counts=counts)
    assert ok and counts["eig_blocks"] == 1
    assert got == pytest.approx(12 * np.log(1.0 - lam), abs=1e-12)
    # spectral radius above one: not converged, and the dispatcher takes
    # the per-pivot determinant
    big = np.diag([1.5 + 0.1j, 0.2])
    counts = {"eig_blocks": 0}
    _, ok = trace_log_eig(_block(big), counts=counts)
    assert not ok and counts["eig_blocks"] == 1
    assert block_trace_log(_block(big), evaluation=trlog.ROTATED) == \
        log_det_one_minus(_block(big))


def test_plane_sign_equals_negated_matrix():
    rng = np.random.default_rng(7)
    M = 0.3 * rng.standard_normal((4, 4))
    a = log_det_one_minus(_block(M), plane_sign=-1)
    b = log_det_one_minus(_block(-M), plane_sign=1)
    assert a == pytest.approx(b, rel=1e-13)


def test_assemble_block_shapes():
    geom = Geometry(1.0, 1.0)
    blk = assemble_block(0, trlog.STATIC, geom, DD, 0)
    assert blk.entries.shape == (1, 1)
    assert blk.entries[0, 0] == pytest.approx(0.25, rel=1e-13)
    empty = assemble_block(3, trlog.IMAG_AXIS, geom, DD, 2, xi=1.0)
    assert empty.dimension == 0
    assert log_det_one_minus(empty) == 0.0
    em = assemble_block(1, trlog.IMAG_AXIS, geom, FieldSpec.em(), 3, xi=0.5)
    assert em.polarization_blocks and em.entries.shape == (6, 6)


def test_block_validation():
    with pytest.raises(ValueError):
        MBlockMatrix(0, 0, 1, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        MBlockMatrix(0, 0, 2, np.full((3, 3), np.nan))


def test_monotone_truncation():
    geom = Geometry(1.0, 0.3)
    xi = 1.0
    vals = []
    for l_max in (8, 12, 16, 20):
        v, _ = trace_over_m(trlog.IMAG_AXIS, geom, DD, Truncation(l_max=l_max), xi=xi)
        vals.append(v.real)
    d = np.abs(np.diff(vals))
    assert np.all(np.diff(d) < 0)


def test_trace_over_m_auto_growth():
    geom = Geometry(1.0, 0.5)
    v, diag = trace_over_m(trlog.IMAG_AXIS, geom, DD, Truncation(rel_tol=1e-4), xi=0.8)
    assert diag["converged"]
    vfix, _ = trace_over_m(trlog.IMAG_AXIS, geom, DD,
                           Truncation(l_max=diag["l_max_used"] + 8), xi=0.8)
    assert v.real == pytest.approx(vfix.real, rel=1e-3)


def test_static_large_separation_leading_trace():
    # F0 = (1/2) trace ~ -(1/2)(R/2L); the exact value carries ~3.6 percent
    # of higher-order corrections at L/R = 10 (dominated by the s = 1 term
    # of the expanded logarithm, M_00/2 relative, plus the l = 1 block)
    geom = Geometry(1.0, 9.0)
    v, _ = trace_over_m(trlog.STATIC, geom, DD, Truncation(l_max=40))
    f0 = 0.5 * v.real
    assert f0 == pytest.approx(-0.0259024947, rel=1e-6)
    assert f0 == pytest.approx(-1.0 / 40.0, rel=0.04)


def test_m_fold_symmetry():
    # the fold relies on block(m) == block(-m); the coupling factors are
    # m-sign invariant on their support (checked against the oracle in the
    # wigner tests), so here we verify the fold against an explicit sum
    geom = Geometry(1.0, 0.5)
    trunc = Truncation(l_max=6)
    folded, _ = trace_over_m(trlog.IMAG_AXIS, geom, DD, trunc, xi=1.0)
    total = 0.0
    for m in range(-6, 7):
        blk = assemble_block(abs(m), trlog.IMAG_AXIS, geom, DD, 6, xi=1.0)
        total += log_det_one_minus(blk).real
    assert folded.real == pytest.approx(total, rel=1e-14)
