"""Translation-matrix element tests: small-frequency expansions, static
closed forms, rotated-representation consistency, and the mpmath
continuation oracle."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casphere import kernel, wigner
from casphere.kernel import Geometry, FieldSpec, scalar_matrix, em_matrix

import oracles
from oracles import m_em_block, m_rotated, m_scalar, m_static

G12 = Geometry(1.0, 1.0)   # R = 1, L = 2
DD = FieldSpec("scalar", "dirichlet", "dirichlet")
ND = FieldSpec("scalar", "neumann", "dirichlet")


def leading_tol(xi, leading):
    return max(1e-3, 10 * xi) * abs(leading)


@pytest.mark.parametrize("xi", [1e-2, 1e-3])
def test_small_xi_dirichlet(xi):
    # M_00^D = R/2L - (1 - R/2L) R xi + ...
    want = 0.25 - 0.75 * xi
    got = m_scalar(0, 0, 0, xi, G12, DD)
    assert got == pytest.approx(want, abs=leading_tol(xi, 0.25))


@pytest.mark.parametrize("xi", [1e-2, 1e-3])
def test_small_xi_neumann(xi):
    # M_00^N = -(R^3/6L) xi^2 + (1/3) R^3 xi^3 + ...
    want = -(1.0 / 12.0) * xi ** 2 + (1.0 / 3.0) * xi ** 3
    got = m_scalar(0, 0, 0, xi, G12, ND)
    assert got == pytest.approx(want, abs=leading_tol(xi, xi ** 2 / 12.0))


@pytest.mark.parametrize("xi", [1e-2, 1e-3])
def test_small_xi_em_block_lines(xi):
    # the four polarization lines at l = l' = 1 (R = 1, L = 2)
    R, L = 1.0, 2.0
    te0 = R ** 3 / (8 * L ** 3) - (R ** 3 / (4 * L)) * (1 - 3 * R ** 2 / (10 * L ** 2)) * xi ** 2 \
        + (R ** 3 / 3) * (1 - R ** 3 / (8 * L ** 3)) * xi ** 3
    te1 = R ** 3 / (16 * L ** 3) + (R ** 3 / (8 * L)) * (1 + 3 * R ** 2 / (10 * L ** 2)) * xi ** 2 \
        - (R ** 3 / 3) * (1 + R ** 3 / (16 * L ** 3)) * xi ** 3
    tm0 = R ** 3 / (4 * L ** 3) - (R ** 3 / (2 * L)) * (1 + 3 * R ** 2 / (20 * L ** 2)) * xi ** 2 \
        + (2 * R ** 3 / 3) * (1 + R ** 3 / (4 * L ** 3)) * xi ** 3
    tm1 = R ** 3 / (8 * L ** 3) + (R ** 3 / (4 * L)) * (1 - 3 * R ** 2 / (20 * L ** 2)) * xi ** 2 \
        - (2 * R ** 3 / 3) * (1 - R ** 3 / (8 * L ** 3)) * xi ** 3
    b0 = m_em_block(1, 1, 0, xi, G12)
    b1 = m_em_block(1, 1, 1, xi, G12)
    # the printed TM lines are the block entries with the -d_TM factor
    # already applied (positive leading term)
    assert b0[0, 0] == pytest.approx(te0, abs=leading_tol(xi, te0))
    assert b1[0, 0] == pytest.approx(te1, abs=leading_tol(xi, te1))
    assert b0[1, 1] == pytest.approx(tm0, abs=leading_tol(xi, tm0))
    assert b1[1, 1] == pytest.approx(tm1, abs=leading_tol(xi, tm1))


def test_em_block_m0_offdiagonal_zero():
    b = m_em_block(2, 3, 0, 0.7, G12)
    assert b[0, 1] == 0.0 and b[1, 0] == 0.0
    M = em_matrix(0, 0.7, G12, 5)
    n = M.shape[0] // 2
    assert np.all(M[:n, n:] == 0.0) and np.all(M[n:, :n] == 0.0)


def test_em_matrix_entries_stay_at_the_eigenvalue_scale():
    # eps = 0.1, xi = 2 pi, m = 1, l_max = 40: every eigenvalue is below
    # 0.15; with the sphere factor wholly on the columns max |M| was 5.6e19
    M = em_matrix(1, 2.0 * math.pi, Geometry(1.0, 0.1), 40)
    lam = np.linalg.eigvals(M)
    assert np.max(np.abs(M)) < 0.1
    sign, logdet = np.linalg.slogdet(np.eye(len(M)) - M)
    assert sign > 0
    assert logdet == pytest.approx(np.sum(np.log(1.0 - lam)).real, rel=1e-12)


def test_static_values():
    assert m_static(0, 0, 0, G12, "dirichlet") == pytest.approx(0.25, rel=1e-13)
    # m-summed l = 1 diagonals: N -> -2 (R/2L)^3, TE -> 2 (R/2L)^3, TM -> 4 (R/2L)^3
    for pol, want in [("neumann", -2.0), ("te", 2.0), ("tm", 4.0)]:
        s = sum(m_static(1, 1, m, G12, pol) for m in (-1, 0, 1))
        assert s == pytest.approx(want * 0.25 ** 3, rel=1e-12)


def test_static_tm_l0_raises():
    with pytest.raises(ValueError):
        m_static(0, 0, 0, G12, "tm")


@pytest.mark.parametrize("m", [0, 7])
def test_static_matrix_against_factorial_closed_form(m):
    # M^m_{ll'} = sqrt((2l+1)/(2l'+1)) x^(l+l'+1) (l+l')!
    #            / sqrt((l+m)!(l-m)!(l'+m)!(l'-m)!),  x = R/2L
    # (the one-index form of oracles.f0_dirichlet_static, carried into the
    # kernel's row/column convention), at a cut-off where the log-gamma
    # table reads arguments far past those of the small blocks
    l_max = 60
    M = kernel.static_matrix(m, G12, "dirichlet", l_max)
    x = mp.mpf(G12.R) / (2 * mp.mpf(G12.L))
    f = mp.factorial
    for l in range(m, l_max + 1, 9):
        for lp in range(m, l_max + 1, 7):
            want = mp.sqrt(mp.mpf(2 * l + 1) / (2 * lp + 1)) * x ** (l + lp + 1) \
                * f(l + lp) / mp.sqrt(f(l + m) * f(l - m) * f(lp + m) * f(lp - m))
            assert M[l - m, lp - m] == pytest.approx(float(want), rel=1e-12)


def test_static_limit_scalar_entrywise():
    # xi -> 0 limit of the frequency kernel reproduces the closed form;
    # Dirichlet entries approach it linearly in xi, Neumann quadratically
    xi = 1e-6
    Md = scalar_matrix(0, xi, G12, DD, 5)
    Md2 = scalar_matrix(0, xi / 10, G12, DD, 5)
    Mn = scalar_matrix(0, xi, G12, ND, 5)
    for l in range(6):
        for lp in range(6):
            want = m_static(l, lp, 0, G12, "dirichlet")
            assert Md[l, lp] == pytest.approx(want, abs=2e-6)
            # the residual is the O(xi) term: shrinks tenfold with xi
            # (the additive guard covers entries already at rounding noise)
            assert abs(Md2[l, lp] - want) < 0.2 * abs(Md[l, lp] - want) + 1e-10
            assert Mn[l, lp] == pytest.approx(
                m_static(l, lp, 0, G12, "neumann"), abs=1e-8)


def test_static_limit_em_entrywise():
    xi = 1e-6
    for l in range(1, 6):
        for lp in range(1, 6):
            b = m_em_block(l, lp, 1, xi, G12)
            assert b[0, 0] == pytest.approx(m_static(l, lp, 1, G12, "te"), abs=1e-8)
            assert b[1, 1] == pytest.approx(m_static(l, lp, 1, G12, "tm"), abs=1e-8)
            # polarization mixing vanishes linearly in xi
            assert abs(b[0, 1]) < 2e-7 and abs(b[1, 0]) < 2e-7
            b2 = m_em_block(l, lp, 1, xi / 10, G12)
            assert abs(b2[0, 1]) < 0.2 * abs(b[0, 1]) + 1e-15


def test_exponential_suppression():
    # decay like exp(-2 xi d): |M_00(50)| < e^-90 at d = 1
    val = m_scalar(0, 0, 0, 50.0, G12, DD)
    assert 0 < abs(val) < math.exp(-90)


def test_large_index_monotone_decay():
    xi = 2.0
    M = scalar_matrix(0, xi, G12, DD, 40)
    diag = np.abs(np.diag(M))
    start = int(math.e * xi * G12.L) + 1
    assert np.all(np.diff(diag[start:]) < 0)


def test_scalar_against_mpmath_oracle():
    for (l, lp, m, xi, bc) in [(0, 0, 0, 0.5, "dirichlet"), (2, 4, 1, 1.3, "dirichlet"),
                               (3, 1, 1, 2.0, "neumann"), (5, 5, 2, 0.25, "neumann")]:
        spec = FieldSpec("scalar", bc, "dirichlet")
        got = m_scalar(l, lp, m, xi, Geometry(1.0, 1.5), spec)
        want = oracles.m_scalar_direct(l, lp, m, xi, 1.0, 2.5, bc)
        assert got == pytest.approx(want, rel=1e-11)


def test_rotated_against_direct_continuation():
    for (l, lp, m, xi, R, L) in [(0, 0, 0, 0.7, 1.0, 2.0), (1, 2, 1, 1.3, 1.0, 3.0),
                                 (2, 2, 0, 2.1, 0.5, 0.505), (4, 5, 2, 1.7, 2.0, 2.2)]:
        geom = Geometry(R, L - R)
        got = m_rotated(l, lp, m, xi, geom, DD)
        want = oracles.m_rotated_direct(l, lp, m, xi, R, L)
        assert got == pytest.approx(want, rel=1e-12)


FIELDS = {"DD": DD, "DN": FieldSpec(plane_bc=kernel.NEUMANN), "ND": ND,
          "NN": FieldSpec(sphere_bc=kernel.NEUMANN, plane_bc=kernel.NEUMANN),
          "EM": FieldSpec.em()}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(xi=st.floats(1e-3, 30.0), R=st.floats(0.1, 5.0), d=st.floats(0.005, 3.0),
       l_max=st.integers(1, 12), m=st.integers(0, 12), field=st.sampled_from(sorted(FIELDS)))
def test_imaginary_axis_determinant_is_positive(xi, R, d, l_max, m, field):
    # det(1 - M) > 0 on the imaginary axis, where M is a round trip
    # between the bodies with spectral radius below 1, at every cut-off
    spec = FIELDS[field]
    m = min(m, l_max)
    M, _ = kernel.ImagNodes([xi], Geometry(R, d), spec, l_max).blocks(m)
    assert np.all(np.isfinite(M))
    sign, _ = np.linalg.slogdet(np.eye(M.shape[-1]) - spec.plane_sign * M[0])
    assert sign > 0


def test_rotated_small_xi_limit():
    # M(i xi) -> R/2L with an O(xi) imaginary part
    v = m_rotated(0, 0, 0, 1e-4, G12, DD)
    assert v.real == pytest.approx(0.25, abs=1e-3)
    assert abs(v.imag) < 5e-4
    v2 = m_rotated(0, 0, 0, 5e-5, G12, DD)
    assert abs(v2.imag) == pytest.approx(abs(v.imag) / 2, rel=0.05)


def test_rotated_jump():
    # i [ln(1-M(i xi)) - ln(1-M(-i xi))] -> -2 R xi at small xi, with
    # M(-i xi) the complex conjugate of M(i xi)
    xi = 1e-3
    a = cmath.log(1 - m_rotated(0, 0, 0, xi, G12, DD))
    b = cmath.log(1 - m_rotated(0, 0, 0, xi, G12, DD).conjugate())
    jump = (1j * (a - b)).real
    assert jump == pytest.approx(-2.0 * xi, rel=0.05)


def test_scale_invariance():
    # M is invariant under (R, d, xi) -> (lam R, lam d, xi/lam)
    lam = 2.0
    a = scalar_matrix(1, 0.8, Geometry(1.0, 0.5), DD, 6)
    b = scalar_matrix(1, 0.8 / lam, Geometry(lam, lam * 0.5), DD, 6)
    assert np.allclose(a, b, rtol=1e-13, atol=0)


def test_em_matrix_mirrors_two_index_spectrum_at_m0():
    # at m = 0 the determinant-ready assembly and the entrywise convention
    # agree block by block up to a similarity, so the eigenvalues match
    M = em_matrix(0, 0.6, G12, 4)
    n = M.shape[0] // 2
    te_lit = np.array([[m_em_block(l, lp, 0, 0.6, G12)[0, 0]
                        for lp in range(1, 5)] for l in range(1, 5)])
    ev_a = np.sort_complex(np.linalg.eigvals(M[:n, :n]))
    ev_b = np.sort_complex(np.linalg.eigvals(te_lit))
    assert np.allclose(ev_a, ev_b, rtol=1e-10)


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(-1.0, 0.5)
    with pytest.raises(ValueError):
        Geometry(1.0, -0.1)
    g0 = Geometry(1.0, 0.0)  # contact allowed, but not for modified kernels
    with pytest.raises(ValueError):
        scalar_matrix(0, 1.0, g0, DD, 3)
    with pytest.raises(ValueError):
        FieldSpec("vector")
    assert FieldSpec.em().l_min == 1
    assert FieldSpec("scalar", "dirichlet", "neumann").plane_sign == -1


@pytest.mark.parametrize("phases", [False, True], ids=["real signs", "complex signs"])
def test_combine_matches_mpmath(phases):
    # c a - b with a = sign_a exp(log_a), b = sign_b exp(log_b): c = 0 (the
    # l = 0 term), log moduli past where a plain exp over- or underflows,
    # an exact cancellation, a zero a (sign 0, log -inf) and both zero
    c = np.array([0.0, 0.5, 3.0, 2.0, 1.0, 1.0, 0.0])
    log_a = np.array([1.0, 720.0, -760.0, 0.3, 2.0, -np.inf, -np.inf])
    log_b = np.array([0.5, 719.0, -758.5, 0.9, 2.0, 0.25, -np.inf])
    if phases:
        sign_a = np.exp(1j * np.array([0.3, -2.0, 1.1, 3.0, 0.7, 0.0, 0.0]))
        sign_b = np.exp(1j * np.array([2.0, 0.4, -1.2, 3.0, 0.7, -0.5, 0.0]))
    else:
        sign_a = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 0.0, 0.0])
        sign_b = np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 0.0])
    sign, log_mod = kernel._combine(c, sign_a, log_a, sign_b, log_b)
    mp.mp.dps = 40
    for i in range(len(c)):
        want = (mp.mpf(c[i]) * mp.mpc(sign_a[i]) * mp.exp(log_a[i])
                - mp.mpc(sign_b[i]) * mp.exp(log_b[i]))
        if want == 0:
            assert sign[i] == 0 and log_mod[i] == -np.inf
            continue
        assert log_mod[i] == pytest.approx(float(mp.log(abs(want))), rel=1e-15, abs=1e-14)
        assert abs(sign[i] - complex(want / abs(want))) <= 1e-15
        if not phases:
            assert sign[i] in (-1.0, 1.0)


@pytest.mark.parametrize("x", [1e-3, 0.37, 2.5, 11.0, 40.0])
def test_rotated_neumann_factors_match_the_loop(x):
    kernel._sphere_factors_rotated.cache_clear()
    # the denominator's sign is its phase factor: compare its log modulus
    # and angle with the loop's modulus and phase
    s_num, log_num, s_den, log_den = kernel._sphere_factors_rotated("neumann", x, 30)
    got = s_num, log_num, log_den, np.angle(s_den)
    want = oracles.sphere_factors_rotated_loop("neumann", x, 30)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("axis, kind", [("rotated", "D sphere"), ("rotated", "N sphere"),
                                        ("imaginary", "D sphere"), ("imaginary", "N sphere"),
                                        ("imaginary", "EM")])
def test_stacked_blocks_match_single_blocks(axis, kind):
    # one node stack for four nodes against the single blocks and the
    # dense oracles node by node, M and dM from one assembly, and nodes
    # leaving the stack at successive m, as trace_over_m drops them
    geom = Geometry(1.0, 0.3)
    xs = np.array([0.05, 0.7, 2.3, 6.5])
    l_max = 14
    spec = {"D sphere": DD, "N sphere": ND, "EM": FieldSpec.em()}[kind]
    rotated = axis == "rotated"
    Nodes = kernel.RotatedNodes if rotated else kernel.ImagNodes

    def single(m, x, derivative):
        if rotated:
            return kernel.rotated_matrix(m, x, geom, spec, l_max, derivative)
        if kind == "EM":
            return em_matrix(m, x, geom, l_max, derivative)
        return scalar_matrix(m, x, geom, spec, l_max, derivative)

    def dense(m, x, derivative):
        if rotated:
            return oracles.rotated_matrix_dense(m, x, geom, spec, l_max, derivative)
        if kind == "EM":
            return oracles.em_matrix_dense(m, x, geom, l_max, derivative)
        return oracles.scalar_matrix_dense(m, x, geom, spec, l_max, derivative)

    # the rotated blocks are measured against the m = 0 block of their node
    scale = [np.max(np.abs(single(0, x, False))) for x in xs]
    nodes = Nodes(xs, geom, spec, l_max, derivative=True)
    for m in (0, 1, 5, l_max):
        M, dM = nodes.blocks(m)
        n = l_max - max(spec.l_min, m) + 1
        assert M.shape == dM.shape == (len(xs),) + (2 * n if kind == "EM" else n,) * 2
        for i, x in enumerate(xs):
            want, d_want = dense(m, x, False), dense(m, x, True)
            tol = 1e-13 * (scale[i] if rotated else np.max(np.abs(want)))
            assert np.max(np.abs(M[i] - want)) <= tol
            assert np.max(np.abs(dM[i] - d_want)) <= 1e-13 * np.max(np.abs(d_want))
            d_single = single(m, x, True)
            assert np.max(np.abs(M[i] - single(m, x, False))) <= tol
            assert np.max(np.abs(dM[i] - d_single)) <= 1e-13 * np.max(np.abs(d_single))
    # nodes that leave the stack leave the others' blocks as they were:
    # node 0 at m = 3, then node 2 at m = 4
    M, dM = nodes.blocks(3)
    M_tol = 1e-13 * (max(scale) if rotated else np.max(np.abs(M)))
    nodes.keep(np.array([1, 2, 3]))
    M2, dM2 = nodes.blocks(3)
    assert np.max(np.abs(M2 - M[[1, 2, 3]])) <= M_tol
    assert np.max(np.abs(dM2 - dM[[1, 2, 3]])) <= 1e-13 * np.max(np.abs(dM))
    M, dM = nodes.blocks(4)
    nodes.keep(np.array([0, 2]))
    M2, dM2 = nodes.blocks(4)
    assert np.max(np.abs(M2 - M[[0, 2]])) <= M_tol
    assert np.max(np.abs(dM2 - dM[[0, 2]])) <= 1e-13 * np.max(np.abs(dM))
    # what is left is the stack of those two nodes alone
    for got, want in zip(nodes.blocks(5), Nodes(xs[[1, 3]], geom, spec, l_max, True).blocks(5)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert Nodes(xs, geom, spec, l_max).blocks(2)[1] is None


def test_rotated_blocks_from_a_grown_store_are_bit_equal():
    geom = Geometry(1.0, 0.3)
    wigner.clear_caches()
    fresh = [kernel.rotated_matrix(m, 1.7, geom, DD, 10) for m in range(11)]
    kernel.rotated_matrix(0, 1.7, geom, DD, 22)
    for m in range(11):
        kernel.rotated_matrix(m, 1.7, geom, DD, 17 + m % 3)
        assert np.array_equal(kernel.rotated_matrix(m, 1.7, geom, DD, 10), fresh[m])
    wigner.clear_caches()


@pytest.mark.parametrize("l_max", [12, 40])
@pytest.mark.parametrize("kind", ["D sphere", "N sphere", "EM"])
def test_imaginary_axis_blocks_match_the_dense_oracles(kind, l_max):
    # the coupling store and weight rows against the dense H (and Lambda)
    # tensors and full shift tables, M and dM, at m = 0, 1 and 4
    geom = Geometry(1.0, 0.3)
    for m in (0, 1, 4):
        for xi in (0.2, 2.5):
            for derivative in (False, True):
                if kind == "EM":
                    got = em_matrix(m, xi, geom, l_max, derivative)
                    want = oracles.em_matrix_dense(m, xi, geom, l_max, derivative)
                else:
                    spec = DD if kind == "D sphere" else ND
                    got = scalar_matrix(m, xi, geom, spec, l_max, derivative)
                    want = oracles.scalar_matrix_dense(m, xi, geom, spec, l_max, derivative)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_one_store_serves_every_kernel(monkeypatch):
    geom = Geometry(1.0, 0.3)
    wigner.clear_caches()
    keys, h_tensor = set(), wigner.h_tensor

    def recording(m, l_max):
        keys.add((m, l_max))
        return h_tensor(m, l_max)

    monkeypatch.setattr(wigner, "h_tensor", recording)
    # the electromagnetic block at m = 0 starts at l = 1 and reads the
    # m = 0 store at an offset
    em_matrix(0, 0.9, geom, 10)
    assert sorted(wigner._STORES) == [0]
    for m in range(5):
        scalar_matrix(m, 0.9, geom, DD, 10, derivative=True)
        em_matrix(m, 0.9, geom, 10, derivative=True)
        kernel.rotated_matrix(m, 0.9, geom, ND, 10, derivative=True)
    # m = 1 brings 2 and m = 3 brings 4, 5 and 6 by the run rule of the stores
    assert sorted(wigner._STORES) == list(range(7))
    assert keys == {(m, 10) for m in range(5)}
    wigner.clear_caches()
