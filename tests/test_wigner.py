"""3j symbols and coupling factors against the exact-rational oracle."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaln

from casphere import kernel, wigner
from casphere.specfun import L_CAP
from casphere.wigner import h_tensor, lambda_tensor

import oracles
from oracles import h_factor, h_slice, three_j


def test_trivial_values():
    assert three_j(0, 0, 0, 0, 0, 0) == 1.0
    assert three_j(1, 1, 2, 0, 0, 0) == pytest.approx(math.sqrt(2.0 / 15.0), rel=1e-14)
    assert three_j(1, 1, 1, 0, 0, 0) == 0.0  # odd sum vanishes


def test_out_of_domain_returns_zero():
    assert three_j(1, 1, 5, 0, 0, 0) == 0.0       # triangle violated
    assert three_j(1, 1, 2, 1, 1, -2) != 0.0      # general pattern small l ok
    assert three_j(1, 1, 2, 2, -2, 0) == 0.0      # |m| > j
    assert three_j(1, 1, 2, 1, -1, 1) == 0.0      # m1+m2+m3 != 0


def test_general_pattern_rejected_at_large_l():
    with pytest.raises(NotImplementedError):
        three_j(60, 60, 60, 5, 7, -12)


_EXACT_CASES = [
    (2, 3, 1), (10, 10, 4), (25, 17, 9), (40, 40, 13),
    (45, 43, 7), (50, 50, 3), (60, 41, 20), (55, 55, 1), (60, 60, 60),
]


@pytest.mark.parametrize("l,lp,m", _EXACT_CASES)
def test_three_j_against_exact_oracle(l, lp, m):
    for lpp in range(abs(l - lp), l + lp + 1):
        want = oracles.three_j_exact(l, lp, lpp, m, -m, 0)
        got = three_j(l, lp, lpp, m, -m, 0)
        if abs(want) > 1e-30:
            assert got == pytest.approx(want, rel=1e-10), (l, lp, lpp, m)
        else:
            assert abs(got) < 1e-18


@pytest.mark.parametrize("l,lp", [(5, 9), (30, 30), (57, 60)])
def test_three_j_000_against_exact_oracle(l, lp):
    for lpp in range(abs(l - lp), l + lp + 1):
        want = oracles.three_j_exact(l, lp, lpp, 0, 0, 0)
        got = three_j(l, lp, lpp, 0, 0, 0)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-18)


def test_h_factor_values():
    assert h_factor(0, 0, 0, 0) == pytest.approx(1.0, rel=1e-14)
    assert h_factor(1, 1, 2, 0) == pytest.approx(2.0, rel=1e-13)
    assert abs(h_factor(1, 1, 2, 1)) == pytest.approx(1.0, rel=1e-13)
    assert h_factor(1, 1, 2, 1) == pytest.approx(
        oracles.h_factor_exact(1, 1, 2, 1), rel=1e-13)


@pytest.mark.parametrize("l,lp,m", [(3, 4, 2), (20, 60, 5), (60, 60, 0)])
def test_parity_support(l, lp, m):
    for lpp in range(abs(l - lp), l + lp + 1):
        if (l + lp + lpp) % 2 == 1:
            assert h_factor(l, lp, lpp, m) == 0.0


@pytest.mark.parametrize("l,lp,m", [
    (0, 0, 0), (3, 5, 2), (17, 23, 11), (40, 40, 0), (60, 44, 30), (60, 60, 2),
])
def test_sum_rule(l, lp, m):
    js = np.arange(abs(l - lp), l + lp + 1)
    vals = np.array([three_j(l, lp, int(j), m, -m, 0) for j in js])
    assert float(np.sum((2 * js + 1.0) * vals ** 2)) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("l,lp,m", [(4, 6, 3), (41, 44, 7), (12, 12, 5)])
def test_m_sign_symmetry_on_support(l, lp, m):
    # H(m) = H(-m) on the even-sum support (odd-sum entries vanish)
    for lpp in range(abs(l - lp), l + lp + 1):
        a = oracles.h_factor_exact(l, lp, lpp, m)
        b = oracles.h_factor_exact(l, lp, lpp, -m)
        assert a == pytest.approx(b, abs=1e-15)
        assert h_factor(l, lp, lpp, m) == pytest.approx(a, rel=1e-10, abs=1e-15)


def test_h_slice_matches_elements():
    sl = h_slice(7, 4, 2)
    for i, lpp in enumerate(range(3, 12)):
        assert sl[i] == pytest.approx(h_factor(7, 4, lpp, 2), rel=1e-13, abs=1e-16)


def test_h_tensor_layout_and_phase():
    H = h_tensor(1, 4)
    for a, l in enumerate(range(1, 5)):
        for b, lp in enumerate(range(1, 5)):
            for k in range(0, 9):
                want = h_factor(l, lp, k, 1) if abs(l - lp) <= k <= l + lp else 0.0
                # anti-diagonal a + b, l'' = l + l' - 2t, no sign
                t, odd = divmod(l + lp - k, 2)
                if not odd and t <= 4:
                    assert H[a + b, abs(a - b) // 2, t] == pytest.approx(
                        want, rel=1e-13, abs=1e-14)
    # cache is idempotent: a repeated request reads the held store
    assert np.shares_memory(h_tensor(1, 4), wigner._STORES[1])
    assert np.shares_memory(H, wigner._STORES[1])
    # the rotated representation's (-1)^t = (-1)^((l+l'-l'')/2) rides on the
    # complex weight rows, not on the store
    log_mag = np.linspace(-3.0, 5.0, 10)
    (real,) = kernel._shift_rows(1.0, 4, log_mag)
    (rotated,) = kernel._shift_rows(1.0, 4, log_mag, np.zeros(10))
    assert np.array_equal(rotated, real * (-1.0) ** np.arange(5))


def test_lambda_tensor_values():
    W = lambda_tensor(3)
    assert W.shape == (7, 4)
    # Lambda = (l l' - t (2s + 1 - 2t)) / sqrt(l(l+1) l'(l'+1)), l'' = s - 2t
    for l in range(1, 4):
        for lp in range(1, 4):
            for t in range(min(l, lp) + 1):
                k = l + lp - 2 * t
                norm = math.sqrt(l * (l + 1) * lp * (lp + 1))
                want = 0.5 * (k * (k + 1) - l * (l + 1) - lp * (lp + 1)) / norm
                assert (l * lp - W[l + lp, t]) / norm == pytest.approx(want, rel=1e-14)
    # l = l' = 1, l'' = 2: (6 - 2 - 2)/(2 * 2) = 1/2
    assert (1 - W[2, 0]) / 2.0 == pytest.approx(0.5)
    # a larger table serves the smaller one as its prefix
    assert np.array_equal(lambda_tensor(9)[:7, :4], W)


def test_log_h_top_matrix():
    logH = wigner.log_h_top_matrix(1, 5, 1)
    for a, l in enumerate(range(1, 6)):
        for b, lp in enumerate(range(1, 6)):
            want = oracles.h_factor_exact(l, lp, l + lp, 1)
            assert math.exp(logH[a, b]) == pytest.approx(want, rel=1e-12)


def test_log_h_top_matrix_reads_one_table_per_m(monkeypatch):
    # after the table of m grows, every block is bit-equal to a fresh
    # build, and a repeated call builds nothing
    fresh = {}
    for m in (0, 1, 5, 12):
        for l_start, l_max in ((m, m + 8), (max(m, 1), 40), (m + 3, 60)):
            wigner.clear_caches()
            fresh[m, l_start, l_max] = wigner.log_h_top_matrix(l_start, l_max, m).copy()
    wigner.clear_caches()
    for m in (0, 1, 5, 12):
        wigner.log_h_top_matrix(m, m + 8, m)
        wigner.log_h_top_matrix(m, 60, m)
    builds = []
    build = wigner._log_h_top
    monkeypatch.setattr(wigner, "_log_h_top", lambda *a: builds.append(a) or build(*a))
    for (m, l_start, l_max), want in fresh.items():
        got = wigner.log_h_top_matrix(l_start, l_max, m)
        assert np.array_equal(got, want) and not got.flags.writeable
    assert builds == []
    with pytest.raises(ValueError):
        wigner.log_h_top_matrix(2, 10, 3)


# -- vectorized l''-recurrence ------------------------------------------------

@pytest.mark.parametrize("l,lp,m", [
    (12, 12, 5), (30, 30, 29), (44, 44, 1),      # j1 = j2: the j = 0 seed
    (8, 28, 8), (20, 47, 20), (33, 33, 33),      # m = min(l, l')
    (1, 1, 1), (3, 16, 2), (16, 16, 16), (5, 12, 4),  # l <= 16
    (7, 21, 6), (8, 28, 7), (11, 28, 10), (31, 41, 21),  # match near a zero
])
def test_three_j_edge_cases_against_exact_oracle(l, lp, m):
    want = [oracles.three_j_exact(l, lp, lpp, m, -m, 0)
            for lpp in range(abs(l - lp), l + lp + 1)]
    top = max(abs(w) for w in want)
    for lpp, w in zip(range(abs(l - lp), l + lp + 1), want):
        got = three_j(l, lp, lpp, m, -m, 0)
        if abs(w) > 1e-30:
            assert got == pytest.approx(w, rel=1e-10), (l, lp, lpp, m)
        else:
            # an exact zero inside a slice is met by the recurrence to rounding
            assert abs(got) < 1e-14 * top


@pytest.mark.parametrize("l", [0, 1, 7, 60])
def test_single_entry_slices(l):
    # (0 l l; 0 0 0) = (-1)^l / sqrt(2l+1): one l'' per slice
    want = oracles.three_j_exact(0, l, l, 0, 0, 0)
    assert three_j(0, l, l, 0, 0, 0) == pytest.approx(want, rel=1e-14)
    assert three_j(l, 0, l, 0, 0, 0) == pytest.approx(want, rel=1e-14)
    assert h_slice(0, l, 0) == pytest.approx([oracles.h_factor_exact(0, l, l, 0)], rel=1e-13)


@pytest.mark.parametrize("m", [1, 17, 40])
def test_sum_rule_and_orthogonality_over_a_block(m):
    # every pair (l, l') of the block m at l_max = 60, in one batch
    a, b = np.nonzero(np.triu(np.ones((61 - m, 61 - m), dtype=bool)))
    l, lp = a + m, b + m
    wm = oracles._three_j_m_slices(l, lp, m)
    w0 = wigner._three_j_000_slices(l, lp)
    js = np.abs(l - lp) + np.arange(wm.shape[0])[:, None]
    assert np.all(np.isfinite(wm))
    np.testing.assert_allclose(np.sum((2 * js + 1) * wm * wm, axis=0), 1.0, rtol=1e-12)
    # the m = 0 slices come from the closed form, not from the recurrence
    np.testing.assert_allclose(np.sum((2 * js + 1) * wm * w0, axis=0), 0.0, atol=1e-12)
    if m > 1:
        w1 = oracles._three_j_m_slices(l, lp, 1)
        np.testing.assert_allclose(np.sum((2 * js + 1) * wm * w1, axis=0), 0.0, atol=1e-12)


def _three_j_000_loop(j1, j2, j3):
    """(j1 j2 j3; 0 0 0) by the closed form, one entry at a time."""
    J = j1 + j2 + j3
    if J % 2 == 1:
        return 0.0
    g = J // 2

    def lf(k):
        return math.lgamma(k + 1)

    log_delta = 0.5 * (lf(J - 2 * j1) + lf(J - 2 * j2) + lf(J - 2 * j3) - lf(J + 1))
    log_ratio = lf(g) - lf(g - j1) - lf(g - j2) - lf(g - j3)
    return (-1.0) ** g * math.exp(log_delta + log_ratio)


def _three_j_slice_loop(j1, j2, m):
    """3j(j1 j2 j; m -m 0) over j = |j1-j2| .. j1+j2 by the two-sided
    l''-recurrence, one slice and one l'' at a time: the reference for the
    vectorized form in the package (same recurrence, stopping rule and
    four-point match, so it agrees to rounding)."""
    jmin, jmax = abs(j1 - j2), j1 + j2
    n = jmax - jmin + 1

    def A(j):
        return j * math.sqrt(float(j * j - (j1 - j2) ** 2)
                             * float((j1 + j2 + 1) ** 2 - j * j))

    def B(j):
        return -(2.0 * j + 1.0) * (2.0 * m) * j * (j + 1.0)

    f = np.zeros(n)
    istart = 0
    f[0] = 1.0
    if jmin == 0:
        f[0] = (-1.0) ** (j1 - m) / math.sqrt(2.0 * j1 + 1.0)
        f[1] = (-1.0) ** (j1 - m) * m / math.sqrt(j1 * (j1 + 1.0) * (2.0 * j1 + 1.0))
        istart = 1
    ifwd, falling = istart, 0
    for i in range(istart, n - 1):
        j = jmin + i
        prev = f[i - 1] if i > 0 else 0.0
        f[i + 1] = -(B(j) * f[i] + (j + 1.0) * A(j) * prev) / (j * A(j + 1))
        ifwd = i + 1
        if abs(f[i + 1]) > 1e250:
            f[: i + 2] /= abs(f[i + 1])
        falling = falling + 1 if abs(f[i + 1]) < abs(f[i]) else 0
        if i > istart and falling >= 3:
            break
    g = np.zeros(n)
    g[n - 1] = 1.0
    ibwd = max(min(ifwd, n - 2) - 3, 0)
    for i in range(n - 1, ibwd, -1):
        j = jmin + i
        nxt = g[i + 1] if i < n - 1 else 0.0
        g[i - 1] = -(j * A(j + 1) * nxt + B(j) * g[i]) / ((j + 1.0) * A(j))
        if abs(g[i - 1]) > 1e250:
            g[i - 1:] /= abs(g[i - 1])
    k = max(range(ibwd, ifwd + 1), key=lambda i: min(abs(f[i]), abs(g[i])))
    out = np.concatenate((f[:k] * (g[k] / f[k]), g[k:]))
    js = np.arange(jmin, jmax + 1)
    out /= math.sqrt(float(np.sum((2.0 * js + 1.0) * out * out)))
    return out if out[-1] * (-1.0) ** (j1 - j2) > 0.0 else -out


@pytest.mark.parametrize("m", [1, 7, 30])
def test_h_tensor_block_against_loop_reference(m):
    H = h_tensor(m, 44)
    for l in range(m, 45):
        for lp in range(l, 45):
            ks = range(lp - l, l + lp + 1)
            w0 = np.array([_three_j_000_loop(l, lp, k) for k in ks])
            ref = math.sqrt((2 * l + 1) * (2 * lp + 1)) * (2 * np.array(ks) + 1.0) \
                * w0 * _three_j_slice_loop(l, lp, m)
            # the store holds l'' = l + l' - 2t at t; the odd l'' are zero
            got = H[l + lp - 2 * m, (lp - l) // 2, l::-1]
            assert not np.any(ref[1::2])
            assert np.max(np.abs(got - ref[::2])) <= 1e-12 * np.max(np.abs(ref)), (l, lp, m)


def test_hot_path_avoids_racah(monkeypatch):
    # the package holds no Racah route at all; only the oracle's float
    # three_j keeps one, for the general m patterns
    assert not [name for name in vars(wigner) if "racah" in name.lower()]

    def racah(*args):
        raise AssertionError("Racah sum on the (m -m 0) path")

    monkeypatch.setattr(oracles, "_three_j_racah", racah)
    wigner.clear_caches()
    h_tensor(3, 20)
    h_slice(5, 9, 4)
    assert three_j(4, 6, 6, 2, -2, 0) != 0.0
    wigner.clear_caches()


# -- the m-descent that fills the stores --------------------------------------

@pytest.mark.parametrize("l,lp,m", _EXACT_CASES)
def test_store_entries_against_exact_oracle(l, lp, m):
    wigner.clear_caches()
    a, b = sorted((l - m, lp - m))
    row = h_tensor(m, max(l, lp))[a + b, (b - a) // 2]
    for t in range(min(l, lp) + 1):
        want = oracles.h_factor_exact(l, lp, l + lp - 2 * t, m)
        if abs(want) > 1e-30:
            assert row[t] == pytest.approx(want, rel=1e-11), (l, lp, t, m)
        else:
            assert abs(row[t]) < 1e-14 * np.max(np.abs(row))
    wigner.clear_caches()


def _h_rows_by_l_recurrence(m, l_max):
    """The store rows of :func:`_store_rows` at m, l_max from the oracle's
    l''-recurrence slices, in batches of pairs with neighbouring l."""
    a, b = np.triu_indices(l_max - m + 1)
    l, lp = m + a, m + b
    rows = np.zeros((len(a), l_max + 1))
    t = np.arange(l_max + 1)
    for lo in range(0, len(a), 1024):
        sl = slice(lo, lo + 1024)
        vals = oracles._h_slices(l[sl], lp[sl], m)  # row r holds l'' = l' - l + r
        r = 2 * (l[sl, None] - t)
        on = r >= 0
        rows[sl] = np.where(on, vals[np.where(on, r, 0), np.arange(len(r))[:, None]], 0.0)
    return rows


@pytest.mark.slow
@pytest.mark.parametrize("m", [1, 40])
def test_store_at_the_cap_matches_the_l_recurrence(m):
    wigner.clear_caches()
    got = _store_rows(h_tensor(m, L_CAP), m, L_CAP)
    _assert_rows_match(got, _h_rows_by_l_recurrence(m, L_CAP), m, L_CAP)
    wigner.clear_caches()


@pytest.mark.slow
def test_descent_to_m_zero_matches_the_closed_form_at_the_cap():
    # every triple of the pairs l <= l' <= L_CAP, descended from its edge
    # to m = 0, against (l l' l''; 0 0 0), entry by entry
    worst = 0.0
    for top in range(L_CAP, -1, -16):
        ls = np.arange(top, max(top - 16, -1), -1)
        pl = np.repeat(ls, L_CAP + 1 - ls)
        plp = np.concatenate([np.arange(l, L_CAP + 1) for l in ls])
        pair = np.repeat(np.arange(len(pl)), pl + 1)
        t = np.arange(len(pair)) - np.repeat(np.cumsum(pl + 1) - pl - 1, pl + 1)
        l, lp = pl[pair], plp[pair]
        want = wigner._three_j_000_slices(pl, plp)[2 * (l - t), pair]
        ((m, n, got),) = wigner._three_j_m_descent(l, lp, l + lp - 2 * t, [0])
        assert m == 0 and n == len(l)
        worst = max(worst, np.max(np.abs(got - want) / np.abs(want)))
    assert worst <= 2e-12


def test_stretched_edges_up_to_the_cap_need_no_rescaling():
    # the m-descent carries g = f / |f(l)|, |g| <= 1 / |f(l)|, with no
    # rescaling: every edge (l l' l''; l -l 0), l <= l' <= L_CAP, is above
    # 1e-122 (the smallest, 8.1e-122, is at l = l' = L_CAP, l'' = 2 L_CAP)
    l, lp = np.triu_indices(L_CAP + 1)
    count = l + 1
    pair = np.repeat(np.arange(len(l)), count)
    t = np.arange(len(pair)) - np.repeat(np.cumsum(count) - count, count)
    l, lp = l[pair], lp[pair]
    lpp = l + lp - 2 * t
    lg = wigner.log_gamma_halves(2 * int(np.max(l + lp + lpp)) + 5)[::2]
    log_edge = 0.5 * (lg[2 * l + 1] + lg[lp + lpp - l + 1] + lg[l + lp + 1]
                      - lg[l + lp + lpp + 2] - lg[l - lp + lpp + 1]
                      - lg[l + lp - lpp + 1] - lg[lp - l + 1])
    assert log_edge.min() > math.log(1e-122)
    assert np.all(log_edge <= 1e-12)


def test_run_rule_takes_few_passes_for_one_m_at_a_time(monkeypatch):
    calls = []
    grow = wigner._grow_stores
    monkeypatch.setattr(wigner, "_grow_stores",
                        lambda m, l_max: calls.append(m) or grow(m, l_max))
    wigner.clear_caches()
    for m in range(41):
        h_tensor(m, 50)
    # runs of 1, 2, 4, 8, 16, ... stores at one cut-off
    assert calls == [0, 1, 3, 7, 15, 31]
    assert sorted(wigner._STORES) == list(range(51))
    wigner.clear_caches()


def test_run_rule_skips_the_stores_past_the_budget(monkeypatch):
    wigner.clear_caches()
    h_tensor(0, 20)
    h_tensor(1, 20)
    assert sorted(wigner._STORES) == [0, 1, 2]

    def size(k):
        return 8 * math.prod(wigner._store_shape(k, 20))

    held = sum(H.nbytes for H in wigner._STORES.values())
    budget = held + size(3) + size(5) + 1
    monkeypatch.setattr(wigner, "_STORE_BUDGET", budget)
    # the run of m = 3 would add 4, 5 and 6: 4 and 6 do not fit
    h_tensor(3, 20)
    assert sorted(wigner._STORES) == [0, 1, 2, 3, 5]
    assert sum(H.nbytes for H in wigner._STORES.values()) <= budget
    assert np.array_equal(wigner._STORES[5], _grown_alone(5, 20))
    wigner.clear_caches()


@pytest.mark.parametrize("m,l_max", [(-1, 4), (5, 3), (0, L_CAP + 1)])
def test_bad_m_fails_loudly(m, l_max):
    wigner.clear_caches()
    h_tensor(0, 8)
    stores = dict(wigner._STORES)
    message = rf"L_CAP = {L_CAP}, got m = {m}, l_max = {l_max}"
    with pytest.raises(ValueError, match=message):
        h_tensor(m, l_max)
    with pytest.raises(ValueError, match=message):
        wigner.couple(m, max(m, 0), l_max, np.ones((2 * l_max + 1, l_max + 1, 1)))
    # no store is made or grown
    assert wigner._STORES.keys() == stores.keys()
    assert all(wigner._STORES[k] is H for k, H in stores.items())
    wigner.clear_caches()


# -- grown H-tensor cache -----------------------------------------------------

def _store_rows(G, m, l_max):
    """The rows of an anti-diagonal store that the blocks of cut-off l_max
    read: one per pair a <= b, over t = 0..l_max.  A prefix view also
    holds rows of pairs past the cut-off, which no block of it reads."""
    n = l_max - m + 1
    a, b = np.triu_indices(n)
    return G[a + b, (b - a) // 2, : l_max + 1]


def _assert_rows_match(got, want, m, l_max):
    """Store rows against reference rows: exact zeros past t = l, and each
    pair within 1e-12 of its slice scale."""
    a, _ = np.triu_indices(l_max - m + 1)
    assert not np.any(got[np.arange(l_max + 1) > (m + a)[:, None]])
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def _store_rows_from_dense(H, m, l_max):
    """The same rows read off a dense tensor with l_start = m."""
    n = l_max - m + 1
    a, b = np.triu_indices(n)
    t = np.arange(l_max + 1)
    k = (2 * m + a + b)[:, None] - 2 * t
    ok = t <= (m + a)[:, None]
    return np.where(ok, H[a[:, None], b[:, None], np.where(ok, k, 0)], 0.0)


@pytest.mark.parametrize("order", [
    [4, 12, 20, 28, 36],            # ascending
    [36, 28, 20, 12, 4],            # descending
    [20, 8, 28, 12, 36, 4, 24],     # interleaved
])
def test_grown_cache_serves_exact_prefixes(order):
    wigner.clear_caches()
    m = 3
    seen = {}

    def reference(l_max):
        return _store_rows_from_dense(oracles.h_tensor_dense(m, m, l_max), m, l_max)

    for l_max in order:
        H = h_tensor(m, l_max)
        assert not H.flags.writeable
        rows = _store_rows(H, m, l_max)
        _assert_rows_match(rows, reference(l_max), m, l_max)
        assert np.array_equal(rows, _store_rows(_grown_alone(m, l_max), m, l_max))
        # a repeated request grows nothing
        assert np.shares_memory(h_tensor(m, l_max), H)
        seen[l_max] = H
    # earlier views stay valid after later growth
    for l_max, H in seen.items():
        assert np.array_equal(_store_rows(H, m, l_max),
                              _store_rows(_grown_alone(m, l_max), m, l_max))
    assert len(wigner._STORES) == 1
    wigner.clear_caches()
    assert not wigner._STORES and not wigner._LAMBDA
    assert not wigner._LGAMMA


@pytest.mark.parametrize("m", [0, 2, 5])
def test_g_store_matches_the_dense_alternating_tensor(m):
    wigner.clear_caches()
    l_max = m + 14
    H = h_tensor(m, l_max)
    dense = oracles.h_tensor_dense(m, m, l_max)
    ls = np.arange(m, l_max + 1)
    k = np.arange(2 * l_max + 1)
    alternating = dense * (-1.0) ** ((ls[:, None, None] + ls[None, :, None] - k) // 2)
    # every entry of every pair, mirrored pairs read the same row; with the
    # (-1)^t of the rotated weight rows it is the dense alternating tensor,
    # to 1e-12 of the pair's slice scale, and zero past the pair's l''
    n = l_max - m + 1
    for a in range(n):
        for b in range(n):
            l, lp = m + a, m + b
            tol = 1e-12 * np.max(np.abs(dense[a, b]))
            for t in range(l_max + 1):
                k = l + lp - 2 * t
                got = H[a + b, abs(a - b) // 2, t]
                if t > min(l, lp):
                    assert got == 0.0
                    continue
                assert abs(got - dense[a, b, k]) <= tol
                assert abs((-1.0) ** t * got - alternating[a, b, k]) <= tol
                # the m = 0 store is the (0 0 0)^2 closed form, bit for bit
                assert m or got == dense[a, b, k]
    # only the parity-allowed half of l'' and one of each mirrored pair
    assert H.nbytes <= dense.nbytes
    # a prefix view holds the rows of a store built at the smaller cut-off,
    # and growing keeps the old entries
    small = h_tensor(m, l_max - 5)
    assert small.shape == (2 * n - 11, (n - 6) // 2 + 1, l_max - 4)
    wigner.clear_caches()
    fresh_small = h_tensor(m, l_max - 5).copy()
    grown = h_tensor(m, l_max + 6)
    assert np.array_equal(_store_rows(small, m, l_max - 5), _store_rows(fresh_small, m, l_max - 5))
    assert np.array_equal(_store_rows(grown, m, l_max), _store_rows(H, m, l_max))
    wigner.clear_caches()


# -- batched growth of every held store ----------------------------------------

_ALONE = {}


def _grown_alone(m, l_max):
    """The store of m at l_max grown alone in a fresh cache; the cache of
    the caller is put back afterwards."""
    key = (m, l_max)
    if key not in _ALONE:
        caches = wigner._STORES, wigner._CREATED
        held = [dict(cache) for cache in caches]
        for cache in caches:
            cache.clear()
        try:
            _ALONE[key] = h_tensor(m, l_max).copy()
        finally:
            for cache, kept in zip(caches, held):
                cache.clear()
                cache.update(kept)
    return _ALONE[key]


def _run_rule_stores(requests):
    """The m whose stores the run rule makes for the requests (m, l_max),
    in order, when the budget allows them all."""
    held, created = set(), {}
    for m, l_max in requests:
        if m not in held:
            c = created.get(l_max, 0)
            new = {m} | {k for k in range(m + 1, min(m + c, l_max) + 1) if k not in held}
            created[l_max] = c + len(new)
            held |= new
    return held


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 44)), min_size=1, max_size=8))
@example([(0, 20), (1, 20), (3, 20), (2, 30), (9, 20), (5, 12)])
def test_batched_growth_in_any_order_matches_stores_grown_alone(requests):
    wigner.clear_caches()
    requests = [(m, max(m, l_max)) for m, l_max in requests]
    views = {}
    for m, l_max in requests:
        views[m, l_max] = h_tensor(m, l_max)
    # growth makes a store only for a requested m and its run
    assert set(wigner._STORES) == _run_rule_stores(requests)
    for (m, l_max), H in views.items():
        assert np.array_equal(_store_rows(H, m, l_max),
                              _store_rows(_grown_alone(m, l_max), m, l_max))
    for m, H in wigner._STORES.items():
        alone = _grown_alone(m, wigner._store_l_max(m, H))
        assert H.shape == alone.shape and np.array_equal(H, alone)
    wigner.clear_caches()


def _log_gamma_fsum(x):
    """log Gamma(x) for an integer or half-integer x > 0, by one exactly
    rounded sum of the logarithms of the recurrence from 1 or 1/2."""
    if x == int(x):
        return math.fsum(math.log(y) for y in range(1, int(x)))
    return math.fsum(list(wigner._LOG_SQRT_PI)
                     + [math.log(y - 0.5) for y in range(1, int(x + 0.5))])


def _three_j_000_lgamma(j1, j2):
    """The closed form of (j1 j2 j; 0 0 0) with each log-gamma value summed
    on its own, the evaluation the table replaces."""
    jmin = np.abs(j1 - j2)
    j = jmin + np.arange(np.max(j1 + j2 - jmin) + 1)[:, None]
    J = j1 + j2 + j
    keep = (j <= j1 + j2) & (J % 2 == 0)
    j = np.where(keep, j, jmin)
    J = j1 + j2 + j
    g = J // 2
    lg = np.array([math.inf] + [_log_gamma_fsum(n) for n in range(1, int(np.max(J)) + 3)])
    log_delta = 0.5 * (lg[J - 2 * j1 + 1] + lg[J - 2 * j2 + 1]
                       + lg[J - 2 * j + 1] - lg[J + 2])
    log_ratio = lg[g + 1] - lg[g - j1 + 1] - lg[g - j2 + 1] - lg[g - j + 1]
    return np.where(keep, (1.0 - 2.0 * (g % 2)) * np.exp(log_delta + log_ratio), 0.0)


@pytest.mark.parametrize("l_max", [5, 44, 130])
def test_three_j_000_table_is_bit_equal_to_gammaln(l_max):
    wigner.clear_caches()
    a, b = np.triu_indices(l_max + 1)
    got = wigner._three_j_000_slices(a, b)
    want = _three_j_000_lgamma(a, b)
    assert got.tobytes() == want.tobytes()
    wigner.clear_caches()


def test_log_gamma_table_matches_gammaln():
    # every k/2 the closed forms read, at every cut-off up to L_CAP: the
    # stretched top reads integers up to 4 l_max + 2 and the static kernel
    # half-integers up to 2 l_max + 1/2
    wigner.clear_caches()
    k = np.arange(1, 8 * L_CAP + 17)
    got = wigner.log_gamma_halves(len(k) + 1)[k]
    want = gammaln(0.5 * k)
    zero = want == 0.0  # x = 1 and x = 2
    assert np.array_equal(np.flatnonzero(zero), [1, 3])
    assert np.all(got[zero] == 0.0)
    rel = np.abs(got - want)[~zero] / np.abs(want[~zero])
    assert rel.max() <= 2e-15
    assert wigner.log_gamma_halves(1)[0] == math.inf
    wigner.clear_caches()


def test_log_gamma_table_is_within_one_ulp():
    wigner.clear_caches()
    k = np.arange(1, 8 * L_CAP + 17)
    got = wigner.log_gamma_halves(len(k) + 1)[k]
    with mpmath.workdps(40):
        want = np.array([float(mpmath.loggamma(mpmath.mpf(int(i)) / 2)) for i in k])
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
    # the fsum reference of the bit-equality test, one entry at a time
    assert all(got[i] == _log_gamma_fsum(x) for i, x in enumerate(0.5 * k))
    wigner.clear_caches()


def test_log_gamma_table_is_one_growing_array():
    wigner.clear_caches()
    small = wigner.log_gamma_halves(10)
    assert not small.flags.writeable
    assert wigner.log_gamma_halves(5) is small
    big = wigner.log_gamma_halves(len(small) + 1)
    assert len(big) >= 2 * len(small)
    assert np.array_equal(big[:len(small)], small)
    assert wigner.log_gamma_halves(len(small)) is big
    wigner.clear_caches()


def test_one_growth_pass_per_cut_off(monkeypatch):
    # the request pattern of a Matsubara sweep: every m block up to m = 12
    # at each l_max step; the per-m growth made 131 passes for it
    calls = []
    grow = wigner._grow_stores

    def counted(m, l_max):
        calls.append((m, l_max))
        return grow(m, l_max)

    monkeypatch.setattr(wigner, "_grow_stores", counted)
    wigner.clear_caches()
    for l_max in range(4, 45, 4):
        for m in range(min(12, l_max) + 1):
            h_tensor(m, l_max)
    assert len(calls) <= 25
    assert sorted(wigner._STORES) == list(range(13))
    assert all(wigner._store_l_max(m, H) == 44 for m, H in wigner._STORES.items())
    wigner.clear_caches()


def test_store_budget_refuses_growth_without_changing_the_cache(monkeypatch):
    wigner.clear_caches()
    views = {m: h_tensor(m, 10) for m in range(4)}
    stores = dict(wigner._STORES)
    held = sum(H.nbytes for H in stores.values())
    monkeypatch.setattr(wigner, "_STORE_BUDGET", held + 1000)
    with pytest.raises(MemoryError, match=r"m = 2, l_max = 20 .* \d+ bytes"):
        h_tensor(2, 20)
    assert wigner._STORES.keys() == stores.keys()
    assert all(wigner._STORES[m] is H for m, H in stores.items())
    assert all(np.shares_memory(h_tensor(m, 10), H) for m, H in views.items())
    # a request inside the held cut-offs needs no growth and is served
    assert np.array_equal(h_tensor(1, 7), _grown_alone(1, 10)[: 13, : 4, : 8])
    wigner.clear_caches()
