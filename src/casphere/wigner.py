r"""Wigner 3j symbols and the geometric coupling factors of the translation
formulas.

The sphere-plane translation matrices need two 3j patterns only,
``(l l' l''; 0 0 0)`` and ``(l l' l''; m -m 0)``, combined into

.. math::
    H_{ll'}^{l''} = \sqrt{(2l+1)(2l'+1)}\,(2l''+1)
        \begin{pmatrix} l & l' & l''\\ 0&0&0\end{pmatrix}
        \begin{pmatrix} l & l' & l''\\ m&-m&0\end{pmatrix}.

The parity pattern ``(0 0 0)`` has a cancellation-free closed form used at
every l.  The ``(m -m 0)`` pattern comes, at every l, from the three-term
recurrence in l'' (Schulten and Gordon, J. Math. Phys. 16, 1961 (1975);
Luscombe and Luban, Phys. Rev. E 57, 7274 (1998)): two-sided, matched in
the classical region, normalized by the sum rule and signed at the
stretched top.  It runs as numpy operations over many (l, l') pairs at
once; the only interpreted loop is over the l'' index.  Each pair's
slice is computed by elementwise operations only, so it does not depend on
which other pairs share its batch.  The Racah sum serves only the general
m patterns of :func:`three_j`, up to ``RACAH_L_MAX``, where its
alternating sum is still accurate.

One coupling store per m serves every kernel, the imaginary-axis,
electromagnetic and rotated blocks alike: :func:`h_tensor` keeps H by
anti-diagonal l + l' = const, with only the parity-allowed l'' and one of
each (l, l') pair and its mirror (l', l).  It is grown when a larger
cut-off is requested and read by smaller cut-offs as prefix views.  Every
l'' sum of a block, ``sum_l'' H_{ll'}^{l''} B_{l''}``, depends on the
frequency only through rows of weights indexed by l + l' and l'', so the
sums of a whole block are one matrix product of the store with those rows
(:func:`couple`).
"""

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

#: largest momentum for which the float Racah sum of the general m
#: patterns is trusted; measured against exact rational arithmetic the
#: alternating sum holds 1e-10 relative accuracy only up to l ~ 20
RACAH_L_MAX = 16

#: the recurrences rescale a slice once a value passes this magnitude
_RESCALE = 1e250

#: largest (l'' count) x (pair count) computed in one batch, which bounds
#: the work arrays of a tensor build to a few MB each
_BATCH_ENTRIES = 1 << 18

_lf = math.lgamma  # log factorial via lgamma(n+1)


def _logfac(n):
    return _lf(n + 1)


def _triangle_ok(j1, j2, j3):
    return abs(j1 - j2) <= j3 <= j1 + j2


def _three_j_racah(j1, j2, j3, m1, m2, m3):
    """Racah single-sum formula with log-factorials and compensated sum."""
    t1 = j2 - m1 - j3
    t2 = j1 + m2 - j3
    t3 = j1 + j2 - j3
    t4 = j1 - m1
    t5 = j2 + m2
    tmin = max(0, t1, t2)
    tmax = min(t3, t4, t5)
    terms = []
    for t in range(tmin, tmax + 1):
        lg = (_logfac(t) + _logfac(t - t1) + _logfac(t - t2)
              + _logfac(t3 - t) + _logfac(t4 - t) + _logfac(t5 - t))
        terms.append((-1.0) ** t * math.exp(-lg))
    s = math.fsum(terms)
    log_pref = 0.5 * (_logfac(j1 + j2 - j3) + _logfac(j1 - j2 + j3)
                      + _logfac(-j1 + j2 + j3) - _logfac(j1 + j2 + j3 + 1)
                      + _logfac(j1 + m1) + _logfac(j1 - m1)
                      + _logfac(j2 + m2) + _logfac(j2 - m2)
                      + _logfac(j3 + m3) + _logfac(j3 - m3))
    return (-1.0) ** (j1 - j2 - m3) * math.exp(log_pref) * s


def _log_three_j_top(j1, j2, m):
    """log |3j(j1 j2 j1+j2; m -m 0)| at the stretched top; sign is (-1)^(j1-j2)."""
    return 0.5 * (_logfac(2 * j1) + _logfac(2 * j2) + 2.0 * _logfac(j1 + j2)
                  - _logfac(2 * j1 + 2 * j2 + 1)
                  - _logfac(j1 - m) - _logfac(j1 + m)
                  - _logfac(j2 - m) - _logfac(j2 + m))


def _parity_sign(k):
    """(-1)^k for an integer array."""
    return 1.0 - 2.0 * (k % 2)


def _three_j_000_slices(j1, j2):
    """(j1 j2 j; 0 0 0) for arrays of pairs, by the closed form.

    Returns a (W, P) array whose row t holds j = |j1-j2| + t; entries past
    j1 + j2 and those with odd j1 + j2 + j are zero.
    """
    jmin = np.abs(j1 - j2)
    t = np.arange(np.max(j1 + j2 - jmin) + 1)[:, None]
    j = jmin + t
    J = j1 + j2 + j
    keep = (j <= j1 + j2) & (J % 2 == 0)
    j = np.where(keep, j, jmin)
    J = j1 + j2 + j
    g = J // 2
    log_delta = 0.5 * (gammaln(J - 2 * j1 + 1) + gammaln(J - 2 * j2 + 1)
                       + gammaln(J - 2 * j + 1) - gammaln(J + 2))
    log_ratio = gammaln(g + 1) - gammaln(g - j1 + 1) - gammaln(g - j2 + 1) \
        - gammaln(g - j + 1)
    return np.where(keep, _parity_sign(g) * np.exp(log_delta + log_ratio), 0.0)


def _three_j_m_slices(j1, j2, m):
    """(j1 j2 j; m -m 0) for arrays of pairs, by the l''-recurrence.

    ``j A(j+1) f(j+1) + B(j) f(j) + (j+1) A(j) f(j-1) = 0`` runs forward
    from j_min while the minimal solution grows and backward from j_max
    (where A(j_max+1) = 0); the two are matched in the classical region,
    normalized with ``sum_j (2j+1) f(j)^2 = 1`` and signed at the
    stretched top.  Every pair has its own start and stop points, held in
    masks.  Requires ``1 <= |m| <= min(j1, j2)``, so each slice has at
    least three entries.

    Returns a (W, P) array laid out as in :func:`_three_j_000_slices`.
    """
    jmin = np.abs(j1 - j2)
    n = j1 + j2 - jmin + 1
    W = int(np.max(n))
    P = len(j1)
    # coefficients on the rows i = 0..W-1, j = jmin + i
    j = jmin + np.arange(W + 1)[:, None]
    A2 = (j * j - (j1 - j2) ** 2) * ((j1 + j2 + 1) ** 2 - j * j)
    jf = j.astype(float)
    A = jf * np.sqrt(np.maximum(A2, 0).astype(float))
    B = -(2.0 * jf + 1.0) * (2.0 * m) * jf * (jf + 1.0)
    C = (jf[:-1] + 1.0) * A[:-1]   # (j+1) A(j)
    D = jf[:-1] * A[1:]            # j A(j+1)
    B = B[:-1]
    rows = np.arange(W)[:, None]
    cols = np.arange(P)
    with np.errstate(divide="ignore", invalid="ignore"):
        fa, fb = -B / D, -C / D    # f(j+1) = fa f(j) + fb f(j-1)
        ga, gb = -B / C, -D / C    # g(j-1) = ga g(j) + gb g(j+1)

    f = np.zeros((W, P))
    seeded = jmin == 0  # j1 == j2: the j = 0 relation is empty
    s = _parity_sign(j1 - m)
    f[0] = np.where(seeded, s / np.sqrt(2.0 * j1 + 1.0), 1.0)
    f[1] = np.where(seeded, s * m / np.sqrt(j1 * (j1 + 1.0) * (2.0 * j1 + 1.0)), 0.0)
    istart = seeded.astype(int)
    ifwd = istart.copy()
    falling = np.zeros(P, dtype=int)
    running = istart <= n - 2
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(W - 1):
            act = running & (i >= istart)
            if not act.any():
                continue
            prev = f[i - 1] if i > 0 else 0.0
            np.copyto(f[i + 1], fa[i] * f[i] + fb[i] * prev, where=act)
            ifwd[act] = i + 1
            big = act & (np.abs(f[i + 1]) > _RESCALE)
            if big.any():
                f[:, big] /= np.abs(f[i + 1, big])
            # three consecutive decreases mark the classical region (a
            # single dip can be an accidental zero of the growing solution)
            dec = np.abs(f[i + 1]) < np.abs(f[i])
            falling = np.where(act, np.where(dec, falling + 1, 0), falling)
            running &= (i + 1 <= n - 2) & ~((i > istart) & (falling >= 3))

        g = np.zeros((W, P))
        g[n - 1, cols] = 1.0
        # the backward sweep overlaps the last four forward values, all
        # past the forward peak, so that the match never rests on a single
        # point next to a zero crossing
        ibwd = np.maximum(np.minimum(ifwd, n - 2) - 3, 0)
        for i in range(W - 1, 0, -1):
            act = (i <= n - 1) & (i > ibwd)
            if not act.any():
                continue
            nxt = g[i + 1] if i < W - 1 else 0.0
            np.copyto(g[i - 1], ga[i] * g[i] + gb[i] * nxt, where=act)
            big = act & (np.abs(g[i - 1]) > _RESCALE)
            if big.any():
                g[:, big] /= np.abs(g[i - 1, big])

    # match where both sweeps are farthest from an accidental zero
    q = np.where((rows >= ibwd) & (rows <= ifwd), np.minimum(np.abs(f), np.abs(g)), -1.0)
    k = np.argmax(q, axis=0)
    ok = q[k, cols] > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(ok, g[k, cols] / f[k, cols], 0.0)
    out = np.where(ok & (rows < k), f * ratio, g)
    # row by row, so that zero padding past a pair's j_max changes nothing
    norm = np.zeros(P)
    for i in range(W):
        norm += (2.0 * j[i] + 1.0) * out[i] * out[i]
    out /= np.sqrt(norm)
    out *= np.where(out[n - 1, cols] * _parity_sign(j1 - j2) < 0.0, -1.0, 1.0)
    return out


def _h_slices(l, lp, m):
    """H_{l l'}^{l''} for arrays of pairs, as a (W, P) array whose row t
    holds l'' = |l-l'| + t (zero past l + l')."""
    l = np.asarray(l, dtype=np.int64)
    lp = np.asarray(lp, dtype=np.int64)
    w0 = _three_j_000_slices(l, lp)
    wm = w0 if m == 0 else _three_j_m_slices(l, lp, m)
    js = np.abs(l - lp) + np.arange(w0.shape[0])[:, None]
    pref = np.sqrt((2.0 * l + 1.0) * (2.0 * lp + 1.0))
    return pref * (2.0 * js + 1.0) * w0 * wm


@lru_cache(maxsize=200000)
def _slice_m(j1, j2, m):
    """Cached l'' slice of 3j(j1 j2 .; m -m 0), as a read-only array."""
    j1s, j2s = np.array([j1]), np.array([j2])
    vals = _three_j_000_slices(j1s, j2s) if m == 0 else _three_j_m_slices(j1s, j2s, m)
    vals = vals[: j1 + j2 - abs(j1 - j2) + 1, 0]
    vals.flags.writeable = False
    return vals


def three_j(j1, j2, j3, m1, m2, m3):
    """Wigner 3j symbol for the patterns (0,0,0) and (m,-m,0).

    Out-of-domain inputs (triangle violation, |m| > j, m1+m2+m3 != 0)
    return 0 by convention.  Other m patterns are supported through the
    Racah sum up to ``RACAH_L_MAX`` and rejected beyond.
    """
    if m1 + m2 + m3 != 0:
        return 0.0
    if not _triangle_ok(j1, j2, j3):
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    if m3 == 0 and m1 == -m2:
        return float(_slice_m(j1, j2, m1)[j3 - abs(j1 - j2)])
    if max(j1, j2, j3) <= RACAH_L_MAX:
        return _three_j_racah(j1, j2, j3, m1, m2, m3)
    raise NotImplementedError(
        "general m patterns are only available up to l = RACAH_L_MAX")


def h_factor(l, lp, lpp, m):
    """Geometric coupling H_{l l'}^{l''} for azimuthal index m.

    Zero outside the triangle domain and for odd l+l'+l''.
    """
    w0 = three_j(l, lp, lpp, 0, 0, 0)
    if w0 == 0.0:
        return 0.0
    wm = three_j(l, lp, lpp, m, -m, 0)
    return math.sqrt((2.0 * l + 1.0) * (2.0 * lp + 1.0)) * (2.0 * lpp + 1.0) * w0 * wm


def h_slice(l, lp, m):
    """H_{l l'}^{l''} over l'' = |l-l'| .. l+l' as an array.

    |m| <= min(l, l'); the values equal the entries of :func:`h_tensor`
    exactly.
    """
    return _h_slices([l], [lp], abs(m))[: l + lp - abs(l - lp) + 1, 0]


_STORES = {}       # m -> anti-diagonal store at the largest l_max seen
_STORE_VIEWS = {}  # (m, l_max) -> prefix view of it
_LAMBDA = {}       # the weight table of lambda_tensor at the largest l_max seen


def _new_pairs(n, n_old, l_max):
    """The pairs a <= b < n with b >= n_old, in batches of at most
    ``_BATCH_ENTRIES`` slice entries."""
    b, a = np.nonzero(np.tri(n, dtype=bool)[n_old:])
    b += n_old
    step = max(1, _BATCH_ENTRIES // (2 * l_max + 1))
    for lo in range(0, len(a), step):
        yield a[lo: lo + step], b[lo: lo + step]


def _grow_store(old, m, l_max):
    """The store of :func:`h_tensor` at l_max, keeping the entries of the
    smaller store ``old`` (or None) and computing only the new pairs."""
    n = l_max - m + 1
    H = np.zeros((2 * n - 1, (n - 1) // 2 + 1, l_max + 1))
    n_old = 0
    if old is not None:
        n_old = (old.shape[0] + 1) // 2
        H[: old.shape[0], : old.shape[1], : old.shape[2]] = old
    for aa, bb in _new_pairs(n, n_old, l_max):
        l, lp = m + aa, m + bb
        vals = _h_slices(l, lp, m)  # row r holds l'' = l' - l + r
        # l'' = l + l' - 2t sits in row r = 2 (l - t), for t = 0..l
        t = np.arange(vals.shape[0] // 2 + 1)[:, None]
        keep = t <= l
        r = np.where(keep, 2 * (l - t), 0)
        H[np.broadcast_to(aa + bb, keep.shape)[keep],
          np.broadcast_to((bb - aa) // 2, keep.shape)[keep],
          np.broadcast_to(t, keep.shape)[keep]] = vals[r, np.arange(len(aa))][keep]
    H.flags.writeable = False
    return H


def h_tensor(m, l_max):
    """Anti-diagonal coupling store ``H[s, j, t]`` for l, l' in m..l_max.

    With a = l - m <= b = l' - m, the pair (a, b) sits on the anti-diagonal
    s = a + b at j = (b - a) // 2, and ``H[s, j, t] = H_{l l'}^{l''}`` with
    l'' = l + l' - 2t; t runs over 0..l_max, and entries past t = l or with
    b > l_max - m are zero.  H is symmetric in (l, l'), so (b, a) reads the
    entry of (a, b), and the odd l + l' + l'' the parity rule zeroes are
    not stored.  The blocks read the store through :func:`couple`.

    One store per m is kept, at the largest l_max requested so far.  A
    larger l_max grows it: the old entries are copied and only the new
    (l, l') pairs are computed.  A smaller l_max is served as the prefix
    view ``H[:2n-1, :(n-1)//2+1, :l_max+1]`` with n = l_max - m + 1, whose
    entries for the pairs of the smaller block are those of the full
    store (it also holds rows of pairs past its cut-off, which no block of
    it reads).  Each view is memoized, so a repeated request returns the
    same read-only object.  Population is idempotent, so concurrent first
    use is safe.
    """
    key = (m, l_max)
    out = _STORE_VIEWS.get(key)
    if out is not None:
        return out
    H = _STORES.get(m)
    n = l_max - m + 1
    if H is None or H.shape[0] < 2 * n - 1:
        if H is not None:
            # views of the replaced store would keep it alive
            for lm in range(m, m + (H.shape[0] + 1) // 2):
                _STORE_VIEWS.pop((m, lm), None)
        H = _grow_store(H, m, l_max)
        _STORES[m] = H
    out = H[: 2 * n - 1, : (n - 1) // 2 + 1, : l_max + 1]
    _STORE_VIEWS[key] = out
    return out


@lru_cache(maxsize=64)
def shift_index(l_max):
    """Order ``s - 2t`` of the l'' that the store pairs with ``H[., ., t]``
    on the anti-diagonal of l + l' = s, over s = 0..2 l_max and
    t = 0..l_max, clipped at 0, and where it is valid (s - 2t >= 0).

    A block's weight rows ``V[s, t] = w_{s-2t}`` are gathered with it."""
    k = np.arange(2 * l_max + 1)[:, None] - 2 * np.arange(l_max + 1)[None, :]
    valid = k >= 0
    k = np.maximum(k, 0)
    k.flags.writeable = False
    valid.flags.writeable = False
    return k, valid


@lru_cache(maxsize=256)
def _entry_index(a0, n, width):
    """Flat index ``(a + b) * width + |a - b| // 2`` of the block entry
    (a, b), a, b = a0..a0+n-1, in the (s, j) rows of a store ``width``
    wide."""
    a = np.arange(a0, a0 + n)
    idx = (a[:, None] + a[None, :]) * width + np.abs(a[:, None] - a[None, :]) // 2
    idx.flags.writeable = False
    return idx


def couple(m, l_start, l_max, rows):
    """The l'' sums of one block, ``S[a, b, c] = sum_t H_{l l'}^{l+l'-2t}
    rows[l + l', t, c]`` for l = l_start + a, l' = l_start + b <= l_max
    and azimuthal index m <= l_start, as one batched matrix product of the
    store of :func:`h_tensor` with the rows.

    ``rows`` is a real (2 l_max + 1, l_max + 1, columns) array whose row s
    holds the weights of l'' = s - 2t (see :func:`shift_index`), one
    column per table; a complex table enters as the (re, im) column pairs
    of its float view.  Returns a (n, n, columns) array.
    """
    H = h_tensor(m, l_max)
    sums = np.matmul(H, rows[2 * m:])
    idx = _entry_index(l_start - m, l_max - l_start + 1, H.shape[1])
    return sums.reshape(-1, sums.shape[2])[idx]


def lambda_tensor(l_max):
    """The weights ``t (2s + 1 - 2t)`` over s = 0..2 l_max, t = 0..l_max.

    With s = l + l' and l'' = s - 2t, the polarization-diagonal factor is
    ``Lambda_{ll'}^{l''} = (l l' - t (2s + 1 - 2t)) / sqrt(l(l+1) l'(l'+1))``,
    so the Lambda-weighted l'' sum of an electromagnetic block is
    ``(l l' S - S_w) / sqrt(l(l+1) l'(l'+1))``, with S_w the sum over
    weight rows multiplied by these.  One table is kept, at the largest
    l_max requested so far, and read as prefix views.
    """
    W = _LAMBDA.get("table")
    if W is None or W.shape[1] <= l_max:
        s = np.arange(2 * l_max + 1, dtype=float)[:, None]
        t = np.arange(l_max + 1, dtype=float)[None, :]
        W = t * (2.0 * s + 1.0 - 2.0 * t)
        W.flags.writeable = False
        _LAMBDA["table"] = W
    return W[: 2 * l_max + 1, : l_max + 1]


def log_h_top_matrix(l_start, l_max, m):
    """log H_{l l'}^{l+l'} (stretched top) as a dense (n, n) matrix.

    The two stretched-top 3j signs cancel, so H_top > 0 and a pure log
    matrix suffices.  Used by the static (zero-frequency) kernel where only
    l'' = l+l' survives.
    """
    ls = np.arange(l_start, l_max + 1, dtype=float)
    l = ls[:, None]
    lp = ls[None, :]
    common = 0.5 * (gammaln(2 * l + 1) + gammaln(2 * lp + 1)
                    + 2.0 * gammaln(l + lp + 1) - gammaln(2 * l + 2 * lp + 2))
    log3j0 = common - gammaln(l + 1) - gammaln(lp + 1)
    log3jm = common - 0.5 * (gammaln(l - m + 1) + gammaln(l + m + 1)
                             + gammaln(lp - m + 1) + gammaln(lp + m + 1))
    return 0.5 * (np.log(2 * l + 1) + np.log(2 * lp + 1)) \
        + np.log(2 * (l + lp) + 1) + log3j0 + log3jm


def clear_caches():
    """Drop all cached tensors and slices (mainly for tests)."""
    _STORES.clear()
    _STORE_VIEWS.clear()
    _LAMBDA.clear()
    _slice_m.cache_clear()
