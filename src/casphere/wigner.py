r"""Wigner 3j symbols and the geometric coupling factors of the translation
formulas.

The sphere-plane translation matrices need two 3j patterns only,
``(l l' l''; 0 0 0)`` and ``(l l' l''; m -m 0)``, combined into

.. math::
    H_{ll'}^{l''} = \sqrt{(2l+1)(2l'+1)}\,(2l''+1)
        \begin{pmatrix} l & l' & l''\\ 0&0&0\end{pmatrix}
        \begin{pmatrix} l & l' & l''\\ m&-m&0\end{pmatrix}.

Two 3j routes remain, both vectorized over many (l, l') pairs.  The
parity pattern ``(0 0 0)`` has a cancellation-free closed form, whose
log-factorials are read from one cached table of ``log Gamma(k/2)``
(:func:`log_gamma_halves`), which also serves the stretched top and the
static kernel.  The
``(m -m 0)`` pattern comes, at every l, from the three-term recurrence in
l'' (Schulten and Gordon, J. Math. Phys. 16, 1961 (1975); Luscombe and
Luban, Phys. Rev. E 57, 7274 (1998)): two-sided, matched in the classical
region, normalized by the sum rule and signed at the stretched top.  Each
pair carries its own m; the only interpreted loop is over the l'' index.
Each pair's slice is computed by elementwise operations only, so it does
not depend on which other pairs share its batch.  The stretched top
``l'' = l + l'`` of the static kernel has its own closed form
(:func:`log_h_top_matrix`).

One coupling store per m serves every kernel, the imaginary-axis,
electromagnetic and rotated blocks alike: :func:`h_tensor` keeps H by
anti-diagonal l + l' = const, with only the parity-allowed l'' and one of
each (l, l') pair and its mirror (l', l).  A request past a store's
cut-off grows that store and every other held store below the new cut-off
in one batched pass of the recurrence; smaller cut-offs are read as
prefix views.  The stores together may not pass ``_STORE_BUDGET`` bytes; a
growth that would raises ``MemoryError`` before it allocates anything.
Every l'' sum of a block, ``sum_l'' H_{ll'}^{l''} B_{l''}``, depends on the
frequency only through rows of weights indexed by l + l' and l'', so the
sums of a whole block are one matrix product of the store with those rows
(:func:`couple`).
"""

import math
from functools import lru_cache

import numpy as np

#: the recurrences rescale a slice once a value passes this magnitude
_RESCALE = 1e250

#: largest (l'' count) x (pair count) computed in one batch, which bounds
#: the work arrays of a growth pass to a few hundred kB each
_BATCH_ENTRIES = 1 << 15

#: largest number of bytes the coupling stores may hold together (all m
#: at l_max 104 take 314 MiB, all m at l_max 200 take 4.2 GiB)
_STORE_BUDGET = 2 << 30

def _parity_sign(k):
    """(-1)^k for an integer array."""
    return 1.0 - 2.0 * (k % 2)


#: log Gamma(1/2) = log(pi)/2 as the unevaluated sum of two doubles
_LOG_SQRT_PI = (0.5723649429247001, 5.132975581353913e-18)

_LGAMMA = {}  # the table of log_gamma_halves at the largest size seen


def log_gamma_halves(size):
    """``log Gamma(k/2)`` for k = 0..size-1 at least, as a read-only array.

    Every log-gamma argument of the closed forms is an integer or a
    half-integer x, read as ``table[2x]``; ``table[::2]`` reads integers
    directly.  Entry 0 (the pole) is +inf.  The entries run up the
    recurrence ``log Gamma(x+1) = log Gamma(x) + log x`` from x = 1/2 and
    x = 1, each running sum carried in two doubles (Knuth's TwoSum), so
    every entry is the exactly rounded sum of its ``math.log`` terms: within
    one unit in the last place of log Gamma up to k = 1616, where libm's
    ``lgamma`` is off by up to three.  One table is kept; a larger request
    at least doubles it."""
    table = _LGAMMA.get("table")
    if table is None or len(table) < size:
        size = max(size, 3, 2 * len(table) if table is not None else 0)
        table = np.empty(size)
        table[0] = math.inf
        for k, (hi, lo) in ((1, _LOG_SQRT_PI), (2, (0.0, 0.0))):
            table[k] = hi + lo
            for j in range(k + 2, size, 2):
                x = math.log(0.5 * (j - 2))
                s = hi + x
                t = s - hi
                lo += (hi - (s - t)) + (x - t)
                hi = s
                table[j] = hi + lo
        table.flags.writeable = False
        _LGAMMA["table"] = table
    return table


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
    lg = log_gamma_halves(2 * int(np.max(J)) + 5)[::2]
    log_delta = 0.5 * (lg[J - 2 * j1 + 1] + lg[J - 2 * j2 + 1]
                       + lg[J - 2 * j + 1] - lg[J + 2])
    log_ratio = lg[g + 1] - lg[g - j1 + 1] - lg[g - j2 + 1] - lg[g - j + 1]
    return np.where(keep, _parity_sign(g) * np.exp(log_delta + log_ratio), 0.0)


def _three_j_m_slices(j1, j2, m):
    """(j1 j2 j; m -m 0) for arrays of pairs, by the l''-recurrence.

    ``j A(j+1) f(j+1) + B(j) f(j) + (j+1) A(j) f(j-1) = 0`` runs forward
    from j_min while the minimal solution grows and backward from j_max
    (where A(j_max+1) = 0); the two are matched in the classical region,
    normalized with ``sum_j (2j+1) f(j)^2 = 1`` and signed at the
    stretched top.  Every pair has its own m, start and stop points, held
    in arrays and masks.  Requires ``1 <= |m| <= min(j1, j2)``, so each
    slice has at least three entries.

    Returns a (W, P) array laid out as in :func:`_three_j_000_slices`.
    """
    jmin = np.abs(j1 - j2)
    n = j1 + j2 - jmin + 1
    W = int(np.max(n))
    P = len(j1)
    # coefficients on the rows i = 0..W-1, j = jmin + i; every work array
    # is updated in place and dropped after its last use
    j = jmin + np.arange(W + 1)[:, None]
    jf = j.astype(float)
    A = j * j
    np.subtract(A, (j1 - j2) ** 2, out=A)
    np.multiply(j, j, out=j)
    np.subtract((j1 + j2 + 1) ** 2, j, out=j)
    A *= j
    del j
    np.maximum(A, 0, out=A)
    A = np.sqrt(A.astype(float))
    A *= jf                        # A(j) = j sqrt(...)
    jf = jf[:-1]
    C = jf + 1.0
    C *= A[:-1]                    # (j+1) A(j)
    D = A[1:]
    D *= jf                        # j A(j+1)
    del A
    B = 2.0 * jf
    B += 1.0
    np.negative(B, out=B)
    B *= 2.0 * m
    B *= jf
    jf += 1.0
    B *= jf                        # B(j) = -(2j+1) 2m j (j+1)
    del jf
    np.negative(B, out=B)
    with np.errstate(divide="ignore", invalid="ignore"):
        fa = B / D                 # f(j+1) = fa f(j) + fb f(j-1)
        ga = np.divide(B, C, out=B)  # g(j-1) = ga g(j) + gb g(j+1)
        fb = np.negative(C) / D
        gb = np.negative(D, out=D)
        gb /= C
    del B, C, D

    cols = np.arange(P)
    f = np.zeros((W, P))
    seeded = jmin == 0  # j1 == j2: the j = 0 relation is empty
    s = _parity_sign(j1 - m)
    f[0] = np.where(seeded, s / np.sqrt(2.0 * j1 + 1.0), 1.0)
    f[1] = np.where(seeded, s * m / np.sqrt(j1 * (j1 + 1.0) * (2.0 * j1 + 1.0)), 0.0)
    istart = seeded.astype(int)
    ifwd = istart.copy()
    falling = np.zeros(P, dtype=int)
    running = istart <= n - 2
    mag = np.abs(f[0])  # |f[i]| at the top of step i
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(W - 1):
            # istart is 0 or 1: only the first step leaves seeded pairs out
            act = running & ~seeded if i == 0 else running
            if not act.any():
                if i:
                    break  # a pair that stops running never restarts
                mag = np.abs(f[1])
                continue
            prev = f[i - 1] if i > 0 else 0.0
            np.copyto(f[i + 1], fa[i] * f[i] + fb[i] * prev, where=act)
            np.copyto(ifwd, i + 1, where=act)
            nxt = np.abs(f[i + 1])
            big = act & (nxt > _RESCALE)
            if big.any():
                f[:, big] /= nxt[big]
                mag, nxt = np.abs(f[i]), np.abs(f[i + 1])
            # three consecutive decreases mark the classical region (a
            # single dip can be an accidental zero of the growing solution);
            # the count of a pair that is not running is never read again
            falling += 1
            falling *= nxt < mag
            stopped = falling >= 3
            if i <= 1:
                falling *= act
                stopped &= i > istart
            running &= (i + 1 <= n - 2) & ~stopped
            mag = nxt
        del fa, fb

        g = np.zeros((W, P))
        g[n - 1, cols] = 1.0
        # the backward sweep overlaps the last four forward values, all
        # past the forward peak, so that the match never rests on a single
        # point next to a zero crossing
        ibwd = np.maximum(np.minimum(ifwd, n - 2) - 3, 0)
        rows = np.arange(W)[:, None]
        sweep = (rows <= n - 1) & (rows > ibwd)
        for i in range(W - 1, int(ibwd.min()), -1):
            act = sweep[i]
            if not act.any():
                continue
            nxt = g[i + 1] if i < W - 1 else 0.0
            np.copyto(g[i - 1], ga[i] * g[i] + gb[i] * nxt, where=act)
            mag = np.abs(g[i - 1])
            big = act & (mag > _RESCALE)
            if big.any():
                g[:, big] /= mag[big]
        del ga, gb, sweep

    # match where both sweeps are farthest from an accidental zero
    q = np.minimum(np.abs(f), np.abs(g))
    q[(rows < ibwd) | (rows > ifwd)] = -1.0
    k = np.argmax(q, axis=0)
    ok = q[k, cols] > 0.0
    del q
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(ok, g[k, cols] / f[k, cols], 0.0)
    f *= ratio
    out = g
    np.copyto(out, f, where=ok & (rows < k))
    del f
    # row by row, so that zero padding past a pair's j_max changes nothing
    sq = 2.0 * (jmin + rows) + 1.0
    sq *= out
    sq *= out
    norm = np.zeros(P)
    for i in range(W):
        norm += sq[i]
    del sq
    out /= np.sqrt(norm)
    out *= np.where(out[n - 1, cols] * _parity_sign(j1 - j2) < 0.0, -1.0, 1.0)
    return out


def _h_slices(l, lp, m):
    """H_{l l'}^{l''} for arrays of pairs and their m (an array or one
    value), as a (W, P) array whose row t holds l'' = |l-l'| + t (zero past
    l + l')."""
    l = np.asarray(l, dtype=np.int64)
    lp = np.asarray(lp, dtype=np.int64)
    m = np.broadcast_to(np.asarray(m, dtype=np.int64), l.shape)
    # the (0 0 0) factors depend on the pair only: once per distinct pair
    _, first, pair = np.unique(l * (np.max(lp, initial=0) + 1) + lp,
                               return_index=True, return_inverse=True)
    l0, lp0 = l[first], lp[first]
    w0 = _three_j_000_slices(l0, lp0)
    js = np.abs(l0 - lp0) + np.arange(w0.shape[0])[:, None]
    pref = np.sqrt((2.0 * l0 + 1.0) * (2.0 * lp0 + 1.0))
    out = (pref * (2.0 * js + 1.0) * w0)[:, pair]
    del js
    # the m = 0 slices take (0 0 0) twice; the others the recurrence, whose
    # rows past the widest slice among them are zero in w0 already
    zero = m == 0
    out[:, zero] *= w0[:, pair[zero]]
    del w0
    rest = np.flatnonzero(~zero)
    if len(rest):
        wm = _three_j_m_slices(l[rest], lp[rest], m[rest])
        out[: wm.shape[0], rest] *= wm
    return out


_STORES = {}       # m -> anti-diagonal store at the largest l_max seen
_STORE_VIEWS = {}  # (m, l_max) -> prefix view of it
_LAMBDA = {}       # the weight table of lambda_tensor at the largest l_max seen
_TOP = {}          # m -> log_h_top_matrix table from l = m at the largest l_max seen


def _store_shape(m, l_max):
    n = l_max - m + 1
    return (2 * n - 1, (n - 1) // 2 + 1, l_max + 1)


def _store_l_max(m, H):
    return m + (H.shape[0] + 1) // 2 - 1


def _grow_stores(m, l_max):
    """Grow the store of m, and every held store of m' <= l_max whose
    cut-off is below l_max, to l_max in one batched pass; return the store
    of m.

    Each grown store keeps the entries of the old one; the new (l, l')
    pairs of all of them, each with its own m, are computed in batches of
    at most ``_BATCH_ENTRIES`` slice entries, narrowest slices first.
    """
    held = dict(_STORES)  # a racing growth may change the cache meanwhile
    if m in held and _store_l_max(m, held[m]) >= l_max:
        return held[m]
    targets = sorted({m}.union(k for k, H in held.items()
                               if k <= l_max and _store_l_max(k, H) < l_max))
    shapes = {k: _store_shape(k, l_max) for k in targets}
    total = sum(H.nbytes for k, H in held.items() if k not in shapes) \
        + sum(8 * math.prod(shape) for shape in shapes.values())
    if total > _STORE_BUDGET:
        raise MemoryError(
            f"coupling stores at m = {m}, l_max = {l_max} would hold {total} "
            f"bytes, more than the budget of {_STORE_BUDGET}")
    grown = {}
    pair_m, pair_a, pair_b = [], [], []
    for k in targets:
        H = np.zeros(shapes[k])
        old = held.pop(k, None)
        _STORES.pop(k, None)
        n_old = 0
        if old is not None:
            n_old = (old.shape[0] + 1) // 2
            H[: old.shape[0], : old.shape[1], : old.shape[2]] = old
            # views of the replaced store would keep it alive
            for lm in range(k, k + n_old):
                _STORE_VIEWS.pop((k, lm), None)
            del old
        grown[k] = H
        # the pairs a <= b < n with b >= n_old
        b, a = np.nonzero(np.tri(l_max - k + 1, dtype=bool)[n_old:])
        pair_m.append(np.full(len(a), k))
        pair_a.append(a)
        pair_b.append(b + n_old)
    pm = np.concatenate(pair_m)
    pa = np.concatenate(pair_a)
    pb = np.concatenate(pair_b)
    pl = pm + pa  # l <= l', and the slice is 2 l + 1 wide
    order = np.argsort(pl, kind="stable")
    span = 2 * pl[order] + 1
    lo = 0
    while lo < len(order):
        # as many pairs as fit the cap at the width of the widest of them
        fits = span[lo:] * np.arange(1, len(order) - lo + 1) <= _BATCH_ENTRIES
        hi = lo + max(1, int(np.count_nonzero(fits)))
        batch = order[lo:hi]
        batch = batch[np.argsort(pm[batch], kind="stable")]
        _fill(grown, l_max, pm[batch], pa[batch], pb[batch])
        lo = hi
    for k, H in grown.items():
        H.flags.writeable = False
        _STORES[k] = H
    return grown[m]


def _fill(stores, l_max, m, a, b):
    """Compute the pairs (l, l') = (m + a, m + b), a <= b, sorted by m,
    and write them into the stores ``stores[m]`` grown to l_max."""
    l = m + a
    vals = _h_slices(l, m + b, m)  # row r holds l'' = l' - l + r
    # l'' = l + l' - 2t sits in row r = 2 (l - t), for t = 0..l, and at
    # the flat place ((a + b) width + (b - a) // 2) (l_max + 1) + t of a
    # store (a + b, width, l_max + 1), pair by pair
    pair, t = np.nonzero(np.arange(np.max(l) + 1) <= l[:, None])
    v = vals[2 * (l[pair] - t), pair]
    width = (l_max - m) // 2 + 1
    at = ((a + b) * width + (b - a) // 2) * (l_max + 1)
    at = at[pair] + t
    start = np.concatenate(([0], np.cumsum(l + 1)))  # first entry of each pair
    for k in np.unique(m):
        lo, hi = start[np.searchsorted(m, [k, k + 1])]
        stores[k].reshape(-1)[at[lo:hi]] = v[lo:hi]


def h_tensor(m, l_max):
    """Anti-diagonal coupling store ``H[s, j, t]`` for l, l' in m..l_max.

    With a = l - m <= b = l' - m, the pair (a, b) sits on the anti-diagonal
    s = a + b at j = (b - a) // 2, and ``H[s, j, t] = H_{l l'}^{l''}`` with
    l'' = l + l' - 2t; t runs over 0..l_max, and entries past t = l or with
    b > l_max - m are zero.  H is symmetric in (l, l'), so (b, a) reads the
    entry of (a, b), and the odd l + l' + l'' the parity rule zeroes are
    not stored.  The blocks read the store through :func:`couple`.

    One store per m is kept, at the largest l_max requested so far.  A
    larger l_max grows it, and in the same batched pass every other held
    store of m' <= l_max whose cut-off is below l_max: the old entries are
    copied and only the new (l, l') pairs are computed.  No store is made
    for an m that was never requested.  A smaller l_max is served as the
    prefix view ``H[:2n-1, :(n-1)//2+1, :l_max+1]`` with n = l_max - m + 1,
    whose entries for the pairs of the smaller block are those of the full
    store (it also holds rows of pairs past its cut-off, which no block of
    it reads).  Each view is memoized, so a repeated request returns the
    same read-only object.

    A growth that would leave the stores holding more than
    ``_STORE_BUDGET`` bytes raises ``MemoryError`` and changes nothing.
    Every entry depends on its pair and m only, and a store enters the
    cache only once it is complete, so concurrent use is safe: racing
    growths compute the same values, at worst twice.
    """
    key = (m, l_max)
    out = _STORE_VIEWS.get(key)
    if out is not None:
        return out
    H = _STORES.get(m)
    n = l_max - m + 1
    if H is None or H.shape[0] < 2 * n - 1:
        H = _grow_stores(m, l_max)
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
    """log H_{l l'}^{l+l'} (stretched top) as a dense (n, n) matrix for l,
    l' = l_start..l_max, l_start >= m.

    The two stretched-top 3j signs cancel, so H_top > 0 and a pure log
    matrix suffices.  Used by the static (zero-frequency) kernel where only
    l'' = l+l' survives.  One read-only table per m is kept, for l, l' from
    m to the largest l_max asked for, and the matrix is its block from
    l_start on: each entry is a closed form in (l, l', m), so the block
    equals a direct build bit for bit.
    """
    if l_start < m:
        raise ValueError(f"the stretched top needs l_start >= m, got {l_start} < {m}")
    table = _TOP.get(m)
    if table is None or len(table) < l_max - m + 1:
        table = _log_h_top(l_max, m)
        table.flags.writeable = False
        _TOP[m] = table
    a = l_start - m
    return table[a: l_max - m + 1, a: l_max - m + 1]


def _log_h_top(l_max, m):
    """The table of :func:`log_h_top_matrix` for l, l' = m..l_max, built."""
    ls = np.arange(m, l_max + 1)
    l = ls[:, None]
    lp = ls[None, :]
    lg = log_gamma_halves(8 * l_max + 5)[::2]
    common = 0.5 * (lg[2 * l + 1] + lg[2 * lp + 1]
                    + 2.0 * lg[l + lp + 1] - lg[2 * l + 2 * lp + 2])
    log3j0 = common - lg[l + 1] - lg[lp + 1]
    log3jm = common - 0.5 * (lg[l - m + 1] + lg[l + m + 1]
                             + lg[lp - m + 1] + lg[lp + m + 1])
    return 0.5 * (np.log(2 * l + 1) + np.log(2 * lp + 1)) \
        + np.log(2 * (l + lp) + 1) + log3j0 + log3jm


def clear_caches():
    """Drop all cached tensors and slices (mainly for tests)."""
    _STORES.clear()
    _STORE_VIEWS.clear()
    _LAMBDA.clear()
    _TOP.clear()
    _LGAMMA.clear()
