r"""Wigner 3j symbols and the geometric coupling factors of the translation
formulas.

The sphere-plane translation matrices need two 3j patterns only,
``(l l' l''; 0 0 0)`` and ``(l l' l''; m -m 0)``, combined into

.. math::
    H_{ll'}^{l''} = \sqrt{(2l+1)(2l'+1)}\,(2l''+1)
        \begin{pmatrix} l & l' & l''\\ 0&0&0\end{pmatrix}
        \begin{pmatrix} l & l' & l''\\ m&-m&0\end{pmatrix}.

The parity pattern ``(0 0 0)`` has a cancellation-free closed form, whose
log-factorials are read from one cached table of ``log Gamma(k/2)``
(:func:`log_gamma_halves`), which also serves the stretched edge and top
and the static kernel.  The ``(m -m 0)`` pattern comes from the
three-term recurrence in m (Schulten and Gordon, J. Math. Phys. 16, 1961
(1975)), run inward from the stretched edge m = l, its stable direction
(Luscombe and Luban, Phys. Rev. E 57, 7274 (1998)): one elementwise
descent of the (l, l', l'') triples of a growth pass passes every m that
any store of the pass needs (:func:`_three_j_m_descent`).  The stretched
top ``l'' = l + l'`` of the static kernel has its own closed form
(:func:`log_h_top_matrix`).

One coupling store per m serves every kernel, the imaginary-axis,
electromagnetic and rotated blocks alike: :func:`h_tensor` keeps H by
anti-diagonal l + l' = const, with only the parity-allowed l'' and one of
each (l, l') pair and its mirror (l', l).  A request past a store's
cut-off grows that store and every other held store below the new cut-off
in one pass, which may also create the stores of the next few m (the run
rule of :func:`_grow_stores`); smaller cut-offs are read as prefix views.
The stores together may not pass ``_STORE_BUDGET`` bytes; a growth that
would raises ``MemoryError`` before it allocates anything.
Every l'' sum of a block, ``sum_l'' H_{ll'}^{l''} B_{l''}``, depends on the
frequency only through rows of weights indexed by l + l' and l'', so the
sums of a whole block are one matrix product of the store with those rows
(:func:`couple`).
"""

import math
from functools import lru_cache

import numpy as np

#: the m-descent rescales a triple once its value passes this magnitude
_RESCALE = 1e250

#: about the most (l, l', l'') triples descended together, which bounds the
#: work arrays of a growth pass to a few hundred kB each
_CHUNK = 1 << 15

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


def _three_j_m_descent(l, lp, lpp, targets):
    """Yield ``(m, n, f)`` for each m of ``targets`` (descending, from at
    most l[0] to at least 0): f holds (l l' l''; m -m 0) of the n leading
    triples, those with l >= m; the triples (l <= l', l + l' + l'' even)
    come sorted by l descending, so the triples a step reaches lead.

    ``C(m+1) f(m+1) + D(m) f(m) + C(m) f(m-1) = 0``, with
    ``C(m) = sqrt((l-m+1)(l+m)(l'-m+1)(l'+m))`` and
    ``D(m) = l(l+1) + l'(l'+1) - l''(l''+1) - 2m^2``, runs down from
    f(l+1) = 0 and the stretched edge ``f(l) = (-1)^(l'-l) sqrt((2l)!
    (l'+l''-l)! (l+l')! / ((l+l'+l''+1)! (l-l'+l'')! (l+l'-l'')! (l'-l)!))``,
    elementwise per triple.  It carries ``g(m) = (-1)^(l'-m) f(m) / s``
    from g(l) = 1 and s = |f(l)|; a g past ``_RESCALE`` moves into s, held
    as a logarithm.  As |f| <= 1, only a triple whose edge is below
    ``2 / _RESCALE`` can pass it, so other chunks skip the test.
    """
    lg = log_gamma_halves(2 * int(np.max(l + lp + lpp)) + 5)[::2]
    log_scale = 0.5 * (lg[2 * l + 1] + lg[lp + lpp - l + 1] + lg[l + lp + 1]
                       - lg[l + lp + lpp + 2] - lg[l - lp + lpp + 1]
                       - lg[l + lp - lpp + 1] - lg[lp - l + 1])
    sign = _parity_sign(lp)
    scale = sign * np.exp(log_scale)
    check = log_scale.min() < math.log(2.0 / _RESCALE)
    L1, L2 = l * (l + 1.0), lp * (lp + 1.0)
    K = L1 + L2 - lpp * (lpp + 1.0)
    reached = np.searchsorted(-l, -np.arange(l[0] + 1), side="right")
    g1, g0, c = np.zeros(len(l)), np.zeros(len(l)), np.zeros(len(l))
    n0 = 0
    for m in range(l[0], targets[-1] - 1, -1):
        n = reached[m]
        g0[n0:n] = 1.0  # the triples whose edge is m
        n0 = n
        if m in targets:
            f = g0[:n] * scale[:n]
            yield m, n, np.negative(f, out=f) if m % 2 else f
        if m == targets[-1]:
            break
        # g(m-1) = (D(m) g(m) - C(m+1) g(m+1)) / C(m) into the buffer of
        # g(m+1), and C(m) over C(m+1), which the next step reads
        q = m * (m - 1.0)
        gm, cm = g1[:n], c[:n]
        d = K[:n] - 2.0 * m * m
        d *= g0[:n]
        np.multiply(cm, gm, out=gm)
        np.subtract(d, gm, out=gm)
        np.multiply(L1[:n] - q, L2[:n] - q, out=cm)
        np.sqrt(cm, out=cm)
        gm /= cm
        if check:
            big = np.flatnonzero(np.abs(gm) > _RESCALE)
            if len(big):
                s = np.abs(gm[big])
                gm[big] /= s
                g0[big] /= s
                log_scale[big] += np.log(s)
                scale[big] = sign[big] * np.exp(log_scale[big])
        g0, g1 = g1, g0


_STORES = {}       # m -> anti-diagonal store at the largest l_max seen
_STORE_VIEWS = {}  # (m, l_max) -> prefix view of it
_LAMBDA = {}       # the weight table of lambda_tensor at the largest l_max seen
_TOP = {}          # m -> log_h_top_matrix table from l = m at the largest l_max seen
_CREATED = {}      # l_max -> number of stores created at that cut-off


def _store_shape(m, l_max):
    n = l_max - m + 1
    return (2 * n - 1, (n - 1) // 2 + 1, l_max + 1)


def _store_l_max(m, H):
    return m + (H.shape[0] + 1) // 2 - 1


def _grow_stores(m, l_max):
    """Grow the store of m, and every held store of m' <= l_max whose
    cut-off is below l_max, to l_max in one pass; return the store of m.

    Grown stores keep their entries; only the new (l, l') pairs are
    computed (:func:`_fill`).  The run rule: a request that creates a
    store at l_max, after c stores were created at l_max, also creates the
    stores of m + 1 .. min(m + c, l_max) not held, skipping each that would
    pass the budget.  A descent to m passes every m above it, so asking for
    m = 0, 1, 2, ... one at a time takes about log2 of the m count passes.
    """
    held = dict(_STORES)  # a racing growth may change the cache meanwhile
    if m in held and _store_l_max(m, held[m]) >= l_max:
        return held[m]
    # old cut-off of each target; a new store of k has none below l = k
    old = {k: _store_l_max(k, H) for k, H in held.items()
           if k <= l_max and _store_l_max(k, H) < l_max}
    old.setdefault(m, m - 1)

    def size(k):
        return 8 * math.prod(_store_shape(k, l_max))

    total = sum(H.nbytes for k, H in held.items() if k not in old) \
        + sum(map(size, old))
    if total > _STORE_BUDGET:
        raise MemoryError(
            f"coupling stores at m = {m}, l_max = {l_max} would hold {total} "
            f"bytes, more than the budget of {_STORE_BUDGET}")
    if m not in held:
        created = _CREATED.get(l_max, 0)
        for k in range(m + 1, min(m + created, l_max) + 1):
            if k not in held and total + size(k) <= _STORE_BUDGET:
                old[k] = k - 1
                total += size(k)
        _CREATED[l_max] = created + sum(k not in held for k in old)
    grown = {}
    for k, cut in old.items():
        H = np.zeros(_store_shape(k, l_max))
        prev = held.pop(k, None)
        _STORES.pop(k, None)
        if prev is not None:
            H[: prev.shape[0], : prev.shape[1], : prev.shape[2]] = prev
            # views of the replaced store would keep it alive
            for lm in range(k, cut + 1):
                _STORE_VIEWS.pop((k, lm), None)
            del prev
        grown[k] = H
    _fill(grown, old, l_max)
    for k, H in grown.items():
        H.flags.writeable = False
        _STORES[k] = H
    return grown[m]


def _fill(stores, old, l_max):
    """Write into each store ``stores[k]``, grown to l_max, its pairs
    (l, l') with l' above its old cut-off ``old[k]``: every pair a store
    lacks, l descending, in chunks of about ``_CHUNK`` triples.  The m = 0
    store takes the closed form ``(0 0 0)^2``, the others the descent."""
    low = np.full(l_max + 1, l_max)  # the lowest old cut-off of the stores k <= l
    for k, cut in old.items():
        low[k] = min(low[k], cut)
    low = np.minimum.accumulate(low)
    l, lp = np.triu_indices(l_max + 1)
    keep = lp > low[l]
    l, lp = l[keep][::-1], lp[keep][::-1]
    ends = np.cumsum(l + 1)
    bounds = np.unique(np.searchsorted(ends, np.arange(0, ends[-1], _CHUNK),
                                       side="right"))
    for lo, hi in zip(bounds, np.append(bounds[1:], len(l))):
        _fill_chunk(stores, old, l_max, l[lo:hi], lp[lo:hi])


def _fill_chunk(stores, old, l_max, l, lp):
    """:func:`_fill` for the pairs (l <= l') sorted by l descending; the
    pair's l'' = l + l' - 2t, t = 0..l, sits at the flat place
    ((l + l' - 2k) width + (l' - l) // 2) (l_max + 1) + t of store k."""
    w0 = _three_j_000_slices(l, lp)  # row r holds l'' = l' - l + r
    count = l + 1
    pair = np.repeat(np.arange(len(l)), count)
    t = np.arange(len(pair)) - np.repeat(np.cumsum(count) - count, count)
    l, lp = l[pair], lp[pair]
    w0 = w0[2 * (l - t), pair]
    lpp = l + lp - 2 * t
    h = np.sqrt((2.0 * l + 1.0) * (2.0 * lp + 1.0)) * (2.0 * lpp + 1.0) * w0
    s, half = l + lp, (lp - l) // 2

    def write(k, n, f):
        new = lp[:n] > old[k]
        at = ((s[:n] - 2 * k) * ((l_max - k) // 2 + 1) + half[:n]) * (l_max + 1) + t[:n]
        stores[k].reshape(-1)[at[new]] = (h[:n] * f)[new]

    if 0 in stores:
        write(0, len(l), w0)
    targets = sorted((k for k in stores if 0 < k <= l[0]), reverse=True)
    if targets:
        for k, n, f in _three_j_m_descent(l, lp, lpp, targets):
            write(k, n, f)


def h_tensor(m, l_max):
    """Anti-diagonal coupling store ``H[s, j, t]`` for l, l' in m..l_max.

    With a = l - m <= b = l' - m, the pair (a, b) sits on the anti-diagonal
    s = a + b at j = (b - a) // 2, and ``H[s, j, t] = H_{l l'}^{l''}`` with
    l'' = l + l' - 2t; t runs over 0..l_max, and entries past t = l or with
    b > l_max - m are zero.  H is symmetric in (l, l'), so (b, a) reads the
    entry of (a, b), and the odd l + l' + l'' the parity rule zeroes are
    not stored.  The blocks read the store through :func:`couple`.

    One store per m is kept, at the largest l_max requested so far.  A
    larger l_max grows it, and in the same pass every other held store of
    m' <= l_max whose cut-off is below l_max: the old entries are copied
    and only the new (l, l') pairs are computed.  A request that creates a
    store may create the stores of the next few m with it, by the run rule
    of :func:`_grow_stores`, never past l_max or the budget.  A smaller
    l_max is served as the prefix view ``H[:2n-1, :(n-1)//2+1, :l_max+1]``
    with n = l_max - m + 1, whose entries for the pairs of the smaller
    block are those of the full store (it also holds rows of pairs past
    its cut-off, which no block of it reads).  Each view is memoized, so a
    repeated request returns the same read-only object.

    Raises ``ValueError`` unless 0 <= m <= l_max, and makes no store or
    view then.  A growth that would leave the stores holding more than
    ``_STORE_BUDGET`` bytes raises ``MemoryError`` and changes nothing.
    Every entry depends on its pair and m only, whatever the requests
    before, and a store enters the cache only once it is complete, so
    concurrent use is safe: racing growths compute the same values, at
    worst twice.
    """
    key = (m, l_max)
    out = _STORE_VIEWS.get(key)
    if out is not None:
        return out
    if not 0 <= m <= l_max:
        raise ValueError(f"a coupling store needs 0 <= m <= l_max, got m = {m}, "
                         f"l_max = {l_max}")
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
    """Drop the coupling stores and their views, the run-rule counts, the
    Lambda, stretched-top and log-gamma tables (mainly for tests)."""
    _STORES.clear()
    _STORE_VIEWS.clear()
    _LAMBDA.clear()
    _TOP.clear()
    _CREATED.clear()
    _LGAMMA.clear()
