r"""Truncated-block assembly and evaluation of Tr ln(1 - M).

The trace in the free energy runs over orbital momenta l, the azimuthal
index m and (for the electromagnetic field) the two polarizations.  m is a
good quantum number, so the trace decomposes into independent blocks,

.. math::
    \operatorname{Tr}\ln(1 - \mathbf{M}) =
    \sum_m \ln\det\left(1 - M^{(m)}\right),

with the m-sum folded onto ``m = 0`` plus twice the positive m's.  Real
blocks (imaginary axis, static) have a positive determinant, and a pivoted
factorization (LAPACK) gives their logarithm.  For the rotated
(real-frequency) blocks the imaginary part of a log-determinant is only
defined modulo 2 pi, and the thermal integrand needs the branch of the
expanded logarithm, ``sum_i Log(1 - lambda_i)``.  An LU factorization gives
the value modulo 2 pi; the first four terms of the expanded-logarithm
series, ``-sum_{k<=4} Tr M^k / k``, with a bound on the remainder from the
Frobenius norms of M^2 and, where that is not enough, M^4 and then M^8,
fix the branch whenever that bound is below one radian.  Blocks the bound
does not certify take the eigenvalues, and those with spectral radius
>= 1 the per-pivot determinant.

The force needs the separation derivative of the same trace,

.. math::
    \partial_d \ln\det(1 - sM) = -s \operatorname{Tr}\left[(1 - sM)^{-1}
        \partial_d M\right],

which one LU factorization and solve gives for every block type, with no
eigenvalues and no branch of the logarithm to choose.

On both frequency axes, several nodes at one l_max run as one stack:
every block m of the stack comes from one assembly
(:class:`kernel.ImagNodes`, :class:`kernel.RotatedNodes`) as a plain
(nodes, n, n) array, and the evaluators above take the whole stack at
once, with batched matrix products, one stacked ``slogdet`` and, for the
refused blocks, one stacked ``eigvals``.  The nodes step through m together, each leaves
the stack at its own m cut, and with automatic growth each runs its own
l_max test and leaves the stack once it passes.

A growth step compares the totals at l_max and l_max + 4.  It assembles
its blocks once, at l_max + 4; the leading sub-blocks of those blocks,
zero-padded in M (the identity in 1 - M, which changes neither the
determinant, nor the traces of the powers, nor the LU solve), give the
total at l_max, and each sub-block joins its full block in the same
stacked evaluation.

Blocks for distinct m are independent; the reduction always runs in
ascending m for bit-reproducible results.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import kernel
from .specfun import L_CAP

IMAG_AXIS = "imag"
ROTATED = "rotated"
STATIC = "static"


class SingularBlockError(ArithmeticError):
    """A pivot of 1 - M (nearly) vanished: l_max too small or a quadrature
    node accidentally on a resonance."""


@dataclass
class Truncation:
    """Truncation and tolerance settings shared by the drivers.

    l_max = None lets each evaluation grow the orbital cutoff (start at
    l_start + 4, grow by 4) until the relative change of the result drops
    below rel_tol.
    """

    l_max: int | None = None
    rel_tol: float = 1e-3
    n_max: int = 100000
    # nodes per quadrature panel: a Clenshaw-Curtis rule whose every other
    # node carries the embedded rule of the error estimate, itself
    # Clenshaw-Curtis only for 3 or 1 mod 4 points (5, 9, 13, 17, ...).
    # Each panel is one stack of nodes; panels whose embedded estimate is
    # too large are refined
    quad_points: int = 9

    def __post_init__(self):
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and positive, got {self.rel_tol}")
        if not (self.quad_points == 3 or (self.quad_points >= 5 and self.quad_points % 4 == 1)):
            raise ValueError("quad_points must be 3 or 1 mod 4 (5, 9, 13, ...) for the "
                             f"embedded rule to be Clenshaw-Curtis, got {self.quad_points}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {self.n_max}")


def assemble_block(m, evaluation, geom, spec, l_max, xi=None, derivative=False):
    """Block m of the round-trip operator and, with ``derivative``, dM/dd
    (else None), from the matching kernel operation.

    evaluation is one of 'imag' (imaginary axis), 'rotated' (real
    frequency) or 'static'.  On the imaginary and rotated axes xi is the
    :class:`kernel.ImagNodes` or :class:`kernel.RotatedNodes` stack at
    this l_max, and the blocks are the stacks of block m of each of its
    nodes, (nodes, n, n); the static blocks are (n, n).  The plane
    boundary sign is not applied here; it enters the logarithm
    downstream.

    Raises
    ------
    ValueError
        when a block holds a non-finite entry
    """
    if evaluation == STATIC:
        M = kernel.static_matrix(m, geom, spec, l_max)
        dM = kernel.static_matrix(m, geom, spec, l_max, derivative=True) if derivative else None
    else:
        stack = {ROTATED: kernel.RotatedNodes, IMAG_AXIS: kernel.ImagNodes}.get(evaluation)
        if stack is None:
            raise ValueError(f"unknown evaluation {evaluation!r}")
        if not (isinstance(xi, stack) and xi.l_max == l_max and xi.derivative == derivative):
            raise ValueError(f"{evaluation} blocks need a node stack at their l_max, "
                             "with the derivative when one is asked for")
        M, dM = xi.blocks(m)
    if not (np.isfinite(M).all() and (dM is None or np.isfinite(dM).all())):
        raise ValueError("block contains non-finite entries")
    return M, dM


def log_det_one_minus(block, plane_sign=1):
    """ln det(1 - plane_sign * M) by pivoted factorization.

    Real blocks (imaginary axis, static) must give a real, negative-free
    logarithm of a positive determinant; the result is returned as a complex
    number with zero imaginary part, and a stack of real blocks (nodes, n,
    n) runs as one stacked ``slogdet`` and gives the array of their values.
    Complex (rotated) blocks take the principal branch of each pivot's
    logarithm.
    """
    M = np.asarray(block)
    if M.size == 0:
        return np.zeros(len(M), dtype=complex) if M.ndim == 3 else 0.0 + 0.0j
    if not np.iscomplexobj(M):
        stack = M if M.ndim == 3 else M[None]
        sign, logabs = np.linalg.slogdet(_one_minus(stack if plane_sign == 1 else -stack))
        if np.any(sign <= 0.0):
            raise SingularBlockError(
                "det(1 - M) <= 0 on the real axis; increase l_max")
        vals = logabs.astype(complex)
        return vals if M.ndim == 3 else complex(vals[0])
    A = np.eye(M.shape[0], dtype=M.dtype) - plane_sign * M
    lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    diag = np.diag(lu)
    if np.any(np.abs(diag) < 1e-300):
        raise SingularBlockError("vanishing pivot in 1 - M")
    # row swaps flip the determinant sign but leave |det| and the per-pivot
    # principal branches as the defined value of this evaluator
    nswap = np.count_nonzero(piv != np.arange(len(piv)))
    val = np.sum(np.log(diag.astype(complex)))
    if nswap % 2 == 1:
        val += complex(0.0, math.pi)
    return complex(val)


def _squared_norms(X):
    """Squared Frobenius norm of each block of the C-contiguous stack X."""
    flat = X.view(np.float64).reshape(len(X), -1)
    return np.einsum("ki,ki->k", flat, flat)


def _traces(X):
    return X.diagonal(0, 1, 2).sum(axis=1)


def _one_minus(A):
    """1 - A for a stack A, C-contiguous."""
    out = np.negative(A, order="C")
    out.reshape(len(A), -1)[:, :: A.shape[-1] + 1] += 1.0
    return out


def _certified(rho, q2):
    """Whether the four-term remainder bound rho q2 / (5 (1 - rho)), from a
    bound rho on the spectral radius and q2 = ||A^2||_F^2, is below one
    radian."""
    return (rho < 1.0) & (rho * q2 < 5.0 * (1.0 - rho))


def trace_log_eig(block, plane_sign=1, counts=None):
    """sum_i Log(1 - plane_sign*lambda_i) over the block eigenvalues, and
    whether the spectral radius is below one.

    With A = plane_sign * M and rho a bound on the spectral radius, the
    first four terms of the expanded logarithm,
    ``-(Tr A + Tr A^2/2 + Tr A^3/3 + Tr A^4/4)``, differ from the sum by at
    most ``rho * q2 / (5 (1 - rho))``, where ``q2 = ||A^2||_F^2`` bounds
    ``sum |lambda|^4`` (Schur's inequality for A^2).  The bound is tried in
    three stages: first with rho = ||A^2||_F^(1/2), which needs only A^2,
    then, for the blocks that leaves open, with the sharper
    rho = ||A^4||_F^(1/4), which needs A^4, and, for those still open,
    with rho = ||A^8||_F^(1/8) from A^8 = A^4 A^4 (it reaches the benign
    non-normal blocks, whose ||A^4||_F^(1/4) still sits well above their
    spectral radius).  Since ||A^2k||_F <= ||A^k||_F^2, a block an
    earlier stage certifies every later one certifies as well, so the
    three stages certify the blocks the last alone would.  When the bound
    is below one radian, ``slogdet(1 - A)`` gives the real part and the
    phase modulo 2 pi, and the one phase within pi of the four-term
    estimate is the imaginary part.  Otherwise the eigenvalues give the sum, which is the principal
    branch of each Log(1 - lambda_i) and equals the series whenever the
    spectral radius is below one.  Each such block adds 1 to
    ``counts["eig_blocks"]`` when a ``counts`` dict is given.

    A stack of blocks (nodes, n, n) runs the bound, the traces and
    ``slogdet`` as batched operations, and the refused blocks as one
    stacked ``eigvals``, and gives arrays of both results.
    """
    M = np.asarray(block)
    stack = M if M.ndim == 3 else M[None]
    k, n = stack.shape[0], stack.shape[-1]
    vals = np.zeros(k, dtype=complex)
    ok = np.ones(k, dtype=bool)
    if n:
        A = stack if plane_sign == 1 else -stack
        A2 = A @ A
        q2 = _squared_norms(A2)
        certified = _certified(q2 ** 0.25, q2)
        # the sharper bounds from A^4, then A^8, for the blocks still open
        open_ = np.flatnonzero(~certified)
        P = A2[open_]
        for power in (4, 8):
            if not len(open_):
                break
            P = P @ P
            passed = _certified(_squared_norms(P) ** (0.5 / power), q2[open_])
            certified[open_] = passed
            open_, P = open_[~passed], P[~passed]
        refused = np.flatnonzero(~certified)
        if len(refused):
            A, A2 = A[certified], A2[certified]
        if len(A):
            estimate = -(_traces(A) + _traces(A2) / 2.0
                         + np.einsum("kij,kji->k", A2, A) / 3.0
                         + np.einsum("kij,kji->k", A2, A2) / 4.0)
            sign, logabs = np.linalg.slogdet(_one_minus(A))
            phase = np.arctan2(sign.imag, sign.real)
            turns = np.rint((estimate.imag - phase) / (2.0 * math.pi))
            vals[certified] = logabs + 1j * (phase + 2.0 * math.pi * turns)
        if len(refused):
            if counts is not None:
                counts["eig_blocks"] += len(refused)
            lam = np.linalg.eigvals(stack[refused]) * plane_sign
            ok[refused] = np.max(np.abs(lam), axis=1) < 1.0
            vals[refused] = np.sum(np.log(1.0 - lam.astype(complex)), axis=1)
    if M.ndim == 3:
        return vals, ok
    return complex(vals[0]), bool(ok[0])


def block_trace_log(block, plane_sign=1, evaluation=IMAG_AXIS, counts=None):
    """Dispatch to the evaluator appropriate for the block type.

    Real blocks go through the determinant.  Rotated blocks, single or
    stacked, go through :func:`trace_log_eig`: an LU log-determinant whose
    branch four traces certify, or the eigenvalues where they do not; a
    block whose spectral radius is not below one falls back to the
    per-pivot determinant and adds 1 to ``counts["fallbacks"]``.
    ``counts`` is passed on to :func:`trace_log_eig`.
    """
    if evaluation != ROTATED:
        return log_det_one_minus(block, plane_sign)
    M = np.asarray(block)
    vals, ok = trace_log_eig(block, plane_sign, counts=counts)
    if np.all(ok):
        return vals
    vals, ok = np.atleast_1d(vals), np.atleast_1d(ok)
    stack = M.reshape(-1, *M.shape[-2:])
    for i in np.flatnonzero(~ok):
        if counts is not None:
            counts["fallbacks"] += 1
        vals[i] = log_det_one_minus(stack[i], plane_sign)
    return vals if M.ndim == 3 else complex(vals[0])


def _trace_derivatives(stack, dstack, plane_sign):
    """d/dd ln det(1 - s M) = -s Tr[(1 - s M)^{-1} dM/dd] of each block of
    the stack of M and dM/dd, by one LU factorization and solve per block.

    Raises
    ------
    SingularBlockError
        when a pivot of 1 - s M vanishes (below 1e-12 of the largest): a
        frequency node on a resonance, or an l_max too small
    """
    out = np.zeros(len(stack), dtype=complex)
    if stack.shape[-1]:
        getrf, getrs = _LU[stack.dtype.char]
        A = _one_minus(stack if plane_sign == 1 else -stack)
        pivots = np.empty(A.shape[:2], dtype=A.dtype)
        for i in range(len(stack)):
            lu, piv, _ = getrf(A[i])
            pivots[i] = lu.diagonal()
            X, _ = getrs(lu, piv, dstack[i])
            out[i] = -plane_sign * X.trace()
        pivots = np.abs(pivots)
        if not np.all(pivots.min(axis=1) > 1e-12 * pivots.max(axis=1)):
            raise SingularBlockError("vanishing pivot in 1 - M")
    return out


# the LAPACK LU routines themselves: the blocks are small, and the checks
# of scipy.linalg.lu_factor / lu_solve cost as much as the factorization
_LU = {"d": (scipy.linalg.lapack.dgetrf, scipy.linalg.lapack.dgetrs),
       "D": (scipy.linalg.lapack.zgetrf, scipy.linalg.lapack.zgetrs)}


def _with_sub_blocks(X, hi, lo, cut, em):
    """The blocks X[hi] stacked with the blocks X[lo] cut to their leading
    sub-blocks (``hi`` and ``lo`` are lists of positions in the stack X):
    in each polarization half, the rows and columns from ``cut`` on are
    zero, so ``1 - M`` is the identity there."""
    X = X.reshape(-1, *X.shape[-2:])
    if not lo:
        return X if len(hi) == len(X) else X[hi]
    out = X[hi + lo]
    sub = out[len(hi):]
    n = X.shape[-1] // 2 if em else X.shape[-1]
    for a in ((cut, n + cut) if em else (cut,)):
        sub[:, a: a + n - cut] = 0.0
        sub[:, :, a: a + n - cut] = 0.0
    return out


def trace_over_m(evaluation, geom, spec, trunc=None, xi=None, part=None,
                 l_max_start=None, scale_floor=0.0, derivative=False, verify=None):
    """Tr ln(1 - M) folded over m: block(0) + 2 sum_{m>=1} block(m).

    The m sum stops once a block contributes less than
    ``rel_tol * 1e-2`` of the larger of the running total and the node's
    ``scale_floor``; with l_max = None the orbital cutoff grows by 4 until
    the folded total changes by less than rel_tol of the larger of its
    projection and that floor.
    With ``derivative`` every block contributes its separation derivative
    ``-s Tr[(1 - sM)^{-1} dM/dd]`` instead, so the sum is d/dd Tr ln(1 - M),
    and the m and l tests run on that.

    On the imaginary and rotated axes xi may be a 1-d array of nodes,
    evaluated as one stack (a single node is a stack of one): each l_max
    assembles one :class:`kernel.ImagNodes` or :class:`kernel.RotatedNodes`,
    :func:`assemble_block` reads its blocks once per m as plain arrays, and
    the nodes step through m together and each stops at its own m cut.
    With automatic growth every node starts at the same cutoff, runs its
    own growth test and leaves the stack once it passes, so each node gets
    the cutoff, value and change it would get alone.

    A growth step from l to l + 4 assembles its blocks once, at l + 4.  The
    total at l comes from the leading sub-blocks of the same blocks, zero
    padded in M (the identity in 1 - M), which leaves the determinant, the
    four traces and the LU solve unchanged; each sub-block joins its full
    block in one stacked evaluation, and the m loop runs while either total
    of a node still needs m.  The lower total keeps its own m cut: its
    sub-blocks decay more slowly in m than the full blocks (in the R = 6
    force of ``casphere --command table2``, nodes whose full total stops at
    m 18-19 still gain up to 1.5e-3 of their lower total per m at m 16-19,
    where the full blocks add less than 5e-5), so ending it at the full
    total's m cut would move the step's change by more than rel_tol.

    Parameters
    ----------
    evaluation : str
        'imag', 'rotated' or 'static'
    part : callable or None
        projection applied for the convergence test (e.g. ``np.imag`` for
        the thermal integrand); the full complex value is returned
    l_max_start : int or None
        seed for the automatic l_max growth (a ratchet hint from previous
        evaluations at nearby parameters)
    scale_floor : float or array
        external magnitude scale of the m and growth tests, one for all
        nodes or one per node: a block below ``rel_tol * 1e-2 *
        scale_floor`` ends the m sum, and a change below ``rel_tol *
        scale_floor`` passes the growth test (needed where an oscillatory
        projection crosses zero, and where a node counts little in the
        integral it enters)
    derivative : bool
        fold the separation derivative of the trace instead of the trace
    verify : boolean array or None
        with automatic growth, the nodes that run the growth test (default
        all); each other node is assumed: evaluated once, one step above
        the start in the first step's stack, with no sub-block and no test

    Returns
    -------
    (complex, dict)
        folded trace (or its derivative; an array for an array of nodes)
        and diagnostics {'l_max_used', 'm_max_used', 'converged', 'blocks',
        'eig_blocks', 'fallbacks', 'l_max_evaluated', 'm_max_evaluated'},
        with automatic growth also 'change', the projected change of the
        last growth step, which estimates the truncation error from
        above.  For an array of nodes these are the
        largest cut-offs and change over the nodes and whether all
        converged, and 'nodes' holds the per-node arrays of 'l_max_used',
        'm_max_used', 'converged' and 'm_floor_room', the largest
        ``scale_floor`` under which each of the node's m tests keeps its
        outcome (the least folded |block| / (rel_tol * 1e-2) among the m
        tests it went on from), with automatic growth also 'change' and
        'least_total', the smallest projected |total| among the node's
        growth tests (0 and inf for an assumed node, which counts as
        converged).
        'blocks' counts the blocks of every node assembled over every
        growth step, 'eig_blocks' the evaluated blocks and sub-blocks
        whose rotated log-determinant took eigenvalues (see
        :func:`trace_log_eig`) and 'fallbacks' those that took the
        per-pivot determinant (see :func:`block_trace_log`).
        'l_max_evaluated' and 'm_max_evaluated' are the largest l_max and
        m of any block assembled, over every node and growth step.
    """
    trunc = trunc or Truncation()
    if trunc.l_max is not None and trunc.l_max < spec.l_min:
        raise ValueError(f"l_max={trunc.l_max} is below this field's l_min={spec.l_min}")
    sign = spec.plane_sign
    counts = {"blocks": 0, "eig_blocks": 0, "fallbacks": 0,
              "l_max_evaluated": 0, "m_max_evaluated": 0}
    stack = {ROTATED: kernel.RotatedNodes, IMAG_AXIS: kernel.ImagNodes}.get(evaluation)
    nodes = np.atleast_1d(np.asarray(xi, dtype=float)) if stack else np.zeros(1)
    k = len(nodes)
    floors = np.maximum(np.broadcast_to(np.asarray(scale_floor, dtype=float), (k,)), 1e-300)
    m_tol = trunc.rel_tol * 1e-2
    em = spec.kind == kernel.ELECTROMAGNETIC

    def totals(idx, l_hi, l_lo=None, sub=None):
        """Folded totals of the nodes ``idx`` at l_hi, their m cuts and floor
        rooms, and from the leading sub-blocks their folded totals at l_lo
        (of the nodes ``sub`` marks, or of all)."""
        src = stack(nodes[idx], geom, spec, l_hi, derivative=derivative) if stack else None
        counts["l_max_evaluated"] = max(counts["l_max_evaluated"], l_hi)
        tot = [[0j] * len(idx), [0j] * len(idx)]  # at l_hi, at l_lo
        going = [[True] * len(idx),
                 [l_lo is not None and (sub is None or bool(sub[i])) for i in range(len(idx))]]
        m_cut = [0] * len(idx)
        floor = [float(floors[i]) for i in idx]
        room = [math.inf] * len(idx)
        active = list(range(len(idx)))  # the nodes in the stack
        for m in range(l_hi + 1):
            l_start = max(spec.l_min, m)
            if l_start > l_hi:
                break
            if l_lo is not None and l_start > l_lo:
                going[1] = [False] * len(idx)
            live = [pos for pos, i in enumerate(active) if going[0][i] or going[1][i]]
            if not live:
                break
            if len(live) < len(active):
                active = [active[pos] for pos in live]
                src.keep(np.array(live))
            if derivative:
                M, dM = assemble_block(m, evaluation, geom, spec, l_hi, xi=src,
                                       derivative=True)
            else:
                M, dM = assemble_block(m, evaluation, geom, spec, l_hi, xi=src)
            counts["blocks"] += len(active)
            counts["m_max_evaluated"] = max(counts["m_max_evaluated"], m)
            # the stack evaluated: the full blocks of the nodes whose total
            # at l_hi goes on, then the sub-blocks of those whose total at
            # l_lo does
            hi = [pos for pos, i in enumerate(active) if going[0][i]]
            lo = [pos for pos, i in enumerate(active) if going[1][i]]
            cut = l_lo - l_start + 1 if lo else 0
            both = _with_sub_blocks(M, hi, lo, cut, em)
            if derivative:
                vals = _trace_derivatives(
                    both, _with_sub_blocks(dM, hi, lo, cut, em), sign)
            else:
                vals = block_trace_log(both, sign, evaluation, counts=counts)
            slots = [(0, active[pos]) for pos in hi] + [(1, active[pos]) for pos in lo]
            for (row, i), v in zip(slots, vals):
                if m == 0:
                    tot[row][i] += v
                    continue
                contrib = 2.0 * v
                tot[row][i] += contrib
                if abs(contrib) < m_tol * max(abs(tot[row][i]), floor[i]):
                    going[row][i] = False
                else:
                    room[i] = min(room[i], abs(contrib) / m_tol)
            for pos in hi:
                m_cut[active[pos]] = m
        return np.array(tot[0]), np.array(tot[1]), np.array(m_cut), np.array(room)

    def result(tot, nodes_diag):
        agg = {"l_max_used": int(np.max(nodes_diag["l_max_used"])),
               "m_max_used": int(np.max(nodes_diag["m_max_used"])),
               "converged": bool(np.all(nodes_diag["converged"]))}
        if "change" in nodes_diag:
            agg["change"] = float(np.max(nodes_diag["change"]))
        if np.ndim(xi):
            return tot, {**agg, **counts, "nodes": nodes_diag}
        return complex(tot[0]), {**agg, **counts}

    if trunc.l_max is not None:
        tot, _, m_cut, room = totals(np.arange(k), trunc.l_max)
        return result(tot, {"l_max_used": np.full(k, trunc.l_max), "m_max_used": m_cut,
                            "converged": np.ones(k, dtype=bool), "m_floor_room": room})

    l_max = max(spec.l_min + 4, l_max_start or 0)
    meas = part or (lambda z: z)
    value = np.zeros(k, dtype=complex)
    l_used = np.full(k, l_max)
    m_used = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    change = np.full(k, math.inf)
    least = np.full(k, math.inf)
    room = np.full(k, math.inf)
    pending = np.arange(k)  # the nodes whose growth test has not passed
    sub = None if verify is None else np.asarray(verify, dtype=bool)
    if l_max >= L_CAP:
        value, _, m_used, room = totals(pending, l_max)
    while l_max < L_CAP and len(pending):
        hi, lo, m_cut, step_room = totals(pending, l_max + 4, l_max, sub)
        l_max += 4
        proj = meas(hi)
        size = np.abs(proj)
        delta = np.abs(proj - meas(lo))
        passed = delta <= trunc.rel_tol * np.maximum(size, floors[pending])
        value[pending], m_used[pending], l_used[pending], change[pending] = \
            hi, m_cut, l_max, delta
        least[pending] = np.minimum(least[pending], size)
        room[pending] = np.minimum(room[pending], step_room)
        if sub is not None:  # the assumed nodes leave after the first step, untested
            passed |= ~sub
            change[~sub], least[~sub], sub = 0.0, math.inf, None
        converged[pending[passed]] = True
        pending = pending[~passed]
    return result(value, {"l_max_used": l_used, "m_max_used": m_used, "converged": converged,
                          "change": change, "least_total": least, "m_floor_room": room})
