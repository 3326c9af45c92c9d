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
>= 1 raise :class:`SingularBlockError`: the expanded logarithm has no
branch to fix there.

The force needs the separation derivative of the same trace,

.. math::
    \partial_d \ln\det(1 - sM) = -s \operatorname{Tr}\left[(1 - sM)^{-1}
        \partial_d M\right],

which one LU factorization and solve gives for every block type, with no
eigenvalues and no branch of the logarithm to choose.

Every block is a stack of nodes, and every evaluator takes a stack and
returns one value per block.  On both frequency axes, several nodes at one
l_max run as one stack: every block m comes from the one ``blocks(m)`` of
the node stacks (:class:`kernel.ImagNodes`, :class:`kernel.RotatedNodes`)
as a plain (nodes, n, n) array; a static block is a stack of one.  The
evaluators take the whole stack at once, with batched matrix products, one
stacked ``slogdet`` and, for the refused blocks, one stacked ``eigvals``;
the choice among them is made in :func:`trace_over_m`.  The nodes step
through m together, each leaves the stack at its own m cut, and with
automatic growth each runs its own l_max test and leaves the stack once it
passes.

The work done is one record, a dict of the counters in :data:`WORK`, each
of which combines by one rule (summed, largest, or all) in
:func:`merge_work`: :func:`trace_over_m` fills one per stack, and the
drivers of :mod:`freeenergy` merge those of the nodes they accept into the
record each result reports.

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
_NODE_STACKS = {IMAG_AXIS: kernel.ImagNodes, ROTATED: kernel.RotatedNodes}


class SingularBlockError(ArithmeticError):
    """A pivot of 1 - M (nearly) vanished, or a rotated block's spectral
    radius is not below one: l_max too small or a quadrature node
    accidentally on a resonance."""


#: the work counters of every result, each with the rule by which two
#: counts of it combine: summed, the largest kept, or all required
WORK = {"l_max_used": "largest", "m_max_used": "largest",
        "l_max_evaluated": "largest", "m_max_evaluated": "largest",
        "blocks": "sum", "eig_blocks": "sum",
        "nodes_discarded": "sum", "converged": "all"}


def new_work():
    """A work record of no work yet: every counter of WORK."""
    return {key: True if rule == "all" else 0 for key, rule in WORK.items()}


def merge_work(record, counts):
    """Combine ``counts`` into the work record ``record``, in place, each
    counter by its rule in WORK.  ``counts`` maps counters to a count or
    to an array of counts (one per node, say); its other keys are
    ignored."""
    for key, value in counts.items():
        rule = WORK.get(key)
        if rule is None:
            continue
        many = isinstance(value, np.ndarray)
        if rule == "sum":
            record[key] += int(value.sum()) if many else int(value)
        elif rule == "largest":
            record[key] = max(record[key], int(value.max(initial=0)) if many else int(value))
        else:
            record[key] = record[key] and bool(value.all() if many else value)


@dataclass
class Truncation:
    """Truncation and tolerance settings shared by the drivers: the
    orbital cutoff and the relative tolerance.

    l_max = None lets each evaluation grow the orbital cutoff (start at
    l_start + 4, grow by 4) until the relative change of the result drops
    below rel_tol.  rel_tol also sets the stop tests of the quadrature and
    of the Matsubara sum; the quadrature panels are one fixed 9-point
    rule (see :mod:`casphere.freeenergy`).
    """

    l_max: int | None = None
    rel_tol: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and positive, got {self.rel_tol}")


def project(evaluation, total):
    """The part of a folded total (or an array of them) that the
    convergence tests measure: the imaginary part on the rotated axis,
    which is what the thermal integrand takes, the total itself on the
    others."""
    return np.imag(total) if evaluation == ROTATED else total


def assemble_block(m, evaluation, geom, spec, l_max, xi=None, derivative=False):
    """Block m of the round-trip operator and, with ``derivative``, dM/dd
    (else None), from the matching kernel operation.

    evaluation is one of 'imag' (imaginary axis), 'rotated' (real
    frequency) or 'static'.  On the imaginary and rotated axes xi is the
    node stack of that axis at this l_max (:class:`kernel.ImagNodes` or
    :class:`kernel.RotatedNodes`), and the blocks are its ``blocks(m)``,
    block m of each of its nodes, (nodes, n, n); the static blocks are a
    stack of one, (1, n, n).  The plane boundary sign is not applied here;
    it enters the logarithm downstream.

    Raises
    ------
    ValueError
        when a block holds a non-finite entry
    """
    if evaluation == STATIC:
        M = kernel.static_matrix(m, geom, spec, l_max)[None]
        dM = kernel.static_matrix(m, geom, spec, l_max, derivative=True)[None] \
            if derivative else None
    else:
        stack = _NODE_STACKS.get(evaluation)
        if stack is None:
            raise ValueError(f"unknown evaluation {evaluation!r}")
        if not (isinstance(xi, stack) and xi.l_max == l_max and xi.derivative == derivative):
            raise ValueError(f"{evaluation} blocks need a node stack at their l_max, "
                             "with the derivative when one is asked for")
        M, dM = xi.blocks(m)
    if not (np.isfinite(M).all() and (dM is None or np.isfinite(dM).all())):
        raise ValueError("block contains non-finite entries")
    return M, dM


def log_det_one_minus(stack, plane_sign=1):
    """ln det(1 - plane_sign * M) of each block M of the real stack
    (k, n, n) (imaginary axis, static), by one stacked ``slogdet``, as an
    array of k complex values with zero imaginary part.  Every determinant
    must be positive.
    """
    M = np.asarray(stack)
    if M.size == 0:
        return np.zeros(len(M), dtype=complex)
    sign, logabs = np.linalg.slogdet(_one_minus(M if plane_sign == 1 else -M))
    if np.any(sign <= 0.0):
        raise SingularBlockError(
            "det(1 - M) <= 0 on the real axis; increase l_max")
    return logabs.astype(complex)


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


def trace_log_eig(stack, plane_sign=1):
    """sum_i Log(1 - plane_sign*lambda_i) over the eigenvalues of each
    block M of the stack (k, n, n) and whether its spectral radius is below
    one, as two arrays of k entries, and how many blocks took the
    eigenvalues.

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
    spectral radius is below one; a block whose spectral radius is not
    below one is flagged, and :func:`trace_over_m` raises on it.

    The bound, the traces and ``slogdet`` run as batched operations over
    the stack, and the refused blocks as one stacked ``eigvals``.
    """
    stack = np.asarray(stack)
    k, n = stack.shape[0], stack.shape[-1]
    vals = np.zeros(k, dtype=complex)
    ok = np.ones(k, dtype=bool)
    refused = ()
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
            lam = np.linalg.eigvals(stack[refused]) * plane_sign
            ok[refused] = np.max(np.abs(lam), axis=1) < 1.0
            vals[refused] = np.sum(np.log(1.0 - lam.astype(complex)), axis=1)
    return vals, ok, len(refused)


def _trace_derivatives(stack, dstack, plane_sign):
    """d/dd ln det(1 - s M) = -s Tr[(1 - s M)^{-1} dM/dd] of each block of
    the stack of M and dM/dd, by one LAPACK ``?gesv`` (LU factorization and
    solve) per block.

    Raises
    ------
    SingularBlockError
        when a pivot of 1 - s M vanishes (below 1e-12 of the largest): a
        frequency node on a resonance, or an l_max too small
    """
    out = np.zeros(len(stack), dtype=complex)
    if stack.shape[-1]:
        gesv = _LU[stack.dtype.char]
        A = _one_minus(stack if plane_sign == 1 else -stack)
        pivots = np.empty(A.shape[:2], dtype=A.dtype)
        X = np.empty(dstack.shape, dtype=A.dtype)
        for i in range(len(stack)):
            # an exactly zero pivot leaves X[i] unsolved; the test below raises
            lu, _, X[i], _ = gesv(A[i], dstack[i])
            pivots[i] = lu.diagonal()
        out[:] = -plane_sign * _traces(X)
        pivots = np.abs(pivots)
        if not np.all(pivots.min(axis=1) > 1e-12 * pivots.max(axis=1)):
            raise SingularBlockError("vanishing pivot in 1 - M")
    return out


# the LAPACK solvers themselves: the blocks are small, and the checks of
# scipy's wrappers cost as much as the solve
_LU = {"d": scipy.linalg.lapack.dgesv, "D": scipy.linalg.lapack.zgesv}


def _with_sub_blocks(X, hi, lo, cut, em):
    """The blocks X[hi] stacked with the blocks X[lo] cut to their leading
    sub-blocks (``hi`` and ``lo`` are lists of positions in the stack X):
    in each polarization half, the rows and columns from ``cut`` on are
    zero, so ``1 - M`` is the identity there."""
    if not lo:
        return X if len(hi) == len(X) else X[hi]
    out = X[hi + lo]
    sub = out[len(hi):]
    n = X.shape[-1] // 2 if em else X.shape[-1]
    for a in ((cut, n + cut) if em else (cut,)):
        sub[:, a: a + n - cut] = 0.0
        sub[:, :, a: a + n - cut] = 0.0
    return out


def trace_over_m(evaluation, geom, spec, trunc=None, xi=None,
                 l_max_start=None, scale_floor=0.0, derivative=False):
    """Tr ln(1 - M) folded over m: block(0) + 2 sum_{m>=1} block(m).

    The m sum stops once a block contributes less than
    ``rel_tol * 1e-2`` of the larger of the running total and the node's
    ``scale_floor``; with l_max = None the orbital cutoff grows by 4 until
    the folded total changes by less than rel_tol of the larger of its
    projection (:func:`project`) and that floor.  Growth never passes
    ``L_CAP``: it stops at the largest start + 4k <= ``L_CAP`` (200 from
    l_min + 4 = 4, 197 from 5), and a node whose test has not passed
    there is reported unconverged.
    With ``derivative`` every block contributes its separation derivative
    ``-s Tr[(1 - sM)^{-1} dM/dd]`` instead, so the sum is d/dd Tr ln(1 - M),
    and the m and l tests run on that.

    On the imaginary and rotated axes xi is a 1-d array of nodes,
    evaluated as one stack (a single node is a stack of one, and so is a
    static trace, which takes no xi): each l_max assembles the axis's node
    stack (:class:`kernel.ImagNodes` or :class:`kernel.RotatedNodes`),
    :func:`assemble_block` reads its blocks once per m as plain arrays, and
    the nodes step through m together and each leaves at its own m cut.
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

    Returns
    -------
    (array, dict)
        the folded trace (or its derivative) of each node, and the work
        record (:data:`WORK`) of the stack with 'change' and 'nodes'.
        'l_max_used' and 'm_max_used' are the largest cut-offs over the
        nodes and 'converged' whether all converged ('nodes_discarded' is
        0).  'blocks' counts the blocks of every node assembled over every
        growth step, 'eig_blocks' the evaluated blocks and sub-blocks whose
        rotated log-determinant took eigenvalues (see
        :func:`trace_log_eig`).
        'l_max_evaluated' and 'm_max_evaluated' are the largest l_max and
        m of any block assembled, over every node and growth step.  With
        automatic growth 'change' is the largest projected change of a
        node's last growth step, which estimates the truncation error
        from above.  'nodes' holds the per-node arrays of 'l_max_used',
        'm_max_used', 'converged' and, with automatic growth, 'change'.

    Raises
    ------
    SingularBlockError
        when a pivot of 1 - M vanishes, or a rotated block or sub-block
        has spectral radius >= 1; the message names the node and m
    """
    trunc = trunc or Truncation()
    if trunc.l_max is not None and trunc.l_max < spec.l_min:
        raise ValueError(f"l_max={trunc.l_max} is below this field's l_min={spec.l_min}")
    sign = spec.plane_sign
    work = new_work()
    stack = _NODE_STACKS.get(evaluation)
    nodes = np.asarray(xi, dtype=float) if stack else np.zeros(1)
    k = len(nodes)
    floors = np.maximum(np.broadcast_to(np.asarray(scale_floor, dtype=float), (k,)), 1e-300)
    m_tol = trunc.rel_tol * 1e-2
    em = spec.kind == kernel.ELECTROMAGNETIC

    def totals(idx, l_hi, l_lo=None):
        """Folded totals of the nodes ``idx`` at l_hi and their m cuts, and
        from the leading sub-blocks their folded totals at l_lo."""
        src = stack(nodes[idx], geom, spec, l_hi, derivative=derivative) if stack else None
        merge_work(work, {"l_max_evaluated": l_hi})
        tot = [[0j] * len(idx), [0j] * len(idx)]  # at l_hi, at l_lo
        going = [[True] * len(idx), [l_lo is not None] * len(idx)]
        m_cut = [0] * len(idx)
        floor = [float(floors[i]) for i in idx]
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
            M, dM = assemble_block(m, evaluation, geom, spec, l_hi, xi=src,
                                   derivative=derivative)
            step = {"blocks": len(active), "m_max_evaluated": m}
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
            elif evaluation != ROTATED:
                vals = log_det_one_minus(both, sign)
            else:
                vals, ok, step["eig_blocks"] = trace_log_eig(both, sign)
                if not ok.all():
                    i = active[(hi + lo)[np.flatnonzero(~ok)[0]]]
                    raise SingularBlockError(f"rotated block at xi={nodes[idx[i]]:g}, "
                                             f"m={m} has spectral radius >= 1")
            merge_work(work, step)
            slots = [(0, active[pos]) for pos in hi] + [(1, active[pos]) for pos in lo]
            for (row, i), v in zip(slots, vals):
                if m == 0:
                    tot[row][i] += v
                    continue
                contrib = 2.0 * v
                tot[row][i] += contrib
                if abs(contrib) < m_tol * max(abs(tot[row][i]), floor[i]):
                    going[row][i] = False
            for pos in hi:
                m_cut[active[pos]] = m
        return np.array(tot[0]), np.array(tot[1]), np.array(m_cut)

    def result(tot, nodes_diag):
        merge_work(work, nodes_diag)  # the cut-offs and convergence of the nodes
        if "change" in nodes_diag:
            work["change"] = float(np.max(nodes_diag["change"]))
        return tot, {**work, "nodes": nodes_diag}

    if trunc.l_max is not None:
        tot, _, m_cut = totals(np.arange(k), trunc.l_max)
        return result(tot, {"l_max_used": np.full(k, trunc.l_max), "m_max_used": m_cut,
                            "converged": np.ones(k, dtype=bool)})

    l_max = max(spec.l_min + 4, l_max_start or 0)
    value = np.zeros(k, dtype=complex)
    l_used = np.full(k, l_max)
    m_used = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    change = np.full(k, math.inf)
    pending = np.arange(k)  # the nodes whose growth test has not passed
    if l_max + 4 > L_CAP:
        value, _, m_used = totals(pending, l_max)
    while l_max + 4 <= L_CAP and len(pending):
        hi, lo, m_cut = totals(pending, l_max + 4, l_max)
        l_max += 4
        proj = project(evaluation, hi)
        size = np.abs(proj)
        delta = np.abs(proj - project(evaluation, lo))
        passed = delta <= trunc.rel_tol * np.maximum(size, floors[pending])
        value[pending], m_used[pending], l_used[pending], change[pending] = \
            hi, m_cut, l_max, delta
        converged[pending[passed]] = True
        pending = pending[~passed]
    return result(value, {"l_max_used": l_used, "m_max_used": m_used, "converged": converged,
                          "change": change})
