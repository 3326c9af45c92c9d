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
Frobenius norms of M^2 and M^4, fix the branch whenever that bound is below
one radian.  Blocks the bound does not certify take the eigenvalues, and
those with spectral radius >= 1 the per-pivot determinant.

The force needs the separation derivative of the same trace,

.. math::
    \partial_d \ln\det(1 - sM) = -s \operatorname{Tr}\left[(1 - sM)^{-1}
        \partial_d M\right],

which one LU factorization and solve gives for every block type, with no
eigenvalues and no branch of the logarithm to choose.

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
class MBlockMatrix:
    """One azimuthal block of the round-trip operator."""

    m: int
    l_start: int
    l_max: int
    entries: np.ndarray
    polarization_blocks: bool = False
    derivative: np.ndarray | None = None  # dM/dd, when the force asks for it

    def __post_init__(self):
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("block must be square")
        width = self.l_max - self.l_start + 1 if self.l_max >= self.l_start else 0
        expect = width * (2 if self.polarization_blocks else 1)
        if e.shape[0] != expect:
            raise ValueError(f"block dimension {e.shape[0]} != expected {expect}")
        if e.size and not np.all(np.isfinite(e)):
            raise ValueError("block contains non-finite entries")
        dm = self.derivative
        if dm is not None and (dm.shape != e.shape or not np.all(np.isfinite(dm))):
            raise ValueError("derivative block must be finite and shaped like the block")

    @property
    def dimension(self):
        return self.entries.shape[0]


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
    quad_points: int = 17  # nodes per quadrature panel (nested Clenshaw-Curtis)

    def __post_init__(self):
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be positive")


def assemble_block(m, evaluation, geom, spec, l_max, xi=None, derivative=False):
    """Fill one MBlockMatrix from the matching kernel operation.

    evaluation is one of 'imag' (imaginary axis, needs xi), 'rotated'
    (real frequency, needs xi) or 'static'.  With ``derivative`` the block
    also carries dM/dd from the same kernel.  The plane boundary sign is
    not applied here; it enters the logarithm downstream.
    """
    l_start = max(spec.l_min, abs(m))
    em = spec.kind == kernel.ELECTROMAGNETIC
    if l_start > l_max:
        empty = np.zeros((0, 0))
        return MBlockMatrix(m, l_start, l_max, empty, em,
                            empty if derivative else None)
    if evaluation == IMAG_AXIS:
        if em:
            build, args = kernel.em_matrix, (m, xi, geom, l_max)
        else:
            build, args = kernel.scalar_matrix, (m, xi, geom, spec, l_max)
    elif evaluation == ROTATED:
        build, args = kernel.rotated_matrix, (m, xi, geom, spec, l_max)
    elif evaluation == STATIC:
        build, args = kernel.static_matrix, (m, geom, spec, l_max)
    else:
        raise ValueError(f"unknown evaluation {evaluation!r}")
    return MBlockMatrix(m, l_start, l_max, build(*args), em,
                        build(*args, derivative=True) if derivative else None)


def _entries(block):
    return block.entries if isinstance(block, MBlockMatrix) else np.asarray(block)


def log_det_one_minus(block, plane_sign=1):
    """ln det(1 - plane_sign * M) by pivoted factorization.

    Real blocks (imaginary axis, static) must give a real, negative-free
    logarithm of a positive determinant; the result is returned as a complex
    number with zero imaginary part.  Complex (rotated) blocks take the
    principal branch of each pivot's logarithm.
    """
    M = _entries(block)
    if M.size == 0:
        return 0.0 + 0.0j
    A = np.eye(M.shape[0], dtype=M.dtype) - plane_sign * M
    if not np.iscomplexobj(M):
        sign, logabs = np.linalg.slogdet(A)
        if sign <= 0.0:
            raise SingularBlockError(
                "det(1 - M) <= 0 on the real axis; increase l_max")
        return complex(logabs)
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


def trace_log_eig(block, plane_sign=1, counts=None):
    """sum_i Log(1 - plane_sign*lambda_i) over the block eigenvalues, and
    whether the spectral radius is below one.

    With A = plane_sign * M and rho <= ||A^4||_F^(1/4) (a bound on the
    spectral radius), the first four terms of the expanded logarithm,
    ``-(Tr A + Tr A^2/2 + Tr A^3/3 + Tr A^4/4)``, differ from the sum by at
    most ``rho * q2 / (5 (1 - rho))``, where ``q2 = ||A^2||_F^2`` bounds
    ``sum |lambda|^4`` (Schur's inequality for A^2).  When that bound is
    below one radian, ``slogdet(1 - A)`` gives the real part and the phase
    modulo 2 pi, and the one phase within pi of the four-term estimate is
    the imaginary part.  Otherwise the eigenvalues give the sum, which is
    the principal branch of each Log(1 - lambda_i) and equals the series
    whenever the spectral radius is below one.  Each such block adds 1 to
    ``counts["eig_blocks"]`` when a ``counts`` dict is given.
    """
    M = _entries(block)
    if M.size == 0:
        return 0.0 + 0.0j, True
    A = plane_sign * M
    A2 = A @ A
    A4 = A2 @ A2
    rho = np.vdot(A4, A4).real ** 0.125
    if rho < 1.0 and rho * np.vdot(A2, A2).real < 5.0 * (1.0 - rho):
        estimate = -(np.trace(A) + np.trace(A2) / 2.0
                     + np.einsum("ij,ji->", A2, A) / 3.0 + np.trace(A4) / 4.0)
        sign, logabs = np.linalg.slogdet(np.eye(A.shape[0]) - A)
        phase = math.atan2(sign.imag, sign.real)
        turns = round((estimate.imag - phase) / (2.0 * math.pi))
        return complex(logabs, phase + 2.0 * math.pi * turns), True
    if counts is not None:
        counts["eig_blocks"] += 1
    lam = np.linalg.eigvals(M) * plane_sign
    converged = bool(np.max(np.abs(lam)) < 1.0)
    return complex(np.sum(np.log(1.0 - lam.astype(complex)))), converged


def block_trace_log(block, plane_sign=1, evaluation=IMAG_AXIS, counts=None):
    """Dispatch to the evaluator appropriate for the block type.

    Real blocks go through the determinant.  Rotated blocks go through
    :func:`trace_log_eig`: an LU log-determinant whose branch four traces
    certify, or the eigenvalues where they do not; a block whose spectral
    radius is not below one falls back to the per-pivot determinant.
    ``counts`` is passed on to :func:`trace_log_eig`.
    """
    M = _entries(block)
    if M.size == 0:
        return 0.0 + 0.0j
    if evaluation != ROTATED:
        return log_det_one_minus(block, plane_sign)
    val, ok = trace_log_eig(block, plane_sign, counts=counts)
    if ok:
        return val
    return log_det_one_minus(block, plane_sign)


def trace_derivative(block, plane_sign=1):
    """d/dd ln det(1 - s M) = -s Tr[(1 - s M)^{-1} dM/dd] for a block that
    carries its derivative, by one LU factorization and solve.

    Raises
    ------
    SingularBlockError
        when a pivot of 1 - s M vanishes (below 1e-12 of the largest): a
        frequency node on a resonance, or an l_max too small
    """
    M = _entries(block)
    if M.size == 0:
        return 0.0 + 0.0j
    getrf, getrs = _LU[M.dtype.char]
    lu, piv, _ = getrf(np.eye(M.shape[0], dtype=M.dtype) - plane_sign * M)
    pivots = np.abs(np.diag(lu))
    if not pivots.min() > 1e-12 * pivots.max():
        raise SingularBlockError("vanishing pivot in 1 - M")
    X, _ = getrs(lu, piv, block.derivative)
    return complex(-plane_sign * np.trace(X))


# the LAPACK LU routines themselves: the blocks are small, and the checks
# of scipy.linalg.lu_factor / lu_solve cost as much as the factorization
_LU = {"d": (scipy.linalg.lapack.dgetrf, scipy.linalg.lapack.dgetrs),
       "D": (scipy.linalg.lapack.zgetrf, scipy.linalg.lapack.zgetrs)}


def trace_over_m(evaluation, geom, spec, trunc=None, xi=None, part=None,
                 l_max_start=None, scale_floor=0.0, derivative=False):
    """Tr ln(1 - M) folded over m: block(0) + 2 sum_{m>=1} block(m).

    The m sum stops once a block contributes less than
    ``rel_tol * 1e-2`` of the running total; with l_max = None the orbital
    cutoff grows by 4 until the folded total changes by less than rel_tol.
    With ``derivative`` every block contributes its
    :func:`trace_derivative` instead, so the sum is d/dd Tr ln(1 - M), and
    the m and l tests run on that.

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
    scale_floor : float
        external magnitude scale for the growth test; values whose change
        falls below ``rel_tol * scale_floor`` count as converged (needed
        where an oscillatory projection crosses zero)
    derivative : bool
        fold the separation derivative of the trace instead of the trace

    Returns
    -------
    (complex, dict)
        folded trace (or its derivative) and diagnostics {'l_max_used',
        'm_max_used', 'converged', 'blocks', 'eig_blocks'}: 'blocks' counts
        the blocks assembled over every l_max tried, 'eig_blocks' those of
        them whose rotated log-determinant took eigenvalues (see
        :func:`trace_log_eig`); with automatic growth also 'change', the
        projected change of the last growth step, which estimates the
        truncation error from above
    """
    trunc = trunc or Truncation()
    sign = spec.plane_sign
    meas = part or (lambda z: z)
    counts = {"blocks": 0, "eig_blocks": 0}

    def total_at(l_max):
        tot = 0.0 + 0.0j
        m_used = 0
        for m in range(0, l_max + 1):
            if max(spec.l_min, m) > l_max:
                break
            if derivative:
                blk = assemble_block(m, evaluation, geom, spec, l_max, xi=xi,
                                     derivative=True)
                val = trace_derivative(blk, sign)
            else:
                blk = assemble_block(m, evaluation, geom, spec, l_max, xi=xi)
                val = block_trace_log(blk, sign, evaluation, counts=counts)
            counts["blocks"] += 1
            contrib = val if m == 0 else 2.0 * val
            tot += contrib
            m_used = m
            if m > 0 and abs(contrib) < trunc.rel_tol * 1e-2 * max(abs(tot), 1e-300):
                break
        return tot, m_used

    if trunc.l_max is not None:
        tot, m_used = total_at(trunc.l_max)
        return tot, {"l_max_used": trunc.l_max, "m_max_used": m_used,
                     "converged": True, **counts}

    l_max = max(spec.l_min + 4, l_max_start or 0)
    tot, m_used = total_at(l_max)
    converged = False
    change = math.inf
    while l_max < L_CAP:
        nxt, m_used = total_at(l_max + 4)
        ref = max(abs(meas(nxt)), scale_floor, 1e-300)
        change = abs(meas(nxt) - meas(tot))
        tot = nxt
        l_max += 4
        if change <= trunc.rel_tol * ref:
            converged = True
            break
    return tot, {"l_max_used": l_max, "m_max_used": m_used, "converged": converged,
                 "change": change, **counts}
