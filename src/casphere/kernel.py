r"""Translation-matrix elements of the sphere-plane round trip.

One round trip of a fluctuation between the sphere and its image in the
plane is described, per azimuthal index m, by a matrix over orbital momenta

.. math::
    M_{l,l'}(\xi) = \frac{I_{\nu'}(\xi R)}{K_{\nu}(\xi R)}
        \sqrt{\frac{\pi}{4\xi L}}
        \sum_{l''=|l-l'|}^{l+l'} K_{\nu''}(2\xi L)\, H_{ll'}^{l''},

with :math:`\nu = l+1/2`, :math:`\nu' = l'+1/2` (the sphere factor carries
the column index in the numerator and the row index in the denominator; the
trace of any power, and hence the determinant, equals that of the symmetric
one-index form).  This module provides

* ``ImagNodes`` / ``scalar_matrix`` -- imaginary frequency axis, scalar
  field with Dirichlet or Neumann conditions on the sphere,
* ``ImagNodes`` / ``em_matrix`` -- electromagnetic blocks, TE and TM
  polarization-major,
* ``RotatedNodes`` / ``rotated_matrix`` -- analytic continuation to real
  frequencies via J (the sphere numerator) and the Hankel function
  H2 = J - iY, whose tables come from their own upward recurrence,
* ``static_matrix`` -- closed-form zero-frequency limit (the generic
  formula is 0/0 at xi = 0, so the Matsubara zero mode always uses the
  closed form).

Each block builder also gives dM/dd (``derivative=True``) for the force.
At fixed R and xi, M depends on the separation only through L, in the
factor ``y^{-1/2} K_{l''+1/2}(y)`` with ``y = 2 xi L`` (H2 on the rotated
axis), in ``(R/2L)^(l+l'+1)`` for the static blocks and in the
polarization mixing of the electromagnetic blocks; the derivative blocks
reuse the Bessel tables and coupling store of M.

Every l'' sum reads one table of Bessel weights only at the orders
l'' = l + l' - 2t, so each frequency node has weight rows V[l + l', t]
(K on the imaginary axis, H2 with the sign (-1)^t on the rotated axis,
from one builder) that every block m shares, measured in units of the
l'' = l + l' term, which dominates each sum.  A rotated row is a real
ratio of moduli times the phase factor of its order, read from one table of
``exp(i phase)`` over the node's 2 l_max + 2 orders, so a node costs
2 l_max + 2 complex exponentials, not one per entry.  The l'' sums of a
block are one matrix product of the coupling store with the rows
(:func:`wigner.couple`).  The frequency blocks of a stack of nodes at one
l_max also share a node prefactor (the sphere factor, the top Bessel term
and the geometric factor, all formed in log space once per node and
l_max); an :class:`ImagNodes` or :class:`RotatedNodes` assembles the
prefactors and rows once and then makes the stacks of every m, with the
l'' sums of all nodes in one product.  ``scalar_matrix``, ``em_matrix``
and ``rotated_matrix`` build one block as a stack of one; ``static_matrix``
makes one block per call, with its half-integer log-gamma factors read
from the table of :func:`wigner.log_gamma_halves`.

Everything is pure and reentrant; the only shared state is the idempotent
coupling-store and log-gamma caches of :mod:`wigner`.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun, wigner
from .specfun import _NEG_INF

SCALAR = "scalar"
ELECTROMAGNETIC = "electromagnetic"
DIRICHLET = "dirichlet"
NEUMANN = "neumann"


@dataclass(frozen=True)
class Geometry:
    """Sphere of radius R at surface-to-surface separation d from the plane.

    The center-to-plane distance is L = R + d and eps = d/R is the
    dimensionless separation.  d = 0 (sphere touching the plane) is allowed
    only for the rotated/thermal evaluation path; the modified-axis kernels
    require d > 0.
    """

    R: float
    d: float

    def __post_init__(self):
        if not (math.isfinite(self.R) and math.isfinite(self.d)):
            raise ValueError(f"R and d must be finite, got R={self.R}, d={self.d}")
        if not self.R > 0.0:
            raise ValueError(f"sphere radius must be positive, got R={self.R}")
        if self.d < 0.0:
            raise ValueError(f"separation must be non-negative, got d={self.d}")

    @property
    def L(self):
        return self.R + self.d

    @property
    def eps(self):
        return self.d / self.R

    def require_gap(self):
        if self.d == 0.0:
            raise ValueError("this evaluation requires d > 0")


@dataclass(frozen=True)
class FieldSpec:
    """Field kind plus boundary conditions.

    For the scalar field the sphere and the plane each carry Dirichlet or
    Neumann conditions; the electromagnetic field is perfect-conductor on
    both surfaces and the bc fields are ignored.  Orbital momenta start at
    l_min = 1 for the electromagnetic field and 0 otherwise.
    """

    kind: str = SCALAR
    sphere_bc: str = DIRICHLET
    plane_bc: str = DIRICHLET

    def __post_init__(self):
        if self.kind not in (SCALAR, ELECTROMAGNETIC):
            raise ValueError(f"unknown field kind {self.kind!r}")
        for bc in (self.sphere_bc, self.plane_bc):
            if bc not in (DIRICHLET, NEUMANN):
                raise ValueError(f"unknown boundary condition {bc!r}")

    @property
    def l_min(self):
        return 1 if self.kind == ELECTROMAGNETIC else 0

    @property
    def plane_sign(self):
        """Sign inside the logarithm: -1 for a Neumann plane (scalar only)."""
        if self.kind == SCALAR and self.plane_bc == NEUMANN:
            return -1
        return 1

    @classmethod
    def em(cls):
        return cls(kind=ELECTROMAGNETIC)


def _signed_diff(coef_log_a, log_a, log_b):
    """sign/log of  exp(coef_log_a + log_a) - exp(log_b)  (both terms > 0)."""
    a = coef_log_a + log_a
    scale = np.maximum(a, log_b)
    val = np.exp(a - scale) - np.exp(log_b - scale)
    sign = np.sign(val)
    with np.errstate(divide="ignore"):
        logmag = np.where(val != 0.0, np.log(np.abs(np.where(val != 0.0, val, 1.0))) + scale,
                          _NEG_INF)
    return sign, logmag


@lru_cache(maxsize=4096)
def _sphere_factors_imag(bc, x, l_max):
    """Numerator/denominator of the sphere scattering factor on the
    imaginary axis, as signed logs over l = 0..l_max.

    bc is 'dirichlet' (also the TE mode), 'neumann', or 'tm'.  The sqrt(x)
    factors of the Neumann and TM derivative combinations cancel between
    numerator and denominator and are dropped.  Cached per frequency; the
    returned arrays are shared and must not be mutated.
    """
    logi, logk = specfun.log_ik_arrays(l_max, x)  # orders 0 .. l_max+1
    ls = np.arange(l_max + 1, dtype=float)
    if bc == DIRICHLET:
        return (np.ones(l_max + 1), logi[: l_max + 1].copy(),
                np.ones(l_max + 1), logk[: l_max + 1].copy())
    if bc == NEUMANN:
        coef = ls
    elif bc == "tm":
        coef = ls + 1.0
    else:
        raise ValueError(f"unknown sphere factor {bc!r}")
    with np.errstate(divide="ignore"):
        logcoef = np.where(coef > 0.0,
                           np.log(np.where(coef > 0, coef, 1.0)) - math.log(x),
                           _NEG_INF)
    # numerator (c/x) I_nu + I_{nu+1}: both positive
    log_num = np.logaddexp(logcoef + logi[: l_max + 1], logi[1: l_max + 2])
    sign_num = np.ones(l_max + 1)
    # denominator (c/x) K_nu - K_{nu+1}: negative for every l on these branches
    sign_den, log_den = _signed_diff(logcoef, logk[: l_max + 1], logk[1: l_max + 2])
    return sign_num, log_num, sign_den, log_den


@lru_cache(maxsize=4096)
def _sphere_factors_rotated(bc, x, l_max):
    """Rotated sphere factors at the frequency +i xi: signed-log
    J-combination (numerator) and complex-log H2-combination (denominator),
    over l = 0..l_max.  Cached per frequency; do not mutate the returned
    arrays.
    """
    sj, lj = specfun.log_jy_arrays(l_max, x)  # orders 0 .. l_max+1
    h2m, h2p = specfun.log_hankel2_arrays(l_max, x)
    if bc == DIRICHLET:
        return (sj[: l_max + 1].copy(), lj[: l_max + 1].copy(),
                h2m[: l_max + 1].copy(), h2p[: l_max + 1].copy())
    if bc != NEUMANN:
        raise ValueError("rotated kernels support Dirichlet and Neumann spheres only")
    c = np.arange(l_max + 1) / x
    with np.errstate(divide="ignore"):
        log_c = np.log(c)  # -inf at l = 0, where only the second term is left
    # numerator (l/x) J_nu - J_{nu+1}
    lo, hi = lj[: l_max + 1], lj[1: l_max + 2]
    scale = np.maximum(lo + log_c, hi)
    finite = scale > _NEG_INF
    scale = np.where(finite, scale, 0.0)
    val = c * sj[: l_max + 1] * np.exp(lo - scale) - sj[1: l_max + 2] * np.exp(hi - scale)
    sign_num = np.where(finite, np.sign(val), 0.0)
    with np.errstate(divide="ignore"):
        log_num = np.where(finite & (val != 0.0), np.log(np.abs(val)) + scale, _NEG_INF)
    # denominator (l/x) H_nu - H_{nu+1}, complex
    lo, hi = h2m[: l_max + 1], h2m[1: l_max + 2]
    scale = np.maximum(lo + log_c, hi)
    z = (c * np.exp(lo - scale) * np.exp(1j * h2p[: l_max + 1])
         - np.exp(hi - scale) * np.exp(1j * h2p[1: l_max + 2]))
    return sign_num, log_num, np.log(np.abs(z)) + scale, np.angle(z)


def _grid(m, l_min, l_max):
    l_start = max(l_min, abs(m))
    return l_start, np.arange(l_start, l_max + 1)


def _shift_rows(y, l_max, log_mag, phase=None, derivative=False):
    """The weight rows of the l'' sums at y = 2 xi L.

    ``V[s, t] = B_{k+1/2}(y) / |B_{s+1/2}(y)|`` at the order k = s - 2t
    of the l'' that the coupling store pairs with row s (see
    :func:`wigner.shift_index`), zero where k < 0, over s = 0..2 l_max and
    t = 0..l_max.  B is K (real rows) when ``phase`` is None, else the
    Hankel function with log modulus ``log_mag`` and phase ``phase``, and
    the complex rows carry the sign (-1)^t = (-1)^((l+l'-l'')/2) of the
    rotated representation.  The tables hold orders 0..2 l_max + 1.  |B|
    grows with order, so the l'' = l + l' term dominates each sum and the
    exponents sit at or below zero; they are clamped at 50 all the same.
    A complex row is its real modulus ratio times the phase factor of its
    order, read from one table ``exp(1j * phase)`` of the 2 l_max + 2
    orders, so a node needs no complex exponential per entry.

    Returns V and, with ``derivative`` (else None), the rows of
    ``y^{1/2} d/dy [y^{-1/2} B_{k+1/2}(y)] = (k/y) B_{k+1/2} - B_{k+3/2}``,
    the l'' weights of dM/dy, in the same units.
    """
    k, weight = wigner.shift_index(l_max)
    top = log_mag[: 2 * l_max + 1, None]
    if phase is not None:
        weight = weight * (1.0 - 2.0 * (np.arange(l_max + 1) % 2))
        turn = np.exp(1j * phase)

    def shift(lo):
        e = np.exp(np.minimum(log_mag[k + lo] - top, 50.0))
        if phase is not None:
            e = e * turn[k + lo]
        return e * weight

    V = shift(0)
    return V, ((k / y) * V - shift(1) if derivative else None)


@lru_cache(maxsize=64)
def _k_rows(y, l_max, derivative=False, weighted=False):
    """The imaginary-axis weight rows at y = 2 xi L, shared by every block
    m of one frequency and l_max.

    Returns the (2 l_max + 1, l_max + 1, columns) rows for
    :func:`wigner.couple` (columns: V, or with ``derivative`` the rows of
    dM/dy, and with ``weighted`` also those rows times the weights of
    :func:`wigner.lambda_tensor`) and log K_{s+1/2}(y) over s = 0..2 l_max,
    the units of row s.  Cached per frequency; do not mutate.
    """
    logk = specfun.log_k_array(2 * l_max, y)  # orders 0 .. 2 l_max + 1
    V, dV = _shift_rows(y, l_max, logk, derivative=derivative)
    if derivative:
        V = dV
    rows = np.stack([V, V * wigner.lambda_tensor(l_max)] if weighted else [V], axis=-1)
    rows.flags.writeable = False
    return rows, logk[: 2 * l_max + 1]


class ImagNodes:
    """The imaginary-axis blocks M_m(xi) of a stack of nodes at one l_max.

    Entry (l, l') of block m factors as ``P[l, l'] * S_m[l, l']``, as in
    :class:`RotatedNodes`.  The prefactor P depends on the node and l_max,
    not on m: the sphere factor (numerator of l', denominator of l),
    ``sqrt(pi/4 xi L)`` and the top term ``K_{l+l'+1/2}(y)`` that the
    weight rows of :func:`_k_rows` are measured in; block m reads its
    trailing square.  For block m, one :func:`wigner.couple` of every
    node's rows gives the l'' sums of every node at once.  P is M without
    its l'' sum and stays of the order of its entries, so each entry of P
    is one exponential of a sum of logs, and no block of any m needs an
    assembly in log space.

    Electromagnetic blocks have the polarization-major layout of
    :func:`em_matrix`: four prefactors per node (the TE and TM sphere
    factors of column and row, with the signs of the off-diagonal and TM
    quadrants) and, next to the rows, the rows times the weights of
    :func:`wigner.lambda_tensor`.  With ``derivative`` the rows of dM/dL
    ride in the same product, so M and dM/dL come from one assembly.
    """

    def __init__(self, xi, geom, spec, l_max, derivative=False):
        geom.require_gap()
        xi = np.asarray(xi, dtype=float)
        if xi.ndim != 1 or not np.all(xi > 0.0):
            raise ValueError("xi must be positive; use static_matrix for xi = 0")
        self.xi = xi
        self.L = geom.L
        self.l_max = l_max
        self.derivative = derivative
        self.em = spec.kind == ELECTROMAGNETIC
        self.l0 = spec.l_min
        ls = np.arange(self.l0, l_max + 1)
        ktop = ls[:, None] + ls[None, :]
        if self.em:
            lf = ls.astype(float)
            lam_norm = np.sqrt(lf * (lf + 1.0))
            self.norm = lam_norm[:, None] * lam_norm[None, :]
            self.llp = lf[:, None] * lf[None, :]
        self.P = np.empty((len(xi), 4 if self.em else 1, len(ls), len(ls)))
        rows = []
        for i, x in enumerate(xi):
            y = 2.0 * x * geom.L
            V, logk_y = _k_rows(y, l_max, False, self.em)
            rows.append(V)
            if derivative:
                rows.append(_k_rows(y, l_max, True, self.em)[0])
            base = 0.5 * math.log(math.pi / (4.0 * x * geom.L)) + logk_y[ktop]
            if not self.em:
                s_num, log_num, s_den, log_den = _sphere_factors_imag(
                    spec.sphere_bc, x * geom.R, l_max)
                self.P[i, 0] = (s_num[ls][None, :] * s_den[ls][:, None]) * np.exp(
                    log_num[ls][None, :] - log_den[ls][:, None] + base)
                continue
            _, num_te, _, den_te = _sphere_factors_imag(DIRICHLET, x * geom.R, l_max)
            _, num_tm, s_den_tm, den_tm = _sphere_factors_imag("tm", x * geom.R, l_max)
            num_te, den_te, num_tm, den_tm = (a[ls] for a in (num_te, den_te, num_tm, den_tm))
            s_tm = s_den_tm[ls][:, None]
            self.P[i, 0] = np.exp(num_te[None, :] - den_te[:, None] + base)
            self.P[i, 1] = -np.exp(num_tm[None, :] - den_te[:, None] + base)
            self.P[i, 2] = s_tm * np.exp(num_te[None, :] - den_tm[:, None] + base)
            self.P[i, 3] = -s_tm * np.exp(num_tm[None, :] - den_tm[:, None] + base)
        self.columns = (2 if self.em else 1) * (2 if derivative else 1)
        self.V = np.concatenate(rows, axis=2)

    def keep(self, idx):
        """Keep only the nodes ``idx`` (indices into the current stack)."""
        c = self.columns
        self.xi = self.xi[idx]
        self.P = self.P[idx]
        self.V = np.take(self.V, (idx[:, None] * c + np.arange(c)).ravel(), axis=2)

    def blocks(self, m):
        """The stacks of block m: M and, with ``derivative``, dM/dL (else
        None), each (nodes, n, n) with n the orbital momenta from
        max(l_min, m) to l_max, twice that for the electromagnetic field."""
        m = abs(m)
        k = len(self.xi)
        l_start = max(self.l0, m)
        n = self.l_max - l_start + 1
        if n <= 0:
            empty = np.zeros((k, 0, 0))
            return empty, (empty if self.derivative else None)
        a = l_start - self.l0
        S = wigner.couple(m, l_start, self.l_max, self.V)
        S = np.ascontiguousarray(S.transpose(2, 0, 1)).reshape(k, self.columns, n, n)
        P = self.P[:, :, a:, a:]
        two_xi = 2.0 * self.xi[:, None, None]
        if not self.em:
            M = P[:, 0] * S[:, 0]
            return M, (P[:, 0] * (two_xi * S[:, 1]) if self.derivative else None)
        # the Lambda-weighted sum is (l l' S - S_w) / norm, see
        # wigner.lambda_tensor; the polarization mixing factor is
        # 2 |m| xi L / norm
        llp, norm = self.llp[a:, a:], self.norm[a:, a:]
        tilde = (2.0 * m * self.L) * self.xi[:, None, None] / norm
        M = self._em_block(P, tilde * S[:, 0], (llp * S[:, 0] - S[:, 1]) / norm)
        if not self.derivative:
            return M, None
        dS, dS_w = S[:, 2], S[:, 3]
        # d/dL of tilde * S, with tilde proportional to L
        return M, self._em_block(P, tilde * (two_xi * dS + S[:, 0] / self.L),
                                 two_xi * (llp * dS - dS_w) / norm)

    @staticmethod
    def _em_block(P, mixed, diagonal):
        k, n = len(P), P.shape[-1]
        out = np.empty((k, 2 * n, 2 * n))
        out[:, :n, :n] = P[:, 0] * diagonal
        out[:, :n, n:] = P[:, 1] * mixed
        out[:, n:, :n] = P[:, 2] * mixed
        out[:, n:, n:] = P[:, 3] * diagonal
        return out


def scalar_matrix(m, xi, geom, spec, l_max, derivative=False):
    """Dense M_{l,l'}(xi) for one azimuthal index m (imaginary axis, scalar).

    Parameters
    ----------
    m : int
        azimuthal index (non-negative; negative m is related by symmetry)
    xi : float
        positive imaginary frequency
    geom : Geometry
    spec : FieldSpec
        must be scalar
    l_max : int
        highest orbital momentum retained
    derivative : bool
        return dM/dL (at fixed R and xi, so dM/dd) instead of M.  M depends
        on L only through y = 2 xi L in ``y^{-1/2} K_{l''+1/2}(y)``, so
        dM/dL = 2 xi dM/dy changes only the l'' weights.

    Returns
    -------
    ndarray
        (n, n) real matrix with n = l_max - max(0, |m|) + 1; empty when the
        l range is empty.  The block is built as a stack of one by
        :class:`ImagNodes`.
    """
    if spec.kind != SCALAR:
        raise ValueError("scalar_matrix needs a scalar FieldSpec")
    M, dM = ImagNodes([xi], geom, spec, l_max, derivative).blocks(m)
    return (dM if derivative else M)[0]


class RotatedNodes:
    """The rotated blocks M_m(i xi) of a stack of nodes at one l_max.

    Entry (l, l') of block m factors as ``P[l, l'] * S_m[l, l']``.  The
    prefactor P depends on the node and l_max, not on m: the sphere factor
    (numerator of l', denominator of l and its phase), ``sqrt(pi/4 xi L)``
    and the |H2| top term ``|H2_{l+l'+1/2}(y)|`` that the l'' sum is
    measured in; block m reads ``P[m:, m:]``.  The l'' sum S_m reads the
    weight rows of :func:`_shift_rows` from H2, built once per node; for
    block m, one :func:`wigner.couple` of every node's rows gives the l''
    sums of every node at once.

    With ``derivative`` the shift-table rows of dM/dL (the l'' weights of
    ``y^{-1/2} H_{l''+1/2}(y)`` differentiated, see :func:`scalar_matrix`)
    ride in the same product, so M and dM/dL come from one assembly.
    M(-i xi) is the complex conjugate of these blocks.  Scalar fields only.
    """

    def __init__(self, xi, geom, spec, l_max, derivative=False):
        if spec.kind != SCALAR:
            raise NotImplementedError(
                "the rotated (real-frequency) kernel is implemented for scalar fields only")
        xi = np.asarray(xi, dtype=float)
        if xi.ndim != 1 or not np.all(xi > 0.0):
            raise ValueError("xi must be a 1-d array of positive frequencies")
        self.l_max = l_max
        self.derivative = derivative
        self.two_xi = 2.0 * xi
        k = len(xi)
        ls = np.arange(l_max + 1)
        ktop = ls[:, None] + ls[None, :]
        self.P = np.empty((k, l_max + 1, l_max + 1), dtype=complex)
        self.V = np.zeros((2 * l_max + 1, l_max + 1, 2 * k if derivative else k),
                          dtype=complex)
        for i, x in enumerate(xi):
            s_num, log_num, den_mag, den_ph = _sphere_factors_rotated(
                spec.sphere_bc, x * geom.R, l_max)
            y = 2.0 * x * geom.L
            hy_mag, hy_ph = specfun.log_hankel2_arrays(2 * l_max, y)
            top = hy_mag[: 2 * l_max + 1]
            log_pref = 0.5 * math.log(math.pi / (4.0 * x * geom.L))
            mag = np.exp(log_num[None, :] - den_mag[:, None] + log_pref + top[ktop])
            self.P[i] = (s_num[None, :] * mag) * np.exp(-1j * den_ph[:, None])
            V, dV = _shift_rows(y, l_max, hy_mag, hy_ph, derivative)
            self.V[:, :, i] = V
            if derivative:
                self.V[:, :, k + i] = dV

    def keep(self, idx):
        """Keep only the nodes ``idx`` (indices into the current stack)."""
        k = len(self.P)
        self.P = self.P[idx]
        self.two_xi = self.two_xi[idx]
        cols = np.concatenate([idx, k + idx]) if self.derivative else idx
        self.V = np.take(self.V, cols, axis=2)

    def blocks(self, m):
        """The stacks of block m: M and, with ``derivative``, dM/dL (else
        None), each (nodes, n, n) with n = l_max - m + 1."""
        m = abs(m)
        k = len(self.P)
        n = self.l_max - m + 1
        if n <= 0:
            empty = np.zeros((k, 0, 0), dtype=complex)
            return empty, (empty if self.derivative else None)
        # real store times the (re, im) pairs of the complex rows
        S = wigner.couple(m, m, self.l_max, self.V.view(np.float64)).view(complex)
        S = S.transpose(2, 0, 1)
        P = self.P[:, m:, m:]
        M = P * S[:k]
        if not self.derivative:
            return M, None
        return M, P * (self.two_xi[:, None, None] * S[k:])


def rotated_matrix(m, xi, geom, spec, l_max, derivative=False):
    """Dense complex M_{l,l'}(+i xi) for one m (rotated to real frequency);
    M(-i xi) is its complex conjugate.

    Scalar fields only (the electromagnetic continuation is not
    validated).  ``derivative`` returns dM/dL as in :func:`scalar_matrix`,
    with the l'' weights of ``y^{-1/2} H_{l''+1/2}(y)``.  The block is
    built as a stack of one by :class:`RotatedNodes`.
    """
    M, dM = RotatedNodes([xi], geom, spec, l_max, derivative).blocks(m)
    return (dM if derivative else M)[0]


def em_matrix(m, xi, geom, l_max, derivative=False):
    """Dense electromagnetic round-trip matrix for one m (imaginary axis).

    Polarization-major layout: the first n rows/columns are the TE channel,
    the last n the TM channel, with n orbital momenta from max(1, |m|).
    As in :func:`scalar_matrix`, the sphere factor carries the column
    momentum and polarization in the numerator and the row momentum and
    polarization (with its sign) in the denominator.  This keeps the
    entries of the order of the eigenvalues; it is a diagonal similarity
    of the per-column T-matrix form, so the determinant is the same.
    ``derivative`` returns dM/dL as in :func:`scalar_matrix`; the
    polarization mixing factor 2 |m| xi L / (lambda lambda') adds its own
    L dependence.  The block is built as a stack of one by
    :class:`ImagNodes`.
    """
    M, dM = ImagNodes([xi], geom, FieldSpec.em(), l_max, derivative).blocks(m)
    return (dM if derivative else M)[0]


def static_matrix(m, geom, spec_or_pol, l_max, derivative=False):
    """Dense zero-frequency matrix for one m.

    For a scalar FieldSpec (or 'dirichlet'/'neumann'/'te'/'tm') a single
    block is returned; for an electromagnetic FieldSpec the TE and TM
    blocks are stacked block-diagonally (the polarization mixing vanishes
    at zero frequency).  Every entry is proportional to (R/2L)^(l+l'+1),
    so ``derivative`` returns dM/dL = -(l+l'+1)/L M.
    """
    geom.require_gap()
    if isinstance(spec_or_pol, FieldSpec) and spec_or_pol.kind == ELECTROMAGNETIC:
        te = static_matrix(m, geom, "te", l_max, derivative)
        tm = static_matrix(m, geom, "tm", l_max, derivative)
        out = np.zeros((2 * te.shape[0], 2 * te.shape[0]))
        nb = te.shape[0]
        out[:nb, :nb] = te
        out[nb:, nb:] = tm
        return out
    pol = spec_or_pol.sphere_bc if isinstance(spec_or_pol, FieldSpec) else spec_or_pol
    l_min = 1 if pol in ("te", "tm") else 0
    l_start, ls = _grid(m, l_min, l_max)
    n = len(ls)
    if n == 0:
        return np.zeros((0, 0))
    logH = wigner.log_h_top_matrix(l_start, l_max, abs(m))
    l = ls[:, None]
    lp = ls[None, :]
    lgh = wigner.log_gamma_halves(4 * l_max + 4)
    logM = ((l + lp + 1.0) * math.log(geom.R / (2.0 * geom.L))
            + 0.5 * math.log(math.pi) - math.log(2.0)
            + lgh[2 * (l + lp) + 1] - lgh[2 * l + 1] - lgh[2 * lp + 3] + logH)
    M = np.exp(logM)
    if derivative:
        M *= -(l + lp + 1.0) / geom.L
    if pol == DIRICHLET:
        return M
    if pol == NEUMANN:
        return M * (-lp / (l + 1.0))
    lam_top = np.sqrt(l * lp / ((l + 1.0) * (lp + 1.0)))
    if pol == "te":
        return M * lam_top
    if pol == "tm":
        return M * lam_top * (lp + 1.0) / l
    raise ValueError(f"unknown polarization {pol!r}")
