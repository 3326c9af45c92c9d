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
from one builder, :func:`_shift_rows`) that every block m shares, measured
in units of the dominant l'' = l + l' term; the l'' sums of a block are
one matrix product of the coupling store with the rows
(:func:`wigner.couple`).  The rest of an entry is a node prefactor P: the
sphere factor, ``sqrt(pi/4 xi L)`` and that top Bessel term.  The sphere
factors of both axes have one signed-log form, ``(sign_num, log_num,
sign_den, log_den)`` over l, a sign being +-1 or, for the rotated
denominator, the phase factor of its H2 combination; every combination
``(c/x) a - b`` of two orders is formed by :func:`_combine`.  One builder,
``_NodeStack._prefactor``, turns the factors of one polarization (scalar,
rotated) or of TE and TM (electromagnetic) into P.  A node stack,
:class:`ImagNodes` (real blocks) or :class:`RotatedNodes` (complex
blocks), makes the prefactors and rows of its nodes once and then the
stacks of every m through one ``blocks(m)``, with the l'' sums of all
nodes in one product; ``keep(idx)`` drops nodes.  ``scalar_matrix``,
``em_matrix`` and ``rotated_matrix`` build one block as a stack of one;
``static_matrix`` makes one block per call, with its half-integer
log-gamma factors read from the table of :func:`wigner.log_gamma_halves`.

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


def _combine(c, sign_a, log_a, sign_b, log_b):
    """Sign and log modulus of ``c a - b``, elementwise, for c >= 0 and
    a, b in signed-log form ``sign * exp(log)``, a sign being +-1, 0 (with
    log -inf) or a unit complex phase factor.  Both terms are measured in
    units of the larger, so neither over- nor underflows; a zero result is
    sign 0 and log -inf, and a complex one has its phase factor
    ``exp(1j * angle)`` as its sign."""
    with np.errstate(divide="ignore"):
        log_c = np.log(c)  # -inf at c = 0, where only -b is left
    scale = np.maximum(log_a + log_c, log_b)
    scale = np.where(scale > _NEG_INF, scale, 0.0)  # both terms zero
    val = c * np.exp(log_a - scale) * sign_a - np.exp(log_b - scale) * sign_b
    nonzero = val != 0.0
    with np.errstate(divide="ignore"):
        log_val = np.where(nonzero, np.log(np.abs(val)) + scale, _NEG_INF)
    if np.iscomplexobj(val):
        return np.where(nonzero, np.exp(1j * np.angle(val)), 0.0), log_val
    return np.sign(val), log_val


@lru_cache(maxsize=4096)
def _sphere_factors_imag(bc, x, l_max):
    """The sphere scattering factor on the imaginary axis as ``(sign_num,
    log_num, sign_den, log_den)`` over l = 0..l_max: I over K for bc
    'dirichlet' (also the TE mode), else ``(c/x) I_nu + I_{nu+1}`` over
    ``(c/x) K_nu - K_{nu+1}`` (negative) with c = l ('neumann') or l + 1
    ('tm'), whose common sqrt(x) factors are dropped.  Cached per
    frequency; the returned arrays are shared and must not be mutated.
    """
    logi, logk = specfun.log_ik_arrays(l_max, x)  # orders 0 .. l_max+1
    n = l_max + 1
    if bc == DIRICHLET:
        return np.ones(n), logi[:n], np.ones(n), logk[:n]
    if bc == NEUMANN:
        c = np.arange(n) / x
    elif bc == "tm":
        c = np.arange(1, n + 1) / x
    else:
        raise ValueError(f"unknown sphere factor {bc!r}")
    return (*_combine(c, 1.0, logi[:n], -1.0, logi[1:]),
            *_combine(c, 1.0, logk[:n], 1.0, logk[1:]))


@lru_cache(maxsize=4096)
def _sphere_factors_rotated(bc, x, l_max):
    """The sphere factor at the frequency +i xi as ``(sign_num, log_num,
    sign_den, log_den)`` over l = 0..l_max: J over H2 for a Dirichlet
    sphere, ``(l/x) J_nu - J_{nu+1}`` over the same combination of H2 for
    a Neumann one, the denominator's sign being its phase factor
    ``exp(i phase)``.  Cached per frequency; do not mutate the returned
    arrays.
    """
    sj, lj = specfun.log_jy_arrays(l_max, x)  # orders 0 .. l_max+1
    h2m, h2p = specfun.log_hankel2_arrays(l_max, x)
    turn = np.exp(1j * h2p)
    n = l_max + 1
    if bc == DIRICHLET:  # copied, or the cache would also hold the J and phase tables
        return sj[:n].copy(), lj[:n].copy(), turn[:n].copy(), h2m[:n]
    if bc != NEUMANN:
        raise ValueError("rotated kernels support Dirichlet and Neumann spheres only")
    c = np.arange(n) / x
    return (*_combine(c, sj[:n], lj[:n], sj[1:], lj[1:]),
            *_combine(c, turn[:n], h2m[:n], turn[1:], h2m[1:]))


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

    Returns the tables ``(V,)``, or with ``derivative`` ``(V, dV)``, dV the
    rows of ``y^{1/2} d/dy [y^{-1/2} B_{k+1/2}(y)] = (k/y) B_{k+1/2} -
    B_{k+3/2}``, the l'' weights of dM/dy, in the same units.
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
    return (V, (k / y) * V - shift(1)) if derivative else (V,)


@lru_cache(maxsize=64)
def _k_rows(y, l_max, derivative=False, weighted=False):
    """The imaginary-axis weight rows at y = 2 xi L, shared by every block
    m of one frequency and l_max.

    Returns the (2 l_max + 1, l_max + 1) tables of rows for
    :func:`wigner.couple` (V, or with ``derivative`` the rows of dM/dy, and
    with ``weighted`` also those rows times the weights of
    :func:`wigner.lambda_tensor`) and log K_{s+1/2}(y) over s = 0..2 l_max,
    the units of row s.  Cached per frequency; do not mutate.
    """
    logk = specfun.log_k_array(2 * l_max, y)  # orders 0 .. 2 l_max + 1
    V = _shift_rows(y, l_max, logk, derivative=derivative)[-1]
    tables = (V, V * wigner.lambda_tensor(l_max)) if weighted else (V,)
    for table in tables:
        table.flags.writeable = False
    return tables, logk[: 2 * l_max + 1]


class _NodeStack:
    """The blocks M_m of a stack of frequency nodes at one l_max, on either
    axis; :class:`ImagNodes` and :class:`RotatedNodes` make its tables.

    Entry (l, l') of block m factors as ``P[l, l'] * S_m[l, l']``.  The
    prefactor P (:meth:`_prefactor`) depends on the node and l_max, not on
    m; block m reads its trailing square.  P is M without its l'' sum and
    stays of the order of its entries, so no block of any m needs an
    assembly in log space.  For block m, one :func:`wigner.couple` of every
    node's rows gives the l'' sums S_m of every node at once.

    ``P`` is (nodes, q, n, n) over l = l_min..l_max, with q = 1, or 4 for
    the electromagnetic field (the quadrants of :func:`em_matrix`).  ``V``
    holds the rows of every node's tables, (2 l_max + 1, l_max + 1,
    tables * nodes), table-major: column ``c * nodes + i`` is table c of
    node i.  The tables are the rows of M, for the electromagnetic field
    also those rows times the weights of :func:`wigner.lambda_tensor`, and
    with ``derivative`` the same again for dM/dy, so M and dM/dL come from
    one assembly.
    """

    em = False

    def __init__(self, xi, geom, l_min, l_max, derivative, nodes):
        # per node of xi: the sphere factors of each polarization, log |B| at y, the rows
        self.xi, self.L, self.l_min, self.l_max = xi, geom.L, l_min, l_max
        self.derivative = derivative
        ls = np.arange(l_min, l_max + 1)
        top = ls[:, None] + ls[None, :]
        self.P = np.array([self._prefactor(x, factors, log_b[top])
                           for x, (factors, log_b, _) in zip(xi, nodes)])
        columns = [table for of_every_node in zip(*(tables for _, _, tables in nodes))
                   for table in of_every_node]
        self.V = np.array(columns).transpose(1, 2, 0).copy()

    def _prefactor(self, x, factors, log_top):
        """The q blocks of P at the node xi = x: block ``r * len(factors) +
        c``, row polarization r and column polarization c, is ``num_c[l'] /
        den_r[l] * sqrt(pi/4 xi L) * |B_{l+l'+1/2}(y)|``, ``log_top`` being
        the log of that top term, which the rows are measured in.  One
        exponential per entry, with the signs outside it; a unit complex
        sign divides as its conjugate."""
        log_pref = 0.5 * math.log(math.pi / (4.0 * x * self.L))
        cut = slice(self.l_min, None)
        return [(s_num[None, cut] * np.conj(s_den[cut, None]))
                * np.exp(log_num[None, cut] - log_den[cut, None] + log_pref + log_top)
                for _, _, s_den, log_den in factors for s_num, log_num, _, _ in factors]

    @staticmethod
    def _nodes(xi):
        xi = np.asarray(xi, dtype=float)
        if xi.ndim != 1 or not np.all(xi > 0.0):
            raise ValueError("xi must be a 1-d array of positive frequencies; "
                             "use static_matrix for xi = 0")
        return xi

    def keep(self, idx):
        """Keep only the nodes ``idx`` (indices into the current stack)."""
        k = len(self.P)
        tables = self.V.shape[2] // k
        self.xi = self.xi[idx]
        self.P = self.P[idx]
        self.V = np.take(self.V, (np.arange(tables)[:, None] * k + idx).ravel(), axis=2)

    def blocks(self, m):
        """The stacks of block m: M and, with ``derivative``, dM/dL (else
        None), each (nodes, n, n) with n the orbital momenta from
        max(l_min, m) to l_max, twice that for the electromagnetic field."""
        m = abs(m)
        k = len(self.P)
        l_start = max(self.l_min, m)
        n = self.l_max - l_start + 1
        if n <= 0:
            empty = np.zeros((k, 0, 0), dtype=self.P.dtype)
            return empty, (empty if self.derivative else None)
        a = l_start - self.l_min
        # a complex table enters as the (re, im) column pairs of its float view
        S = wigner.couple(m, l_start, self.l_max, self.V.view(np.float64)).view(self.V.dtype)
        S = S.transpose(2, 0, 1).reshape(-1, k, n, n)  # (tables, nodes, n, n)
        if not self.em:
            P = self.P[:, 0, a:, a:]
            return P * S[0], (P * (2.0 * self.xi[:, None, None] * S[1])
                              if self.derivative else None)
        P = self.P[:, :, a:, a:]
        # the Lambda-weighted sum is (l l' S - S_w) / norm, see
        # wigner.lambda_tensor; the polarization mixing factor is
        # 2 |m| xi L / norm
        llp, norm = self.llp[a:, a:], self.norm[a:, a:]
        tilde = (2.0 * m * self.L) * self.xi[:, None, None] / norm
        M = self._em_block(P, tilde * S[0], (llp * S[0] - S[1]) / norm)
        if not self.derivative:
            return M, None
        two_xi, dS, dS_w = 2.0 * self.xi[:, None, None], S[2], S[3]
        # d/dL of tilde * S, with tilde proportional to L
        return M, self._em_block(P, tilde * (two_xi * dS + S[0] / self.L),
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


class ImagNodes(_NodeStack):
    """The imaginary-axis node stack: real blocks M_m(xi), with the K
    tables of :func:`_k_rows` and the sphere factors of
    :func:`_sphere_factors_imag`.

    Electromagnetic blocks have the polarization-major layout of
    :func:`em_matrix`: the prefactors pair the TE and TM sphere factors of
    row and column, the TM column with the sign -1, and the tables hold,
    next to the rows, the rows times the weights of
    :func:`wigner.lambda_tensor`.
    """

    def __init__(self, xi, geom, spec, l_max, derivative=False):
        geom.require_gap()
        xi = self._nodes(xi)
        self.em = spec.kind == ELECTROMAGNETIC
        if self.em:
            lf = np.arange(1.0, l_max + 1)
            lam_norm = np.sqrt(lf * (lf + 1.0))
            self.norm = lam_norm[:, None] * lam_norm[None, :]
            self.llp = lf[:, None] * lf[None, :]
        # the sphere factor and column sign of each polarization
        polarizations = (((DIRICHLET, 1.0), ("tm", -1.0)) if self.em
                         else ((spec.sphere_bc, 1.0),))
        nodes = []
        for x in xi:
            y = 2.0 * x * geom.L
            tables, logk_y = _k_rows(y, l_max, False, self.em)
            if derivative:
                tables = tables + _k_rows(y, l_max, True, self.em)[0]
            factors = []
            for bc, column_sign in polarizations:
                s_num, log_num, s_den, log_den = _sphere_factors_imag(bc, x * geom.R, l_max)
                factors.append((column_sign * s_num, log_num, s_den, log_den))
            nodes.append((factors, logk_y, tables))
        super().__init__(xi, geom, spec.l_min, l_max, derivative, nodes)


class RotatedNodes(_NodeStack):
    """The rotated node stack: complex blocks M_m(i xi) at real frequency,
    with the H2 rows of :func:`_shift_rows` and the sphere factors of
    :func:`_sphere_factors_rotated`, whose denominator carries its phase
    factor into P.  M(-i xi) is the complex conjugate of these blocks.
    Scalar fields only.
    """

    def __init__(self, xi, geom, spec, l_max, derivative=False):
        if spec.kind != SCALAR:
            raise NotImplementedError(
                "the rotated (real-frequency) kernel is implemented for scalar fields only")
        xi = self._nodes(xi)
        nodes = []
        for x in xi:
            y = 2.0 * x * geom.L
            hy_mag, hy_ph = specfun.log_hankel2_arrays(2 * l_max, y)
            nodes.append(([_sphere_factors_rotated(spec.sphere_bc, x * geom.R, l_max)],
                          hy_mag, _shift_rows(y, l_max, hy_mag, hy_ph, derivative)))
        super().__init__(xi, geom, 0, l_max, derivative, nodes)


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
