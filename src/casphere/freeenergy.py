r"""Exact sphere-plane observables: Matsubara free energy, vacuum energy,
thermal part, and force.

Three equivalent representations are implemented (units hbar = c = k_B = 1):

* the Matsubara sum
  ``F = (T/2) Tr ln(1-M(0)) + T sum_{n>=1} Tr ln(1-M(2 pi T n))``,
  with the n = 0 term always taken from the closed-form static kernel,
* the zero-temperature limit
  ``E_0 = (1/2pi) int_0^inf dxi Tr ln(1-M(xi))``,
* the pure temperature part on the real frequency axis,
  ``F_T = (T/2pi) int_0^inf dxi n_1(xi) * (-2) Im Tr ln(1-M(i xi T))``
  with the Boltzmann factor ``n_1(xi) = 1/(e^xi - 1)``,

connected by ``F = E_0 + F_T``.  Real-frequency integrands oscillate on the
scale pi/(2 L T) in the Boltzmann variable, so panels never exceed half
that scale; panels are refined adaptively, and a vanishing pivot of
1 - M at a node splits the panel that holds it.

The force is the negative derivative of the Matsubara sum or of the
thermal part with respect to the surface separation, from one sweep of
the trace formula ``d/dd Tr ln(1 - M) = -Tr[(1 - M)^{-1} dM/dd]`` over the
same nodes, blocks and cut-off tests as the energy.
"""

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import trlog
from .kernel import SCALAR
from .trlog import SingularBlockError, Truncation


class ConvergenceError(ArithmeticError):
    """A sum or quadrature failed to reach the requested tolerance."""


@dataclass
class EnergyResult:
    """Value with truncation-error estimate and convergence diagnostics."""

    value: float
    error_estimate: float
    diagnostics: dict = dc_field(default_factory=dict)

    def __float__(self):
        return float(self.value)

    @property
    def converged(self):
        return bool(self.diagnostics.get("converged", False))


# -- nested Clenshaw-Curtis panels -------------------------------------------

def _cc_weights(n):
    """Clenshaw-Curtis nodes/weights on [-1, 1], endpoints included.

    n must be odd so the (n+1)/2-point subrule is nested at every other
    node and provides the embedded error estimate.
    """
    N = n - 1
    k = np.arange(N // 2 + 1)
    v = 2.0 / (1.0 - 4.0 * k * k)
    g = np.concatenate([v, v[len(v) - 2:0:-1]])
    w = np.real(np.fft.ifft(g))
    weights = np.empty(n)
    weights[0] = 0.5 * w[0]
    weights[1:N] = w[1:N]
    weights[N] = 0.5 * w[0]
    nodes = np.cos(np.pi * np.arange(n) / N)
    return nodes[::-1].copy(), weights[::-1].copy()


_CC_CACHE = {}


def _cc_rule(n):
    if n not in _CC_CACHE:
        if n % 2 == 0:
            raise ValueError("panel rule needs an odd point count")
        nodes, weights = _cc_weights(n)
        sub_nodes, sub_weights = _cc_weights(n // 2 + 1)
        _CC_CACHE[n] = (nodes, weights, sub_weights)
    return _CC_CACHE[n]


def _integrate_panel(f, a, b, npts):
    """One panel with the nested rule.

    f returns a pair at each node: the integrand and an estimate of its
    truncation error.  Returns the panel's value, its embedded quadrature
    error estimate and the integral of the truncation errors.
    """
    nodes, weights, sub_weights = _cc_rule(npts)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = np.array([f(mid + half * x) for x in nodes])
    full, trunc = (half * float(v) for v in weights @ vals)
    coarse = half * float(np.dot(sub_weights, vals[::2, 0]))
    return full, abs(full - coarse), abs(trunc)


#: splits a vanishing pivot may cause in one adaptive pass before it
#: propagates; a singularity that persists at every node would otherwise
#: double the panels at every level
_SINGULAR_SPLITS = 8


def _adaptive_panels(f, a, b, npts, tol_abs, max_depth=28):
    """Bisect [a, b] until the embedded estimate is below tol_abs.

    A SingularBlockError raised by the integrand (a vanishing pivot of
    1 - M at a node) splits the panel as well, which moves every interior
    node off the resonance; after ``_SINGULAR_SPLITS`` such splits, or
    below width 1e-12, the error propagates.  Returns the three sums of
    :func:`_integrate_panel` over the accepted panels.
    """
    stack = [(a, b, 0)]
    total, err, trunc = 0.0, 0.0, 0.0
    splits = 0
    while stack:
        lo, hi, depth = stack.pop()
        try:
            v, e, t = _integrate_panel(f, lo, hi, npts)
        except SingularBlockError:
            splits += 1
            if splits > _SINGULAR_SPLITS or hi - lo < 1e-12:
                raise
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))
            continue
        if e > tol_abs * (hi - lo) / (b - a) and depth < max_depth:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))
        else:
            total += v
            err += e
            trunc += t
    return total, err, trunc


def _panel_sweep(f, width, xi_max, npts, rel_tol):
    """Integrate f over (0, xi_max) in fixed panels with adaptive refinement.

    The sweep stops early once three consecutive panels contribute less
    than rel_tol * 1e-3 of the running total (the integrands here decay
    exponentially).  Returns the value and an error estimate: the
    quadrature estimate plus the integrated truncation errors of the
    nodes (see :func:`_integrate_panel`).
    """
    panels = []
    a = 0.0
    while a < xi_max:
        b = min(a + width, xi_max)
        panels.append((a, b))
        a = b
    # first pass for the overall scale; a panel whose nodes hit a singular
    # block is left to the adaptive pass, which splits it
    scale = 0.0
    rough = []
    small_run = 0
    for lo, hi in panels:
        try:
            v, e, t = _integrate_panel(f, lo, hi, npts)
        except SingularBlockError:
            rough.append((lo, hi, 0.0, math.inf, 0.0))
            continue
        rough.append((lo, hi, v, e, t))
        scale += v
        if abs(v) < rel_tol * 1e-3 * max(abs(scale), 1e-300):
            small_run += 1
            if small_run >= 3:
                break
        else:
            small_run = 0
    tol_abs = rel_tol * 1e-2 * max(abs(scale), 1e-300)
    total, err = 0.0, 0.0
    for lo, hi, v, e, t in rough:
        if e > tol_abs * (hi - lo) / max(xi_max, hi - lo):
            v, e, t = _adaptive_panels(f, lo, hi, npts, tol_abs)
        total += v
        err += e + t
    return total, err


class _SweepState:
    """Per-sweep bookkeeping for the frequency integrands.

    The orbital cutoff required varies slowly along the frequency axis, so
    the automatic growth is re-verified only on every sixth node; in
    between, the last sufficient cutoff (plus one growth step) is used
    directly.  The running magnitude scale feeds the growth test's
    absolute floor, which keeps oscillatory zero crossings from triggering
    runaway growth.  With ``derivative`` every node is the separation
    derivative of the trace (see :func:`trlog.trace_over_m`).

    The diagnostics count the blocks assembled over the sweep, the rotated
    ones among them whose log-determinant took eigenvalues
    (``eig_blocks``), and the nodes run at the last verified cut-off
    without a growth test of their own (``nodes_assumed``).
    """

    VERIFY_EVERY = 6

    def __init__(self, geom, spec, trunc, evaluation, part=None, derivative=False):
        self.geom = geom
        self.spec = spec
        self.trunc = trunc
        self.evaluation = evaluation
        self.part = part
        self.derivative = derivative
        self.l_used = None
        self.m_used = 0
        self.converged = True
        self.hint = None
        self.scale = 0.0
        self.count = 0
        self.rel_change = 0.0
        self.node_error = 0.0
        self.blocks = 0
        self.eig_blocks = 0
        self.nodes_assumed = 0

    def evaluate(self, xi):
        self.count += 1
        fixed = (self.hint is not None and self.trunc.l_max is None
                 and self.count % self.VERIFY_EVERY != 1)
        if fixed:
            trunc = replace(self.trunc, l_max=self.hint + 4)
            val, diag = trlog.trace_over_m(
                self.evaluation, self.geom, self.spec, trunc, xi=xi,
                part=self.part, derivative=self.derivative)
        else:
            val, diag = trlog.trace_over_m(
                self.evaluation, self.geom, self.spec, self.trunc, xi=xi,
                part=self.part, l_max_start=self.hint,
                scale_floor=1e-3 * self.scale, derivative=self.derivative)
            if self.trunc.l_max is None:
                # the converged value was computed one growth step above
                # the sufficient cutoff; seeding one step below stops the
                # cutoff from ratcheting up at every node
                self.hint = max(self.spec.l_min + 4, diag["l_max_used"] - 4)
        self.l_used = max(self.l_used or 0, diag["l_max_used"])
        self.m_used = max(self.m_used, diag["m_max_used"])
        self.converged = self.converged and diag["converged"]
        self.blocks += diag["blocks"]
        self.eig_blocks += diag["eig_blocks"]
        self.nodes_assumed += fixed
        proj = abs(self.part(val) if self.part else val)
        if "change" in diag:
            # a verified node: its last growth step is its truncation error
            # estimate, and the nodes run at its cut-off inherit it relatively
            self.node_error = diag["change"]
            self.rel_change = self.node_error / max(proj, 1e-3 * self.scale, 1e-300)
        else:
            self.node_error = self.rel_change * proj
        self.scale = max(self.scale, proj)
        return val

    def sweep(self, integrand, width, xi_max):
        """:func:`_panel_sweep` of ``integrand`` over (0, xi_max).

        The first node is the midpoint of the first panel, not its xi -> 0
        endpoint: there the integrands vanish or sit at their static
        value, and a growth test verified on rounding noise would set the
        cut-off (and, through the never-falling hint, every later one).
        """
        integrand(0.5 * min(width, xi_max))
        return _panel_sweep(integrand, width, xi_max, self.trunc.quad_points,
                            self.trunc.rel_tol)

    def diagnostics(self, **extra):
        return {"l_max_used": self.l_used, "m_max_used": self.m_used,
                "blocks": self.blocks, "eig_blocks": self.eig_blocks,
                "nodes_assumed": self.nodes_assumed,
                **extra, "converged": self.converged}


# -- observables --------------------------------------------------------------

def _matsubara_sum(geom, spec, T, trunc, derivative=False):
    """``(T/2) trace(0) + T sum_{n>=1} trace(2 pi T n)`` of Tr ln(1 - M), or
    of its separation derivative; see :func:`matsubara_free_energy`.

    The error estimate adds the last term, the stopping tolerance and, at
    every node, the change of its last l_max growth step.
    """
    if not T > 0.0:
        raise ValueError("matsubara_free_energy needs T > 0; use vacuum_energy")
    geom.require_gap()
    trunc = trunc or Truncation()
    tot0, diag0 = trlog.trace_over_m(trlog.STATIC, geom, spec, trunc,
                                     derivative=derivative)
    F = 0.5 * T * tot0.real
    trunc_err = 0.5 * T * diag0.get("change", 0.0)
    l_used = diag0["l_max_used"]
    m_used = diag0["m_max_used"]
    converged = diag0["converged"]
    n = 1
    last = math.inf
    hint = None
    while True:
        xi = 2.0 * math.pi * T * n
        term, diag = trlog.trace_over_m(trlog.IMAG_AXIS, geom, spec, trunc, xi=xi,
                                        l_max_start=hint, derivative=derivative)
        hint = diag["l_max_used"] - 4
        F += T * term.real
        trunc_err += T * diag.get("change", 0.0)
        l_used = max(l_used, diag["l_max_used"])
        m_used = max(m_used, diag["m_max_used"])
        converged = converged and diag["converged"]
        last = abs(T * term.real)
        if last < trunc.rel_tol * 1e-2 * max(abs(F), 1e-300):
            break
        n += 1
        if n > trunc.n_max:
            raise ConvergenceError(
                f"Matsubara sum needs more than n_max={trunc.n_max} terms; "
                "T*d is too small for this representation")
    return EnergyResult(F, last + trunc.rel_tol * 1e-2 * abs(F) + trunc_err,
                        {"l_max_used": l_used, "m_max_used": m_used,
                         "n_max_used": n, "converged": converged})


def matsubara_free_energy(geom, spec, T, trunc=None):
    """Free energy from the Matsubara representation.

    ``F = (T/2) * trace(0) + T * sum_{n>=1} trace(2 pi T n)`` with the
    zero mode from the static kernel; the sum stops when the last term
    drops below ``rel_tol * 1e-2`` of the running sum (the terms decay
    like exp(-4 pi n T d)).

    With automatic cut-offs, each node from n = 2 on starts its l_max
    growth one step below the l_max the previous node used (the ratchet
    of the frequency sweeps), instead of at l_min + 4.  The n = 1 node
    starts afresh: the cut-off of the static zero mode is no guide to it
    (for a Dirichlet sphere at R = 1, d = 0.2, T = 1 the zero mode stops
    at l_max 24 and the nodes need 44; at R = 0.5, d = 0.005 the zero
    mode runs unconverged to the l_max cap).
    """
    return _matsubara_sum(geom, spec, T, trunc)


def vacuum_energy(geom, spec, trunc=None):
    """Zero-temperature energy (1/2pi) int_0^inf dxi Tr ln(1 - M(xi)).

    The integrand decays like exp(-2 d xi); panels are cut off where it
    falls below ~1e-16 of its peak.
    """
    geom.require_gap()
    trunc = trunc or Truncation()
    state = _SweepState(geom, spec, trunc, trlog.IMAG_AXIS)

    def integrand(xi):
        xi = max(xi, 1e-10)  # panel endpoints touch 0; the integrand is continuous there
        val = state.evaluate(xi)
        return val.real, state.node_error

    xi_cut = 19.0 / geom.d + 5.0 / geom.L
    width = min(2.0 / geom.d, 2.0 / geom.R, xi_cut / 8.0)
    total, err = state.sweep(integrand, width, xi_cut)
    return EnergyResult(total / (2.0 * math.pi), err / (2.0 * math.pi),
                        state.diagnostics(xi_max_used=xi_cut))


def _thermal_sweep(geom, spec, T, trunc, derivative=False):
    """``(T/2pi) int_0^inf dxi n_1(xi) (-2) Im`` of Tr ln(1 - M(i xi T)), or
    of its separation derivative; see :func:`thermal_part`."""
    if spec.kind != SCALAR:
        raise NotImplementedError(
            "thermal_part is available for scalar fields only")
    if not T > 0.0:
        raise ValueError("thermal_part needs T > 0")
    trunc = trunc or Truncation()
    state = _SweepState(geom, spec, trunc, trlog.ROTATED, part=np.imag,
                        derivative=derivative)

    def integrand(xi):
        # endpoints touch 0 where n_1 diverges but the product is finite
        xi = max(xi, 1e-8)
        n1 = 1.0 / math.expm1(xi)
        tr = state.evaluate(xi * T)
        return n1 * (-2.0) * tr.imag, 2.0 * n1 * state.node_error

    xi_max = math.log(1.0 / trunc.rel_tol) + 20.0
    width = min(math.pi / (2.0 * geom.L * T), 3.0)
    total, err = state.sweep(integrand, width, xi_max)
    return EnergyResult(T / (2.0 * math.pi) * total, T / (2.0 * math.pi) * err,
                        state.diagnostics(xi_max_used=xi_max))


def thermal_part(geom, spec, T, trunc=None):
    """Pure temperature part F_T from the rotated (real-frequency)
    representation.

    ``F_T = (T/2pi) int_0^inf dxi n_1(xi) (-2) Im Tr ln(1 - M(i xi T))``.
    Scalar fields only: the electromagnetic continuation of the rotated
    kernel is not validated.  Panels are no wider than half the
    oscillation scale pi/(2 L T); the Boltzmann factor cuts the range at
    ``ln(1/rel_tol) + 20``.  The orbital sums converge at a rate set by
    the J/Y ratio, independent of the separation, so d = 0 is allowed.
    """
    return _thermal_sweep(geom, spec, T, trunc)


def force(geom, spec, T, trunc=None, target="total"):
    """Force -dF/dd on the chosen energy target; negative means attraction.

    ``target`` is ``"total"`` (the Matsubara free energy, static mode plus
    imaginary-axis nodes) or ``"thermal_part"`` (F_T on the rotated axis).
    One sweep over the target's nodes evaluates
    ``d/dd Tr ln(1 - M) = -Tr[(1 - M)^{-1} dM/dd]`` in place of the
    log-determinant, with the same m cut, l_max growth and quadrature
    tests, which now run on the force integrand.  The error estimate is
    that sweep's own: quadrature or Matsubara tail, plus the last l_max
    growth step of each node.  d must be positive.
    """
    if target == "total":
        sweep = _matsubara_sum
    elif target == "thermal_part":
        sweep = _thermal_sweep
    else:
        raise ValueError(f"unknown force target {target!r}")
    geom.require_gap()
    res = sweep(geom, spec, T, trunc, derivative=True)
    return EnergyResult(-res.value, res.error_estimate, res.diagnostics)
