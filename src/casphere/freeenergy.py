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

connected by ``F = E_0 + F_T``.  Real-frequency integrands oscillate with
period pi/(L T) in the Boltzmann variable.  The sweep's panels start at
half that period and double after each over-resolved panel (see
:func:`_panel_sweep`); panels are refined adaptively, and a vanishing
pivot of 1 - M at a node splits the panel that holds it.  Each integral
refines to a stated quadrature share of rel_tol: 1/2 on the real-frequency
axis, where the panel estimate overstates the error by orders of
magnitude, and 1e-2 for E_0, whose estimate is only about its error.
A panel is one fixed nested Clenshaw-Curtis rule of ``_PANEL_POINTS`` = 9
nodes, whose every other node is the 5-point rule of the error estimate.
The panels' nodes and the Matsubara nodes n >= 1, in chunks of up to
``MATSUBARA_CHUNK``, go through one acceptance engine
(:class:`_SweepState`): each panel or chunk is one stack of blocks, every
node runs its own l_max growth test, and the nodes are accepted in order
while each gets the cut-off and value it would get evaluated alone.

The engine's truncation floor is in units of the integrand or sum, not of
the trace: each node's l_max growth and m sum stop at rel_tol (the m sum
at rel_tol * 1e-2) of the larger of its own projected trace and a share
of the largest weighted |trace| before its panel or chunk, divided by its
weight.  On the frequency sweeps the share is 1e-3 and the weight is n_1
on the real-frequency axis and 1 on the imaginary axis; the Matsubara sum
uses the share 1e-2 of its stop test, weight 1 and a scale that starts at
the zero-mode term.  So the nodes that the Boltzmann factor or the Matsubara
decay makes negligible converge only as far as the result needs.

Along a sweep the cut-off hint of the acceptance engine only rises, while
the cut-off the nodes need falls again towards xi -> 0.  The adaptive pass
therefore refines each panel of the first pass from the hint that panel
itself left, not from the one at the top of the axis.

The force is the negative derivative of the Matsubara sum or of the
thermal part with respect to the surface separation, from one sweep of
the trace formula ``d/dd Tr ln(1 - M) = -Tr[(1 - M)^{-1} dM/dd]`` over the
same nodes, blocks and cut-off tests as the energy.
"""

import math
from dataclasses import dataclass, field as dc_field

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

    n must be 3 or 1 mod 4 so that the (n+1)/2-point subrule, nested at
    every other node, is itself a Clenshaw-Curtis rule and provides the
    embedded error estimate.
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


def _subrule_degree(npts):
    """Degree of exactness of the embedded subrule of an ``npts``-point
    panel: a Clenshaw-Curtis rule of k points integrates degree k - 1, and
    degree k when k is odd."""
    k = npts // 2 + 1
    return k if k % 2 else k - 1


#: nodes per quadrature panel; each panel is one stack of nodes
_PANEL_POINTS = 9
_PANEL_NODES, _PANEL_WEIGHTS = _cc_weights(_PANEL_POINTS)
#: the weights of the embedded rule on every other node
_SUB_WEIGHTS = _cc_weights(_PANEL_POINTS // 2 + 1)[1]
#: a first-pass panel whose embedded estimate is below this share of its
#: tolerance is over-resolved: doubling it multiplies a degree-p rule's
#: error by about 2^(p+2) while its share only doubles
_OVER_RESOLVED = 2.0 ** -(_subrule_degree(_PANEL_POINTS) + 1)

#: splits a vanishing pivot may cause in one adaptive pass before it
#: propagates; a singularity that persists at every node would otherwise
#: double the panels at every level
_SINGULAR_SPLITS = 8

#: bisection levels of an adaptive pass; a panel at this depth is accepted
#: with its embedded estimate whatever that is
_MAX_DEPTH = 28


def _integrate_panel(f, a, b):
    """One panel with the nested rule.

    f takes the array of the panel's nodes and returns, per node, a pair:
    the integrand and an estimate of its truncation error.  Returns the
    panel's value, its embedded quadrature error estimate and the integral
    of the truncation errors.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = np.asarray(f(mid + half * _PANEL_NODES))
    full, trunc = (half * float(v) for v in _PANEL_WEIGHTS @ vals)
    coarse = half * float(np.dot(_SUB_WEIGHTS, vals[::2, 0]))
    return full, abs(full - coarse), abs(trunc)


def _adaptive_panels(f, a, b, tol_abs):
    """Integrate f over [a, b] from its two halves, bisecting each panel
    [lo, hi] until its embedded estimate is at most its share of tol_abs,
    ``tol_abs * (hi - lo) / (b - a)``.

    A SingularBlockError raised by the integrand (a vanishing pivot of
    1 - M at a node) splits the panel as well, which moves every interior
    node off the resonance; after ``_SINGULAR_SPLITS`` such splits, or
    below width 1e-12, the error propagates.  A panel ``_MAX_DEPTH``
    levels below [a, b] is accepted unconverged, its embedded estimate
    counted in the error.  Returns the three sums of
    :func:`_integrate_panel` over the accepted panels and the number of
    panels evaluated.
    """
    mid = 0.5 * (a + b)
    stack = [(mid, b, 1), (a, mid, 1)]
    total, err, trunc = 0.0, 0.0, 0.0
    splits = evaluated = 0
    while stack:
        lo, hi, depth = stack.pop()
        evaluated += 1
        try:
            v, e, t = _integrate_panel(f, lo, hi)
        except SingularBlockError:
            splits += 1
            if splits > _SINGULAR_SPLITS or hi - lo < 1e-12:
                raise
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))
            continue
        if e > tol_abs * (hi - lo) / (b - a) and depth < _MAX_DEPTH:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))
        else:
            total += v
            err += e
            trunc += t
    return total, err, trunc, evaluated


def _panel_sweep(f, width, xi_max, rel_tol, checkpoint, share):
    """Integrate f over (0, xi_max) in panels of ``width`` times a power of
    two, with adaptive refinement.

    The first pass starts at ``width``.  Once a panel's embedded estimate
    is below ``rel_tol * 1e-2 * |running total| * (hi - lo) / xi_max``, its
    share of the tolerance, over 2^(p+1), p = 5 the degree of exactness of
    the embedded subrule (``_OVER_RESOLVED``), the next panel is twice as
    wide: the panels keep doubling while they stay over-resolved, and
    never narrow again.  This test keeps the share 1e-2 whatever ``share``
    is: at 1/2 the wider panels of the R = 6 table force reach l_max 104
    instead of 88, at twice the time.  A panel is small when its value per
    unit width is below rel_tol * 1e-3 of the running total per ``width``,
    and the pass stops once the small panels in a row span 3 width (the
    integrands here decay exponentially).

    The refinement pass then bisects every first-pass panel whose
    embedded estimate exceeds ``tol_abs = rel_tol * share * |total|``, the
    integral's quadrature share of the tolerance of the final first-pass
    total, down to panels within their share of tol_abs
    (:func:`_adaptive_panels`); every other first-pass panel is taken as
    its first pass evaluated it, so no panel is evaluated twice.  Returns the value, an error estimate (the quadrature
    estimate plus the integrated truncation errors of the nodes, see
    :func:`_integrate_panel`) and a dict of the work: the upper end of the
    last first-pass panel (``xi_max_used``), the panels evaluated by the
    first pass (``panels``) and by the refinement (``panels_refined``).

    ``checkpoint()`` is called after each panel of the first pass and
    returns a callable that puts back the state f then had; the adaptive
    pass calls it before it refines that panel, so that a refinement
    starts from what its own panel left, not from where the first pass
    ended (see :meth:`_SweepState.checkpoint`).
    """
    # first pass for the overall scale; a panel whose nodes hit a singular
    # block is left to the adaptive pass, which splits it
    scale = 0.0
    rough = []
    step = 1  # the width of the next panel, in units of width
    small_run = 0  # the width the trailing small panels span, in units of width
    a = 0.0
    while a < xi_max:
        lo, hi, units = a, min(a + step * width, xi_max), step
        a = hi
        try:
            v, e, t = _integrate_panel(f, lo, hi)
        except SingularBlockError:
            rough.append((lo, hi, 0.0, math.inf, 0.0, checkpoint()))
            continue
        rough.append((lo, hi, v, e, t, checkpoint()))
        scale += v
        tol = rel_tol * max(abs(scale), 1e-300)
        if e < _OVER_RESOLVED * tol * 1e-2 * (hi - lo) / xi_max:
            step *= 2
        if abs(v) * width < tol * 1e-3 * (hi - lo):
            small_run += units
            if small_run >= 3:
                break
        else:
            small_run = 0
    tol_abs = rel_tol * share * max(abs(scale), 1e-300)
    total, err, refined = 0.0, 0.0, 0
    for lo, hi, v, e, t, restore in rough:
        if e > tol_abs:
            restore()
            v, e, t, evaluated = _adaptive_panels(f, lo, hi, tol_abs)
            refined += evaluated
        total += v
        err += e + t
    return total, err, {"xi_max_used": rough[-1][1], "panels": len(rough),
                        "panels_refined": refined}


class _SweepState:
    """The acceptance engine of the frequency nodes, for the frequency
    integrands and the Matsubara sum.

    Every node runs its own l_max growth test, from the hint h, the
    cut-off one growth step below that of the node accepted before it (the
    cut-off a sweep needs varies slowly along the frequency axis), and its
    truncation error estimate is the change of its own last growth step.
    ``weight``, a callable of the nodes (default 1), is the factor the
    integrand puts on the trace (n_1 on the thermal sweep), and ``scale``
    the largest weighted projected magnitude so far, in units of the
    integrand.  Every node of one :meth:`evaluate` call has the floor
    ``floor * scale / weight_j``, in units of the trace, from the scale as
    it stood when the call began: it floors the growth test and the m
    test, so every node is converged to about rel_tol times ``floor *
    scale`` in units of the integrand.  The scale still rises as the
    call's nodes are accepted, for the calls after it.  A lower floor only
    makes a node's tests stricter.  The floor keeps oscillatory zero
    crossings from triggering runaway growth, and the nodes the weight
    makes negligible from running to the cut-offs of the integrand's
    peak.  ``scale`` seeds the running scale (0 on the sweeps; the
    Matsubara sum passes its zero-mode term, so that its first nodes are
    floored too).  With ``derivative`` every node is the separation
    derivative of the trace (see :func:`trlog.trace_over_m`).

    The nodes handed to :meth:`evaluate` (a quadrature panel, a chunk of
    Matsubara nodes) go through :func:`trlog.trace_over_m` as one stack,
    which grows each node's cut-off from h.  The nodes are then accepted in
    order, each with the scale, hint and error bookkeeping that the nodes
    before it leave, while each gets the result it gets alone: a node
    while its cut-off is at least the current hint + 4 (a growth step
    gives the same totals whatever cut-off the node started from, up to
    the rounding of the stack).  The first node that fails and the nodes
    after it are stacked again from the new hint, under the same floor
    (``nodes_discarded`` counts the nodes thrown away), so a node's
    cut-off, m cut and value never depend on the stack.  A pinned
    ``Truncation(l_max=...)`` takes every node at that cut-off, with no
    truncation error estimate.  A stack that meets a singular block (a
    vanishing pivot, or a rotated block of spectral radius >= 1) is
    evaluated again one node at a time, so that the error and the state
    are those of the node that raised it.

    The hint only rises along the nodes, but the cut-off a sweep needs
    falls again at low frequency.  So :meth:`sweep` refines a panel of its
    first pass from the hint that the panel's own first-pass evaluation
    left (:meth:`checkpoint`), not from the one at the top of the axis;
    the running scale and the diagnostics run on.

    The diagnostics are one work record (:data:`trlog.WORK`), ``work``.
    Each stack merges into it the work of every node it evaluated, the
    discarded nodes included: the blocks assembled, the rotated ones among
    them whose log-determinant took eigenvalues (``eig_blocks``), and the
    largest l_max and m of any block assembled (``l_max_evaluated``,
    ``m_max_evaluated``), the lower cut-offs of the growth steps included.
    The largest cut-offs (``l_max_used``, ``m_max_used``) and
    ``converged`` come from the accepted nodes alone, and
    ``nodes_discarded`` counts the nodes evaluated in a stack and then
    thrown away.
    """

    def __init__(self, geom, spec, trunc, evaluation, derivative=False,
                 floor=1e-3, weight=None, scale=0.0):
        self.geom = geom
        self.spec = spec
        self.trunc = trunc
        self.evaluation = evaluation
        self.derivative = derivative
        self.floor = floor
        self.weight = weight
        self.auto = trunc.l_max is None
        self.hint = spec.l_min + 4  # where trace_over_m starts without a hint
        self.scale = scale
        self.work = trlog.new_work()

    def evaluate(self, xis, stop=None):
        """The trace (or its derivative) at each of the nodes ``xis``, in
        order, and an estimate of each one's truncation error.  With
        ``stop``, a predicate ``stop(value, error)`` asked after each
        accepted node, the nodes end at the first for which it holds: the
        nodes after it are neither accepted nor able to raise."""
        vals = np.empty(len(xis), dtype=complex)
        errs = np.empty(len(xis))
        scale = self.scale  # every node of this call takes its floor from it
        i = 0
        while i < len(xis):
            done, halt = self._stack(xis[i:], vals[i:], errs[i:], stop, scale)
            i += done
            if halt:
                return vals[:i], errs[:i]
        return vals, errs

    def _stack(self, xis, vals, errs, stop, scale):
        """Evaluate the nodes ``xis`` as one stack, under the floor of the
        running scale ``scale``, and accept them in order into ``vals`` and
        ``errs``.  Returns how many were accepted and whether ``stop`` ended
        the nodes."""
        weight = np.ones(len(xis)) if self.weight is None else self.weight(xis)
        floor = self.floor * scale / weight
        try:
            val, diag = trlog.trace_over_m(
                self.evaluation, self.geom, self.spec, self.trunc, xi=xis,
                l_max_start=self.hint, scale_floor=floor, derivative=self.derivative)
        except SingularBlockError:
            if len(xis) == 1:
                raise
            for i in range(len(xis)):  # a stack of one accepts its node
                if self._stack(xis[i: i + 1], vals[i:], errs[i:], stop, scale)[1]:
                    return i + 1, True
            return len(xis), False
        nodes = diag["nodes"]
        accepted, halt = len(xis), False
        for j, v in enumerate(val):
            err = 0.0  # at a pinned cut-off
            if self.auto:
                l_used = int(nodes["l_max_used"][j])
                if l_used < self.hint + 4:
                    accepted = j
                    break
                # the node's last growth step is its truncation error
                # estimate.  Its value was computed one growth step above
                # the sufficient cut-off; seeding the next node one step
                # below stops the cut-off from ratcheting up at every node
                err = nodes["change"][j]
                self.hint = max(self.spec.l_min + 4, l_used - 4)
            self.scale = max(self.scale, weight[j] * abs(trlog.project(self.evaluation, v)))
            vals[j], errs[j] = v, err
            if stop is not None and stop(v, err):
                accepted, halt = j + 1, True
                break
        # the stack's work counts every node it evaluated; the cut-offs and
        # convergence count the accepted nodes alone
        trlog.merge_work(self.work, {
            **diag, "nodes_discarded": len(xis) - accepted,
            "l_max_used": nodes["l_max_used"][:accepted],
            "m_max_used": nodes["m_max_used"][:accepted],
            "converged": nodes["converged"][:accepted]})
        return accepted, halt

    def sweep(self, integrand, width, xi_max, share):
        """:func:`_panel_sweep` of ``integrand`` over (0, xi_max), each
        refined panel from the state its first pass left (see
        :meth:`checkpoint`), refining to ``share`` of rel_tol (the
        integral's quadrature share): the value, its error estimate and
        the sweep's work (``xi_max_used``, ``panels``, ``panels_refined``).

        The first node is the midpoint of the first panel, not its xi -> 0
        endpoint: there the integrands vanish or sit at their static
        value, and a growth test verified on rounding noise would set the
        cut-off (and, through the never-falling hint, every later one).
        """
        integrand(np.array([0.5 * min(width, xi_max)]))
        return _panel_sweep(integrand, width, xi_max, self.trunc.rel_tol,
                            self.checkpoint, share)

    def checkpoint(self):
        """A callable that puts back the hint as it is now; the rest of the
        state runs on."""
        hint = self.hint

        def restore():
            self.hint = hint
        return restore

    def diagnostics(self, **extra):
        return {**self.work, **extra}


# -- observables --------------------------------------------------------------

#: the most imaginary-axis nodes of the Matsubara sum evaluated as one stack
MATSUBARA_CHUNK = 8

#: the most nodes n >= 1 of a Matsubara sum before it raises ConvergenceError
N_MAX = 100000

#: the Matsubara sum's truncation floor, as a share of its running scale:
#: the factor of the sum's stop test and of every m test
MATSUBARA_FLOOR = 1e-2


def _matsubara_tail(last, prev, T, d):
    """Estimate of the omitted terms of a Matsubara sum whose last two
    accepted terms have magnitudes ``prev`` and ``last``: the geometric
    tail ``last r / (1 - r)`` with r the larger of their ratio and
    exp(-4 pi T d), the terms' asymptotic decay, and never less than the
    last term itself."""
    r = max(last / prev, math.exp(-4.0 * math.pi * T * d))
    if r >= 1.0:  # the terms did not fall: no geometric tail to sum
        return math.inf
    return max(last, last * r / (1.0 - r))


def _matsubara_sum(geom, spec, T, trunc, derivative=False):
    """``(T/2) trace(0) + T sum_{n>=1} trace(2 pi T n)`` of Tr ln(1 - M), or
    of its separation derivative; see :func:`matsubara_free_energy`.

    The nodes n >= 1 go through :class:`_SweepState`, in chunks of 1, 2,
    4, then ``MATSUBARA_CHUNK`` nodes, each chunk no longer than the
    geometric decay of the last two terms says the stop test needs.  The
    stop test runs as each node is accepted, so the nodes past it are
    neither accepted nor able to raise.

    The engine's floor is ``MATSUBARA_FLOOR`` of a running scale, in
    units of the trace, that starts at the zero-mode term
    ``|trace(0)| / 2`` and takes the largest |trace| accepted before the
    node's chunk: a node is converged in l and m no finer than about
    rel_tol * 1e-2 of that scale, T times which is the size of the
    smallest term the stop test keeps.  So the nodes far down the sum, which need the largest
    cut-offs, stop at those the sum needs.

    The error estimate adds the omitted tail (:func:`_matsubara_tail`),
    the stopping tolerance and, at every node, the change of its last
    l_max growth step.
    """
    if not 0.0 < T < math.inf:
        raise ValueError(f"matsubara_free_energy needs a finite T > 0, got T={T}; "
                         "use vacuum_energy for T = 0")
    geom.require_gap()
    trunc = trunc or Truncation()
    tot0, diag0 = trlog.trace_over_m(trlog.STATIC, geom, spec, trunc,
                                     derivative=derivative)
    F = 0.5 * T * tot0[0].real
    trunc_err = 0.5 * T * diag0.get("change", 0.0)
    # the engine's floor in units of the sum: its scale starts at the zero mode
    state = _SweepState(geom, spec, trunc, trlog.IMAG_AXIS, derivative=derivative,
                        floor=MATSUBARA_FLOOR, scale=0.5 * abs(tot0[0].real))
    tol = trunc.rel_tol * 1e-2
    last = prev = math.inf  # the magnitudes of the last two terms
    done = False

    def stop(value, error):
        nonlocal F, trunc_err, prev, last, done
        F += T * value.real
        trunc_err += T * error
        prev, last = last, abs(T * value.real)
        done = last < tol * max(abs(F), 1e-300)
        return done

    n = 0  # the last node accepted
    size = 1
    while True:
        count = min(size, N_MAX - n)
        if last < prev < math.inf:
            # no more nodes than the decay of the last two terms needs
            # to reach the stop
            need = math.log(tol * max(abs(F), 1e-300) / last) / math.log(last / prev)
            count = min(count, max(1, math.ceil(need)))
        n += len(state.evaluate(2.0 * math.pi * T * np.arange(n + 1, n + 1 + count), stop)[0])
        if done:
            break
        if n >= N_MAX:
            raise ConvergenceError(
                f"Matsubara sum needs more than N_MAX={N_MAX} terms; "
                "T*d is too small for this representation")
        size = min(2 * size, MATSUBARA_CHUNK)
    trlog.merge_work(state.work, diag0)  # the zero mode
    return EnergyResult(F, _matsubara_tail(last, prev, T, geom.d) + tol * abs(F) + trunc_err,
                        state.diagnostics(n_max_used=n))


def matsubara_free_energy(geom, spec, T, trunc=None):
    """Free energy from the Matsubara representation.

    ``F = (T/2) * trace(0) + T * sum_{n>=1} trace(2 pi T n)`` with the
    zero mode from the static kernel; the sum stops when the last term
    drops below ``rel_tol * 1e-2`` of the running sum (the terms decay
    like exp(-4 pi n T d)).  Each node's l_max growth and m sum run
    against a floor of 1e-2 of the largest term before its chunk, the
    zero mode included, so a node is resolved no finer than the smallest
    term the stop test keeps.  The error estimate sums the omitted terms as a
    geometric tail whose ratio is the larger of the last two terms' and
    exp(-4 pi T d), and adds the stopping tolerance and each node's last
    growth step.

    With automatic cut-offs, each node from n = 2 on starts its l_max
    growth one step below the l_max the previous node used (the ratchet
    of the frequency sweeps), instead of at l_min + 4.  The n = 1 node
    starts afresh: the cut-off of the static zero mode is no guide to it
    (for a Dirichlet sphere at R = 1, d = 0.2, T = 1 the zero mode stops
    at l_max 24 and the nodes need up to 32; at R = 0.5, d = 0.005 the zero
    mode runs unconverged to the l_max cap).

    The nodes run in stacked chunks (see :func:`_matsubara_sum`) with the
    same cut-offs, values and error estimates as node by node.
    The diagnostics are the work record every observable reports
    (:data:`trlog.WORK`, see :class:`_SweepState`), the zero mode
    included, with the number of nodes n >= 1 accepted (``n_max_used``);
    ``nodes_discarded`` counts the chunk nodes evaluated and then thrown
    away.
    """
    return _matsubara_sum(geom, spec, T, trunc)


def vacuum_energy(geom, spec, trunc=None):
    """Zero-temperature energy (1/2pi) int_0^inf dxi Tr ln(1 - M(xi)).

    The integrand decays like exp(-2 d xi).  The panels start at
    ``min(2/d, 2/R, xi_cut/8)`` with ``xi_cut = 19/d + 5/L`` and double
    after each over-resolved panel (see :func:`_panel_sweep`) and are
    refined to the quadrature share 1e-2 of rel_tol; the sweep
    stops where its panels fall below rel_tol * 1e-3 of the running total,
    at the latest at ``xi_cut``.  ``xi_max_used`` is the upper end of its
    last first-pass panel, and ``panels`` and ``panels_refined`` count the
    panels evaluated by the first pass and by the refinement.
    """
    geom.require_gap()
    trunc = trunc or Truncation()
    state = _SweepState(geom, spec, trunc, trlog.IMAG_AXIS)

    def integrand(xi):
        xi = np.maximum(xi, 1e-10)  # panel endpoints touch 0; the integrand is continuous there
        val, err = state.evaluate(xi)
        return np.stack([val.real, err], axis=1)

    xi_cut = 19.0 / geom.d + 5.0 / geom.L
    width = min(2.0 / geom.d, 2.0 / geom.R, xi_cut / 8.0)
    total, err, work = state.sweep(integrand, width, xi_cut, 1e-2)
    return EnergyResult(total / (2.0 * math.pi), err / (2.0 * math.pi),
                        state.diagnostics(**work))


def _thermal_sweep(geom, spec, T, trunc, derivative=False):
    """``(T/2pi) int_0^inf dxi n_1(xi) (-2) Im`` of Tr ln(1 - M(i xi T)), or
    of its separation derivative; see :func:`thermal_part`."""
    if spec.kind != SCALAR:
        raise NotImplementedError(
            "thermal_part is available for scalar fields only")
    if not 0.0 < T < math.inf:
        raise ValueError(f"thermal_part needs a finite T > 0, got T={T}")
    trunc = trunc or Truncation()

    def boltzmann(xi):
        # endpoints touch 0 where n_1 diverges but the product is finite
        return 1.0 / np.expm1(np.maximum(xi, 1e-8))

    # the engine's floor in units of the integrand: n_1 of each node weighs it
    state = _SweepState(geom, spec, trunc, trlog.ROTATED, derivative=derivative,
                        weight=lambda x: boltzmann(x / T))

    def integrand(xi):
        xi = np.maximum(xi, 1e-8)
        n1 = boltzmann(xi)
        tr, err = state.evaluate(xi * T)
        return np.stack([n1 * (-2.0) * tr.imag, 2.0 * n1 * err], axis=1)

    xi_max = math.log(1.0 / trunc.rel_tol) + 20.0
    width = min(math.pi / (2.0 * geom.L * T), 3.0)
    total, err, work = state.sweep(integrand, width, xi_max, 0.5)
    return EnergyResult(T / (2.0 * math.pi) * total, T / (2.0 * math.pi) * err,
                        state.diagnostics(**work))


def thermal_part(geom, spec, T, trunc=None):
    """Pure temperature part F_T from the rotated (real-frequency)
    representation.

    ``F_T = (T/2pi) int_0^inf dxi n_1(xi) (-2) Im Tr ln(1 - M(i xi T))``.
    Scalar fields only: the electromagnetic continuation of the rotated
    kernel is not validated.  Panels start at half the oscillation period
    pi/(L T) (at most 3) and double after each over-resolved panel (see
    :func:`_panel_sweep`); a first-pass panel is refined only when its
    embedded estimate exceeds 1/2 rel_tol of the total, the sweep's
    quadrature share, as in the force on this target.  So the error
    estimate overstates the true error (2.8e-4 against 5.3e-7 of the
    value at DD (1.5, 0.45, 1)), while at the audit points it stays below
    rel_tol of the value.  The sweep stops where the Boltzmann factor
    makes its panels negligible, at the latest at ``ln(1/rel_tol) + 20``; ``xi_max_used`` is the upper end of its last
    first-pass panel, and ``panels`` and ``panels_refined`` count the
    panels evaluated by the first pass and by the refinement.  The
    orbital sums converge at a rate set by the J/Y ratio, independent of
    the separation, so d = 0 is allowed.
    Each node's l_max growth and m sum run against a floor in units of
    the integrand, n_1 times the trace (see :class:`_SweepState`), so the
    nodes far up the axis, where n_1 is negligible, stop at the cut-offs
    the integral needs rather than those their own trace would.
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
