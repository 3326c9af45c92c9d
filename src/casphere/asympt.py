r"""Closed-form limits: low-temperature expansions and the high-temperature
zero mode.  (The small-separation medium/high-temperature formula is the
PFA's ``pfa.pfa_regime(geom, T, "medium_high")``.)

The low-temperature behavior follows the low-momentum law of the sphere's
scattering amplitudes: the Dirichlet s-wave starts linearly in frequency
and yields a T^2 thermal correction, Neumann and electromagnetic scattering
start one power later and yield T^4.  These expansions never truncate any
sum, so they double as oracles for the numeric ``thermal_part`` at small T.

At high temperature the leading term is the zeroth Matsubara frequency,
``F = T F_0(eps) + (exponentially suppressed)``, with
``F_0 = (1/2) Tr ln(1 - M(0))`` from the static kernel.  For the
electromagnetic field ``F_0 -> -zeta(3)/(4 eps)`` at small separation
(a single scalar mode tends to half of that).
"""

import math
from dataclasses import dataclass

from . import trlog
from .freeenergy import ConvergenceError
from .kernel import DIRICHLET, ELECTROMAGNETIC
from .trlog import Truncation

ZETA2 = math.pi ** 2 / 6.0
ZETA4 = math.pi ** 4 / 90.0


@dataclass
class ExpansionResult:
    """Closed-form expansion value with its leading power and regime note."""

    value: float
    leading_power: int
    validity_note: str


def low_t_thermal(geom, spec, T):
    """Leading low-temperature thermal part of the free energy.

    Scalar Dirichlet sphere: order T^2 (sign set by the plane condition);
    Neumann sphere and electromagnetic field: order T^4.  Valid for
    T*R << 1 and T*d << 1 (not enforced; see validity_note).  The Neumann
    sphere coefficient, -+zeta(4) R^3/pi, is its large-L limit and holds
    to leading order in R/L (it lies 0.5 % above the computed coefficient
    at L = 4R and 3 % above at L = 2R); the Dirichlet sphere facing a
    Neumann plane carries the factor (2L - R)/(2L + R), also leading order
    in R/L.
    """
    if not 0.0 <= T < math.inf:
        raise ValueError(f"temperature must be finite and non-negative, got T={T}")
    R, L = geom.R, geom.L
    note = f"assumes T*R << 1 and T*L << 1 (here T*R={T * R:.3g}, T*L={T * L:.3g})"
    if spec.kind == ELECTROMAGNETIC:
        a = (16.0 * L ** 3 + R ** 3) / (16.0 * L ** 3 - R ** 3)
        b = (4.0 * L ** 3 + R ** 3) / (4.0 * L ** 3 - R ** 3)
        coef = 6.0 * ZETA4 / math.pi * (1.0 + 2.0 / 3.0 * a - 2.0 / 3.0 * b)
        return ExpansionResult(coef * R ** 3 * T ** 4, 4, note)
    if spec.sphere_bc == DIRICHLET:
        if spec.plane_bc == DIRICHLET:
            return ExpansionResult(-ZETA2 / math.pi * R * T * T, 2, note)
        factor = (2.0 * L - R) / (2.0 * L + R)
        return ExpansionResult(ZETA2 / math.pi * factor * R * T * T, 2, note)
    # Neumann sphere: the s-wave contribution is absent and T^4 leads.  The
    # s-wave channel alone gives twice this; at L >> R the higher channels
    # cancel half of it, and the finite-L corrections are not included
    sign = -1.0 if spec.plane_bc == DIRICHLET else 1.0
    note += "; leading order in R/L"
    return ExpansionResult(sign * ZETA4 / math.pi * R ** 3 * T ** 4, 4, note)


def high_t_f0(geom, spec, trunc=None):
    """Zero-mode function F_0(eps) = (1/2) Tr ln(1 - M(0)).

    The high-temperature free energy is ``T * F_0`` up to exponentially
    suppressed non-zero modes.  Convergence of the orbital sums slows like
    1/eps; separations below eps ~ 0.01 are not practical at the default
    momentum cap.

    Raises
    ------
    freeenergy.ConvergenceError
        when the static trace does not converge below the momentum cap
    """
    geom.require_gap()
    trunc = trunc or Truncation()
    tot, diag = trlog.trace_over_m(trlog.STATIC, geom, spec, trunc)
    if not diag["converged"]:
        raise ConvergenceError(
            f"static trace not converged at eps={geom.eps:.3g}; "
            "the documented floor is eps >= 0.01")
    return 0.5 * tot[0].real

