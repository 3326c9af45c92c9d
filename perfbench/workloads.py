"""Workload inputs, the operations each round times, and the checks on
their outputs.

Inputs are drawn from the seed within narrow ranges around each
workload's centre (see README.md), so that every seed does the same kind
and amount of work while no two seeds share cache keys.  The program only
ever receives the generated numbers.

Every output is checked against a computation made apart from the
operation that produced it:

* a thermal force against a central difference of ``thermal_part`` at
  d (1 +- 5 %), a stencil the program's own force (steps of 1e-3 d) does
  not use; and, at the force point with eps ~ 0.1, ``thermal_part`` itself
  against ``matsubara_free_energy - vacuum_energy``, both at one pinned
  cut-off, so that a wrong thermal part cannot pass by scaling the force
  and its reference alike;
* a scalar Matsubara free energy against ``vacuum_energy + thermal_part``,
  the zero-temperature integral plus the real-frequency thermal part;
* an electromagnetic Matsubara free energy against a sum of
  ``ln(1 - lambda)`` over the eigenvalues of the same kernel blocks, at a
  larger cut-off than the program chose, instead of the program's LU
  log-determinant;
* a thermal part against ``matsubara_free_energy - vacuum_energy``, which
  never touches the real-frequency kernel;
* every output against its own ``converged`` flag and an error estimate
  below 1 % of its value.
"""

import math
import random

import numpy as np

WORKLOADS = ("thermal_force_cold", "matsubara_cold", "thermal_scan_warm")
DEFAULT_SEED = 1

#: half-width of the input ranges, as a share of each centre value
SPREAD = 0.001

#: relative step of the reference stencil for the force check
FORCE_STENCIL = 0.05

#: the thermal_part check of a force pins matsubara_free_energy and
#: vacuum_energy to the thermal part's l_max plus this, so that their
#: truncation errors cancel in the difference.  At eps ~ 0.01 they do not
#: cancel (7 % off at l_max 40, and the vacuum energy takes 15 s), so only
#: the eps ~ 0.1 force point has the check.
THERMAL_PART_CHECK_L_EXTRA = 8

#: thermal_scan_warm times thermal_part at these multiples of T, after one
#: warm-up at WARMUP_T_FACTOR * T.  The H-tensor cache keys do not depend on
#: T, so the warm-up fills them for the whole scan, while every frequency
#: (and so every specfun and kernel cache key) differs.
SCAN_T_FACTORS = (1.0, 0.99, 0.98)
WARMUP_T_FACTOR = 1.01

#: tolerances of the checks, as a share of the reference value.  A value
#: must match its reference to the program's default ``rel_tol`` (1e-3),
#: the accuracy the truncation and quadrature are set to reach.
TOL_REFERENCE = 1e-3
TOL_ERROR_ESTIMATE = 1e-2
TOL_REPEAT = 1e-12


def make_inputs(workload, seed):
    """The operations of one round, as plain data drawn from ``seed``.

    Returns ``(warmup, timed)``: lists of operations, each a dict with the
    call, field, R, d and T, and a label unique within the workload; a
    force also says whether its thermal part is checked.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")

    def draw(centre):
        return centre * (1.0 + SPREAD * (2.0 * rng.random() - 1.0))

    def op(label, call, field, R, eps, T):
        return {"label": label, "call": call, "field": field,
                "R": R, "d": eps * R, "T": T}

    if workload == "thermal_force_cold":
        T = draw(1.0)
        timed = [op(f"force eps~{eps}", "force", "DD", draw(0.5), draw(eps), T)
                 | {"check_thermal_part": eps == 0.1}
                 for eps in (0.01, 0.1)]
        return [], timed
    if workload == "matsubara_cold":
        R, eps = draw(1.0), draw(0.2)
        t_hi, t_lo = draw(1.0), draw(0.1)
        timed = [op(f"F {field} T~{t_c}", "matsubara_free_energy", field, R, eps, T)
                 for t_c, T in ((1, t_hi), (0.1, t_lo)) for field in ("DD", "DN")]
        timed += [op(f"F EM eps~{e}", "matsubara_free_energy", "EM", R, draw(e), t_hi)
                  for e in (0.5, 1.0)]
        return [], timed
    R, eps, T = draw(1.5), draw(0.3), draw(1.0)
    timed = [op(f"FT T~{f:g}", "thermal_part", "DD", R, eps, f * T)
             for f in SCAN_T_FACTORS]
    warmup = [op("FT warm-up", "thermal_part", "DD", R, eps, WARMUP_T_FACTOR * T)]
    return warmup, timed


class Program:
    """The casphere entry points a workload calls, looked up on their
    modules at call time so that a tracer's wrappers are seen."""

    def __init__(self, casphere_modules):
        self.m = casphere_modules
        kernel = self.m["kernel"]
        self.fields = {
            "DD": kernel.FieldSpec(),
            "DN": kernel.FieldSpec(plane_bc=kernel.NEUMANN),
            "EM": kernel.FieldSpec.em(),
        }

    def geometry(self, op, d=None):
        return self.m["kernel"].Geometry(op["R"], op["d"] if d is None else d)

    def run(self, op):
        fe = self.m["freeenergy"]
        geom, spec, T = self.geometry(op), self.fields[op["field"]], op["T"]
        if op["call"] == "force":
            return fe.force(geom, spec, T, target="thermal_part")
        if op["call"] == "matsubara_free_energy":
            return fe.matsubara_free_energy(geom, spec, T)
        if op["call"] == "thermal_part":
            return fe.thermal_part(geom, spec, T)
        raise ValueError(f"unknown call {op['call']!r}")


def summarize(result):
    """The fields of an EnergyResult that the checks read."""
    diag = result.diagnostics
    return {"value": float(result.value),
            "error_estimate": float(result.error_estimate),
            "converged": bool(result.converged),
            "l_max_used": diag.get("l_max_used"),
            "n_max_used": diag.get("n_max_used")}


# -- references: computations made apart from the timed operation ------------

def _em_free_energy_eigenvalues(kernel, geom, T, l_max, n_max):
    """(T/2) ln det(1 - M(0)) + T sum_n ln det(1 - M(xi_n)) for the EM field,
    every log-determinant summed over eigenvalues, all m <= l_max."""
    spec = kernel.FieldSpec.em()
    total = 0.0
    for n in range(n_max + 1):
        for mm in range(l_max + 1):
            if n == 0:
                M = kernel.static_matrix(mm, geom, spec, l_max)
            else:
                M = kernel.em_matrix(mm, 2.0 * math.pi * T * n, geom, l_max)
            lam = np.linalg.eigvals(M).astype(complex)
            weight = (1.0 if mm == 0 else 2.0) * (0.5 if n == 0 else 1.0)
            total += weight * float(np.sum(np.log(1.0 - lam)).real)
    return T * total


def reference(program, op, out, vacuum):
    """Independent values for one output: a dict with the reference
    ``value`` and its ``method``, and for a force with
    ``check_thermal_part`` also ``thermal_part``: the program's thermal
    part at the force point, its reference and the reference's method.

    ``vacuum(op)`` returns the zero-temperature energy at the operation's
    geometry and field, shared between operations that differ only in T.
    """
    fe = program.m["freeenergy"]
    spec = program.fields[op["field"]]
    T = op["T"]
    if op["call"] == "force":
        h = FORCE_STENCIL * op["d"]
        up = fe.thermal_part(program.geometry(op, op["d"] + h), spec, T).value
        down = fe.thermal_part(program.geometry(op, op["d"] - h), spec, T).value
        ref = {"value": -(up - down) / (2.0 * h),
               "method": "-dF_T/dd, central difference of thermal_part at d(1 +- 5 %)"}
        if op.get("check_thermal_part"):
            geom = program.geometry(op)
            FT = fe.thermal_part(geom, spec, T)
            l_max = FT.diagnostics["l_max_used"] + THERMAL_PART_CHECK_L_EXTRA
            trunc = program.m["trlog"].Truncation(l_max=l_max)
            F = fe.matsubara_free_energy(geom, spec, T, trunc).value
            E0 = fe.vacuum_energy(geom, spec, trunc).value
            ref["thermal_part"] = (FT.value, F - E0,
                                   f"matsubara_free_energy - vacuum_energy at l_max {l_max}")
        return ref
    geom = program.geometry(op)
    if op["call"] == "thermal_part":
        F = fe.matsubara_free_energy(geom, spec, T).value
        return {"value": F - vacuum(op), "method": "matsubara_free_energy - vacuum_energy"}
    if op["field"] == "EM":
        value = _em_free_energy_eigenvalues(program.m["kernel"], geom, T,
                                            out["l_max_used"] + 8, out["n_max_used"] + 2)
        return {"value": value, "method": "eigenvalue log-dets at l_max + 8, n_max + 2"}
    FT = fe.thermal_part(geom, spec, T).value
    return {"value": vacuum(op) + FT, "method": "vacuum_energy + thermal_part"}


def references(program, ops, outputs):
    """``reference`` for every operation whose output is not None."""
    energies = {}

    def vacuum(op):
        key = (op["field"], op["R"], op["d"])
        if key not in energies:
            energies[key] = program.m["freeenergy"].vacuum_energy(
                program.geometry(op), program.fields[op["field"]]).value
        return energies[key]

    return {op["label"]: reference(program, op, out, vacuum)
            for op, out in zip(ops, outputs) if out is not None}


# -- checks ---------------------------------------------------------------------

def first_outputs(rounds):
    """Per operation, its output in the first round in which it returned
    (None if it raised in every round)."""
    return [next((out for out in outs if out is not None), None)
            for outs in zip(*rounds)]


def evaluate_checks(ops, rounds, refs):
    """Checks on every output of every round.

    ``rounds`` is a list of per-round output lists (None for an operation
    that raised).  Each operation that raised fails a ``completed`` check.
    An operation's first output (``first_outputs``) is compared with
    ``refs``; every other output of it must repeat that one.  Returns a
    list of dicts with name, op, ok, measured and tol.
    """
    results = []

    def add(name, label, ok, measured, tol):
        results.append({"name": name, "op": label, "ok": bool(ok),
                        "measured": measured, "tol": tol})

    for i, (op, out) in enumerate(zip(ops, first_outputs(rounds))):
        label = op["label"]
        for outs in rounds:
            if outs[i] is None:
                add("completed", label, False, False, True)
        if out is None:
            continue
        v = out["value"]
        add("converged", label, out["converged"], out["converged"], True)
        ratio = out["error_estimate"] / abs(v) if v else math.inf
        add("error_estimate", label, ratio <= TOL_ERROR_ESTIMATE, ratio,
            TOL_ERROR_ESTIMATE)
        ref = refs[label]["value"]
        dev = abs(v - ref) / abs(ref) if ref else math.inf
        add("reference", label, dev <= TOL_REFERENCE, dev, TOL_REFERENCE)
        if "thermal_part" in refs[label]:
            FT, FT_ref, _ = refs[label]["thermal_part"]
            dev = abs(FT - FT_ref) / abs(FT_ref) if FT_ref else math.inf
            add("thermal_part", label, dev <= TOL_REFERENCE, dev, TOL_REFERENCE)
        for outs in rounds:
            rep = outs[i]
            if rep is None or rep is out:
                continue
            diff = abs(rep["value"] - v) / abs(v) if v else abs(rep["value"])
            add("repeat", label, diff <= TOL_REPEAT, diff, TOL_REPEAT)
    return results
