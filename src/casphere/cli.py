r"""Command-line driver: single evaluations, parameter scans, and the
thermal-force reference tables, all emitted as CSV.

The command is selected with ``--command``; geometry takes ``--R`` plus
either ``--d`` or ``--epsilon``.  A flat JSON config file may supply any
flag value (command-line flags win).  Exit status: 0 on success, 1 on an
invalid configuration, when a computation would pass the memory budget of
the coupling stores (the ``MemoryError`` of :mod:`wigner`), when a
frequency-axis computation is pinned to an ``--lmax`` past
``specfun.L_CAP`` or when ``--out`` or ``--diagnostics`` cannot be
written (an ``OSError``), each printed as ``error: ...`` (the rows
computed before it are still written where they can be), 2 when a
computation did not converge (partial results are still written).
``--diagnostics PATH`` also writes, as JSON, a
list with one object per row that holds the row's inputs and the
``diagnostics`` of its ``EnergyResult`` (the work done: cut-offs, blocks,
eigenvalue blocks, convergence); the closed-form commands ``pfa`` and
``asymptotic`` write an empty list.

The ``table1`` / ``table2`` commands reproduce the reference grids for the
temperature part of the force at T = 1 (eps = 0.01 with R in {0.5, 1, 3},
and eps = 0.1 with R in {0.5, 1, 6}).  Their value columns follow the
table convention of reporting R * |dF_T/dd| = |dF_T/d eps| with attraction
counted positive: the signed physical force is ``-dF_T/dd`` (negative,
attraction-enhancing) and is R times smaller.
"""

import argparse
import csv
import json
import math
import sys

from . import asympt, freeenergy, pfa
from .kernel import Geometry, FieldSpec
from .trlog import Truncation

FIELD_CHOICES = {
    "scalar-d-d": FieldSpec("scalar", "dirichlet", "dirichlet"),
    "scalar-d-n": FieldSpec("scalar", "dirichlet", "neumann"),
    "scalar-n-d": FieldSpec("scalar", "neumann", "dirichlet"),
    "scalar-n-n": FieldSpec("scalar", "neumann", "neumann"),
    "em": FieldSpec.em(),
}

COMMANDS = ("free-energy", "vacuum-energy", "thermal-part", "force",
            "pfa", "asymptotic", "table1", "table2", "scan")


def build_parser():
    p = argparse.ArgumentParser(
        prog="casphere",
        description="finite-temperature Casimir free energy and force "
                    "for a sphere facing a plane")
    p.add_argument("--command", choices=COMMANDS, help="what to compute")
    p.add_argument("--config", help="flat JSON file with the same keys as the flags")
    p.add_argument("--R", type=float, help="sphere radius")
    p.add_argument("--d", type=float, help="surface separation")
    p.add_argument("--epsilon", type=float,
                   help="dimensionless separation d/R (mutually exclusive with --d)")
    p.add_argument("--T", type=float, help="temperature")
    p.add_argument("--field", choices=sorted(FIELD_CHOICES),
                   help="field kind and boundary conditions (sphere, plane)")
    p.add_argument("--lmax", type=int, help="fixed orbital cutoff (default: automatic)")
    p.add_argument("--rel-tol", dest="rel_tol", type=float,
                   help="relative tolerance (default 1e-3)")
    p.add_argument("--mode-count", dest="mode_count", type=int, choices=(1, 2),
                   help="parallel-plate mode count for PFA quantities")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--diagnostics",
                   help="JSON output path for the diagnostics of each row")
    p.add_argument("--scan-axis", dest="scan_axis", choices=("R", "d", "T"))
    p.add_argument("--scan-grid", dest="scan_grid",
                   help="a:b:n  (n values from a to b inclusive)")
    p.add_argument("--scan-quantity", dest="scan_quantity",
                   choices=("free-energy", "vacuum-energy", "thermal-part",
                            "force", "pfa"),
                   help="observable evaluated along a scan (default thermal-part)")
    p.add_argument("--force-target", dest="force_target",
                   choices=("total", "thermal_part"), default=None,
                   help="energy differentiated by the force command")
    return p


class ConfigError(ValueError):
    pass


def _merge_config(args):
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a flat JSON object")
        for key, val in loaded.items():
            cfg[key.replace("-", "_")] = val
    for key, val in vars(args).items():
        if key == "config":
            continue
        if val is not None:
            cfg[key] = val
    return cfg


def _geometry(cfg):
    R = cfg.get("R")
    if R is None:
        raise ConfigError("--R is required")
    if R <= 0:
        raise ConfigError("--R must be positive")
    d = cfg.get("d")
    eps = cfg.get("epsilon")
    if d is not None and eps is not None:
        raise ConfigError("--d and --epsilon are mutually exclusive")
    if d is None and eps is None:
        raise ConfigError("either --d or --epsilon is required")
    if d is None:
        d = eps * R
    if d < 0:
        raise ConfigError("separation must be non-negative")
    return Geometry(R, d)


def _truncation(cfg):
    return Truncation(l_max=cfg.get("lmax"),
                      rel_tol=cfg.get("rel_tol", 1e-3))


def _field(cfg):
    return FIELD_CHOICES[cfg.get("field", "scalar-d-d")]


def _temperature(cfg, default=None):
    T = cfg.get("T", default)
    if T is None:
        raise ConfigError("--T is required")
    if T < 0:
        raise ConfigError("--T must be non-negative")
    return T


def _result_row(inputs, res):
    row = dict(inputs)
    row["value"] = res.value
    row["error_estimate"] = res.error_estimate
    row["l_max_used"] = res.diagnostics.get("l_max_used", "")
    row["converged"] = res.converged
    return row


def _observable(quantity, cfg, geom, spec, trunc, T_default=None):
    """The EnergyResult of one of the four observables, named as the
    ``--command`` and ``--scan-quantity`` choices name them, with the
    temperature (where it takes one) from ``cfg`` or ``T_default``."""
    if quantity == "vacuum-energy":
        return freeenergy.vacuum_energy(geom, spec, trunc)
    T = _temperature(cfg, T_default)
    if quantity == "free-energy":
        return freeenergy.matsubara_free_energy(geom, spec, T, trunc)
    if quantity == "thermal-part":
        return freeenergy.thermal_part(geom, spec, T, trunc)
    return freeenergy.force(geom, spec, T, trunc, target=cfg.get("force_target", "total"))


def _write_csv(rows, out_path):
    if not rows:
        raise ConfigError("nothing to write")
    fields = list(rows[0].keys())
    handle = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out_path:
            handle.close()


def _table_rows(eps, r_values, cfg, rows, records):
    trunc = _truncation(cfg)
    spec = FIELD_CHOICES["scalar-d-d"]
    mode_count = cfg.get("mode_count", 1)
    ok = True
    for R in r_values:
        geom = Geometry(R, eps * R)
        res = freeenergy.force(geom, spec, 1.0, trunc, target="thermal_part")
        # table convention: R * |force|, attraction positive
        exact = R * abs(res.value)
        f_pfa = pfa.pfa_thermal_force(geom, 1.0, mode_count)
        pfa_tab = R * abs(f_pfa)
        pfa_mc2 = R * abs(pfa.pfa_thermal_force(geom, 1.0, 2))
        rows.append({
            "epsilon": eps, "R": R, "T": 1.0,
            "f_T_exact": exact,
            "f_T_pfa": pfa_tab,
            "rel_deviation": (pfa_tab - exact) / exact if exact else math.nan,
            "f_T_pfa_mode2": pfa_mc2,
            "error_estimate": R * res.error_estimate,
            "l_max_used": res.diagnostics.get("l_max_used", ""),
            "converged": res.converged,
        })
        records.append({"epsilon": eps, "R": R, "T": 1.0, "diagnostics": res.diagnostics})
        ok = ok and res.converged
    return ok


def _scan_rows(cfg, rows, records):
    axis = cfg.get("scan_axis")
    grid = cfg.get("scan_grid")
    if axis is None or grid is None:
        raise ConfigError("scan needs --scan-axis and --scan-grid a:b:n")
    try:
        a, b, nstr = grid.split(":")
        a, b, n = float(a), float(b), int(nstr)
    except ValueError:
        raise ConfigError("--scan-grid must be a:b:n")
    if n < 2 or not b > a:
        raise ConfigError("scan grid must be strictly increasing with n >= 2")
    values = [a + (b - a) * i / (n - 1) for i in range(n)]
    quantity = cfg.get("scan_quantity", "thermal-part")
    trunc = _truncation(cfg)
    spec = _field(cfg)
    ok = True
    for v in values:
        local = dict(cfg)
        local[axis] = v
        if axis == "d" and "epsilon" in local:
            local.pop("epsilon")
        geom = _geometry(local)
        T = _temperature(local, 0.0)
        if quantity == "pfa":
            val = pfa.pfa_free_energy(geom, T, cfg.get("mode_count", 2))
            res = freeenergy.EnergyResult(val, 0.0, {"converged": True})
        else:
            res = _observable(quantity, local, geom, spec, trunc, 0.0)
        inputs = {"scan_axis": axis, axis: v, "R": geom.R, "d": geom.d, "T": T}
        rows.append(_result_row(inputs, res))
        records.append(dict(inputs, diagnostics=res.diagnostics))
        ok = ok and res.converged
    return ok


def run(cfg):
    """Execute one parsed configuration; returns the process exit status.
    The rows that completed are written even when a later row raises."""
    command = cfg.get("command")
    if command not in COMMANDS:
        raise ConfigError("--command is required")
    rows, records = [], []  # rows with no EnergyResult have no diagnostics
    try:
        ok = _rows(command, cfg, rows, records)
    finally:
        if rows:
            _write_csv(rows, cfg.get("out"))
            if cfg.get("diagnostics"):
                with open(cfg["diagnostics"], "w") as fh:
                    json.dump(records, fh, indent=1)
    return 0 if ok else 2


def _rows(command, cfg, rows, records):
    """Append the command's rows, and their diagnostics, to ``rows`` and
    ``records``; returns whether every row converged."""
    if command == "table1":
        return _table_rows(0.01, (0.5, 1.0, 3.0), cfg, rows, records)
    if command == "table2":
        return _table_rows(0.1, (0.5, 1.0, 6.0), cfg, rows, records)
    if command == "scan":
        return _scan_rows(cfg, rows, records)
    if command == "pfa":
        geom = _geometry(cfg)
        T = _temperature(cfg, 0.0)
        mc = cfg.get("mode_count", 2)
        rows.append({
            "R": geom.R, "d": geom.d, "T": T, "mode_count": mc,
            "value": pfa.pfa_free_energy(geom, T, mc),
            "force": pfa.pfa_force(geom, T, mc),
            "error_estimate": 0.0, "l_max_used": "", "converged": True,
        })
        return True
    if command == "asymptotic":
        geom = _geometry(cfg)
        T = _temperature(cfg)
        spec = _field(cfg)
        exp = asympt.low_t_thermal(geom, spec, T)
        rows.append({
            "R": geom.R, "d": geom.d, "T": T, "field": cfg.get("field", "scalar-d-d"),
            "value": exp.value, "leading_power": exp.leading_power,
            "validity_note": exp.validity_note,
        })
        return True
    geom = _geometry(cfg)
    res = _observable(command, cfg, geom, _field(cfg), _truncation(cfg))
    inputs = {"command": command, "R": geom.R, "d": geom.d, "T": cfg.get("T", "")}
    rows.append(_result_row(inputs, res))
    records.append(dict(inputs, diagnostics=res.diagnostics))
    return res.converged


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return run(cfg)
    except (ValueError, ArithmeticError, MemoryError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
