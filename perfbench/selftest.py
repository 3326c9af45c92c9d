"""Show that every check of the benchmark can fail.

Usage: python3 perfbench/selftest.py [--workload NAME] [--seed N]

Runs two rounds of each workload (default: all three), the second one
traced, computes the references once, and confirms that every check
passes on the real outputs.  Then, for every output, it moves the checked
quantity just beyond the check's tolerance and confirms that exactly that
check fails:

* reference: the value scaled by 1 +- 2 tol;
* thermal_part (a force with that check): the program's thermal part
  scaled by 1 +- 2 tol;
* error_estimate: the error estimate scaled to 1.02 tol of the value
  (and to 0.98 tol, which must still pass);
* repeat: the second round's value scaled by 1 + 2 tol;
* converged: the flag cleared;
* completed: the output of the first round, or of the second, replaced by
  None (an operation that raised); the other round's output must still
  pass its reference check;
* the traced round's ``trace.harness_s`` moved by 2 tol off the harness
  time the worker measured.

Exits 1 if any check passes where it should fail, or fails on the real
outputs.
"""

import argparse
import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _verdict(ops, rounds, refs, name, label):
    """ok flags of the checks called ``name`` on output ``label``."""
    return [c["ok"] for c in workloads.evaluate_checks(ops, rounds, refs)
            if c["name"] == name and c["op"] == label]


def mutations(ops, rounds, refs):
    """Yield (description, rounds, refs, [(check name, expected ok)], op label)."""
    first = rounds[0]
    tol = workloads.TOL_REFERENCE
    for i, op in enumerate(ops):
        label, out = op["label"], first[i]
        for factor in (1.0 + 2.0 * tol, 1.0 - 2.0 * tol):
            mutated = copy.deepcopy(rounds)
            for outs in mutated:
                outs[i]["value"] *= factor
            yield f"value x {factor:.6g}", mutated, refs, [("reference", False)], label
            if "thermal_part" in refs[label]:
                moved = copy.deepcopy(refs)
                FT, FT_ref, method = moved[label]["thermal_part"]
                moved[label]["thermal_part"] = (FT * factor, FT_ref, method)
                yield (f"thermal part x {factor:.6g}", rounds, moved,
                       [("thermal_part", False)], label)
        ratio = out["error_estimate"] / abs(out["value"])
        for share, expect in ((1.02, False), (0.98, True)):
            mutated = copy.deepcopy(rounds)
            mutated[0][i]["error_estimate"] *= share * workloads.TOL_ERROR_ESTIMATE / ratio
            yield (f"error estimate at {share:g} tol", mutated, refs,
                   [("error_estimate", expect)], label)
        mutated = copy.deepcopy(rounds)
        mutated[0][i]["converged"] = False
        yield "converged cleared", mutated, refs, [("converged", False)], label
        mutated = copy.deepcopy(rounds)
        mutated[1][i]["value"] *= 1.0 + 2.0 * workloads.TOL_REPEAT
        yield (f"round 2 value x (1 + {2 * workloads.TOL_REPEAT:g})", mutated, refs,
               [("repeat", False)], label)
        for k in (0, 1):
            mutated = copy.deepcopy(rounds)
            mutated[k][i] = None
            yield (f"round {k + 1} raised", mutated, refs,
                   [("completed", False), ("reference", True)], label)


def selftest(workload, seed, program):
    _, ops = workloads.make_inputs(workload, seed)
    recs = [run.run_round(workload, seed, trace) for trace in (0, 1)]
    rounds = [r["outputs"] for r in recs]
    refs = workloads.references(program, ops, rounds[0])
    bad = 0
    for c in workloads.evaluate_checks(ops, rounds, refs):
        if not c["ok"]:
            bad += 1
            print(f"FAIL {workload}: {c['name']} {c['op']} fails on the real outputs")
    for p in run.harness_problems(recs[1]):
        bad += 1
        print(f"FAIL {workload}: {p}")
    for desc, mutated, mrefs, expected, label in mutations(ops, rounds, refs):
        for name, expect in expected:
            verdict = _verdict(ops, mutated, mrefs, name, label)
            ok = bool(verdict) and all(v == expect for v in verdict)
            bad += not ok
            print(f"{'PASS' if ok else 'FAIL'} {workload:<18} {label:<16} {name:<14} "
                  f"{desc}: check {'passes' if expect else 'fails'} "
                  f"{'as required' if ok else 'NOT as required'}")
    for sign in (1.0, -1.0):
        moved = copy.deepcopy(recs[1])
        moved["trace"]["trace.harness_s"][0] += sign * 2.0 * run.TOL_HARNESS_S
        ok = bool(run.harness_problems(moved))
        bad += not ok
        print(f"{'PASS' if ok else 'FAIL'} {workload:<18} {'traced round':<16} "
              f"{'harness':<14} trace.harness_s {sign * 2.0 * run.TOL_HARNESS_S:+g} s: "
              f"check fails {'as required' if ok else 'NOT as required'}")
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = ap.parse_args(argv)
    program = workloads.Program(worker.import_casphere())
    names = [args.workload] if args.workload else workloads.WORKLOADS
    bad = sum(selftest(w, args.seed, program) for w in names)
    print(f"{bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
