"""casphere benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round runs in a fresh worker process (perfbench/worker.py), one at a
time, so every round starts with cold caches and pays its own import and
set-up.  Rounds repeat until S seconds have passed (at least MIN_ROUNDS
rounds; with --trace 1, pairs of an untraced and a traced round).  The
outputs of every round are then checked (perfbench/workloads.py), and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The full record of the
run goes to perfbench/out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (first: pins the BLAS threads before numpy loads)
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
MIN_TRACE_PAIRS = 1
ROUND_TIMEOUT_S = 100

#: largest gap between the traced round's time outside every span and the
#: time the worker spent outside its calls into the program, in seconds
TOL_HARNESS_S = 1e-3


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not an operation failure)."""


def run_round(workload, seed, trace):
    """Run one round in a fresh process; returns its record with setup_s."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"round exceeded {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"worker printed nothing:\n{proc.stderr}")
    rec = json.loads(lines[-1])
    rec["setup_raw_s"] = rec.pop("setup_end") - spawned
    # set-up time scaled like the timed part, by the round's median slice
    rec["setup_s"] = rec["setup_raw_s"] * worker.CAL_REF_S / rec["cal_s"]
    rec["traced"] = bool(trace)
    return rec


def run_rounds(workload, seed, seconds, trace):
    start = time.monotonic()
    rounds = []
    while True:
        if trace:
            rounds.append(run_round(workload, seed, 0))
            rounds.append(run_round(workload, seed, 1))
            done = len(rounds) // 2 >= MIN_TRACE_PAIRS
        else:
            rounds.append(run_round(workload, seed, 0))
            done = len(rounds) >= MIN_ROUNDS
        if done and time.monotonic() - start >= seconds:
            return rounds


def end_to_end_metrics(rounds):
    med = lambda key: statistics.median(r[key] for r in rounds)  # noqa: E731
    return {"wall_ref_s": (med("wall_ref_s"), "s"),
            "cpu_ref_s": (med("cpu_ref_s"), "s"),
            "setup_s": (med("setup_s"), "s"),
            "peak_rss_mb": (med("peak_rss_mb"), "MB")}


def per_layer_metrics(rounds):
    """Metrics of the traced round with the median wall time, the raw
    times of the untraced rounds, the median slice time and the tracing
    overhead; returns (metrics, problems)."""
    traced = sorted((r for r in rounds if r["traced"]), key=lambda r: r["wall_s"])
    plain = [r["wall_s"] for r in rounds if not r["traced"]]
    chosen = traced[(len(traced) - 1) // 2]["trace"]
    problems = []
    for r in traced:
        for name, (value, unit) in r["trace"].items():
            if unit in tracer.COUNT_UNITS and value != chosen[name][0]:
                problems.append(f"{name} differs between traced rounds: "
                                f"{value} vs {chosen[name][0]}")
        problems += harness_problems(r)
    metrics = dict(chosen)
    metrics["host.wall_s"] = (statistics.median(plain), "s")
    metrics["host.setup_s"] = (
        statistics.median(r["setup_raw_s"] for r in rounds if not r["traced"]), "s")
    metrics["host.cal_s"] = (statistics.median(r["cal_s"] for r in rounds), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_ref_s"] for r in traced)
        - statistics.median(r["wall_ref_s"] for r in rounds if not r["traced"]), "s")
    return metrics, problems


def harness_problems(rec):
    """The tracer defines ``trace.harness_s`` as the traced wall time minus
    the spans with no traced parent, so the layers' self times and it add
    up to ``trace.wall_s`` by construction.  Compare it with the time the
    worker measured outside its calls into the program: a call that no
    span covers, or a span counted twice, shows as a gap."""
    gap = rec["trace"]["trace.harness_s"][0] - rec["harness_s"]
    if abs(gap) > TOL_HARNESS_S:
        return [f"trace.harness_s is {gap:+.3g} s off the worker's own "
                f"harness time (tol {TOL_HARNESS_S} s)"]
    return []


def check_rounds(workload, seed, rounds):
    """Compute the references and evaluate every check; returns the list of
    check results."""
    program = workloads.Program(worker.import_casphere())
    _, ops = workloads.make_inputs(workload, seed)
    outputs = [r["outputs"] for r in rounds]
    refs = workloads.references(program, ops, workloads.first_outputs(outputs))
    checks = workloads.evaluate_checks(ops, outputs, refs)
    for c in checks:
        ref = refs.get(c["op"], {})
        c["method"] = (ref["method"] if c["name"] == "reference" else
                       ref["thermal_part"][2] if c["name"] == "thermal_part" else None)
    return checks


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "casphere" / "__init__.py").is_file():
        print(f"error: no casphere sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(len(r["outputs"]) for r in rounds)
    failed = sum(o is None for r in rounds for o in r["outputs"])
    checks = check_rounds(args.workload, args.seed, rounds)
    problems = [f"{c['name']} {c['op']}: {c['measured']} vs tol {c['tol']}"
                for c in checks if not c["ok"]]
    if args.trace:
        metrics, trace_problems = per_layer_metrics(rounds)
        problems += trace_problems
    else:
        metrics = end_to_end_metrics(rounds)

    for c in checks:
        if c["name"] != "repeat":
            print(f"{'PASS' if c['ok'] else 'FAIL'} {c['name']:<14} {c['op']:<16} "
                  f"measured {c['measured']:.3g} tol {c['tol']}"
                  + (f"  [{c['method']}]" if c["method"] else ""))
    for r in rounds:
        for err in r["errors"]:
            print(f"FAILED operation: {err}")
    for p in problems:
        print(f"PROBLEM: {p}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, rounds=rounds, checks=checks)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
