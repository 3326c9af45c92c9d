"""One round of a workload in a fresh process.

Usage: python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

Imports casphere from the checkout's ``src``, makes the inputs, runs the
untimed warm-up (if the workload has one), then times the workload's
operations one at a time, with calibration slices (fixed work that calls
no casphere code) before, between and, in untraced rounds, inside them.
Prints one JSON object: the monotonic clock at the end of set-up, the timed
wall and CPU seconds as measured and scaled to the reference host's speed,
the median slice time, the peak resident set, the outputs, the BLAS thread
count, the time spent outside the calls into casphere, and with --trace 1
the per-layer metrics of the timed pass.

Importing this module pins OpenBLAS, OpenMP and MKL to BLAS_THREADS
threads, whatever the environment says: every figure and bound of the
benchmark assumes that count.  Import it before numpy.
"""

import os

#: BLAS threads of every process of the benchmark
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("specfun", "wigner", "kernel", "trlog", "freeenergy")

#: repetitions of the calibration mix in one calibration slice
CAL_REPS = 2

#: the scale of the benchmark's reference-host times: the wall (and CPU)
#: seconds of one calibration slice on the 2-vCPU VM of README.md (about
#: the median over the rounds of the runs reported there)
CAL_REF_S = 0.015

#: in untraced rounds, a calibration slice also runs at the entry of
#: ``trlog.assemble_block`` (one call per kernel block) once this many
#: seconds of the workload's own time have passed since the last slice
SLICE_EVERY_S = 0.1


class Calibration:
    """A fixed piece of work that calls no casphere code: one each of the
    program's kinds of numerical work (complex eigenvalues, elementwise
    array arithmetic, a table of scaled Bessel functions, an LU
    log-determinant), then an interpreted loop that takes about half
    the time.  When the host is busy, the program's rounds slow by about
    the same factor as that loop, but by 1.2-1.4 times the factor (in
    logarithm) by which the numerical kernels alone slow."""

    def __init__(self):
        import numpy as np
        from scipy.special import ive
        rng = np.random.default_rng(0)
        self.np, self.ive = np, ive
        self.complex = 0.1 * (rng.standard_normal((36, 36))
                              + 1j * rng.standard_normal((36, 36)))
        self.real = np.eye(64) - 0.1 * rng.standard_normal((64, 64))
        self.array = rng.standard_normal((40, 40, 40))
        self.orders = np.arange(20)[:, None] + 0.5
        self.x = np.linspace(0.1, 50.0, 100)

    def run(self):
        """Run the mix CAL_REPS times; returns (wall, cpu) seconds."""
        np = self.np
        c0, t0 = time.process_time(), time.perf_counter()
        for _ in range(CAL_REPS):
            np.linalg.eigvals(self.complex)
            np.exp(-np.abs(self.array)) * self.array
            self.ive(self.orders, self.x)
            np.linalg.slogdet(self.real)
            s = 0.0
            for k in range(36000):
                s += k ** 0.5
        return time.perf_counter() - t0, time.process_time() - c0


class Timeline:
    """The timed part of a round as calibration slices and segments of the
    workload's own time, alternating: slice, segment, slice, ..., segment,
    slice.  The host's speed drifts by tens of per cent over seconds on a
    shared machine; a slice shows how fast it ran at that moment, and each
    segment is scaled to the reference host by the mean of the slices on
    either side of it."""

    def __init__(self, calibration):
        self.calibration = calibration
        self.slices = []  # (wall, cpu)
        self.segments = []  # (wall, cpu)
        self.slice_wall = 0.0  # summed wall time of the slices
        self.start = None

    def begin(self):
        self.start = (time.perf_counter(), time.process_time())

    def end(self):
        t0, c0 = self.start
        self.segments.append((time.perf_counter() - t0, time.process_time() - c0))
        self.start = None

    def slice(self):
        wall, cpu = self.calibration.run()
        self.slices.append((wall, cpu))
        self.slice_wall += wall

    def hook(self, module, name):
        """Cut the open segment with a slice at the entry of
        ``module.name`` once SLICE_EVERY_S have passed since it opened."""
        inner = getattr(module, name)

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            if self.start is not None and time.perf_counter() - self.start[0] >= SLICE_EVERY_S:
                self.end()
                self.slice()
                self.begin()
            return inner(*args, **kwargs)

        setattr(module, name, wrapper)

    def totals(self):
        """Wall and CPU seconds of the segments, as measured and scaled."""
        wall = cpu = wall_ref = cpu_ref = 0.0
        for (w, c), a, b in zip(self.segments, self.slices, self.slices[1:]):
            wall += w
            cpu += c
            wall_ref += w * 2.0 * CAL_REF_S / (a[0] + b[0])
            cpu_ref += c * 2.0 * CAL_REF_S / (a[1] + b[1])
        return wall, cpu, wall_ref, cpu_ref


def import_casphere():
    """The casphere modules of this checkout, by layer name."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("casphere")
    if Path(pkg.__file__).resolve().parent != src / "casphere":
        raise ImportError(f"casphere imported from {pkg.__file__}, not {src}")
    return {name: importlib.import_module(f"casphere.{name}") for name in MODULES}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import workloads

    modules = import_casphere()
    program = workloads.Program(modules)
    warmup, timed = workloads.make_inputs(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer(modules)
        tracer.install()
    for op in warmup:
        program.run(op)
    setup_end = time.monotonic()
    calibration = Calibration()
    calibration.run()  # untimed: first calls load code and fill caches
    timeline = Timeline(calibration)
    if tracer is None:
        timeline.hook(modules["trlog"], "assemble_block")

    outputs, errors = [], []
    in_program = 0.0  # time inside program.run less its slices, summed
    timeline.slice()
    for op in timed:
        if tracer is not None:
            tracer.recording = True
        timeline.begin()
        t0, sliced = time.perf_counter(), timeline.slice_wall
        try:
            returned = program.run(op)
        except Exception:  # an operation that raises counts as failed
            returned = None
            errors.append(f"{op['label']}: {traceback.format_exc(limit=2)}")
        in_program += time.perf_counter() - t0 - (timeline.slice_wall - sliced)
        outputs.append(None if returned is None else workloads.summarize(returned))
        timeline.end()
        if tracer is not None:
            tracer.recording = False
        timeline.slice()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    wall, cpu, wall_ref, cpu_ref = timeline.totals()
    result = {
        "setup_end": setup_end,
        "wall_s": wall,
        "cpu_s": cpu,
        "wall_ref_s": wall_ref,
        "cpu_ref_s": cpu_ref,
        "cal_s": statistics.median(w for w, _ in timeline.slices),
        "slices": len(timeline.slices),
        "peak_rss_mb": rss_kib / 1024.0,
        "harness_s": wall - in_program,
        "blas_threads": BLAS_THREADS,
        "outputs": outputs,
        "errors": errors,
        "trace": None,
    }
    if tracer is not None:
        result["trace"] = {name: list(v) for name, v in tracer.metrics(wall).items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
