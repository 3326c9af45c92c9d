"""Per-layer spans and counts, recorded around the calls into each layer.

The tracer replaces public functions of the casphere modules with timing
wrappers.  Callers inside the package look these functions up on their
module at call time (``specfun.log_ik_arrays``, ``trlog.trace_over_m``,
module-level names inside ``trlog``), so a replaced attribute is seen by
every caller.  Nothing inside the program changes.

A span's self time is its duration minus the durations of the traced spans
it called.  Every traced function belongs to exactly one self-time bucket,
so the buckets plus the time outside any span (the harness's own time) add
up to the traced wall time.
"""

import time

import numpy as np

#: (module, function, self-time bucket) for every traced function.  A
#: bucket is a layer, with the block factorisations split from the rest of
#: trlog.  Each workload runs one kernel path (rotated blocks with
#: eigenvalues, or imaginary-axis and static blocks with LU), so per
#: workload a bucket is the time of that path; a per-function bucket would
#: read exactly 0 on every run of the workloads that do not call it.
TRACED = [
    ("specfun", "log_ik_arrays", "specfun"),
    ("specfun", "log_jy_arrays", "specfun"),
    ("specfun", "log_hankel2_arrays", "specfun"),
    ("wigner", "h_tensor", "wigner"),
    ("wigner", "lambda_tensor", "wigner"),
    ("wigner", "log_h_top_matrix", "wigner"),
    ("kernel", "scalar_matrix", "kernel"),
    ("kernel", "rotated_matrix", "kernel"),
    ("kernel", "em_matrix", "kernel"),
    ("kernel", "static_matrix", "kernel"),
    ("trlog", "trace_over_m", "trlog"),
    ("trlog", "assemble_block", "trlog"),
    ("trlog", "trace_log_eig", "trlog.factor"),
    ("trlog", "log_det_one_minus", "trlog.factor"),
    ("freeenergy", "matsubara_free_energy", "freeenergy"),
    ("freeenergy", "vacuum_energy", "freeenergy"),
    ("freeenergy", "thermal_part", "freeenergy"),
    ("freeenergy", "force", "freeenergy"),
]

BUCKETS = sorted({bucket for _, _, bucket in TRACED})

ENERGY_FUNCTIONS = ("matsubara_free_energy", "vacuum_energy", "thermal_part")

#: units of the per-layer metrics that are counts; they must repeat exactly
COUNT_UNITS = ("count", "B", "ratio")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _h_key(args, kwargs):
    return (_arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "l_start"),
            _arg(args, kwargs, 2, "l_max"),
            bool(_arg(args, kwargs, 3, "alternating", False)))


def _block_entries(block):
    return block.entries if hasattr(block, "entries") else np.asarray(block)


class Tracer:
    """Wraps the functions in TRACED and accumulates spans and counts.

    Recording happens only while ``recording`` is true; outside it the
    wrappers still note which H-tensor keys the process has seen, so that a
    timed pass after a warm-up can tell cache reads from builds.
    """

    def __init__(self, modules):
        self.modules = modules
        self.recording = False
        self.seen_h_keys = set()
        self.stack = []
        self.node_l_max = []  # l_max of each block, per open trace_over_m
        self.outside = 0.0  # summed durations of spans with no traced parent
        self.self_s = dict.fromkeys(BUCKETS, 0.0)
        self.calls = {}
        self.ik_keys = set()
        self.jy_keys = set()
        self.h_builds = 0
        self.h_bytes = {}
        self.kernel_entries = 0
        self.nodes = 0
        self.blocks = 0
        self.growth_steps = 0
        self.useful_blocks = 0
        self.l_max_max = 0
        self.n3 = 0
        self.fallbacks = 0
        self.energy_evals = 0

    # -- installation -------------------------------------------------------

    def install(self):
        hooks = self._hooks()
        for mod_name, fn_name, bucket in TRACED:
            mod = self.modules[mod_name]
            name = f"{mod_name}.{fn_name}"
            setattr(mod, fn_name, self._wrap(getattr(mod, fn_name), name, bucket,
                                             hooks.get(name)))

    def _wrap(self, fn, name, bucket, hook):
        tracer = self
        clock = time.perf_counter
        is_node = name == "trlog.trace_over_m"
        is_h = name == "wigner.h_tensor"

        def traced(*args, **kwargs):
            if not tracer.recording:
                if is_h:
                    tracer.seen_h_keys.add(_h_key(args, kwargs))
                return fn(*args, **kwargs)
            stack = tracer.stack
            frame = [0.0, bucket]  # time spent in traced children, bucket
            stack.append(frame)
            if is_node:
                tracer.node_l_max.append([])
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                tracer.self_s[bucket] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    tracer.outside += dt
                l_max_seen = tracer.node_l_max.pop() if is_node else None
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            if hook is not None:
                hook(args, kwargs, out, l_max_seen)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- counts -------------------------------------------------------------

    def _hooks(self):
        """Count hooks, called after a recorded call returns."""
        def ik(args, kwargs, out, _):
            self.ik_keys.add((args, tuple(kwargs.items())))

        def jy(args, kwargs, out, _):
            self.jy_keys.add((args, tuple(kwargs.items())))

        def h_tensor(args, kwargs, out, _):
            key = _h_key(args, kwargs)
            if key not in self.seen_h_keys:
                self.seen_h_keys.add(key)
                self.h_builds += 1
            self.h_bytes[key] = out.nbytes

        def kernel_block(args, kwargs, out, _):
            # the EM static block calls static_matrix for its TE and TM
            # halves; count the entries of the outermost block only
            if not (self.stack and self.stack[-1][1] == "kernel"):
                self.kernel_entries += out.shape[0] * out.shape[1]

        def assemble_block(args, kwargs, out, _):
            self.blocks += 1
            if self.node_l_max:
                self.node_l_max[-1].append(_arg(args, kwargs, 4, "l_max"))

        def trace_over_m(args, kwargs, out, l_max_seen):
            self.nodes += 1
            final = out[1]["l_max_used"]
            self.l_max_max = max(self.l_max_max, final)
            self.growth_steps += max(len(set(l_max_seen)) - 1, 0)
            self.useful_blocks += sum(1 for l in l_max_seen if l == final)

        def eig(args, kwargs, out, _):
            self.n3 += _block_entries(_arg(args, kwargs, 0, "block")).shape[0] ** 3

        def logdet(args, kwargs, out, _):
            entries = _block_entries(_arg(args, kwargs, 0, "block"))
            self.n3 += entries.shape[0] ** 3
            if np.iscomplexobj(entries):
                self.fallbacks += 1

        def energy(args, kwargs, out, _):
            self.energy_evals += 1

        hooks = {
            "specfun.log_ik_arrays": ik,
            "specfun.log_jy_arrays": jy,
            "wigner.h_tensor": h_tensor,
            "trlog.assemble_block": assemble_block,
            "trlog.trace_over_m": trace_over_m,
            "trlog.trace_log_eig": eig,
            "trlog.log_det_one_minus": logdet,
        }
        for fn_name in ("scalar_matrix", "rotated_matrix", "em_matrix", "static_matrix"):
            hooks[f"kernel.{fn_name}"] = kernel_block
        for fn_name in ENERGY_FUNCTIONS:
            hooks[f"freeenergy.{fn_name}"] = energy
        return hooks

    # -- report -------------------------------------------------------------

    def metrics(self, wall):
        """Per-layer metrics of the recorded interval of length ``wall``."""
        c = self.calls.get
        s = self.self_s
        out = {
            "specfun.ik.calls": (c("specfun.log_ik_arrays", 0), "count"),
            "specfun.ik.distinct": (len(self.ik_keys), "count"),
            "specfun.jy.calls": (c("specfun.log_jy_arrays", 0), "count"),
            "specfun.jy.distinct": (len(self.jy_keys), "count"),
            "specfun.hankel2.calls": (c("specfun.log_hankel2_arrays", 0), "count"),
            "specfun.self_s": (s["specfun"], "s"),
            "wigner.h_tensor.calls": (c("wigner.h_tensor", 0), "count"),
            "wigner.h_tensor.builds": (self.h_builds, "count"),
            "wigner.h_tensor.bytes": (sum(self.h_bytes.values()), "B"),
            "wigner.self_s": (s["wigner"], "s"),
            "kernel.scalar_matrix.calls": (c("kernel.scalar_matrix", 0), "count"),
            "kernel.rotated_matrix.calls": (c("kernel.rotated_matrix", 0), "count"),
            "kernel.em_matrix.calls": (c("kernel.em_matrix", 0), "count"),
            "kernel.self_s": (s["kernel"], "s"),
            "kernel.entries": (self.kernel_entries, "count"),
            "trlog.nodes": (self.nodes, "count"),
            "trlog.blocks": (self.blocks, "count"),
            "trlog.growth_steps": (self.growth_steps, "count"),
            "trlog.blocks.useful_ratio": (
                self.useful_blocks / self.blocks if self.blocks else 0.0, "ratio"),
            "trlog.l_max.max": (self.l_max_max, "count"),
            "trlog.n3": (self.n3, "count"),
            "trlog.factor.self_s": (s["trlog.factor"], "s"),
            "trlog.fallbacks": (self.fallbacks, "count"),
            "trlog.self_s": (s["trlog"], "s"),
            "freeenergy.energy_evals": (self.energy_evals, "count"),
            "freeenergy.self_s": (s["freeenergy"], "s"),
            "trace.wall_s": (wall, "s"),
            "trace.harness_s": (wall - self.outside, "s"),
        }
        return out
