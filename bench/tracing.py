"""Per-layer tracing of mgem, installed from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``mgem`` module namespace that binds it (``from .mlp import
loss_and_grad`` copies the function into ``engine`` and ``constraints``, so
each binding is patched). ``Tracer.uninstall`` puts the originals back.

Each wrapper call records one span ``(id, parent, name, thread, start, end,
excluded)``, with one span stack per thread. ``excluded`` is the time the
harness itself spent inside the span (certifying QP instances, computing
memory inner products); it is subtracted from the span's duration, so busy
and self times measure the program, not the harness. A span's self time is
its duration minus the durations of its child spans (the children of a span
run on its thread one after another, so they never overlap).

``mlp.loss_and_grad`` spans are named after the calling module:
``mlp.loss_and_grad.engine`` for minibatch and trace passes,
``mlp.loss_and_grad.constraints`` for memory-gradient passes.
"""

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

import numpy as np

ENUM_MAX_M = 12      # solve_enumerate's limit
ENUM_GAP_TOL = 1e-6  # a larger gap to the oracle fails the job

# (module, function, span name); every module given to Tracer is searched
# for bindings of the function.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("config", "parse_config", "config.parse_config"),
    ("taskgen", "generate", "taskgen.generate"),
    ("engine", "run", "engine.run"),
    ("engine", "pareto_sweep", "engine.pareto_sweep"),
    ("constraints", "build_instances", "constraints.build_instances"),
    ("constraints", "assemble_direction", "constraints.assemble_direction"),
    ("qp", "solve_exact", "qp.solve_exact"),
    ("qp", "solve_approx", "qp.solve_approx"),
    ("mlp", "loss_and_grad", "mlp.loss_and_grad"),
    ("mlp", "accuracy", "mlp.accuracy"),
    ("metrics", "write_summary_csv", "metrics.write"),
    ("metrics", "write_pareto_csv", "metrics.write"),
    ("metrics", "write_rmatrix_csv", "metrics.write"),
)

# Per-layer metrics reported by a traced run: (name, unit, better).
PER_LAYER = (
    ("qp.solve_exact.calls", "count", "lower"),
    ("qp.solve_exact.busy_s", "s", "lower"),
    ("qp.solve_exact.p50_us", "us", "lower"),
    ("qp.solve_exact.p99_us", "us", "lower"),
    ("qp.solve_exact.sweeps_p50", "count", "lower"),
    ("qp.solve_exact.sweeps_p99", "count", "lower"),
    ("qp.solve_exact.sweeps_max", "count", "lower"),
    ("qp.solve_exact.unconverged", "count", "lower"),
    ("qp.m_mean", "rows", "lower"),
    ("qp.m_max", "rows", "lower"),
    ("qp.active_mean", "rows", "lower"),
    ("qp.solve_approx.calls", "count", "lower"),
    ("qp.solve_approx.busy_s", "s", "lower"),
    ("qp.enum_checked", "count", "higher"),
    ("qp.enum_skipped", "count", "lower"),
    ("qp.enum_max_gap_mult", "abs", "lower"),
    ("qp.enum_max_gap_obj", "abs", "lower"),
    ("mlp.loss_and_grad.engine.calls", "count", "lower"),
    ("mlp.loss_and_grad.engine.busy_s", "s", "lower"),
    ("mlp.loss_and_grad.engine.samples", "count", "lower"),
    ("mlp.loss_and_grad.constraints.calls", "count", "lower"),
    ("mlp.loss_and_grad.constraints.busy_s", "s", "lower"),
    ("mlp.loss_and_grad.constraints.samples", "count", "lower"),
    ("mlp.accuracy.busy_s", "s", "lower"),
    ("constraints.build_instances.calls", "count", "lower"),
    ("constraints.build_instances.busy_s", "s", "lower"),
    ("constraints.build_instances.self_s", "s", "lower"),
    ("constraints.build_instances.rows", "count", "lower"),
    ("constraints.build_instances.rows_dropped", "count", "lower"),
    ("constraints.assemble_direction.busy_s", "s", "lower"),
    ("engine.run.calls", "count", "lower"),
    ("engine.run.busy_s", "s", "lower"),
    ("engine.run.self_s", "s", "lower"),
    ("engine.pareto_sweep.speedup", "x", "higher"),
    ("taskgen.generate_s", "s", "lower"),
    ("config.parse_s", "s", "lower"),
    ("metrics.write.busy_s", "s", "lower"),
    ("metrics.write.bytes", "bytes", "lower"),
    ("approx.steps", "count", "lower"),
    ("approx.violating_steps", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


class Tracer:
    """Spans and per-call records for one traced command."""

    def __init__(self, modules):
        self._mods = modules               # short name -> module object
        self._qp = modules["qp"]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        # Appended from worker threads (list.append is atomic) and only
        # aggregated after the command has returned.
        self.spans = []
        self.qp_calls = []        # (route, m, sweeps, converged, active)
        self.enum = []            # (job span id, gap_mult, gap_obj), m <= 12
        self.enum_errors = []     # job span ids where the oracle found no optimum
        self.enum_skipped = []    # m of exact instances too large to enumerate
        self.rows = []            # (kept, dropped) rows per build_instances
        self.samples = defaultdict(list)   # span name -> samples per call
        self.write_bytes = []
        self.approx_inner = []    # min_s <ghat_s, z> per approx-solver step
        self.harness_s = defaultdict(float)   # thread id -> harness time

    def install(self):
        hooks = {
            "qp.solve_exact": self._after_exact,
            "qp.solve_approx": self._after_approx,
            "constraints.build_instances": self._after_build,
            "constraints.assemble_direction": self._after_assemble,
            "mlp.loss_and_grad": self._after_loss,
            "metrics.write": self._after_write,
        }
        for mod_name, fn_name, span_name in TARGETS:
            original = getattr(self._mods[mod_name], fn_name)
            for short, module in self._mods.items():
                for attr, value in list(vars(module).items()):
                    if value is not original:
                        continue
                    name = span_name
                    if span_name == "mlp.loss_and_grad":
                        name = f"{span_name}.{short}"
                    setattr(module, attr, self._wrap(name, original, hooks.get(span_name)))
                    self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []         # [(span id, name)] of open spans
            st.harness = 0.0      # cumulative harness time on this thread
            st.pending = None     # (solver, memory_grads) of the open step
        return st

    def _wrap(self, name, fn, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            span_id = next(tracer._ids)
            parent = st.stack[-1][0] if st.stack else 0
            st.stack.append((span_id, name))
            h0 = st.harness
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.stack.pop()
            tracer.spans.append((span_id, parent, name, threading.get_ident(),
                                 t0, t1, st.harness - h0))
            if after is not None:
                after(name, st, args, kwargs, result)
                spent = time.perf_counter() - t1
                st.harness += spent
                tracer.harness_s[threading.get_ident()] += spent
            return result

        return traced

    # Hooks run after their span has closed; their time is harness time.
    @staticmethod
    def _arg(args, kwargs, i, key):
        return args[i] if len(args) > i else kwargs[key]

    @staticmethod
    def _job(st):
        for span_id, name in reversed(st.stack):
            if name == "engine.run":
                return span_id
        return 0

    def _after_exact(self, name, st, args, kwargs, sol):
        qp = self._qp
        inst = self._arg(args, kwargs, 0, "inst")
        v = sol.multipliers
        active = int(np.sum(v > qp.lower_bounds(inst)))
        self.qp_calls.append(("exact", inst.m, sol.iterations, sol.converged, active))
        if inst.m > ENUM_MAX_M:
            self.enum_skipped.append(inst.m)
            return
        try:
            ref = qp.solve_enumerate(inst)
        except RuntimeError:
            self.enum_errors.append(self._job(st))
            return
        gap_mult = float(np.max(np.abs(v - ref.multipliers))) if inst.m else 0.0
        gap_obj = abs(qp.dual_objective(inst, v) - qp.dual_objective(inst, ref.multipliers))
        self.enum.append((self._job(st), gap_mult, gap_obj))

    def _after_approx(self, name, st, args, kwargs, sol):
        inst = self._arg(args, kwargs, 0, "inst")
        active = int(np.sum(sol.multipliers > inst.strength))
        self.qp_calls.append(("approx", inst.m, sol.iterations, sol.converged, active))

    def _after_build(self, name, st, args, kwargs, batch):
        method = self._arg(args, kwargs, 0, "method")
        self.rows.append((sum(inst.m for inst in batch.instances), batch.rows_dropped))
        st.pending = (method.solver, batch.memory_grads)

    def _after_assemble(self, name, st, args, kwargs, z):
        if st.pending is None:
            return
        solver, grads = st.pending
        st.pending = None
        if solver == "approx" and grads:
            self.approx_inner.append(min(float(g @ z) for g in grads))

    def _after_loss(self, name, st, args, kwargs, result):
        self.samples[name].append(self._arg(args, kwargs, 2, "data").n_samples)

    def _after_write(self, name, st, args, kwargs, result):
        self.write_bytes.append(os.path.getsize(self._arg(args, kwargs, 0, "path")))

    def harness_total(self) -> float:
        """Harness time of all threads together."""
        return float(sum(self.harness_s.values()))

    def harness_delay(self) -> float:
        """Harness time of the thread that spent the most on it. Worker
        threads run their hooks side by side, so this, not the total, is
        what the harness adds to a command's wall time."""
        return max(self.harness_s.values(), default=0.0)

    def failed_jobs(self):
        """engine.run span ids with an exact solve the oracle does not confirm."""
        return {job for job, gm, go in self.enum
                if not (gm <= ENUM_GAP_TOL and go <= ENUM_GAP_TOL)} | set(self.enum_errors)

    def per_layer(self) -> dict:
        """Aggregate spans and records into the per-layer metrics."""
        dur = {}
        child = defaultdict(float)
        by_name = defaultdict(list)
        for span_id, parent, name, _thread, t0, t1, excluded in self.spans:
            d = (t1 - t0) - excluded
            dur[span_id] = d
            child[parent] += d
            by_name[name].append(span_id)

        def busy(name):
            return float(sum(dur[i] for i in by_name[name]))

        def self_time(name):
            return float(sum(dur[i] - child[i] for i in by_name[name]))

        def calls(name):
            return len(by_name[name])

        exact = [c for c in self.qp_calls if c[0] == "exact"]
        exact_us = np.array([dur[i] for i in by_name["qp.solve_exact"]]) * 1e6
        sweeps = np.array([c[2] for c in exact], dtype=float)
        sizes = np.array([c[1] for c in self.qp_calls], dtype=float)
        active = np.array([c[4] for c in self.qp_calls], dtype=float)

        def pct(a, q):
            return float(np.percentile(a, q)) if a.size else 0.0

        out = {
            "qp.solve_exact.calls": calls("qp.solve_exact"),
            "qp.solve_exact.busy_s": busy("qp.solve_exact"),
            "qp.solve_exact.p50_us": pct(exact_us, 50),
            "qp.solve_exact.p99_us": pct(exact_us, 99),
            "qp.solve_exact.sweeps_p50": pct(sweeps, 50),
            "qp.solve_exact.sweeps_p99": pct(sweeps, 99),
            "qp.solve_exact.sweeps_max": float(sweeps.max()) if sweeps.size else 0.0,
            "qp.solve_exact.unconverged": sum(1 for c in exact if not c[3]),
            "qp.m_mean": float(sizes.mean()) if sizes.size else 0.0,
            "qp.m_max": float(sizes.max()) if sizes.size else 0.0,
            "qp.active_mean": float(active.mean()) if active.size else 0.0,
            "qp.solve_approx.calls": calls("qp.solve_approx"),
            "qp.solve_approx.busy_s": busy("qp.solve_approx"),
            "qp.enum_checked": len(self.enum),
            "qp.enum_skipped": len(self.enum_skipped),
            "qp.enum_max_gap_mult": max((e[1] for e in self.enum), default=0.0),
            "qp.enum_max_gap_obj": max((e[2] for e in self.enum), default=0.0),
        }
        for caller in ("engine", "constraints"):
            name = f"mlp.loss_and_grad.{caller}"
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.busy_s"] = busy(name)
            out[f"{name}.samples"] = int(sum(self.samples[name]))
        out["mlp.accuracy.busy_s"] = busy("mlp.accuracy")
        out.update({
            "constraints.build_instances.calls": calls("constraints.build_instances"),
            "constraints.build_instances.busy_s": busy("constraints.build_instances"),
            "constraints.build_instances.self_s": self_time("constraints.build_instances"),
            "constraints.build_instances.rows": int(sum(r[0] for r in self.rows)),
            "constraints.build_instances.rows_dropped": int(sum(r[1] for r in self.rows)),
            "constraints.assemble_direction.busy_s": busy("constraints.assemble_direction"),
            "engine.run.calls": calls("engine.run"),
            "engine.run.busy_s": busy("engine.run"),
            "engine.run.self_s": self_time("engine.run"),
            "taskgen.generate_s": busy("taskgen.generate"),
            "config.parse_s": busy("config.parse_config"),
            "metrics.write.busy_s": busy("metrics.write"),
            "metrics.write.bytes": int(sum(self.write_bytes)),
            "approx.steps": len(self.approx_inner),
            "approx.violating_steps": sum(1 for x in self.approx_inner if x < 0.0),
        })
        return out

    def write_spans(self, path):
        """Spans as CSV: id,parent,name,thread,start_s,end_s,excluded_s."""
        t_base = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,thread,start_s,end_s,excluded_s\n")
            for span_id, parent, name, thread, t0, t1, excluded in self.spans:
                fh.write(f"{span_id},{parent},{name},{thread},{t0 - t_base:.9f},"
                         f"{t1 - t_base:.9f},{excluded:.9f}\n")
