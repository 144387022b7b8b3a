"""Layer tracing from outside the program.

``Tracer.install`` wraps every public function of the radialwave modules (and
``SolutionHistory.save``) in a span recorder.  The modules import one another
with ``from .x import y``, so each wrapper is rebound at every module that
holds the original function object, not only at the defining module.

A span is (id, name, start, end, parent id, run id).  Spans stay in memory
and are written out by ``write``.  A few wrappers also record counters (mask
sizes, solve steps, bytes saved); the time spent on those is removed from the
span clock, so it shows in no layer's self time, only in the traced run's
wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

import numpy as np

MODULES = ("grid", "regions", "norms", "solver", "estimates", "registry",
           "picard", "cli")

ESTIMATE_CHECKS = ("check_hardy", "check_le", "check_mr", "check_newle",
                   "check_spacetime_ks", "check_second_derivative_ks")

# Layer (span name) -> the end-to-end metric its per-layer metrics should
# move, and the workloads that run it, where a change to it shows.  Every
# other workload should show no change.  The run output, the README and the
# self-tests all cite this one table.
ROUTES = {
    "regions.realize_mask": ("wall_s, peak_rss_mb", ["picard", "estimates"]),
    "norms.region_supsup": ("wall_s", ["picard", "estimates"]),
    "norms.m_functional": ("wall_s", ["picard"]),
    "norms.a_functional": ("wall_s", ["picard"]),
    "norms.spatial_l2": ("wall_s", ["picard", "estimates"]),
    "grid.derivative": ("wall_s", ["picard", "estimates"]),
    "grid.quotient_by_r": ("wall_s", ["picard", "estimates"]),
    "solver.solve": ("wall_s", ["decay", "picard"]),
    "solver.SolutionHistory.save": ("wall_s", ["picard"]),
    **{f"estimates.{c}": ("wall_s", ["estimates"]) for c in ESTIMATE_CHECKS},
    "registry.build": ("wall_s", ["estimates"]),
    "picard.run_iteration": ("wall_s", ["picard"]),
    "cli.main": ("wall_s", ["picard", "decay"]),
}


class Tracer:
    """Span recorder for one traced run (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []
        self._hidden = 0.0  # counter bookkeeping time, removed from the clock
        self.mask_keys: list = []
        self.mask_bytes = 0
        self.mask_fill: list[float] = []
        self.solve_steps = 0
        self.solve_points = 0
        self.solve_support: list[float] = []
        self.saved_bytes = 0

    def _clock(self) -> float:
        return time.perf_counter() - self._hidden

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._clock()
                self._stack.pop()
                self.spans[sid] = (sid, name, start, end, parent, self.run_id)
            if after is not None:
                t0 = time.perf_counter()
                after(args, kwargs, result)
                self._hidden += time.perf_counter() - t0
            return result
        return wrapper

    # counter hooks: (args, kwargs, result) of the wrapped call
    def _after_realize_mask(self, args, kwargs, result):
        region, grid = args[0], args[1]
        smooth = args[2] if len(args) > 2 else kwargs.get("smooth", False)
        self.mask_keys.append((region, grid, bool(smooth)))
        self.mask_bytes += result.weights.nbytes

    def _after_region_supsup(self, args, kwargs, result):
        mask = args[1]
        self.mask_fill.append(np.count_nonzero(mask > 0) / mask.size)

    def _after_solve(self, args, kwargs, result):
        grid = args[1].grid
        steps = grid.nt - 1
        self.solve_steps += steps
        self.solve_points += grid.nr * steps
        support = np.asarray(result.diagnostics["support_radius"])
        self.solve_support.append(float(np.mean(support)) / grid.r_max)

    def _after_save(self, args, kwargs, result):
        with os.scandir(args[1]) as it:
            self.saved_bytes += sum(e.stat().st_size for e in it if e.is_file())

    def install(self) -> None:
        """Wrap the public functions of every radialwave module in place."""
        pkg = importlib.import_module("radialwave")
        mods = [importlib.import_module(f"radialwave.{m}") for m in MODULES]
        hooks = {
            "regions.realize_mask": self._after_realize_mask,
            "norms.region_supsup": self._after_region_supsup,
            "solver.solve": self._after_solve,
        }
        replace = {}
        for short, mod in zip(MODULES, mods):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    replace[id(obj)] = self._wrap(name, obj, hooks.get(name))
        for mod in [pkg, *mods]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])
        history = mods[MODULES.index("solver")].SolutionHistory
        history.save = self._wrap("solver.SolutionHistory.save", history.save,
                                  self._after_save)

    def self_times(self) -> dict:
        """name -> (calls, total inclusive seconds, total self seconds)."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = {}
        for sid, name, start, end, _, _ in self.spans:
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - child[sid])
        return out

    def metrics(self, traced_wall_s: float) -> dict:
        """Per-layer metrics of this run, except ``trace.overhead_s``, which
        needs the untraced runs.

        Every routed layer gets its self time twice: ``<layer>.self_s`` in
        seconds and ``<layer>.self_share``, the same time over the traced
        wall time.  A layer the workload never calls reads exactly 0 s on
        every run, so BENCHMARK.json lists the shares; seconds follow as
        share x ``trace.wall_s`` and are printed beside them.
        """
        st = self.self_times()

        def calls(name):
            return st.get(name, (0, 0.0, 0.0))[0]

        n_masks = len(self.mask_keys)
        solve_total = st.get("solver.solve", (0, 0.0, 0.0))[1]
        m = {
            "regions.realize_mask.calls": n_masks,
            "regions.realize_mask.mb_built": self.mask_bytes / 1e6,
            "regions.realize_mask.distinct_ratio":
                len(set(self.mask_keys)) / n_masks if n_masks else 0.0,
            "norms.region_supsup.calls": calls("norms.region_supsup"),
            "norms.region_supsup.fill_ratio":
                float(np.mean(self.mask_fill)) if self.mask_fill else 0.0,
            "grid.derivative.calls": calls("grid.derivative"),
            "solver.solve.steps": self.solve_steps,
            "solver.solve.point_steps": self.solve_points,
            "solver.solve.total_share": solve_total / traced_wall_s,
            "solver.solve.ns_per_point_step":
                1e9 * solve_total / self.solve_points if self.solve_points else 0.0,
            "solver.solve.support_fraction":
                float(np.mean(self.solve_support)) if self.solve_support else 0.0,
            "solver.SolutionHistory.save.mb": self.saved_bytes / 1e6,
            "trace.spans": len(self.spans),
            "trace.wall_s": traced_wall_s,
        }
        for layer in ROUTES:
            own = st.get(layer, (0, 0.0, 0.0))[2]
            m[f"{layer}.self_s"] = own
            m[f"{layer}.self_share"] = own / traced_wall_s
        return m

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("# id name start end parent run_id\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
