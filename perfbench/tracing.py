"""Spans around the package's public calls, recorded from outside it.

`Tracer.install()` wraps each function in `TARGETS` at every name a
caller looks it up by: `dipolemem.scenarios` imports its solvers by
name, so `scenarios.simulate_adiabatic` is wrapped as well as
`cavity.simulate_adiabatic`, and the depth sweep reaches
`freespace.numeric_evolution` through its own module.  Methods and
classes are wrapped on the class (`Schedule.eval`,
`FreeSpaceTransform.__init__`).  `uninstall()` puts the originals back.

A span is (name, start, end, parent, pass id, raised); spans stay in
memory until the run ends.  A span's self time is its duration minus
the time its child spans cover.  Work counts are taken at the same
boundaries from the arguments and results, so they repeat exactly.
`freespace.analytic_evolution.table_bytes` is the nbytes of the kernel
tables `entire_bessel_kernel` returns inside `analytic_evolution` plus
the e and s fields `analytic_evolution` returns.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _steps(name, _args, _kwargs, result, _parent) -> dict:
    return {f"{name}.steps": result.sigma.size - 1}


def _cells(name, _args, _kwargs, result, _parent) -> dict:
    return {f"{name}.cells": result.tau.size * result.z.size}


def _field_bytes(name, _args, _kwargs, result, _parent) -> dict:
    return {f"{name}.cells": result.tau.size * result.z.size,
            f"{name}.table_bytes": result.e.nbytes + result.s.nbytes}


def _kernel_evals(name, args, kwargs, result, parent) -> dict:
    out = {f"{name}.evals": int(np.size(args[0] if args else kwargs["a"]))}
    if parent == "freespace.analytic_evolution":
        # the kernel tables analytic_evolution builds are the ones it
        # gets back from here
        out[f"{parent}.table_bytes"] = int(np.asarray(result).nbytes)
    return out


def _samples(name, args, kwargs, _result, _parent) -> dict:
    return {f"{name}.samples":
            int(np.size(args[1] if len(args) > 1 else kwargs["t"]))}


# (module, public name, work counter or None); the span name is
# "<module>.<name>".  A counter gets (span name, args, kwargs, result,
# parent span name) and returns {metric name: count}.
TARGETS = (
    ("scenarios", "load_scenario", None),
    ("scenarios", "build_input", None),
    ("scenarios", "run_scenario", None),
    ("scenarios", "run_sweep", None),
    ("scenarios", "design_couplings", None),
    ("scenarios", "write_artifacts", None),
    ("scenarios", "builtin_verify", None),
    ("schedules", "Schedule.eval", _samples),
    ("schedules", "effective_time", None),
    ("cavity", "simulate_adiabatic", _steps),
    ("cavity", "simulate_full", _steps),
    ("cavity", "continuity_residual", None),
    ("control", "optimal_write_input", None),
    ("control", "synthesize_couplings", None),
    ("control", "variational_optimize", None),
    ("freespace", "FreeSpaceTransform", None),
    ("freespace", "numeric_evolution", _cells),
    ("freespace", "analytic_evolution", _field_bytes),
    ("freespace", "entire_bessel_kernel", _kernel_evals),
    ("freespace", "storage_retrieval_sweep", None),
    ("freespace", "reduced_continuity_residual", None),
)

SPAN_NAMES = tuple(f"{mod}.{name}" for mod, name, _c in TARGETS)

# work counts each target reports, for emitting zeros where a
# workload never calls it
COUNT_NAMES = (
    "schedules.Schedule.eval.samples",
    "cavity.simulate_adiabatic.steps",
    "cavity.simulate_full.steps",
    "freespace.numeric_evolution.cells",
    "freespace.analytic_evolution.cells",
    "freespace.analytic_evolution.table_bytes",
    "freespace.entire_bessel_kernel.evals",
)


class Tracer:
    """Span recorder; wrap the package with install() for one pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self.pass_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.pass_id,
                    False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counts = tracer.counts[tracer.pass_id]
                owner = tracer.spans[parent][0] if parent >= 0 else ""
                for key, value in counter(name, args, kwargs, result,
                                          owner).items():
                    counts[key] += value
            return result

        return traced

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items()
                if n == "dipolemem" or n.startswith("dipolemem.")}
        for mod_name, public, counter in TARGETS:
            owner = mods[f"dipolemem.{mod_name}"]
            name = f"{mod_name}.{public}"
            if "." in public:                     # a method
                cls_name, meth = public.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth),
                                                  counter))
                continue
            obj = getattr(owner, public)
            if isinstance(obj, type):             # a class: time construction
                self._patch(obj, "__init__",
                            self._wrap(name, obj.__init__, counter))
                continue
            wrapped = self._wrap(name, obj, counter)
            for mod in mods.values():
                if mod.__dict__.get(public) is obj:
                    self._patch(mod, public, wrapped)

    def _patch(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    # -- analysis -----------------------------------------------------------

    def pass_summary(self, pass_id: int) -> dict:
        """Per span name: calls, errors, busy_s and self_s in one pass,
        plus the pass's work counts and the sum of all self times."""
        idx = [i for i, s in enumerate(self.spans) if s[4] == pass_id]
        child_time = defaultdict(float)
        for i in idx:
            name, t0, t1, parent, _p, _err = self.spans[i]
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {n: {"calls": 0, "errors": 0, "busy_s": 0.0, "self_s": 0.0}
               for n in SPAN_NAMES}
        for i in idx:
            name, t0, t1, _parent, _p, err = self.spans[i]
            agg = out[name]
            agg["calls"] += 1
            agg["errors"] += int(err)
            agg["busy_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_time[i]
        counts = {n: 0 for n in COUNT_NAMES}
        counts.update(self.counts.get(pass_id, {}))
        return {"spans": out, "counts": counts,
                "self_sum_s": sum(a["self_s"] for a in out.values())}
