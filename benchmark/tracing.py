"""Per-layer tracing from outside the program.

The tracer replaces public functions at the module attribute where their
caller looks them up (``aqmlab.stability.equilibrium_with_averaging`` is the
name ``stability._system_at`` calls, not ``aqmlab.fluid``'s) and puts the
originals back afterwards. Nothing inside ``src/`` is changed.

Three kinds of wrapper:

* span    -- one record (id, name, start, end, parent, operation id) per call,
             kept in memory; used at layer entry points;
* timed   -- calls and time only, no record; used for hot functions such as
             the protocol laws, which run hundreds of thousands of times;
* count   -- calls only (``bisect`` also counts evaluations of its function).

A span's or timed call's self time is its duration minus the time of the
spans and timed calls made inside it.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

_clock = time.perf_counter

# (module, attribute path, layer name, wrapper kind)
BINDINGS = [
    ("aqmlab.cli", "main", "cli", "span"),
    ("aqmlab.cli", "integrate_dde", "fluid.integrate", "span"),
    ("aqmlab.fluid", "integrate_dde", "fluid.integrate", "span"),
    ("aqmlab.fluid", "Trajectory.to_csv", "fluid.to_csv", "span"),
    ("aqmlab.cli", "oscillation_metrics", "fluid.oscillation", "span"),
    ("aqmlab.fluid", "oscillation_metrics", "fluid.oscillation", "span"),
    ("aqmlab.cli", "equilibrium_with_averaging", "fluid.equilibrium", "span"),
    ("aqmlab.cli", "equilibrium_no_averaging", "fluid.equilibrium", "span"),
    ("aqmlab.cli", "equilibrium_threshold", "fluid.equilibrium", "span"),
    ("aqmlab.fluid", "equilibrium_no_averaging", "fluid.equilibrium", "span"),
    ("aqmlab.fluid", "equilibrium_threshold", "fluid.equilibrium", "span"),
    ("aqmlab.stability", "equilibrium_with_averaging", "fluid.equilibrium", "span"),
    ("aqmlab.stability", "equilibrium_no_averaging", "fluid.equilibrium", "span"),
    ("aqmlab.stability", "equilibrium_threshold", "fluid.equilibrium", "span"),
    ("aqmlab.normalform", "equilibrium_no_averaging", "fluid.equilibrium", "span"),
    ("aqmlab.fluid", "bisect", "numerics.bisect", "bisect"),
    ("aqmlab.stability", "bisect", "numerics.bisect", "bisect"),
    ("aqmlab.fluid", "increase_rate", "protocols", "timed"),
    ("aqmlab.fluid", "decrease_rate", "protocols", "timed"),
    ("aqmlab.fluid", "threshold_drop_probability", "protocols", "timed"),
    ("aqmlab.stability", "increase_rate", "protocols", "timed"),
    ("aqmlab.stability", "decrease_rate", "protocols", "timed"),
    ("aqmlab.stability", "threshold_drop_derivative", "protocols", "timed"),
    ("aqmlab.normalform", "increase_rate", "protocols", "timed"),
    ("aqmlab.normalform", "decrease_rate", "protocols", "timed"),
    ("aqmlab.cli", "trace_stability_chart", "stability.chart", "span"),
    ("aqmlab.stability", "solve_hopf_boundary", "stability.hopf", "span"),
    ("aqmlab.normalform", "solve_hopf_boundary", "stability.hopf", "span"),
    ("aqmlab.stability", "hopf_phase_residual", "stability.residual", "count"),
    ("aqmlab.stability", "crossover_frequency", "stability.crossover", "timed"),
    ("aqmlab.normalform", "crossover_frequency", "stability.crossover", "timed"),
    ("aqmlab.stability", "count_unstable_roots", "stability.roots_oracle", "span"),
    ("aqmlab.cli", "classify_at_hopf", "normalform.classify", "span"),
    ("aqmlab.packetsim", "run_batch", "packetsim.batch", "span"),
    ("aqmlab.packetsim", "run_simulation", "packetsim.run", "span"),
    ("aqmlab.cli", "run_simulation", "packetsim.run", "span"),
    ("aqmlab.cli", "write_metrics_csv", "packetsim.write_csv", "span"),
]

# per-layer metric -> (unit, layers it is computed from)
METRICS = {
    "cli.calls": ("count", ["cli"]),
    "cli.self_s": ("s", ["cli"]),
    "fluid.integrate.calls": ("count", ["fluid.integrate"]),
    "fluid.integrate.self_s": ("s", ["fluid.integrate"]),
    "fluid.rk4_steps": ("count", ["fluid.integrate"]),
    "fluid.rk4_steps_per_s": ("1/s", ["fluid.integrate"]),
    "fluid.to_csv.self_s": ("s", ["fluid.to_csv"]),
    "fluid.oscillation.self_s": ("s", ["fluid.oscillation"]),
    "fluid.equilibrium.calls": ("count", ["fluid.equilibrium"]),
    "fluid.equilibrium.self_s": ("s", ["fluid.equilibrium"]),
    "numerics.bisect.calls": ("count", ["numerics.bisect"]),
    "numerics.bisect.evals": ("count", ["numerics.bisect"]),
    "numerics.evals_per_root": ("ratio", ["numerics.bisect"]),
    "protocols.calls": ("count", ["protocols"]),
    "protocols.self_s": ("s", ["protocols"]),
    "stability.hopf.calls": ("count", ["stability.hopf"]),
    "stability.hopf.self_s": ("s", ["stability.hopf"]),
    "stability.residual.calls": ("count", ["stability.residual"]),
    "stability.residuals_per_hopf": ("ratio", ["stability.residual", "stability.hopf"]),
    "stability.crossover.self_s": ("s", ["stability.crossover"]),
    "stability.chart.points": ("count", ["stability.chart"]),
    "stability.chart.failed": ("count", ["stability.chart"]),
    "stability.roots_oracle.self_s": ("s", ["stability.roots_oracle"]),
    "normalform.classify.calls": ("count", ["normalform.classify"]),
    "normalform.classify.self_s": ("s", ["normalform.classify"]),
    "packetsim.runs": ("count", ["packetsim.run"]),
    "packetsim.run.self_s": ("s", ["packetsim.run"]),
    "packetsim.arrivals": ("count", ["packetsim.run"]),
    "packetsim.arrivals_per_s": ("1/s", ["packetsim.run"]),
    "packetsim.drops": ("count", ["packetsim.run"]),
    "packetsim.admit_ratio": ("ratio", ["packetsim.run"]),
    "packetsim.write_csv.self_s": ("s", ["packetsim.write_csv"]),
}


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Spans and counters for one process; install() patches, remove() restores."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, operation id)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)  # work read off return values
        self.operation = 0
        self.operation_keys = {}  # operation id -> call key
        self.phase_self = {}  # phase -> layer -> self seconds, all traced rounds
        self._phase_mark = {}
        self._stack = [[0.0, None]]  # [child seconds, span id] per open frame
        self._patched = []  # (owner, attribute, original)
        self.missing = {}  # layer -> [unresolved bindings]

    # -- patching -------------------------------------------------------------
    def install(self):
        self.missing = {}
        for module, path, layer, kind in BINDINGS:
            owner, attr = self._resolve(module, path)
            if owner is None or not hasattr(owner, attr):
                self.missing.setdefault(layer, []).append(f"{module}.{path}")
                continue
            original = getattr(owner, attr)
            wrapper = getattr(self, "_" + kind)(layer, original)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def remove(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @staticmethod
    def _resolve(module, path):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None, None
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                return None, None
        return owner, attr

    # -- wrappers ---------------------------------------------------------------
    def _span(self, layer, fn):
        stack, spans, observe = self._stack, self.spans, self._observe

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, len(spans)]
            spans.append(None)
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                self.calls[layer] += 1
                self.total_s[layer] += duration
                self.self_s[layer] += duration - frame[0]
                spans[frame[1]] = (frame[1], layer, start, end, parent[1], self.operation)
            observe(layer, result)
            return result

        return wrapper

    def _timed(self, layer, fn):
        stack, calls, total, own = self._stack, self.calls, self.total_s, self.self_s

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                stack.pop()
                stack[-1][0] += duration
                calls[layer] += 1
                total[layer] += duration
                own[layer] += duration - frame[0]

        return wrapper

    def _count(self, layer, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bisect(self, layer, fn):
        calls, extra = self.calls, self.extra

        def wrapper(f, *args, **kwargs):
            calls[layer] += 1

            def counted(x):
                extra["bisect.evals"] += 1
                return f(x)

            return fn(counted, *args, **kwargs)

        return wrapper

    def _observe(self, layer, result):
        """Work counts read off the values a layer returns."""
        if layer == "fluid.integrate":
            self.extra["rk4_steps"] += len(result.times) - 1
        elif layer == "stability.chart":
            self.extra["chart.points"] += len(result)
            self.extra["chart.failed"] += sum(p.error is not None for p in result)
        elif layer == "packetsim.run":
            for q in result.counters:
                self.extra["arrivals"] += q.arrivals
                self.extra["drops"] += q.drops
                self.extra["served"] += q.served

    def end_phase(self, phase: str):
        """Attribute the self time accrued since the last call to ``phase``."""
        into = self.phase_self.setdefault(phase, defaultdict(float))
        for layer, seconds in self.self_s.items():
            into[layer] += seconds - self._phase_mark.get(layer, 0.0)
        self._phase_mark = dict(self.self_s)

    # -- results ----------------------------------------------------------------
    def metrics(self, rounds: int) -> dict:
        """Every per-layer metric, per traced round; ratios from the sums."""
        c, s, t, x = self.calls, self.self_s, self.total_s, self.extra
        per = 1.0 / max(rounds, 1)
        values = {
            "cli.calls": c["cli"] * per,
            "cli.self_s": s["cli"] * per,
            "fluid.integrate.calls": c["fluid.integrate"] * per,
            "fluid.integrate.self_s": s["fluid.integrate"] * per,
            "fluid.rk4_steps": x["rk4_steps"] * per,
            # inclusive time: the protocol laws are part of every RK4 step
            "fluid.rk4_steps_per_s": _ratio(x["rk4_steps"], t["fluid.integrate"]),
            "fluid.to_csv.self_s": s["fluid.to_csv"] * per,
            "fluid.oscillation.self_s": s["fluid.oscillation"] * per,
            "fluid.equilibrium.calls": c["fluid.equilibrium"] * per,
            "fluid.equilibrium.self_s": s["fluid.equilibrium"] * per,
            "numerics.bisect.calls": c["numerics.bisect"] * per,
            "numerics.bisect.evals": x["bisect.evals"] * per,
            "numerics.evals_per_root": _ratio(x["bisect.evals"], c["numerics.bisect"]),
            "protocols.calls": c["protocols"] * per,
            "protocols.self_s": s["protocols"] * per,
            "stability.hopf.calls": c["stability.hopf"] * per,
            "stability.hopf.self_s": s["stability.hopf"] * per,
            "stability.residual.calls": c["stability.residual"] * per,
            "stability.residuals_per_hopf": _ratio(
                c["stability.residual"], c["stability.hopf"]
            ),
            "stability.crossover.self_s": s["stability.crossover"] * per,
            "stability.chart.points": x["chart.points"] * per,
            "stability.chart.failed": x["chart.failed"] * per,
            "stability.roots_oracle.self_s": s["stability.roots_oracle"] * per,
            "normalform.classify.calls": c["normalform.classify"] * per,
            "normalform.classify.self_s": s["normalform.classify"] * per,
            "packetsim.runs": c["packetsim.run"] * per,
            "packetsim.run.self_s": s["packetsim.run"] * per,
            "packetsim.arrivals": x["arrivals"] * per,
            "packetsim.arrivals_per_s": _ratio(x["arrivals"], t["packetsim.run"]),
            "packetsim.drops": x["drops"] * per,
            "packetsim.admit_ratio": _ratio(x["served"], x["arrivals"]),
            "packetsim.write_csv.self_s": s["packetsim.write_csv"] * per,
        }
        out = {}
        for name, (unit, layers) in METRICS.items():
            gone = [b for layer in layers for b in self.missing.get(layer, [])]
            if gone:
                out[name] = {"value": None, "unit": unit,
                             "absent": "not found: " + ", ".join(gone)}
            else:
                out[name] = {"value": values[name], "unit": unit}
        return out
