#!/usr/bin/env python3
"""Fork speed: wall time of the entry points that run part of their work in
forked processes, for this checkout and, with --against, another.

    python scripts/map_speed.py --against ../other-checkout --pairs 10

Jobs: a 4-point `threshold_bifurcation_sweep` (q_th = 25, 33, 41, 49 at
c = 100, tau = 1, 120 delays with 80 of transient: the fluid-bifurcation
benchmark's batch), a 9-config desk `run_batch` (RED (20, 60, 0.1),
q_th = 20 and drop-tail, each at 10, 50 and 200 ms; 10 flows, 10 Mb/s,
25 s), and three `fluid-sim` calls, whose CSV a writer process formats
while the integrator runs (the fluid-bifurcation benchmark's single phase
at the middle of its parameter draws: with averaging at tau = 0.171 and
gamma = 0.032 and 0.028, without averaging at tau = 0.27175 and
kappa = 1.02; c = 100, 150 delays of 200 steps). Each side is imported from
its own `src/` in this one process, the
other checkout under the package name `aqmlab_against`. For each pair the
two sides run in turn, in alternating order, and each run's wall time is
scaled to reference speed by a calibration loop timed just before and after
it (the loop and the scaling of `benchmark/run.py`).

Where /proc/self/stat is readable, each side's per-item function (the
module-level `fluid._sweep_point` and `packetsim.run_simulation`, which the
entry points look up at call time) is wrapped to read the CPU it runs on as
each item starts and ends, about 20 us per item; so is the writer's
`fluid._spool_csv`, where the side has one. Every run then prints one line:
its scaled time and, per worker or writer, the CPU its first item started on
and the CPU its last item ended on (`1>1 1>1`: both workers on CPU 1
throughout; `none`: no writer ran).

It prints, per job, each side's median scaled time and the median over the
pairs of the time ratio this / other (below 1: this checkout is faster), with
its quartiles. Both sides must return the same results, compared by repr (for
`fluid-sim`, the exit codes and the sha256 of each CSV); a difference is
reported, because a bit-identical change must not make one. Stdlib only.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import math
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CAL_STEPS = 10000
CAL_REFERENCE_S = 0.025
SIMS = [
    ["--system", "with-averaging", "--tau", "0.171", "--gamma", "0.032"],
    ["--system", "with-averaging", "--tau", "0.171", "--gamma", "0.028"],
    ["--system", "no-averaging", "--tau", "0.27175", "--kappa", "1.02", "--perturb", "1.02"],
]


def calibrate() -> float:
    """Seconds for the benchmark's fixed pure-Python loop."""
    t0 = time.perf_counter()
    y, h = (1.0, 0.5, 0.25), 1e-3
    for _ in range(CAL_STEPS):
        k1 = (y[1] - 0.1 * y[0], -y[0] * math.sin(y[2]), 0.3 * y[0] - y[2])
        z = tuple(a + 0.5 * h * b for a, b in zip(y, k1))
        k2 = (z[1] - 0.1 * z[0], -z[0] * math.sin(z[2]), 0.3 * z[0] - z[2])
        y = tuple(a + h * b for a, b in zip(y, k2))
    return time.perf_counter() - t0


def load(checkout: str, name: str):
    """The `fluid`, `packetsim`, `params` and `cli` modules of
    checkout/src/aqmlab, imported as the package `name`."""
    pkg = os.path.join(os.path.abspath(checkout), "src", "aqmlab")
    if not os.path.isfile(os.path.join(pkg, "workers.py")):
        sys.exit(f"no src/aqmlab/workers.py under {checkout}")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return tuple(importlib.import_module(f"{name}.{m}")
                 for m in ("fluid", "packetsim", "params", "cli"))


def cpu_now() -> int:
    """The CPU this process last ran on: field 39 of /proc/self/stat."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def placed(fn):
    """fn, returning (its result, (pid, CPU at start, CPU at end))."""
    def run(*args, **kwargs):
        start = cpu_now()
        out = fn(*args, **kwargs)
        return out, (os.getpid(), start, cpu_now())
    return run


def logged(fn, log):
    """fn, appending (pid, CPU at start, CPU at end) to the file log: for a
    function that runs in a writer process, which returns nothing here."""
    def run(*args, **kwargs):
        start = cpu_now()
        out = fn(*args, **kwargs)
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {start} {cpu_now()}\n")
        return out
    return run


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def jobs(fluid, ps, params, cli, watch: bool, work: str):
    """name -> a call returning (results, placements), on one side's modules;
    fluid-sim writes its CSVs and the writers' log under work."""
    log = os.path.join(work, "writers.log")
    if watch:
        fluid._sweep_point = placed(fluid._sweep_point)
        ps.run_simulation = placed(ps.run_simulation)
        if hasattr(fluid, "_spool_csv"):
            fluid._spool_csv = logged(fluid._spool_csv, log)
    spec = params.ProtocolSpec()
    net = params.NetworkParams(c_per_flow=100.0, rtt=1.0)
    configs = [
        ps.desk_config(policy, rtt, seed=10 + i, n_flows=10, capacity=10e6, duration=25.0)
        for i, (policy, rtt) in enumerate(
            (p, r) for p in (params.RedParams(20, 60, 0.1), params.ThresholdParams(q_th=20),
                             ps.DropTail())
            for r in (0.01, 0.05, 0.2))
    ]

    def split(out):
        return (out, []) if not watch else ([r for r, _ in out], [p for _, p in out])

    def sims():
        open(log, "w").close()
        results = []
        for i, flags in enumerate(SIMS):
            out = os.path.join(work, f"sim{i}.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["fluid-sim", "--c", "100", *flags, "--horizon", "150",
                                 "--transient", "100", "--steps-per-delay", "200",
                                 "--out", out])
            results.append((code, sha256(out)))
        with open(log) as fh:
            return results, [tuple(int(v) for v in line.split()) for line in fh]

    return {
        "sweep": lambda: split(fluid.threshold_bifurcation_sweep(
            spec, net, [25.0, 33.0, 41.0, 49.0], horizon_delays=120.0, transient_delays=80.0)),
        "batch": lambda: split(list(ps.run_batch(configs).values())),
        "fluid-sim": sims,
    }


def workers_cpus(placements) -> str:
    """'start>end' per worker, in the order the workers took their first item."""
    first, last = {}, {}
    for pid, start, end in placements:  # in item order, so in each worker's order
        first.setdefault(pid, start)
        last[pid] = end
    return " ".join(f"{first[pid]}>{last[pid]}" for pid in first) or "none"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="PATH",
                    help="another checkout to compare with (its src/aqmlab)")
    ap.add_argument("--pairs", type=int, default=10, help="runs per side and job")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    try:
        cpu_now()
        watch = True
    except (OSError, ValueError, IndexError):
        watch = False
    sides = {"this": load(os.path.join(HERE, ".."), "aqmlab")}
    if args.against:
        sides["other"] = load(args.against, "aqmlab_against")
    work = tempfile.mkdtemp(prefix="map_speed-")
    try:
        return run_pairs(args, sides, watch, work)
    finally:
        shutil.rmtree(work)


def run_pairs(args, sides, watch, work) -> int:
    built = {}
    for side, mods in sides.items():
        os.mkdir(os.path.join(work, side))
        built[side] = jobs(*mods, watch, os.path.join(work, side))

    mismatch = False
    summary = []
    for name in built["this"]:
        times = {side: [] for side in sides}
        digests = {}
        for i in range(args.pairs):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                before = calibrate()
                t0 = time.perf_counter()
                results, placements = built[side][name]()
                wall = time.perf_counter() - t0
                after = calibrate()
                seconds = wall * 2.0 * CAL_REFERENCE_S / (before + after)
                times[side].append(seconds)
                digests[side] = hashlib.sha256(repr(results).encode()).hexdigest()
                line = f"{name:<10}{side:>6}{seconds:>9.4f} s"
                if watch:
                    who = "writers" if name == "fluid-sim" else "workers"
                    line += f"  {who} {workers_cpus(placements)}"
                print(line, flush=True)
        line = f"{name:<10}{statistics.median(times['this']):>10.4f}"
        if args.against:
            ratios = sorted(a / b for a, b in zip(times["this"], times["other"]))
            q = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
            line += (f"{statistics.median(times['other']):>10.4f}"
                     f"{statistics.median(ratios):>8.3f}{q[0]:>7.3f}-{q[2]:.3f}")
            if digests["this"] != digests["other"]:
                mismatch = True
                line += "  results differ"
        summary.append(line)
    head = f"{'job':<10}{'this s':>10}"
    if args.against:
        head += f"{'other s':>10}{'ratio':>8}{'q1-q3':>14}"
    print("\n".join([head, *summary]))
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
