#!/usr/bin/env python3
"""Layer speed: work per second of each layer of aqmlab at fixed inputs, for
this checkout and, with --against, another one.

    python scripts/layer_speed.py --against ../other-checkout --pairs 10 --layer hopf

Layers (--layer, repeatable; default: all, in this order), with Compound TCP
and the default RED and threshold parameters unless stated:

  equilibrium   each system's equilibrium on GRID (c = 60..500, tau = 0.1..1):
                72 solves, 40 times over
  coefficients  linear_coefficients and crossover_frequency at those 72
                equilibria, 100 times over
  hopf          solve_hopf_boundary at c = 100 over DEFAULT_BRACKETS: tau for
                both RED systems, q_th at tau = 1; 50 times over
  chart         the stability-charts benchmark's four chart shapes at offset
                0.5 (tau over c and gamma, alpha over q_th); 4 times over
  normal-form   classify_at_hopf at c = 60, 100, 200, 500; 30 times over
  cli           the stability-charts benchmark's single-phase CLI mix: 150
                `aqmlab equilibrium` calls through cli.main, cycling the
                three systems over GRID, stdout captured and compared by
                sha256
  rk4           one 150-delay integrate_dde per system, 200 steps per delay,
                default_history, no CSV: at SIMS's first and last settings,
                and the threshold system at tau = 1, q_th = 41
  sweep         the fluid-bifurcation benchmark's batch: q_th = 25, 33, 41, 49
                at c = 100, tau = 1, 120 delays with 80 of transient
  fluid-sim     its single phase: the three `fluid-sim` calls of SIMS, 150
                delays of 200 steps; CSVs compared by sha256
  desk-red, desk-threshold, desk-droptail
                30 s of the desk dumbbell (20 flows, 25 Mb/s, 200 ms) under
                RED (50, 100, 0.1), q_th = 60 and drop-tail
  parking-lot   30 s of the two-hop parking lot with short flows, q_th = 15
  batch         a 9-config desk run_batch: RED (20, 60, 0.1), q_th = 20 and
                drop-tail at 10, 50 and 200 ms; 10 flows, 10 Mb/s, 25 s

Each side is imported from its own `src/` in this one process, the other as
the package `aqmlab_against`; a layer whose module or function the other
lacks is skipped. The sides run in turn, in alternating order, and each
run's wall time is scaled to reference speed by `benchmark/run.py`'s
calibration loop, timed just before and after it. Where /proc/self/stat is
readable, each run of a fork layer (sweep, fluid-sim, batch) prints, per
worker or writer, the CPU its first item started on and the CPU its last
ended on (`1>1 0>0`; `none`: no writer ran), logged by wrapping
`fluid._sweep_point`, `packetsim.run_simulation` and `fluid._spool_csv` for
those runs only. A writer's entry leads with the CPU its caller was on when
it called `fluid.stream_to_worker` (`1:0>0`), so a writer sharing its
caller's CPU shows.

Per layer it prints the work of one run, this side's median scaled time and
rate, and with --against the other side's rate and the median and quartiles
over the pairs of the time ratio this / other (below 1: this checkout is
faster). Every run of a layer, on either side, must give the same result,
compared by the sha256 of its repr; a difference is reported and the script
exits 1, because a bit-identical change must not make one. Stdlib only.
"""

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time
from functools import partial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRID = [(c, tau) for c in (60.0, 100.0, 150.0, 200.0, 300.0, 500.0)
        for tau in (0.1, 0.2, 0.5, 1.0)]
SIMS = [
    ["--system", "with-averaging", "--tau", "0.171", "--gamma", "0.032"],
    ["--system", "with-averaging", "--tau", "0.171", "--gamma", "0.028"],
    ["--system", "no-averaging", "--tau", "0.27175", "--kappa", "1.02", "--perturb", "1.02"],
]


def load(name: str, path: str, package: str | None = None):
    """The file path imported as the module name (a package in directory package)."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=package and [package])
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Side:
    """The aqmlab of one checkout's src/, imported as the package name; its
    modules are attributes, imported on first use."""

    def __init__(self, checkout: str, name: str):
        pkg = os.path.join(os.path.abspath(checkout), "src", "aqmlab")
        if not os.path.isfile(os.path.join(pkg, "__init__.py")):
            sys.exit(f"no src/aqmlab under {checkout}")
        self.name = load(name, os.path.join(pkg, "__init__.py"), pkg).__name__

    def __getattr__(self, module: str):
        return importlib.import_module(f"{self.name}.{module}")


def defaults(m: Side):
    return m.params.ProtocolSpec(), m.params.RedParams(), m.params.ThresholdParams()


def repeat(rounds: int, calls):
    """A job making every call rounds times; returns the last round's results."""
    def job():
        for _ in range(rounds):
            out = [f() for f in calls]
        return out, rounds * len(calls)
    return job


def grid_systems(m: Side):
    """(kind, net, equilibrium solve) for each system at each GRID point."""
    f, (spec, red, th), kinds, out = m.fluid, defaults(m), m.fluid.FluidSystemKind, []
    for net in (m.params.NetworkParams(c, tau) for c, tau in GRID):
        out += [(kinds.WITH_AVERAGING, net, partial(f.equilibrium_with_averaging, spec, red, net)),
                (kinds.NO_AVERAGING, net, partial(f.equilibrium_no_averaging, spec, red, net)),
                (kinds.THRESHOLD, net, partial(f.equilibrium_threshold, spec, net, th))]
    return out


def equilibrium(m, work):
    return repeat(40, [solve for _, _, solve in grid_systems(m)])


def coefficients(m, work):
    (spec, red, th), st = defaults(m), m.stability
    linear, crossover = st.linear_coefficients, st.crossover_frequency

    def evaluate(kind, net, eq):
        co = linear(kind, spec, net, eq, red=red, th=th)
        return co, crossover(kind, co)
    return repeat(100, [partial(evaluate, kind, net, solve())
                        for kind, net, solve in grid_systems(m)])


def hopf(m, work):
    (spec, red, th), kinds, st = defaults(m), m.fluid.FluidSystemKind, m.stability
    solve, brackets, net = st.solve_hopf_boundary, st.DEFAULT_BRACKETS, m.params.NetworkParams
    return repeat(50, [
        partial(solve, kinds.WITH_AVERAGING, "tau", brackets["tau"], spec, net(100.0, 0.1), red),
        partial(solve, kinds.NO_AVERAGING, "tau", brackets["tau"], spec, net(100.0, 0.1), red),
        partial(solve, kinds.THRESHOLD, "q_th", brackets["q_th"], spec, net(100.0, 1.0), th=th),
    ])


def chart(m, work):
    (spec, red, th), kinds = defaults(m), m.fluid.FluidSystemKind
    trace = m.stability.trace_stability_chart
    at_c, at_tau = m.params.NetworkParams(100.0, 0.1), m.params.NetworkParams(100.0, 1.0)

    def grid(lo, hi, n):  # as the CLI's --sweep lo:hi:n
        return [lo + i * ((hi - lo) / (n - 1)) for i in range(n)]
    return repeat(4, [
        partial(trace, kinds.WITH_AVERAGING, "c", grid(110, 510, 17), "tau", spec, at_c, red),
        partial(trace, kinds.WITH_AVERAGING, "gamma", grid(6e-4, 0.0505, 17), "tau", spec,
                at_c, red),
        partial(trace, kinds.NO_AVERAGING, "c", grid(110, 510, 17), "tau", spec, at_c, red),
        partial(trace, kinds.THRESHOLD, "q_th", grid(11, 101, 19), "alpha", spec, at_tau, th=th),
    ])


def normal_form(m, work):
    (spec, red, _), classify = defaults(m), m.normalform.classify_at_hopf
    return repeat(30, [partial(classify, spec, red, m.params.NetworkParams(c, 0.1))
                       for c in (60.0, 100.0, 200.0, 500.0)])


def cli(m, work):
    main, systems = m.cli.main, ("with-averaging", "no-averaging", "threshold")
    calls = [["equilibrium", "--system", system, "--c", repr(c), "--tau", repr(tau)]
             for c, tau in GRID for system in systems]

    def job():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [main(calls[i % len(calls)]) for i in range(150)]
        return (codes, hashlib.sha256(out.getvalue().encode()).hexdigest()), 150
    return job


def rk4(m, work):
    fluid, p, kinds = m.fluid, m.params, m.fluid.FluidSystemKind
    spec, red, th = p.ProtocolSpec(), p.RedParams(gamma=0.032), p.ThresholdParams(41.0)
    avg, noavg, thr = (p.NetworkParams(100.0, 0.171), p.NetworkParams(100.0, 0.27175, kappa=1.02),
                       p.NetworkParams(100.0, 1.0))
    runs = [(kinds.WITH_AVERAGING, avg, fluid.equilibrium_with_averaging(spec, red, avg)),
            (kinds.NO_AVERAGING, noavg, fluid.equilibrium_no_averaging(spec, red, noavg)),
            (kinds.THRESHOLD, thr, fluid.equilibrium_threshold(spec, thr, th))]
    integrate, history = fluid.integrate_dde, fluid.default_history

    def job():
        digests, steps = [], 0
        for kind, net, eq in runs:
            traj = integrate(kind, spec, net, red=red, th=th, initial_history=history(eq),
                             horizon=150 * net.rtt, steps_per_delay=200)
            columns = b"".join(c.tobytes() for c in traj.columns)
            digests.append(hashlib.sha256(columns).hexdigest())
            steps += len(traj) - 1
        return digests, steps
    return job


def fluid_sim(m, work):
    cli = m.cli

    def job():
        results = []
        for i, flags in enumerate(SIMS):
            out = os.path.join(work, f"sim{i}.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["fluid-sim", "--c", "100", *flags, "--horizon", "150",
                                 "--transient", "100", "--steps-per-delay", "200",
                                 "--out", out])
            with open(out, "rb") as fh:
                results.append((code, hashlib.sha256(fh.read()).hexdigest()))
        return results, len(SIMS)
    return job


def sweep(m, work):
    run = partial(m.fluid.threshold_bifurcation_sweep, m.params.ProtocolSpec(),
                  m.params.NetworkParams(100.0, 1.0), [25.0, 33.0, 41.0, 49.0],
                  horizon_delays=120.0, transient_delays=80.0)
    return lambda: (run(), 4)


def arrivals(metrics):
    return metrics, sum(c.arrivals for c in metrics.counters)


def desk(policy):
    """The builder of a 30 s desk run under policy(side)."""
    def build(m, work):
        config = m.packetsim.desk_config(policy(m), 0.2, seed=3, duration=30.0)
        return lambda: arrivals(m.packetsim.run_simulation(config))
    return build


def parking_lot(m, work):
    ps = m.packetsim
    flows = tuple(ps.FlowSpec("compound", 2e6, 0.05, start_time=0.5 * i, route=(0, 1))
                  for i in range(4)) + tuple(
        ps.FlowSpec("compound", 2e6, 0.05, start_time=0.3 * i, route=(1,)) for i in range(4))
    config = ps.SimConfig(
        topology="parking-lot", capacity=8e6, buffer=200, packet_size=1500, flows=flows,
        policy=m.params.ThresholdParams(q_th=15), duration=30.0, seed=3,
        short_flows=ps.ShortFlowProfile(rate_per_s=20.0, rtt_propagation=0.06, route=(0, 1)))
    return lambda: arrivals(ps.run_simulation(config))


def batch(m, work):
    ps = m.packetsim
    policies = (m.params.RedParams(20, 60, 0.1), m.params.ThresholdParams(q_th=20), ps.DropTail())
    configs = [ps.desk_config(policy, rtt, seed=10 + i, n_flows=10, capacity=10e6, duration=25.0)
               for i, (policy, rtt) in enumerate(
                   (p, r) for p in policies for r in (0.01, 0.05, 0.2))]
    return lambda: (list(ps.run_batch(configs).values()), len(configs))


# name -> (builder, unit of work, whether it forks)
LAYERS = {
    "equilibrium": (equilibrium, "solves", False),
    "coefficients": (coefficients, "evals", False),
    "hopf": (hopf, "points", False),
    "chart": (chart, "charts", False),
    "normal-form": (normal_form, "classifications", False),
    "cli": (cli, "calls", False),
    "rk4": (rk4, "steps", False),
    "sweep": (sweep, "points", True),
    "fluid-sim": (fluid_sim, "runs", True),
    "desk-red": (desk(lambda m: m.params.RedParams(50, 100, 0.1)), "arrivals", False),
    "desk-threshold": (desk(lambda m: m.params.ThresholdParams(q_th=60)), "arrivals", False),
    "desk-droptail": (desk(lambda m: m.packetsim.DropTail()), "arrivals", False),
    "parking-lot": (parking_lot, "arrivals", False),
    "batch": (batch, "runs", True),
}


def cpu_now() -> int | None:
    """The CPU this process last ran on, field 39 of /proc/self/stat; None
    where that is unreadable."""
    try:
        with open("/proc/self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def caller_logged(fn, log):
    """fn, appending `caller` and the CPU this process is on to the file log
    before each call."""
    def run(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"caller {cpu_now()}\n")
        return fn(*args, **kwargs)
    return run


def logged(fn, log):
    """fn, appending (pid, CPU at start, CPU at end) of each call to the file
    log, which any forked worker or writer can reach."""
    def run(*args, **kwargs):
        start = cpu_now()
        out = fn(*args, **kwargs)
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {start} {cpu_now()}\n")
        return out
    return run


@contextlib.contextmanager
def watching(sides, log):
    """Log the placement of each side's per-item functions of the fork
    layers while the block runs; the originals are back afterwards."""
    patched = [(owner, attr, wrap, getattr(owner, attr)) for m in sides
               for owner, attr, wrap in ((m.fluid, "_sweep_point", logged),
                                         (m.packetsim, "run_simulation", logged),
                                         (m.fluid, "_spool_csv", logged),
                                         (m.fluid, "stream_to_worker", caller_logged))
               if hasattr(owner, attr)]
    for owner, attr, wrap, original in patched:
        setattr(owner, attr, wrap(original, log))
    try:
        yield
    finally:
        for owner, attr, _, original in patched:
            setattr(owner, attr, original)


def placements(log) -> str:
    """'start>end' per process in the log, in the order each first finished
    an item; each process appends its own items in order. A process that
    finished its first item after a `caller` line gets that line's CPU and a
    colon in front."""
    first, last, caller = {}, {}, ""
    with open(log) as fh:
        for fields in map(str.split, fh):
            if fields[0] == "caller":
                caller = f"{fields[1]}:"
                continue
            pid, start, end = fields
            first.setdefault(pid, caller + start)
            last[pid] = end
    return " ".join(f"{first[pid]}>{last[pid]}" for pid in first) or "none"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="PATH",
                    help="another checkout to compare with (its src/aqmlab)")
    ap.add_argument("--pairs", type=int, default=10, help="runs per side and layer")
    ap.add_argument("--layer", action="append", choices=tuple(LAYERS),
                    help="a layer to time (repeatable; default: every layer)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = load("_benchmark_run", os.path.join(ROOT, "benchmark", "run.py"))
    sides = {"this": Side(ROOT, "aqmlab")}
    if args.against:
        sides["other"] = Side(args.against, "aqmlab_against")
    with tempfile.TemporaryDirectory(prefix="layer_speed-") as work:
        for side in sides:
            os.mkdir(os.path.join(work, side))
        return run_layers(args, bench, sides, work)


def run_layers(args, bench, sides, work) -> int:
    watch = cpu_now() is not None
    log = os.path.join(work, "placements.log")
    head = f"{'layer':<16}{'work':>24}{'this s':>9}{'this /s':>12}"
    print(head + (f"{'other /s':>12}{'ratio':>8}{'q1-q3':>14}" if args.against else ""))
    mismatch = False
    for name in dict.fromkeys(args.layer or LAYERS):
        build, unit, forks = LAYERS[name]
        jobs = {"this": build(sides["this"], os.path.join(work, "this"))}
        try:
            jobs.update((side, build(sides[side], os.path.join(work, side)))
                        for side in sides if side != "this")
        except (ImportError, AttributeError) as exc:
            print(f"{name:<16}skipped: the other checkout lacks it ({exc})", flush=True)
            continue
        times = {side: [] for side in sides}
        digests = set()
        watch_forks = forks and watch
        with watching(sides.values(), log) if watch_forks else contextlib.nullcontext():
            for i in range(args.pairs):
                for side in list(sides) if i % 2 == 0 else list(sides)[::-1]:
                    open(log, "w").close()
                    before = bench.calibrate()
                    t0 = time.perf_counter()
                    result, count = jobs[side]()
                    wall = time.perf_counter() - t0
                    times[side].append(bench.scaled((wall, before, bench.calibrate())))
                    digests.add(hashlib.sha256(repr(result).encode()).hexdigest())
                    if watch_forks:
                        print(f"  {name:<14}{side:>6}{times[side][-1]:>9.4f} s  "
                              f"{placements(log)}", flush=True)
        rate = {side: count / statistics.median(times[side]) for side in sides}
        line = (f"{name:<16}{f'{count} {unit}':>24}{statistics.median(times['this']):>9.4f}"
                f"{rate['this']:>12.0f}")
        if args.against:
            ratios = sorted(a / b for a, b in zip(times["this"], times["other"]))
            q = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
            line += (f"{rate['other']:>12.0f}"
                     f"{statistics.median(ratios):>8.3f}{q[0]:>7.3f}-{q[2]:.3f}")
        if len(digests) > 1:
            mismatch = True
            line += f"  results differ between runs: {len(digests)} distinct"
        print(line, flush=True)
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
