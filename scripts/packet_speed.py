#!/usr/bin/env python3
"""Packet-simulator speed per policy and topology: arrivals per second of one
run, for this checkout and, with --against, another one.

    python scripts/packet_speed.py --against ../other-checkout --pairs 20

Scenarios: the desk dumbbell (20 Compound flows, 25 Mb/s, 200 ms) under RED
(50, 100, 0.1), the threshold policy (q_th = 60) and drop-tail, and the
two-hop parking lot with Poisson short flows. Each side is imported from its
own `src/` in this one process, the other checkout under the package name
`aqmlab_against`, so both run on the same interpreter. For each pair the two
sides run in turn, in alternating order, and each run's wall time is scaled
to reference speed by a calibration loop timed just before and after it
(the loop and the scaling of `benchmark/run.py`), so that a slower spell of
the machine counts against neither side.

It prints, per scenario, each side's arrivals/s at its median scaled time
and the median over the pairs of the time ratio this / other (below 1: this
checkout is faster). Every run of a scenario, on either side, must give the
same `Metrics`, compared by repr; a difference is reported and the script
exits 1, because a bit-identical change must not make one. Stdlib only.
"""

import argparse
import importlib.util
import math
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DURATION_S = 30.0  # simulated seconds per run: about 0.2 s of work each
CAL_STEPS = 10000
CAL_REFERENCE_S = 0.025


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
    """The `packetsim` and `params` modules of checkout/src/aqmlab, imported
    as the package `name`."""
    pkg = os.path.join(os.path.abspath(checkout), "src", "aqmlab")
    if not os.path.isfile(os.path.join(pkg, "packetsim.py")):
        sys.exit(f"no src/aqmlab/packetsim.py under {checkout}")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return (importlib.import_module(f"{name}.packetsim"),
            importlib.import_module(f"{name}.params"))


def scenarios(ps, params):
    """name -> SimConfig, built from one side's own types."""
    out = {
        f"desk-{name}": ps.desk_config(policy, 0.2, seed=3, duration=DURATION_S)
        for name, policy in (("red", params.RedParams(50, 100, 0.1)),
                             ("threshold", params.ThresholdParams(q_th=60)),
                             ("droptail", ps.DropTail()))
    }
    flows = tuple(
        ps.FlowSpec("compound", 2e6, 0.05, start_time=0.5 * i, route=(0, 1))
        for i in range(4)
    ) + tuple(
        ps.FlowSpec("compound", 2e6, 0.05, start_time=0.3 * i, route=(1,))
        for i in range(4)
    )
    out["parking-lot"] = ps.SimConfig(
        topology="parking-lot", capacity=8e6, buffer=200, packet_size=1500,
        flows=flows, policy=params.ThresholdParams(q_th=15), duration=DURATION_S, seed=3,
        short_flows=ps.ShortFlowProfile(rate_per_s=20.0, rtt_propagation=0.06, route=(0, 1)),
    )
    return out


def timed(ps, cfg):
    """(scaled seconds, Metrics) of one run."""
    before = calibrate()
    t0 = time.perf_counter()
    m = ps.run_simulation(cfg)
    wall = time.perf_counter() - t0
    after = calibrate()
    return wall * 2.0 * CAL_REFERENCE_S / (before + after), m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="PATH",
                    help="another checkout to compare with (its src/aqmlab)")
    ap.add_argument("--pairs", type=int, default=20, help="runs per side and scenario")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"this": load(os.path.join(HERE, ".."), "aqmlab")}
    if args.against:
        sides["other"] = load(args.against, "aqmlab_against")
    built = {side: scenarios(*mods) for side, mods in sides.items()}

    head = f"{'scenario':<16}{'arrivals':>10}{'this /s':>12}"
    if args.against:
        head += f"{'other /s':>12}{'ratio':>8}{'q1-q3':>14}"
    print(head)
    mismatch = False
    for name in built["this"]:
        times = {side: [] for side in sides}
        arrivals = {}
        results = set()  # repr of every run's Metrics
        for i in range(args.pairs):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                seconds, m = timed(sides[side][0], built[side][name])
                times[side].append(seconds)
                arrivals[side] = sum(c.arrivals for c in m.counters)
                results.add(repr(m))
        rate = {side: arrivals[side] / statistics.median(times[side]) for side in sides}
        line = f"{name:<16}{arrivals['this']:>10}{rate['this']:>12.0f}"
        if args.against:
            ratios = sorted(a / b for a, b in zip(times["this"], times["other"]))
            q = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
            line += (f"{rate['other']:>12.0f}"
                     f"{statistics.median(ratios):>8.3f}{q[0]:>7.3f}-{q[2]:.3f}")
        if len(results) > 1:
            mismatch = True
            line += f"  Metrics differ between runs: {len(results)} distinct"
        print(line, flush=True)
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
