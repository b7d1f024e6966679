#!/usr/bin/env python3
"""aqmlab benchmark: one workload per process, measured from outside.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all            # each in its own process

Run from the root of a checkout; the program is imported from ``src/``.
The process repeats rounds of the workload (batch calls, then single calls,
each round on fresh inputs drawn from the seed) for ``--seconds`` and at
least three rounds, checks every operation's output, and prints one JSON
object as its last line of standard output.

--trace 0  end-to-end metrics: setup_s (fresh set-up-only processes, one
           after every round), batch_s and single_s (medians over rounds),
           ok_ratio and peak_rss_mb;
--trace 1  per-layer metrics from wrapped entry points (see tracing.py), per
           traced round, plus trace.overhead_ratio: rounds alternate between
           untraced and traced and the ratio compares their median times.

Times are given at a reference machine speed. The machine this was built on
is shared, and its speed for Python swings by up to 2x within a minute; so
a fixed pure-Python loop is timed just before and just after every timed
phase, and the phase's wall time is scaled by CAL_REFERENCE_S over the mean
of those two loop times. Raw wall-time medians go to the results file.

Spans and the environment are written under ``benchmark/.work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

clock = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")
NAMES = ("fluid-bifurcation", "packet-policies", "stability-charts")
MIN_ROUNDS = 3
CAL_STEPS = 10000
CAL_REFERENCE_S = 0.025
SETUP_PROBES = 5  # at least; one more after every untraced round
HARD_STOP_S = 140.0  # no new round after this, whatever --seconds says
CHILD_TIMEOUT_S = 175.0

UNITS = {"setup_s": "s", "batch_s": "s", "single_s": "s", "ok_ratio": "ratio",
         "peak_rss_mb": "MB"}


def import_program():
    """Put the checkout's src/ first on the path; refuse any other aqmlab."""
    if not os.path.isfile(os.path.join(SRC, "aqmlab", "__init__.py")):
        print(f"error: no aqmlab package under {SRC}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    import aqmlab

    if not os.path.abspath(aqmlab.__file__).startswith(SRC + os.sep):
        print(f"error: imported aqmlab from {aqmlab.__file__}", file=sys.stderr)
        sys.exit(2)


def setup(workload: str, seed: int):
    """Everything before the first timed call: imports, the workload's
    configuration and the reference outputs."""
    import_program()
    import workloads

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    wl = workloads.WORKLOADS[workload]
    ref = reference[workload] if seed == workloads.DEFAULT_SEED else None
    return wl, ref


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (float and tuple arithmetic, like
    the program's hot paths): how fast this machine runs Python right now.
    The loop is the benchmark's own code, so no change to the program moves
    it."""
    t0 = clock()
    y, h = (1.0, 0.5, 0.25), 1e-3
    for _ in range(CAL_STEPS):
        k1 = (y[1] - 0.1 * y[0], -y[0] * math.sin(y[2]), 0.3 * y[0] - y[2])
        z = tuple(a + 0.5 * h * b for a, b in zip(y, k1))
        k2 = (z[1] - 0.1 * z[0], -z[0] * math.sin(z[2]), 0.3 * z[0] - z[2])
        y = tuple(a + h * b for a, b in zip(y, k2))
    return clock() - t0


def setup_probe(workload: str, seed: int):
    """Sample of a fresh process that only sets up. No timeout: with one,
    Popen.wait polls in sleeps of up to 50 ms, which would quantise the time."""
    before = calibrate()
    t0 = clock()
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        check=True, stdout=subprocess.DEVNULL,
    )
    wall = clock() - t0
    return wall, before, calibrate()


def scaled(sample) -> float:
    """Wall time at reference speed."""
    wall, before, after = sample
    return wall * 2.0 * CAL_REFERENCE_S / (before + after)


def measure(wl, ref, seed: int, seconds: float, trace: bool):
    from tracing import Tracer
    from workloads import Checker, check_calls, round_rng, run_calls

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_ROOT)
    tracer = Tracer() if trace else None
    checker = Checker(None)
    # samples are (wall seconds, calibration before, calibration after)
    rounds = []  # (traced, batch sample, single sample)
    setups = []  # one set-up probe after each untraced round
    start = clock()
    try:
        index = 0
        while True:
            traced = trace and index % 2 == 1
            rdir = os.path.join(work, f"round{index}")
            os.makedirs(rdir)
            batch, single = wl.calls(round_rng(wl.name, seed, index), rdir)
            if traced:
                tracer.install()
            try:
                c0 = calibrate()
                t0 = clock()
                run_calls(batch, tracer if traced else None)
                t1 = clock()
                c1 = calibrate()
                if traced:
                    tracer.end_phase("batch")
                t1b = clock()
                run_calls(single, tracer if traced else None)
                t2 = clock()
                c2 = calibrate()
                if traced:
                    tracer.end_phase("single")
            finally:
                if traced:
                    tracer.remove()
            checker.reference = ref if index == 0 else None
            check_calls(batch + single, checker)
            shutil.rmtree(rdir)
            rounds.append((traced, (t1 - t0, c0, c1), (t2 - t1b, c1, c2)))
            if not trace:
                setups.append(setup_probe(wl.name, seed))
            index += 1
            elapsed = clock() - start
            n_plain = sum(not r[0] for r in rounds)
            enough = (n_plain >= 1 and len(rounds) - n_plain >= 1) if trace \
                else n_plain >= MIN_ROUNDS
            # stop where the run ends nearest to --seconds
            if elapsed >= HARD_STOP_S or (enough and elapsed + 0.5 * elapsed / index > seconds):
                break
        while not trace and len(setups) < SETUP_PROBES:
            setups.append(setup_probe(wl.name, seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rounds, setups, checker, tracer


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "revision": git_revision(),
        "seed": seed,
        "loadavg_1m_start": os.getloadavg()[0],
    }


def git_revision() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_one(args) -> int:
    wl, ref = setup(args.workload, args.seed)
    if args.setup_only:
        os._exit(0)  # skip interpreter teardown: set-up ends at the first call
    env = environment(args.seed)
    rounds, setups, checker, tracer = measure(wl, ref, args.seed, args.seconds, args.trace)
    plain = [r for r in rounds if not r[0]]
    if args.trace:
        traced = [r for r in rounds if r[0]]
        metrics = tracer.metrics(len(traced))
        ratio = statistics.median(scaled(b) + scaled(s) for _, b, s in traced) / \
            statistics.median(scaled(b) + scaled(s) for _, b, s in plain)
        metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    else:
        values = {
            "setup_s": statistics.median(scaled(p) for p in setups),
            "batch_s": statistics.median(scaled(b) for _, b, _ in plain),
            "single_s": statistics.median(scaled(s) for _, _, s in plain),
            "ok_ratio": (checker.attempted - checker.failed) / checker.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        env["wall_medians_s"] = {
            "setup_s": statistics.median(p[0] for p in setups),
            "batch_s": statistics.median(b[0] for _, b, _ in plain),
            "single_s": statistics.median(s[0] for _, _, s in plain),
        }
    env["loadavg_1m_end"] = os.getloadavg()[0]
    env["rounds"] = [[int(t), b, s] for t, b, s in rounds]  # traced, batch, single
    env["traced_rounds"] = sum(r[0] for r in rounds)
    env["setup_probes"] = setups

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    record = {"workload": args.workload, "trace": int(args.trace), "env": env, **result}
    os.makedirs(WORK_ROOT, exist_ok=True)
    with open(os.path.join(WORK_ROOT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if tracer is not None:
        path = os.path.join(WORK_ROOT, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "operation"],
                       "spans": tracer.spans, "operations": tracer.operation_keys}, fh)

    for line in checker.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    shown = {k: v for k, v in env.items() if k not in ("rounds", "setup_probes")}
    print(f"# {args.workload}  env {json.dumps(shown)}, rounds {len(rounds)}")
    print(f"# operations {checker.attempted}, failed {checker.failed}, "
          f"fail_ratio {checker.failed / checker.attempted:.6g}")
    if tracer is not None:
        for phase, layers in tracer.phase_self.items():
            top = sorted(layers.items(), key=lambda kv: -kv[1])[:4]
            print(f"# {phase} calls, largest self time per traced round: " + ", ".join(
                f"{k} {v / max(env['traced_rounds'], 1):.3g} s" for k, v in top))
    for name, m in metrics.items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"# {name:32s} {value:>14s} {m['unit']}  {m.get('absent', '')}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(int(args.trace))],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
