"""The three benchmark workloads and the checks on their outputs.

Each workload builds one round of calls from a random generator seeded by
(workload, seed, round), so no two operations in a run share inputs. A round
has batch calls (one call covers many parameter points) and single calls
(one point per call); the two are timed apart. Every call goes through a
public entry point: a documented ``aqmlab`` subcommand via ``aqmlab.cli.main``
or a public module function.

An operation is one sweep point, chart point, packet run or CLI call. After
the timed part of a round, each operation is checked against invariants
that hold for any seed and, for round 0 of the default seed, against the
reference outputs recorded in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random

import numpy as np

import aqmlab.cli
import aqmlab.fluid
import aqmlab.packetsim
import aqmlab.stability
from aqmlab.fluid import FluidSystemKind
from aqmlab.packetsim import (
    DropTail,
    FlowSpec,
    PacketRed,
    PacketThreshold,
    ShortFlowProfile,
    SimConfig,
    config_digest,
    desk_config,
)
from aqmlab.params import NetworkParams, ProtocolSpec, RedParams

DEFAULT_SEED = 1
REL_TOL = 1e-9

# Paper anchors (acceptance criteria 01-04): critical delays within +-3 %,
# critical drop threshold within [38, 40].
TAU_C_AVG = 0.0848
TAU_C_AVG_GAMMA_003 = 0.171
TAU_C_NO_AVG = 0.273
QTH_C_RANGE = (38.0, 40.0)


class Call:
    """One timed call: ``run`` does the work, ``check`` inspects what it left."""

    def __init__(self, key, run, check, path=None):
        self.key = key
        self.run = run
        self.check = check
        self.path = path  # output file, when a later call reads it
        self.result = None


class Checker:
    """Counts operations and failures; compares observations to a reference."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.observed: dict = {}

    def op(self, key: str, problems: list[str], observed: dict | None = None):
        self.attempted += 1
        if observed is not None:
            self.observed[key] = observed
            if self.reference is not None:
                problems = problems + _compare(self.reference.get(key), observed)
        if problems:
            self.failed += 1
            self.failures.append(f"{key}: {'; '.join(problems)}")


def _close(a, b) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, (int, float)):
        return _close(a, b)
    return a == b


def _compare(expected, observed) -> list[str]:
    if expected is None:
        return ["no reference recorded"]
    problems = []
    for name in sorted(set(expected) | set(observed)):
        e, o = expected.get(name), observed.get(name)
        if isinstance(e, list) and isinstance(o, list) and len(e) == len(o):
            ok = all(_same(a, b) for a, b in zip(e, o))
        else:
            ok = _same(e, o)
        if not ok:
            problems.append(f"{name} = {o!r}, reference {e!r}")
    return problems


class CliResult:
    def __init__(self, code, out, err):
        self.code = code
        self.out = out
        self.err = err


def cli(args) -> CliResult:
    """aqmlab.cli.main with its output captured; a raise becomes a result."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = aqmlab.cli.main([str(a) for a in args])
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a raise is a failed operation
            code = None
            err.write(f"raised {type(exc).__name__}: {exc}")
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_problems(res: CliResult) -> list[str]:
    if res is None:
        return ["not run"]
    if res.code != 0:
        return [f"exit code {res.code}: {res.err.strip()[-200:]}"]
    return []


def _read_csv(path):
    """Header and numeric rows of a CSV file, or None when it is missing."""
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    except OSError:
        return None
    return header, rows


def _num(text):
    return float(text) if text != "" else None


def _file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:32]


def _amplitude(x):
    return float(x.max() - x.min()) if len(x) else 0.0


# -- fluid-bifurcation -------------------------------------------------------

FLUID_STEPS_PER_DELAY = 200  # the integrator's minimum


class FluidBifurcation:
    """Method-of-steps integrator: the threshold-policy bifurcation diagram
    (batch) and three single trajectories written to CSV (single)."""

    name = "fluid-bifurcation"
    sweep_points = 4
    sweep_horizon, sweep_transient = 120, 80  # in delays
    sim_horizon = 150  # in delays

    def calls(self, rng: random.Random, work: str):
        batch, single = [], []
        # four q_th points, two on each side of q_th,c ~ 38.8 and at least two
        # packets from it, so the short transient still reads as settled/cycling
        start = 25.0 + 2.0 * rng.random()
        stop = start + 8.0 * (self.sweep_points - 1)
        out = os.path.join(work, "bifurcation.csv")
        args = ["bifurcation-diagram", "--sweep", f"qth={start!r}:{stop!r}:{self.sweep_points}",
                "--c", "100", "--tau", "1", "--horizon", self.sweep_horizon,
                "--transient", self.sweep_transient, "--out", out]
        step = (stop - start) / (self.sweep_points - 1)  # as the CLI spaces it
        grid = [start + i * step for i in range(self.sweep_points)]
        batch.append(Call("bifurcation", lambda: cli(args),
                          lambda res, chk: self._check_sweep(res, chk, out, grid)))

        cases = [
            # (key, system, extra flags, expected behaviour)
            ("settle", "with-averaging",
             ["--tau", "0.171", "--gamma", 0.032 + 4e-4 * (rng.random() - 0.5)], "decays"),
            ("cycle", "with-averaging",
             ["--tau", "0.171", "--gamma", 0.028 + 4e-4 * (rng.random() - 0.5)], "grows"),
            # 1.02 kappa_c past the instantaneous-feedback Hopf point
            ("kappa", "no-averaging",
             ["--tau", "0.27175", "--kappa", 1.02 * (1.0 + 4e-3 * (rng.random() - 0.5)),
              "--perturb", "1.02"], "grows"),
        ]
        for key, system, flags, expect in cases:
            path = os.path.join(work, f"{key}.csv")
            args_k = ["fluid-sim", "--system", system, "--c", "100", *flags,
                      "--horizon", self.sim_horizon,
                      "--transient", self.sim_horizon - 50,
                      "--steps-per-delay", FLUID_STEPS_PER_DELAY, "--out", path]
            single.append(Call(
                f"fluid-sim:{key}", (lambda a=args_k: cli(a)),
                (lambda res, chk, k=key, p=path, e=expect, a=args_k:
                 self._check_sim(res, chk, k, p, e, a)),
            ))
        return batch, single

    def _check_sweep(self, res, chk, path, grid):
        base = _cli_problems(res)
        table = None if base else _read_csv(path)
        rows = {}
        if table is not None:
            for r in table[1]:
                rows[round(float(r[0]), 6)] = r
        amps = []
        for i, q in enumerate(grid):
            key = f"bifurcation[{i}]"
            row = rows.get(round(q, 6))
            if base or row is None:
                chk.op(key, base or [f"q_th={q:g} missing from {os.path.basename(path)}"])
                continue
            vals = [_num(v) for v in row]
            problems = []
            if not all(v is None or math.isfinite(v) for v in vals):
                problems.append("non-finite value")
            amp = vals[4]
            if q < QTH_C_RANGE[0] and not amp < 0.1:
                problems.append(f"amplitude {amp:.3g} below q_th,c should be < 0.1")
            if q > QTH_C_RANGE[1]:
                if not amp > 0.5:
                    problems.append(f"amplitude {amp:.3g} above q_th,c should be > 0.5")
                if amps and not amp > amps[-1]:
                    problems.append("amplitude not increasing in q_th above q_th,c")
                amps.append(amp)
            chk.op(key, problems, {"qth": q, "row": vals})

    def _check_sim(self, res, chk, key, path, expect, args):
        problems = _cli_problems(res)
        if problems:
            chk.op(f"fluid-sim:{key}", problems)
            return
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            chk.op(f"fluid-sim:{key}", [f"unreadable trajectory: {exc}"])
            return
        n_expected = self.sim_horizon * FLUID_STEPS_PER_DELAY + 1
        problems = []
        if data.shape[0] != n_expected:
            problems.append(f"{data.shape[0]} samples, expected {n_expected}")
        if not np.isfinite(data).all():
            problems.append("non-finite state")
        w = data[:, 1]
        if (w <= 0).any() or (data[:, 2:] < 0).any():
            problems.append("state left its domain")
        third = len(w) // 3
        first, last = _amplitude(w[:third]), _amplitude(w[-third:])
        if expect == "decays" and not last < first:
            problems.append(f"amplitude {first:.4g} -> {last:.4g} should decay")
        if expect == "grows" and not last > first:
            problems.append(f"amplitude {first:.4g} -> {last:.4g} should grow")
        if not last < w.mean():
            problems.append("orbit is not small against the mean window")
        observed = {
            "args": [str(a) for a in args if not str(a).endswith(".csv")],
            "samples": int(data.shape[0]),
            "final": [float(v) for v in data[-1]],
            "mean": [float(v) for v in data.mean(axis=0)],
            "amplitude_first_last": [first, last],
        }
        chk.op(f"fluid-sim:{key}", problems, observed)


# -- packet-policies ---------------------------------------------------------

PACKET_FIELDS = (
    "config_seed", "transient", "sample_times", "queue_len", "queue_avg",
    "utilization_pct", "windows", "throughput_bps", "loss_pct", "afct",
    "completions", "flow_starts", "sync_index", "mean_queueing_delay",
)
COUNTER_FIELDS = (
    "arrivals", "drops", "served", "final_occupancy", "sojourn_sum", "sojourn_count",
)


def metrics_digest(m) -> str:
    """Exact digest of the Metrics fields that exist at the benchmark's
    creation; fields added later do not change it."""
    parts = [repr(getattr(m, f)) for f in PACKET_FIELDS]
    parts += [repr([getattr(q, f) for f in COUNTER_FIELDS]) for q in m.counters]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:32]


class PacketPolicies:
    """Packet simulator hot loop: one run_batch over nine configs (batch)
    and one long desk-scale RED run through the CLI (single)."""

    name = "packet-policies"

    def configs(self, rng: random.Random):
        base = rng.randrange(1, 2**30)
        red = PacketRed(b_min=20, b_max=60, p_max=0.1)
        out = []
        for i, (policy, rtt) in enumerate(
            (p, r) for p in (red, PacketThreshold(q_th=20), DropTail()) for r in (0.01, 0.2)
        ):
            name = f"{type(policy).__name__}-{int(rtt * 1e3)}ms"
            out.append((name, desk_config(policy, rtt, seed=base + i, n_flows=10,
                                          capacity=10e6, duration=25.0)))
        # two hops (route.index on every departure) plus Poisson flow churn
        flows = tuple(
            FlowSpec("compound", 2e6, 0.05, start_time=0.5 * i, route=(0, 1))
            for i in range(4)
        ) + tuple(
            FlowSpec("compound", 2e6, 0.05, start_time=0.3 * i, route=(1,))
            for i in range(4)
        )
        out.append(("parking-lot", SimConfig(
            topology="parking-lot", capacity=8e6, buffer=200, packet_size=1500,
            flows=flows, policy=PacketThreshold(q_th=15), duration=30.0, seed=base + 6,
            short_flows=ShortFlowProfile(rate_per_s=20.0, rtt_propagation=0.06,
                                         route=(0, 1)),
        )))
        # sized flows run to completion instead of to a time limit
        for j, policy in enumerate(
            (PacketThreshold(q_th=15), PacketRed(b_min=8, b_max=15, p_max=0.1, w_q=1.2e-4))
        ):
            out.append((f"sized-{type(policy).__name__}", desk_config(
                policy, 0.05, seed=base + 7 + j, n_flows=8, capacity=10e6,
                bytes_to_send=2_000_000, duration=400.0, overload=1.4,
            )))
        return out

    def calls(self, rng: random.Random, work: str):
        named = self.configs(rng)
        configs = [cfg for _, cfg in named]
        batch = [Call("run_batch", lambda: aqmlab.packetsim.run_batch(configs),
                      lambda res, chk: self._check_batch(res, chk, named))]
        seed = rng.randrange(1, 2**30)
        outdir = os.path.join(work, "desk-red-200ms")
        args = ["packet-sim", "--policy", "red", "--rtt-ms", "200", "--seed", seed,
                "--out", outdir]
        single = [Call("packet-sim", lambda: cli(args),
                       lambda res, chk: self._check_cli(res, chk, outdir, seed))]
        return batch, single

    def _check_batch(self, res, chk, named):
        for name, cfg in named:
            key = f"run_batch:{name}"
            m = res.get((config_digest(cfg), cfg.seed)) if isinstance(res, dict) else None
            if m is None:
                chk.op(key, [f"run missing from the batch result ({res!r:.200})"])
                continue
            problems = []
            for i, q in enumerate(m.counters):
                if q.arrivals != q.served + q.drops + q.final_occupancy:
                    problems.append(f"queue {i}: arrivals {q.arrivals} != served "
                                    f"{q.served} + drops {q.drops} + left {q.final_occupancy}")
            if isinstance(cfg.policy, PacketThreshold):
                peak = max(max(q) for q in m.queue_len)
                if peak > cfg.policy.q_th:
                    problems.append(f"threshold queue reached {peak} > q_th")
            if cfg.run_to_completion and m.afct is None:
                problems.append("sized flows did not complete")
            if not (m.throughput_bps > 0 and 0 <= m.loss_pct <= 100):
                problems.append("throughput or loss out of range")
            chk.op(key, problems, {"seed": cfg.seed, "digest": metrics_digest(m)})

    def _check_cli(self, res, chk, outdir, seed):
        problems = _cli_problems(res)
        names = ("queue.csv", "flows.csv", "util.csv", "summary.csv")
        paths = [os.path.join(outdir, n) for n in names]
        if problems or not all(os.path.isfile(p) for p in paths):
            chk.op("packet-sim", problems or ["output files missing"])
            return
        _, rows = _read_csv(paths[3])
        summary = [_num(v) for v in rows[0]] if rows else []
        if not summary or not all(v is None or math.isfinite(v) for v in summary):
            problems.append("summary.csv incomplete or non-finite")
        queue = _read_csv(paths[0])[1]
        if len(queue) < 1000:
            problems.append(f"queue.csv has {len(queue)} samples")
        chk.op("packet-sim", problems, {"seed": seed, "digest": _file_digest(paths)})


# -- stability-charts --------------------------------------------------------

SPEC = ProtocolSpec.compound_tcp()
RED = RedParams()


class StabilityCharts:
    """Hopf/normal-form algebra: four boundary charts (batch); anchor points,
    the root-counting oracle, classifications and equilibria (single)."""

    name = "stability-charts"
    n_classify = 10
    n_equilibrium = 150

    def calls(self, rng: random.Random, work: str):
        batch, single = [], []
        u = [rng.random() for _ in range(4)]
        charts = [
            ("avg-c", ["--system", "with-averaging", "--solve", "tau"],
             "c", 100 + 20 * u[0], 500 + 20 * u[0], 17),
            ("avg-gamma", ["--system", "with-averaging", "--solve", "tau", "--c", "100"],
             "gamma", 1e-4 + 1e-3 * u[1], 0.05 + 1e-3 * u[1], 17),
            ("noavg-c", ["--system", "no-averaging", "--solve", "tau"],
             "c", 100 + 20 * u[2], 500 + 20 * u[2], 17),
            ("threshold-qth", ["--system", "threshold", "--solve", "alpha", "--tau", "1"],
             "qth", 10 + 2 * u[3], 100 + 2 * u[3], 19),
        ]
        for key, flags, x, lo, hi, n in charts:
            batch.append(self._chart(work, key, flags, x, lo, hi, n))

        # anchors: one-point charts at per-flow capacity 100 (+-0.01 %)
        anchors = [
            ("anchor:tau_c-avg", ["--system", "with-averaging", "--solve", "tau"],
             TAU_C_AVG),
            ("anchor:tau_c-avg-gamma0.03",
             ["--system", "with-averaging", "--solve", "tau", "--gamma", "0.03"],
             TAU_C_AVG_GAMMA_003),
            ("anchor:tau_c-noavg", ["--system", "no-averaging", "--solve", "tau"],
             TAU_C_NO_AVG),
            ("anchor:qth_c", ["--system", "threshold", "--solve", "q_th", "--tau", "1"],
             QTH_C_RANGE),
        ]
        for key, flags, target in anchors:
            c = 100.0 * (1.0 + 1e-4 * (2.0 * rng.random() - 1.0))
            single.append(self._chart(work, key, flags, "c", c, c, 1, target))

        # right-half-plane root counts at 0.97 and 1.03 of this round's tau_c
        noavg_anchor = single[2]
        for factor in (0.97, 1.03):
            single.append(Call(
                f"roots@{factor}",
                (lambda f=factor, a=noavg_anchor: self._count_roots(a, f)),
                (lambda res, chk, f=factor: self._check_roots(res, chk, f)),
            ))

        for i in range(self.n_classify):
            c = 60.0 + 440.0 * rng.random()
            path = os.path.join(work, f"classify{i}.json")
            args = ["hopf-classify", "--c", repr(c), "--out", path]
            single.append(Call(f"hopf-classify[{i}]", (lambda a=args: cli(a)),
                               (lambda res, chk, k=i, p=path, a=args:
                                self._check_classify(res, chk, k, p, a))))

        systems = ("with-averaging", "no-averaging", "threshold")
        for i in range(self.n_equilibrium):
            system = systems[i % 3]
            if system == "threshold":
                params = ["--c", repr(50 + 450 * rng.random()),
                          "--tau", repr(0.5 + 1.5 * rng.random()),
                          "--qth", repr(10 + 90 * rng.random())]
            else:
                params = ["--c", repr(50 + 450 * rng.random()),
                          "--tau", repr(0.05 + 0.25 * rng.random())]
            args = ["equilibrium", "--system", system, *params]
            single.append(Call(f"equilibrium[{i}]", (lambda a=args: cli(a)),
                               (lambda res, chk, k=i, a=args:
                                self._check_equilibrium(res, chk, k, a))))
        return batch, single

    def _chart(self, work, key, flags, x, lo, hi, n, anchor=None):
        path = os.path.join(work, key.replace(":", "_") + ".csv")
        args = ["stability-chart", *flags, "--sweep", f"{x}={lo!r}:{hi!r}:{n}", "--out", path]
        step = (hi - lo) / (n - 1) if n > 1 else 0.0
        grid = [lo + i * step for i in range(n)]
        return Call(key, lambda: cli(args),
                    lambda res, chk: self._check_chart(res, chk, key, path, grid, anchor),
                    path)

    def _check_chart(self, res, chk, key, path, grid, anchor):
        base = _cli_problems(res)
        table = None if base else _read_csv(path)
        rows = {}
        if table is not None:
            for r in table[1]:
                rows[round(float(r[1]), 9)] = r
        for i, x in enumerate(grid):
            op = key if len(grid) == 1 else f"{key}[{i}]"
            # chart_to_csv drops failed points without notice: missing = failed
            row = rows.get(round(float(f"{x:.12g}"), 9))
            if base or row is None:
                chk.op(op, base or [f"point {x:.6g} missing from the chart CSV"])
                continue
            y, omega, trans = float(row[3]), float(row[4]), float(row[6])
            problems = []
            if not (math.isfinite(y) and y > 0 and omega > 0):
                problems.append(f"bad boundary point y={y} omega={omega}")
            if not trans > 0:
                problems.append(f"crossing speed {trans} not positive")
            if isinstance(anchor, tuple):
                if not anchor[0] <= y <= anchor[1]:
                    problems.append(f"{y:.4g} outside paper range {anchor}")
            elif anchor is not None and abs(y - anchor) > 0.03 * anchor:
                problems.append(f"{y:.4g} not within 3% of paper value {anchor}")
            chk.op(op, problems, {"x": x, "y": y, "omega": omega, "transversality": trans})

    def _count_roots(self, anchor_call, factor):
        res = anchor_call.result
        if res is None or res.code != 0:
            raise RuntimeError("tau_c anchor failed")
        _, rows = _read_csv(anchor_call.path)
        c, tau_c = float(rows[0][1]), float(rows[0][3])
        net = NetworkParams(c_per_flow=c, rtt=factor * tau_c)
        eq = aqmlab.fluid.equilibrium_no_averaging(SPEC, RED, net)
        kind = FluidSystemKind.NO_AVERAGING
        co = aqmlab.stability.linear_coefficients(kind, SPEC, net, eq, red=RED)
        return aqmlab.stability.count_unstable_roots(kind, co, net.rtt)

    def _check_roots(self, res, chk, factor):
        key = f"roots@{factor}"
        if not isinstance(res, int):
            chk.op(key, [f"oracle failed: {res!r:.200}"])
            return
        ok = res == 0 if factor < 1 else res >= 2
        chk.op(key, [] if ok else [f"{res} right-half-plane roots at {factor} tau_c"],
               {"roots": res})

    def _check_classify(self, res, chk, i, path, args):
        key = f"hopf-classify[{i}]"
        problems = _cli_problems(res)
        report = None
        if not problems:
            try:
                with open(path) as fh:
                    report = json.load(fh)
            except (OSError, ValueError) as exc:
                problems = [f"unreadable report: {exc}"]
        if report is None:
            chk.op(key, problems)
            return
        if report.get("type") != "supercritical" or report.get("orbit") != "orbitally-stable":
            problems.append(f"classified {report.get('type')}/{report.get('orbit')}")
        if not abs(report.get("kappa_c", 0.0) - 1.0) < 1e-9:
            problems.append(f"kappa_c {report.get('kappa_c')} at tau_c should be 1")
        numbers = {k: float(v) for k, v in report.items() if isinstance(v, (int, float))}
        chk.op(key, problems, {"args": args[:3], **numbers,
                               "type": report.get("type"), "orbit": report.get("orbit")})

    def _check_equilibrium(self, res, chk, i, args):
        key = f"equilibrium[{i}]"
        problems = _cli_problems(res)
        if problems:
            chk.op(key, problems)
            return
        fields = {}
        for line in res.out.splitlines():
            name, _, value = line.partition(" = ")
            fields[name.strip()] = value.strip()
        try:
            w, p = float(fields["w_star"]), float(fields["p_star"])
            residual = float(fields["residual"])
            q = float(fields["q_star"]) if "q_star" in fields else None
        except (KeyError, ValueError):
            chk.op(key, [f"unparsable output {res.out!r:.200}"])
            return
        if not residual < 1e-9:
            problems.append(f"residual {residual:.3g} >= 1e-9")
        if not (w > 0 and 0 < p < 1):
            problems.append(f"w*={w} p*={p} out of range")
        observed = {"args": args[1:], "w_star": w, "p_star": p}
        if q is not None:
            observed["q_star"] = q
        chk.op(key, problems, observed)


WORKLOADS = {w.name: w for w in (FluidBifurcation(), PacketPolicies(), StabilityCharts())}


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def run_calls(calls, tracer=None) -> None:
    for call in calls:
        if tracer is not None:
            tracer.operation += 1
            tracer.operation_keys[tracer.operation] = call.key
        try:
            call.result = call.run()
        except Exception as exc:  # noqa: BLE001 - a raise is a failed operation
            call.result = exc


def first_round(name: str, work: str) -> list:
    """Run round 0 of a workload at the default seed, untimed; its calls."""
    batch, single = WORKLOADS[name].calls(round_rng(name, DEFAULT_SEED, 0), work)
    run_calls(batch + single)
    return batch + single


def check_calls(calls, checker: Checker) -> None:
    for call in calls:
        call.check(call.result, checker)
