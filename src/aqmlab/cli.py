"""Command-line front end: reproducible experiments emitting CSV data files.

Subcommands: equilibrium, stability-chart, hopf-classify, fluid-sim,
bifurcation-diagram, packet-sim, compare-policies. Exit codes: 0 success,
1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from functools import cache, partial

from .errors import (
    ConfigError,
    ConvergenceError,
    DegeneratePointError,
    DomainError,
    IntegrationError,
    InternalConsistencyError,
    usage_errors,
)
from .fluid import (
    HISTORY_SCALE,
    MIN_STEPS_PER_DELAY,
    MIN_WINDOW_SAMPLES,
    STEPS_PER_DELAY,
    SWEEP_HORIZON_DELAYS,
    SWEEP_TRANSIENT_DELAYS,
    FluidSystemKind,
    default_history,
    equilibrium_no_averaging,
    equilibrium_threshold,
    equilibrium_with_averaging,
    integrate_dde,
    oscillation_metrics,
    post_transient_samples,
    threshold_bifurcation_sweep,
)
from .normalform import TAU_BRACKET, classification_report, classify_at_hopf
from .packetsim import (
    DESK_DURATION_S,
    DropTail,
    compute_afct,
    config_digest,
    desk_config,
    paper_config,
    parse_scenario,
    run_batch,
    run_simulation,
    write_metrics_csv,
)
from .params import NetworkParams, ProtocolSpec, RedParams, ThresholdParams
from .stability import DEFAULT_BRACKETS, chart_to_csv, trace_stability_chart

_KINDS = {
    "with-averaging": FluidSystemKind.WITH_AVERAGING,
    "no-averaging": FluidSystemKind.NO_AVERAGING,
    "threshold": FluidSystemKind.THRESHOLD,
}

def _parse_sweep(text: str):
    """name=start:stop:count -> (name, [values])."""
    try:
        name, rng = text.split("=", 1)
        start_s, stop_s, count_s = rng.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"sweep must look like name=start:stop:count, got {text!r}"
        ) from None
    if count < 1:
        raise argparse.ArgumentTypeError("sweep count must be >= 1")
    if count == 1:
        return name.strip(), [start]
    step = (stop - start) / (count - 1)
    return name.strip(), [start + i * step for i in range(count)]


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be integers, got {text!r}") from None


def _fluid_params(args):
    """(spec, red, th, net) from the options of _add_common. A value outside
    its domain is a usage error (exit 2); a DomainError raised later, by a
    computation, is a numerical failure (exit 1)."""
    with usage_errors():
        return (
            ProtocolSpec.compound_tcp(alpha=args.alpha, k=args.k, beta=args.beta),
            RedParams(
                gamma=args.gamma, b_min=args.b_min, b_max=args.b_max, p_max=args.p_max
            ),
            ThresholdParams(args.qth),
            NetworkParams(c_per_flow=args.c, rtt=args.tau, kappa=args.kappa),
        )


def _write_params_sidecar(args, path_hint: str | None, **resolved):
    """Under --profile paper, record every option the run resolved, one
    `key = value` per line, in params.txt next to the output. `resolved`
    adds values the command settled itself, such as a scenario's seed."""
    if args.profile != "paper":
        return
    out = path_hint or "params.txt"
    base = os.path.dirname(out) or "."
    side = os.path.join(base, "params.txt")
    with open(side, "w") as fh:
        for key, val in {**vars(args), **resolved}.items():
            if key == "func" or val is None:
                continue
            if key == "sweep":
                name, xs = val
                val = f"{name}={xs[0]!r}:{xs[-1]!r}:{len(xs)}"
            fh.write(f"{key} = {val}\n")


def _add_common(p, tau_default):
    spec, red, th = ProtocolSpec(), RedParams(), ThresholdParams()
    p.add_argument("--c", type=float, default=100.0, help="per-flow capacity, pkts/s")
    p.add_argument("--tau", type=float, default=tau_default, help="round-trip time, s")
    p.add_argument("--alpha", type=float, default=spec.alpha)
    p.add_argument("--k", type=float, default=spec.k)
    p.add_argument("--beta", type=float, default=spec.beta)
    p.add_argument("--gamma", type=float, default=red.gamma)
    p.add_argument("--b-min", type=float, default=red.b_min)
    p.add_argument("--b-max", type=float, default=red.b_max)
    p.add_argument("--p-max", type=float, default=red.p_max)
    p.add_argument("--qth", type=float, default=th.q_th)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--profile", choices=("desk", "paper"), default="desk")


def _equilibrium(kind, spec, red, th, net):
    if kind is FluidSystemKind.THRESHOLD:
        return equilibrium_threshold(spec, net, th)
    if kind is FluidSystemKind.NO_AVERAGING:
        return equilibrium_no_averaging(spec, red, net)
    return equilibrium_with_averaging(spec, red, net)


def _cmd_equilibrium(args) -> int:
    eq = _equilibrium(_KINDS[args.system], *_fluid_params(args))
    print(f"w_star = {eq.w_star:.12g}")
    if eq.q_star is not None:
        print(f"q_star = {eq.q_star:.12g}")
    print(f"p_star = {eq.p_star:.12g}")
    print(f"residual = {eq.residual:.3e}")
    print(f"in_band = {eq.in_band}")
    if eq.wk1_closed_form is not None:
        print(f"wk1_closed_form = {eq.wk1_closed_form:.12g}")
    _write_params_sidecar(args, args.out)
    return 0


_SWEEP_ALIASES = {"qth": "q_th", "bmin": "b_min", "bmax": "b_max", "pmax": "p_max"}
# the parameters each system reads, the only ones a chart may sweep or solve for
_SHARED = ("tau", "c", "kappa", "alpha", "k", "beta")
_CHART_PARAMS = {
    "with-averaging": (*_SHARED, "gamma", "b_min", "b_max", "p_max"),
    "no-averaging": (*_SHARED, "b_min", "b_max", "p_max"),  # no averaging weight
    "threshold": (*_SHARED, "q_th"),
}


def _cmd_stability_chart(args) -> int:
    kind = _KINDS[args.system]
    given, values = args.sweep
    name = _SWEEP_ALIASES.get(given, given)
    accepted = _CHART_PARAMS[args.system]
    for option, value, param in (("--sweep", given, name), ("--solve", args.solve, args.solve)):
        if param not in accepted:
            raise ConfigError(f"{option} {value!r} is not one of {', '.join(accepted)}")
    if name == args.solve:
        raise ConfigError(f"--sweep and --solve both name {args.solve!r}")
    spec, red, th, net = _fluid_params(args)
    points = trace_stability_chart(kind, name, values, args.solve, spec, net, red=red, th=th)
    failures = [p for p in points if p.error is not None]
    out = args.out or "chart.csv"
    chart_to_csv(points, out)
    print(f"wrote {len(points) - len(failures)} boundary points to {out}")
    for p in failures:
        print(f"failed at {p.x_param}={p.x_value:g}: {p.error}", file=sys.stderr)
    _write_params_sidecar(args, out)
    if len(failures) == len(points):
        return 1
    return 0


def _cmd_hopf_classify(args) -> int:
    if not 0 < args.tau_min < args.tau_max < math.inf:
        raise ConfigError(
            f"need 0 < --tau-min < --tau-max < inf, got {args.tau_min!r}, {args.tau_max!r}"
        )
    if args.at_tau is not None and not 0 < args.at_tau < math.inf:
        raise ConfigError(f"--at-tau must be positive and finite, got {args.at_tau!r}")
    spec, red, _, net = _fluid_params(args)
    result, _, _ = classify_at_hopf(
        spec, red, net, tau_c=args.at_tau, tau_bracket=(args.tau_min, args.tau_max)
    )
    report = classification_report(result)
    print(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
    _write_params_sidecar(args, args.out)
    return 0


def _check_run_length(args) -> None:
    """Refuse, before any integration, a --steps-per-delay below the
    integrator's floor, a --horizon that is not positive and finite or whose
    length in seconds (x --tau) or in steps (x --steps-per-delay) overflows,
    and a --transient that is not finite or leaves fewer post-transient
    samples than the oscillation metrics need."""
    if args.steps_per_delay < MIN_STEPS_PER_DELAY:
        raise ConfigError(f"--steps-per-delay must be at least {MIN_STEPS_PER_DELAY}, "
                          f"got {args.steps_per_delay}")
    if not 0 < args.horizon < math.inf:
        raise ConfigError(f"--horizon must be positive and finite, got {args.horizon!r}")
    if not all(math.isfinite(args.horizon * x) for x in (args.tau, args.steps_per_delay)):
        raise ConfigError(f"--horizon {args.horizon!r} overflows in seconds or in steps")
    if not math.isfinite(args.transient) or args.transient >= args.horizon:
        raise ConfigError(f"--transient must be finite and below --horizon "
                          f"{args.horizon!r}, got {args.transient!r}")
    kept = post_transient_samples(args.horizon * args.tau, args.transient * args.tau,
                                  args.tau, args.steps_per_delay)
    if kept is not None and kept < MIN_WINDOW_SAMPLES:
        raise ConfigError(f"--transient {args.transient!r} leaves {kept} samples before "
                          f"--horizon {args.horizon!r}; the oscillation metrics need "
                          f"{MIN_WINDOW_SAMPLES}")


def _cmd_fluid_sim(args) -> int:
    kind = _KINDS[args.system]
    spec, red, th, net = _fluid_params(args)
    _check_run_length(args)
    eq = _equilibrium(kind, spec, red, th, net)
    out = args.out or "trajectory.csv"
    traj = integrate_dde(
        kind, spec, net, red=red, th=th,
        initial_history=default_history(eq, args.perturb),
        horizon=args.horizon * net.rtt,
        steps_per_delay=args.steps_per_delay,
        csv_path=out,
    )
    metrics = oscillation_metrics(traj, args.transient * net.rtt)
    print(f"wrote {len(traj)} samples to {out}")
    print(
        f"post-transient: min={metrics.minimum:.6g} max={metrics.maximum:.6g} "
        f"amplitude={metrics.amplitude:.6g} period={metrics.period}"
    )
    _write_params_sidecar(args, out)
    return 0


def _cmd_bifurcation(args) -> int:
    name, values = args.sweep
    if name != "qth":
        raise ConfigError(f"bifurcation-diagram sweeps qth, not {name!r}")
    spec, _, _, net = _fluid_params(args)
    _check_run_length(args)
    with usage_errors():  # every sweep value, before the first integration
        for q_th in values:
            ThresholdParams(q_th)
    rows = threshold_bifurcation_sweep(
        spec, net, values,
        horizon_delays=args.horizon, transient_delays=args.transient,
        steps_per_delay=args.steps_per_delay,
    )
    out = args.out or "bifurcation.csv"
    with open(out, "w") as fh:
        fh.write("qth,w_star,minimum,maximum,amplitude,period\n")
        for q_th, eq, m in rows:
            period = f"{m.period:.12g}" if m.period is not None else ""
            fh.write(
                f"{q_th:.12g},{eq.w_star:.12g},{m.minimum:.12g},"
                f"{m.maximum:.12g},{m.amplitude:.12g},{period}\n"
            )
    print(f"wrote {len(rows)} sweep points to {out}")
    _write_params_sidecar(args, out)
    return 0


def _packet_policy(args, name):
    """The packet queue policy `name` from the options; a value outside its
    domain is a usage error (exit 2)."""
    with usage_errors():
        if name == "red":
            return RedParams(
                b_min=args.red_bmin, b_max=args.red_bmax, p_max=args.red_pmax,
                w_q=args.red_wq,
            )
        if name == "threshold":
            return ThresholdParams(args.qth)
    return DropTail()


def _cmd_packet_sim(args, replaced_by_scenario=()) -> int:
    if args.scenario:
        with open(args.scenario) as fh:
            cfg = parse_scenario(fh.read())
        cfg = replace(cfg, seed=args.seed if args.seed is not None else cfg.seed)
    else:
        builder = paper_config if args.profile == "paper" else desk_config
        seed = args.seed if args.seed is not None else 1
        cfg = builder(_packet_policy(args, args.policy), args.rtt_ms / 1e3, seed)
    metrics = run_simulation(cfg)
    outdir = args.out or "packet-sim-out"
    write_metrics_csv(metrics, outdir)
    print(f"wrote queue.csv, flows.csv, util.csv, summary.csv to {outdir}/")
    print(
        f"loss = {metrics.loss_pct:.3f}%  throughput = "
        f"{metrics.throughput_bps / 1e6:.3f} Mbps  "
        f"mean queueing delay = {metrics.mean_queueing_delay * 1e3:.3f} ms"
    )
    # a scenario file sets the policy and the flows itself, so the options
    # that would have built them are left out (None is not written)
    overridden = dict.fromkeys(replaced_by_scenario) if args.scenario else {}
    _write_params_sidecar(args, os.path.join(outdir, "x"), **overridden, seed=cfg.seed)
    return 0


def _cmd_compare(args) -> int:
    red, th = _packet_policy(args, "red"), _packet_policy(args, "threshold")
    runs = [
        (name, desk_config(
            pol, args.rtt_ms / 1e3, seed=seed,
            bytes_to_send=args.mb_per_flow * 1_000_000 if args.mb_per_flow else None,
            duration=args.duration, overload=args.overload,
        ))
        for seed in args.seeds
        for name, pol in (("red", red), ("threshold", th))
    ]
    results = run_batch([cfg for _, cfg in runs])
    rows = []
    for name, cfg in runs:
        m = results[(config_digest(cfg), cfg.seed)]
        afct = compute_afct(m) if args.mb_per_flow else None
        rows.append(
            (
                cfg.seed, name, m.loss_pct, m.throughput_bps / 1e6,
                m.mean_queueing_delay * 1e3,
                max(max(q) for q in m.queue_len), afct,
            )
        )
    out = args.out or "compare.csv"
    with open(out, "w") as fh:
        fh.write("seed,policy,loss_pct,throughput_mbps,mean_qd_ms,max_queue,afct_s\n")
        for r in rows:
            afct = f"{r[6]:.12g}" if r[6] is not None else ""
            fh.write(
                f"{r[0]},{r[1]},{r[2]:.12g},{r[3]:.12g},{r[4]:.12g},{r[5]},{afct}\n"
            )
    print(f"wrote {len(rows)} rows to {out}")
    for r in rows:
        afct = f" afct={r[6]:.1f}s" if r[6] is not None else ""
        print(
            f"seed {r[0]} {r[1]:>9}: loss={r[2]:.2f}% thr={r[3]:.2f}Mbps "
            f"qd={r[4]:.2f}ms maxq={r[5]}{afct}"
        )
    _write_params_sidecar(args, out)
    return 0


def build_parsers():
    """The top-level parser, and the parser of each subcommand by name."""
    ap = argparse.ArgumentParser(
        prog="aqmlab",
        description="Fluid-model stability analysis and packet-level "
        "simulation of TCP under RED and threshold queue policies",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equilibrium", help="print a fluid equilibrium")
    p.add_argument("--system", choices=sorted(_KINDS), required=True)
    _add_common(p, tau_default=0.1)
    p.set_defaults(func=_cmd_equilibrium)

    p = sub.add_parser("stability-chart", help="trace a Hopf boundary curve")
    p.add_argument("--system", choices=sorted(_KINDS), required=True)
    p.add_argument("--sweep", type=_parse_sweep, required=True,
                   metavar="name=start:stop:count")
    p.add_argument("--solve", required=True, choices=tuple(DEFAULT_BRACKETS))
    _add_common(p, tau_default=0.1)
    p.set_defaults(func=_cmd_stability_chart)

    p = sub.add_parser("hopf-classify", help="normal-form classification at the "
                       "instantaneous-feedback Hopf point")
    p.add_argument("--at-tau", type=float, default=None,
                   help="classify at this delay instead of solving for it")
    p.add_argument("--tau-min", type=float, default=TAU_BRACKET[0])
    p.add_argument("--tau-max", type=float, default=TAU_BRACKET[1])
    _add_common(p, tau_default=0.1)
    p.set_defaults(func=_cmd_hopf_classify)

    p = sub.add_parser("fluid-sim", help="integrate one fluid system")
    p.add_argument("--system", choices=sorted(_KINDS), required=True)
    p.add_argument("--horizon", type=float, default=300.0, help="in delays")
    p.add_argument("--transient", type=float, default=200.0, help="in delays")
    p.add_argument("--perturb", type=float, default=HISTORY_SCALE)
    p.add_argument("--steps-per-delay", type=int, default=STEPS_PER_DELAY)
    _add_common(p, tau_default=0.1)
    p.set_defaults(func=_cmd_fluid_sim)

    p = sub.add_parser("bifurcation-diagram", help="oscillation amplitude sweep")
    p.add_argument("--sweep", type=_parse_sweep, required=True,
                   metavar="qth=start:stop:count")
    p.add_argument("--horizon", type=float, default=SWEEP_HORIZON_DELAYS, help="in delays")
    p.add_argument("--transient", type=float, default=SWEEP_TRANSIENT_DELAYS, help="in delays")
    p.add_argument("--steps-per-delay", type=int, default=MIN_STEPS_PER_DELAY)
    _add_common(p, tau_default=1.0)
    p.set_defaults(func=_cmd_bifurcation)

    p = sub.add_parser("packet-sim", help="run the packet-level simulator")
    p.add_argument("--scenario", type=str, default=None,
                   help="flat key = value scenario file")
    g = p.add_argument_group("run options", "build the run when no "
                             "--scenario is given; a scenario file replaces them")
    red, th = RedParams(), ThresholdParams()
    run_options = (
        g.add_argument("--policy", choices=("red", "threshold", "droptail"),
                       default="red"),
        g.add_argument("--rtt-ms", type=float, default=10.0),
        g.add_argument("--red-bmin", type=float, default=red.b_min),
        # the desk profile's band, narrower than the fluid default of 550
        g.add_argument("--red-bmax", type=float, default=100.0),
        g.add_argument("--red-pmax", type=float, default=red.p_max),
        g.add_argument("--red-wq", type=float, default=red.w_q),
        g.add_argument("--qth", type=float, default=th.q_th),
    )
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--profile", choices=("desk", "paper"), default="desk")
    p.set_defaults(func=partial(
        _cmd_packet_sim, replaced_by_scenario=[a.dest for a in run_options]
    ))

    p = sub.add_parser("compare-policies", help="RED vs threshold at matched "
                       "desk-scale configurations")
    # acceptance criterion 11's setting: RED (8, 15, 0.1, 1.2e-4) against q_th = 15
    p.add_argument("--rtt-ms", type=float, default=150.0)
    p.add_argument("--red-bmin", type=float, default=8.0)
    p.add_argument("--red-bmax", type=float, default=15.0)
    p.add_argument("--red-pmax", type=float, default=0.1)
    p.add_argument("--red-wq", type=float, default=1.2e-4)
    p.add_argument("--qth", type=float, default=15.0)
    p.add_argument("--seeds", type=_parse_seeds, default="1,2,3")
    p.add_argument("--mb-per-flow", type=int, default=None)
    p.add_argument("--duration", type=float, default=DESK_DURATION_S)
    # criterion 11's overload, not desk_config's default of 1.2
    p.add_argument("--overload", type=float, default=1.4)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--profile", choices=("desk", "paper"), default="desk")
    p.set_defaults(func=_cmd_compare)
    return ap, sub.choices


@cache
def _parsers():
    """The parsers, built on the first call rather than at import: parsing
    keeps no state in them, and building them costs more than most commands."""
    return build_parsers()


def main(argv=None) -> int:
    """Run the command `argv` (default `sys.argv[1:]`) names; its exit code.

    A call whose first argument names a subcommand is parsed by that
    subcommand's parser alone, not by the top-level parser and then again by
    the subcommand's; any other call (no argument, `-h`, an unknown
    subcommand, an option before the subcommand) by the top-level parser.
    Help, usage and error messages read as they did with every call parsed
    twice.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    ap, subcommands = _parsers()
    if argv and argv[0] in subcommands:
        args, extra = subcommands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            ap.error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ConvergenceError, DegeneratePointError, IntegrationError,
            InternalConsistencyError) as exc:
        # an internal cross-check that fails is a numerical failure too
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        # invalid scenario content or parameter value is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
