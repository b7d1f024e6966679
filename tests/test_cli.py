import contextlib
import io
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aqmlab.cli
import aqmlab.fluid
import aqmlab.stability
from aqmlab.cli import main
from aqmlab.errors import InternalConsistencyError
from aqmlab.fluid import MAX_STEPS, OperatingRegionWarning
from aqmlab.packetsim import run_simulation
from aqmlab.params import ProtocolSpec, RedParams, ThresholdParams
from aqmlab.stability import DEFAULT_BRACKETS, _PARAM_SETTERS


def run(args):
    return main(args)


def _exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _quietly(argv):
    """main(argv) with its output and the out-of-band warning swallowed."""
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore", OperatingRegionWarning)
        return main(argv)


def test_equilibrium_prints_values(capsys):
    assert run(["equilibrium", "--system", "no-averaging",
                "--c", "100", "--tau", "0.273"]) == 0
    out = capsys.readouterr().out
    assert "w_star = 27.4088" in out
    assert "q_star" in out and "p_star" in out and "residual" in out


def test_equilibrium_threshold_reports_closed_form(capsys):
    assert run(["equilibrium", "--system", "threshold",
                "--c", "100", "--tau", "1", "--qth", "39"]) == 0
    out = capsys.readouterr().out
    assert "wk1_closed_form" in out


def test_usage_error_exit_code_two():
    with pytest.raises(SystemExit) as exc:
        run(["equilibrium", "--system", "no-averaging", "--bogus", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("option, value", [
    ("--tau", "-1"), ("--c", "0"), ("--alpha", "-1"), ("--k", "1.5"), ("--gamma", "2"),
    ("--tau", "inf"), ("--c", "inf"), ("--alpha", "inf"), ("--qth", "inf"),
    ("--b-max", "inf"), ("--kappa", "inf"), ("--at-tau", "inf"), ("--tau-max", "inf"),
])
def test_parameter_outside_domain_exit_code_two(option, value, capsys):
    # every fluid command validates every parameter, whichever system reads it
    argvs = [["hopf-classify", option, value]]
    if option not in ("--at-tau", "--tau-max"):
        argvs += [["equilibrium", "--system", system, option, value]
                  for system in ("with-averaging", "no-averaging", "threshold")]
    for argv in argvs:
        assert run(argv) == 2, argv
        assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["compare-policies", "--seeds", "x"],
    ["compare-policies", "--seeds", "1,,2"],
    ["hopf-classify", "--tau-min", "-1"],
    ["hopf-classify", "--at-tau", "-1"],
    ["hopf-classify", "--at-tau", "nan"],
    ["hopf-classify", "--tau-min", "5", "--tau-max", "1"],
    ["fluid-sim", "--system", "threshold", "--steps-per-delay", "199"],
    ["fluid-sim", "--system", "threshold", "--horizon", "4"],
    ["fluid-sim", "--system", "threshold", "--transient", "nan"],
    ["fluid-sim", "--system", "no-averaging", "--transient", "300"],
    ["bifurcation-diagram", "--sweep", "qth=20:20:1", "--steps-per-delay", "100"],
    ["bifurcation-diagram", "--sweep", "qth=20:20:1", "--horizon", "4"],
    ["bifurcation-diagram", "--sweep", "qth=20:20:1", "--transient", "inf"],
    *(["fluid-sim", "--system", "threshold", "--horizon", h] for h in ("-3", "0", "inf", "nan")),
    *(["bifurcation-diagram", "--sweep", "qth=20:20:1", "--horizon", h]
      for h in ("-3", "0", "inf", "nan")),
    # finite horizons whose length in seconds or in steps overflows
    ["fluid-sim", "--system", "threshold", "--tau", "5", "--horizon", "1e308"],
    ["fluid-sim", "--system", "threshold", "--tau", "0.5", "--horizon", "1e308"],
    ["bifurcation-diagram", "--sweep", "qth=20:20:1", "--tau", "5", "--horizon", "1e308"],
    # every sweep value is checked before the first one is integrated
    ["bifurcation-diagram", "--sweep", "qth=0:10:3", "--horizon", "10", "--transient", "5"],
    # a --transient that leaves fewer post-transient samples than the metrics need
    ["fluid-sim", "--system", "threshold", "--tau", "1", "--horizon", "1", "--transient", "0.99"],
    ["fluid-sim", "--system", "threshold", "--tau", "1", "--horizon", "1",
     "--transient", "0.966", "--steps-per-delay", "200"],
    ["bifurcation-diagram", "--sweep", "qth=20:30:2", "--tau", "1", "--horizon", "1",
     "--transient", "0.99"],
    # packet policy values outside the shared types' domains, refused before any run
    *([command, *option] for command in ("packet-sim", "compare-policies") for option in (
        ["--red-wq", "0"], ["--red-wq", "1.5"], ["--red-bmin", "200"], ["--red-pmax", "1"],
        ["--red-bmax", "inf"], ["--red-pmax", "1e-320"])),
    ["packet-sim", "--policy", "threshold", "--qth", "0.5"],
    ["compare-policies", "--qth", "0.5"],
], ids=" ".join)
def test_bad_argument_value_exit_code_two(argv, capsys):
    assert _exit_code(argv) == 2
    assert "error: " in capsys.readouterr().err


def test_transient_leaving_eight_samples_runs(tmp_path, capsys):
    # 8 grid nodes lie at or after 0.965 delays of a one-delay run: the fewest
    # the oscillation metrics take; 0.966 leaves 7 and is refused above
    out = tmp_path / "traj.csv"
    assert run(["fluid-sim", "--system", "threshold", "--tau", "1", "--horizon", "1",
                "--transient", "0.965", "--steps-per-delay", "200", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 201
    assert "post-transient: " in capsys.readouterr().out


def _no_b_min_below(b_max):
    return (f"failed at b_max={b_max}: no stability change for b_min in "
            f"{(1.0, math.nextafter(float(b_max), 0.0))}")


@pytest.mark.parametrize("argv, code, errors, solved", [
    (["--system", "with-averaging", "--sweep", "b_max=200:400:3"], 1,
     [_no_b_min_below(b) for b in (200, 300, 400)], []),
    (["--system", "no-averaging", "--tau", "0.2", "--sweep", "b_max=200:400:3"], 0,
     [_no_b_min_below(200)], ["55.2070297811", "155.207029781"]),
    (["--system", "no-averaging", "--b-min", "0.1", "--sweep", "b_max=0.5:0.5:1"], 1,
     ["failed at b_max=0.5: no b_min in (1.0, 500.0) keeps b_min < b_max"], []),
])
def test_b_min_chart_searches_below_b_max(argv, code, errors, solved, tmp_path, capsys):
    # each point's search in b_min stays strictly below its b_max, so a point
    # without a crossing there reports it instead of an invalid RedParams
    out = tmp_path / "chart.csv"
    assert run(["stability-chart", *argv, "--solve", "b_min", "--out", str(out)]) == code
    assert capsys.readouterr().err.splitlines() == errors
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[3] for r in rows] == solved


def test_stability_chart_solves_b_max(tmp_path):
    # --solve offers every name stability.DEFAULT_BRACKETS solves; argparse
    # used to refuse b_max and p_max
    assert set(DEFAULT_BRACKETS) >= {"b_max", "p_max"}
    out = tmp_path / "chart.csv"
    assert run(["stability-chart", "--system", "no-averaging", "--tau", "0.2",
                "--sweep", "b_min=100:300:3", "--solve", "b_max", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    # the boundary fixes the RED slope p_max / (b_max - b_min), so the
    # critical band width is the same at every b_min
    widths = [float(r[3]) - float(r[1]) for r in rows]
    assert len(widths) == 3
    assert widths == pytest.approx([widths[0]] * 3, rel=1e-9)


@pytest.mark.parametrize("system, sweep, solve, named", [
    ("with-averaging", "foo=1:2:2", "tau", "--sweep 'foo'"),
    ("threshold", "gamma=0.01:0.02:2", "tau", "--sweep 'gamma'"),
    ("threshold", "c=100:200:2", "gamma", "--solve 'gamma'"),
    ("with-averaging", "qth=10:20:2", "tau", "--sweep 'qth'"),
    ("no-averaging", "c=100:200:2", "gamma", "--solve 'gamma'"),
    ("with-averaging", "tau=0.1:0.2:2", "tau", "both name 'tau'"),
    ("threshold", "qth=10:20:2", "q_th", "both name 'q_th'"),
])
def test_stability_chart_rejects_names_the_system_lacks(
    system, sweep, solve, named, tmp_path, capsys
):
    out = tmp_path / "chart.csv"
    assert run(["stability-chart", "--system", system, "--sweep", sweep,
                "--solve", solve, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert named in err
    if "both" not in named:
        assert "is not one of tau, c, kappa, alpha, k, beta" in err
    assert not out.exists()


def test_packet_option_defaults_are_the_type_defaults():
    args = aqmlab.cli.build_parsers()[0].parse_args(["packet-sim"])
    assert aqmlab.cli._packet_policy(args, "red") == RedParams(b_max=100.0)
    assert aqmlab.cli._packet_policy(args, "threshold") == ThresholdParams()


@pytest.mark.parametrize("argv", [
    ["equilibrium", "--system", "with-averaging"],
    ["stability-chart", "--system", "threshold", "--sweep", "c=1:2:2", "--solve", "tau"],
    ["hopf-classify"],
    ["fluid-sim", "--system", "no-averaging"],
    ["bifurcation-diagram", "--sweep", "qth=1:2:2"],
], ids=lambda argv: argv[0])
def test_option_defaults_are_the_parameter_defaults(argv):
    args = aqmlab.cli.build_parsers()[0].parse_args(argv)
    spec, red, th, _ = aqmlab.cli._fluid_params(args)
    assert (spec, red, th) == (ProtocolSpec(), RedParams(), ThresholdParams())


# -- a subcommand's call is parsed by its own parser, as the top-level one would

_COMMON = ["--c", "120", "--tau", "0.2", "--alpha", "0.1", "--k", "0.7", "--beta", "0.4",
           "--gamma", "0.01", "--b-min", "10", "--b-max", "500", "--p-max", "0.2",
           "--qth", "30", "--kappa", "1.1", "--out", "x.csv", "--profile", "paper"]
_PACKET = ["--rtt-ms", "50", "--red-bmin", "20", "--red-bmax", "60", "--red-pmax", "0.2",
           "--red-wq", "0.01", "--qth", "25", "--out", "out", "--profile", "paper"]
_DISPATCHED = [
    ["equilibrium", "--system", "threshold"],
    ["equilibrium", "--system", "no-averaging", *_COMMON],
    ["equilibrium", "--system=with-averaging", "--c=150", "--b-max=400"],
    ["equilibrium", "--sys", "threshold", "--ta", "0.3", "--prof", "paper", "--b-mi", "5"],
    ["stability-chart", "--system", "threshold", "--sweep", "c=1:2:2", "--solve", "tau"],
    ["stability-chart", "--system", "with-averaging", "--sweep", "gamma=0.01:0.05:5",
     "--solve", "c", *_COMMON],
    ["stability-chart", "--system=no-averaging", "--sweep=c=100:500:17", "--solve=tau"],
    ["stability-chart", "--sys", "threshold", "--sw", "qth=10:100:19", "--so", "alpha"],
    ["hopf-classify"],
    ["hopf-classify", "--at-tau", "0.2", "--tau-min", "0.01", "--tau-max", "2", *_COMMON],
    ["hopf-classify", "--at-tau=0.2", "--c=80"],
    ["hopf-classify", "--at", "0.2", "--tau-mi", "0.01"],
    ["fluid-sim", "--system", "no-averaging"],
    ["fluid-sim", "--system", "threshold", "--horizon", "50", "--transient", "20",
     "--perturb", "1.1", "--steps-per-delay", "400", *_COMMON],
    ["fluid-sim", "--system=threshold", "--horizon=50"],
    ["fluid-sim", "--sys", "threshold", "--hor", "50", "--st", "300", "--per", "1.2"],
    ["bifurcation-diagram", "--sweep", "qth=1:2:2"],
    ["bifurcation-diagram", "--sweep", "qth=20:60:5", "--horizon", "100", "--transient",
     "50", "--steps-per-delay", "300", *_COMMON],
    ["bifurcation-diagram", "--sweep=qth=20:60:5", "--tau=1"],
    ["bifurcation-diagram", "--sw", "qth=20:60:5", "--tr", "50"],
    ["packet-sim"],
    ["packet-sim", "--scenario", "s.txt", "--policy", "threshold", "--seed", "4", *_PACKET],
    ["packet-sim", "--policy=droptail", "--rtt-ms=20", "--seed=2"],
    ["packet-sim", "--pol", "threshold", "--rtt", "20", "--red-bmi", "30", "--sc", "s.txt"],
    ["compare-policies"],
    ["compare-policies", "--seeds", "4,5", "--mb-per-flow", "20", "--duration", "10",
     "--overload", "1.2", *_PACKET],
    ["compare-policies", "--seeds=7", "--rtt-ms=100"],
    ["compare-policies", "--se", "7,8", "--mb", "5", "--ov", "1.3", "--red-w", "0.002"],
]


@pytest.fixture
def recorded(monkeypatch):
    """The namespaces main hands its commands, which record them and return 0;
    main and _parsers() share the parsers built with the recording commands."""
    got = []

    def record(args, **kwargs):
        got.append(args)
        return 0
    for name in dir(aqmlab.cli):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(aqmlab.cli, name, record)
    parsers = aqmlab.cli.build_parsers()
    monkeypatch.setattr(aqmlab.cli, "_parsers", lambda: parsers)
    return got


@pytest.mark.parametrize("argv", _DISPATCHED, ids=" ".join)
def test_a_subcommand_call_parses_as_through_the_top_level_parser(argv, recorded, monkeypatch):
    top = aqmlab.cli._parsers()[0]
    expected = list(vars(top.parse_args(argv)).items())

    def forbidden(*args, **kwargs):
        raise AssertionError("a subcommand's call went through the top-level parser")
    monkeypatch.setattr(top, "parse_known_args", forbidden)
    for given in (argv, tuple(argv), iter(argv)):
        assert main(given) == 0
        assert list(vars(recorded.pop()).items()) == expected


@pytest.mark.parametrize("argv", [
    ["equilibrium", "--system", "threshold", "--foo", "1"],
    ["hopf-classify", "stray", "--c", "80", "stray2"],
    ["equilibrium", "--c", "100"],
    ["equilibrium", "--system", "bogus"],
    ["equilibrium", "--system", "threshold", "--c", "abc"],
    ["compare-policies", "--seeds", "x"],
    ["stability-chart", "--system", "threshold", "--sweep", "c=1:2", "--solve", "tau"],
    ["equilibrum", "--system", "threshold"],
    [],
    ["-h"],
    ["--c", "100", "equilibrium", "--system", "threshold"],
    ["equilibrium", "-h"],
    ["packet-sim", "--help"],
], ids=" ".join)
def test_help_and_usage_errors_read_as_through_the_top_level_parser(argv, capsys):
    with pytest.raises(SystemExit) as expected:
        aqmlab.cli._parsers()[0].parse_args(argv)
    want = capsys.readouterr()
    with pytest.raises(SystemExit) as got:
        main(argv)
    assert got.value.code == expected.value.code
    assert capsys.readouterr() == want


def _around(lo, hi, outside):
    """Values inside [lo, hi], the given values just outside the domain,
    and infinity."""
    return st.one_of(st.floats(lo, hi), st.sampled_from((*outside, math.inf))).map(repr)


_EQUILIBRIUM_OPTIONS = {
    "--tau": _around(1e-3, 5.0, (0.0, -1e-3, -1.0)),
    "--c": _around(1.0, 1000.0, (0.0, -1.0)),
    "--alpha": _around(1e-3, 10.0, (0.0, -1.0)),
    "--k": _around(0.0, 0.99, (-0.01, 1.0, 1.5)),
    "--beta": _around(0.01, 0.99, (0.0, 1.0, 1.01)),
    "--gamma": _around(1e-6, 1.0, (0.0, 1.01, 2.0)),
    "--qth": _around(1.0, 200.0, (0.0, 0.99)),
    "--b-min": _around(1.0, 500.0, (0.0, -1.0, 600.0)),
    "--b-max": _around(60.0, 5000.0, (0.0, -1.0, 10.0)),
    "--p-max": _around(1e-4, 0.99, (0.0, 1.0, 1.5)),
    "--kappa": _around(1e-3, 100.0, (0.0, -1.0)),
}


@settings(max_examples=80, deadline=None)
@given(
    system=st.sampled_from(("with-averaging", "no-averaging", "threshold")),
    options=st.fixed_dictionaries({}, optional=_EQUILIBRIUM_OPTIONS),
)
# the RED slope p_max / (b_max - b_min) underflows to 0
@example(system="no-averaging", options={"--p-max": "5e-324"})
def test_equilibrium_never_ends_in_a_traceback(system, options):
    argv = ["equilibrium", "--system", system]
    for name, value in options.items():
        argv += [name, value]
    assert _quietly(argv) in (0, 1, 2)


# one-point sweeps over every parameter name the chart code knows, and a
# bogus one, at values inside and outside their domains
_SWEEP_NAMES = sorted({*_PARAM_SETTERS, *aqmlab.cli._SWEEP_ALIASES, "bogus"})


@settings(max_examples=80, deadline=None)
@given(
    system=st.sampled_from(("with-averaging", "no-averaging", "threshold")),
    name=st.sampled_from(_SWEEP_NAMES),
    value=st.one_of(
        st.floats(-1.0, 1000.0),
        st.sampled_from((0.0, 1e-3, 0.1, 0.5, 0.99, 1.0, 2.0, 39.0, 100.0)),
    ),
    solve=st.sampled_from(tuple(DEFAULT_BRACKETS)),
)
# no tau boundary exists here; a trial point at the bracket's low end once
# failed the raw/simplified coefficient check
@example(system="threshold", name="alpha", value=61.0, solve="tau")
# the RED slope p_max / (b_max - b_min) underflows to 0
@example(system="with-averaging", name="p_max", value=5e-324, solve="tau")
# C*rtt is subnormal: the window bracket's upper end rounds to C*rtt itself
@example(system="threshold", name="c", value=2.225073858507203e-309, solve="tau")
def test_stability_chart_never_ends_in_a_traceback(system, name, value, solve):
    argv = ["stability-chart", "--system", system, "--solve", solve,
            "--sweep", f"{name}={value!r}:{value!r}:1", "--out", os.devnull]
    assert _quietly(argv) in (0, 1, 2)


_HOPF_OPTIONS = {
    "--tau-min": _around(1e-3, 1.0, (0.0, -1.0, 10.0)),
    "--tau-max": _around(0.05, 5.0, (0.0, -1.0, 1e-4)),
    "--at-tau": _around(0.01, 2.0, (0.0, -0.1)),
    "--c": _around(1.0, 1000.0, (0.0, -1.0)),
    **{name: _EQUILIBRIUM_OPTIONS[name] for name in (
        "--alpha", "--k", "--beta", "--gamma", "--b-min", "--b-max")},
    # tiny values too: the equilibrium queue and the critical rate multiplier
    # grow as 1 / p_max
    "--p-max": st.one_of(_EQUILIBRIUM_OPTIONS["--p-max"],
                         st.floats(1e-300, 1e-4).map(repr)),
}


@settings(max_examples=60, deadline=None)
@given(options=st.fixed_dictionaries({}, optional=_HOPF_OPTIONS))
# no crossing frequency exists at this delay and capacity
@example(options={"--at-tau": "0.01", "--c": "1"})
# the critical rate multiplier is 7.7e157: its square overflows
@example(options={"--at-tau": "1", "--p-max": "1e-160"})
# the manifold-correction system is singular
@example(options={"--at-tau": "5", "--c": "600000", "--p-max": "1e-11", "--b-min": "200",
                  "--b-max": "540", "--alpha": "0.02", "--k": "0.3", "--beta": "0.25"})
def test_hopf_classify_never_ends_in_a_traceback(options):
    argv = ["hopf-classify"]
    for name, value in options.items():
        argv += [name, value]
    assert _quietly(argv) in (0, 1, 2)


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def _options(required, optional, bad):
    """argv options: every required one and some optional ones, all valid,
    then none or one (option, value) pair from `bad`. argparse keeps the
    last value of a repeated option, so a bad pair replaces a valid value."""
    return st.tuples(
        st.fixed_dictionaries(required, optional=optional),
        st.one_of(st.just(()), st.sampled_from(bad)),
    ).map(lambda parts: [text for pair in (*parts[0].items(), parts[1]) for text in pair])


_NON_FINITE = ("inf", "nan")
# short runs only: a horizon of at most 5 delays at the fewest steps allowed,
# and a transient that leaves part of it to measure
_SHORT_FLUID = {"--horizon": _floats(0.5, 5.0), "--transient": _floats(0.0, 0.4),
                "--steps-per-delay": st.sampled_from(("200", "250"))}
_SHORT_FLUID_BAD = [("--horizon", v) for v in ("0", "-1", *_NON_FINITE)] + [
    *[("--steps-per-delay", v) for v in ("199", "0", "-1")], ("--transient", "-1"),
    ("--transient", "5"), ("--transient", "inf"), ("--tau", "0"), ("--tau", "inf"), ("--c", "-1"),
]
_FLUID_SIM = _options(
    _SHORT_FLUID,
    {"--tau": _floats(1e-3, 5.0), "--c": _floats(1.0, 1000.0),
     "--alpha": _floats(1e-3, 10.0), "--gamma": _floats(1e-6, 1.0),
     "--qth": _floats(1.0, 200.0), "--kappa": _floats(1e-3, 100.0),
     "--perturb": _floats(0.5, 2.0)},
    _SHORT_FLUID_BAD + [("--perturb", v) for v in ("0", "-1", *_NON_FINITE)]
    + [("--qth", "0.5"), ("--alpha", "nan"), ("--kappa", "0")],
)
_BIFURCATION = _options(
    {**_SHORT_FLUID,
     "--sweep": st.builds("qth={!r}:{!r}:{}".format, st.floats(1.0, 80.0),
                          st.floats(1.0, 80.0), st.integers(1, 3))},
    {"--tau": _floats(0.1, 5.0),
     "--c": _floats(1.0, 1000.0)},
    _SHORT_FLUID_BAD + [("--sweep", v) for v in (
        "qth=0:10:2", "qth=-1:5:2", "qth=5:5:0", "c=1:2:2", "qth=nan:5:1", "qth=inf:inf:1")],
)
_PACKET_OPTIONS = {
    "--rtt-ms": _floats(1.0, 300.0), "--red-bmin": _floats(1.0, 10.0),
    "--red-bmax": _floats(11.0, 100.0), "--red-pmax": _floats(0.01, 0.99),
    "--red-wq": _floats(1e-4, 1.0), "--qth": _floats(1.0, 40.0),
}
_PACKET_BAD = [("--rtt-ms", v) for v in ("0", "-1", *_NON_FINITE)] + [
    ("--red-bmin", "-1"), ("--red-bmax", "0.5"), ("--red-pmax", "1"), ("--red-wq", "0"),
    ("--red-wq", "1.5"), *[("--qth", v) for v in ("0", "-1", *_NON_FINITE)],
]
_COMPARE = _options(
    {"--duration": _floats(0.2, 2.0), "--seeds": st.sampled_from(("1", "1,2"))},
    {**_PACKET_OPTIONS, "--mb-per-flow": st.sampled_from(("1", "0")),
     "--overload": _floats(1.0, 2.0)},
    _PACKET_BAD + [("--duration", v) for v in ("0", "-1", *_NON_FINITE)] + [
        ("--seeds", "x"), ("--seeds", "1,,2"), ("--mb-per-flow", "-1"),
        *[("--overload", v) for v in ("0", "-1", *_NON_FINITE)],
    ],
)

# a scenario for a run of at most 3 s at 10 Mbps with one to three flows,
# then none or one bad value in place of a valid one, or an unknown key
_SCENARIO_BAD = [
    ("topology", "ring"), ("policy", "codel"), ("seed", "x"), ("buffer_pkts", "0"),
    ("buffer_pkts", "1.5"), ("packet_bytes", "0"), ("red.bmin", "0"), ("red.bmax", "nan"),
    ("red.pmax", "1"), ("red.wq", "2"), ("threshold.qth", "0"), ("threshold.qth", "2.5"),
    *[("flow.0.protocol", v) for v in ("vegas", "cubic", "udp")],
    ("flow.0.bytes", "0"), ("flow.0.bytes", "-5"),
    ("bogus", "1"),
    *[(key, v) for key in ("capacity_mbps", "duration_s", "sample_interval_s",
                           "flow.0.access_mbps", "flow.0.rtt_ms", "flow.0.start_s")
      for v in ("0", "-1", "x", *_NON_FINITE)],
]
_SCENARIO = st.tuples(
    st.fixed_dictionaries({
        "topology": st.sampled_from(("dumbbell", "parking-lot")),
        "capacity_mbps": _floats(1.0, 10.0),
        "buffer_pkts": st.sampled_from(("1", "50", "200")),
        "packet_bytes": st.sampled_from(("500", "1500")),
        "duration_s": _floats(0.2, 3.0),
        "seed": st.sampled_from(("1", "7")),
        "policy": st.sampled_from(("red", "threshold", "droptail")),
        "red.bmin": _floats(1.0, 10.0), "red.bmax": _floats(11.0, 100.0),
        "red.pmax": _floats(0.01, 0.99), "threshold.qth": st.sampled_from(("1", "15")),
    }, optional={"sample_interval_s": _floats(0.05, 0.5), "red.wq": _floats(1e-4, 1.0)}),
    st.lists(st.fixed_dictionaries({
        "protocol": st.sampled_from(("compound", "reno")),
        "access_mbps": _floats(0.5, 20.0),
        "rtt_ms": _floats(1.0, 300.0),
    }, optional={
        "start_s": _floats(0.0, 1.0),
        "bytes": st.sampled_from(("100000", "1500", "1")),
    }), min_size=1, max_size=3),
    st.one_of(st.just({}), st.sampled_from(_SCENARIO_BAD).map(lambda kv: dict([kv]))),
).map(lambda parts: "".join(f"{key} = {value}\n" for key, value in {
    **parts[0],
    **{f"flow.{i}.{key}": value for i, flow in enumerate(parts[1])
       for key, value in flow.items()},
    **parts[2],
}.items()))

_SIMULATION_COMMANDS = st.one_of(
    st.tuples(st.just(["fluid-sim", "--system"]),
              st.sampled_from(("with-averaging", "no-averaging", "threshold")), _FLUID_SIM)
    .map(lambda parts: [*parts[0], parts[1], *parts[2]]),
    _BIFURCATION.map(lambda options: ["bifurcation-diagram", *options]),
    _COMPARE.map(lambda options: ["compare-policies", *options]),
    st.tuples(_SCENARIO, _options({}, {**_PACKET_OPTIONS, "--seed": st.sampled_from(("0", "3"))},
                                  [("--seed", "x")]))
    .map(lambda parts: ["packet-sim", "--scenario", parts[0], *parts[1]]),
)


@settings(max_examples=60, deadline=None)
@given(argv=_SIMULATION_COMMANDS)
def test_simulation_commands_never_end_in_a_traceback(argv):
    # every output goes to a temporary directory; a packet-sim scenario is
    # written there first
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "packet-sim":
            path = os.path.join(tmp, "scenario.txt")
            with open(path, "w") as fh:
                fh.write(argv[2])
            argv = [*argv[:2], path, *argv[3:]]
        argv += ["--out", os.path.join(tmp, "out")]
        try:
            code = _quietly(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        assert code in (0, 1, 2)


# imports every aqmlab module and runs three commands with numpy blocked
_WITHOUT_NUMPY = """
import importlib, pkgutil, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import aqmlab
for module in pkgutil.iter_modules(aqmlab.__path__):
    importlib.import_module("aqmlab." + module.name)
from aqmlab.cli import main
out = sys.argv[1]
codes = [
    main(["equilibrium", "--system", "with-averaging"]),
    main(["stability-chart", "--system", "no-averaging", "--sweep", "c=100:100:1",
          "--solve", "tau", "--out", out + "/chart.csv"]),
    main(["fluid-sim", "--system", "threshold", "--tau", "1", "--horizon", "4",
          "--transient", "2", "--steps-per-delay", "200", "--out", out + "/traj.csv"]),
]
print(codes)
"""


def test_runtime_needs_no_numpy(tmp_path):
    src = pathlib.Path(aqmlab.cli.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0]", proc.stdout + proc.stderr


@pytest.mark.parametrize("command", [
    ["fluid-sim", "--system", "threshold"],
    ["bifurcation-diagram", "--sweep", "qth=20:20:1"],
], ids=lambda argv: argv[0])
def test_run_over_the_step_budget_is_refused_at_once(command, capsys, monkeypatch):
    # one step over the budget; a kernel that starts fails the test at once
    # rather than run 5.6 M steps
    for kind in aqmlab.fluid._KERNELS:
        monkeypatch.setitem(aqmlab.fluid._KERNELS, kind,
                            lambda *args: pytest.fail("the integration started"))
    horizon = (MAX_STEPS + 1) / 200
    assert _exit_code([*command, "--tau", "1", "--steps-per-delay", "200",
                       "--horizon", repr(horizon)]) == 2
    assert f"error: a run of {MAX_STEPS + 1:.4g} steps exceeds the integrator's budget " \
        f"of {MAX_STEPS} steps" in capsys.readouterr().err


def test_numerical_failure_exit_code_one(capsys):
    # no Hopf point below the critical delay: bracket error -> exit 1
    code = run(["hopf-classify", "--c", "100", "--tau-max", "0.05"])
    assert code == 1
    assert "numerical failure" in capsys.readouterr().err


def test_stability_chart_csv(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    code = run(["stability-chart", "--system", "with-averaging",
                "--sweep", "c=100:500:5", "--solve", "tau",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x_param,x_value,y_param,y_critical,omega,residual,transversality"
    assert len(lines) == 6
    taus = [float(ln.split(",")[3]) for ln in lines[1:]]
    assert taus == sorted(taus, reverse=True)


def test_stability_chart_of_c_over_tau_keeps_one_bdp(tmp_path, capsys):
    # the reverse chart maps each point through one critical c*tau
    out = tmp_path / "chart.csv"
    assert run(["stability-chart", "--system", "no-averaging", "--sweep", "tau=0.1:0.4:4",
                "--solve", "c", "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    bdps = [float(r[1]) * float(r[3]) for r in rows]
    assert len(bdps) == 4
    assert bdps == pytest.approx([bdps[0]] * 4, rel=1e-11, abs=0.0)
    assert f"{bdps[0]:.6g}" == "27.1751"


def test_stability_chart_of_c_over_tau_reports_every_failed_point(tmp_path, capsys,
                                                                   monkeypatch):
    def failing(*args, **kwargs):
        raise InternalConsistencyError("coefficients disagree")

    monkeypatch.setattr(aqmlab.stability, "linear_coefficients", failing)
    assert run(["stability-chart", "--system", "with-averaging", "--sweep", "c=100:300:3",
                "--solve", "tau", "--out", str(tmp_path / "chart.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"failed at c={c}: coefficients disagree" for c in (100, 200, 300)
    ]


def test_hopf_classify_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["hopf-classify", "--c", "100", "--out", str(out)]) == 0
    text = out.read_text()
    for key in ("omega0", "kappa_c", "c1_re", "c1_im", "mu2", "beta2",
                "type", "orbit"):
        assert key in text


def test_fluid_sim_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run(["fluid-sim", "--system", "threshold", "--c", "100",
                "--tau", "1", "--qth", "30", "--horizon", "20",
                "--transient", "10", "--steps-per-delay", "200",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,w"
    assert len(lines) == 20 * 200 + 2


def test_bifurcation_diagram_shape(tmp_path):
    out = tmp_path / "bif.csv"
    code = run(["bifurcation-diagram", "--sweep", "qth=30:45:4",
                "--c", "100", "--tau", "1", "--horizon", "150",
                "--transient", "100", "--out", str(out)])
    assert code == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    amp = {float(r[0]): float(r[4]) for r in rows}
    assert amp[30.0] < 0.05
    assert amp[45.0] > 1.0


def test_bifurcation_rejects_other_sweeps(capsys):
    assert run(["bifurcation-diagram", "--sweep", "alpha=1:2:2"]) == 2


def test_bifurcation_diagram_has_no_system_option(tmp_path):
    out = tmp_path / "bif.csv"
    assert _exit_code(["bifurcation-diagram", "--system", "threshold",
                       "--sweep", "qth=20:20:1"]) == 2
    assert run(["bifurcation-diagram", "--sweep", "qth=20:20:1", "--horizon", "10",
                "--transient", "5", "--profile", "paper", "--out", str(out)]) == 0
    lines = (tmp_path / "params.txt").read_text().splitlines()
    assert "sweep = qth=20.0:20.0:1" in lines
    assert not any(line.startswith("system") for line in lines)


def test_packet_sim_scenario_and_outputs(tmp_path):
    scenario = tmp_path / "scen.txt"
    scenario.write_text(
        "topology = dumbbell\ncapacity_mbps = 10\nbuffer_pkts = 400\n"
        "packet_bytes = 1500\nduration_s = 5\nsample_interval_s = 0.5\n"
        "seed = 3\npolicy = threshold\nthreshold.qth = 15\n"
        "flow.0.protocol = compound\nflow.0.access_mbps = 12\n"
        "flow.0.rtt_ms = 30\nflow.0.start_s = 0\n"
    )
    outdir = tmp_path / "out"
    assert run(["packet-sim", "--scenario", str(scenario),
                "--out", str(outdir)]) == 0
    for name in ("queue.csv", "flows.csv", "util.csv", "summary.csv"):
        assert (outdir / name).exists()
    qs = np.loadtxt(outdir / "queue.csv", delimiter=",", skiprows=1)
    assert qs[:, 1].max() <= 15


def test_packet_sim_unknown_scenario_key_exit_two(tmp_path, capsys):
    scenario = tmp_path / "bad.txt"
    scenario.write_text("topology = dumbbell\nwat = 1\n")
    assert run(["packet-sim", "--scenario", str(scenario)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_packet_sim_removed_protocol_exit_two(tmp_path, capsys):
    scenario = tmp_path / "cubic.txt"
    scenario.write_text(
        "topology = dumbbell\ncapacity_mbps = 10\nbuffer_pkts = 400\n"
        "packet_bytes = 1500\nduration_s = 1\nseed = 3\npolicy = droptail\n"
        "flow.0.protocol = cubic\nflow.0.access_mbps = 12\nflow.0.rtt_ms = 30\n"
    )
    assert run(["packet-sim", "--scenario", str(scenario)]) == 2
    assert "unknown protocol 'cubic'" in capsys.readouterr().err


def test_packet_sim_malformed_scenario_number_exit_two(tmp_path, capsys):
    scenario = tmp_path / "bad.txt"
    scenario.write_text(
        "topology = dumbbell\ncapacity_mbps = abc\nbuffer_pkts = 400\n"
        "packet_bytes = 1500\nduration_s = 5\nseed = 3\npolicy = droptail\n"
    )
    assert run(["packet-sim", "--scenario", str(scenario)]) == 2
    assert "capacity_mbps = 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("line, named", [
    ("red.wq = 2", "w_q"), ("red.bmin = 100", "b_min < b_max"), ("red.bmax = inf", "b_max"),
    ("red.pmax = 1", "p_max"), ("policy = threshold\nthreshold.qth = 0", "q_th"),
    ("topology = parking-lot", "route"),
    # an empty transfer used to run and write an empty afct
    ("flow.0.bytes = 0", "transfer size"), ("flow.0.bytes = -5", "transfer size"),
])
def test_packet_sim_scenario_value_outside_domain_exit_two(line, named, tmp_path, capsys):
    # the value replaces the one the scenario sets; nothing is run
    base = {"topology": "dumbbell", "capacity_mbps": "10", "buffer_pkts": "400",
            "packet_bytes": "1500", "duration_s": "5", "seed": "3", "policy": "red",
            "red.bmin": "20", "red.bmax": "60", "red.pmax": "0.1",
            "flow.0.protocol": "compound", "flow.0.access_mbps": "12", "flow.0.rtt_ms": "30"}
    for pair in line.split("\n"):
        key, value = pair.split(" = ")
        base[key] = value
    scenario = tmp_path / "bad.txt"
    scenario.write_text("".join(f"{key} = {value}\n" for key, value in base.items()))
    assert run(["packet-sim", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "out").exists()


def test_threshold_equilibrium_with_long_delay_and_high_qth(capsys):
    # (c * tau)**q_th overflows a float here; the closed form is taken in
    # logarithms
    assert run(["equilibrium", "--system", "threshold", "--qth", "200",
                "--tau", "5"]) == 0
    out = capsys.readouterr().out
    assert "w_star = " in out and "wk1_closed_form = " in out


def test_threshold_tau_chart_over_qth(tmp_path, capsys):
    out = tmp_path / "chart.csv"
    assert run(["stability-chart", "--system", "threshold", "--sweep", "qth=10:90:17",
                "--solve", "tau", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 18


def test_threshold_tau_chart_over_alpha(tmp_path, capsys):
    # no tau boundary exists in (1e-4, 30) for these alpha: every point fails
    # alone, and the trial points near tau = 1e-4 (p* ~ 0.99997) do not end
    # the chart with a failed coefficient cross-check
    out = tmp_path / "chart.csv"
    assert run(["stability-chart", "--system", "threshold", "--sweep", "alpha=55:65:11",
                "--solve", "tau", "--out", str(out)]) == 1
    assert out.read_text().splitlines() == [
        "x_param,x_value,y_param,y_critical,omega,residual,transversality"
    ]
    err = capsys.readouterr().err
    assert err.count("no stability change for tau") == 11
    assert "mismatch" not in err

    assert run(["stability-chart", "--system", "threshold", "--sweep", "alpha=0.05:64.05:5",
                "--solve", "tau", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 1
    assert float(rows[0].split(",")[3]) == pytest.approx(5.06e-4, rel=1e-3)


def test_paper_profile_writes_sidecar(tmp_path):
    out = tmp_path / "eq.txt"
    assert run(["equilibrium", "--system", "with-averaging", "--c", "100",
                "--tau", "0.1", "--profile", "paper",
                "--out", str(out)]) == 0
    sidecar = tmp_path / "params.txt"
    text = sidecar.read_text()
    assert "alpha = 0.125" in text
    assert "gamma = 0.0001" in text
    assert "b_max = 550" in text


def test_paper_profile_sidecar_records_values_used(tmp_path):
    out = tmp_path / "eq.txt"
    assert run(["equilibrium", "--system", "with-averaging", "--c", "100",
                "--tau", "0.1", "--alpha", "0.3", "--gamma", "0.03",
                "--profile", "paper", "--out", str(out)]) == 0
    lines = (tmp_path / "params.txt").read_text().splitlines()
    assert "alpha = 0.3" in lines
    assert "gamma = 0.03" in lines
    assert "tau = 0.1" in lines
    assert "alpha = 0.125" not in lines


def test_packet_sim_scenario_sidecar_leaves_out_overridden_options(tmp_path):
    scenario = tmp_path / "scen.txt"
    scenario.write_text(
        "topology = dumbbell\ncapacity_mbps = 10\nbuffer_pkts = 400\n"
        "packet_bytes = 1500\nduration_s = 2\nseed = 3\n"
        "policy = threshold\nthreshold.qth = 10\n"
        "flow.0.protocol = reno\nflow.0.access_mbps = 12\nflow.0.rtt_ms = 30\n"
    )
    outdir = tmp_path / "out"
    assert run(["packet-sim", "--scenario", str(scenario), "--profile", "paper",
                "--out", str(outdir)]) == 0
    lines = (outdir / "params.txt").read_text().splitlines()
    assert f"scenario = {scenario}" in lines
    assert "seed = 3" in lines
    for key in ("policy", "qth", "rtt_ms", "red_bmin", "red_bmax", "red_pmax", "red_wq"):
        assert not any(ln.startswith(f"{key} =") for ln in lines), key


def test_packet_sim_honours_seed_zero(tmp_path, monkeypatch):
    seen = []

    def short_run(cfg):
        seen.append(cfg.seed)
        return run_simulation(replace(cfg, duration=1.0))

    monkeypatch.setattr(aqmlab.cli, "run_simulation", short_run)
    assert run(["packet-sim", "--seed", "0", "--out", str(tmp_path / "out")]) == 0
    assert seen == [0]


def test_compare_policies_output(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = run(["compare-policies", "--rtt-ms", "40", "--seeds", "1",
                "--duration", "20", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,policy,loss_pct,throughput_mbps,mean_qd_ms,max_queue,afct_s"
    assert len(lines) == 3
    policies = {ln.split(",")[1] for ln in lines[1:]}
    assert policies == {"red", "threshold"}


def test_cli_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        assert run(["packet-sim", "--policy", "red", "--rtt-ms", "20",
                    "--seed", "9", "--out", str(outdir)]) == 0
        outs.append((outdir / "queue.csv").read_text())
    assert outs[0] == outs[1]


def test_repeated_main_calls_keep_no_state(tmp_path, capsys, monkeypatch):
    # main() reuses one parser; each call must still start from the defaults
    run(["equilibrium", "--system", "no-averaging", "--tau", "0.2"])
    with_tau = capsys.readouterr().out
    run(["equilibrium", "--system", "no-averaging"])
    default = capsys.readouterr().out
    run(["equilibrium", "--system", "no-averaging", "--tau", "0.1"])
    assert default == capsys.readouterr().out != with_tau

    seen = []

    def short_run(cfg):
        seen.append(cfg.seed)
        return run_simulation(replace(cfg, duration=0.5))

    monkeypatch.setattr(aqmlab.cli, "run_simulation", short_run)
    assert run(["packet-sim", "--seed", "0", "--out", str(tmp_path / "a")]) == 0
    assert run(["packet-sim", "--out", str(tmp_path / "b")]) == 0
    assert seen == [0, 1]
