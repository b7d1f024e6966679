import os
from dataclasses import replace

import numpy as np
import pytest

import aqmlab.cli
from aqmlab.cli import main
from aqmlab.packetsim import run_simulation


def run(args):
    return main(args)


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


def test_packet_sim_malformed_scenario_number_exit_two(tmp_path, capsys):
    scenario = tmp_path / "bad.txt"
    scenario.write_text(
        "topology = dumbbell\ncapacity_mbps = abc\nbuffer_pkts = 400\n"
        "packet_bytes = 1500\nduration_s = 5\nseed = 3\npolicy = droptail\n"
    )
    assert run(["packet-sim", "--scenario", str(scenario)]) == 2
    assert "capacity_mbps = 'abc'" in capsys.readouterr().err


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


def test_fluid_sim_negative_horizon_is_domain_error(capsys):
    assert run(["fluid-sim", "--system", "threshold", "--tau", "1",
                "--horizon", "-3"]) == 1
    assert "horizon must be positive" in capsys.readouterr().err


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
