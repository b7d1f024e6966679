"""The shared map over forked workers, and the batch entry points on it:
the pooled path is forced by an affinity mask of two CPUs, the serial one by
a mask of one, whatever the machine has."""

import os
import pickle
import signal
import time
from contextlib import redirect_stdout

import pytest

import aqmlab.fluid
from aqmlab.cli import main
from aqmlab.errors import IntegrationError, WorkerError
from aqmlab.fluid import threshold_bifurcation_sweep
from aqmlab.packetsim import DropTail, desk_config, run_batch
from aqmlab.params import NetworkParams, ProtocolSpec
from aqmlab.workers import map_in_workers


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _square_and_pid(x):
    return x * x, os.getpid()


def _blow_up(t):
    raise IntegrationError("non-finite state", time=t)


def _killed_at_two(x):
    if x == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def _slow_first(x):
    if x == 0:
        time.sleep(0.5)
    return os.getpid()


def _say(x):
    print(f"item {x}")
    return x


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _sweep(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    return threshold_bifurcation_sweep(
        ProtocolSpec(), NetworkParams(c_per_flow=100.0, rtt=1.0), [20.0, 33.5, 45.0],
        horizon_delays=30.0, transient_delays=20.0,
    )


def test_integration_error_pickles_with_its_time():
    back = pickle.loads(pickle.dumps(IntegrationError("x", time=1.5)))
    assert type(back) is IntegrationError and back.time == 1.5 and str(back) == "x"


def test_pooled_map_keeps_order_and_runs_in_workers(monkeypatch):
    # more indices than one PIPE_BUF write of the task pipe holds
    _cpus(monkeypatch, 2)
    out = map_in_workers(_square_and_pid, range(3000))
    assert [v for v, _ in out] == [x * x for x in range(3000)]
    assert os.getpid() not in {pid for _, pid in out}
    _no_child_left()


def test_items_go_to_whichever_worker_is_free(monkeypatch):
    # a static split would give the worker of the slow item half of them
    _cpus(monkeypatch, 2)
    pids = map_in_workers(_slow_first, range(10))
    assert pids.count(pids[0]) < 5
    _no_child_left()


def test_serial_map_runs_here(monkeypatch):
    _cpus(monkeypatch, 1)
    assert map_in_workers(_square_and_pid, [3, 4]) == [(9, os.getpid()), (16, os.getpid())]


def test_worker_error_reaches_caller_with_type_and_fields(monkeypatch):
    _cpus(monkeypatch, 2)
    with pytest.raises(IntegrationError) as err:
        map_in_workers(_blow_up, [1.5, 2.5])
    # the first failing item in order, raised in a worker, with its traceback
    assert err.value.time == 1.5 and str(err.value) == "non-finite state"
    cause = str(err.value.__cause__)
    assert cause.startswith("Traceback (most recent call last):")
    assert "in _blow_up" in cause and "IntegrationError: non-finite state" in cause
    _no_child_left()


def test_killed_worker_is_a_typed_error_naming_the_signal(monkeypatch):
    _cpus(monkeypatch, 2)
    with pytest.raises(WorkerError, match="killed by signal SIGKILL"):
        map_in_workers(_killed_at_two, range(4))
    _no_child_left()


def test_killed_worker_is_a_cli_error_not_a_traceback(monkeypatch, capsys, tmp_path):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(aqmlab.fluid, "_sweep_point",
                        lambda *args, **kwargs: os.kill(os.getpid(), signal.SIGKILL))
    code = main(["bifurcation-diagram", "--sweep", "qth=30:40:2",
                 "--out", str(tmp_path / "bif.csv")])
    assert code == 1
    assert "error: a worker process was killed by signal SIGKILL" in capsys.readouterr().err
    _no_child_left()


def test_worker_output_appears_once(monkeypatch, capfd):
    # stdout block-buffered, as into a pipe or a file: the parent's pending
    # output is flushed before the fork, and a worker's before it exits
    _cpus(monkeypatch, 2)
    with open(os.dup(1), "w") as buffered, redirect_stdout(buffered):
        print("pending", end="")
        assert map_in_workers(_say, [1, 2]) == [1, 2]
    out = capfd.readouterr().out
    assert out.count("pending") == 1
    assert out.count("item 1\n") == 1 and out.count("item 2\n") == 1


def test_pooled_sweep_equals_serial_sweep(monkeypatch):
    pooled = _sweep(monkeypatch, 2)
    _no_child_left()
    serial = _sweep(monkeypatch, 1)
    assert [q for q, _, _ in pooled] == [20.0, 33.5, 45.0]
    assert [repr(row) for row in pooled] == [repr(row) for row in serial]


def test_run_batch_leaves_no_worker(monkeypatch):
    _cpus(monkeypatch, 2)
    cfgs = [desk_config(DropTail(), 0.02, seed=s, duration=2.0, n_flows=2, capacity=5e6)
            for s in (1, 2)]
    assert len(run_batch(cfgs)) == 2
    _no_child_left()
