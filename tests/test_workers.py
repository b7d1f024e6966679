"""The shared map over forked workers, and the batch entry points on it:
the pooled path is forced by an affinity mask of two CPUs, the serial one by
a mask of one, whatever the machine has; the placement tests read the real
mask."""

import errno
import os
import pickle
import signal
import time
from contextlib import redirect_stdout
from functools import partial

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


_affinity = getattr(os, "sched_getaffinity", None)  # unpatched


def _square_and_cpus(x):
    return x * x, _affinity(0)


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


def _placement_once_all_started(gate, n, _):
    # holds its worker until n items have started, so each worker takes one
    with open(gate, "a") as fh:
        fh.write(".")
    deadline = time.monotonic() + 10.0
    while os.path.getsize(gate) < n and time.monotonic() < deadline:
        time.sleep(0.002)
    return os.getpid(), os.sched_getaffinity(0)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


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


@pytest.mark.skipif(_affinity is None or len(_affinity(0)) < 2, reason="needs two CPUs")
def test_each_worker_is_pinned_to_its_own_cpu_of_the_mask(tmp_path):
    mask = os.sched_getaffinity(0)
    out = map_in_workers(partial(_placement_once_all_started, tmp_path / "gate", len(mask)),
                         range(len(mask)))
    assert len({pid for pid, _ in out}) == len(mask)
    assert all(len(cpus) == 1 for _, cpus in out)
    pinned = [cpu for _, cpus in out for cpu in cpus]
    assert len(set(pinned)) == len(mask) and set(pinned) <= mask
    assert os.sched_getaffinity(0) == mask
    _no_child_left()


@pytest.mark.skipif(_affinity is None, reason="needs sched_getaffinity")
def test_a_cpu_the_machine_lacks_leaves_its_worker_unpinned(monkeypatch):
    # CPU 4096 is past any machine's CPUs: pinning to it fails, so that
    # worker runs unpinned
    mask = os.sched_getaffinity(0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 4096}, raising=False)
    out = map_in_workers(_square_and_cpus, range(50))
    assert [v for v, _ in out] == [x * x for x in range(50)]
    assert all(cpus in ({0}, mask) for _, cpus in out)
    _no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_failed_fork_closes_its_pipe_and_reaps_the_forked(monkeypatch):
    _cpus(monkeypatch, 2)
    real_fork, forks = os.fork, []

    def fork_once():
        forks.append(1)
        if len(forks) > 1:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork_once)
    before = _open_fds()
    with pytest.raises(OSError) as err:
        map_in_workers(_square_and_pid, range(4))
    assert err.value.errno == errno.EAGAIN and len(forks) == 2
    assert _open_fds() == before
    _no_child_left()
