"""The shared map over forked workers and the batch entry points on it, and
the stream to a writer process and fluid-sim's CSV written on it: the forked
path is forced by an affinity mask of two CPUs, the serial one by a mask of
one, whatever the machine has; the placement tests read the real mask."""

import errno
import os
import pickle
import select
import signal
import time
from contextlib import contextmanager, redirect_stdout
from functools import partial

import pytest

import aqmlab.cli
import aqmlab.fluid
from aqmlab.cli import main
from aqmlab.errors import IntegrationError, WorkerError
from aqmlab.fluid import default_history, threshold_bifurcation_sweep
from aqmlab.packetsim import DropTail, desk_config, run_batch
from aqmlab.params import NetworkParams, ProtocolSpec, ThresholdParams
from aqmlab.workers import map_in_workers, stream_to_worker


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


# -- the stream to a writer process, and fluid-sim's CSV written on it --------

def _record(path, objects):
    got = list(objects)
    with open(path, "wb") as fh:
        pickle.dump((got, os.getpid(), _affinity(0) if _affinity else None), fh)


def _raise_after_reading(objects):
    for _ in objects:
        pass
    raise IntegrationError("late", time=2.5)


def test_stream_delivers_objects_in_order_to_a_writer(monkeypatch, tmp_path):
    _cpus(monkeypatch, 2)
    sent = [b"", b"x" * 70000, [1.5, "a"]]  # one larger than a pipe holds
    with stream_to_worker(partial(_record, tmp_path / "got")) as send:
        for obj in sent:
            send(obj)
    got, pid, _ = pickle.loads((tmp_path / "got").read_bytes())
    assert got == sent and pid != os.getpid()
    _no_child_left()


def test_stream_with_one_cpu_is_none(monkeypatch):
    _cpus(monkeypatch, 1)
    with stream_to_worker(_raise_after_reading) as send:
        assert send is None


@pytest.mark.skipif(_affinity is None or len(_affinity(0)) < 2, reason="needs two CPUs")
def test_writer_is_pinned_to_the_last_cpu_of_the_mask(tmp_path):
    mask = os.sched_getaffinity(0)
    with stream_to_worker(partial(_record, tmp_path / "got")):
        pass
    _, _, cpus = pickle.loads((tmp_path / "got").read_bytes())
    assert cpus == {max(mask)} and os.sched_getaffinity(0) == mask
    _no_child_left()


def test_writer_without_an_affinity_mask_runs_unpinned(monkeypatch, tmp_path):
    mask = _affinity(0) if _affinity else None
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with stream_to_worker(partial(_record, tmp_path / "got")) as send:
        send(1.5)
    got, pid, cpus = pickle.loads((tmp_path / "got").read_bytes())
    assert got == [1.5] and pid != os.getpid() and cpus == mask
    _no_child_left()


def test_writer_error_reaches_caller_at_commit(monkeypatch):
    _cpus(monkeypatch, 2)
    with pytest.raises(IntegrationError) as err, stream_to_worker(_raise_after_reading) as send:
        send(b"abc")
    assert err.value.time == 2.5 and "in _raise_after_reading" in str(err.value.__cause__)
    _no_child_left()


def test_stream_left_by_an_exception_kills_the_writer_before_it_acts(monkeypatch, tmp_path):
    _cpus(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt), \
            stream_to_worker(partial(_record, tmp_path / "got")) as send:
        send(b"abc")
        raise KeyboardInterrupt
    assert not (tmp_path / "got").exists()
    _no_child_left()


_SIMS = {
    "threshold": ["--qth", "45"],
    "with-averaging": ["--tau", "0.171", "--gamma", "0.028"],
    "no-averaging": ["--tau", "0.27175", "--kappa", "1.02"],
}


@pytest.mark.parametrize("cpus", [2, 1], ids=["writer", "serial"])
@pytest.mark.parametrize("system", sorted(_SIMS))
def test_fluid_sim_csv_is_to_csv_byte_for_byte(system, cpus, monkeypatch, tmp_path, capsys):
    # 3.3 delays: three whole delays, then a last chunk of 60 of 200 steps
    argv = ["fluid-sim", "--system", system, *_SIMS[system], "--horizon", "3.3",
            "--transient", "2", "--steps-per-delay", "200"]
    args = aqmlab.cli.build_parsers()[0].parse_args(argv)
    kind = aqmlab.cli._KINDS[system]
    spec, red, th, net = aqmlab.cli._fluid_params(args)
    traj = aqmlab.fluid.integrate_dde(
        kind, spec, net, red=red, th=th,
        initial_history=default_history(aqmlab.cli._equilibrium(kind, spec, red, th, net)),
        horizon=3.3 * net.rtt, steps_per_delay=200,
    )
    assert len(traj) == 3 * 200 + 60 + 1
    traj.to_csv(tmp_path / "ref.csv")
    _cpus(monkeypatch, cpus)
    if cpus > 1:  # the writer formats the rows; to_csv is not called
        monkeypatch.setattr(aqmlab.fluid.Trajectory, "to_csv", None)
    assert main([*argv, "--out", str(tmp_path / "cli.csv")]) == 0
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    _no_child_left()


@pytest.fixture
def lockstep(monkeypatch):
    """Each send of integrate_dde returns once the writer has formatted what
    it sent, so a run that fails after a send finds the writer at work."""
    told, tell = os.pipe()
    spool, stream = aqmlab.fluid._spool_csv, aqmlab.fluid.stream_to_worker

    def spool_and_tell(path, kind, h, chunks):
        def telling():
            for columns in chunks:
                yield columns
                os.write(tell, b".")
        spool(path, kind, h, telling())

    @contextmanager
    def stream_in_lockstep(consume):
        def send_and_wait(obj):
            send(obj)
            assert select.select([told], [], [], 10.0)[0], "the writer formatted nothing"
            os.read(told, 1)

        with stream(consume) as send:
            yield send_and_wait

    monkeypatch.setattr(aqmlab.fluid, "_spool_csv", spool_and_tell)
    monkeypatch.setattr(aqmlab.fluid, "stream_to_worker", stream_in_lockstep)
    yield
    os.close(told)
    os.close(tell)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_fluid_sim_that_blows_up_leaves_its_out_file_alone(monkeypatch, tmp_path, capsys,
                                                           lockstep):
    _cpus(monkeypatch, 2)
    out = tmp_path / "traj.csv"
    out.write_bytes(b"earlier run\n")
    before = _open_fds()
    code = main(["fluid-sim", "--system", "threshold", "--c", "100", "--tau", "1",
                 "--qth", "45", "--kappa", "1e300", "--horizon", "150", "--transient", "100",
                 "--out", str(out)])
    assert code == 1
    assert "non-finite state at t=3.004" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier run\n"
    assert _open_fds() == before
    _no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_fluid_sim_into_a_missing_directory_is_the_open_error(monkeypatch, capsys):
    _cpus(monkeypatch, 2)
    before = _open_fds()
    code = main(["fluid-sim", "--system", "threshold", "--tau", "1", "--horizon", "4",
                 "--transient", "2", "--steps-per-delay", "200",
                 "--out", "/nonexistent/dir/x.csv"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: [Errno 2] No such file or directory: '/nonexistent/dir/x.csv'\n"
    assert _open_fds() == before
    _no_child_left()


def _integrate_to(path):
    return aqmlab.fluid.integrate_dde(
        aqmlab.fluid.FluidSystemKind.THRESHOLD, ProtocolSpec(),
        NetworkParams(c_per_flow=100.0, rtt=1.0), th=ThresholdParams(45.0),
        initial_history=(60.0,), horizon=4.0, steps_per_delay=200, csv_path=str(path),
    )


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_killed_writer_is_a_worker_error(monkeypatch, tmp_path):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(aqmlab.fluid, "_spool_csv",
                        lambda *args: os.kill(os.getpid(), signal.SIGKILL))
    before = _open_fds()
    with pytest.raises(WorkerError, match="killed by signal SIGKILL"):
        _integrate_to(tmp_path / "traj.csv")
    assert not (tmp_path / "traj.csv").exists()
    assert _open_fds() == before
    _no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_interrupted_run_kills_its_writer(monkeypatch, tmp_path, lockstep):
    _cpus(monkeypatch, 2)
    kernel, calls = aqmlab.fluid._KERNELS[aqmlab.fluid.FluidSystemKind.THRESHOLD], []

    def interrupted(*args):
        calls.append(1)
        if len(calls) == 3:
            raise KeyboardInterrupt
        kernel(*args)

    monkeypatch.setitem(aqmlab.fluid._KERNELS, aqmlab.fluid.FluidSystemKind.THRESHOLD,
                        interrupted)
    before = _open_fds()
    with pytest.raises(KeyboardInterrupt):
        _integrate_to(tmp_path / "traj.csv")
    assert not (tmp_path / "traj.csv").exists()
    assert _open_fds() == before
    _no_child_left()
