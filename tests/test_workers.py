"""The shared map over forked workers, and the batch entry points on it:
the pooled path is forced by an affinity mask of two CPUs, the serial one by
a mask of one, whatever the machine has."""

import multiprocessing
import os
import pickle

import pytest

from aqmlab.errors import IntegrationError
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
    _cpus(monkeypatch, 2)
    out = map_in_workers(_square_and_pid, range(6))
    assert [v for v, _ in out] == [x * x for x in range(6)]
    assert os.getpid() not in {pid for _, pid in out}
    assert multiprocessing.active_children() == []


def test_serial_map_runs_here(monkeypatch):
    _cpus(monkeypatch, 1)
    assert map_in_workers(_square_and_pid, [3, 4]) == [(9, os.getpid()), (16, os.getpid())]


def test_worker_error_reaches_caller_with_type_and_fields(monkeypatch):
    _cpus(monkeypatch, 2)
    with pytest.raises(IntegrationError) as err:
        map_in_workers(_blow_up, [1.5, 2.5])
    # the first failing item in order, raised in a worker
    assert err.value.time == 1.5 and str(err.value) == "non-finite state"
    assert type(err.value.__cause__).__name__ == "_RemoteTraceback"
    assert multiprocessing.active_children() == []


def test_pooled_sweep_equals_serial_sweep(monkeypatch):
    pooled = _sweep(monkeypatch, 2)
    assert multiprocessing.active_children() == []
    serial = _sweep(monkeypatch, 1)
    assert [q for q, _, _ in pooled] == [20.0, 33.5, 45.0]
    assert [repr(row) for row in pooled] == [repr(row) for row in serial]


def test_run_batch_leaves_no_worker(monkeypatch):
    _cpus(monkeypatch, 2)
    cfgs = [desk_config(DropTail(), 0.02, seed=s, duration=2.0, n_flows=2, capacity=5e6)
            for s in (1, 2)]
    assert len(run_batch(cfgs)) == 2
    assert multiprocessing.active_children() == []
