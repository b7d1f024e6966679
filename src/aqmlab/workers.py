"""Forked worker processes: a map for batches of independent runs, and a
stream to one writer that consumes what its caller sends while the caller
computes on. Both fork through `_fork`, which pins each child to its own CPU
of this process's affinity mask (a forked child starts on its parent's CPU,
where a 2-vCPU VM was seen to leave it, at up to twice the wall time), and
reap through `_reap`: no child outlives the call that made it. With one CPU
or no `os.fork`, none is made and the caller does the work itself.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager

from .errors import WorkerError


def map_in_workers(fn, items) -> list:
    """`[fn(x) for x in items]`, spread over worker processes.

    One worker runs per CPU of the mask, at most one per item. A worker
    inherits `fn` and the items, so only results are pickled, each
    bit-identical to `fn(x)` here. Workers take item indices one at a time
    from a shared pipe, so a worker on a busy CPU simply takes fewer. An
    exception raised by `fn` reaches the caller as raised, with the worker's
    traceback text as its `__cause__`; of several, the lowest item's. A
    worker that dies before sending its results (killed by a signal, say)
    raises `WorkerError`. With one item the items are mapped here.
    """
    items = list(items)
    cpus = _cpus()[:len(items)]
    if len(cpus) > 1 and hasattr(os, "fork"):
        return _forked_map(fn, items, cpus)
    return [fn(x) for x in items]


@contextmanager
def stream_to_worker(consume):
    """A writer process, pinned to the last CPU of the mask, that runs
    `consume(objects)`; the `with` block gets the `send(obj)` function that
    feeds `objects` (pickled, in order; never None), or None where no writer
    can run. A block that ends without an exception commits: `objects` ends,
    and the exit waits for `consume` and raises what it raised, as
    `map_in_workers` would, or `WorkerError` if the writer died. A block that
    ends by an exception kills the writer, so `consume` must act on its input
    only once `objects` ends (were this process to die, `objects` would raise
    `EOFError` instead).
    """
    cpus = _cpus()
    if len(cpus) < 2 or not hasattr(os, "fork"):
        yield None
        return
    import pickle
    import signal

    feed_r, feed = os.pipe()
    back, back_w = os.pipe()
    try:
        pid = _fork(cpus[-1], lambda: _consume(consume, feed_r, feed, back, back_w))
    except BaseException:
        os.close(feed)
        os.close(back)
        raise
    finally:
        os.close(feed_r)
        os.close(back_w)

    def send(obj):
        data = memoryview(pickle.dumps(obj))
        try:
            while data:
                data = data[os.write(feed, data):]
        except BrokenPipeError:  # the writer has ended; the commit says how
            pass

    try:
        yield send
        send(None)
        with open(back, "rb", closefd=False) as fh:
            reply = fh.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(feed)
        os.close(back)
        failure = _reap([pid])
    if failure is not None:
        raise failure
    if (failed := pickle.loads(reply)) is not None:
        raise failed[0] from _WorkerTraceback(failed[1])


def _consume(consume, feed_r, feed, back, back_w):
    """A writer's life: run `consume` on the objects read from `feed_r` up
    to None, and send back None or (exception, traceback text)."""
    import pickle
    import traceback
    from functools import partial

    os.close(feed)  # else the writer would hold its own stream open
    os.close(back)
    with open(feed_r, "rb") as fh:
        try:
            consume(iter(partial(pickle.load, fh), None))
            failed = None
        except Exception as exc:
            failed = (exc, traceback.format_exc())
    with open(back_w, "wb") as fh:
        pickle.dump(failed, fh)


class _WorkerTraceback(Exception):
    """The traceback text of an exception raised in a worker."""


def _cpus() -> list:
    """This process's affinity mask, sorted; with no mask, one None (no
    pinning) per CPU."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None] * (os.cpu_count() or 1)


def _fork(cpu, body) -> int:
    """The pid of a forked child that pins itself to `cpu` (None: no
    pinning), runs `body()` and exits: with status 0 if `body` returned,
    else with 1 after printing the traceback."""
    import traceback  # here, so that no child imports it anew

    # output still buffered here would be flushed again by the child
    sys.stdout.flush()
    sys.stderr.flush()
    if pid := os.fork():
        return pid
    status = 1
    try:
        if cpu is not None:
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:  # the CPU is offline, outside the cgroup or absent
                pass
        body()
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def _reap(pids) -> WorkerError | None:
    """Wait for every child in `pids`; the WorkerError of the first that was
    killed by a signal or exited non-zero, else None."""
    import signal

    codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for code in codes:
        if code < 0:
            return WorkerError(f"a worker process was killed by signal "
                               f"{signal.Signals(-code).name}")
        if code > 0:
            return WorkerError(f"a worker process exited with status {code}")
    return None


def _forked_map(fn, items, cpus):
    import pickle
    import select
    import signal

    tasks, feed = os.pipe()
    readers = {}  # worker pid -> the read end of its result pipe
    try:
        for cpu in cpus:
            r, w = os.pipe()
            try:
                pid = _fork(cpu, lambda: _work(fn, items, tasks, feed, w))
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            os.close(w)
            readers[pid] = open(r, "rb")
        os.close(tasks)
        tasks = -1
        # whole 4-byte indices in writes of at most PIPE_BUF bytes, which the
        # pipe keeps atomic, so no worker reads part of an index
        payload = b"".join(i.to_bytes(4, sys.byteorder) for i in range(len(items)))
        try:
            for at in range(0, len(payload), select.PIPE_BUF):
                os.write(feed, payload[at:at + select.PIPE_BUF])
        except BrokenPipeError:  # every worker is gone; reported below
            pass
        os.close(feed)
        feed = -1
        sent = [fh.read() for fh in readers.values()]
    except BaseException:
        for pid in readers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in (tasks, feed):
            if fd >= 0:
                os.close(fd)
        for fh in readers.values():
            fh.close()
        failure = _reap(readers)

    if failure is not None:
        raise failure
    out = [None] * len(items)
    failed = None
    for data in sent:
        for i, ok, value in pickle.loads(data):
            if ok:
                out[i] = value
            elif failed is None or i < failed[0]:
                failed = (i, value)
    if failed is not None:
        exc, text = failed[1]
        raise exc from _WorkerTraceback(text)
    return out


def _work(fn, items, tasks, feed, out):
    """A worker's life: map the indices read from `tasks` and send the list
    of (index, ok, value or (exception, traceback text)) to `out`."""
    import pickle
    import traceback

    os.close(feed)
    done = []
    while index := os.read(tasks, 4):
        i = int.from_bytes(index, sys.byteorder)
        try:
            done.append((i, True, fn(items[i])))
        except Exception as exc:
            done.append((i, False, (exc, traceback.format_exc())))
    with open(out, "wb") as fh:
        pickle.dump(done, fh)
