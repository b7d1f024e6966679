"""One map over forked worker processes, for batches of independent runs."""

from __future__ import annotations

import os
import sys

from .errors import WorkerError


def map_in_workers(fn, items) -> list:
    """`[fn(x) for x in items]`, spread over worker processes.

    One worker runs per CPU of this process's affinity mask, at most one per
    item, each pinned to its own CPU; the caller's mask is untouched. A
    forked child starts on its parent's CPU, and on a 2-vCPU VM the scheduler
    was seen to leave both workers there for a whole map, at about twice the
    wall time. A worker whose CPU is refused (offline, outside the cgroup or
    absent) runs unpinned. A worker is a forked copy of this process: it
    inherits `fn` and the items, so only results are pickled, and each
    result is bit-identical to `fn(x)` here. Workers take item indices one at
    a time from a shared pipe, so a worker on a busy CPU simply takes fewer,
    and send their results back on their own pipe when the items run out.
    Every worker is reaped before return, on every path. An exception raised
    by `fn` reaches the caller as raised, after a pickle round trip, with the
    worker's traceback text as its `__cause__`; of several, the one of the
    lowest item index. A worker that dies before sending its results (killed
    by a signal, say) raises `WorkerError`. With one item, one CPU or no
    `os.fork`, the items are mapped here, in turn.
    """
    items = list(items)
    if hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
    else:
        cpus = [None] * (os.cpu_count() or 1)  # no mask, so no pinning
    cpus = cpus[:len(items)]
    if len(cpus) > 1 and hasattr(os, "fork"):
        return _forked_map(fn, items, cpus)
    return [fn(x) for x in items]


class _WorkerTraceback(Exception):
    """The traceback text of an exception raised in a worker."""


def _forked_map(fn, items, cpus):
    import pickle
    import select
    import signal
    import traceback  # here, so that no worker imports it anew

    # output still buffered here would be flushed again by every worker
    sys.stdout.flush()
    sys.stderr.flush()
    tasks, feed = os.pipe()
    readers = {}  # worker pid -> the read end of its result pipe
    try:
        for cpu in cpus:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _work(fn, items, tasks, feed, w, cpu)
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
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in readers]

    for code in statuses:
        if code < 0:
            raise WorkerError(f"a worker process was killed by signal "
                              f"{signal.Signals(-code).name}")
        if code > 0:
            raise WorkerError(f"a worker process exited with status {code}")
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


def _work(fn, items, tasks, feed, out, cpu):
    """A worker's life: pin itself to `cpu`, map the indices read from
    `tasks`, send the list of (index, ok, value or (exception, traceback
    text)) to `out`, exit."""
    import pickle
    import traceback

    status = 1
    try:
        if cpu is not None:
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:  # the CPU is offline, outside the cgroup or absent
                pass
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
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)
