"""One map over forked worker processes, for batches of independent runs."""

from __future__ import annotations

import os


def map_in_workers(fn, items) -> list:
    """`[fn(x) for x in items]`, spread over worker processes.

    At most one worker runs per CPU this process may run on, and the pool is
    joined before return. A worker is a forked copy of this process, so each
    result is bit-identical to `fn(x)` here; an exception in a worker reaches
    the caller as raised, after a pickle round trip. With one item, one CPU
    or no `fork` start method, the items are mapped here, in turn. `fn` goes
    to a worker by name, so it is a module-level function that nothing
    rebinds (a tracer may wrap a public name in something a worker cannot
    import), or a `functools.partial` of one.
    """
    items = list(items)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(len(items), cpus)
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            # fork, not spawn or forkserver: those re-run the caller's main
            # script in every worker (which then needs a __main__ guard) and
            # import the package again, at no gain.
            with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")
            ) as pool:
                return list(pool.map(fn, items))
    return [fn(x) for x in items]
