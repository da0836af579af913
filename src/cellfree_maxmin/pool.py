"""The thread pool behind the Monte-Carlo oracle's draw blocks, the cdf
experiment's trials and the convergence experiment's two solvers.

All run on threads, not processes: their heavy parts (the compiled
Monte-Carlo block pass and APG stage, numpy's matmuls) release the
interpreter lock, and
threads share the caller's arrays and the loaded stage library without
pickling or loading anything twice.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def ordered_map(fn: Callable, count: int) -> Iterator:
    """fn(0), ..., fn(count - 1) in order, on min(cpu_count(), count)
    threads: the calling thread and a pool of the others that is shut down
    before this returns or raises; inline on one thread.

    The pool takes items from the front. While the next result is not done,
    the caller runs the last item the pool has not started, so it does not
    idle while work is left, and the map holds one thread, with its malloc
    arena, fewer than a pool of that many would."""
    workers = min(cpu_count(), count)
    if workers <= 1:
        yield from map(fn, range(count))
        return
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        futures = [pool.submit(fn, i) for i in range(count)]
        own = {}  # items from `last` on, run by the caller
        last = count
        try:
            for i in range(count):
                while last > i and not futures[i].done() and futures[last - 1].cancel():
                    last -= 1
                    own[last] = fn(last)
                yield own.pop(i) if i >= last else futures[i].result()
        finally:
            for future in futures:
                future.cancel()
