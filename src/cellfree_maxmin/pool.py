"""The thread pool behind the Monte-Carlo oracle's draw blocks and the cdf
experiment's trials.

Both run on threads, not processes: their heavy parts (the compiled
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


def ordered_map(fn: Callable, count: int, workers: int) -> Iterator:
    """fn(0), ..., fn(count - 1) in order; on a pool of `workers` threads
    that is shut down before this returns or raises, inline when 1."""
    if workers == 1:
        yield from map(fn, range(count))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, range(count))
