"""The one thread driver, shared by the table build and the census counters.

Both split their work into fixed chunks that do not depend on the worker
count, so every result is identical whether the chunks run serially or on
threads; numpy releases the GIL inside each chunk's array operations.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def usable_cpus() -> int:
    """CPUs this process may run on: the cap on worker threads."""
    if hasattr(os, "sched_getaffinity"):  # Linux-only
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_chunks(work, bounds: list[int], workers: int) -> list:
    """work(lo, hi) over the chunks [bounds[i], bounds[i + 1]), in order, run
    serially or on at most one thread per worker, usable CPU and chunk; each
    thread holds one chunk's transients at a time."""
    chunks = list(zip(bounds[:-1], bounds[1:]))
    threads = min(workers, usable_cpus(), len(chunks))
    if threads <= 1:
        return [work(lo, hi) for lo, hi in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda chunk: work(*chunk), chunks))
