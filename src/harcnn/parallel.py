"""Map a function over independent blocks on every CPU the process may use.

The caller's thread takes part, and one worker thread is added per extra
CPU in the affinity mask. The blocks' work is numpy calls that release
the GIL, so the threads overlap. Each block computes exactly what a plain
loop would, so results never depend on the thread count.
"""

from __future__ import annotations

import os
import threading


def cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS or Windows
        return os.cpu_count() or 1


def map_blocks(fn, blocks) -> list:
    """[fn(block) for block in blocks], spread over the caller and the worker threads.

    Threads take the next untaken block until none is left, and the results
    come back in block order. Blocks are taken in order, so every block
    before a failing one runs; the exception of the earliest failing block
    is re-raised here, as the plain loop would raise it. With one CPU or
    one block no thread is started.
    """
    blocks = list(blocks)
    threads = min(cpu_count(), len(blocks))
    if threads <= 1:
        return [fn(block) for block in blocks]
    results = [None] * len(blocks)
    failures: dict[int, BaseException] = {}
    lock = threading.Lock()
    taken = 0

    def work() -> None:
        nonlocal taken
        while True:
            with lock:
                if failures or taken == len(blocks):
                    return
                index = taken
                taken += 1
            try:
                results[index] = fn(blocks[index])
            except BaseException as exc:  # handed to the caller, which re-raises it
                with lock:
                    failures[index] = exc
                return

    workers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for worker in workers:
        worker.start()
    try:
        work()
    finally:
        for worker in workers:
            worker.join()
    if failures:
        raise failures[min(failures)]
    return results
