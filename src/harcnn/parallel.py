"""Map a function over independent blocks on every CPU the process may use.

The calling thread and one worker thread per further CPU in the affinity
mask take the blocks in turn. The blocks' work is numpy calls that
release the GIL, so the threads overlap. Each block computes exactly
what a plain loop would, so results never depend on the thread count.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading


def cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS or Windows
        return os.cpu_count() or 1


def map_blocks(fn, blocks) -> list:
    """[fn(block) for block in blocks], run by the caller and one thread per further CPU.

    Every thread, the caller included, takes the next block index from
    one shared counter. Results come back in block order. The earliest failing block's
    exception is re-raised, as the plain loop would raise it, but only
    after the blocks already taken have run; once a block has failed no
    thread takes another, and no thread outlives the call. With one CPU
    or one block no thread is started, and the caller runs the blocks in
    order up to the first that fails. Each worker runs in a copy of the
    caller's context, so numpy's error state (np.errstate) holds there too.
    """
    blocks = list(blocks)
    threads = min(cpu_count(), len(blocks))
    results = [None] * len(blocks)
    failures = []
    taken = itertools.count()
    lock = threading.Lock()

    def run() -> None:
        while not failures:
            with lock:
                i = next(taken)
            if i >= len(blocks):
                return
            try:
                results[i] = fn(blocks[i])
            except BaseException as exc:  # raised in the caller, as the plain loop would
                failures.append((i, exc))

    workers = []
    try:
        for _ in range(threads - 1):
            worker = threading.Thread(target=contextvars.copy_context().run, args=(run,))
            worker.start()
            workers.append(worker)
        run()
    finally:
        for worker in workers:
            worker.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results
