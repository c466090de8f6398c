"""Map a function over independent blocks on every CPU the process may use.

A thread pool with one worker per CPU in the affinity mask runs the
blocks. The blocks' work is numpy calls that release the GIL, so the
threads overlap. Each block computes exactly what a plain loop would, so
results never depend on the thread count.
"""

from __future__ import annotations

import contextvars
import os


def cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS or Windows
        return os.cpu_count() or 1


def map_blocks(fn, blocks) -> list:
    """[fn(block) for block in blocks], spread over one worker thread per CPU.

    Results come back in block order. The earliest failing block's exception
    is re-raised, as the plain loop would raise it, but only after the blocks
    already queued have run; no thread outlives the call. With one CPU or one
    block no thread is started. Each block runs in a copy of the caller's
    context, so numpy's error state (np.errstate) holds there too.
    """
    blocks = list(blocks)
    threads = min(cpu_count(), len(blocks))
    if threads <= 1:
        return [fn(block) for block in blocks]
    from concurrent.futures import ThreadPoolExecutor  # here: it pulls in logging, ~7 ms at start

    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, block) for block in blocks]
        return [future.result() for future in futures]
