import os
import sys
import threading
import time

import numpy as np
import pytest

from conftest import held_until_a_worker_runs
from harcnn.parallel import cpu_count, map_blocks


class TestCpuCount:
    def test_counts_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert cpu_count() == 3

    def test_falls_back_to_cpu_count_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert cpu_count() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cpu_count() == 1


class TestMapBlocks:
    def test_results_come_back_in_block_order(self, four_cpus):
        def square(i, on_worker):
            time.sleep(0.001 * (i % 3))
            return i * i

        assert map_blocks(held_until_a_worker_runs(square), range(40)) == [i * i for i in range(40)]

    def test_every_block_runs_once_under_frequent_thread_switches(self, four_cpus):
        # More threads than this host's cores and a tiny switch interval: a
        # lost update of the shared block counter would skip or repeat a block.
        seen = []
        lock = threading.Lock()

        def record(i, on_worker):
            with lock:
                seen.append(i)
            return i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            results = map_blocks(held_until_a_worker_runs(record), range(3000))
            assert time.perf_counter() - start < 30
        finally:
            sys.setswitchinterval(interval)
        assert results == list(range(3000))
        assert sorted(seen) == list(range(3000))

    def test_empty_and_single_block(self, four_cpus):
        before = threading.active_count()
        assert map_blocks(lambda b: threading.active_count(), []) == []
        assert map_blocks(lambda b: threading.active_count(), ["only"]) == [before]

    def test_the_caller_runs_blocks_beside_one_worker_per_further_cpu(self, four_cpus):
        # Each worker's first block waits until the caller has run one, so
        # the caller gets a block however fast the workers start.
        caller = threading.current_thread()
        caller_ran = threading.Event()
        before = threading.active_count()

        def block(i):
            if threading.current_thread() is caller:
                caller_ran.set()
            else:
                caller_ran.wait(timeout=2)
            return threading.current_thread(), threading.active_count()

        seen = map_blocks(block, range(8))
        assert caller_ran.is_set()
        assert caller in {thread for thread, _ in seen}
        assert len({thread for thread, _ in seen}) <= 4
        assert max(count for _, count in seen) <= before + 3

    def test_one_cpu_is_a_plain_loop_on_the_caller(self, one_cpu):
        before = threading.active_count()
        caller = threading.current_thread()
        seen = map_blocks(lambda i: (threading.current_thread(), threading.active_count()), range(8))
        assert seen == [(caller, before)] * 8

    def test_one_cpu_stops_at_the_first_failing_block(self, one_cpu):
        before = threading.active_count()
        error = ValueError("block 3 failed")
        ran = []

        def block(i):
            ran.append((i, threading.active_count()))
            if i == 3:
                raise error
            return i

        with pytest.raises(ValueError) as info:
            map_blocks(block, range(8))
        assert info.value is error
        assert ran == [(i, before) for i in range(4)]

    def test_failure_on_a_worker_is_raised_in_the_caller(self, four_cpus):
        def fail_on_worker(i, on_worker):
            if on_worker:
                raise KeyError(f"block {i}")
            return i

        with pytest.raises(KeyError, match="block"):
            map_blocks(held_until_a_worker_runs(fail_on_worker), range(10))

    def test_earliest_failing_block_wins(self, four_cpus):
        # Block 6 fails first in time while block 5 is still running; the
        # plain loop would have raised block 5's error, and so must this.
        def fail_at(i, on_worker):
            if i == 5:
                time.sleep(0.05)
            if i in (5, 6, 30):
                raise ValueError(f"block {i} failed")
            return i

        for _ in range(3):
            with pytest.raises(ValueError, match=r"^block 5 failed$"):
                map_blocks(held_until_a_worker_runs(fail_at), range(40))

    def test_no_thread_outlives_the_call(self, four_cpus):
        before = threading.active_count()
        map_blocks(held_until_a_worker_runs(lambda i, on_worker: i), range(20))
        with pytest.raises(ZeroDivisionError):
            map_blocks(held_until_a_worker_runs(lambda i, on_worker: 1 // 0 if i == 3 else i),
                       range(20))
        assert threading.active_count() == before

    def test_workers_run_under_the_callers_numpy_error_state(self, four_cpus):
        def state(i, on_worker):
            return on_worker, np.geterr()["over"]

        with np.errstate(over="raise"):
            seen = map_blocks(held_until_a_worker_runs(state), range(8))
        assert any(on_worker for on_worker, _ in seen)
        assert {over for _, over in seen} == {"raise"}
