"""Spans and memory peaks around calls into harcnn's public functions.

The wrappers live in the benchmark, not in the program: for a traced op
each listed function is replaced at every harcnn module attribute bound
to it (callers import functions by name, so `harcnn.cli.load_split` and
`harcnn.model.conv1d_forward` are the names actually looked up) and put
back afterwards.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# Layer (harcnn module) -> public functions whose calls are traced.
TRACED = {
    "dataset": ("parse_signal_file", "load_split"),
    "dsp": ("fft_real", "welch_psd"),
    "features": (
        "extract_split",
        "fit_normalizer_arrays",
        "normalize_set",
        "write_feature_cache",
        "read_feature_cache",
    ),
    "layers": (
        "conv1d_forward",
        "conv1d_backward",
        "maxpool1d_forward",
        "maxpool1d_backward",
        "dense_forward",
        "dense_backward",
        "softmax_cross_entropy_batch",
    ),
    "model": ("forward_batch", "backward_batch", "predict_batch"),
    "train": ("train", "adam_step", "split_metrics"),
    "metrics": ("confusion", "report_from_predictions", "roc_curve"),
    "checkpoint": ("save_checkpoint", "load_checkpoint", "save_norm_stats", "load_norm_stats"),
    "binio": ("atomic_write_bytes",),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
# Functions whose peak traced allocation the memory pass reports.
MEMORY_NAMES = ("dataset.load_split", "features.extract_split", "dsp.fft_real", "dsp.welch_psd")

MB = 1e6


def _size(path) -> int:
    return os.path.getsize(path)


def _conv_flop(x, weights, stride) -> int:
    batch, streams, in_len = x.shape
    filters, _, kernel_len = weights.shape
    out_len = (in_len - kernel_len) // stride + 1
    return 2 * batch * out_len * filters * streams * kernel_len


def _conv_backward_flop(d_out, weights) -> int:
    # d_weights and d_windows are one GEMM each, the size of the forward's.
    batch, filters, out_len = d_out.shape
    _, streams, kernel_len = weights.shape
    return 4 * batch * out_len * filters * streams * kernel_len


def _stride(args, kwargs) -> int:
    return args[3] if len(args) > 3 else kwargs.get("stride", 1)


# Work counted at a call, from its arguments: span name -> (counter, amount).
_WORK = {
    "dataset.parse_signal_file": ("dataset.text_bytes", lambda a, k: _size(a[0])),
    "dsp.fft_real": ("dsp.fft_points", lambda a, k: a[0].size),
    "features.write_feature_cache": ("features.cache_bytes", lambda a, k: _size(a[0])),
    "features.read_feature_cache": ("features.cache_bytes", lambda a, k: _size(a[0])),
    "layers.conv1d_forward": (
        "layers.conv1d_forward.flop",
        lambda a, k: _conv_flop(a[0], a[1], _stride(a, k)),
    ),
    "layers.conv1d_backward": (
        "layers.conv1d_backward.flop",
        lambda a, k: _conv_backward_flop(a[0], a[2]),
    ),
    "checkpoint.save_checkpoint": ("checkpoint.bytes", lambda a, k: _size(a[0])),
    "checkpoint.load_checkpoint": ("checkpoint.bytes", lambda a, k: _size(a[0])),
    "checkpoint.save_norm_stats": ("checkpoint.bytes", lambda a, k: _size(a[0])),
    "checkpoint.load_norm_stats": ("checkpoint.bytes", lambda a, k: _size(a[0])),
    "binio.atomic_write_bytes": ("binio.written_bytes", lambda a, k: len(a[1])),
}


@contextmanager
def installed(names, make_wrapper):
    """Swap each named function for make_wrapper(name, fn) wherever harcnn binds it."""
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "harcnn"]
    patches = []
    try:
        for name in names:
            mod, fn = name.split(".")
            original = getattr(importlib.import_module(f"harcnn.{mod}"), fn)
            wrapper = make_wrapper(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)


class SpanRecorder:
    """Spans (name, start, end, parent index) kept in memory, plus work counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.work: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, work = self.spans, self._stack, self.work
        counter = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                work[counter[0]] += counter[1](args, kwargs)
            return result

        return traced

    def trace(self):
        return installed(SPAN_NAMES, self.wrap)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        for (name, *_), own in zip(self.spans, self.self_times()):
            self_s[name] += own
            calls[name] += 1
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = (self_s[name], "s")
            out[f"{name}.calls"] = (calls[name], "count")
        w = self.work
        text_mb = w["dataset.text_bytes"] / MB
        parse_s = self_s["dataset.parse_signal_file"]
        out["dataset.text_mb"] = (text_mb, "MB")
        out["dataset.parse_mb_per_s"] = (text_mb / parse_s if parse_s else 0.0, "MB/s")
        out["dsp.fft_points"] = (w["dsp.fft_points"], "count")
        out["features.cache_mb"] = (w["features.cache_bytes"] / MB, "MB")
        for fn in ("conv1d_forward", "conv1d_backward"):
            gflop = w[f"layers.{fn}.flop"] / 1e9
            seconds = self_s[f"layers.{fn}"]
            out[f"layers.{fn}.gflop"] = (gflop, "GFLOP")
            out[f"layers.{fn}.gflops"] = (gflop / seconds if seconds else 0.0, "GFLOP/s")
        out["train.steps"] = (calls["train.adam_step"], "count")
        out["checkpoint.mb"] = (w["checkpoint.bytes"] / MB, "MB")
        out["binio.written_mb"] = (w["binio.written_bytes"] / MB, "MB")
        out["trace.spans"] = (len(self.spans), "count")
        out["trace.self_sum_s"] = (sum(self.self_times()), "s")
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end (seconds), parent index."""
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(f'["{name}", {start:.9f}, {end:.9f}, {parent}]\n')


class MemoryRecorder:
    """Peak traced allocation per span of the MEMORY_NAMES functions, by tracemalloc.

    A span's peak is the highest traced total it saw minus the total at its
    entry; nested spans hand the peak they observed on to their parent.
    """

    def __init__(self) -> None:
        self.peak_mb = dict.fromkeys(MEMORY_NAMES, 0.0)
        self._stack: list[list[int]] = []

    def wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1][1] = max(stack[-1][1], peak)
            tracemalloc.reset_peak()
            frame = [current, current]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                frame[1] = max(frame[1], peak)
                stack.pop()
                if stack:
                    stack[-1][1] = max(stack[-1][1], frame[1])
                tracemalloc.reset_peak()
                self.peak_mb[name] = max(self.peak_mb[name], (frame[1] - frame[0]) / MB)

        return measured

    @contextmanager
    def trace(self):
        tracemalloc.start()
        try:
            with installed(MEMORY_NAMES, self.wrap):
                yield
        finally:
            tracemalloc.stop()

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {f"{name}.peak_mb": (value, "MB") for name, value in self.peak_mb.items()}
