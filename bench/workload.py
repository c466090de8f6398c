"""One step of a benchmark workload in its own process.

`run.py` starts this script once per step, so every step is a fresh
process, as every real CLI invocation is: peak RSS, first-touch page
faults and module-level caches such as the FFT plan belong to that step
alone, and no op runs warmer than another. The modes:

  setup   import harcnn and run the stages that make the workload's inputs
  time    import harcnn (untimed), then one op, tracing off
  trace   the same op with a span around every traced call
  memory  the same op with tracemalloc peaks around the memory-traced calls

An op is one real CLI command run in-process through `harcnn.cli.main`;
its output files are deleted before it and checked after it. The last
line of standard output is a JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Set-up stages and how many set-up processes a run makes (setup_s is their
# median; an import alone is cheap and noisy, so it gets more samples), the
# op, and the op's output files.
WORKLOADS = {
    "ingest": {
        "setup": (),
        "setup_runs": 9,
        "op": ("extract",),
        "outputs": ("train_features.bin", "test_features.bin", "norm_stats.bin"),
    },
    "train": {
        "setup": (("extract",),),
        "setup_runs": 2,
        "op": ("train",),
        "outputs": ("checkpoint.bin", "epochs.csv"),
    },
    "evaluate": {
        "setup": (("extract",), ("train",)),
        "setup_runs": 2,
        "op": ("evaluate", "--split", "test"),
        "outputs": ("report.json",)
        + tuple(f"roc_{c}.csv" for c in ("Wlk", "WUp", "WDn", "Sit", "Stn", "Lay")),
    },
}
MODES = ("setup", "time", "trace", "memory")


def _cli(args: tuple[str, ...], config: Path) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, captured stderr)."""
    from harcnn import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([*args, "--config", str(config)])
    return code, err.getvalue().strip()


def setup(workload: str, config: Path) -> float:
    """Seconds to import harcnn and run the workload's input-making stages."""
    start = time.perf_counter()
    import harcnn.cli  # noqa: F401  (the import is part of set-up)

    for stage in WORKLOADS[workload]["setup"]:
        code, err = _cli(stage, config)
        if code != 0:
            raise RuntimeError(f"set-up stage {stage[0]} exited {code}: {err}")
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    Linux's VmHWM belongs to the process image alone; ru_maxrss can carry the
    parent's peak over a vfork + exec, as subprocess does.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _check(workload: str, out: Path, cfg: dict) -> tuple[list[str], dict[str, float]]:
    """Problems with the op's outputs, and the learning quality they report."""
    import checks

    oracle = checks.load_oracle(Path(cfg["dataset_root"]))
    if workload == "ingest":
        return checks.check_ingest(out, oracle, cfg["subset"]), {}
    if workload == "train":
        rows = checks.read_epochs(out)
        quality = {"test_acc": max(r["test_acc"] for r in rows),
                   "train_loss": rows[-1]["train_loss"]}
        return checks.check_train(out, cfg["train"]["epochs"]), quality
    quality = {"test_acc": json.loads((out / "report.json").read_text())["accuracy"]}
    return checks.check_evaluate(out, oracle, cfg["subset"]), quality


def run_op(workload: str, config: Path, tracing=contextlib.nullcontext) -> dict:
    """One op, then its checks; `tracing()` is entered around the command only."""
    spec = WORKLOADS[workload]
    cfg = json.loads(config.read_text())
    out = Path(cfg["output_dir"])
    for name in spec["outputs"]:
        (out / name).unlink(missing_ok=True)
    with tracing():
        start = time.perf_counter()
        try:
            code, err = _cli(spec["op"], config)
            problems = [f"exit {code}: {err}"] if code != 0 else []
        except Exception as exc:  # an op that raises is a failed op, not a crash
            problems = [f"{type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - start
    peak = peak_rss_mb()
    quality, digest = {}, None
    if not problems:
        try:
            problems, quality = _check(workload, out, cfg)
            # The CLI is deterministic; run.py compares this digest across ops.
            h = hashlib.blake2b()
            for name in spec["outputs"]:
                h.update((out / name).read_bytes())
            digest = h.hexdigest()
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"output unreadable: {exc}"]
    return {"op_s": seconds, "peak_rss_mb": peak, "problems": problems,
            "quality": quality, "digest": digest}


def run_mode(workload: str, mode: str, config: Path, spans: Path | None = None) -> dict:
    """Run one mode (see the module docstring) and return its result dict."""
    if mode == "setup":
        return {"setup_s": setup(workload, config)}
    import harcnn.cli  # noqa: F401  (imported before the op, untimed)
    import tracer

    if mode == "time":
        return run_op(workload, config)
    if mode == "trace":
        recorder = tracer.SpanRecorder()
        result = run_op(workload, config, recorder.trace)
        if spans is not None:
            recorder.dump(spans)
        return {**result, "metrics": recorder.metrics()}
    if mode == "memory":
        recorder = tracer.MemoryRecorder()
        return {**run_op(workload, config, recorder.trace), "metrics": recorder.metrics()}
    raise ValueError(f"unknown mode {mode!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    print(json.dumps(run_mode(args.workload, args.mode, args.config, args.spans)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
