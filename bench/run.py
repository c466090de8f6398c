"""Pipeline benchmark: one workload of real harcnn CLI commands on full-size data.

    python3 bench/run.py --workload {ingest,train,evaluate,all} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root. The seed makes a full-size synthetic UCI
HAR dataset (cached under .bench_data/); every set-up and every op then
runs in a fresh process (see workload.py). Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones. `--workload all` runs the three
workloads in turn, each ending in its own result line. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workload as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA_CACHE = ROOT / ".bench_data"
WORK = ROOT / ".bench_work"
# Datasets kept on disk (about 190 MB each); the least recently used goes first.
CACHED_SEEDS = 10
# One full-size epoch keeps a train op near 3-4 s, so a run holds several ops.
EPOCHS = 1
# One BLAS thread: the default pool made 2-epoch train times spread 6.2-8.0 s
# on 2 cores, against 5.78-5.89 s with one thread.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Each process must leave room for the others within the 180 s run limit.
PROCESS_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, failed set-up)."""


def ensure_dataset(seed: int) -> tuple[Path, float | None]:
    """Dataset directory for the seed and its generation seconds (None if cached)."""
    import checks
    import synth

    root = DATA_CACHE / f"seed_{seed}"
    done = root / "complete"
    if done.is_file():
        done.touch()
        return root, None
    shutil.rmtree(root, ignore_errors=True)
    start = time.perf_counter()
    synth.write_dataset(root, seed)
    checks.write_oracle(root, seed)
    seconds = time.perf_counter() - start
    done.touch()
    stale = sorted(DATA_CACHE.glob("seed_*/complete"), key=lambda p: p.stat().st_mtime)
    for marker in stale[:-CACHED_SEEDS]:
        shutil.rmtree(marker.parent, ignore_errors=True)
    return root, seconds


def write_config(workload: str, dataset: Path) -> Path:
    """The run config: package defaults except paths and a short training run."""
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    sys.path.insert(0, str(ROOT / "src"))
    from harcnn.cli import RunConfig

    cfg = RunConfig().to_json_dict()
    cfg.update(dataset_root=str(dataset), output_dir=str(work / "out"))
    cfg["train"]["epochs"] = EPOCHS
    path = work / "config.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
    return path


def workload_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: str(min(BLAS_THREADS, os.cpu_count() or 1)) for var in THREAD_VARS})
    return env


def spawn(workload: str, mode: str, config: Path, spans: Path | None = None) -> dict:
    """Run one workload step in a fresh process and return its JSON result."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--mode", mode, "--config", str(config)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, env=workload_env(), capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"{workload} {mode} process exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_ops(workload: str, config: Path, seconds: float,
            setup_runs: int = 1) -> tuple[list[dict], list[float]]:
    """Set-ups and untraced ops, one fresh process each, back to back for `seconds`.

    The first set-up makes the ops' inputs; the others are spread evenly
    between the ops. The host's speed drifts for tens of seconds at a time,
    so both medians are taken over samples that span the whole run.
    Returns the op results and the set-up seconds.
    """
    setups = [spawn(workload, "setup", config)["setup_s"]]
    results: list[dict] = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        due = seconds * len(setups) / setup_runs
        if len(setups) < setup_runs and time.perf_counter() - start >= due:
            setups.append(spawn(workload, "setup", config)["setup_s"])
        else:
            results.append(spawn(workload, "time", config))
    while len(setups) < setup_runs:
        setups.append(spawn(workload, "setup", config)["setup_s"])
    return results, setups


def tally(results: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems); an op whose outputs differ from the first op's fails."""
    first = next((r["digest"] for r in results if r["digest"]), None)
    failed, problems = 0, []
    for r in results:
        found = r["problems"]
        if not found and r["digest"] != first:
            found = ["outputs differ from the first op's"]
        failed += bool(found)
        problems += found
    return len(results), failed, problems


def percentile_summary(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    best = None
    for p in (90, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return f"median of {n} ops; no percentile above it has 10 samples beyond it"
    q = statistics.quantiles(values, n=1000, method="inclusive")[int(best * 10) - 1]
    return f"median of {n} ops; p{best:g} {q:.4f} s"


def run_record(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    env = workload_env()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: env.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "loop": "closed, one caller, ops back to back",
    }


def measure(workload: str, config: Path, seconds: float) -> tuple[dict, int, int, list[str]]:
    runs = wl.WORKLOADS[workload]["setup_runs"]
    results, setups = run_ops(workload, config, seconds, runs)
    ops = [r["op_s"] for r in results]
    metrics = {
        "op_s": (statistics.median(ops), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    attempted, failed, problems = tally(results)
    print(f"  op_s         {metrics['op_s'][0]:.4f} s   ({percentile_summary(ops)}: "
          + ", ".join(f"{s:.3f}" for s in ops) + ")")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"  setup_s      {metrics['setup_s'][0]:.4f} s   (median of {runs} set-ups: "
          + ", ".join(f"{s:.3f}" for s in setups) + ")")
    print(f"  error_rate   {failed / attempted:.4f} ratio ({failed} of {attempted} ops failed)")
    for name, value in results[-1]["quality"].items():
        unit = "nats" if name == "train_loss" else "ratio"
        print(f"  {name:<12} {value:.6f} {unit}")
    return metrics, attempted, failed, problems


def trace(workload: str, config: Path, seconds: float) -> tuple[dict, int, int, list[str]]:
    import tracer

    untraced, _ = run_ops(workload, config, seconds)
    spans_path = WORK / workload / "spans.jsonl"
    traced = spawn(workload, "trace", config, spans=spans_path)
    memory = spawn(workload, "memory", config)
    metrics = {name: tuple(pair)
               for name, pair in {**traced["metrics"], **memory["metrics"]}.items()}
    metrics["trace.op_s"] = (traced["op_s"], "s")
    untraced_s = statistics.median(r["op_s"] for r in untraced)
    metrics["trace.overhead_s"] = (traced["op_s"] - untraced_s, "s")
    # Learning quality of the traced train op; 0 where the workload trains nothing.
    quality = traced["quality"] if workload == "train" else {}
    metrics["train.test_acc"] = (quality.get("test_acc", 0.0), "ratio")
    metrics["train.train_loss"] = (quality.get("train_loss", 0.0), "nats")

    value = {name: v for name, (v, _) in metrics.items()}
    print(f"  traced op_s {value['trace.op_s']:.4f} s, overhead {value['trace.overhead_s']:+.4f} s "
          f"against the median of {len(untraced)} untraced ops, {int(value['trace.spans'])} spans "
          f"written to {spans_path.relative_to(ROOT)}")
    print(f"  span self times (cli.main included) sum to {value['trace.self_sum_s']:.4f} s")
    busiest = sorted(tracer.SPAN_NAMES, key=lambda n: -value[f"{n}.self_s"])
    for name in busiest[:8]:
        print(f"  {name:<36} self {value[name + '.self_s']:8.4f} s  "
              f"calls {int(value[name + '.calls'])}")
    attempted, failed, problems = tally(untraced + [traced, memory])
    return metrics, attempted, failed, problems


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> int:
    """One workload run: record, metric lines, and the JSON result as the last line."""
    try:
        dataset, gen_s = ensure_dataset(seed)
        config = write_config(workload, dataset)
        record = run_record(workload, seed)
        (WORK / workload / "run_record.json").write_text(json.dumps(record, indent=2))
        print(f"workload {workload}, seed {seed}, trace {int(traced)}: " + json.dumps(record))
        print("  dataset generation " + (f"{gen_s:.2f} s (unscored)" if gen_s else "cached"))
        run = trace if traced else measure
        metrics, attempted, failed, problems = run(workload, config, seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"  check failed: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }), flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*wl.WORKLOADS, "all"), required=True,
                        help="one workload, or all three in turn (one result line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "harcnn" / "cli.py").is_file():
        print(f"bench: no harcnn sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = tuple(wl.WORKLOADS) if args.workload == "all" else (args.workload,)
    return max(run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names)


if __name__ == "__main__":
    raise SystemExit(main())
