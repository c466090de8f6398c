"""Command-line pipeline: validate, extract, train, evaluate.

Every command is deterministic given (config, seed, dataset bytes), and
every file write is atomic. Exit codes: 0 success, 1 internal or config
error, 2 dataset or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .binio import FormatError, atomic_write_bytes
from .checkpoint import load_checkpoint, load_norm_stats, save_checkpoint, save_norm_stats
from .config import from_json, to_json
from .dataset import (
    DatasetError, EXPECTED_COUNTS, N_STREAMS, SPLITS, WINDOW_LEN, class_counts,
    parse_signal_file, read_split, table_count_mismatches,
    # Unused; bench/tests/test_smoke.py::test_wrappers_are_restored reads it (ROADMAP item 1).
    load_split,
)
from .dsp import WelchConfig
from .features import (
    FREQ_BINS,
    NormStats,
    extract_features,
    extraction_record,
    read_feature_cache,
    write_feature_cache,
)
from .layers import softmax
from .metrics import report_from_predictions
from .model import DEFAULT_MODEL_SPEC, ModelSpec, predict_batch
from .train import EpochStats, TrainConfig, TrainRun, train

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DATA = 2

# Reference test-split results this pipeline is compared against.
REFERENCE_TEST_ACCURACY = 95.25
REFERENCE_PER_CLASS_ACCURACY = {
    "Wlk": 97.38,
    "WUp": 94.90,
    "WDn": 95.48,
    "Sit": 87.17,
    "Stn": 96.24,
    "Lay": 99.81,
}

CACHE_NAMES = {"train": "train_features.bin", "test": "test_features.bin"}
NORM_NAME = "norm_stats.bin"
CHECKPOINT_NAME = "checkpoint.bin"
EPOCHS_NAME = "epochs.csv"
REPORT_NAME = "report.json"


@dataclass(frozen=True)
class RunConfig:
    """One human-editable document holding every knob, defaults written out."""

    dataset_root: str = "data/UCI HAR Dataset"
    output_dir: str = "out"
    strict_counts: bool = True
    subset: int | None = None
    welch: WelchConfig = WelchConfig()
    model: ModelSpec = DEFAULT_MODEL_SPEC
    train: TrainConfig = TrainConfig()

    def __post_init__(self) -> None:
        if self.subset is not None and self.subset < 1:
            raise ValueError(f"subset must be null or an integer >= 1, got {self.subset!r}")
        if self.welch.segment_len > WINDOW_LEN:
            raise ValueError(f"welch.segment_len must be <= the window length {WINDOW_LEN}, "
                             f"got {self.welch.segment_len}")
        self.model.flat_dim(FREQ_BINS)
        self.model.flat_dim(self.welch.n_bins)

    def to_json_dict(self) -> dict:
        return to_json(self)


def default_config_json() -> str:
    return json.dumps(to_json(RunConfig()), indent=2, sort_keys=True)


def load_config(path: str | Path) -> RunConfig:
    try:
        return from_json(RunConfig, json.loads(Path(path).read_text()))
    except (RecursionError, ValueError) as exc:  # RecursionError: JSON nested too deep
        raise ValueError(f"invalid config file {path}: {exc}") from exc


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "dataset", None):
        cfg = replace(cfg, dataset_root=args.dataset)
    if getattr(args, "out", None):
        cfg = replace(cfg, output_dir=args.out)
    if getattr(args, "subset", None) is not None:
        cfg = replace(cfg, subset=args.subset)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=args.seed))
    return cfg


def cmd_validate(cfg: RunConfig) -> int:
    all_diffs: list[str] = []
    print(f"dataset root: {cfg.dataset_root}")
    for split in SPLITS:
        # Each task keeps only its file's row count, so no split is ever held whole.
        _, labels, _ = read_split(cfg.dataset_root, split,
                                  lambda path: (len(parse_signal_file(path)), None),
                                  strict_counts=False)
        print(f"{split}: {len(labels)} samples")
        for activity, got in class_counts(labels).items():
            expected = EXPECTED_COUNTS[split][activity]
            marker = "" if got == expected else f"  (expected {expected})"
            print(f"  {activity.short}: {got}{marker}")
        all_diffs.extend(table_count_mismatches(split, labels))
    if all_diffs:
        print("count mismatches against the published split:", file=sys.stderr)
        for diff in all_diffs:
            print(f"  {diff}", file=sys.stderr)
        return EXIT_DATA
    print("all published split counts reproduced exactly")
    return EXIT_OK


def cmd_extract(cfg: RunConfig) -> int:
    out_dir = Path(cfg.output_dir)
    # The files are stamped before they are parsed, so one changed meanwhile
    # reads as stale. The sidecar, which carries the record, is removed first
    # and written last: an extract cut short leaves no record to match.
    record = extraction_record(cfg.dataset_root, cfg.welch, cfg.subset)
    (out_dir / NORM_NAME).unlink(missing_ok=True)
    for split in SPLITS:
        features, stats = extract_features(cfg.dataset_root, split, cfg.welch, subset=cfg.subset,
                                           strict_counts=cfg.strict_counts, fit=split == "train")
        # Made only now, so an extract that fails on the train split leaves no directory.
        out_dir.mkdir(parents=True, exist_ok=True)
        write_feature_cache(out_dir / CACHE_NAMES[split], features)
        n = len(features)
        del features  # released before the next split is read
        print(f"{split}: cached {n} samples "
              f"(freq {(N_STREAMS, FREQ_BINS)}, power {(N_STREAMS, cfg.welch.n_bins)})")
        if stats is not None:
            norm = stats
            print(f"normalization stats fitted on {n} training samples")
    save_norm_stats(out_dir / NORM_NAME, norm, record)
    return EXIT_OK


def _cached_stats(cfg: RunConfig) -> tuple[NormStats | None, str | None]:
    """The sidecar's stats when the output directory's caches are what extract would write
    now, else None and why they are not."""
    out_dir = Path(cfg.output_dir)
    for path in (*(out_dir / name for name in CACHE_NAMES.values()), out_dir / NORM_NAME):
        if not path.is_file():
            return None, f"{path.name} is missing"
    found, norm = load_norm_stats(out_dir / NORM_NAME)
    for split, wanted in extraction_record(cfg.dataset_root, cfg.welch, cfg.subset).items():
        recorded = found.get(split)
        for key, value in wanted.items():
            if not isinstance(recorded, dict) or recorded.get(key) != value:
                return None, f"{split}.{key} differs from this run's"
    return norm, None


def _epochs_csv(run: TrainRun) -> str:
    lines = ["epoch,train_loss,train_acc,test_acc,test_precision,test_recall,test_f1"]
    for e in run.epochs:
        lines.append(
            f"{e.epoch},{e.train_loss:.6f},{e.train_acc:.6f},{e.test_acc:.6f},"
            f"{e.test_precision:.6f},{e.test_recall:.6f},{e.test_f1:.6f}"
        )
    return "\n".join(lines) + "\n"


def cmd_train(cfg: RunConfig) -> int:
    out_dir = Path(cfg.output_dir)
    cache_paths = {split: out_dir / CACHE_NAMES[split] for split in SPLITS}
    norm, stale = _cached_stats(cfg)
    if stale is None:
        print("using cached features")
    else:
        print(f"extracting features: {stale}")
        cmd_extract(cfg)
        _, norm = load_norm_stats(out_dir / NORM_NAME)
    # Always train on the cached float32 values, so a run that extracted
    # first trains exactly like one that found the caches.
    train_set, test_set = (read_feature_cache(cache_paths[split]) for split in SPLITS)

    # Each line ends in the wall seconds since the previous one (the first
    # also counts the model set-up, which is negligible beside an epoch).
    epoch_start = time.perf_counter()

    def print_epoch(e: EpochStats) -> None:
        nonlocal epoch_start
        now = time.perf_counter()
        print(
            f"epoch {e.epoch:3d}: train_loss {e.train_loss:.4f} "
            f"train_acc {e.train_acc:.4f} test_acc {e.test_acc:.4f} ({now - epoch_start:.1f} s)",
            flush=True,
        )
        epoch_start = now

    params, run = train(train_set, test_set, cfg.model, cfg.train, norm, on_epoch=print_epoch)
    save_checkpoint(out_dir / CHECKPOINT_NAME, params, cfg.welch, run.best_epoch)
    atomic_write_bytes(out_dir / EPOCHS_NAME, _epochs_csv(run).encode())
    best = run.epochs[run.best_epoch - 1]
    print(f"best epoch {run.best_epoch}: test_acc {best.test_acc:.4f}")
    print(f"wrote {out_dir / CHECKPOINT_NAME} and {out_dir / EPOCHS_NAME}")
    return EXIT_OK


def _report_json_dict(report: dict, split: str) -> dict:
    """report.json's object: `report` with its split and, on the test split, the reference gaps."""
    d = dict(report, split=split)
    if split == "test":
        # Rounded after subtracting, so each gap prints as its own +.2f figure.
        d["reference_gap"] = {
            "accuracy": round(100.0 * report["accuracy"] - REFERENCE_TEST_ACCURACY, 2),
            "per_class_accuracy": {
                short: round(100.0 * acc - REFERENCE_PER_CLASS_ACCURACY[short], 2)
                for short, acc in report["per_class_accuracy"].items()
            },
        }
    return d


def cmd_evaluate(cfg: RunConfig, checkpoint_path: str | Path, split: str) -> int:
    out_dir = Path(cfg.output_dir)
    params, welch, _ = load_checkpoint(checkpoint_path)
    # The features of the checkpoint's Welch config, extracted as `extract` does.
    features, _ = extract_features(cfg.dataset_root, split, welch, subset=cfg.subset,
                                   strict_counts=cfg.strict_counts)
    if not len(features):
        raise ValueError("cannot evaluate an empty split")
    probs = softmax(predict_batch(params, features.freq, features.power))
    report, roc_points = report_from_predictions(probs, features.labels)
    d = _report_json_dict(report, split)
    gap = d.get("reference_gap")

    print(f"{split} accuracy: {100.0 * d['accuracy']:.2f}%")
    print("confusion matrix (rows = truth, columns = prediction):")
    print("      " + " ".join(f"{short:>5}" for short in d["class_order"]))
    for short, row in zip(d["class_order"], d["confusion"]):
        print(f"  {short} " + " ".join(f"{v:5d}" for v in row))
    print("per-class accuracy:")
    for short, acc in d["per_class_accuracy"].items():
        line = f"  {short}: {100.0 * acc:6.2f}%"
        if gap:
            line += f"  (reference {REFERENCE_PER_CLASS_ACCURACY[short]:.2f}%, " \
                    f"gap {gap['per_class_accuracy'][short]:+.2f})"
        print(line)
    print(
        f"macro precision {100 * d['macro_precision']:.2f}%  "
        f"recall {100 * d['macro_recall']:.2f}%  f1 {100 * d['macro_f1']:.2f}%"
    )
    if gap:
        print(f"reference accuracy {REFERENCE_TEST_ACCURACY:.2f}%, gap {gap['accuracy']:+.2f}")

    # Made only now, so an evaluate that fails leaves no directory behind.
    out_dir.mkdir(parents=True, exist_ok=True)
    report_text = json.dumps(d, indent=2, sort_keys=True)
    atomic_write_bytes(out_dir / REPORT_NAME, (report_text + "\n").encode())
    for short, points in roc_points.items():
        lines = ["fpr,tpr"] + [f"{fpr:.9f},{tpr:.9f}" for fpr, tpr in points]
        atomic_write_bytes(out_dir / f"roc_{short}.csv", ("\n".join(lines) + "\n").encode())
    print(f"wrote {out_dir / REPORT_NAME} and roc_<class>.csv files")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harcnn",
        description="Activity recognition from inertial windows: spectral features "
        "plus a two-channel 1-D CNN.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run config (defaults used when omitted)")
        p.add_argument("--dataset", default=None, help="dataset root directory")
        p.add_argument("--out", default=None, help="output directory")

    p_validate = sub.add_parser("validate", help="check dataset structure and published counts")
    common(p_validate)

    p_extract = sub.add_parser("extract", help="write feature caches and normalization stats")
    common(p_extract)
    p_extract.add_argument("--subset", type=int, default=None, help="keep only the first N samples")

    p_train = sub.add_parser("train", help="train the model and write checkpoint + epoch log")
    common(p_train)
    p_train.add_argument("--subset", type=int, default=None, help="keep only the first N samples")
    p_train.add_argument("--seed", type=int, default=None, help="training seed override")

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint and write report files")
    common(p_eval)
    p_eval.add_argument("--checkpoint", default=None,
                        help="checkpoint path (default: <out>/checkpoint.bin)")
    p_eval.add_argument("--split", choices=list(SPLITS), default="test")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # A huge but finite value in a cache, stats file or checkpoint can
        # overflow the float32 arithmetic: stop with one line, not a warning.
        with np.errstate(over="raise", divide="raise"):
            cfg = load_config(args.config) if args.config else RunConfig()
            cfg = _apply_overrides(cfg, args)
            if args.command == "validate":
                return cmd_validate(cfg)
            if args.command == "extract":
                return cmd_extract(cfg)
            if args.command == "train":
                return cmd_train(cfg)
            if args.command == "evaluate":
                checkpoint = args.checkpoint or Path(cfg.output_dir) / CHECKPOINT_NAME
                return cmd_evaluate(cfg, checkpoint, args.split)
            raise ValueError(f"unknown command {args.command!r}")
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FloatingPointError as exc:
        print(f"error: arithmetic failed: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
