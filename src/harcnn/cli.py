"""Command-line pipeline: validate, extract, train, evaluate.

Every command is deterministic given (config, seed, dataset bytes), and
every file write is atomic. Exit codes: 0 success, 1 internal or config
error, 2 dataset or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .binio import FormatError, atomic_write_bytes
from .checkpoint import load_checkpoint, load_norm_stats, save_checkpoint, save_norm_stats
from .dataset import Activity, DatasetError, EXPECTED_COUNTS, SPLITS, load_split, table_count_mismatches
from .dsp import WelchConfig, require_type
from .features import (
    DEFAULT_EPSILON,
    FeatureSet,
    extract_split,
    fit_normalizer_arrays,
    normalize_set,
    read_feature_cache,
    write_feature_cache,
)
from .metrics import EvalReport, evaluate
from .model import DEFAULT_MODEL_SPEC, ModelSpec
from .train import TrainConfig, TrainRun, train

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
    normalizer_epsilon: float = DEFAULT_EPSILON
    welch: WelchConfig = WelchConfig()
    model: ModelSpec = DEFAULT_MODEL_SPEC
    train: TrainConfig = TrainConfig()

    def __post_init__(self) -> None:
        # bool is an int subclass, so True would otherwise pass as subset 1.
        subset = self.subset
        if subset is not None and (type(subset) is not int or subset < 1):
            raise ValueError(f"subset must be null or an integer >= 1, got {subset!r}")
        if type(self.strict_counts) is not bool:
            raise ValueError(f"strict_counts must be true or false, got {self.strict_counts!r}")
        require_type((int, float), self, "normalizer_epsilon")
        if not 0.0 < self.normalizer_epsilon < float("inf"):
            raise ValueError(
                f"normalizer_epsilon must be finite and > 0, got {self.normalizer_epsilon!r}"
            )

    def to_json_dict(self) -> dict:
        return {**asdict(self), "model": self.model.to_json_dict()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunConfig":
        return cls(
            dataset_root=d["dataset_root"],
            output_dir=d["output_dir"],
            strict_counts=d["strict_counts"],
            subset=d["subset"],
            normalizer_epsilon=d["normalizer_epsilon"],
            welch=WelchConfig(**d["welch"]),
            model=ModelSpec.from_json_dict(d["model"]),
            train=TrainConfig.from_json_dict(d["train"]),
        )


def default_config_json() -> str:
    return json.dumps(RunConfig().to_json_dict(), indent=2, sort_keys=True)


def load_config(path: str | Path) -> RunConfig:
    try:
        return RunConfig.from_json_dict(json.loads(Path(path).read_text()))
    except (KeyError, TypeError, ValueError) as exc:
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


def _load_features_for(cfg: RunConfig, split: str, welch: WelchConfig) -> FeatureSet:
    """Raw features of one split, cut to the config's first `subset` windows."""
    manifest = load_split(cfg.dataset_root, split, strict_counts=cfg.strict_counts)
    features = extract_split(manifest, welch)
    keep = slice(cfg.subset)  # slice(None) keeps every window
    return FeatureSet(
        freq=features.freq[keep], power=features.power[keep], labels=features.labels[keep]
    )


def cmd_validate(cfg: RunConfig) -> int:
    all_diffs: list[str] = []
    print(f"dataset root: {cfg.dataset_root}")
    for split in SPLITS:
        manifest = load_split(cfg.dataset_root, split, strict_counts=False)
        print(f"{split}: {len(manifest)} samples")
        for activity in Activity:
            got = manifest.per_class_counts[activity]
            expected = EXPECTED_COUNTS[split][activity]
            marker = "" if got == expected else f"  (expected {expected})"
            print(f"  {activity.short}: {got}{marker}")
        all_diffs.extend(table_count_mismatches(manifest))
    if all_diffs:
        print("count mismatches against the published split:", file=sys.stderr)
        for diff in all_diffs:
            print(f"  {diff}", file=sys.stderr)
        return EXIT_DATA
    print("all published split counts reproduced exactly")
    return EXIT_OK


def cmd_extract(cfg: RunConfig) -> int:
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for split in SPLITS:
        features = _load_features_for(cfg, split, cfg.welch)
        write_feature_cache(out_dir / CACHE_NAMES[split], features)
        print(f"{split}: cached {len(features)} samples "
              f"(freq {features.freq.shape[1:]}, power {features.power.shape[1:]})")
        if split == "train":
            norm = fit_normalizer_arrays(features.freq, features.power, cfg.normalizer_epsilon)
            save_norm_stats(out_dir / NORM_NAME, norm)
            print(f"normalization stats fitted on {len(features)} training samples")
        del features  # free this split before the next one is parsed
    return EXIT_OK


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
    if all(p.is_file() for p in cache_paths.values()) and (out_dir / NORM_NAME).is_file():
        print("using cached features")
    else:
        print("feature caches missing; extracting")
        cmd_extract(cfg)
    # Always train on the cached float32 values, so a run that extracted
    # first trains exactly like one that found the caches.
    norm = load_norm_stats(out_dir / NORM_NAME)
    train_set = normalize_set(read_feature_cache(cache_paths["train"]), norm)
    test_set = normalize_set(read_feature_cache(cache_paths["test"]), norm)
    params, run = train(train_set, test_set, cfg.model, cfg.train, norm)
    for e in run.epochs:
        print(
            f"epoch {e.epoch:3d}: train_loss {e.train_loss:.4f} "
            f"train_acc {e.train_acc:.4f} test_acc {e.test_acc:.4f}"
        )
    save_checkpoint(out_dir / CHECKPOINT_NAME, params, cfg.welch, run.best_epoch)
    atomic_write_bytes(out_dir / EPOCHS_NAME, _epochs_csv(run).encode())
    best = run.epochs[run.best_epoch - 1]
    print(f"best epoch {run.best_epoch}: test_acc {best.test_acc:.4f}")
    print(f"wrote {out_dir / CHECKPOINT_NAME} and {out_dir / EPOCHS_NAME}")
    return EXIT_OK


_SHORT_TO_ACTIVITY = {a.short: a for a in Activity}


def _report_json_dict(report: EvalReport, split: str) -> dict:
    d = report.to_json_dict()
    d["split"] = split
    if split == "test":
        gaps = {
            label: round(100.0 * report.per_class_accuracy[_SHORT_TO_ACTIVITY[label].value - 1], 2)
            - ref
            for label, ref in REFERENCE_PER_CLASS_ACCURACY.items()
        }
        d["reference_gap"] = {
            "accuracy": round(100.0 * report.accuracy, 2) - REFERENCE_TEST_ACCURACY,
            "per_class_accuracy": gaps,
        }
    return d


def cmd_evaluate(cfg: RunConfig, checkpoint_path: str | Path, split: str) -> int:
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params, welch, _ = load_checkpoint(checkpoint_path)
    report = evaluate(params, _load_features_for(cfg, split, welch))

    print(f"{split} accuracy: {100.0 * report.accuracy:.2f}%")
    print("confusion matrix (rows = truth, columns = prediction):")
    header = "      " + " ".join(f"{a.short:>5}" for a in Activity)
    print(header)
    for a in Activity:
        row = " ".join(f"{int(v):5d}" for v in report.confusion[a.value - 1])
        print(f"  {a.short} {row}")
    print("per-class accuracy:")
    for a in Activity:
        acc = 100.0 * report.per_class_accuracy[a.value - 1]
        line = f"  {a.short}: {acc:6.2f}%"
        if split == "test":
            line += f"  (reference {REFERENCE_PER_CLASS_ACCURACY[a.short]:.2f}%, " \
                    f"gap {acc - REFERENCE_PER_CLASS_ACCURACY[a.short]:+.2f})"
        print(line)
    print(
        f"macro precision {100 * report.macro_precision:.2f}%  "
        f"recall {100 * report.macro_recall:.2f}%  f1 {100 * report.macro_f1:.2f}%"
    )
    if split == "test":
        print(
            f"reference accuracy {REFERENCE_TEST_ACCURACY:.2f}%, "
            f"gap {100 * report.accuracy - REFERENCE_TEST_ACCURACY:+.2f}"
        )

    report_text = json.dumps(_report_json_dict(report, split), indent=2, sort_keys=True)
    atomic_write_bytes(out_dir / REPORT_NAME, (report_text + "\n").encode())
    for a in Activity:
        points, _ = report.roc[a.short]
        lines = ["fpr,tpr"] + [f"{fpr:.9f},{tpr:.9f}" for fpr, tpr in points]
        atomic_write_bytes(out_dir / f"roc_{a.short}.csv", ("\n".join(lines) + "\n").encode())
    print(f"wrote {out_dir / REPORT_NAME} and roc_<class>.csv files")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harcnn",
        description="Activity recognition from inertial windows: spectral features "
        "plus a two-channel 1-D CNN.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dataset_required=False):
        p.add_argument("--config", help="JSON run config (defaults used when omitted)")
        p.add_argument("--dataset", required=dataset_required, default=None,
                       help="dataset root directory")
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


if __name__ == "__main__":
    raise SystemExit(main())
