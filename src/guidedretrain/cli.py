"""Command-line harness.

Subcommands walk the pipeline end to end or stage by stage:

  train    train the original model M into <out>/model.grcnn, or load it
  attack   build the augmented sets, export them as IDX files
  score    compute guidance metrics over Train*, write score and timing CSVs
  retrain  run the requested (configuration, metric) sweeps, write
           points.npz and points.csv
  run      full pipeline plus summary/comparison/plot reports and manifest
  report   rebuild summary/comparison/plot CSVs from an existing points.npz;
           --trend-seeds N additionally runs the multi-seed SA-vs-Random
           comparison, one <out>/seed-<s>/ run directory per seed plus
           <out>/trend.csv and <out>/trend_summary.csv

Stages are deterministic functions of the configuration, and each has one
implementation that `run` shares (stages.py, reports.py). Every command
holds one stages.Spine, which reads what an earlier command left in <out>
instead of recomputing it: M from model.grcnn, the augmented sets from
sets.npz, the metric scores from scores.npz and the sweep points from
points.npz. Each entry (M, the sets, a metric, a sweep pair) keeps the
fingerprint lines of the config keys it depends on; the spine rebuilds
those missing or whose lines differ, naming on stderr the first changed
line. `report` reads points.npz alone, M's Test* accuracy included, and
exits 1, naming the file and the reason, if it is unreadable or lacks a
configured pair fresh. GR_THREADS alone sets the number of processes that
retrain the sweep points (default: every usable core; 1 runs them
in-process). That pool is the only parallelism: each command runs its
numerics on one OpenBLAS thread and restores the caller's count on return.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._blas import one_blas_thread
from .config import ConfigError, ExperimentConfig, load_config, with_overrides
from .data import save_idx_dataset
from .model import accuracy
from .reports import compute_trend, report_stage, retrain_stage, run_pipeline, score_stage
from .stages import MODEL_FILE, Spine


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="guidedretrain",
                                     description="Metric-guided adversarial retraining harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "attack", "score", "retrain", "run", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="key = value config file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--seed-init", type=int, default=None)
        p.add_argument("--seed-shuffle", type=int, default=None)
        p.add_argument("--seed-attack", type=int, default=None)
        p.add_argument("--seed-random-metric", type=int, default=None)
        if name == "report":
            p.add_argument("--trend-seeds", type=count, default=0,
                           help="also run the multi-seed SA-vs-Random trend comparison")
    return parser


def count(text: str) -> int:
    """A non-negative integer argument; argparse names the flag on a refusal."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _effective_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.out is not None:
        overrides["out"] = str(args.out)
    for field_name in ("seed_init", "seed_shuffle", "seed_attack", "seed_random_metric"):
        value = getattr(args, field_name)  # the flag's argparse name is the field's
        if value is not None:
            overrides[field_name] = value
    return with_overrides(cfg, **overrides) if overrides else cfg


def cmd_train(cfg: ExperimentConfig) -> int:
    spine = Spine(cfg)
    model = spine.model
    print(f"{'trained' if spine.trained else 'loaded'} M: clean test accuracy "
          f"{accuracy(model, spine.data[1]):.3f}, in {spine.out / MODEL_FILE}")
    return 0


def cmd_attack(cfg: ExperimentConfig) -> int:
    spine = Spine(cfg)
    sets = spine.sets
    for name, data in (("adv_train", sets.adv_train), ("adv_test", sets.adv_test)):
        save_idx_dataset(data, spine.out / f"{name}-images-idx3-ubyte",
                         spine.out / f"{name}-labels-idx1-ubyte")
    print(f"adv_train {len(sets.adv_train)} inputs, adv_test {len(sets.adv_test)} inputs; "
          f"M accuracy on Test* {accuracy(spine.model, sets.test_star):.3f}")
    return 0


def cmd_score(cfg: ExperimentConfig) -> int:
    scored, _ = score_stage(Spine(cfg))
    for metric, (values, seconds) in scored.items():
        print(f"{metric}: {len(values)} scores in {seconds:.3f}s")
    return 0


def cmd_retrain(cfg: ExperimentConfig) -> int:
    batch, _ = retrain_stage(Spine(cfg))
    for record in batch.records:
        print(f"{record.kind}/{record.metric}: best {record.best_accuracy:.3f} "
              f"at {record.resource_string()}")
    return 0


def cmd_run(cfg: ExperimentConfig) -> int:
    bundle = run_pipeline(cfg)
    print(f"M accuracy on Test*: {bundle.original_accuracy:.3f}")
    for record in bundle.records:
        print(f"{record.kind}/{record.metric}: best {record.best_accuracy:.3f} "
              f"at {record.resource_string()} "
              f"(u/Tn = {record.resource_utilization:.4f})")
    print(f"reports in {bundle.out_dir}")
    return 0


def cmd_report(cfg: ExperimentConfig, trend_seeds: int = 0) -> int:
    records, _ = report_stage(Spine(cfg))
    print(f"summary rebuilt for {len(records)} experiment(s)")
    if trend_seeds:
        seeds = [cfg.synthetic_seed + 100 * i for i in range(trend_seeds)]
        report = compute_trend(cfg, seeds, Path(cfg.out))
        print(f"trend over {trend_seeds} seeds: mean size@95% "
              f"SA-best {report.mean_sa_best:.1f} vs Random {report.mean_random:.1f} "
              f"({'SA reaches with fewer inputs' if report.sa_reaches_with_fewer_inputs else 'Random reached faster here'})")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with one_blas_thread():
            if args.command == "report":
                return cmd_report(cfg, trend_seeds=args.trend_seeds)
            return {"train": cmd_train, "attack": cmd_attack, "score": cmd_score,
                    "retrain": cmd_retrain, "run": cmd_run}[args.command](cfg)
    except Exception as exc:  # pipeline failures map to a nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
